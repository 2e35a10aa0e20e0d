import os
import platform
import subprocess
import sys
import textwrap
import threading
import time

import pytest
from conftest import recorded_pools, set_blas_threads

from ddfe import parallel
from ddfe.parallel import side_by_side


def _ident():
    return threading.get_ident()


@pytest.mark.parametrize("cores,jobs,workers", [(2, 3, 1), (3, 4, 2), (8, 3, 2)])
def test_side_by_side_returns_results_in_order(monkeypatch, cores, jobs, workers):
    set_blas_threads(monkeypatch, "1")
    pools = recorded_pools(monkeypatch, cores)
    results = side_by_side(*(lambda i=i: i * i for i in range(jobs)))
    assert results == [i * i for i in range(jobs)]
    assert pools == [workers]


def test_side_by_side_runs_first_here_and_the_rest_on_the_pool(monkeypatch):
    set_blas_threads(monkeypatch, "1")
    pools = recorded_pools(monkeypatch, cores=2)
    here, there = side_by_side(_ident, _ident)
    assert here == threading.get_ident() != there
    assert pools == [1]


class _Failure(Exception):
    pass


def _raise(tag, delay=0.0):
    def job():
        time.sleep(delay)
        raise _Failure(tag)
    return job


@pytest.mark.parametrize("blas_threads", [None, "1"])
def test_side_by_side_raises_the_earliest_jobs_exception(monkeypatch, blas_threads):
    set_blas_threads(monkeypatch, blas_threads)
    recorded_pools(monkeypatch, cores=3)
    # the later job fails first in time, yet the earlier one's failure is raised
    with pytest.raises(_Failure, match="second"):
        side_by_side(lambda: 0, _raise("second", delay=0.05), _raise("third"))
    with pytest.raises(_Failure, match="first"):
        side_by_side(_raise("first", delay=0.05), _raise("second"))


def test_side_by_side_waits_for_every_started_job_before_raising(monkeypatch):
    set_blas_threads(monkeypatch, "1")
    recorded_pools(monkeypatch, cores=2)
    ended = []

    def slow():
        time.sleep(0.05)
        ended.append(True)

    with pytest.raises(_Failure, match="first"):
        side_by_side(_raise("first"), slow)
    assert ended == [True]


def test_side_by_side_runs_inline_on_one_thread(monkeypatch):
    set_blas_threads(monkeypatch, None)  # BLAS on any count of threads: threads() is 1
    pools = recorded_pools(monkeypatch, cores=8)
    assert parallel.threads() == 1
    assert side_by_side(_ident, _ident, _ident) == [threading.get_ident()] * 3
    assert pools == []


def test_side_by_side_runs_inline_on_a_pool_thread(monkeypatch):
    set_blas_threads(monkeypatch, "1")
    pools = recorded_pools(monkeypatch, cores=8)

    def nested():
        return threading.get_ident(), side_by_side(_ident, _ident)

    with parallel.thread_pool(1) as pool:
        worker, results = pool.submit(nested).result()
    assert results == [worker, worker]
    assert pools == [1]


def test_side_by_side_builds_no_pool_for_one_job(monkeypatch):
    set_blas_threads(monkeypatch, "1")
    pools = recorded_pools(monkeypatch, cores=8)
    assert side_by_side(_ident) == [threading.get_ident()]
    assert pools == []


_TRAIN_TWICE = textwrap.dedent("""
    import resource
    from ddfe import embedding, simulate
    from ddfe.sensors import SensorConfig
    sim64 = SensorConfig("sim64", 512, 64, -25.0, 3.0)
    data = simulate.make_dataset(2, sim64, seed=0)
    hyper = embedding.TrainConfig(epochs=3, batch_size=2, seed=0)
    embedding.train(data, sim64, hyper)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    embedding.train(data, sim64, hyper)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""")


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="the allocator policy is set where the C library is glibc")
def test_training_again_faults_in_almost_no_pages():
    # glibc's default policy trims the freed tapes: the second call took 34k-48k minor faults
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _TRAIN_TWICE], capture_output=True, text=True,
                          env=env, check=True, timeout=300)
    assert int(proc.stdout) < 1000
