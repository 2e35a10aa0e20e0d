import math
import re

import numpy as np
import pytest
from conftest import recorded_pools, set_blas_threads
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ddfe.beams import DEFAULT_SIGMAS
from ddfe.stats import (
    HALF_SPAN_FLOOR,
    ClipParams,
    DensityReservoir,
    fit_clip,
    soft_clip,
)


def _stream(res, column_values):
    """Feed 1-D values into every channel of a reservoir."""
    values = np.asarray(column_values, dtype=np.float64)
    res.update(np.repeat(values[:, None], res.num_channels, axis=1))


def test_small_stream_kept_verbatim():
    res = DensityReservoir(seed=0)
    _stream(res, np.arange(10.0))
    assert res.seen == 10
    assert np.array_equal(np.sort(res.samples[0, :10]), np.arange(10.0))


def test_capacity_is_fixed():
    res = DensityReservoir(seed=1)
    _stream(res, np.random.default_rng(0).uniform(size=100_000))
    assert res.samples.shape == (4, 1000)
    assert res.seen == 100_000


@pytest.mark.parametrize("kwargs,message", [
    ({"capacity": 0}, "capacity must be >= 1, got 0"),
    ({"capacity": 2.5}, "capacity must be an integer, got 2.5"),
    ({"capacity": True}, "capacity must be an integer, got True"),
    ({"num_channels": 0}, "num_channels must be >= 1, got 0"),
    ({"num_channels": 4.0}, "num_channels must be an integer, got 4.0"),
    ({"seed": 2.5}, "seed must be an integer, got 2.5"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
    ({"seed": True}, "seed must be an integer, got True"),
])
def test_reservoir_sizes_are_integers_of_at_least_one(kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        DensityReservoir(**kwargs)


def test_constant_stream_yields_constant_reservoir():
    res = DensityReservoir(seed=2)
    _stream(res, np.full(5000, 3.25))
    assert np.all(res.samples[0] == 3.25)


def test_determinism_same_seed_same_contents():
    streams = np.random.default_rng(5).uniform(size=(3, 7000))
    snapshots = []
    for _ in range(2):
        res = DensityReservoir(seed=42)
        for chunk in streams:
            _stream(res, chunk)
        snapshots.append([s.copy() for s in res.samples])
    for a, b in zip(*snapshots):
        assert np.array_equal(a, b)


def test_update_rejects_non_finite():
    res = DensityReservoir(seed=0)
    with pytest.raises(ValueError, match="non-finite density"):
        res.update(np.array([[np.nan, 0.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="non-finite density at row 1"):
        res.update(np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, np.inf, 1.0]]))


def test_update_rejects_bad_shape():
    res = DensityReservoir(seed=0)
    with pytest.raises(ValueError):
        res.update(np.zeros((5, 3)))


def test_percentile_nearest_rank():
    res = DensityReservoir(seed=0)
    _stream(res, np.arange(1000.0))  # exactly fills, order preserved
    assert res.percentile(90.0)[0] == 899.0
    assert res.percentile(100.0)[0] == 999.0
    assert res.percentile(0.0)[0] == 0.0
    assert res.percentile(10.0)[0] == 99.0


def test_percentile_singleton():
    res = DensityReservoir(seed=0)
    _stream(res, [5.0])
    for p in (0.0, 37.0, 100.0):
        assert res.percentile(p)[0] == 5.0


def test_percentile_empty_reservoir():
    res = DensityReservoir(seed=0)
    with pytest.raises(ValueError, match="no density statistics"):
        res.percentile(50.0)


def test_percentile_range_validated():
    res = DensityReservoir(seed=0)
    _stream(res, [1.0])
    with pytest.raises(ValueError):
        res.percentile(101.0)


def test_fit_clip_arithmetic():
    res = DensityReservoir(seed=0)
    _stream(res, np.concatenate([np.full(500, 0.2), np.full(500, 0.8)]))
    clip = fit_clip(res)
    assert np.allclose(clip.p10, 0.2) and np.allclose(clip.p90, 0.8)
    assert np.allclose(clip.mid, 0.5)
    assert np.allclose(clip.half_span, 0.3)


def test_fit_clip_degenerate_constant_stream():
    res = DensityReservoir(seed=0)
    _stream(res, np.full(100, 1.5))
    clip = fit_clip(res)
    assert np.allclose(clip.mid, 1.5)
    assert np.all(clip.half_span == HALF_SPAN_FLOOR)


def test_fit_clip_uniform_stream():
    res = DensityReservoir(seed=9)
    _stream(res, np.random.default_rng(9).uniform(size=100_000))
    clip = fit_clip(res)
    assert clip.mid[0] == pytest.approx(0.5, abs=0.03)
    assert clip.half_span[0] == pytest.approx(0.4, abs=0.03)


def test_reservoir_percentiles_track_uniform_distribution():
    # scaled-down version of the acceptance check
    p10_err, p90_err = [], []
    for seed in range(5):
        res = DensityReservoir(seed=seed)
        _stream(res, np.random.default_rng(100 + seed).uniform(size=20_000))
        p10_err.append(abs(res.percentile(10.0)[0] - 0.1))
        p90_err.append(abs(res.percentile(90.0)[0] - 0.9))
    assert np.median(p10_err) <= 0.03
    assert np.median(p90_err) <= 0.03


def _demo_clip():
    mid = np.array([1.0, 2.0, 3.0, 4.0])
    span = np.array([0.5, 1.0, 0.25, 2.0])
    return ClipParams.from_mid_span(mid, span)


def test_soft_clip_identity_at_midpoint():
    clip = _demo_clip()
    out = soft_clip(np.tile(clip.mid, (3, 1)), clip)
    assert np.max(np.abs(out - clip.mid)) < 1e-12


def test_soft_clip_at_band_edge():
    clip = _demo_clip()
    out = soft_clip(clip.p90[None, :], clip)
    expected = clip.mid + np.tanh(1.0) * clip.half_span
    assert np.allclose(out[0], expected, rtol=1e-12)


def test_soft_clip_saturates_toward_bound():
    clip = _demo_clip()
    out = soft_clip(clip.mid[None, :] + 1e6 * clip.half_span[None, :], clip)
    assert np.all(out[0] <= clip.mid + clip.half_span)
    assert np.allclose(out[0], clip.mid + clip.half_span)


@settings(max_examples=100, deadline=None)
@given(
    values=hnp.arrays(np.float64, st.tuples(st.integers(0, 6), st.just(4)),
                      elements=st.one_of(st.floats(), st.sampled_from(
                          [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324]))),
    mid=hnp.arrays(np.float64, 4, elements=st.floats(-1e3, 1e3)),
    half_span=hnp.arrays(np.float64, 4, elements=st.one_of(
        st.floats(HALF_SPAN_FLOOR, 1e3), st.just(HALF_SPAN_FLOOR))),
)
def test_soft_clip_is_bitwise_the_tanh_formula(values, mid, half_span):
    clip = ClipParams.from_mid_span(mid, half_span)
    with np.errstate(all="ignore"):
        expected = np.tanh((values - mid) / half_span) * half_span + mid
        assert soft_clip(values, clip).tobytes() == expected.tobytes()


def test_soft_clip_strict_bounds_on_random_inputs():
    clip = _demo_clip()
    rng = np.random.default_rng(17)
    values = clip.mid + rng.uniform(-8.0, 8.0, size=(10_000, 4)) * clip.half_span
    out = soft_clip(values, clip)
    assert np.all(out > clip.mid - clip.half_span)
    assert np.all(out < clip.mid + clip.half_span)


def test_soft_clip_strictly_monotone():
    clip = _demo_clip()
    probes = np.linspace(-5.0, 5.0, 1001)
    for c in range(4):
        values = np.zeros((probes.size, 4))
        values[:, c] = clip.mid[c] + probes * clip.half_span[c]
        out = soft_clip(values, clip)[:, c]
        assert np.all(np.diff(out) > 0)


def test_soft_clip_unit_slope_at_midpoint():
    clip = _demo_clip()
    h = 1e-7 * clip.half_span
    hi = soft_clip((clip.mid + h)[None, :], clip)
    lo = soft_clip((clip.mid - h)[None, :], clip)
    slope = (hi - lo)[0] / (2.0 * h)
    assert np.allclose(slope, 1.0, atol=1e-6)


def test_clip_params_reject_negative_span():
    with pytest.raises(ValueError):
        ClipParams.from_mid_span(np.zeros(4), np.array([-1.0, 0.0, 0.0, 0.0]))


@pytest.mark.parametrize("bad", [0.0, -0.5, np.nan, np.inf])
def test_clip_params_reject_bad_span_naming_its_index(bad):
    span = np.array([0.1, 0.2, bad, 0.4])
    with pytest.raises(ValueError, match=f"clip.half_span must be finite and > 0, "
                                         f"got {bad} at index 2"):
        ClipParams.from_mid_span(np.zeros(4), span)
    with pytest.raises(ValueError, match="at index 2"):
        ClipParams(np.zeros(4), span, np.zeros(4), np.zeros(4))


class _ChannelReservoirs:
    """Reference: one Algorithm R reservoir per channel, each with its own count."""

    def __init__(self, num_channels, capacity, seed):
        self.capacity = capacity
        self.samples = [[] for _ in range(num_channels)]
        self.seen = [0] * num_channels
        seqs = np.random.SeedSequence(seed).spawn(num_channels)
        self.rngs = [np.random.default_rng(s) for s in seqs]

    def update(self, values):
        for c, reservoir in enumerate(self.samples):
            stream = values[:, c].tolist()
            fill = min(max(self.capacity - self.seen[c], 0), len(stream))
            reservoir.extend(stream[:fill])
            self.seen[c] += fill
            rest = stream[fill:]
            if rest:
                n = self.seen[c]
                slots = self.rngs[c].integers(0, np.arange(n + 1, n + len(rest) + 1))
                for value, slot in zip(rest, slots.tolist()):
                    if slot < self.capacity:
                        reservoir[slot] = value
                self.seen[c] += len(rest)

    def percentile(self, p):
        return np.array([sorted(r)[max(math.ceil(p / 100.0 * len(r)) - 1, 0)]
                         for r in self.samples])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), capacity=st.integers(1, 40),
       num_channels=st.integers(1, 5),
       chunk_sizes=st.lists(st.integers(0, 90), min_size=1, max_size=8))
def test_reservoir_matches_per_channel_algorithm_r(seed, capacity, num_channels,
                                                   chunk_sizes):
    res = DensityReservoir(num_channels, capacity, seed)
    reference = _ChannelReservoirs(num_channels, capacity, seed)
    rng = np.random.default_rng(seed)
    for size in chunk_sizes:
        chunk = rng.normal(size=(size, num_channels))
        res.update(chunk)
        reference.update(chunk)
        assert reference.seen == [res.seen] * num_channels
        kept = min(res.seen, capacity)
        assert res.samples[:, :kept].tobytes() == np.array(reference.samples).tobytes()
        if kept:
            for p in (0.0, 10.0, 37.5, 90.0, 100.0):
                assert res.percentile(p).tobytes() == reference.percentile(p).tobytes()


# (capacity, channels, cores): slots drawn many times over in one update, more
# channels than cores, and more cores than channels
@pytest.mark.parametrize("capacity,num_channels,cores", [(3, 4, 2), (50, 5, 2), (1000, 4, 8)])
@pytest.mark.parametrize("blas_threads", [None, "1"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reservoir_channels_side_by_side_are_algorithm_r(
        monkeypatch, seed, blas_threads, capacity, num_channels, cores):
    set_blas_threads(monkeypatch, blas_threads)
    pools = recorded_pools(monkeypatch, cores)
    res = DensityReservoir(num_channels, capacity, seed)
    reference = _ChannelReservoirs(num_channels, capacity, seed)
    rng = np.random.default_rng(seed)
    for size in rng.integers(0, 3000, size=6):
        chunk = rng.normal(size=(size, num_channels))
        res.update(chunk)
        reference.update(chunk)
        assert reference.seen == [res.seen] * num_channels
        kept = min(res.seen, capacity)
        assert res.samples[:, :kept].tobytes() == np.array(reference.samples).tobytes()
    assert set(pools) == ({min(num_channels, cores)} if blas_threads else set())


def test_reservoir_defaults_to_one_channel_per_sigma():
    assert DensityReservoir().num_channels == len(DEFAULT_SIGMAS)
