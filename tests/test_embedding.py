import functools
import hashlib
import math
import multiprocessing
import os
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import recorded_pools, set_blas_threads

from ddfe import embedding, nn, parallel
from ddfe.beams import DEFAULT_SIGMAS, beam_profile, density_for_cloud
from ddfe.embedding import (
    DENSITY_SCALE,
    EmbeddingConfig,
    EmbeddingParams,
    Model,
    TrainConfig,
    binned_voxel_features,
    checkpoint_tensors,
    confusion_matrix,
    encode_scene,
    evaluate,
    feature_similarity_matrix,
    forward_encoded,
    inverse_frequency_weights,
    iou_scores,
    model_from_tensors,
    point_predictions,
    scene_loss,
    train,
)
from ddfe.sensors import ProjectionParams, SensorConfig
from ddfe.simulate import make_dataset
from ddfe.stats import ClipParams, DensityReservoir, fit_clip, soft_clip
from ddfe import io as dio

SIM = SensorConfig("sim16", 128, 16, -20.0, 4.0)
PROJ = ProjectionParams()
DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def profile():
    return beam_profile(SIM, PROJ)


@pytest.fixture(scope="module")
def small_scene(profile):
    rng = np.random.default_rng(2)
    cloud = np.stack([
        rng.uniform(3.0, 20.0, 60),
        rng.uniform(-6.0, 6.0, 60),
        rng.uniform(-2.0, 1.0, 60),
    ], axis=1)
    labels = rng.integers(0, 4, size=60)
    return encode_scene(cloud, profile, PROJ, 0.2, labels, True)


def _params(seed=0, **kwargs):
    return EmbeddingParams(EmbeddingConfig(**kwargs), np.random.default_rng(seed))


def _clip():
    return ClipParams.from_mid_span(np.full(4, 0.05), np.full(4, 0.04))


def test_forward_shapes(small_scene):
    params = _params()
    point_feats, voxel_feats = forward_encoded(small_scene, params, _clip())
    n = small_scene.offsets.shape[0]
    m = small_scene.grid.num_voxels
    assert point_feats.data.shape == (n, 16)
    assert voxel_feats.data.shape == (m, 32)


def test_forward_deterministic(small_scene):
    params = _params()
    a = forward_encoded(small_scene, params, _clip())
    b = forward_encoded(small_scene, params, _clip())
    assert np.array_equal(a[0].data, b[0].data)
    assert np.array_equal(a[1].data, b[1].data)


def test_full_pipeline_permutation_equivariance(profile):
    rng = np.random.default_rng(3)
    cloud = np.stack([
        rng.uniform(3.0, 20.0, 80),
        rng.uniform(-6.0, 6.0, 80),
        rng.uniform(-2.0, 1.0, 80),
    ], axis=1)
    params = _params()
    clip = _clip()
    perm = rng.permutation(80)
    scene_a = encode_scene(cloud, profile, PROJ, 0.2)
    scene_b = encode_scene(cloud[perm], profile, PROJ, 0.2)
    fp_a, fv_a = forward_encoded(scene_a, params, clip)
    fp_b, fv_b = forward_encoded(scene_b, params, clip)
    assert np.allclose(fp_b.data, fp_a.data[perm], atol=1e-12)
    # voxel features match when voxels are aligned via their cell indices
    cells_a = {tuple(c): i for i, c in enumerate(scene_a.grid.cells)}
    align = [cells_a[tuple(c)] for c in scene_b.grid.cells]
    assert np.allclose(fv_b.data, fv_a.data[align], atol=1e-12)


def _mlp2(params, x, prefix):
    h = nn.relu(nn.linear(x, params[f"{prefix}.w1"], params[f"{prefix}.b1"]))
    return nn.linear(h, params[f"{prefix}.w2"], params[f"{prefix}.b2"])


def _reference_forward(scene, params, clip):
    """The DDFE forward pass composed op by op: point and voxel MLPs, the two
    density gates, max pooling and the fuse layer."""
    dc = scene.density_raw if clip is None else soft_clip(scene.density_raw, clip)
    voxel = _mlp2(params, nn.Tensor(scene.center_feats), "voxel_mlp")
    point = _mlp2(params, nn.Tensor(scene.offsets * (2.0 / params.config.voxel_size)),
                  "point_head")
    if params.config.use_attention:
        gate = nn.sigmoid(_mlp2(params, nn.Tensor(dc * DENSITY_SCALE), "attn_point"))
        point = nn.multiply(gate, point)
        dc_voxel = nn.segment_mean(nn.Tensor(dc * DENSITY_SCALE), scene.segments)
        voxel = nn.multiply(nn.sigmoid(_mlp2(params, dc_voxel, "attn_voxel")), voxel)
    pooled = nn.segment_max(point, scene.segments)
    fused = nn.linear(nn.concat([voxel, pooled], axis=1), params["fuse.w"], params["fuse.b"])
    return point, fused


@pytest.mark.parametrize("use_clip", [True, False])
@pytest.mark.parametrize("use_attention", [True, False])
def test_forward_is_bitwise_the_reference_composition(small_scene, use_clip, use_attention):
    clip = _clip() if use_clip else None
    runs = []
    for forward in (forward_encoded, _reference_forward):
        params = _params(seed=4, use_attention=use_attention)
        point, fused = forward(small_scene, params, clip)
        grads = (nn.tensor_sum(point) + nn.tensor_sum(fused)).backward()
        runs.append((point.data.tobytes(), fused.data.tobytes(),
                     [grads[p].tobytes() for p in params.parameters() if p in grads]))
    assert runs[0] == runs[1]


def _box_cloud(n, seed):
    rng = np.random.default_rng(seed)
    return np.stack([rng.uniform(3.0, 20.0, n), rng.uniform(-6.0, 6.0, n),
                     rng.uniform(-2.0, 1.0, n)], axis=1)


@functools.cache
def _block_scene(rows):
    """A scene of `rows` points in a box, or of one simulated sim64 scan
    (rows None), with the sim16 density."""
    if rows is None:
        cloud, _ = make_dataset(1, SensorConfig("sim64", 512, 64, -25.0, 3.0), seed=0)[0]
    else:
        cloud = _box_cloud(rows, rows)
    return encode_scene(cloud, beam_profile(SIM, PROJ), PROJ, 0.2)


def _constant_params(**kwargs):
    params = _params(seed=4, **kwargs)
    for name, tensor in params.tensors.items():
        params.tensors[name] = nn.Tensor(tensor.data)
    return params


def _recorded_blocks(monkeypatch):
    """The row slices forward_encoded hands to its point stream, in call order."""
    blocks = []
    point_stream = embedding._point_stream

    def recording(scene, params, clip, rows):
        blocks.append(rows.indices(scene.offsets.shape[0])[:2])
        return point_stream(scene, params, clip, rows)

    monkeypatch.setattr(embedding, "_point_stream", recording)
    return blocks


# (rows, blocks): just below and just above the block floor, two uneven blocks,
# and a sim64 scan of about 27k points
@pytest.mark.parametrize("rows,expected_blocks", [
    (embedding.POINT_BLOCK - 1, 1),
    (embedding.POINT_BLOCK + 1, 1),
    (2 * embedding.POINT_BLOCK + 1, 2),
    (None, 3),
])
@pytest.mark.parametrize("use_clip", [True, False])
@pytest.mark.parametrize("use_attention", [True, False])
def test_blocked_forward_is_bitwise_the_reference_composition(
        monkeypatch, rows, expected_blocks, use_clip, use_attention):
    scene, clip = _block_scene(rows), _clip() if use_clip else None
    params = _constant_params(use_attention=use_attention)
    pools = recorded_pools(monkeypatch, cores=2)
    blocks = _recorded_blocks(monkeypatch)
    got = forward_encoded(scene, params, clip)
    want = _reference_forward(scene, params, clip)
    assert [g.data.tobytes() for g in got] == [w.data.tobytes() for w in want]
    n = scene.offsets.shape[0]
    assert len(blocks) == expected_blocks
    assert [a for a, _ in blocks] == [0] + [b for _, b in blocks[:-1]] and blocks[-1][1] == n
    assert min(b - a for a, b in blocks) >= min(n, embedding.POINT_BLOCK)
    assert pools == ([min(expected_blocks, 2)] if expected_blocks > 1 else [])


@pytest.mark.parametrize("heads", [False, True])
@pytest.mark.parametrize("use_attention", [True, False])
def test_each_stream_fills_only_the_arrays_its_caller_reads(monkeypatch, heads, use_attention):
    # the point stream's density only with attention on; one voxel output, with heads or not
    widths = []
    in_blocks = embedding._in_blocks

    def recording(n, stage, stage_widths, taped):
        widths.append(stage_widths)
        outs = in_blocks(n, stage, stage_widths, taped)
        assert [out.data.shape[1] for out in outs] == list(stage_widths)
        return outs

    monkeypatch.setattr(embedding, "_in_blocks", recording)
    recorded_pools(monkeypatch, cores=2)
    point = ((embedding.POINT_CHANNELS, dio.DENSITY_CHANNELS) if use_attention
             else (embedding.POINT_CHANNELS,))
    # in blocks of points and of voxels, then whole on a tape
    for rows, params in ((6 * embedding.POINT_BLOCK, _constant_params(use_attention=use_attention)),
                         (100, _params(seed=4, use_attention=use_attention))):
        widths.clear()
        forward_encoded(_block_scene(rows), params, _clip(), heads=heads)
        assert widths == [point, (embedding.FUSED_CHANNELS,)]


def test_blocked_forward_on_more_threads_than_cores(monkeypatch):
    # eight blocks on eight threads, switching often: each must write its own rows
    scene, params = _block_scene(8 * embedding.POINT_BLOCK), _constant_params()
    pools = recorded_pools(monkeypatch, cores=8)
    want = [w.data.tobytes() for w in _reference_forward(scene, params, _clip())]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            got = forward_encoded(scene, params, _clip())
            assert [g.data.tobytes() for g in got] == want
    finally:
        sys.setswitchinterval(interval)
    # one pool per blocked stage and call: eight point blocks, then five voxel blocks
    assert scene.grid.num_voxels // embedding.POINT_BLOCK == 5
    assert pools == [8, 5] * 3


@pytest.mark.parametrize("use_attention", [True, False])
def test_inference_on_a_pool_is_bitwise_inference_on_one_thread(monkeypatch, use_attention):
    # several blocks of points, of voxels and of predictions
    scene = _block_scene(6 * embedding.POINT_BLOCK)
    assert scene.grid.num_voxels >= 2 * embedding.POINT_BLOCK
    model = Model(_constant_params(use_attention=use_attention), _clip())

    def run():
        features = forward_encoded(scene, model.params, model.clip)
        logits = forward_encoded(scene, model.params, model.clip, heads=True)
        return ([t.data.tobytes() for t in (*features, *logits)]
                + [point_predictions(scene, model).tobytes()])

    pools = recorded_pools(monkeypatch, cores=2)
    on_a_pool = run()
    # One pool per stage: point blocks and voxel blocks for the features; the
    # same with the classifier's one worker between them for the logits; the
    # logits' three, then the argmax blocks, for the predictions.
    per_stage = [2, 2] + [2, 1, 2] + [2, 1, 2, 2]
    assert pools == per_stage
    for module in (parallel, embedding):
        monkeypatch.setattr(module, "threads", lambda: 1)
    assert run() == on_a_pool
    assert pools == per_stage


def test_threads_count_cores_where_sched_getaffinity_is_missing(monkeypatch):
    # CPython on macOS and Windows has no os.sched_getaffinity
    set_blas_threads(monkeypatch, "1")
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert parallel.threads() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
    assert parallel.threads() == 1


@pytest.mark.parametrize("blas_threads,trainable", [(None, False), ("1", True)])
def test_forward_is_one_block_unless_blas_runs_on_one_thread_and_no_tape(
        monkeypatch, blas_threads, trainable):
    set_blas_threads(monkeypatch, blas_threads)
    scene = _block_scene(None)
    params = _params(seed=4) if trainable else _constant_params()
    blocks = _recorded_blocks(monkeypatch)
    got = forward_encoded(scene, params, _clip())
    want = _reference_forward(scene, params, _clip())
    assert [g.data.tobytes() for g in got] == [w.data.tobytes() for w in want]
    assert blocks == [(0, scene.offsets.shape[0])]


@pytest.mark.parametrize("blas_threads", [None, "1"])
def test_encode_scene_names_the_first_bad_point_as_voxelize_then_density(
        monkeypatch, profile, blas_threads):
    set_blas_threads(monkeypatch, blas_threads)
    cloud = _box_cloud(50, 0)
    cloud[7] = 0.0
    with pytest.raises(ValueError, match=r"sensor origin \(point index 7\)"):
        encode_scene(cloud, profile, PROJ, 0.2)
    cloud[30, 1] = np.nan  # voxelize names it, though the density meets the origin first
    with pytest.raises(ValueError, match="non-finite coordinates at point index 30"):
        encode_scene(cloud, profile, PROJ, 0.2)


def test_encode_scene_runs_the_density_beside_voxelize_as_one_block(monkeypatch, profile):
    # Its one worker would split a density of three blocks over a second pool.
    set_blas_threads(monkeypatch, "1")
    pools = recorded_pools(monkeypatch, cores=2)
    cloud = _box_cloud(3 * parallel.ROW_BLOCK, 5)
    scene = encode_scene(cloud, profile, PROJ, 0.2)
    assert pools == [1]
    assert scene.density_raw.tobytes() == density_for_cloud(profile, cloud, PROJ).tobytes()
    assert pools == [1, 2]


def test_gates_keep_feature_magnitudes(small_scene):
    gated, _ = forward_encoded(small_scene, _params(seed=0, use_attention=True), None)
    ungated, _ = forward_encoded(small_scene, _params(seed=0, use_attention=False), None)
    assert np.all(np.abs(gated.data) <= np.abs(ungated.data))
    nonzero = ungated.data != 0
    assert np.all(np.abs(gated.data[nonzero]) < np.abs(ungated.data[nonzero]))


def _saturate(params, prefix):
    params[f"{prefix}.w2"].data[:] = 0.0
    params[f"{prefix}.b2"].data[:] = 1e3  # sigmoid -> 1.0 exactly in float


def test_attention_disabled_passes_features_through(small_scene):
    # attention off is the same, bit for bit, as both gates saturated at 1
    saturated = _params(seed=0, use_attention=True)
    _saturate(saturated, "attn_point")
    _saturate(saturated, "attn_voxel")
    on = forward_encoded(small_scene, saturated, _clip())
    off = forward_encoded(small_scene, _params(seed=0, use_attention=False), _clip())
    assert on[0].data.tobytes() == off[0].data.tobytes()
    assert on[1].data.tobytes() == off[1].data.tobytes()


def test_zero_weight_voxel_mlp_broadcasts_bias(small_scene):
    params = _params(use_attention=False)
    for name in ("voxel_mlp.w1", "voxel_mlp.w2", "voxel_mlp.b1", "fuse.w", "fuse.b"):
        params[name].data[:] = 0.0
    params["voxel_mlp.b2"].data[:] = np.arange(16.0)
    params["fuse.w"].data[:16, :16] = np.eye(16)  # fused[:, :16] reads the voxel stream
    _, fused = forward_encoded(small_scene, params, _clip())
    assert np.allclose(fused.data[:, :16], np.arange(16.0))


def test_saturated_gate_is_identity(small_scene):
    params = _params(seed=0, use_attention=True)
    _saturate(params, "attn_point")
    gated, _ = forward_encoded(small_scene, params, None)
    ungated, _ = forward_encoded(small_scene, _params(seed=0, use_attention=False), None)
    assert np.array_equal(gated.data, ungated.data)


def test_clip_identity_point_matches_unclipped(profile):
    # a point whose raw density equals the clip midpoint is unaffected by
    # clipping, so both modes yield identical features
    cloud = np.array([[8.0, 1.0, -1.0]])
    scene = encode_scene(cloud, profile, PROJ, 0.2, None, True)
    mid = scene.density_raw[0]
    clip = ClipParams.from_mid_span(mid, np.full(4, 0.01))
    params = _params()
    fp_a, fv_a = forward_encoded(scene, params, clip)
    fp_b, fv_b = forward_encoded(scene, params, None)
    assert np.allclose(fp_a.data, fp_b.data, atol=1e-12)
    assert np.allclose(fv_a.data, fv_b.data, atol=1e-12)


def test_end_to_end_gradients(small_scene):
    params = _params()
    weights = inverse_frequency_weights(small_scene.labels, 4)
    err = nn.grad_check(
        lambda: scene_loss(small_scene, params, _clip(), weights),
        params.parameters())
    assert err < 1e-4


def test_inverse_frequency_weights():
    labels = np.array([0] * 97 + [1] * 2 + [2])
    weights = inverse_frequency_weights(labels, 4)
    assert weights[0] == pytest.approx(0.25 / 0.97, rel=1e-9)
    assert weights[1] == 10.0   # clamped
    assert weights[2] == 10.0
    assert weights[3] == 10.0   # absent class gets the clamp ceiling
    with pytest.raises(ValueError, match="weight table"):
        inverse_frequency_weights(np.array([5]), 4)


def test_iou_scores_examples():
    # predictions == labels -> mIoU 1.0
    pred = np.array([0, 1, 2, 1])
    conf = confusion_matrix(pred, pred, 3)
    iou, miou = iou_scores(conf)
    assert miou == 1.0
    # all class 0 on a half/half ground truth -> IoU {0.5, 0.0}, mIoU 0.25
    labels = np.array([0] * 50 + [1] * 50)
    conf = confusion_matrix(np.zeros(100, dtype=int), labels, 2)
    iou, miou = iou_scores(conf)
    assert iou[0] == 0.5 and iou[1] == 0.0
    assert miou == 0.25


@pytest.mark.parametrize("pred,labels,message", [
    ([0, 1], [-1, 1], "invalid label -1 at index 0"),
    ([0, 1, 4], [0, 1, 2], "invalid label 4 at index 2"),
    ([0, 1], [0, 1, 2], "label count 3 does not match point count 2"),
    ([0.0, 1.0], [0, 1], "labels must be integer class ids"),
])
def test_confusion_matrix_names_a_bad_entry(pred, labels, message):
    with pytest.raises(ValueError, match=message):
        confusion_matrix(np.array(pred), np.array(labels), 4)


def test_iou_ignores_classes_absent_from_ground_truth():
    labels = np.zeros(10, dtype=int)
    pred = np.zeros(10, dtype=int)
    pred[0] = 1  # spurious prediction of an absent class
    conf = confusion_matrix(pred, labels, 3)
    iou, miou = iou_scores(conf)
    assert np.isnan(iou[2])
    assert miou == pytest.approx(0.9)  # only class 0 is present


def test_train_is_bit_reproducible_and_learns():
    data = make_dataset(6, SIM, seed=21)
    hyper = TrainConfig(epochs=3, seed=1)
    model_a = train(data, SIM, hyper)
    model_b = train(data, SIM, hyper)
    for name in model_a.params.tensors:
        assert np.array_equal(model_a.params.tensors[name].data,
                              model_b.params.tensors[name].data)
    report = evaluate(data, model_a, SIM)
    assert report.miou > 0.2  # 3 epochs: sanity only


def test_progress_reports_each_epochs_mean_scene_loss(monkeypatch):
    scene_losses = []

    def recording_scene_loss(*args):
        loss = scene_loss(*args)
        scene_losses.append(float(loss.data))
        return loss

    monkeypatch.setattr(embedding, "scene_loss", recording_scene_loss)
    reported = []
    train(make_dataset(3, SIM, seed=21), SIM, TrainConfig(epochs=2, batch_size=1, seed=0),
          progress=lambda epoch, loss: reported.append((epoch, loss)))
    assert len(scene_losses) == 6
    assert reported == [(0, pytest.approx(sum(scene_losses[:3]) / 3, rel=1e-12)),
                        (1, pytest.approx(sum(scene_losses[3:]) / 3, rel=1e-12))]


def test_non_finite_loss_names_its_epoch_and_step(monkeypatch):
    calls = []

    def nan_at_fifth_scene(*args):
        calls.append(args)
        loss = scene_loss(*args)
        return loss * np.nan if len(calls) == 5 else loss

    monkeypatch.setattr(embedding, "scene_loss", nan_at_fifth_scene)
    with pytest.raises(ValueError,
                       match=r"^non-finite loss at epoch 1, step 1; training aborted$"):
        train(make_dataset(3, SIM, seed=21), SIM, TrainConfig(epochs=2, batch_size=1, seed=0))
    assert len(calls) == 5


_TRAIN_DATA = make_dataset(3, SIM, seed=21)


@functools.cache
def _one_tape_checkpoint(batch_size: int) -> dict[str, np.ndarray]:
    """What `train` on _TRAIN_DATA must return: each batch's scene losses summed
    on one tape, one backward pass per batch, scenes one after another."""
    hyper = TrainConfig(epochs=2, batch_size=batch_size, seed=0)
    config = EmbeddingConfig(num_classes=hyper.num_classes, voxel_size=hyper.voxel_size)
    scenes = list(embedding._encoded_dataset(_TRAIN_DATA, SIM, config))
    reservoir = DensityReservoir(num_channels=len(DEFAULT_SIGMAS), seed=hyper.seed)
    for scene in scenes:
        reservoir.update(scene.density_raw)
    clip = fit_clip(reservoir)
    class_weights = inverse_frequency_weights(
        np.concatenate([s.labels for s in scenes]), hyper.num_classes)
    rng = np.random.default_rng(hyper.seed)
    params = EmbeddingParams(config, rng)
    optimizer = nn.Adam(params.parameters(), lr=hyper.base_lr)
    for epoch in range(hyper.epochs):
        optimizer.lr = nn.lr_schedule(epoch, hyper.base_lr, hyper.lr_decay)
        order = rng.permutation(len(scenes))
        for start in range(0, len(scenes), hyper.batch_size):
            batch = order[start : start + hyper.batch_size]
            total = None
            for idx in batch:
                loss = scene_loss(scenes[idx], params, clip, class_weights) * (1.0 / batch.size)
                total = loss if total is None else total + loss
            optimizer.step(total.backward())
    return checkpoint_tensors(Model(params, clip))


@pytest.mark.parametrize("batch_size", [1, 2, 3])
@pytest.mark.parametrize("blas_threads", [None, "1"])
def test_train_is_one_tape_per_batch_on_any_worker_count(monkeypatch, batch_size, blas_threads):
    set_blas_threads(monkeypatch, blas_threads)
    workers = recorded_pools(monkeypatch, cores=2)
    model = train(_TRAIN_DATA, SIM, TrainConfig(epochs=2, batch_size=batch_size, seed=0))
    # Threads only where BLAS runs on one: as each scene is encoded, one
    # worker for its density beside voxelize; as the reservoir takes each
    # scene, one worker per core for its channels; then train's, one worker
    # per core up to the batch.
    scene_pools = [1] * len(_TRAIN_DATA) + [2] * len(_TRAIN_DATA) if blas_threads else []
    assert workers == scene_pools + [min(batch_size, 2) if blas_threads else 1]
    got, want = checkpoint_tensors(model), _one_tape_checkpoint(batch_size)
    assert list(got) == list(want)
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name


def test_pools_are_per_call_so_a_forked_child_finishes(monkeypatch):
    # A pool kept for the whole process would hand a forked child its
    # queue but not its threads, and the child would wait on it forever.
    set_blas_threads(monkeypatch, "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    scene = _block_scene(2 * embedding.POINT_BLOCK)
    cloud = _box_cloud(2 * parallel.ROW_BLOCK, 6)

    def train_and_predict():
        model = train(_TRAIN_DATA, SIM, TrainConfig(epochs=1, batch_size=2, seed=0))
        point_predictions(scene, model)
        DensityReservoir().update(density_for_cloud(beam_profile(SIM, PROJ), cloud, PROJ))

    train_and_predict()
    child = multiprocessing.get_context("fork").Process(target=train_and_predict)
    child.start()
    try:
        child.join(timeout=60)
        assert child.exitcode == 0
    finally:
        child.kill()
        child.join()


_UNTRAINED = Model(_params(), None)

# every entry that encodes a labelled dataset, called on a dataset
_DATASET_ENTRIES = {
    "train": lambda data: train(data, SIM, TrainConfig(epochs=1, num_classes=4)),
    "evaluate": lambda data: evaluate(data, _UNTRAINED, SIM),
    "binned_voxel_features": lambda data: binned_voxel_features(data, _UNTRAINED, SIM),
}


@pytest.mark.parametrize("entry", sorted(_DATASET_ENTRIES))
def test_dataset_rules_hold_at_every_entry(entry):
    call = _DATASET_ENTRIES[entry]
    with pytest.raises(ValueError, match="dataset is empty"):
        call([])
    cloud = np.array([[5.0, 0.0, -1.0]])
    with pytest.raises(ValueError, match="invalid label 9 at index 0"):
        call([(cloud, np.array([9]))])
    empty_scan = (np.zeros((0, 3)), np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError, match="scan 1 of the dataset is empty"):
        call([(cloud, np.array([0])), empty_scan])


def test_checkpoint_round_trip_preserves_model(tmp_path, small_scene):
    data = make_dataset(2, SIM, seed=33)
    model = train(data, SIM, TrainConfig(epochs=1, seed=0))
    path = tmp_path / "m.ckpt"
    dio.save_checkpoint(checkpoint_tensors(model), path)
    loaded = model_from_tensors(dio.load_checkpoint(path))
    assert loaded.config == model.config
    assert np.array_equal(loaded.clip.mid, model.clip.mid)
    assert np.array_equal(loaded.clip.half_span, model.clip.half_span)
    fp_a, fv_a = forward_encoded(small_scene, model.params, model.clip)
    fp_b, fv_b = forward_encoded(small_scene, loaded.params, loaded.clip)
    assert np.array_equal(fp_a.data, fp_b.data)
    assert np.array_equal(fv_a.data, fv_b.data)


def test_checkpoint_without_clip_for_ablation(tmp_path):
    data = make_dataset(2, SIM, seed=33)
    model = train(data, SIM, TrainConfig(epochs=1, seed=0), use_clip=False)
    assert model.clip is None
    path = tmp_path / "m.ckpt"
    dio.save_checkpoint(checkpoint_tensors(model), path)
    loaded = model_from_tensors(dio.load_checkpoint(path))
    assert loaded.clip is None


def test_model_from_tensors_validates(tmp_path):
    data = make_dataset(2, SIM, seed=33)
    model = train(data, SIM, TrainConfig(epochs=1, seed=0))
    tensors = checkpoint_tensors(model)
    missing = dict(tensors)
    del missing["fuse.w"]
    with pytest.raises(ValueError, match="missing tensor"):
        model_from_tensors(missing)
    for name in ("meta.num_classes", "meta.voxel_size", "meta.use_attention",
                 "meta.use_density", "clip.half_span"):
        missing = dict(tensors)
        del missing[name]
        with pytest.raises(ValueError, match=f"checkpoint is missing tensor '{name}'"):
            model_from_tensors(missing)
    wrong = dict(tensors)
    wrong["fuse.w"] = np.zeros((2, 2))
    with pytest.raises(ValueError, match="shape"):
        model_from_tensors(wrong)
    nan_at_5 = tensors["fuse.w"].copy()
    nan_at_5.flat[5] = np.nan
    for name, value, message in (
        ("meta.num_classes", np.array([4.0, 4.0]),
         r"tensor 'meta.num_classes' has shape \(2,\), expected \(\)"),
        ("meta.use_attention", np.float64(0.5),
         "tensor 'meta.use_attention' holds 0.5, not a value of type bool"),
        ("meta.num_classes", np.float64(4.7),
         "tensor 'meta.num_classes' holds 4.7, not a value of type int"),
        ("meta.num_classes", np.float64(np.inf),
         "tensor 'meta.num_classes' holds inf, not a value of type int"),
        ("meta.num_classes", np.float64(-1),
         "checkpoint meta: num_classes must be >= 1, got -1"),
        ("meta.num_classes", np.float64(1e12),
         "checkpoint meta: num_classes must be <= 65536, got 1000000000000"),
        ("meta.num_classes", np.float64(5),
         r"tensor 'toy_head.w2' has shape \(32, 4\), expected \(32, 5\)"),
        ("clip.mid", np.array([0.1, 0.1, np.nan, 0.1]),
         "tensor 'clip.mid' is not finite at flat index 2"),
        ("fuse.w", nan_at_5, "tensor 'fuse.w' is not finite at flat index 5"),
        ("clip.half_span", np.array([0.01, 0.0, 0.01, 0.01]),
         "clip.half_span must be finite and > 0, got 0.0 at index 1"),
        ("meta.voxel_size", np.float64(-0.2),
         "checkpoint meta: voxel_size must be finite and > 0, got -0.2"),
        ("clip.mid", np.full(3, 0.1),
         r"tensor 'clip.mid' has shape \(3,\), expected \(4,\)"),
        ("clip.mid", None, "checkpoint is missing tensor 'clip.mid'"),
    ):
        wrong = dict(tensors)
        if value is None:
            del wrong[name]
        else:
            wrong[name] = value
        with pytest.raises(ValueError, match=message):
            model_from_tensors(wrong)


def _raised(make) -> str | None:
    """The ValueError text `make()` raises, or None if it returns."""
    try:
        make()
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("voxel_size", [math.nan, math.inf, -math.inf, 0.0, -0.2, 0.2])
@pytest.mark.parametrize("num_classes", [-1, 0, 1, 65536, 65537])
def test_model_rules_agree_at_every_entry(tmp_path, num_classes, voxel_size):
    # EmbeddingConfig holds the rules; TrainConfig and the loader must say the same.
    rule = _raised(lambda: EmbeddingConfig(num_classes, voxel_size))
    assert _raised(lambda: TrainConfig(num_classes=num_classes, voxel_size=voxel_size)) == rule
    heads = num_classes if 1 <= num_classes <= 8 else 4
    tensors = checkpoint_tensors(Model(_params(num_classes=heads), None))
    tensors["meta.num_classes"] = np.float64(num_classes)
    tensors["meta.voxel_size"] = np.float64(voxel_size)
    path = tmp_path / "m.ckpt"
    dio.save_checkpoint(tensors, path)
    loaded = _raised(lambda: model_from_tensors(dio.load_checkpoint(path)))
    if rule is not None:
        assert loaded == f"checkpoint meta: {rule}"
    elif heads == num_classes:
        config = model_from_tensors(dio.load_checkpoint(path)).config
        assert config == EmbeddingConfig(num_classes, voxel_size)
    else:  # a count the heads do not have fails their shape check
        assert loaded == (f"checkpoint tensor 'toy_head.w2' has shape (32, 4), "
                          f"expected (32, {num_classes})")


def test_checkpoint_written_by_the_previous_loader_still_loads():
    # tests/data/parent_sim16.ckpt: train(make_dataset(2, SIM, seed=33), SIM,
    # TrainConfig(epochs=1, seed=0)), saved by the tree before EmbeddingConfig
    # held the model's rules; the digest of its predictions was computed there.
    model = model_from_tensors(dio.load_checkpoint(DATA / "parent_sim16.ckpt"))
    assert model.config == EmbeddingConfig()
    assert model.config is model.params.config
    cloud, _ = make_dataset(1, SIM, seed=7)[0]
    scene = encode_scene(cloud, beam_profile(SIM, PROJ), PROJ, model.config.voxel_size)
    pred = point_predictions(scene, model)
    assert np.bincount(pred).tolist() == [882, 25, 541]
    assert hashlib.sha256(pred.astype("<i8").tobytes()).hexdigest() == (
        "cb4f9d20bc3b93257481a41feb1aa6c70939bd22d13f6dbf4b33295f4576c7c6")


def test_inference_builds_no_tape(small_scene):
    trainable = _params()
    assert all(p.requires_grad for p in trainable.parameters())
    trained = train(make_dataset(2, SIM, seed=33), SIM, TrainConfig(epochs=1, seed=0))
    for model in (trained, model_from_tensors(checkpoint_tensors(trained))):
        assert not any(p.requires_grad for p in model.params.parameters())
        for out in forward_encoded(small_scene, model.params, model.clip):
            assert out._node is None  # no tape entry
        # the same arrays as trainable tensors: the forward pass builds a tape
        for name, tensor in model.params.tensors.items():
            trainable.tensors[name] = nn.Tensor(tensor.data, requires_grad=True)
        reference = point_predictions(small_scene, Model(trainable, model.clip))
        assert point_predictions(small_scene, model).tobytes() == reference.tobytes()


def test_train_config_file_round_trip(tmp_path):
    cfg = TrainConfig(epochs=7, batch_size=3, base_lr=0.005, lr_decay=0.98,
                      voxel_size=0.1, seed=9, num_classes=5)
    path = tmp_path / "train.cfg"
    path.write_text("epochs = 7\nbatch_size = 3\nbase_lr = 0.005\nlr_decay = 0.98\n"
                    "voxel_size = 0.1\nseed = 9\nnum_classes = 5\n")
    assert TrainConfig.from_file(path) == cfg
    path.write_text("bogus = 3\n")
    with pytest.raises(ValueError, match="line 1: unknown key 'bogus'"):
        TrainConfig.from_file(path)
    path.write_text("epochs = 3\n# again\nepochs = 4\n")
    with pytest.raises(ValueError, match="line 3: duplicate key 'epochs'"):
        TrainConfig.from_file(path)
    path.write_text("seed = 1.5\n")
    with pytest.raises(ValueError, match="line 1: invalid value '1.5' for 'seed'"):
        TrainConfig.from_file(path)
    # only \n ends a line: a form feed stays inside line 1's value
    path.write_text("seed = 1\x0cepochs = x\n")
    with pytest.raises(ValueError, match="line 1: invalid value .* for 'seed'"):
        TrainConfig.from_file(path)
    for field, low in (("epochs", 1), ("batch_size", 1), ("num_classes", 1), ("seed", 0)):
        path.write_text(f"{field} = {low - 1}\n")
        with pytest.raises(ValueError, match=f"{field} must be >= {low}, got {low - 1}"):
            TrainConfig.from_file(path)
    path.write_text("num_classes = 65537\n")
    with pytest.raises(ValueError, match="num_classes must be <= 65536, got 65537"):
        TrainConfig.from_file(path)
    assert TrainConfig(num_classes=dio.LABEL_LIMIT).num_classes == 65536
    for field in ("base_lr", "lr_decay", "voxel_size"):
        for value in ("nan", "inf", "0", "-0.5"):
            path.write_text(f"{field} = {value}\n")
            with pytest.raises(ValueError, match=f"{field} must be finite and > 0"):
                TrainConfig.from_file(path)
    path.write_bytes(b"seed = 1\nepochs = \xe9\n")
    with pytest.raises(ValueError, match="non-ASCII byte at offset 18"):
        TrainConfig.from_file(path)


@pytest.mark.parametrize("value", [4.5, 4.0, "4", None, True])
def test_embedding_config_rejects_a_non_integer_class_count(value):
    with pytest.raises(ValueError, match=f"num_classes must be an integer, got {value!r}"):
        EmbeddingConfig(value, 0.2)
    assert EmbeddingConfig(np.int64(4), 0.2).num_classes == 4


@pytest.mark.parametrize("field", ["epochs", "batch_size", "seed", "num_classes"])
@pytest.mark.parametrize("value", [1.5, 1.0, "1", None, True])
def test_train_config_rejects_non_integer_counts(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
        TrainConfig(**{field: value})
    assert getattr(TrainConfig(**{field: np.int64(1)}), field) == 1


def test_train_config_rejects_a_schedule_that_overflows():
    # 1e200 ** 2 and 0.01 * 2**1200 raise OverflowError; 1e10 * 1e300 is inf without one
    for epochs, base_lr, lr_decay in ((3, 1e-300, 1e200), (2, 1e10, 1e300), (3, 0.01, 2**600)):
        with pytest.raises(ValueError, match=f"^learning rate overflows at epoch {epochs - 1}$"):
            TrainConfig(epochs=epochs, base_lr=base_lr, lr_decay=lr_decay)
    hyper = TrainConfig(epochs=2, base_lr=1e-300, lr_decay=1e200)
    assert nn.lr_schedule(hyper.epochs - 1, hyper.base_lr, hyper.lr_decay) == 1e-300 * 1e200


def test_feature_similarity_matrix():
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.array([[0.0, 0.0], [0.0, 2.0]])
    m = feature_similarity_matrix(a, b)
    assert m.shape == (2, 2)
    assert m[0, 0] == 0.0
    assert m[1, 1] == pytest.approx(np.sqrt(5.0))
