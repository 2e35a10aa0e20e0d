"""Density-discriminative feature embedding (DDFE) for LiDAR clouds.

Points are encoded two ways: voxel centers in spherical form feed a voxel
MLP, intra-voxel offsets feed a point head.  Per-point multi-scale beam
density (soft-clipped to the training spectrum) drives sigmoid attention
gates over both streams; gated voxel features are fused with max-pooled
point features into 32-channel voxel features.  A small per-voxel
classifier head stands in for a full 3D backbone so the pipeline can be
trained and scored end to end at desk scale.
"""

from __future__ import annotations

import math
import typing
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from . import nn
from .beams import BeamProfile, beam_profile, density_for_cloud
from .io import (DENSITY_CHANNELS, LABEL_LIMIT, check_count, check_labels, check_positive,
                 parse_key_values, read_ascii)
from .parallel import ROW_BLOCK, run_blocks, side_by_side, thread_pool, threads
from .sensors import ProjectionParams, SensorConfig, spherical_of_cloud
from .stats import ClipParams, DensityReservoir, fit_clip, soft_clip
from .voxels import VoxelGrid, majority_label, voxel_offsets, voxelize


# Fixed input conditioning: ranges are fed in units of 25 m, intra-voxel
# offsets in half-voxel units, densities scaled toward O(1).  Constants, not
# data statistics, so nothing sensor- or dataset-dependent leaks into the
# features.
RANGE_SCALE = 25.0
DENSITY_SCALE = 25.0

# Fixed layer widths; the density input has one channel per smoothing scale.
POINT_CHANNELS = 16
VOXEL_CHANNELS = 16
FUSED_CHANNELS = 32
HIDDEN = 16

# Fewest rows in a block of the point stream at inference.  A GEMM over a
# block of one row can differ in its last bits from the same row of the
# whole product; blocks this large match it bit for bit.
POINT_BLOCK = 8192

# Voxel-center range bins of the feature report: 0-50 m in 5 m steps.
RANGE_BIN_EDGES = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0)


@dataclass(frozen=True)
class EmbeddingConfig:
    """Class count, voxel size and ablation switches; the one home of a model's
    rules: num_classes an integer in [1, io.LABEL_LIMIT] (no label file holds a larger
    id) and a voxel size that passes `io.check_positive`.  Training without
    the density clip leaves the model's clip at None."""

    num_classes: int = 4
    voxel_size: float = 0.20
    use_attention: bool = True  # density-driven gates (off: gates == 1)
    use_density: bool = True    # off: density channels zeroed at the source

    def __post_init__(self):
        check_count("num_classes", self.num_classes, 1, LABEL_LIMIT)
        check_positive("voxel_size", self.voxel_size)


class EmbeddingParams:
    """Parameter tensors keyed by dotted layer names in fixed order; built trainable."""

    def __init__(self, config: EmbeddingConfig, rng: np.random.Generator):
        self.config = config
        self.tensors: dict[str, nn.Tensor] = {}

        def mlp(prefix, d_in, d_hidden, d_out):
            self._add(f"{prefix}.w1", (d_in, d_hidden), rng)
            self._add(f"{prefix}.b1", (d_hidden,), rng)
            self._add(f"{prefix}.w2", (d_hidden, d_out), rng)
            self._add(f"{prefix}.b2", (d_out,), rng)

        mlp("voxel_mlp", 4, HIDDEN, VOXEL_CHANNELS)
        mlp("point_head", 3, HIDDEN, POINT_CHANNELS)
        mlp("attn_point", DENSITY_CHANNELS, HIDDEN, POINT_CHANNELS)
        mlp("attn_voxel", DENSITY_CHANNELS, HIDDEN, VOXEL_CHANNELS)
        self._add("fuse.w", (VOXEL_CHANNELS + POINT_CHANNELS, FUSED_CHANNELS), rng)
        self._add("fuse.b", (FUSED_CHANNELS,), rng)
        mlp("toy_head", FUSED_CHANNELS, FUSED_CHANNELS, config.num_classes)
        self._add("point_classifier.w", (POINT_CHANNELS, config.num_classes), rng)
        self._add("point_classifier.b", (config.num_classes,), rng)

    def _add(self, name: str, shape: tuple[int, ...], rng: np.random.Generator):
        if len(shape) == 1:
            data = np.zeros(shape)
        else:
            limit = np.sqrt(6.0 / (shape[0] + shape[1]))
            data = rng.uniform(-limit, limit, size=shape)
        self.tensors[name] = nn.Tensor(data, requires_grad=True)

    def __getitem__(self, name: str) -> nn.Tensor:
        return self.tensors[name]

    def parameters(self) -> list[nn.Tensor]:
        return list(self.tensors.values())

    def _mlp2(self, x, prefix: str) -> nn.Tensor:
        h = nn.relu(nn.linear(x, self[f"{prefix}.w1"], self[f"{prefix}.b1"]))
        return nn.linear(h, self[f"{prefix}.w2"], self[f"{prefix}.b2"])


@dataclass
class EncodedScene:
    """Parameter-independent per-scan precomputation (cacheable)."""

    grid: VoxelGrid
    segments: nn.SegmentMap
    offsets: np.ndarray       # (N, 3) intra-voxel offsets
    center_feats: np.ndarray  # (M, 4) voxel centers as (cos, sin, phi, r/25)
    density_raw: np.ndarray   # (N, io.DENSITY_CHANNELS) unclipped densities
    labels: np.ndarray | None = None
    voxel_labels: np.ndarray | None = None


def _center_features(centers: np.ndarray) -> np.ndarray:
    """Voxel centers as (cos az, sin az, elevation, range/25)."""
    theta, phi, r = spherical_of_cloud(centers)
    return np.stack([np.cos(theta), np.sin(theta), phi, r / RANGE_SCALE], axis=1)


def encode_scene(
    cloud: np.ndarray,
    profile: BeamProfile,
    proj: ProjectionParams,
    voxel_size: float,
    labels: np.ndarray | None = None,
    use_density: bool = True,
) -> EncodedScene:
    """Voxel grid, center features, offsets and raw density of one cloud; the
    density is zeros of the same shape without use_density.

    The density job runs beside voxelize (parallel.side_by_side): on a pool's
    thread, as one block, where threads() is above one; else after it, here.
    Either way voxelize's result comes first, so a non-finite point is named
    by voxelize before an origin point is named by the density.
    """
    cloud = np.asarray(cloud, dtype=np.float64)

    def geometry():
        grid = voxelize(cloud, voxel_size)
        return grid, _center_features(grid.centers), voxel_offsets(grid, cloud)

    density = (partial(density_for_cloud, profile, cloud, proj) if use_density
               else lambda: np.zeros((cloud.shape[0], profile.smooth_h.shape[0])))
    (grid, center_feats, offsets), density_raw = side_by_side(geometry, density)
    # A scene's arrays are made on this thread: left in a pool thread's
    # malloc arena for the scene's lifetime, they raised training's peak
    # RSS by 2-4 %.  So voxelize runs here and the density is copied here.
    density_raw = density_raw.copy(order="K")
    voxel_labels = None
    if labels is not None:
        labels = np.asarray(labels)
        voxel_labels = majority_label(grid, labels)
    return EncodedScene(
        grid=grid,
        segments=nn.SegmentMap(grid.point_to_voxel, grid.num_voxels),
        offsets=offsets,
        center_feats=center_feats,
        density_raw=density_raw,
        labels=labels,
        voxel_labels=voxel_labels,
    )


def _encoded_dataset(dataset: list[tuple[np.ndarray, np.ndarray]],
                     sensor_config: SensorConfig, config: EmbeddingConfig):
    """Encode each labelled scan in order, holding the dataset rules: at
    least one scan, no empty scan, every label in [0, config.num_classes)."""
    if not dataset:
        raise ValueError("dataset is empty")
    proj = ProjectionParams()
    profile = beam_profile(sensor_config, proj)
    for i, (cloud, labels) in enumerate(dataset):
        if len(cloud) == 0:
            raise ValueError(f"scan {i} of the dataset is empty")
        labels = check_labels(labels, len(cloud), config.num_classes)
        yield encode_scene(cloud, profile, proj, config.voxel_size, labels,
                           config.use_density)


def _point_stream(scene: EncodedScene, params: EmbeddingParams, clip: ClipParams | None,
                  rows: slice) -> tuple[nn.Tensor, ...]:
    """The row-wise half of the forward pass on scene rows `rows`: the point
    features alone with attention off; with attention on, the gated point
    features and the scaled (clipped) density that gates them."""
    point_feats = params._mlp2(
        nn.Tensor(scene.offsets[rows] * (2.0 / params.config.voxel_size)), "point_head")
    if not params.config.use_attention:
        return (point_feats,)
    density = scene.density_raw[rows]
    if clip is not None:
        density = soft_clip(density, clip)
    density = nn.Tensor(density * DENSITY_SCALE)
    point_gate = nn.sigmoid(params._mlp2(density, "attn_point"))
    return nn.multiply(point_gate, point_feats), density


def _rows(x: nn.Tensor, rows: slice) -> nn.Tensor:
    """Rows `rows` of x: x itself, tape and all, for slice(None)."""
    return x if rows == slice(None) else nn.Tensor(x.data[rows])


def _voxel_stream(scene: EncodedScene, params: EmbeddingParams, voxel_density: nn.Tensor | None,
                  pooled: nn.Tensor, rows: slice, heads: bool) -> tuple[nn.Tensor]:
    """The voxel-wise rest of the forward pass on voxel rows `rows`, as a
    1-tuple: the fused features, or with heads the voxel head's hidden layer
    over them.  The voxel gate sees `voxel_density` unless it is None."""
    voxel_feats = params._mlp2(nn.Tensor(scene.center_feats[rows]), "voxel_mlp")
    if voxel_density is not None:
        voxel_gate = nn.sigmoid(params._mlp2(_rows(voxel_density, rows), "attn_voxel"))
        voxel_feats = nn.multiply(voxel_gate, voxel_feats)
    out = nn.linear(nn.concat([voxel_feats, _rows(pooled, rows)], axis=1),
                    params["fuse.w"], params["fuse.b"])
    if heads:
        out = nn.relu(nn.linear(out, params["toy_head.w1"], params["toy_head.b1"]))
    return (out,)


def _in_blocks(n: int, stage, widths: tuple[int, ...], taped: bool):
    """stage(rows) over rows [0, n): one call on slice(None), tape and all,
    with a tape, below two blocks of POINT_BLOCK rows or on one thread; else
    in blocks (parallel.run_blocks), each writing its rows of the outputs (of
    `widths` columns) in place."""
    if taped or n // POINT_BLOCK < 2 or threads() == 1:
        return stage(slice(None))
    outs = [np.empty((n, width)) for width in widths]

    def run_block(rows):
        for out, part in zip(outs, stage(rows)):
            out[rows] = part.data

    run_blocks(n, POINT_BLOCK, run_block)
    return [nn.Tensor(out) for out in outs]


def forward_encoded(scene: EncodedScene, params: EmbeddingParams, clip: ClipParams | None,
                    heads: bool = False) -> tuple[nn.Tensor, nn.Tensor]:
    """Differentiable DDFE forward pass on a pre-encoded scene.

    Returns the (gated) point features and the fused voxel features: the
    fuse layer over the (gated) voxel stream and the channel-wise max of the
    point stream over each voxel's points.  With attention on, the point
    gate sees each point's clipped density and the voxel gate the mean
    clipped density of its points.  With heads, it returns the point
    classifier's (N, K) logits and the voxel head's (M, K) logits instead.

    On constant parameters, the point stream runs in row blocks of at least
    POINT_BLOCK rows, then the point classifier beside this thread's segment
    mean and max (parallel.side_by_side), then the voxel stream (up to the
    voxel head's hidden layer) in blocks of at least POINT_BLOCK voxels.  A
    block's GEMMs give the same bits as the same rows of the whole product;
    4-output GEMMs do not, so the classifier and the voxel head's last layer
    run whole.  With a tape, or on one thread, the streams run whole, and on
    one thread everything runs on this thread.
    """
    taped = any(p.requires_grad for p in params.parameters())
    point_feats, *density = _in_blocks(
        scene.offsets.shape[0], partial(_point_stream, scene, params, clip),
        (POINT_CHANNELS, DENSITY_CHANNELS)[:1 + params.config.use_attention], taped)

    def pool_points():
        voxel_density = nn.segment_mean(density[0], scene.segments) if density else None
        return voxel_density, nn.segment_max(point_feats, scene.segments)

    jobs = [pool_points]
    if heads:
        jobs.append(partial(nn.linear, point_feats, params["point_classifier.w"],
                            params["point_classifier.b"]))
    (voxel_density, pooled), *point_logits = side_by_side(*jobs)
    voxel_outs = _in_blocks(
        scene.grid.num_voxels,
        partial(_voxel_stream, scene, params, voxel_density, pooled, heads=heads),
        (FUSED_CHANNELS,), taped)
    if not heads:
        return point_feats, voxel_outs[0]
    return point_logits[0], nn.linear(voxel_outs[0], params["toy_head.w2"], params["toy_head.b2"])


# --- training -------------------------------------------------------------


@dataclass
class TrainConfig:
    """Training hyperparameters; `from_file` reads them from a key=value file.

    base_lr defaults above the usual 1e-3: a desk-scale run sees only a few
    hundred optimizer steps, so the schedule starts higher while keeping the
    0.99-per-epoch decay shape.
    """

    epochs: int = 30
    batch_size: int = 2
    base_lr: float = 1e-2
    lr_decay: float = 0.99
    voxel_size: float = 0.20
    seed: int = 0
    num_classes: int = 4

    def __post_init__(self):
        for name, low in (("epochs", 1), ("batch_size", 1), ("seed", 0)):
            check_count(name, getattr(self, name), low)
        for name in ("base_lr", "lr_decay"):
            check_positive(name, getattr(self, name))
        last = self.epochs - 1  # the largest rate when lr_decay > 1
        try:
            overflow = math.isinf(nn.lr_schedule(last, self.base_lr, self.lr_decay))
        except OverflowError:  # float ** int raises where float * float gives inf
            overflow = True
        if overflow:
            raise ValueError(f"learning rate overflows at epoch {last}")
        EmbeddingConfig(self.num_classes, self.voxel_size)  # the model's own rules

    @classmethod
    def from_file(cls, path) -> "TrainConfig":
        """One optional key per field, parsed with the field's type."""
        return cls(**parse_key_values(read_ascii(path), typing.get_type_hints(cls)))


def inverse_frequency_weights(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Per-class loss weights: mean frequency / class frequency, in [0.1, 10]."""
    counts = np.bincount(labels, minlength=num_classes).astype(np.float64)
    if counts.size > num_classes:
        raise ValueError(
            f"label {int(labels.max())} outside the {num_classes}-class weight table"
        )
    mean_count = counts.sum() / num_classes
    with np.errstate(divide="ignore"):
        weights = np.where(counts > 0, mean_count / np.maximum(counts, 1e-300), 10.0)
    return np.clip(weights, 0.1, 10.0)


@dataclass
class Model:
    """Trained bundle: constant parameters (which carry the config), frozen clip."""

    params: EmbeddingParams
    clip: ClipParams | None

    @property
    def config(self) -> EmbeddingConfig:
        return self.params.config


def scene_loss(scene: EncodedScene, model_params: EmbeddingParams,
               clip: ClipParams | None, class_weights: np.ndarray) -> nn.Tensor:
    """Equal-weighted point and voxel losses (Lovasz + weighted CE each)."""
    point_logits, voxel_logits = forward_encoded(scene, model_params, clip, heads=True)
    loss = nn.lovasz_softmax(nn.softmax(point_logits), scene.labels)
    loss = loss + nn.weighted_cross_entropy(point_logits, scene.labels, class_weights)
    loss = loss + nn.lovasz_softmax(nn.softmax(voxel_logits), scene.voxel_labels)
    loss = loss + nn.weighted_cross_entropy(voxel_logits, scene.voxel_labels, class_weights)
    return loss


def train(
    dataset: list[tuple[np.ndarray, np.ndarray]],
    sensor_config: SensorConfig,
    hyper: TrainConfig | None = None,
    *,
    use_clip: bool = True,
    use_attention: bool = True,
    use_density: bool = True,
    progress=None,
) -> Model:
    """Fit the embedding and heads on labeled clouds; deterministic per seed.

    Clip parameters are fit once from the training densities and frozen
    before any gradient step, mirroring deployment (training-domain clip).
    After each epoch, progress(epoch, loss) gets the epoch's mean scene loss.
    Where BLAS runs on one thread, a batch's scenes run their forward and
    backward passes on parallel threads; their gradients are summed in batch
    order, so the result is the same bits as one after another.
    """
    hyper = hyper or TrainConfig()
    config = EmbeddingConfig(
        num_classes=hyper.num_classes, voxel_size=hyper.voxel_size,
        use_attention=use_attention, use_density=use_density,
    )
    scenes = list(_encoded_dataset(dataset, sensor_config, config))

    clip = None
    if use_clip:
        reservoir = DensityReservoir(seed=hyper.seed)
        for scene in scenes:
            reservoir.update(scene.density_raw)
        clip = fit_clip(reservoir)

    class_weights = inverse_frequency_weights(
        np.concatenate([s.labels for s in scenes]), hyper.num_classes)

    rng = np.random.default_rng(hyper.seed)
    params = EmbeddingParams(config, rng)
    optimizer = nn.Adam(params.parameters(), lr=hyper.base_lr)

    def scene_step(idx, scale):
        loss = scene_loss(scenes[idx], params, clip, class_weights) * scale
        return loss.data, loss.backward() if np.isfinite(loss.data) else None

    with thread_pool(min(hyper.batch_size, threads())) as pool:
        for epoch in range(hyper.epochs):
            optimizer.lr = nn.lr_schedule(epoch, hyper.base_lr, hyper.lr_decay)
            order = rng.permutation(len(scenes))
            scene_loss_sum = 0.0
            for step, start in enumerate(range(0, len(scenes), hyper.batch_size)):
                batch = order[start : start + hyper.batch_size]
                scale = 1.0 / batch.size
                losses, scene_grads = zip(*pool.map(scene_step, batch, [scale] * batch.size))
                # Summed in batch order, as one tape over the whole batch sums them.
                total = sum(losses[1:], losses[0])
                if not np.isfinite(total):
                    raise ValueError(
                        f"non-finite loss at epoch {epoch}, step {step}; training aborted"
                    )
                grads = scene_grads[0]
                for more in scene_grads[1:]:
                    for leaf, g in more.items():
                        grads[leaf] += g
                optimizer.step(grads)
                scene_loss_sum += float(total) * batch.size
            if progress is not None:
                progress(epoch, scene_loss_sum / len(scenes))

    return model_from_tensors(checkpoint_tensors(Model(params, clip)))


# --- evaluation -----------------------------------------------------------


def point_predictions(scene: EncodedScene, model: Model) -> np.ndarray:
    """Per-point class: argmax of point logits plus the voxel head's logits.

    The forward pass runs as `forward_encoded` says; the sum and argmax run
    in row blocks of at least parallel.ROW_BLOCK rows (parallel.run_blocks).
    """
    point_to_voxel = scene.grid.point_to_voxel
    pred = np.empty(point_to_voxel.shape[0], dtype=np.intp)
    point_logits, voxel_logits = forward_encoded(scene, model.params, model.clip, heads=True)

    def predict(rows):
        pred[rows] = np.argmax(point_logits.data[rows]
                               + voxel_logits.data[point_to_voxel[rows]], axis=1)

    run_blocks(pred.shape[0], ROW_BLOCK, predict)
    return pred


def confusion_matrix(pred: np.ndarray, labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Counts of (label, prediction) pairs; both pass `io.check_labels`, so an
    entry outside [0, num_classes) raises, naming its index."""
    pred = check_labels(pred, np.size(pred), num_classes)
    labels = check_labels(labels, pred.size, num_classes)
    matrix = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(matrix, (labels, pred), 1)
    return matrix


def iou_scores(confusion: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-class IoU (NaN if the class never occurs) and mIoU over classes
    present in the ground truth."""
    tp = np.diag(confusion).astype(np.float64)
    fn = confusion.sum(axis=1) - tp
    fp = confusion.sum(axis=0) - tp
    denom = tp + fp + fn
    with np.errstate(invalid="ignore", divide="ignore"):
        iou = np.where(denom > 0, tp / denom, np.nan)
    present = (tp + fn) > 0
    if not present.any():
        raise ValueError("no ground-truth points to evaluate")
    miou = float(np.mean(iou[present]))
    return iou, miou


@dataclass
class EvalReport:
    per_class_iou: np.ndarray
    miou: float
    confusion: np.ndarray

    def format(self, class_names=None) -> str:
        lines = []
        for c, iou in enumerate(self.per_class_iou):
            name = class_names[c] if class_names and c < len(class_names) else f"class{c}"
            text = "   n/a" if np.isnan(iou) else f"{iou:6.4f}"
            lines.append(f"  IoU[{name}] = {text}")
        lines.append(f"  mIoU = {self.miou:.4f}")
        return "\n".join(lines)


def evaluate(
    dataset: list[tuple[np.ndarray, np.ndarray]],
    model: Model,
    sensor_config: SensorConfig,
) -> EvalReport:
    """Point-level IoU of the model on labeled clouds."""
    num_classes = model.config.num_classes
    confusion = np.zeros((num_classes, num_classes), dtype=np.int64)
    for scene in _encoded_dataset(dataset, sensor_config, model.config):
        pred = point_predictions(scene, model)
        confusion += confusion_matrix(pred, scene.labels, num_classes)
    iou, miou = iou_scores(confusion)
    return EvalReport(iou, miou, confusion)


# --- checkpoints ----------------------------------------------------------


def checkpoint_tensors(model: Model) -> dict[str, np.ndarray]:
    """Flatten a model into named arrays: one float64 `meta.<field>` per
    EmbeddingConfig field in field order, the parameters, then the clip."""
    out = {f"meta.{k}": np.float64(v) for k, v in asdict(model.config).items()}
    for name, tensor in model.params.tensors.items():
        out[name] = tensor.data
    if model.clip is not None:
        out["clip.mid"] = model.clip.mid
        out["clip.half_span"] = model.clip.half_span
    return out


def model_from_tensors(tensors: dict[str, np.ndarray]) -> Model:
    """The model a checkpoint holds, as constants: inference on it builds no tape.

    Every tensor must be present, of its expected shape and, but for the
    meta, finite; each `meta.<field>` is 0-d and exactly a value of its
    field's type, and the meta must make an `EmbeddingConfig` (whose error is
    reported as `checkpoint meta: ...`); the clip tensors come as a pair that
    `ClipParams` accepts, or not at all.
    """
    def get(name: str, shape: tuple[int, ...], finite: bool = True) -> np.ndarray:
        if name not in tensors:
            raise ValueError(f"checkpoint is missing tensor {name!r}")
        stored = tensors[name]
        if stored.shape != shape:
            raise ValueError(
                f"checkpoint tensor {name!r} has shape {stored.shape}, expected {shape}")
        bad = np.flatnonzero(~np.isfinite(stored)) if finite else ()
        if len(bad):
            raise ValueError(f"checkpoint tensor {name!r} is not finite at flat index {bad[0]}")
        return stored

    fields = {}
    for field, kind in typing.get_type_hints(EmbeddingConfig).items():
        value = float(get(f"meta.{field}", (), finite=False))
        if kind is not float and not (value.is_integer() and kind(value) == value):
            raise ValueError(f"checkpoint tensor 'meta.{field}' holds {value!r}, "
                             f"not a value of type {kind.__name__}")
        fields[field] = kind(value)
    try:
        config = EmbeddingConfig(**fields)
    except ValueError as exc:
        raise ValueError(f"checkpoint meta: {exc}") from None
    params = EmbeddingParams(config, np.random.default_rng(0))
    for name, tensor in params.tensors.items():
        params.tensors[name] = nn.Tensor(get(name, tensor.shape).copy())
    clip = None
    if "clip.mid" in tensors or "clip.half_span" in tensors:
        channels = (DENSITY_CHANNELS,)
        clip = ClipParams.from_mid_span(get("clip.mid", channels),
                                        get("clip.half_span", channels))
    return Model(params, clip)


# --- cross-domain feature similarity ---------------------------------------


def binned_voxel_features(
    dataset: list[tuple[np.ndarray, np.ndarray]],
    model: Model,
    sensor_config: SensorConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean fused voxel feature per voxel-center range bin of RANGE_BIN_EDGES.

    Returns (means (B, 32), counts (B,)).
    Empty bins yield NaN rows.  The dataset passes the same rules as in
    `train` and `evaluate`: labels are checked and voxel labels computed,
    though neither changes the features.
    """
    n_bins = len(RANGE_BIN_EDGES) - 1
    sums = np.zeros((n_bins, FUSED_CHANNELS))
    counts = np.zeros(n_bins, dtype=np.int64)
    for scene in _encoded_dataset(dataset, sensor_config, model.config):
        _, fused = forward_encoded(scene, model.params, model.clip)
        ranges = np.linalg.norm(scene.grid.centers, axis=1)
        which = np.digitize(ranges, RANGE_BIN_EDGES) - 1
        ok = (which >= 0) & (which < n_bins)
        for b in range(n_bins):
            rows = fused.data[ok & (which == b)]
            if rows.size:
                sums[b] += rows.sum(axis=0)
                counts[b] += rows.shape[0]
    with np.errstate(invalid="ignore"):
        means = sums / np.where(counts > 0, counts, np.nan)[:, None]
    return means, counts


def feature_similarity_matrix(means_a: np.ndarray, means_b: np.ndarray) -> np.ndarray:
    """Pairwise L2 distance between two sets of binned mean features."""
    diff = means_a[:, None, :] - means_b[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))
