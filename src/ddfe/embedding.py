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

import typing
from dataclasses import asdict, dataclass

import numpy as np

from . import nn
from .beams import DEFAULT_SIGMAS, BeamProfile, beam_profile, density_for_cloud
from .io import check_labels, parse_key_values, read_ascii
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

# Voxel-center range bins of the feature report: 0-50 m in 5 m steps.
RANGE_BIN_EDGES = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0)


@dataclass(frozen=True)
class EmbeddingConfig:
    """Class count, voxel size and ablation switches.

    Training without the density clip leaves the model's clip at None.
    """

    num_classes: int = 4
    voxel_size: float = 0.20
    use_attention: bool = True  # density-driven gates (off: gates == 1)
    use_density: bool = True    # off: density channels zeroed at the source


class EmbeddingParams:
    """All trainable tensors, keyed by dotted layer names in fixed order."""

    def __init__(self, config: EmbeddingConfig, rng: np.random.Generator):
        self.config = config
        density_channels = len(DEFAULT_SIGMAS)
        self.tensors: dict[str, nn.Tensor] = {}

        def mlp(prefix, d_in, d_hidden, d_out):
            self._add(f"{prefix}.w1", (d_in, d_hidden), rng)
            self._add(f"{prefix}.b1", (d_hidden,), rng)
            self._add(f"{prefix}.w2", (d_hidden, d_out), rng)
            self._add(f"{prefix}.b2", (d_out,), rng)

        mlp("voxel_mlp", 4, HIDDEN, VOXEL_CHANNELS)
        mlp("point_head", 3, HIDDEN, POINT_CHANNELS)
        mlp("attn_point", density_channels, HIDDEN, POINT_CHANNELS)
        mlp("attn_voxel", density_channels, HIDDEN, VOXEL_CHANNELS)
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
    density_raw: np.ndarray   # (N, len(DEFAULT_SIGMAS)) unclipped densities
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
    cloud = np.asarray(cloud, dtype=np.float64)
    grid = voxelize(cloud, voxel_size)
    center_feats = _center_features(grid.centers)
    if use_density:
        density_raw = density_for_cloud(profile, cloud, proj)
    else:
        density_raw = np.zeros((cloud.shape[0], profile.smooth_h.shape[0]))
    voxel_labels = None
    if labels is not None:
        labels = np.asarray(labels)
        voxel_labels = majority_label(grid, labels)
    return EncodedScene(
        grid=grid,
        segments=nn.SegmentMap(grid.point_to_voxel, grid.num_voxels),
        offsets=voxel_offsets(grid, cloud),
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


def forward_encoded(scene: EncodedScene, params: EmbeddingParams,
                    clip: ClipParams | None) -> tuple[nn.Tensor, nn.Tensor]:
    """Differentiable DDFE forward pass on a pre-encoded scene.

    Returns the (gated) point features and the fused voxel features: the
    fuse layer over the (gated) voxel stream and the channel-wise max of the
    point stream over each voxel's points.  With attention on, the point
    gate sees each point's clipped density and the voxel gate the mean
    clipped density of its points.
    """
    density = scene.density_raw if clip is None else soft_clip(scene.density_raw, clip)
    density = nn.Tensor(density * DENSITY_SCALE)
    voxel_feats = params._mlp2(nn.Tensor(scene.center_feats), "voxel_mlp")
    point_feats = params._mlp2(
        nn.Tensor(scene.offsets * (2.0 / params.config.voxel_size)), "point_head")
    if params.config.use_attention:
        point_gate = nn.sigmoid(params._mlp2(density, "attn_point"))
        point_feats = nn.multiply(point_gate, point_feats)
        voxel_gate = nn.sigmoid(params._mlp2(nn.segment_mean(density, scene.segments),
                                             "attn_voxel"))
        voxel_feats = nn.multiply(voxel_gate, voxel_feats)
    pooled = nn.segment_max(point_feats, scene.segments)
    fused = nn.linear(nn.concat([voxel_feats, pooled], axis=1),
                      params["fuse.w"], params["fuse.b"])
    return point_feats, fused


def _logits(scene: EncodedScene, params: EmbeddingParams,
            clip: ClipParams | None) -> tuple[nn.Tensor, nn.Tensor]:
    """Point-classifier logits (N, K) and voxel-head logits (M, K)."""
    point_feats, fused = forward_encoded(scene, params, clip)
    point_logits = nn.linear(point_feats, params["point_classifier.w"],
                             params["point_classifier.b"])
    return point_logits, params._mlp2(fused, "toy_head")


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
        for name in ("epochs", "batch_size", "num_classes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("base_lr", "lr_decay", "voxel_size"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")

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
    """Trained bundle: architecture config, parameters, frozen clip."""

    config: EmbeddingConfig
    params: EmbeddingParams
    clip: ClipParams | None


def scene_loss(scene: EncodedScene, model_params: EmbeddingParams,
               clip: ClipParams | None, class_weights: np.ndarray) -> nn.Tensor:
    """Equal-weighted point and voxel losses (Lovasz + weighted CE each)."""
    point_logits, voxel_logits = _logits(scene, model_params, clip)
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
    """
    hyper = hyper or TrainConfig()
    config = EmbeddingConfig(
        num_classes=hyper.num_classes, voxel_size=hyper.voxel_size,
        use_attention=use_attention, use_density=use_density,
    )
    scenes = list(_encoded_dataset(dataset, sensor_config, config))

    clip = None
    if use_clip:
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
        scene_loss_sum = 0.0
        for step, start in enumerate(range(0, len(scenes), hyper.batch_size)):
            batch = order[start : start + hyper.batch_size]
            optimizer.zero_grad()
            total = None
            for idx in batch:
                loss = scene_loss(scenes[idx], params, clip, class_weights) * (1.0 / batch.size)
                total = loss if total is None else total + loss
            if not np.isfinite(total.data):
                raise ValueError(
                    f"non-finite loss at epoch {epoch}, step {step}; training aborted"
                )
            total.backward()
            optimizer.step()
            scene_loss_sum += float(total.data) * batch.size
        if progress is not None:
            progress(epoch, scene_loss_sum / len(scenes))

    return Model(config, params, clip)


# --- evaluation -----------------------------------------------------------


def point_predictions(scene: EncodedScene, model: Model) -> np.ndarray:
    """Per-point class: argmax of point logits plus the voxel head's logits."""
    point_logits, voxel_logits = _logits(scene, model.params, model.clip)
    return np.argmax(point_logits.data + voxel_logits.data[scene.grid.point_to_voxel],
                     axis=1)


def confusion_matrix(pred: np.ndarray, labels: np.ndarray, num_classes: int) -> np.ndarray:
    pred = np.asarray(pred)
    labels = np.asarray(labels)
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
    def get(name: str) -> np.ndarray:
        if name not in tensors:
            raise ValueError(f"checkpoint is missing tensor {name!r}")
        return tensors[name]

    config = EmbeddingConfig(**{
        field: kind(get(f"meta.{field}"))
        for field, kind in typing.get_type_hints(EmbeddingConfig).items()
    })
    params = EmbeddingParams(config, np.random.default_rng(0))
    for name, tensor in params.tensors.items():
        stored = get(name)
        if stored.shape != tensor.data.shape:
            raise ValueError(
                f"checkpoint tensor {name!r} has shape {stored.shape}, "
                f"expected {tensor.data.shape}"
            )
        tensor.data = stored.copy()
    clip = None
    if "clip.mid" in tensors:
        clip = ClipParams.from_mid_span(tensors["clip.mid"], get("clip.half_span"))
    return Model(config, params, clip)


# --- cross-domain feature similarity ---------------------------------------


def binned_voxel_features(
    dataset: list[tuple[np.ndarray, np.ndarray]],
    model: Model,
    sensor_config: SensorConfig,
    bin_edges: np.ndarray | tuple[float, ...] = RANGE_BIN_EDGES,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean fused voxel feature per voxel-center range bin.

    Returns (means (B, 32), counts (B,)); bins default to RANGE_BIN_EDGES.
    Empty bins yield NaN rows.  The dataset passes the same rules as in
    `train` and `evaluate`: labels are checked and voxel labels computed,
    though neither changes the features.
    """
    edges = np.asarray(bin_edges)
    n_bins = edges.size - 1
    sums = np.zeros((n_bins, FUSED_CHANNELS))
    counts = np.zeros(n_bins, dtype=np.int64)
    for scene in _encoded_dataset(dataset, sensor_config, model.config):
        _, fused = forward_encoded(scene, model.params, model.clip)
        ranges = np.linalg.norm(scene.grid.centers, axis=1)
        which = np.digitize(ranges, edges) - 1
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
