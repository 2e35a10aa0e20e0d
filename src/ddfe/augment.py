"""Density augmentation: beam sampling and scene mixing.

Beam sampling removes whole vertical beams to emulate sparser sensors;
scene mixing concatenates a second scan after a random yaw and a random
translation along the ego (+x) axis, widening the density spectrum the
training data covers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .io import LABEL_LIMIT, check_cloud, check_labels, check_real
from .parallel import ROW_BLOCK, run_blocks
from .sensors import SensorConfig, beam_inclinations, elevation_range_of_cloud

@dataclass
class AugmentConfig:
    """How often each augmentation fires; the ranges it draws from are fixed."""

    apply_prob: float = 0.5
    mix_translation_max = 20.0            # meters along ego +x
    mix_rotation = (0.0, 2.0 * np.pi)     # yaw range
    keep_fractions = (0.5, 0.75)          # emulates 32- and 48-beam sensors from 64

    def __post_init__(self):
        check_real("apply_prob", self.apply_prob, 0, 1)


def nearest_beam(cloud: np.ndarray, config: SensorConfig) -> np.ndarray:
    """Index (0-based) of the vertical beam nearest each point's elevation.

    Raw scans carry no beam ids, so each point's beam is recovered from the
    inclination grid.  A point exactly midway between two beams goes to the
    lower one (np.argmin's first-index rule, bit for bit), and a point
    outside the field of view goes to the edge beam on its side.  A
    non-finite point, then a zero-length one, names its index.  Runs in row
    blocks (parallel.run_blocks), each writing its rows in place.
    """
    cloud = check_cloud(cloud)
    _, elevation_deg = beam_inclinations(config)
    out = np.empty(cloud.shape[0], dtype=np.int64)

    def fill(rows):
        phi, _ = elevation_range_of_cloud(cloud[rows], rows.start)
        phi_deg = np.degrees(phi, out=phi)
        # An ascending grid, no two beams tied (SensorConfig): the nearest is lo or hi.
        hi = np.searchsorted(elevation_deg, phi_deg)
        np.clip(hi, 0, config.v_beams - 1, out=hi)
        lo = np.maximum(hi - 1, 0)
        gap_lo = np.abs(phi_deg - elevation_deg[lo])
        out[rows] = np.where(gap_lo <= np.abs(phi_deg - elevation_deg[hi]), lo, hi)

    run_blocks(cloud.shape[0], ROW_BLOCK, fill)
    return out


def beam_sample(
    cloud: np.ndarray,
    labels: np.ndarray,
    config: SensorConfig,
    keep: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Drop every point whose nearest vertical beam is not in `keep`.

    keep holds 0-based beam indices into the config's vertical beams.
    Idempotent for a fixed keep set.
    """
    keep = np.asarray(keep, dtype=np.int64)
    if keep.size == 0:
        raise ValueError("keep set is empty")
    if keep.min() < 0 or keep.max() >= config.v_beams:
        raise ValueError(
            f"keep indices must lie in [0, {config.v_beams}), got "
            f"[{keep.min()}, {keep.max()}]"
        )
    cloud = np.asarray(cloud, dtype=np.float64)
    labels = check_labels(labels, len(cloud), LABEL_LIMIT)
    kept = np.zeros(config.v_beams, dtype=bool)
    kept[keep] = True
    mask = kept[nearest_beam(cloud, config)]
    return cloud[mask], labels[mask]


def rotate_yaw(cloud: np.ndarray, yaw: float) -> np.ndarray:
    """Rotate about +z by yaw; maps azimuth theta to (theta + yaw) mod 2pi."""
    yaw = check_real("yaw", yaw)
    cloud = check_cloud(cloud)
    c, s = np.cos(yaw), np.sin(yaw)
    out = np.empty_like(cloud)
    out[:, 0] = c * cloud[:, 0] - s * cloud[:, 1]
    out[:, 1] = s * cloud[:, 0] + c * cloud[:, 1]
    out[:, 2] = cloud[:, 2]
    return out


def enhanced_mix3d(
    scene_a: tuple[np.ndarray, np.ndarray],
    scene_b: tuple[np.ndarray, np.ndarray],
    cfg: AugmentConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate scene_b onto scene_a after a random yaw and ego-axis shift.

    scene_a is never modified; labels concatenate in (a, b) order.  Both
    clouds pass io.check_cloud, scene_b's in rotate_yaw.
    """
    cloud_a = check_cloud(scene_a[0])
    labels_a = check_labels(scene_a[1], len(cloud_a), LABEL_LIMIT)
    yaw = rng.uniform(cfg.mix_rotation[0], cfg.mix_rotation[1])
    shift = rng.uniform(0.0, cfg.mix_translation_max)
    moved = rotate_yaw(scene_b[0], yaw)
    labels_b = check_labels(scene_b[1], len(moved), LABEL_LIMIT)
    moved[:, 0] += shift
    return np.concatenate([cloud_a, moved]), np.concatenate([labels_a, labels_b])


def random_keep_set(config: SensorConfig, cfg: AugmentConfig,
                    rng: np.random.Generator) -> np.ndarray:
    fraction = cfg.keep_fractions[int(rng.integers(0, len(cfg.keep_fractions)))]
    n_keep = max(1, round(fraction * config.v_beams))
    return np.sort(rng.choice(config.v_beams, size=n_keep, replace=False))


def augment_pipeline(
    sample: tuple[np.ndarray, np.ndarray],
    config: SensorConfig,
    cfg: AugmentConfig,
    rng: np.random.Generator,
    partner: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Apply scene mixing with partner (cloud, labels) and beam sampling,
    each independently with probability cfg.apply_prob.

    Deterministic for a fixed rng state.
    """
    cloud, labels = sample
    if rng.uniform() < cfg.apply_prob:
        cloud, labels = enhanced_mix3d((cloud, labels), partner, cfg, rng)
    if rng.uniform() < cfg.apply_prob:
        keep = random_keep_set(config, cfg, rng)
        cloud, labels = beam_sample(cloud, labels, config, keep)
    return cloud, labels
