"""Synthetic labeled LiDAR scans by ray casting parametric scenes.

One ray per (horizontal, vertical) beam pair is cast from the origin; the
nearest positive intersection becomes a labeled point.  The model is kept
analytically clean on purpose (first return only, no beam divergence, no
range noise), so scans double as a geometric ground truth for density
checks: a wall patch facing the sensor receives points at an areal density
falling off as 1/r^2.

The ego vehicle faces +x; the sensor sits at the origin, nominally ~2 m
above ground.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .io import check_count
from .sensors import SensorConfig, beam_inclinations

# Class table for generated scenes.
GROUND, BUILDING, VEHICLE, POLE = 0, 1, 2, 3
CLASS_NAMES = ("ground", "building", "vehicle", "pole")
NUM_CLASSES = 4

GROUND_Z = -2.0


@dataclass(frozen=True)
class GroundPlane:
    z: float
    label: int

    def intersect(self, dirs: np.ndarray) -> np.ndarray:
        dz = dirs[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(dz != 0.0, self.z / dz, np.inf)
        return np.where(t > 0.0, t, np.inf)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by its lower and upper corners."""

    lo: tuple[float, float, float]
    hi: tuple[float, float, float]
    label: int

    def intersect(self, dirs: np.ndarray) -> np.ndarray:
        lo = np.asarray(self.lo, dtype=np.float64)
        hi = np.asarray(self.hi, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / dirs
            t1 = lo[None, :] * inv
            t2 = hi[None, :] * inv
        # NaN only when a bound is exactly 0 and the ray runs parallel to it:
        # the origin then sits on the slab face, i.e. the slab is unconstraining.
        t1 = np.where(np.isnan(t1), -np.inf, t1)
        t2 = np.where(np.isnan(t2), np.inf, t2)
        tnear = np.minimum(t1, t2).max(axis=1)
        tfar = np.maximum(t1, t2).min(axis=1)
        hit = (tfar >= tnear) & (tnear > 0.0)
        return np.where(hit, tnear, np.inf)


@dataclass(frozen=True)
class Cylinder:
    """Vertical cylinder (lateral surface plus end caps)."""

    center_xy: tuple[float, float]
    radius: float
    z_lo: float
    z_hi: float
    label: int

    def intersect(self, dirs: np.ndarray) -> np.ndarray:
        cx, cy = self.center_xy
        dx, dy, dz = dirs[:, 0], dirs[:, 1], dirs[:, 2]
        a = dx * dx + dy * dy
        b = -2.0 * (cx * dx + cy * dy)
        c = cx * cx + cy * cy - self.radius**2
        disc = b * b - 4.0 * a * c
        solvable = (disc >= 0.0) & (a > 0.0)
        sq = np.sqrt(np.where(solvable, disc, 0.0))
        best = np.full(dirs.shape[0], np.inf)
        with np.errstate(divide="ignore", invalid="ignore"):
            for sign in (-1.0, 1.0):
                t = np.where(solvable, (-b + sign * sq) / (2.0 * a), np.inf)
                z = t * dz
                ok = solvable & (t > 0.0) & (z >= self.z_lo) & (z <= self.z_hi)
                best = np.where(ok & (t < best), t, best)
            for z0 in (self.z_lo, self.z_hi):
                t = np.where(dz != 0.0, z0 / dz, np.inf)
                px, py = t * dx - cx, t * dy - cy
                ok = (t > 0.0) & np.isfinite(t) & (px * px + py * py <= self.radius**2)
                best = np.where(ok & (t < best), t, best)
        return best


@dataclass
class Scene:
    primitives: list = field(default_factory=list)
    max_range: float = 120.0   # returns beyond this are dropped


def box_on_ground(center_xy, size_xy, height, label, ground_z=GROUND_Z) -> Box:
    cx, cy = center_xy
    sx, sy = size_xy
    return Box(
        lo=(cx - sx / 2.0, cy - sy / 2.0, ground_z),
        hi=(cx + sx / 2.0, cy + sy / 2.0, ground_z + height),
        label=label,
    )


def wall_scene(distance: float, half_width: float = 8.0,
               z_lo: float = -6.0, z_hi: float = 2.0,
               thickness: float = 0.5, label: int = BUILDING) -> Scene:
    """A single wall facing the sensor at x = distance; density test fixture."""
    wall = Box(
        lo=(distance, -half_width, z_lo),
        hi=(distance + thickness, half_width, z_hi),
        label=label,
    )
    return Scene([wall])


def ray_directions(config: SensorConfig) -> np.ndarray:
    """Unit ray directions for every beam, ordered (vertical, horizontal)."""
    azimuth_rad, elevation_deg = beam_inclinations(config)
    phi = np.radians(elevation_deg)
    cos_phi, sin_phi = np.cos(phi), np.sin(phi)
    cos_th, sin_th = np.cos(azimuth_rad), np.sin(azimuth_rad)
    dirs = np.empty((config.v_beams, config.h_beams, 3))
    dirs[:, :, 0] = cos_phi[:, None] * cos_th[None, :]
    dirs[:, :, 1] = cos_phi[:, None] * sin_th[None, :]
    dirs[:, :, 2] = sin_phi[:, None]
    return dirs.reshape(-1, 3)


def raycast_scan(scene: Scene, config: SensorConfig) -> tuple[np.ndarray, np.ndarray]:
    """Scan a scene; returns (cloud (N, 3), labels (N,)).

    Rays that hit nothing produce no point.  Output order is deterministic:
    vertical beam index outer, horizontal inner.
    """
    if not scene.primitives:
        raise ValueError("scene has no primitives")
    dirs = ray_directions(config)
    ts = np.stack([prim.intersect(dirs) for prim in scene.primitives])
    nearest = ts.argmin(axis=0)
    t = ts[nearest, np.arange(dirs.shape[0])]
    valid = np.isfinite(t) & (t <= scene.max_range)
    t, dirs_hit = t[valid], dirs[valid]
    prim_labels = np.array([prim.label for prim in scene.primitives], dtype=np.int64)
    labels = prim_labels[nearest[valid]]
    return dirs_hit * t[:, None], labels


def random_scene(rng: np.random.Generator) -> Scene:
    """Ground plus a handful of objects, each class in its own range band.

    Vehicle surfaces stay within 5-12.5 m, poles within 13-17 m, buildings
    within 19-34 m: centers are drawn so each object's full footprint sits
    inside its class band.  The banding keeps the toy classes separable from
    local geometry alone, which is what the desk-scale classifier head can
    exploit.
    """
    prims: list = [GroundPlane(GROUND_Z, GROUND)]

    def place(band_lo, band_hi, half_extent):
        theta = rng.uniform(0.0, 2.0 * np.pi)
        radius = rng.uniform(band_lo + half_extent, band_hi - half_extent)
        return radius * np.cos(theta), radius * np.sin(theta)

    for _ in range(int(rng.integers(1, 4))):
        sx, sy = rng.uniform(5.0, 9.0), rng.uniform(5.0, 9.0)
        cx, cy = place(19.0, 34.0, np.hypot(sx, sy) / 2.0)
        prims.append(box_on_ground((cx, cy), (sx, sy),
                                   rng.uniform(4.0, 7.0), BUILDING))
    for _ in range(int(rng.integers(2, 5))):
        sx, sy = rng.uniform(3.4, 4.8), rng.uniform(1.7, 2.1)
        cx, cy = place(5.0, 12.5, np.hypot(sx, sy) / 2.0)
        prims.append(box_on_ground((cx, cy), (sx, sy),
                                   rng.uniform(1.2, 1.6), VEHICLE))
    for _ in range(int(rng.integers(2, 4))):
        radius = rng.uniform(0.28, 0.42)
        cx, cy = place(13.0, 17.0, radius)
        prims.append(Cylinder((cx, cy), radius,
                              GROUND_Z, GROUND_Z + rng.uniform(4.0, 6.0), POLE))
    return Scene(prims, max_range=45.0)


def make_dataset(
    n_scenes: int, config: SensorConfig, seed: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Scan n_scenes random scenes; deterministic per seed.

    Scene geometry depends only on (seed, scene index), not on the sensor,
    so the same seed scanned with two configs yields a cross-sensor pair of
    the same world.
    """
    check_count("n_scenes", n_scenes, 1)
    check_count("seed", seed, 0)
    return [raycast_scan(random_scene(np.random.default_rng(seq)), config)
            for seq in np.random.SeedSequence(seed).spawn(n_scenes)]
