#!/usr/bin/env python3
"""Print one SHA-256 over four short training runs, what they score, and the
density and augmentation paths they rest on.

The runs are the full model and the three ablations (no clip, no attention,
no density), each `train(make_dataset(4, SIM64, seed=123), SIM64,
TrainConfig(epochs=2, seed=0))`, with BLAS on one thread.  Each run adds its
checkpoint and, on the training scans and on the same worlds scanned by
SIM32, the `evaluate` confusion matrix and the `binned_voxel_features` means
and counts.  Then come the full model's `point_predictions` on one simulated
waymo scan, both `forward_encoded` feature arrays on it and the point and
voxel logits of `forward_encoded(..., heads=True)` (an argmax can hide a
last-bit change in the features or logits), the no-attention model's
`point_predictions` on one simulated SIM64 scan, `density_for_cloud` on one
simulated scan per sensor preset, and `enhanced_mix3d` -> `random_keep_set`
-> `beam_sample` on the first two training scans under `default_rng(0)`,
and `nearest_beam` on `beam_edge_cloud` (tests/conftest.py: points at every
beam elevation, every midpoint between beams, the FOV edges and +-89
degrees) for each preset and for the closest grids `SensorConfig` accepts:
2, 64 and 128 beams at once and twice the 1e-9 degree spacing floor, from
-89, 0 and just below +89 degrees.  Last come `density_for_cloud`,
`nearest_beam` and a `DensityReservoir`'s samples after two updates, on
`mixed_scan` (tests/conftest.py: two semantickitti scans mixed, 223,809
points, so every job that splits rows into blocks runs many), and the
grid `voxelize` makes of `far_cloud` at 0.2 m (tests/conftest.py: a cloud so
wide that voxelize sorts it by np.lexsort), and `segment_max`'s values and
routed gradient on `3 * ROW_BLOCK + 5` rows of fixed features whose segments
straddle the row-block edges, with +-0 and +-inf ties planted across them.
Last of all come the clouds and labels of `make_dataset(2, preset, seed=123)`
for each sensor preset, and of `edge_scenes` (tests/conftest.py: footprints
holding the origin, objects straddling the +x axis, an inverted box, a wall
cut by max_range) scanned by SIM64, by 4 x 2 beams over -30..30 degrees and
by 7 x 5 beams over -90..90 degrees.
A change that
claims to keep training, evaluation, prediction, the feature report, density
or augmentation bit-identical must print the same digest as its base commit:

    PYTHONPATH=src python tests/checkpoint_digest.py

The file name keeps it out of pytest's collection.  CI compares the head
tree's line with the same tree's on one core (`taskset -c 0`, where every
parallel site runs its serial schedule) on every push, and with the base
tree's on each pull request, under the runner's OpenBLAS kernel and under
OPENBLAS_CORETYPE=Haswell.  The line itself depends on the kernel.
"""

import os

# Before numpy loads: a GEMM's bits depend on the BLAS thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from conftest import (  # noqa: E402
    beam_edge_cloud,
    edge_scenes,
    far_cloud,
    mixed_scan,
    spaced_fov,
)
from ddfe.augment import (  # noqa: E402
    AugmentConfig,
    beam_sample,
    enhanced_mix3d,
    nearest_beam,
    random_keep_set,
)
from ddfe.beams import beam_profile, density_for_cloud  # noqa: E402
from ddfe.embedding import (  # noqa: E402
    TrainConfig,
    binned_voxel_features,
    checkpoint_tensors,
    encode_scene,
    evaluate,
    forward_encoded,
    point_predictions,
    train,
)
from ddfe import nn  # noqa: E402
from ddfe.io import save_checkpoint  # noqa: E402
from ddfe.parallel import ROW_BLOCK  # noqa: E402
from ddfe.sensors import (  # noqa: E402
    PRESETS,
    ProjectionParams,
    SensorConfig,
    beam_inclinations,
)
from ddfe.simulate import make_dataset, raycast_scan  # noqa: E402
from ddfe.stats import DensityReservoir  # noqa: E402
from ddfe.voxels import voxelize  # noqa: E402

SIM64 = SensorConfig("sim64", 512, 64, -25.0, 3.0)
SIM32 = SensorConfig("sim32", 512, 32, -25.0, 3.0)
EDGE_SENSORS = (SIM64, SensorConfig("4x2", 4, 2, -30.0, 30.0),
                SensorConfig("7x5", 7, 5, -90.0, 90.0))
# sensors.MIN_BEAM_SPACING_DEG, written out so that trees without the
# constant print the same digest.
SPACING_FLOOR_DEG = 1e-9
RUNS = (
    {},
    {"use_clip": False},
    {"use_attention": False},
    {"use_density": False},
)


def segment_max_case() -> tuple[np.ndarray, np.ndarray, int]:
    """(x, segment ids, segment count) for segment_max: 3 * ROW_BLOCK + 5
    rows of 16 channels over 1,000 interleaved segments, every one spanning
    all four row blocks, and a fifth of the entries drawn from +-0, +-inf and
    a repeated 1.5, so that maxima tie across blocks.  Around each block edge
    four rows form a segment of their own, with ties split by the edge: +0
    and -0 in alternation, +inf twice on each side, all -inf, and 1.5 on the
    far side only."""
    rng = np.random.default_rng(29)
    n, d, m = 3 * ROW_BLOCK + 5, 16, 1000
    x = rng.normal(size=(n, d))
    special = rng.random((n, d)) < 0.2
    x[special] = rng.choice([-np.inf, -0.0, 0.0, 1.5, np.inf], size=int(special.sum()))
    seg = rng.permutation(np.arange(n) % m)
    planted = np.array([[0.0, -0.0, 0.0, -0.0],
                        [-0.0, 0.0, -0.0, 0.0],
                        [np.inf, np.inf, np.inf, np.inf],
                        [-np.inf, -np.inf, -np.inf, -np.inf],
                        [-1.0, -1.0, 1.5, 1.5]]).T
    for k, edge in enumerate(range(ROW_BLOCK, n, ROW_BLOCK)):
        rows = slice(edge - 2, edge + 2)
        seg[rows] = m + k
        x[rows, :planted.shape[1]] = planted
    return x, seg, m + k + 1


def checkpoint_digest() -> str:
    dataset = make_dataset(4, SIM64, seed=123)
    scored = ((dataset, SIM64), (make_dataset(4, SIM32, seed=123), SIM32))
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        for flags in RUNS:
            model = train(dataset, SIM64, TrainConfig(epochs=2, seed=0), **flags)
            save_checkpoint(checkpoint_tensors(model), path)
            digest.update(path.read_bytes())
            for data, sensor in scored:
                digest.update(evaluate(data, model, sensor).confusion.tobytes())
                for array in binned_voxel_features(data, model, sensor):
                    digest.update(array.tobytes())
            if not flags:
                full = model
            if flags == {"use_attention": False}:
                no_attention = model
    proj = ProjectionParams()
    waymo = PRESETS["waymo"]
    cloud, _ = make_dataset(1, waymo, seed=7)[0]
    scene = encode_scene(cloud, beam_profile(waymo, proj), proj, full.config.voxel_size)
    digest.update(point_predictions(scene, full).tobytes())
    for heads in (False, True):
        for array in forward_encoded(scene, full.params, full.clip, heads=heads):
            digest.update(array.data.tobytes())
    cloud, _ = make_dataset(1, SIM64, seed=7)[0]
    scene = encode_scene(cloud, beam_profile(SIM64, proj), proj, no_attention.config.voxel_size)
    digest.update(point_predictions(scene, no_attention).tobytes())
    for sensor in PRESETS.values():
        cloud, _ = make_dataset(1, sensor, seed=7)[0]
        digest.update(density_for_cloud(beam_profile(sensor, proj), cloud, proj).tobytes())
    rng = np.random.default_rng(0)
    mixed = enhanced_mix3d(dataset[0], dataset[1], AugmentConfig(), rng)
    keep = random_keep_set(SIM64, AugmentConfig(), rng)
    for array in (*mixed, keep, *beam_sample(*mixed, SIM64, keep)):
        digest.update(array.tobytes())
    for sensor in PRESETS.values():
        edges = beam_edge_cloud(beam_inclinations(sensor)[1],
                                (sensor.fov_min_deg, sensor.fov_max_deg))
        digest.update(nearest_beam(edges, sensor).tobytes())
    for v_beams in (2, 64, 128):
        for fov_min_deg in (-89.0, 0.0, 88.9999997):
            for factor in (1, 2):
                fov = spaced_fov(v_beams, fov_min_deg, factor * SPACING_FLOOR_DEG)
                sensor = SensorConfig("floor", 16, v_beams, *fov)
                edges = beam_edge_cloud(beam_inclinations(sensor)[1], fov)
                digest.update(nearest_beam(edges, sensor).tobytes())
    kitti, cloud = PRESETS["semantickitti"], mixed_scan()
    density = density_for_cloud(beam_profile(kitti, proj), cloud, proj)
    reservoir = DensityReservoir(seed=0)
    reservoir.update(density[:500])
    reservoir.update(density[500:])
    for array in (density, nearest_beam(cloud, kitti), reservoir.samples):
        digest.update(array.tobytes())
    grid = voxelize(far_cloud(), 0.2)
    for array in (grid.cells, grid.centers, grid.point_to_voxel):
        digest.update(array.tobytes())
    x, seg, m = segment_max_case()
    features = nn.Tensor(x, requires_grad=True)
    pooled = nn.segment_max(features, nn.SegmentMap(seg, m))
    # distinct coefficients signed as the maxima, so that no product is NaN
    coeffs = np.copysign(np.arange(1.0, pooled.data.size + 1).reshape(pooled.shape),
                         pooled.data)
    grad = nn.tensor_sum(nn.multiply(pooled, nn.Tensor(coeffs))).backward()[features]
    for array in (pooled.data, grad):
        digest.update(array.tobytes())
    scans = [scan for sensor in PRESETS.values() for scan in make_dataset(2, sensor, seed=123)]
    scans += [raycast_scan(scene, sensor) for sensor in EDGE_SENSORS for scene in edge_scenes()]
    for cloud, labels in scans:
        digest.update(cloud.tobytes())
        digest.update(labels.tobytes())
    return digest.hexdigest()


if __name__ == "__main__":
    print(checkpoint_digest())
