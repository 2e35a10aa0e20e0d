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
wide that voxelize sorts it by np.lexsort).  A change that
claims to keep training, evaluation, prediction, the feature report, density
or augmentation bit-identical must print the same digest as its base commit:

    PYTHONPATH=src python tests/checkpoint_digest.py

The file name keeps it out of pytest's collection.  CI compares the head
tree's line with the same tree's on one core (`taskset -c 0`, where every
parallel site runs its serial schedule) on every push, and with the base
tree's on each pull request.
"""

import os

# Before numpy loads: a GEMM's bits depend on the BLAS thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from conftest import beam_edge_cloud, far_cloud, mixed_scan, spaced_fov  # noqa: E402
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
from ddfe.io import save_checkpoint  # noqa: E402
from ddfe.sensors import (  # noqa: E402
    PRESETS,
    ProjectionParams,
    SensorConfig,
    beam_inclinations,
)
from ddfe.simulate import make_dataset  # noqa: E402
from ddfe.stats import DensityReservoir  # noqa: E402
from ddfe.voxels import voxelize  # noqa: E402

SIM64 = SensorConfig("sim64", 512, 64, -25.0, 3.0)
SIM32 = SensorConfig("sim32", 512, 32, -25.0, 3.0)
# sensors.MIN_BEAM_SPACING_DEG, written out so that trees without the
# constant print the same digest.
SPACING_FLOOR_DEG = 1e-9
RUNS = (
    {},
    {"use_clip": False},
    {"use_attention": False},
    {"use_density": False},
)


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
    return digest.hexdigest()


if __name__ == "__main__":
    print(checkpoint_digest())
