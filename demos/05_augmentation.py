#!/usr/bin/env python3
"""Density augmentation: beam dropping and scene mixing.

Beam sampling removes vertical beams to emulate sparser sensors (the
density spectrum shifts down by sqrt of the kept fraction); enhanced scene
mixing concatenates a yawed, ego-shifted second scan to widen coverage.
"""

import numpy as np

from ddfe.augment import AugmentConfig, augment_pipeline, beam_sample, enhanced_mix3d
from ddfe.beams import beam_profile, density_for_cloud
from ddfe.sensors import ProjectionParams, SensorConfig
from ddfe.simulate import make_dataset

sim64 = SensorConfig("sim64", 512, 64, -25.0, 3.0)
sim32 = SensorConfig("sim32", 512, 32, -25.0, 3.0)
params = ProjectionParams()

(cloud_a, labels_a), (cloud_b, labels_b) = make_dataset(2, sim64, seed=11)
print(f"scan A: {cloud_a.shape[0]} points, scan B: {cloud_b.shape[0]} points")

keep_even = np.arange(1, 64, 2)
sparse, sparse_labels = beam_sample(cloud_a, labels_a, sim64, keep_even)
print(f"\nkeeping the even-indexed 32 of 64 beams: {cloud_a.shape[0]} -> "
      f"{sparse.shape[0]} points ({sparse.shape[0] / cloud_a.shape[0]:.1%})")

p64 = beam_profile(sim64, params)
p32 = beam_profile(sim32, params)
d_before = np.median(density_for_cloud(p64, cloud_a, params)[:, 0])
d_after = np.median(density_for_cloud(p32, sparse, params)[:, 0])
print(f"median sigma=10 density: {d_before:.5f} -> {d_after:.5f} "
      f"(ratio {d_after / d_before:.3f}, sqrt(1/2) = {np.sqrt(0.5):.3f})")

rng = np.random.default_rng(4)
mixed, mixed_labels = enhanced_mix3d(
    (cloud_a, labels_a), (cloud_b, labels_b), AugmentConfig(), rng)
print(f"\nenhanced mixing: {cloud_a.shape[0]} + {cloud_b.shape[0]} = "
      f"{mixed.shape[0]} points (scan A untouched, scan B yawed + shifted)")

print("\nfull pipeline over 1000 draws at probability 0.5 each:")
rng = np.random.default_rng(99)
cfg = AugmentConfig(apply_prob=0.5)
# scan B's points get a label of their own, so each output shows whether B
# was mixed in and how many of scan A's points remain
tag = labels_a.max() + 1
partner = (cloud_b, np.full_like(labels_b, tag))
mixes = drops = 0
for _ in range(1000):
    _, out_labels = augment_pipeline((cloud_a, labels_a), sim64, cfg, rng, partner)
    mixes += bool(np.any(out_labels == tag))
    drops += int(np.sum(out_labels != tag)) < cloud_a.shape[0]
print(f"  mixing fired {mixes} times, beam dropping fired {drops} times")
