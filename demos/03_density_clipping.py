#!/usr/bin/env python3
"""Streaming percentiles and soft clipping of the density spectrum.

Densities from a training domain are streamed through fixed-size
reservoirs; the 10th/90th percentiles then define a tanh squash that
confines unseen densities to the training band without a hard cutoff.
"""

import numpy as np

from ddfe.beams import beam_profile, density_for_cloud
from ddfe.sensors import ProjectionParams, SensorConfig
from ddfe.simulate import make_dataset
from ddfe.stats import DensityReservoir, fit_clip, soft_clip

sim64 = SensorConfig("sim64", 512, 64, -25.0, 3.0)
params = ProjectionParams()
profile = beam_profile(sim64, params)

print("streaming 10 synthetic scans through 4 reservoirs (capacity 1000)...")
reservoir = DensityReservoir(seed=0)
for cloud, _ in make_dataset(10, sim64, seed=7):
    reservoir.update(density_for_cloud(profile, cloud, params))
print(f"  seen {reservoir.seen} values per channel, "
      f"kept {min(reservoir.seen, reservoir.capacity)}")

clip = fit_clip(reservoir)
print("\nfitted clip parameters per channel:")
for c, sigma in enumerate((10, 30, 50, 70)):
    print(f"  sigma={sigma:2d}: P10={clip.p10[c]:.5f}  P90={clip.p90[c]:.5f}  "
          f"m={clip.mid[c]:.5f}  l={clip.half_span[c]:.5f}")

print("\nsoft clip response on the sigma=10 channel (input -> output):")
m, l = clip.mid[0], clip.half_span[0]
for multiple in (-4.0, -1.0, 0.0, 1.0, 4.0, 20.0):
    value = m + multiple * l
    probe = np.full((1, 4), value)
    out = soft_clip(probe, clip)[0, 0]
    print(f"  m {multiple:+5.1f}l = {value:9.5f}  ->  {out:9.5f}"
          + ("   (identity at the midpoint)" if multiple == 0 else ""))
print(f"\noutputs stay strictly inside (m-l, m+l) = "
      f"({m - l:.5f}, {m + l:.5f})")
