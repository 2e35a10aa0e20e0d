#!/usr/bin/env python3
"""Sensor geometry tour: beam layouts and the spherical projection image.

Walks through the bundled sensor presets, shows where their beams sit, and
checks that every pixel center projects back onto its own pixel.
"""

import numpy as np

from ddfe.sensors import (
    PRESETS,
    TWO_PI,
    ProjectionParams,
    beam_inclinations,
    project_cols,
    project_rows,
)

params = ProjectionParams()
print(f"projection image: {params.height} x {params.width} pixels over "
      f"[{params.proj_fov_min_deg}, {params.proj_fov_max_deg}] deg elevation\n")

print(f"{'sensor':14s} {'h_beams':>8s} {'v_beams':>8s} {'fov':>18s} "
      f"{'lowest beam':>12s} {'highest beam':>13s}")
for name, cfg in sorted(PRESETS.items()):
    _, elev = beam_inclinations(cfg)
    fov = f"[{cfg.fov_min_deg}, {cfg.fov_max_deg}]"
    print(f"{name:14s} {cfg.h_beams:8d} {cfg.v_beams:8d} {fov:>18s} "
          f"{elev[0]:11.3f}d {elev[-1]:12.3f}d")

print("\nazimuth spacing of the horizontal beams (degrees):")
for name, cfg in sorted(PRESETS.items()):
    azim, _ = beam_inclinations(cfg)
    print(f"  {name:14s} {np.degrees(azim[0]):.4f}")

print("\nprojection round trip on a random pixel sample:")
rng = np.random.default_rng(0)
cols = rng.integers(0, params.width, 2000)
rows = rng.integers(0, params.height, 2000)
# the angular center of each pixel
theta = (cols + 0.5) / params.width * TWO_PI
lo, hi = params.proj_fov_min_rad, params.proj_fov_max_rad
phi = lo + (rows + 0.5) / params.height * (hi - lo)
exact = np.sum((project_cols(theta, params) == cols) & (project_rows(phi, params) == rows))
print(f"  {exact}/2000 pixel centers project back to their own pixel")
