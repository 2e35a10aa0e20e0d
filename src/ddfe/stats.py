"""Streaming density statistics and soft clipping.

Channel-wise percentiles of the training-domain density distribution are
estimated on the fly with reservoir sampling (Vitter's Algorithm R, one
reservoir row per density channel).  The resulting 10th/90th percentiles
define a tanh soft clip that confines densities to the spectrum seen in
training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .io import DENSITY_CHANNELS, check_count, check_density, check_real
from .parallel import run_blocks

RESERVOIR_CAPACITY = 1000
HALF_SPAN_FLOOR = 1e-8  # guards the division when P90 == P10


class DensityReservoir:
    """Fixed-capacity uniform sample of each density channel's stream.

    Channels see the same rows, so one `seen` count serves all; each draws
    its slots from its own RNG, so `update` draws the channels side by side
    (parallel.run_blocks, one block per channel).  Every element ends up in
    its channel's row with probability capacity/n after n elements.
    Deterministic for a fixed seed and update sequence.
    """

    def __init__(self, num_channels: int = DENSITY_CHANNELS,
                 capacity: int = RESERVOIR_CAPACITY, seed: int = 0):
        check_count("num_channels", num_channels, 1)
        check_count("capacity", capacity, 1)
        check_count("seed", seed, 0)
        self.capacity = capacity
        self.samples = np.empty((num_channels, capacity), dtype=np.float64)
        self.seen = 0
        seqs = np.random.SeedSequence(seed).spawn(num_channels)
        self._rngs = [np.random.default_rng(s) for s in seqs]

    @property
    def num_channels(self) -> int:
        return self.samples.shape[0]

    def update(self, embedding: np.ndarray) -> None:
        """Stream an (N, C) density embedding through the reservoirs."""
        values = check_density(embedding, self.num_channels)
        n, cap = self.seen, self.capacity
        fill = min(max(cap - n, 0), len(values))
        self.samples[:, n : n + fill] = values[:fill].T
        rest = values[fill:]
        if len(rest):
            # Algorithm R: element at stream position t replaces a uniform
            # slot with probability cap/t.
            positions = np.arange(n + fill + 1, n + len(values) + 1)

            def draw(channels):
                for c in range(channels.start, channels.stop):
                    slots = self._rngs[c].integers(0, positions)
                    # A slot drawn twice keeps the later element: with the hits
                    # reversed, np.unique's first occurrence is the last hit.
                    hits = np.flatnonzero(slots < cap)[::-1]
                    slot, last = np.unique(slots[hits], return_index=True)
                    self.samples[c, slot] = rest[hits[last], c]

            run_blocks(self.num_channels, 1, draw)
        self.seen = n + len(values)

    def percentile(self, p: float) -> np.ndarray:
        """Nearest-rank percentile per channel: sorted sample [ceil(p/100*n)-1]."""
        check_real("percentile", p, 0, 100)
        n = min(self.seen, self.capacity)
        if n == 0:
            raise ValueError("no density statistics")
        rank = max(math.ceil(p / 100.0 * n) - 1, 0)
        return np.sort(self.samples[:, :n], axis=1)[:, rank]


@dataclass(frozen=True)
class ClipParams:
    """Per-channel midpoint and half span of the training density spectrum.

    Every half_span entry is finite and > 0, as `soft_clip` divides by it.
    """

    mid: np.ndarray
    half_span: np.ndarray
    p10: np.ndarray
    p90: np.ndarray

    def __post_init__(self):
        span = np.asarray(self.half_span, dtype=np.float64)
        bad = np.flatnonzero(~np.isfinite(span) | (span <= 0))
        if bad.size:
            raise ValueError(f"clip.half_span must be finite and > 0, "
                             f"got {span.flat[bad[0]]} at index {bad[0]}")

    @classmethod
    def from_mid_span(cls, mid: np.ndarray, half_span: np.ndarray) -> "ClipParams":
        mid = np.asarray(mid, dtype=np.float64)
        half_span = np.asarray(half_span, dtype=np.float64)
        return cls(mid, half_span, mid - half_span, mid + half_span)


def fit_clip(reservoir: DensityReservoir) -> ClipParams:
    """Freeze clip parameters from the reservoir's 10th/90th percentiles."""
    p10 = reservoir.percentile(10.0)
    p90 = reservoir.percentile(90.0)
    mid = 0.5 * (p90 + p10)
    half_span = np.maximum(0.5 * (p90 - p10), HALF_SPAN_FLOOR)
    return ClipParams(mid, half_span, p10, p90)


def soft_clip(embedding: np.ndarray, clip: ClipParams) -> np.ndarray:
    """Confine densities to (mid - span, mid + span) with a tanh squash.

    Identity (slope 1) at the midpoint; saturates smoothly at the 10th/90th
    percentile band edges.  Inputs many spans beyond the band can round to
    the bound itself in floating point.
    """
    values = np.asarray(embedding, dtype=np.float64)
    out = values - clip.mid
    out /= clip.half_span
    np.tanh(out, out=out)
    out *= clip.half_span
    out += clip.mid
    return out
