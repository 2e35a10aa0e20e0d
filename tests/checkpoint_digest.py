#!/usr/bin/env python3
"""Print one SHA-256 over four short training runs and what they score.

The runs are the full model and the three ablations (no clip, no attention,
no density), each `train(make_dataset(4, SIM64, seed=123), SIM64,
TrainConfig(epochs=2, seed=0))`, with BLAS on one thread.  Each run adds its
checkpoint and, on the training scans and on the same worlds scanned by
SIM32, the `evaluate` confusion matrix and the `binned_voxel_features` means
and counts.  A change that claims to keep training, evaluation and the
feature report bit-identical must print the same digest as its base commit:

    PYTHONPATH=src python tests/checkpoint_digest.py

The file name keeps it out of pytest's collection; CI runs it on the base
and the head source trees and compares the two lines.
"""

import os

# Before numpy loads: a GEMM's bits depend on the BLAS thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from ddfe.embedding import (  # noqa: E402
    TrainConfig,
    binned_voxel_features,
    checkpoint_tensors,
    evaluate,
    train,
)
from ddfe.io import save_checkpoint  # noqa: E402
from ddfe.sensors import SensorConfig  # noqa: E402
from ddfe.simulate import make_dataset  # noqa: E402

SIM64 = SensorConfig("sim64", 512, 64, -25.0, 3.0)
SIM32 = SensorConfig("sim32", 512, 32, -25.0, 3.0)
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
    return digest.hexdigest()


if __name__ == "__main__":
    print(checkpoint_digest())
