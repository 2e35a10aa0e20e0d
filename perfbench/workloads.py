"""The three workloads: seeded inputs, the timed operation, its output checks.

Each workload is one closed loop in one process.  `setup()` makes every input
from the seed and returns a digest of it; `prepare(i)` makes operation i's
input (untimed); `run` is the timed operation through ddfe's public
functions; `check` verifies its outputs; `metrics` turns a phase's log into
the end-to-end figures.  See README.md for why each workload exists.
"""

from __future__ import annotations

import os
from math import tau
from time import perf_counter

import numpy as np

from ddfe import augment, beams, embedding, simulate, stats
from ddfe import io as dio
from ddfe.sensors import PRESETS, ProjectionParams, SensorConfig
from harness import CheckFailed, digest, phase_figures

# Acceptance criterion 09's training sensor: 512 x 64 beams, -25..3 degrees.
SIM64 = SensorConfig("sim64", 512, 64, -25.0, 3.0)
WAYMO = PRESETS["waymo"]
KITTI = PRESETS["semantickitti"]
PROJ = ProjectionParams()


def sub_seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def op_rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


def repose(cloud: np.ndarray, yaw: float, shift: float) -> np.ndarray:
    """Rotate a cloud about +z by yaw, then move it by shift along +x."""
    c, s = np.cos(yaw), np.sin(yaw)
    out = cloud @ np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    out[:, 0] += shift
    return out


class Workload:
    min_ops = 1  # operations every phase completes, however long they take
    cycle = 1    # the operation count is a multiple of this

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def begin(self) -> None:
        self.done: dict[int, tuple[int, int]] = {}  # op -> (scans, points) completed

    def rejects(self, i: int, exc: Exception) -> bool:
        return False

    def finish(self) -> None:
        pass

    def metrics(self, log, samples_ms=None) -> dict:
        done = [self.done.get(i, (0, 0)) for i in range(log.attempted)]
        return phase_figures(log.latencies_s, [d[0] for d in done], [d[1] for d in done],
                             samples_ms=samples_ms, unit=self.cycle)


class TrainSim64(Workload):
    """One op = one train() call on sim64 scenes re-posed by a seeded yaw."""

    name = "train_sim64"
    SCENES = 6
    EPOCHS = 8

    def setup(self) -> str:
        self.dataset = simulate.make_dataset(self.SCENES, SIM64, seed=self.seed)
        return digest(*(a for pair in self.dataset for a in pair))

    def begin(self) -> None:
        super().begin()
        self.step_ms: list[float] = []
        self.miou = None

    def prepare(self, i):
        yaw = op_rng(self.seed, i).uniform(0.0, tau)
        return [(repose(cloud, yaw, 0.0), labels) for cloud, labels in self.dataset]

    def run(self, data):
        epochs: list[tuple[float, float]] = []

        def progress(epoch, loss):
            epochs.append((perf_counter(), loss))

        hyper = embedding.TrainConfig(epochs=self.EPOCHS, batch_size=2, seed=self.seed)
        model = embedding.train(data, SIM64, hyper, progress=progress)
        return model, epochs

    def check(self, i, data, out) -> None:
        model, epochs = out
        if len(epochs) != self.EPOCHS:
            raise CheckFailed(f"progress reported {len(epochs)} of {self.EPOCHS} epochs")
        if not all(np.isfinite(loss) for _, loss in epochs):
            raise CheckFailed(f"non-finite epoch loss: {[loss for _, loss in epochs]}")
        tensors = embedding.checkpoint_tensors(model)
        path = os.path.join(self.workdir, "train.ckpt")
        dio.save_checkpoint(tensors, path)
        loaded = dio.load_checkpoint(path)
        if list(loaded) != list(tensors):
            raise CheckFailed("checkpoint round trip changed the tensor names")
        for name, value in tensors.items():
            back = loaded[name]
            if back.shape != np.shape(value) or not np.array_equal(back, value):
                raise CheckFailed(f"checkpoint round trip changed tensor {name!r}")
        # The first epoch also encodes the scenes and fits the clip, so the
        # per-step latency samples are the later epochs' wall times.
        n = len(data)
        self.step_ms += [(b - a) * 1000.0 / n for (a, _), (b, _) in zip(epochs, epochs[1:])]
        self.done[i] = (self.EPOCHS * n, self.EPOCHS * sum(len(cloud) for cloud, _ in data))
        if i == 0:
            self.miou = embedding.evaluate(data, model, SIM64).miou

    def metrics(self, log) -> dict:
        return {**super().metrics(log, samples_ms=self.step_ms), "miou": self.miou}


class InferWaymo(Workload):
    """One op = encode_scene -> point_predictions on a re-posed waymo scan."""

    name = "infer_waymo"
    TRAIN_SCENES = 3
    TRAIN_EPOCHS = 4
    POOL = 3
    SHIFT_M = 1.0
    min_ops = 8  # the cross-sensor mIoU is taken over the first 8 scans

    def setup(self) -> str:
        train_seed, pool_seed = sub_seeds(self.seed, 2)
        train_set = simulate.make_dataset(self.TRAIN_SCENES, SIM64, seed=train_seed)
        hyper = embedding.TrainConfig(epochs=self.TRAIN_EPOCHS, batch_size=2, seed=self.seed)
        self.model = embedding.train(train_set, SIM64, hyper)
        self.pool = simulate.make_dataset(self.POOL, WAYMO, seed=pool_seed)
        self.profile = beams.beam_profile(WAYMO, PROJ)
        return digest(*(a for pair in self.pool for a in pair),
                      *embedding.checkpoint_tensors(self.model).values())

    def begin(self) -> None:
        super().begin()
        k = self.model.config.num_classes
        self.confusion = np.zeros((k, k), dtype=np.int64)

    def prepare(self, i):
        rng = op_rng(self.seed, i)
        cloud, labels = self.pool[i % self.POOL]
        yaw, shift = rng.uniform(0.0, tau), rng.uniform(-self.SHIFT_M, self.SHIFT_M)
        return repose(cloud, yaw, shift), labels

    def run(self, x):
        cloud, _ = x
        scene = embedding.encode_scene(cloud, self.profile, PROJ, self.model.config.voxel_size)
        return embedding.point_predictions(scene, self.model)

    def check(self, i, x, pred) -> None:
        cloud, labels = x
        k = self.model.config.num_classes
        if pred.shape != (len(cloud),) or pred.dtype.kind not in "iu":
            raise CheckFailed(f"predictions {pred.shape} {pred.dtype} for {len(cloud)} points")
        if pred.size and (pred.min() < 0 or pred.max() >= k):
            raise CheckFailed(f"prediction outside [0, {k}): [{pred.min()}, {pred.max()}]")
        self.done[i] = (1, len(cloud))
        if i < self.min_ops:
            self.confusion += embedding.confusion_matrix(pred, labels, k)

    def metrics(self, log) -> dict:
        return {**super().metrics(log), "miou": embedding.iou_scores(self.confusion)[1]}


class PrepKitti(Workload):
    """One op = one .bin/.label pair from disk through augment, density, stats, write."""

    name = "prep_kitti"
    FILES = 4
    # Real .bin files carry (0, 0, 0) no-return records; one file in four
    # holds one here.  Today the library rejects such a scan with the point
    # index (spherical_of_cloud); the benchmark counts it as rejected.
    PLACEHOLDER_FILES = (3,)
    AUGMENT = augment.AugmentConfig(apply_prob=0.5)
    # augment_pipeline's two p = 0.5 coin flips (mix, then beam drop) as an
    # exact schedule: over 16 operations every file meets every combination
    # once, so every run has the same mix of cheap and dear operations.
    SCHEDULE = ((False, False), (False, True), (True, False), (True, True))
    min_ops = cycle = FILES * len(SCHEDULE)

    def _path(self, j: int, ext: str) -> str:
        return os.path.join(self.workdir, f"{j:06d}.{ext}")

    def setup(self) -> str:
        scan_seed, hole_seed = sub_seeds(self.seed, 2)
        self.partners = simulate.make_dataset(self.FILES, KITTI, seed=scan_seed)
        rng = np.random.default_rng(hole_seed)
        hashed = []
        for j, (cloud, labels) in enumerate(self.partners):
            if j in self.PLACEHOLDER_FILES:
                at = int(rng.integers(0, len(cloud) + 1))
                cloud = np.insert(cloud, at, 0.0, axis=0)
                labels = np.insert(labels, at, 0)
            dio.write_scan(cloud, self._path(j, "bin"))
            dio.write_labels(labels, self._path(j, "label"))
            for ext in ("bin", "label"):
                with open(self._path(j, ext), "rb") as fh:
                    hashed.append(np.frombuffer(fh.read(), dtype=np.uint8))
        # Built once per run, as `ddfe stats` does.
        self.profile = beams.beam_profile(KITTI, PROJ)
        return digest(*hashed)

    def begin(self) -> None:
        super().begin()
        self.reservoir = stats.DensityReservoir(num_channels=4, seed=self.seed)

    def prepare(self, i):
        mix, drop = self.SCHEDULE[(i // self.FILES) % len(self.SCHEDULE)]
        return i % self.FILES, mix, drop, op_rng(self.seed, i)

    def run(self, x):
        j, mix, drop, rng = x
        cloud = dio.read_scan(self._path(j, "bin"))
        labels = dio.read_labels(self._path(j, "label"), cloud.shape[0])
        points_in = cloud.shape[0]
        if mix:
            partner = self.partners[(j + 1) % self.FILES]
            cloud, labels = augment.enhanced_mix3d((cloud, labels), partner, self.AUGMENT, rng)
        if drop:
            keep = augment.random_keep_set(KITTI, self.AUGMENT, rng)
            cloud, labels = augment.beam_sample(cloud, labels, KITTI, keep)
        density = beams.density_for_cloud(self.profile, cloud, PROJ)
        self.reservoir.update(density)
        out = self._path(j, "density")
        dio.write_density(density, out)
        return points_in, len(cloud), density, out

    def rejects(self, i, exc) -> bool:
        return (i % self.FILES in self.PLACEHOLDER_FILES and isinstance(exc, ValueError)
                and "point index" in str(exc))

    def check(self, i, x, out) -> None:
        points_in, n, density, path = out
        if density.shape != (n, 4) or not np.isfinite(density).all():
            raise CheckFailed(f"density {density.shape} for {n} points, or not finite")
        if os.path.getsize(path) != 16 * n:
            raise CheckFailed(f"{path} holds {os.path.getsize(path)} bytes, not 16*{n}")
        if not np.array_equal(dio.read_density(path), density.astype(np.float32)):
            raise CheckFailed(f"{path} does not read back as the float32 cast")
        self.done[i] = (1, points_in)

    def finish(self) -> None:
        clip = stats.fit_clip(self.reservoir)
        if not (np.isfinite(clip.p10).all() and np.isfinite(clip.p90).all()
                and (clip.p10 <= clip.p90).all()):
            raise CheckFailed(f"fit_clip gave P10 {clip.p10}, P90 {clip.p90}")

    def metrics(self, log) -> dict:
        return {**super().metrics(log), "rejected_rate": log.rejected / log.attempted}


WORKLOADS = {cls.name: cls for cls in (TrainSim64, InferWaymo, PrepKitti)}
