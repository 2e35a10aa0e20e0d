"""Command-line front end.

Subcommands: simulate, density, stats, augment, train, evaluate,
report-density-match, report-feature-similarity.  Exit codes: 0 success,
1 usage error, 2 data error.  Every subcommand is deterministic given its
--seed, so reruns produce byte-identical primary outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import os
import sys

import numpy as np

from . import io as ddfe_io
from .augment import AugmentConfig, augment_pipeline
from .beams import DEFAULT_SIGMAS, band_center_density, beam_profile, density_for_cloud
from .embedding import (
    RANGE_BIN_EDGES,
    TrainConfig,
    binned_voxel_features,
    checkpoint_tensors,
    evaluate,
    feature_similarity_matrix,
    model_from_tensors,
    train,
)
from .sensors import ProjectionParams, resolve_sensor
from .simulate import CLASS_NAMES, make_dataset
from .stats import DensityReservoir, fit_clip


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _load_pair(bin_path: str) -> tuple[np.ndarray, np.ndarray]:
    cloud = ddfe_io.read_scan(bin_path)
    label_path = os.path.splitext(bin_path)[0] + ".label"
    if not os.path.exists(label_path):
        raise ValueError(f"missing label file {label_path}")
    labels = ddfe_io.read_labels(label_path, cloud.shape[0])
    return cloud, labels


def _scan_paths(directory: str) -> list[str]:
    """The directory's .bin scans in sorted name order; at least one."""
    paths = sorted(glob.glob(os.path.join(directory, "*.bin")))
    if not paths:
        raise ValueError(f"no .bin scans found in {directory}")
    return paths


def _load_dataset(directory: str) -> list[tuple[np.ndarray, np.ndarray]]:
    return [_load_pair(p) for p in _scan_paths(directory)]


# --- subcommand handlers ---------------------------------------------------


def _cmd_simulate(args) -> None:
    if args.scenes < 1:
        raise UsageError(f"--scenes must be >= 1, got {args.scenes}")
    config = resolve_sensor(args.sensor)
    os.makedirs(args.out, exist_ok=True)
    scans = make_dataset(args.scenes, config, args.seed)
    for i, (cloud, labels) in enumerate(scans):
        stem = os.path.join(args.out, f"{i:06d}")
        ddfe_io.write_scan(cloud, stem + ".bin")
        ddfe_io.write_labels(labels, stem + ".label")
    total = sum(len(labels) for _, labels in scans)
    print(f"simulated {len(scans)} scans ({total} points) with sensor "
          f"{config.name!r} into {args.out}")


def _cmd_density(args) -> None:
    config = resolve_sensor(args.sensor)
    cloud = ddfe_io.read_scan(args.input)
    profile = beam_profile(config)
    values = density_for_cloud(profile, cloud, ProjectionParams())
    if args.csv:
        ddfe_io.write_density_csv(values, args.out)
    else:
        ddfe_io.write_density(values, args.out)
    print(f"wrote {values.shape[0]}x{values.shape[1]} densities to {args.out}")


def _cmd_stats(args) -> None:
    config = resolve_sensor(args.sensor)
    paths = _scan_paths(args.inputs)
    profile = beam_profile(config)
    proj = ProjectionParams()
    reservoir = DensityReservoir(num_channels=len(DEFAULT_SIGMAS), seed=args.seed)
    for i, path in enumerate(paths):
        cloud = ddfe_io.read_scan(path)
        if len(cloud) == 0:
            raise ValueError(f"scan {i} of the dataset is empty")
        reservoir.update(density_for_cloud(profile, cloud, proj))
    clip = fit_clip(reservoir)
    print(f"fit clip on {len(paths)} scans")
    for c, sigma in enumerate(DEFAULT_SIGMAS):
        print(f"  d{int(sigma)}: P10={clip.p10[c]:.6g} P90={clip.p90[c]:.6g} "
              f"m={clip.mid[c]:.6g} l={clip.half_span[c]:.6g}")


def _cmd_augment(args) -> None:
    try:
        cfg = AugmentConfig(apply_prob=args.prob)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    config = resolve_sensor(args.sensor)
    sample = _load_pair(args.input)
    partner = _load_pair(args.mix)
    rng = np.random.default_rng(args.seed)
    cloud, labels = augment_pipeline(sample, config, cfg, rng, pool=lambda: partner)
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(
        args.out, os.path.splitext(os.path.basename(args.input))[0] + "_aug")
    ddfe_io.write_scan(cloud, stem + ".bin")
    ddfe_io.write_labels(labels, stem + ".label")
    print(f"augmented {sample[0].shape[0]} -> {cloud.shape[0]} points; "
          f"wrote {stem}.bin/.label")


def _cmd_train(args) -> None:
    config = resolve_sensor(args.sensor)
    hyper = TrainConfig.from_file(args.config) if args.config else TrainConfig()
    overrides = {
        "epochs": args.epochs, "batch_size": args.batch, "voxel_size": args.voxel,
        "seed": args.seed, "num_classes": args.classes,
    }
    try:
        hyper = dataclasses.replace(
            hyper, **{name: v for name, v in overrides.items() if v is not None})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    dataset = _load_dataset(args.data)
    model = train(
        dataset, config, hyper,
        use_clip=not args.no_clip,
        use_attention=not args.no_attn,
        use_density=not args.no_density,
        progress=(None if args.quiet else
                  lambda epoch, loss: print(f"  epoch {epoch:3d}  loss {loss:.6f}")),
    )
    ddfe_io.save_checkpoint(checkpoint_tensors(model), args.out)
    print(f"trained on {len(dataset)} scans for {hyper.epochs} epochs; "
          f"wrote {args.out}")


def _cmd_evaluate(args) -> None:
    config = resolve_sensor(args.sensor)
    model = model_from_tensors(ddfe_io.load_checkpoint(args.model))
    dataset = _load_dataset(args.data)
    report = evaluate(dataset, model, config)
    text = report.format(class_names=CLASS_NAMES)
    print(text)
    if args.report:
        with open(args.report, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.report}")


def _cmd_density_match(args) -> None:
    if len(args.sensors) < 2:
        raise UsageError("report-density-match needs at least two --sensors")
    configs = [resolve_sensor(s) for s in args.sensors]
    distances = np.asarray(args.distances, dtype=np.float64)
    if not np.all((distances > 0) & (distances < np.inf)):
        raise UsageError("--distances must be positive and finite")
    proj = ProjectionParams()
    profiles = [beam_profile(c, proj) for c in configs]
    # sigma=10 channel (index 0) at band-center angles.
    table = np.array([
        [band_center_density(p, c, proj, d)[0] for d in distances]
        for c, p in zip(configs, profiles)
    ])
    header = "distance_m " + " ".join(f"{c.name:>14s}" for c in configs)
    print("band-center density (sigma=10 channel):")
    print(header)
    for j, d in enumerate(distances):
        print(f"{d:10.1f} " + " ".join(f"{table[i, j]:14.6g}" for i in range(len(configs))))
    print()
    print("matched-distance pairs (nearest density):")
    for a in range(len(configs)):
        for b in range(len(configs)):
            if a == b:
                continue
            for j, d in enumerate(distances):
                k = int(np.argmin(np.abs(table[b] - table[a, j])))
                ratio = table[a, j] / table[b, k]
                print(f"  {configs[a].name}@{d:g}m ~ {configs[b].name}"
                      f"@{distances[k]:g}m  ratio={ratio:.4f}")


def _cmd_feature_similarity(args) -> None:
    if len(args.sensors) != 2:
        raise UsageError("report-feature-similarity needs exactly two --sensors")
    configs = [resolve_sensor(s) for s in args.sensors]
    model = model_from_tensors(ddfe_io.load_checkpoint(args.model))
    means = []
    for config in configs:
        directory = os.path.join(args.data, config.name)
        if not os.path.isdir(directory):
            raise ValueError(
                f"expected scans for sensor {config.name!r} in {directory}"
            )
        dataset = _load_dataset(directory)
        mean, _ = binned_voxel_features(dataset, model, config)
        means.append(mean)
    matrix = feature_similarity_matrix(means[0], means[1])
    labels = [f"{int(lo)}-{int(hi)}m"
              for lo, hi in zip(RANGE_BIN_EDGES[:-1], RANGE_BIN_EDGES[1:])]
    print(f"L2 distance between mean voxel features: rows {configs[0].name}, "
          f"columns {configs[1].name}")
    print(f"{'':>8s} " + " ".join(f"{b:>8s}" for b in labels))
    for i, row in enumerate(matrix):
        cells = " ".join("     nan" if np.isnan(v) else f"{v:8.4f}" for v in row)
        print(f"{labels[i]:>8s} {cells}")
        if not np.all(np.isnan(row)):
            k = int(np.nanargmin(row))
            print(f"          closest {configs[1].name} bin: {labels[k]}")


# --- parser ----------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="ddfe", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("simulate", help="ray-cast synthetic labeled scans")
    p.add_argument("--sensor", required=True)
    p.add_argument("--scenes", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("density", help="per-point beam densities of a scan")
    p.add_argument("--sensor", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(handler=_cmd_density)

    p = sub.add_parser("stats", help="print density clip parameters fitted over scans")
    p.add_argument("--sensor", required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("augment", help="mix two scans and drop beams")
    p.add_argument("--sensor", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--mix", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prob", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_augment)

    p = sub.add_parser("train", help="train the embedding + toy heads")
    p.add_argument("--sensor", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="key=value training config file")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--voxel", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--classes", type=int)
    p.add_argument("--no-clip", action="store_true")
    p.add_argument("--no-attn", action="store_true")
    p.add_argument("--no-density", action="store_true")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("evaluate", help="per-class IoU and mIoU of a checkpoint")
    p.add_argument("--sensor", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--report")
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("report-density-match",
                       help="density vs distance per sensor, matched pairs")
    p.add_argument("--sensors", nargs="+", required=True)
    p.add_argument("--distances", nargs="+", type=float, required=True)
    p.set_defaults(handler=_cmd_density_match)

    p = sub.add_parser("report-feature-similarity",
                       help="L2 distance between distance-binned voxel features")
    p.add_argument("--model", required=True)
    p.add_argument("--sensors", nargs=2, required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(handler=_cmd_feature_similarity)

    return parser


def run(argv) -> int:
    """Run one subcommand; the only place an exception becomes an exit code."""
    try:
        args = build_parser().parse_args(argv)
        if not getattr(args, "command", None):
            raise UsageError("missing subcommand (try --help)")
        args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
