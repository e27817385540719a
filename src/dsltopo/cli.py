"""Command-line interface.

One subcommand per capability: loss evaluation, persistence diagrams,
diagram distances, correlation distance, sharpness calibration, the
autoencoder demo, and the scaling benchmark. Exit codes: 0 success, 2 usage
or configuration error, 3 data or format error (including input too large
for the memory limit), 4 numeric or degenerate input, or out of memory.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .autoencoder import (
    WALK_LENGTH,
    demo_preset,
    evaluate_reconstructions,
    generate_walk_dataset,
    generate_wave_dataset,
    held_out_split,
    save_checkpoint,
    train_autoencoder,
    write_evaluation_csv,
    write_training_log,
)
from .bench import benchmark_losses, format_bench_csv, write_bench_csv
from .calibration import CalibrationConfig, ReferenceLoss, find_sharpness
from .exceptions import (
    AxisError,
    ConfigError,
    FormatError,
    NumericError,
    ShapeError,
)
from .loss import DEFAULT_SHARPNESS, DslConfig, Reduction, SignKind, dsl_forward, dsl_gradient
from .tensor import read_tensor, write_tensor
from .topology import (
    InfiniteDeathPolicy,
    pairwise_correlation_distance,
    read_diagram,
    sublevel_persistence_0d,
    wasserstein_distance,
    write_diagram,
)

_SIGN_KINDS = {"tanh": SignKind.TANH, "softsign": SignKind.SOFTSIGN, "exact": SignKind.EXACT_SIGN}
_INF_POLICIES = {
    "cap": InfiniteDeathPolicy.CAP_AT_GLOBAL_MAX,
    "drop": InfiniteDeathPolicy.DROP,
    "reject": InfiniteDeathPolicy.REJECT,
}


def _comma_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def _comma_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _comma_names(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _cmd_dsl(args) -> int:
    # exact units are the default; --scale switches to comparison scaling
    cfg = DslConfig(
        sharpness=args.sharpness,
        weights=args.weights,
        sign_kind=_SIGN_KINDS[args.sign],
        match_exact_units=not args.scale,
        skip_batch_axis=args.skip_batch,
        reduction=Reduction.MEAN,
        scale_by_comparisons=args.scale,
    )
    x = read_tensor(args.x)
    y = read_tensor(args.y)
    value = dsl_forward(x, y, cfg)
    print(f"{value:.17g}")
    if args.grad:
        grad_y, grad_x, grad_s = dsl_gradient(x, y, cfg)
        write_tensor(grad_x, args.grad + "_dX.dst")
        write_tensor(grad_y, args.grad + "_dY.dst")
        print(f"dloss_ds {grad_s:.17g}")
    return 0


def _cmd_persistence(args) -> int:
    diagram = sublevel_persistence_0d(read_tensor(args.tensor))
    if args.out:
        write_diagram(diagram, args.out)
    else:
        for b, d in diagram.points:
            print(f"{b:.17g},{d:.17g}")
    return 0


def _cmd_wasserstein(args) -> int:
    d1 = read_diagram(args.d1)
    d2 = read_diagram(args.d2)
    value = wasserstein_distance(d1, d2, p=args.p, infinite_death_policy=_INF_POLICIES[args.inf])
    print(f"{value:.17g}")
    return 0


def _cmd_corrdist(args) -> int:
    value = pairwise_correlation_distance(
        read_tensor(args.x), read_tensor(args.y), feature_axis=args.feature_axis
    )
    print(f"{value:.17g}")
    return 0


def _cmd_calibrate(args) -> int:
    names = sorted(f for f in os.listdir(args.data_dir) if f.endswith(".dst"))
    if not names:
        raise FormatError(f"no .dst tensors found in {args.data_dir}")
    dataset = [read_tensor(os.path.join(args.data_dir, f)) for f in names]
    cfg = CalibrationConfig(
        max_steps=args.max_steps,
        threshold=args.eps,
        step_size=args.step_size,
        batch_size=args.batch_size,
        reference_loss=ReferenceLoss(args.ref),
        initial_sharpness=args.initial_sharpness,
        seed=args.seed,
    )
    rows: list[tuple[int, float, float]] = []
    s, _, _ = find_sharpness(dataset, cfg, step_callback=lambda *row: rows.append(row))
    with open(args.log, "w", encoding="ascii") as fh:
        fh.write("step,sharpness,opt_loss\n")
        for step, sharp, opt in rows:
            fh.write(f"{step},{sharp:.17g},{opt:.17g}\n")
    print(f"{s:.17g}")
    return 0


def _cmd_train_demo(args) -> int:
    spec, cfg = demo_preset(args.dataset)
    cfg = replace(
        cfg,
        mse_weight=args.mse,
        dsl_weight=args.dsl,
        seed=args.seed,
        total_batches=args.batches,
    )
    if args.dataset == "wave":
        data = generate_wave_dataset(args.count, args.seed)
    else:
        data = generate_walk_dataset(args.count, WALK_LENGTH, args.seed)
    train, held = held_out_split(data, 0.1)
    model, log = train_autoencoder(train, spec, cfg)

    os.makedirs(args.out, exist_ok=True)
    save_checkpoint(model, os.path.join(args.out, "checkpoint"))
    write_training_log(log, os.path.join(args.out, "training_log.csv"))
    scores = evaluate_reconstructions(held, model.reconstruct(held))
    write_evaluation_csv(scores, os.path.join(args.out, "evaluation.csv"))

    agreement = np.array([s.directional_agreement for s in scores])
    w2 = np.array([s.persistence_wasserstein for s in scores])
    corr = np.array([s.correlation_distance for s in scores])
    print(f"held_out_examples {len(scores)}")
    print(f"mean_directional_agreement {agreement.mean():.17g}")
    print(f"mean_persistence_wasserstein {w2.mean():.17g}")
    print(f"mean_correlation_distance {np.nanmean(corr):.17g}")
    return 0


def _cmd_bench(args) -> int:
    records = benchmark_losses(
        kinds=args.kinds,
        ranks=args.ranks,
        sizes=args.sizes,
        repetitions=args.reps,
        time_budget_seconds=args.budget,
        seed=args.seed,
    )
    if args.csv:
        write_bench_csv(records, args.csv)
    else:
        sys.stdout.write(format_bench_csv(records))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsltopo",
        description="Directional sign loss and topological dissimilarity tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dsl", help="directional sign loss between two tensor files")
    p.add_argument("x", metavar="X.dst")
    p.add_argument("y", metavar="Y.dst")
    p.add_argument("--sharpness", type=float, default=DEFAULT_SHARPNESS)
    p.add_argument("--sign", choices=sorted(_SIGN_KINDS), default="tanh")
    p.add_argument("--weights", type=_comma_floats, default=None, help="per-axis weights w1,w2,...")
    units = p.add_mutually_exclusive_group()
    units.add_argument(
        "--exact-units",
        action="store_true",
        help="halve mismatches to share units with the exact count (default)",
    )
    units.add_argument(
        "--scale",
        action="store_true",
        help="divide by the per-example comparison count instead",
    )
    p.add_argument("--skip-batch", action="store_true", help="treat axis 0 as examples")
    p.add_argument(
        "--grad",
        metavar="OUT_PREFIX",
        help="write gradient tensors OUT_PREFIX_dX.dst / OUT_PREFIX_dY.dst and print dloss/ds",
    )
    p.set_defaults(func=_cmd_dsl)

    p = sub.add_parser("persistence", help="order-0 sublevel persistence diagram of a tensor")
    p.add_argument("tensor", metavar="T.dst")
    p.add_argument("--out", metavar="D.csv", help="write the diagram here instead of stdout")
    p.set_defaults(func=_cmd_persistence)

    p = sub.add_parser("wasserstein", help="p-Wasserstein distance between two diagram files")
    p.add_argument("d1", metavar="D1.csv")
    p.add_argument("d2", metavar="D2.csv")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--inf", choices=sorted(_INF_POLICIES), default="cap")
    p.set_defaults(func=_cmd_wasserstein)

    p = sub.add_parser("corrdist", help="pairwise correlation distance between two tensors")
    p.add_argument("x", metavar="X.dst")
    p.add_argument("y", metavar="Y.dst")
    p.add_argument(
        "--feature-axis",
        type=int,
        default=None,
        help="axis holding feature vectors; omit for scalar features",
    )
    p.set_defaults(func=_cmd_corrdist)

    p = sub.add_parser("calibrate", help="calibrate sharpness against a reference loss")
    p.add_argument("data_dir", metavar="DATA_DIR", help="directory of .dst example tensors")
    p.add_argument("--ref", choices=["mse", "mae"], required=True)
    p.add_argument("--max-steps", type=int, default=5000)
    p.add_argument("--eps", type=float, default=1e-4, help="stopping threshold on (dsl - ref)^2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step-size", type=float, default=0.5)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--initial-sharpness", type=float, default=32.0)
    p.add_argument("--log", default="calibration_log.csv", help="step log CSV path")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("train-demo", help="train the autoencoder demo and evaluate it")
    p.add_argument("dataset", choices=["wave", "walk"])
    p.add_argument("--mse", type=float, default=1.0, help="MSE mixture weight")
    p.add_argument("--dsl", type=float, default=128.0, help="DSL mixture weight")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="demo_out", help="output directory")
    p.add_argument("--batches", type=int, default=2000)
    p.add_argument("--count", type=int, default=2048, help="generated dataset size")
    p.set_defaults(func=_cmd_train_demo)

    p = sub.add_parser("bench", help="scaling benchmark over random tensor pairs")
    p.add_argument(
        "--kinds",
        type=_comma_names,
        default=("dsl", "mse", "exact-sign", "persistence-wasserstein", "correlation-distance"),
    )
    p.add_argument("--ranks", type=_comma_ints, default=(1,))
    p.add_argument("--sizes", type=_comma_ints, default=(256, 512, 1024, 2048))
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--budget", type=float, default=1.0, help="per-call time budget in seconds")
    p.add_argument("--csv", metavar="PATH", help="write records here instead of stdout")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ShapeError, AxisError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
