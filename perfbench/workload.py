"""One dsltopo benchmark workload, run in a process of its own.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1

run.py starts this script once per workload. The script builds the
workload's inputs from the seed, runs whole rounds of its operations for
the given seconds, checks the outputs, and prints one JSON line:
attempted and failed operations, the problems its checks found, the
measured metrics, and the monotonic time at which set-up ended. With
--trace 1 it records spans and reports the per-layer metrics instead of
the end-to-end ones.
"""

from __future__ import annotations

import os

# BLAS gets one thread per CPU this process may run on; the workload itself
# starts no threads. Set before numpy is imported.
_THREADS = str(len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = _THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import replace  # noqa: E402
from statistics import median, quantiles  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
# the program is always the checkout's own source tree
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import dsltopo  # noqa: E402

import checks  # noqa: E402
from spans import Tracer  # noqa: E402

WAVE_COUNT = 2048  # generated waves; the trailing 10% are held out
TRAIN_BATCHES = 16  # batches per train_autoencoder call, one round
DSL_CASES = {
    "r1_2p18": (2**18,),
    "r1_2p20": (2**20,),
    "r1_2p21": (2**21,),
    "r2_1024": (1024, 1024),
    "r3_128": (128, 128, 128),
}
DSL_FUNCTIONS = ("forward", "gradient", "exact")
WALK_COUNT = 1024
HELD_WALKS = 256
REFERENCE_SHARPNESS = 16.0
CALIBRATION_STEPS = 100
WORKLOADS = ("wave_train", "wave_eval", "dsl_large", "calibrate")

END_TO_END = {"setup_s": "s", "peak_rss_mib": "MiB", "ops_per_s": "op/s"}

# per-layer metric -> (layer, statistic); divided by operations attempted
SPAN_METRICS = {
    "autoencoder.train_s": ("autoencoder.train", "s"),
    "autoencoder.train_self_s": ("autoencoder.train", "self_s"),
    "loss.evaluate_s": ("loss.evaluate", "s"),
    "loss.evaluate_calls": ("loss.evaluate", "calls"),
    "loss.sign_like_s": ("loss.sign_like", "s"),
    "autoencoder.evaluate_s": ("autoencoder.evaluate", "s"),
    "autoencoder.evaluate_self_s": ("autoencoder.evaluate", "self_s"),
    "autoencoder.agreement_s": ("autoencoder.agreement", "s"),
    "topology.persistence_s": ("topology.persistence", "s"),
    "topology.persistence_calls": ("topology.persistence", "calls"),
    "topology.diagram_points": ("topology.persistence", "count"),
    "topology.wasserstein_s": ("topology.wasserstein", "s"),
    "topology.wasserstein_self_s": ("topology.wasserstein", "self_s"),
    "topology.assignment_s": ("topology.assignment", "s"),
    "topology.assignment_cells": ("topology.assignment", "count"),
    "topology.corrdist_s": ("topology.corrdist", "s"),
    "topology.corrdist_pairs": ("topology.corrdist", "count"),
    "calibration.find_sharpness_s": ("calibration.find_sharpness", "s"),
    "calibration.self_s": ("calibration.find_sharpness", "self_s"),
    "calibration.reference_s": ("calibration.reference", "s"),
}
STAT_UNITS = {"s": "s/op", "self_s": "s/op", "calls": "count/op", "count": "count/op"}


def per_layer_units() -> dict[str, str]:
    units = {name: STAT_UNITS[stat] for name, (_, stat) in SPAN_METRICS.items()}
    units["autoencoder.train_peak_alloc_mib"] = "MiB"
    for fn in DSL_FUNCTIONS:
        units[f"loss.{fn}_melem_per_s"] = "Melem/s"
        for case in DSL_CASES:
            units[f"loss.{fn}_ms.{case}"] = "ms"
            units[f"loss.{fn}_peak_mib.{case}"] = "MiB"
    return units


def _cells(args, result) -> int:
    rows, cols = args[0].shape
    return rows * cols


def _pairs(args, result) -> int:
    n = args[0].size  # evaluation passes no feature axis: one location per entry
    return n * (n - 1) // 2


# names through which one layer calls the next: (module, name, layer, count)
BINDINGS = [
    ("dsltopo.autoencoder", "_evaluate", "loss.evaluate", None),
    ("dsltopo.calibration", "_evaluate", "loss.evaluate", None),
    ("dsltopo.autoencoder", "sign_like", "loss.sign_like", None),
    ("dsltopo.autoencoder", "directional_agreement", "autoencoder.agreement", None),
    ("dsltopo.autoencoder", "sublevel_persistence_0d", "topology.persistence", lambda a, d: len(d)),
    ("dsltopo.autoencoder", "wasserstein_distance", "topology.wasserstein", None),
    ("dsltopo.topology", "min_cost_assignment", "topology.assignment", _cells),
    ("dsltopo.topology", "linear_sum_assignment", "topology.assignment", _cells),
    ("dsltopo.autoencoder", "pairwise_correlation_distance", "topology.corrdist", _pairs),
]


def derive_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def alloc_peak_mib(fn) -> float:
    """tracemalloc peak of one call, in MiB."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


class WaveTrain:
    """train_autoencoder on the wave preset: one operation is one batch."""

    def __init__(self, seed: int):
        data = dsltopo.generate_wave_dataset(WAVE_COUNT, seed)
        self.train, self.held = dsltopo.held_out_split(data)
        self.spec, cfg = dsltopo.demo_preset("wave")
        self.cfg = replace(cfg, total_batches=TRAIN_BATCHES, seed=seed)
        self.logs = []
        self.model = None

    def units(self):
        return [("autoencoder.train", TRAIN_BATCHES, self._train)]

    def _train(self):
        self.model, log = dsltopo.train_autoencoder(self.train, self.spec, self.cfg)
        self.logs.append(log)

    def extras(self, samples) -> dict[str, float]:
        short = replace(self.cfg, total_batches=2)
        peak = alloc_peak_mib(lambda: dsltopo.train_autoencoder(self.train, self.spec, short))
        return {"autoencoder.train_peak_alloc_mib": peak}

    def check(self) -> list[str]:
        if not self.logs:
            return ["no training run finished"]
        if len(self.logs) < 2:
            self._train()
        cfg = self.cfg
        problems = checks.check_training_log(self.logs[0], cfg.mse_weight, cfg.dsl_weight)
        for log in self.logs[1:]:
            problems += checks.check_logs_equal(self.logs[0], log)
        recon = self.model.reconstruct(self.held)
        got = dsltopo.dsl_forward(self.held, recon, cfg.dsl_config)
        want = checks.plain_dsl(self.held, recon, cfg.dsl_config.sharpness, skip_batch_axis=True)
        return problems + checks.check_forward("held-out", got, want)


class WaveEval:
    """evaluate_reconstructions against an untrained wave model: one operation is one example."""

    def __init__(self, seed: int):
        data = dsltopo.generate_wave_dataset(WAVE_COUNT, seed)
        _, self.held = dsltopo.held_out_split(data)
        model = dsltopo.initialize_model(dsltopo.WAVE_MODEL, seed)
        self.recon = model.reconstruct(self.held)
        self.scored = []  # (row index, scores)

    def units(self):
        return [("autoencoder.evaluate", 1, self._score_next)]

    def _score_next(self):
        i = len(self.scored) % len(self.held)
        scores = dsltopo.evaluate_reconstructions(self.held[i : i + 1], self.recon[i : i + 1])
        self.scored.append((i, scores[0]))

    def extras(self, samples) -> dict[str, float]:
        return {}

    def check(self) -> list[str]:
        problems = []
        for k, (i, score) in enumerate(self.scored):
            x, y = self.held[i], self.recon[i]
            problems += checks.check_agreement(score.directional_agreement, x, y)
            d1 = dsltopo.sublevel_persistence_0d(x).as_array()
            d2 = dsltopo.sublevel_persistence_0d(y).as_array()
            problems += checks.check_diagram(d1, x) + checks.check_diagram(d2, y)
            problems += checks.check_wasserstein(score.persistence_wasserstein, d1, d2)
            explicit = k % 4 == 0  # the explicit all-pairs check on a quarter of them
            problems += checks.check_corrdist(
                score.correlation_distance, *((x, y) if explicit else ())
            )
        return problems if self.scored else ["no example was scored"]


class DslLarge:
    """dsl_forward, dsl_gradient and the exact count at five sizes: one operation is one call."""

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.pairs = {
            case: (rng.standard_normal(shape), rng.standard_normal(shape))
            for case, shape in DSL_CASES.items()
        }
        self.cfg = dsltopo.DslConfig()
        self.values = {}  # (function, case) -> scalar results of the timed calls

    def _call(self, fn: str, case: str):
        x, y = self.pairs[case]
        if fn == "forward":
            return dsltopo.dsl_forward(x, y, self.cfg)
        if fn == "gradient":
            return dsltopo.dsl_gradient(x, y, self.cfg)
        return dsltopo.exact_sign_mismatch_count(x, y)

    def _timed(self, fn: str, case: str):
        def unit():
            out = self._call(fn, case)
            self.values.setdefault((fn, case), []).append(out[2] if fn == "gradient" else out)

        return unit

    def units(self):
        # sizes interleave within every round, so no size runs on a cache
        # state that only its own earlier calls left behind
        return [
            (f"loss.{fn}.{case}", 1, self._timed(fn, case))
            for case in DSL_CASES
            for fn in DSL_FUNCTIONS
        ]

    def extras(self, samples) -> dict[str, float]:
        out = {}
        for fn in DSL_FUNCTIONS:
            elements = 0
            seconds = 0.0
            for case, shape in DSL_CASES.items():
                times = samples.get(f"loss.{fn}.{case}")
                if times:
                    out[f"loss.{fn}_ms.{case}"] = median(times) * 1e3
                    elements += int(np.prod(shape))
                    seconds += median(times)
                out[f"loss.{fn}_peak_mib.{case}"] = alloc_peak_mib(lambda: self._call(fn, case))
            if seconds:
                out[f"loss.{fn}_melem_per_s"] = elements / seconds / 1e6
        return out

    def check(self) -> list[str]:
        problems = []
        s = self.cfg.sharpness
        for case, (x, y) in self.pairs.items():
            value = self._call("forward", case)
            problems += checks.check_forward(case, value, checks.plain_dsl(x, y, s, skip_batch_axis=False))
            problems += checks.check_symmetric(value, dsltopo.dsl_forward(y, x, self.cfg))
            grad_y, grad_x, grad_s = self._call("gradient", case)
            problems += checks.check_gradient(grad_y, grad_x, grad_s, x, y, s)
            del grad_y, grad_x
            count = self._call("exact", case)
            problems += checks.check_exact_count(count, x, y)
            for fn, first in (("forward", value), ("gradient", grad_s), ("exact", count)):
                timed = self.values.get((fn, case), [])
                problems += checks.check_repeats(f"{fn} {case}", [first] + timed)
        return problems


class Calibrate:
    """find_sharpness on the walk dataset for a fixed number of steps: one operation is one calibration."""

    def __init__(self, seed: int):
        self.walks = dsltopo.generate_walk_dataset(WALK_COUNT, seed=derive_seed(seed, 0))
        self.held_a = dsltopo.generate_walk_dataset(HELD_WALKS, seed=derive_seed(seed, 1))
        self.held_b = dsltopo.generate_walk_dataset(HELD_WALKS, seed=derive_seed(seed, 2))
        self.ref_cfg = dsltopo.DslConfig(
            sharpness=REFERENCE_SHARPNESS, skip_batch_axis=True, reduction=dsltopo.Reduction.MEAN
        )
        # threshold is far below any reachable gap, so every run takes all its steps
        self.cal_cfg = dsltopo.CalibrationConfig(
            max_steps=CALIBRATION_STEPS,
            threshold=1e-300,
            step_size=4.0,
            batch_size=32,
            initial_sharpness=8.0,
        )
        self.seed_base = derive_seed(seed, 3)
        self.reference = self._reference
        self.found = []  # (sharpness, steps taken)

    def _reference(self, b1, b2):
        return dsltopo.dsl_forward(b1, b2, self.ref_cfg)

    def units(self):
        return [("calibration.find_sharpness", 1, self._calibrate_next)]

    def _calibrate_next(self):
        cfg = replace(self.cal_cfg, seed=self.seed_base + len(self.found))
        s, _, steps = dsltopo.find_sharpness(self.walks, cfg, reference_fn=self.reference)
        self.found.append((s, steps))

    def extras(self, samples) -> dict[str, float]:
        return {}

    def check(self) -> list[str]:
        problems = []
        want = dsltopo.dsl_forward(self.held_a, self.held_b, self.ref_cfg)
        for s, steps in self.found:
            got = dsltopo.dsl_forward(self.held_a, self.held_b, replace(self.ref_cfg, sharpness=s))
            problems += checks.check_calibration(s, REFERENCE_SHARPNESS, got, want)
            if steps != CALIBRATION_STEPS:
                problems.append(f"calibration stopped after {steps} of {CALIBRATION_STEPS} steps")
        return problems if self.found else ["no calibration finished"]


def run_rounds(workload, seconds: float, tracer) -> tuple[int, int, dict[str, list[float]]]:
    """Whole rounds of the workload's units until `seconds` have passed."""
    attempted = failed = 0
    samples: dict[str, list[float]] = {}
    units = workload.units()
    deadline = time.perf_counter() + seconds
    while True:
        for layer, ops, fn in units:
            attempted += ops
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    fn()
                else:
                    with tracer.span(layer):
                        fn()
            except Exception:  # an operation that raises counts as failed; the run goes on
                if not failed:
                    traceback.print_exc()
                failed += ops
                continue
            samples.setdefault(layer, []).append(time.perf_counter() - t0)
        if time.perf_counter() >= deadline:
            return attempted, failed, samples


def lower_quartile(times: list[float]) -> float:
    return quantiles(times, n=4)[0] if len(times) > 1 else times[0]


def ops_per_second(units, samples) -> float:
    """Operations of one round over the sum of each unit's lower-quartile time.

    Other guests on the host slow every operation by up to 1.8x for
    seconds at a time, in spells that cover a different share of each
    run. The median flips between the fast and the slow mode from run to
    run; the lower quartile stays in the fast one while a quarter of the
    run is undisturbed.
    """
    ops = sum(n for layer, n, _ in units if samples.get(layer))
    seconds = sum(lower_quartile(samples[layer]) for layer, _, _ in units if samples.get(layer))
    return ops / seconds if seconds else 0.0


def summary(samples) -> dict[str, dict[str, float]]:
    out = {}
    for layer, times in samples.items():
        q = quantiles(times, n=4) if len(times) > 1 else [times[0]] * 3
        out[layer] = {"n": len(times), "q1_s": q[0], "median_s": median(times), "q3_s": q[2]}
    return out


def layer_metrics(tracer, attempted: int, extras: dict[str, float]) -> dict[str, float]:
    totals = tracer.totals()
    values = {}
    for name, (layer, stat) in SPAN_METRICS.items():
        spent = totals.get(layer, {}).get(stat, 0)
        values[name] = spent / attempted if attempted else 0.0
    values.update(extras)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.abspath(dsltopo.__file__).startswith(SRC + os.sep):
        sys.exit(f"dsltopo was imported from {dsltopo.__file__}, not from {SRC}")

    workload = {"wave_train": WaveTrain, "wave_eval": WaveEval, "dsl_large": DslLarge, "calibrate": Calibrate}[
        args.workload
    ](args.seed)
    setup_end = time.monotonic()

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(BINDINGS)
        if isinstance(workload, Calibrate):
            workload.reference = tracer.wrap(workload.reference, "calibration.reference")
    attempted, failed, samples = run_rounds(workload, args.seconds, tracer)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rate = ops_per_second(workload.units(), samples)

    os.makedirs(OUT, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    if tracer is None:
        values = {"peak_rss_mib": peak_rss_mib, "ops_per_s": rate}  # run.py adds setup_s
        units = {name: unit for name, unit in END_TO_END.items() if name in values}
    else:
        tracer.restore()
        tracer.write(os.path.join(OUT, f"{args.workload}-spans.json"), **record)
        values = layer_metrics(tracer, attempted, workload.extras(samples))
        units = per_layer_units()
        record["untraced"] = tracer.untraced
        record["traced_ops_per_s"] = rate
    # a metric this workload does not exercise reads 0
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()}
    problems = workload.check()
    record.update(
        attempted=attempted,
        failed=failed,
        problems=problems[:20],
        problem_count=len(problems),
        metrics=metrics,
        samples=summary(samples),
        setup_end_monotonic=setup_end,
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
