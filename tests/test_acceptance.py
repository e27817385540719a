"""Acceptance criteria.

Each test covers one numbered criterion and prints a single pass/fail line
(run with -s to see them). The demonstration criteria train the wave
autoencoders, so the module takes several minutes; deselect it with
-m "not acceptance" during development.
"""

import itertools
import time
from dataclasses import replace

import numpy as np
import pytest

from dsltopo import (
    CalibrationConfig,
    DslConfig,
    InfiniteDeathPolicy,
    LossKind,
    PersistenceDiagram,
    Reduction,
    SignKind,
    benchmark_losses,
    demo_preset,
    directional_agreement,
    dsl_forward,
    dsl_gradient,
    exact_sign_mismatch_count,
    find_sharpness,
    generate_wave_dataset,
    held_out_split,
    sublevel_persistence_0d,
    train_autoencoder,
    wasserstein_distance,
)
from tests._oracles import brute_force_wasserstein, fd_gradient, fd_scalar, threshold_label_diagram

pytestmark = pytest.mark.acceptance

# both demonstration criteria read the same six training runs at the
# reduced 2000-batch budget; only the agreement criterion carries a
# wall-clock bound
DEMO_BATCHES = 2000
SEEDS = (0, 1, 2)


def _report(number, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"\n[{tag}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def _random_shape(rng):
    rank = int(rng.integers(1, 4))
    if rank == 1:
        return (int(rng.integers(2, 4097)),)
    if rank == 2:
        return (int(rng.integers(2, 65)), int(rng.integers(2, 65)))
    return tuple(int(rng.integers(2, 17)) for _ in range(3))


def test_criterion_1_exact_oracle_convergence():
    rng = np.random.default_rng(1001)
    cfg = DslConfig(sharpness=1e6, match_exact_units=True, scale_by_comparisons=False)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        shape = _random_shape(rng)
        x = rng.integers(-8, 9, size=shape).astype(np.float64)
        y = rng.integers(-8, 9, size=shape).astype(np.float64)
        gap = abs(dsl_forward(x, y, cfg) - exact_sign_mismatch_count(x, y))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst < 1e-3 and elapsed < 30.0,
        f"sharp-limit loss vs exact count on 1000 integer pairs, "
        f"worst gap {worst:.3g} (< 1e-3), {elapsed:.1f}s (< 30s)",
    )


def _fd_check(x, y, cfg, h=1e-6):
    """Worst relative FD error over every partial of both arrays and s.

    Entries adjacent to a comparison sitting within 1e-8 of the absolute
    value's kink are excluded: the loss is not differentiable there.
    """
    grad_y, grad_x, grad_s = dsl_gradient(x, y, cfg)

    keep_x = np.ones(x.shape, dtype=bool)
    keep_y = np.ones(y.shape, dtype=bool)
    s = cfg.sharpness
    for ax in range(x.ndim):
        dx = np.diff(x, axis=ax)
        dy = np.diff(y, axis=ax)
        mism = np.tanh(s * dx) - np.tanh(s * dy)
        if cfg.sign_kind is SignKind.SOFTSIGN:
            zx, zy = s * dx, s * dy
            mism = zx / (1.0 + np.abs(zx)) - zy / (1.0 + np.abs(zy))
        near = np.abs(mism) < 1e-8
        if not near.any():
            continue
        lead = [slice(None)] * x.ndim
        trail = [slice(None)] * x.ndim
        lead[ax] = slice(None, -1)
        trail[ax] = slice(1, None)
        for keep in (keep_x, keep_y):
            keep[tuple(lead)] &= ~near
            keep[tuple(trail)] &= ~near

    worst = 0.0
    for analytic, fd, keep in (
        (grad_x, fd_gradient(lambda a: dsl_forward(a, y, cfg), x, h), keep_x),
        (grad_y, fd_gradient(lambda a: dsl_forward(x, a, cfg), y, h), keep_y),
    ):
        denom = np.maximum(np.abs(analytic), np.abs(fd))
        err = np.zeros_like(denom)
        mask = denom > 0
        err[mask] = np.abs(fd - analytic)[mask] / denom[mask]
        if keep.any():
            worst = max(worst, float(err[keep].max()))
    fd_s = fd_scalar(lambda v: dsl_forward(x, y, replace(cfg, sharpness=v)), s, h)
    denom = max(abs(grad_s), abs(fd_s))
    if denom > 0:
        worst = max(worst, abs(fd_s - grad_s) / denom)
    return worst


def test_criterion_2_gradient_correctness():
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    worst = 0.0
    shapes = [(48,), (8, 8), (4, 4, 4)]
    for i in range(100):
        shape = shapes[i % 3]
        if i % 2 == 0:
            # bounded data keeps tanh out of its saturated tail, where the
            # loss difference falls below what h=1e-6 differences resolve
            cfg = DslConfig(sharpness=2.0, sign_kind=SignKind.TANH)
            x = rng.uniform(-1.25, 1.25, size=shape)
            y = rng.uniform(-1.25, 1.25, size=shape)
        else:
            cfg = DslConfig(sharpness=4.0, sign_kind=SignKind.SOFTSIGN,
                            match_exact_units=True, scale_by_comparisons=False)
            x = rng.normal(size=shape)
            y = rng.normal(size=shape)
        worst = max(worst, _fd_check(x, y, cfg))
    elapsed = time.perf_counter() - start
    _report(
        2,
        worst < 1e-4 and elapsed < 60.0,
        f"analytic vs central differences on 100 pairs, worst relative "
        f"error {worst:.3g} (< 1e-4), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_3_persistence_oracle_equivalence():
    rng = np.random.default_rng(1003)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(500):
        grid = rng.integers(0, 5, size=(4, 4)).astype(np.float64)
        got = sorted(sublevel_persistence_0d(grid).points)
        want = sorted(threshold_label_diagram(grid))
        mismatches += got != want
    elapsed = time.perf_counter() - start
    _report(
        3,
        mismatches == 0 and elapsed < 10.0,
        f"union-find vs exhaustive threshold labeling on 500 4x4 grids, "
        f"{mismatches} mismatches, {elapsed:.1f}s (< 10s)",
    )


def test_criterion_4_wasserstein_brute_force():
    rng = np.random.default_rng(1004)
    start = time.perf_counter()

    def random_diagram():
        pts = []
        for _ in range(rng.integers(0, 5)):
            b = rng.uniform(-2.0, 2.0)
            pts.append((b, b + rng.uniform(1e-3, 3.0)))
        return PersistenceDiagram(tuple(pts))

    worst_gap = 0.0
    for _ in range(200):
        d1, d2 = random_diagram(), random_diagram()
        for p in (1.0, 2.0):
            got = wasserstein_distance(d1, d2, p=p,
                                       infinite_death_policy=InfiniteDeathPolicy.REJECT)
            want = brute_force_wasserstein(d1.points, d2.points, p)
            worst_gap = max(worst_gap, abs(got - want))

    worst_axiom = 0.0
    for _ in range(60):
        a, b, c = random_diagram(), random_diagram(), random_diagram()
        for p in (1.0, 2.0):
            dist = lambda u, v: wasserstein_distance(
                u, v, p=p, infinite_death_policy=InfiniteDeathPolicy.REJECT)
            worst_axiom = max(worst_axiom, abs(dist(a, b) - dist(b, a)))
            worst_axiom = max(worst_axiom, dist(a, c) - (dist(a, b) + dist(b, c)))
            worst_axiom = max(worst_axiom, dist(a, a))
    elapsed = time.perf_counter() - start
    _report(
        4,
        worst_gap < 1e-9 and worst_axiom < 1e-9 and elapsed < 10.0,
        f"matching enumeration gap {worst_gap:.3g} and metric-axiom "
        f"violation {worst_axiom:.3g} (both < 1e-9) over 200 pairs, "
        f"{elapsed:.1f}s (< 10s)",
    )


def _train_demo_models(total_batches):
    """Train mixture and MSE-only wave models for each seed.

    Returns per-variant mean directional agreement, mean persistence
    Wasserstein distance on the held-out examples, and the training wall
    time in seconds.
    """
    spec, base = demo_preset("wave")
    results = {"mixture": {"da": [], "w2": []}, "mse": {"da": [], "w2": []}}
    train_time = 0.0
    for seed in SEEDS:
        data = generate_wave_dataset(2048, seed=seed)
        train, held = held_out_split(data, 0.1)
        held_diagrams = [sublevel_persistence_0d(row) for row in held]
        for variant, dsl_weight in (("mixture", 128.0), ("mse", 0.0)):
            cfg = replace(base, mse_weight=1.0, dsl_weight=dsl_weight,
                          seed=seed, total_batches=total_batches)
            start = time.perf_counter()
            model, _ = train_autoencoder(train, spec, cfg)
            train_time += time.perf_counter() - start
            recon = model.reconstruct(held)
            da = np.mean([directional_agreement(held[i], recon[i])
                          for i in range(held.shape[0])])
            w2 = np.mean([
                wasserstein_distance(
                    held_diagrams[i], sublevel_persistence_0d(recon[i]), p=2.0,
                    infinite_death_policy=InfiniteDeathPolicy.CAP_AT_GLOBAL_MAX)
                for i in range(held.shape[0])
            ])
            results[variant]["da"].append(da)
            results[variant]["w2"].append(w2)
    summary = {
        variant: {key: float(np.mean(vals)) for key, vals in metrics.items()}
        for variant, metrics in results.items()
    }
    summary["train_seconds"] = train_time
    summary["held_count"] = held.shape[0]  # the same split size for every seed
    return summary


@pytest.fixture(scope="module")
def demo_runs():
    return _train_demo_models(DEMO_BATCHES)


def test_criterion_5_directional_agreement(demo_runs):
    mix = demo_runs["mixture"]["da"]
    mse = demo_runs["mse"]["da"]
    seconds = demo_runs["train_seconds"]
    _report(
        5,
        mix > mse and seconds < 900.0,
        f"mean held-out directional agreement over 3 seeds at "
        f"{DEMO_BATCHES} batches: mixture {mix:.4f} > mse-only "
        f"{mse:.4f}, training {seconds:.0f}s (< 900s)",
    )


def test_criterion_6_topological_metric(demo_runs):
    mix = demo_runs["mixture"]["w2"]
    mse = demo_runs["mse"]["w2"]
    _report(
        6,
        mix <= mse,
        f"mean held-out order-0 persistence W2 (p=2, cap) over 3 seeds x "
        f"{demo_runs['held_count']} examples at {DEMO_BATCHES} "
        f"batches: mixture {mix:.4f} <= mse-only {mse:.4f}",
    )


def test_criterion_7_scaling():
    # The DSL engine works in cache-sized blocks, so its cost per element
    # does not change with size: on a 2-vCPU VM (4 MiB L2) the medians are
    # about 2, 4 and 8 ms at 2**18, 2**19 and 2**20. Two timing hazards
    # remain: transient scheduler noise (countered with a generous
    # repetition count) and the machine ramping to steady state during the
    # first ascending ladder, which deflates the larger sizes' times relative
    # to the smaller ones (countered by discarding a full warmup pass). The
    # diagram distance needs neither: it takes about 0.7 s at 4096 elements
    # and 4-6 s at 8192, so it first exceeds the 1 s budget at 8192.
    dsl_ladder = dict(
        kinds=[LossKind.DSL],
        ranks=[1],
        sizes=[4096, 8192, 2**18, 2**19, 2**20],
        repetitions=25,
        time_budget_seconds=1.0,
        seed=7,
    )
    benchmark_losses(**dsl_ladder)
    records = benchmark_losses(**dsl_ladder)
    records += benchmark_losses(
        kinds=[LossKind.PERSISTENCE_WASSERSTEIN],
        ranks=[1],
        sizes=[4096, 8192, 2**18, 2**19, 2**20],
        repetitions=5,
        time_budget_seconds=1.0,
        seed=7,
    )
    times = {
        (r.loss_kind, r.elements): r.wall_time_seconds for r in records
    }

    def first_exceeding(kind):
        sizes = sorted(e for k, e in times if k is kind)
        for e in sizes:
            if times[(kind, e)] > 1.0:
                return e
        return None

    dsl_large = times.get((LossKind.DSL, 2**20))
    ratios = []
    for n in (2**19, 2**20):
        lo = times.get((LossKind.DSL, n // 2))
        hi = times.get((LossKind.DSL, n))
        if lo and hi:
            ratios.append(hi / lo)
    pw_stop = first_exceeding(LossKind.PERSISTENCE_WASSERSTEIN)
    dsl_stop = first_exceeding(LossKind.DSL)
    ratios_ok = len(ratios) == 2 and all(1.5 <= r <= 3.0 for r in ratios)
    gap_ok = pw_stop is not None and (dsl_stop is None or pw_stop < dsl_stop)
    large_txt = "not reached" if dsl_large is None else f"{dsl_large:.3f}s"
    _report(
        7,
        dsl_large is not None and dsl_large < 1.0 and ratios_ok and gap_ok,
        f"DSL at 2^20 elements {large_txt} (< 1s), doubling ratios "
        f"{[round(r, 2) for r in ratios]} in [1.5, 3.0], diagram distance "
        f"over budget at {pw_stop} elements vs DSL "
        f"{dsl_stop if dsl_stop else 'never within tested sizes'}",
    )


def test_criterion_8_calibration_self_consistency():
    ref_cfg = DslConfig(sharpness=16.0, skip_batch_axis=True,
                        reduction=Reduction.MEAN)
    cal_cfg = CalibrationConfig(
        max_steps=5000,
        threshold=1e-10,
        step_size=0.5,
        batch_size=32,
        initial_sharpness=4.0,
        seed=0,
    )

    def reference(b1, b2):
        return dsl_forward(b1, b2, ref_cfg)

    ok = True
    details = []
    for seed in SEEDS:
        rng = np.random.default_rng(2000 + seed)
        dataset = rng.normal(scale=0.05, size=(512, 48))
        held_a = rng.normal(scale=0.05, size=(256, 48))
        held_b = rng.normal(scale=0.05, size=(256, 48))
        s, _, steps = find_sharpness(
            dataset, replace(cal_cfg, seed=seed), reference_fn=reference)
        got = dsl_forward(held_a, held_b, replace(ref_cfg, sharpness=s))
        want = dsl_forward(held_a, held_b, ref_cfg)
        gap = abs(got - want)
        ok = ok and gap < 1e-4 and steps < 5000
        details.append(f"seed {seed}: s {s:.3f}, {steps} steps, held-out gap {gap:.2g}")
    _report(8, ok, "recovered reference sharpness 16; " + "; ".join(details))
