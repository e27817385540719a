"""Scaling benchmark comparing the sign losses with the topological oracles.

For each requested (kind, rank, size) a deterministic random tensor pair is
timed over several repetitions; once a kind's median time exceeds the budget
its larger sizes are skipped, mirroring a time-per-example cutoff plot.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .exceptions import ConfigError
from .loss import DslConfig, dsl_forward, exact_sign_mismatch_count
from .topology import (
    MEMORY_LIMIT_BYTES,
    InfiniteDeathPolicy,
    pairwise_correlation_distance,
    sublevel_persistence_0d,
    wasserstein_distance,
)


class LossKind(Enum):
    DSL = "dsl"
    MSE = "mse"
    EXACT_SIGN = "exact-sign"
    PERSISTENCE_WASSERSTEIN = "persistence-wasserstein"
    CORRELATION_DISTANCE = "correlation-distance"


@dataclass(frozen=True)
class BenchRecord:
    loss_kind: LossKind
    rank: int
    elements: int
    wall_time_seconds: float
    repetitions: int
    peak_alloc_bytes: int | None = None


def _measure(kind: LossKind, x: np.ndarray, y: np.ndarray) -> float:
    if kind is LossKind.DSL:
        return dsl_forward(x, y, DslConfig())
    if kind is LossKind.MSE:
        return float(np.mean((x - y) ** 2))
    if kind is LossKind.EXACT_SIGN:
        return exact_sign_mismatch_count(x, y)
    if kind is LossKind.PERSISTENCE_WASSERSTEIN:
        return wasserstein_distance(
            sublevel_persistence_0d(x),
            sublevel_persistence_0d(y),
            p=2.0,
            infinite_death_policy=InfiniteDeathPolicy.CAP_AT_GLOBAL_MAX,
        )
    if kind is LossKind.CORRELATION_DISTANCE:
        return pairwise_correlation_distance(x, y)
    raise ConfigError(f"unknown loss kind {kind!r}")


def _estimated_bytes(kind: LossKind, elements: int, rank: int) -> int:
    # rough peak-footprint bounds; the quadratic kinds build pairwise structures
    linear = 8 * elements
    if kind is LossKind.PERSISTENCE_WASSERSTEIN:
        # diagram can hold ~elements/3 points; the cost matrix is quadratic in that
        side = 2 * (elements // 3 + 1)
        return 8 * side * side + 60 * elements * rank
    if kind is LossKind.CORRELATION_DISTANCE:
        # not a memory estimate (the blocked distance needs memory linear in
        # the elements); it keeps the ladder at the sizes it always ran,
        # past which the quadratic time grows too long
        return 8 * 2 * elements * elements
    return 12 * linear


def _coerce_kinds(kinds) -> list[LossKind]:
    requested = []
    for k in kinds:
        if isinstance(k, LossKind):
            requested.append(k)
            continue
        try:
            requested.append(LossKind(str(k)))
        except ValueError:
            names = ", ".join(m.value for m in LossKind)
            raise ConfigError(f"unknown loss kind {k!r}; expected one of {names}") from None
    # canonical enum order, deduplicated
    return [k for k in LossKind if k in requested]


def benchmark_losses(
    kinds,
    ranks,
    sizes,
    repetitions: int = 5,
    time_budget_seconds: float = 1.0,
    seed: int = 0,
) -> list[BenchRecord]:
    """Median wall times for each kind over (size,)*rank tensor pairs.

    Sizes must be strictly ascending; ranks are limited to 1..3 so every
    kind can run on the same inputs. Inputs depend only on (seed, rank,
    size), so all kinds see identical tensors. One warmup call precedes the
    timed repetitions; peak allocation is taken from one extra traced call.
    A (kind, rank) stops producing records after its median exceeds the
    budget or its estimated footprint would be unreasonable.
    """
    kind_list = _coerce_kinds(kinds)
    if not kind_list:
        raise ConfigError("no loss kinds requested")
    rank_list = sorted(set(int(r) for r in ranks))
    if not rank_list:
        raise ConfigError("no ranks requested")
    if any(r < 1 or r > 3 for r in rank_list):
        raise ConfigError(f"ranks must lie in 1..3, got {rank_list}")
    size_list = [int(s) for s in sizes]
    if not size_list:
        raise ConfigError("no sizes requested")
    if any(s < 2 for s in size_list):
        raise ConfigError(f"sizes must be at least 2, got {size_list}")
    if any(b <= a for a, b in zip(size_list, size_list[1:])):
        raise ConfigError(f"sizes must be strictly ascending, got {size_list}")
    if repetitions < 3:
        raise ConfigError(f"repetitions must be at least 3, got {repetitions}")
    if not (np.isfinite(time_budget_seconds) and time_budget_seconds > 0):
        raise ConfigError(f"time budget must be positive, got {time_budget_seconds}")

    records = []
    for kind in kind_list:
        for rank in rank_list:
            for size in size_list:
                elements = size**rank
                if _estimated_bytes(kind, elements, rank) > MEMORY_LIMIT_BYTES:
                    break  # larger sizes only grow; stop this (kind, rank)
                rng = np.random.default_rng(np.random.SeedSequence([seed, rank, size]))
                x = rng.standard_normal((size,) * rank)
                y = rng.standard_normal((size,) * rank)

                _measure(kind, x, y)  # warmup
                times = []
                for _ in range(repetitions):
                    start = time.perf_counter()
                    _measure(kind, x, y)
                    times.append(time.perf_counter() - start)
                median = statistics.median(times)

                tracemalloc.start()
                try:
                    _measure(kind, x, y)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

                records.append(
                    BenchRecord(
                        loss_kind=kind,
                        rank=rank,
                        elements=elements,
                        wall_time_seconds=median,
                        repetitions=repetitions,
                        peak_alloc_bytes=int(peak),
                    )
                )
                if median > time_budget_seconds:
                    break  # budget exceeded; skip larger sizes of this (kind, rank)
    return records


def format_bench_csv(records) -> str:
    """The records as CSV text, one line per record under a header line."""
    lines = ["loss_kind,rank,elements,wall_time_seconds,repetitions,peak_alloc_bytes\n"]
    for r in records:
        peak = "" if r.peak_alloc_bytes is None else str(r.peak_alloc_bytes)
        lines.append(
            f"{r.loss_kind.value},{r.rank},{r.elements},"
            f"{r.wall_time_seconds:.17g},{r.repetitions},{peak}\n"
        )
    return "".join(lines)


def write_bench_csv(records, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_bench_csv(records))
