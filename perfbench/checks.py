"""Correctness checks for the benchmark's outputs.

Each check compares a program output with a value computed here, apart
from dsltopo, or with a property the method must have. A check returns a
list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment

FORWARD_RTOL = 1e-9  # plain-numpy DSL against the program's value
W2_RTOL = 1e-9  # rectangular assignment against the program's W2
CORR_ATOL = 1e-9  # explicit all-pairs Pearson against the program's value
INVARIANCE_RTOL = 1e-12  # gradient identities, relative to the summed magnitudes (rounding leaves ~1e-17)
CALIBRATION_RTOL = 1e-3  # recovered sharpness against the reference
CALIBRATION_GAP = 1e-4  # held-out DSL at the recovered sharpness


def _rel_gap(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def _diffs(a: np.ndarray, axis: int) -> np.ndarray:
    n = a.shape[axis]
    return a.take(range(1, n), axis=axis) - a.take(range(n - 1), axis=axis)


def plain_dsl(x, y, sharpness: float, skip_batch_axis: bool) -> float:
    """Mean |tanh(s*dx) - tanh(s*dy)| over all adjacent pairs, per example.

    Without a batch axis the whole array is one example; with one, the
    per-example means are averaged.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    first = 1 if skip_batch_axis else 0
    n_examples = x.shape[0] if skip_batch_axis else 1
    total = 0.0
    comparisons = 0
    for axis in range(first, x.ndim):
        mismatch = np.abs(np.tanh(sharpness * _diffs(x, axis)) - np.tanh(sharpness * _diffs(y, axis)))
        total += float(mismatch.sum())
        comparisons += mismatch.size // n_examples
    return total / comparisons / n_examples


# --- wave_train --------------------------------------------------------------

def check_training_log(log, mse_weight: float, dsl_weight: float) -> list[str]:
    """Finite terms, total = mse_w*mse + dsl_w*dsl, 0 <= dsl <= 2, falling loss."""
    rows = np.asarray([row[1:] for row in log], dtype=np.float64)
    if rows.shape[0] < 2:
        return ["training log has fewer than two batches"]
    mse, dsl, total = rows[:, 0], rows[:, 1], rows[:, 2]
    if not np.isfinite(rows).all():
        return ["training log holds a non-finite term"]
    problems = []
    mixture = mse_weight * mse + dsl_weight * dsl
    if not np.allclose(total, mixture, rtol=1e-12, atol=0.0):
        worst = int(np.argmax(np.abs(total - mixture)))
        problems.append(f"batch {log[worst][0]}: total {total[worst]!r} != {mixture[worst]!r}")
    if (dsl < 0).any() or (dsl > 2).any():
        problems.append(f"dsl term outside [0, 2]: min {dsl.min()!r}, max {dsl.max()!r}")
    k = max(1, len(total) // 4)
    if not total[-k:].mean() < total[:k].mean():
        problems.append(
            f"loss did not fall: first {k} batches {total[:k].mean()!r}, last {total[-k:].mean()!r}"
        )
    return problems


def check_logs_equal(log_a, log_b) -> list[str]:
    """Two runs with the same seed must log bitwise-equal values."""
    a = np.asarray(log_a, dtype=np.float64)
    b = np.asarray(log_b, dtype=np.float64)
    if a.shape != b.shape or a.tobytes() != b.tobytes():
        return ["two training runs with the same seed logged different values"]
    return []


def check_forward(name: str, got: float, want: float) -> list[str]:
    gap = _rel_gap(got, want)
    if not gap <= FORWARD_RTOL:
        return [f"{name}: DSL {got!r} against plain numpy {want!r} (relative gap {gap:.3g})"]
    return []


# --- wave_eval ---------------------------------------------------------------

def sign_agreement(x, y) -> float:
    """Fraction of adjacent pairs whose differences compare the same way."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    up_x, down_x = x[1:] > x[:-1], x[1:] < x[:-1]
    up_y, down_y = y[1:] > y[:-1], y[1:] < y[:-1]
    same = (up_x == up_y) & (down_x == down_y)
    return int(same.sum()) / same.size


def check_agreement(got: float, x, y) -> list[str]:
    want = sign_agreement(x, y)
    if got != want:
        return [f"directional agreement {got!r} != sign-equality fraction {want!r}"]
    return []


def local_minima(row) -> int:
    """Local minima of a rank-1 row after merging runs of equal values."""
    row = np.asarray(row, dtype=np.float64)
    keep = np.ones(row.size, dtype=bool)
    keep[1:] = row[1:] != row[:-1]
    v = row[keep]
    if v.size == 1:
        return 1
    lower_left = np.concatenate(([True], v[1:] < v[:-1]))
    lower_right = np.concatenate((v[:-1] < v[1:], [True]))
    return int((lower_left & lower_right).sum())


def check_diagram(points, row) -> list[str]:
    """One point per local minimum; the one infinite point is born at the minimum."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    problems = []
    want = local_minima(row)
    if len(points) != want:
        problems.append(f"diagram has {len(points)} points, row has {want} local minima")
    infinite = points[np.isinf(points[:, 1])]
    if len(infinite) != 1:
        problems.append(f"diagram has {len(infinite)} infinite points, not 1")
    elif infinite[0, 0] != float(np.min(row)):
        problems.append(f"infinite point born at {infinite[0, 0]!r}, row minimum is {np.min(row)!r}")
    return problems


def _capped(points1, points2) -> tuple[np.ndarray, np.ndarray]:
    """Both diagrams as (n, 2) arrays, infinite deaths replaced by the
    largest finite coordinate of either diagram."""
    a1 = np.asarray(points1, dtype=np.float64).reshape(-1, 2)
    a2 = np.asarray(points2, dtype=np.float64).reshape(-1, 2)
    both = np.concatenate([a1.ravel(), a2.ravel()])
    if not both.size:
        return a1, a2
    cap = both[np.isfinite(both)].max()
    return np.where(np.isinf(a1), cap, a1), np.where(np.isinf(a2), cap, a2)


def _diagonal_distance(points: np.ndarray) -> np.ndarray:
    return (points[:, 1] - points[:, 0]) / math.sqrt(2.0)


def rectangular_wasserstein(points1, points2, p: float = 2.0) -> float:
    """p-Wasserstein distance by a min(n1,n2) x (n1+n2) assignment.

    Rows are the smaller diagram's points; columns are the larger one's
    points plus one diagonal slot per row. Matching row i to point j costs
    ||a_i - b_j||^p - e_j^p and to a diagonal slot d_i^p, where d and e are
    distances to the diagonal; adding sum(e^p) back charges every column
    point left unmatched for its own slide to the diagonal.
    (Kerber, Morozov and Nigmetov, arXiv:1606.03357.)
    """
    a, b = _capped(points1, points2)
    if len(a) + len(b) == 0:
        return 0.0
    if len(a) > len(b):
        a, b = b, a
    d = _diagonal_distance(a) ** p
    e = _diagonal_distance(b) ** p
    if len(a) == 0:
        return float(e.sum() ** (1.0 / p))
    to_points = np.hypot(a[:, None, 0] - b[None, :, 0], a[:, None, 1] - b[None, :, 1]) ** p - e
    to_diagonal = np.repeat(d[:, None], len(a), axis=1)
    cost = np.hstack([to_points, to_diagonal])
    rows, cols = linear_sum_assignment(cost)
    total = cost[rows, cols].sum() + e.sum()
    return float(max(total, 0.0) ** (1.0 / p))


def check_wasserstein(got: float, points1, points2, p: float = 2.0) -> list[str]:
    """W2 equals the rectangular assignment and stays under the all-to-diagonal bound."""
    problems = []
    want = rectangular_wasserstein(points1, points2, p)
    gap = _rel_gap(got, want)
    if not gap <= W2_RTOL:
        problems.append(f"W2 {got!r} against rectangular assignment {want!r} (relative gap {gap:.3g})")
    a, b = _capped(points1, points2)
    bound = float(((_diagonal_distance(a) ** p).sum() + (_diagonal_distance(b) ** p).sum()) ** (1.0 / p))
    if not got <= bound * (1.0 + W2_RTOL):
        problems.append(f"W2 {got!r} exceeds the all-to-diagonal bound {bound!r}")
    return problems


def pearson_distance(x, y) -> float:
    """1 - Pearson correlation of the |x_i - x_j| and |y_i - y_j|, i < j."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    i, j = np.triu_indices(x.size, k=1)
    dx = np.abs(x[i] - x[j])
    dy = np.abs(y[i] - y[j])
    dx -= dx.mean()
    dy -= dy.mean()
    r = float(dx @ dy) / math.sqrt(float(dx @ dx) * float(dy @ dy))
    return 1.0 - r


def check_corrdist(got: float, x=None, y=None) -> list[str]:
    """In [0, 2]; when the inputs are given, equal to the explicit computation."""
    if not 0.0 <= got <= 2.0:
        return [f"correlation distance {got!r} outside [0, 2]"]
    if x is not None:
        want = pearson_distance(x, y)
        if not abs(got - want) <= CORR_ATOL:
            return [f"correlation distance {got!r} against explicit all-pairs {want!r}"]
    return []


# --- dsl_large ---------------------------------------------------------------

def mismatch_count(x, y) -> float:
    """Sum over axes of 1 per opposite-sign pair and 0.5 per single zero."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    full = 0
    half = 0
    for axis in range(x.ndim):
        dx = _diffs(x, axis)
        dy = _diffs(y, axis)
        full += int(((dx > 0) & (dy < 0)).sum() + ((dx < 0) & (dy > 0)).sum())
        half += int(((dx == 0) != (dy == 0)).sum())
    return full + half / 2


def check_exact_count(got: float, x, y) -> list[str]:
    want = mismatch_count(x, y)
    if got != want:
        return [f"exact count {got!r} != boolean count {want!r}"]
    return []


def check_symmetric(value_xy: float, value_yx: float) -> list[str]:
    if not _rel_gap(value_yx, value_xy) <= 1e-12:
        return [f"DSL(X, Y) {value_xy!r} != DSL(Y, X) {value_yx!r}"]
    return []


def check_gradient(grad_y, grad_x, grad_s: float, x, y, sharpness: float) -> list[str]:
    """sum dL/dX = sum dL/dY = 0 and <dL/dX, X> + <dL/dY, Y> = s dL/ds."""
    problems = []
    for name, g in (("dL/dX", grad_x), ("dL/dY", grad_y)):
        g = np.asarray(g, dtype=np.float64)
        scale = float(np.abs(g).sum())
        if not abs(float(g.sum())) <= INVARIANCE_RTOL * scale:
            problems.append(f"sum of {name} is {float(g.sum())!r}, not 0 (sum |{name}| {scale!r})")
    gx_x = np.asarray(grad_x, dtype=np.float64) * x
    gy_y = np.asarray(grad_y, dtype=np.float64) * y
    lhs = float(gx_x.sum() + gy_y.sum())
    rhs = sharpness * grad_s
    scale = float(np.abs(gx_x).sum() + np.abs(gy_y).sum())
    if not abs(lhs - rhs) <= INVARIANCE_RTOL * scale:
        problems.append(f"<dL/dX, X> + <dL/dY, Y> = {lhs!r} but s dL/ds = {rhs!r}")
    return problems


def check_repeats(name: str, values) -> list[str]:
    """Calls on the same inputs must return bitwise-equal values."""
    values = np.asarray(values, dtype=np.float64)
    if values.size and values.tobytes() != np.full_like(values, values[0]).tobytes():
        return [f"{name}: repeated calls on the same inputs returned {sorted(set(values.tolist()))}"]
    return []


# --- calibrate ---------------------------------------------------------------

def check_calibration(found: float, reference: float, dsl_found: float, dsl_reference: float) -> list[str]:
    problems = []
    if not _rel_gap(found, reference) <= CALIBRATION_RTOL:
        problems.append(f"calibrated sharpness {found!r}, reference {reference!r}")
    if not abs(dsl_found - dsl_reference) <= CALIBRATION_GAP:
        problems.append(
            f"held-out DSL {dsl_found!r} at the calibrated sharpness, {dsl_reference!r} at the reference"
        )
    return problems
