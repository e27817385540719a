"""Independent reference implementations used only by the tests.

These deliberately avoid the package's own algorithms: persistence by
exhaustive thresholding and labeling, assignment and diagram distances by
permutation enumeration or by a dense all-projections assignment, the
correlation distance from whole condensed distance vectors, the directional
sign loss and its gradients over whole arrays, gradients by central finite
differences.
"""

import itertools

import numpy as np
from scipy import ndimage
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import pdist

INF = float("inf")


def threshold_label_diagram(grid):
    """0-D sublevel persistence via thresholding at every distinct value.

    At each value v (ascending) the sublevel set {grid <= v} is labeled with
    full (3^d - 1)-connectivity. A component first seen at v is born at v;
    when previously live components fuse, every birth except one copy of the
    smallest dies at v. The one component left at the end is (min, +inf).
    """
    grid = np.asarray(grid, dtype=np.float64)
    structure = np.ones((3,) * grid.ndim, dtype=int)
    points = []
    live = {}  # frozenset of member flat indices -> birth value
    for v in np.unique(grid):
        labels, count = ndimage.label(grid <= v, structure=structure)
        flat = labels.ravel()
        new_live = {}
        for lab in range(1, count + 1):
            cells = frozenset(np.flatnonzero(flat == lab).tolist())
            parents = sorted(b for prev, b in live.items() if prev <= cells)
            if not parents:
                new_live[cells] = float(v)
            else:
                new_live[cells] = parents[0]
                for b in parents[1:]:
                    points.append((b, float(v)))
        live = new_live
    assert len(live) == 1, "full grids are connected"
    points.append((next(iter(live.values())), INF))
    return tuple(sorted(points))


_PERMS_CACHE = {}


def _permutations_array(m):
    if m not in _PERMS_CACHE:
        _PERMS_CACHE[m] = np.array(list(itertools.permutations(range(m))), dtype=np.intp)
    return _PERMS_CACHE[m]


def brute_force_assignment(cost):
    """Minimum-cost perfect matching by trying every permutation."""
    cost = np.asarray(cost, dtype=np.float64)
    m = cost.shape[0]
    if m == 0:
        return (), 0.0
    perms = _permutations_array(m)
    totals = cost[np.arange(m)[None, :], perms].sum(axis=1)
    best = int(np.argmin(totals))
    pairs = tuple((i, int(j)) for i, j in enumerate(perms[best]))
    return pairs, float(totals[best])


def brute_force_wasserstein(points1, points2, p):
    """Diagram distance by enumerating every augmented matching."""
    pts1 = [(float(b), float(d)) for b, d in points1]
    pts2 = [(float(b), float(d)) for b, d in points2]
    n1, n2 = len(pts1), len(pts2)
    if n1 + n2 == 0:
        return 0.0

    def proj(pt):
        mid = (pt[0] + pt[1]) / 2.0
        return (mid, mid)

    u = pts1 + [proj(q) for q in pts2]
    v = pts2 + [proj(q) for q in pts1]
    m = n1 + n2
    cost = np.zeros((m, m))
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            if i >= n1 and j >= n2:
                continue  # diagonal to diagonal is free
            cost[i, j] = ((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2) ** (p / 2.0)
    _, total = brute_force_assignment(cost)
    return total ** (1.0 / p)


def dense_projection_wasserstein(points1, points2, p, policy):
    """Diagram distance over the dense all-projections cost matrix.

    Each diagram is augmented with the diagonal projections of the other's
    points, and any point may match any projection; the square problem is
    solved by scipy's assignment solver. Infinite deaths follow `policy`:
    "cap" replaces them with the largest finite coordinate, "drop" removes
    their points, "reject" raises ValueError.
    """
    a1 = np.asarray(points1, dtype=np.float64).reshape(-1, 2)
    a2 = np.asarray(points2, dtype=np.float64).reshape(-1, 2)
    both = np.concatenate([a1, a2])
    if np.isinf(both).any():
        if policy == "reject":
            raise ValueError("infinite death")
        if policy == "drop":
            a1 = a1[np.isfinite(a1[:, 1])]
            a2 = a2[np.isfinite(a2[:, 1])]
        else:
            cap = both[np.isfinite(both)].max()
            a1 = np.where(np.isinf(a1), cap, a1)
            a2 = np.where(np.isinf(a2), cap, a2)
    n1, n2 = len(a1), len(a2)
    if n1 + n2 == 0:
        return 0.0
    mid1 = (a1[:, 0] + a1[:, 1]) / 2.0
    mid2 = (a2[:, 0] + a2[:, 1]) / 2.0
    u = np.vstack([a1, np.column_stack([mid2, mid2])])
    v = np.vstack([a2, np.column_stack([mid1, mid1])])
    cost = np.sqrt(((u[:, None, :] - v[None, :, :]) ** 2).sum(axis=2)) ** p
    cost[n1:, n2:] = 0.0  # diagonal to diagonal is free
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum() ** (1.0 / p))


def condensed_correlation_distance(x, y, feature_axis=None):
    """One minus Pearson's r of the two condensed pairwise-distance vectors.

    Both vectors are built whole with pdist and correlated by np.corrcoef;
    every non-feature position is one location (a scalar feature when
    feature_axis is None). The result is clamped to [0, 2].
    """
    def locations(a):
        a = np.asarray(a, dtype=np.float64)
        if feature_axis is None:
            return a.reshape(-1, 1)
        moved = np.moveaxis(a, feature_axis, -1)
        return moved.reshape(-1, moved.shape[-1])

    r = float(np.corrcoef(pdist(locations(x)), pdist(locations(y)))[0, 1])
    return min(2.0, max(0.0, 1.0 - r))


def whole_array_dsl(x, y, cfg):
    """Directional sign loss and (dL/dY, dL/dX, dL/ds) over whole arrays.

    Every axis is differenced, transformed and reduced in one piece, and each
    gradient is the transpose of np.diff applied to the per-difference
    derivative. `cfg` is read for its fields only. With reduction "none"
    the per-example values are returned alone.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    s = cfg.sharpness
    kind = cfg.sign_kind.value
    skip = cfg.skip_batch_axis
    axes = list(range(1 if skip else 0, x.ndim))
    weights = cfg.weights if cfg.weights is not None else [1.0] * len(axes)
    n_examples = x.shape[0] if skip else 1
    if cfg.match_exact_units:
        unit = 0.5
    elif cfg.scale_by_comparisons:
        unit = 1.0 / sum((x.size // x.shape[ax]) * (x.shape[ax] - 1) // n_examples for ax in axes)
    else:
        unit = 1.0

    def transform(d):
        # sign-like value and its derivative in d divided by s
        if kind == "exact":
            return np.sign(d), None
        z = s * d
        if kind == "tanh":
            t = np.tanh(z)
            return t, 1.0 - t * t
        t = z / (1.0 + np.abs(z))
        return t, (1.0 - np.abs(t)) ** 2

    def diff_transpose(c, ax):
        # gradient of sum(c * np.diff(a, axis=ax)) with respect to a
        pad = np.zeros_like(np.take(c, [0], axis=ax))
        return np.concatenate([pad, c], axis=ax) - np.concatenate([c, pad], axis=ax)

    per_example = np.zeros(n_examples)
    grad_y = np.zeros_like(y)
    grad_x = np.zeros_like(x)
    ds = 0.0
    for ax, weight in zip(axes, weights):
        dx = np.diff(x, axis=ax)
        dy = np.diff(y, axis=ax)
        tx, fx = transform(dx)
        ty, fy = transform(dy)
        scale = weight * unit
        mismatch = scale * np.abs(tx - ty)
        per_example += mismatch.reshape(n_examples, -1).sum(axis=1)
        if kind == "exact":
            continue
        sgn = np.sign(tx - ty)
        grad_y += diff_transpose(-scale * s * sgn * fy, ax)
        grad_x += diff_transpose(scale * s * sgn * fx, ax)
        ds += float((scale * sgn * (dx * fx - dy * fy)).sum())
    if cfg.reduction.value == "none":
        return per_example
    batch_scale = 1.0 / n_examples if skip and cfg.reduction.value == "mean" else 1.0
    value = float(per_example.sum() * batch_scale)
    return value, grad_y * batch_scale, grad_x * batch_scale, ds * batch_scale


def fd_gradient(f, x, h=1e-6):
    """Central finite-difference gradient of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        hi = x.copy()
        lo = x.copy()
        hi[i] += h
        lo[i] -= h
        grad[i] = (f(hi) - f(lo)) / (2.0 * h)
    return grad


def fd_scalar(f, s, h=1e-6):
    """Central finite difference of a scalar-to-scalar function."""
    return (f(s + h) - f(s - h)) / (2.0 * h)
