"""Independent reference implementations used only by the tests.

These deliberately avoid the package's own algorithms: persistence by
exhaustive thresholding and labeling, assignment and diagram distances by
permutation enumeration or by a dense all-projections assignment, gradients
by central finite differences.
"""

import itertools

import numpy as np
from scipy import ndimage
from scipy.optimize import linear_sum_assignment

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
