"""Topological dissimilarity oracles.

0-dimensional sublevel-set persistence over dense grids, p-Wasserstein
distance between persistence diagrams, an assignment-solver wrapper, and
pairwise correlation distance. These are the non-differentiable references
the directional sign loss is evaluated against. The two quadratic oracles
refuse, before allocating, inputs whose buffers would top MEMORY_LIMIT_BYTES.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import pdist

from .exceptions import (
    AxisError,
    ConfigError,
    FormatError,
    InfiniteDeathError,
    MemoryLimitError,
    NumericError,
    ShapeError,
    UndefinedCorrelationError,
)
from .tensor import as_tensor, require_finite

INF = float("inf")
MEMORY_LIMIT_BYTES = 4 << 30  # largest quadratic buffer an oracle or a bench measure may build


def _require_memory(nbytes: int, what: str) -> None:
    if nbytes > MEMORY_LIMIT_BYTES:
        raise MemoryLimitError(
            f"{what} would need {nbytes / 2**30:.1f} GiB, "
            f"over the {MEMORY_LIMIT_BYTES / 2**30:.0f} GiB limit"
        )


@dataclass(frozen=True)
class PersistenceDiagram:
    """Multiset of (birth, death) points; death may be +inf.

    Points are canonicalized to a sorted tuple so diagrams compare by value.
    """

    points: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        pts = []
        for p in self.points:
            b, d = float(p[0]), float(p[1])
            if not np.isfinite(b):
                raise NumericError(f"birth must be finite, got {b}")
            if np.isnan(d) or d < b:
                raise NumericError(f"death {d} precedes birth {b}")
            pts.append((b, d))
        object.__setattr__(self, "points", tuple(sorted(pts)))

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def as_array(self) -> np.ndarray:
        """Points as an (n, 2) array; an empty diagram gives shape (0, 2)."""
        return np.asarray(self.points, dtype=np.float64).reshape(-1, 2)


def _find(parent: list[int], i: int) -> int:
    root = i
    while parent[root] != root:
        root = parent[root]
    while parent[i] != root:
        parent[i], i = root, parent[i]
    return root


def sublevel_persistence_0d(t) -> PersistenceDiagram:
    """0-D persistence of the sublevel-set filtration of a rank-1..3 grid.

    Grid points are swept in ascending (value, row-major index) order; cells
    are adjacent when every coordinate differs by at most 1 (3^d - 1
    neighbors). A point with no already-swept neighbor founds a component;
    a point bridging distinct components keeps the elder one (smaller birth,
    then smaller founding index) and records the younger's (birth, value)
    pair. Merges between components born at the current value are invisible
    to thresholding and contribute no point. The surviving component is
    reported as (global minimum, +inf); full grids are connected, so there
    is exactly one such point.
    """
    arr = as_tensor(t)
    if arr.ndim > 3:
        raise ShapeError(f"persistence supports ranks 1 to 3, got rank {arr.ndim}")
    require_finite(arr, "grid")
    shape = arr.shape
    flat = arr.ravel()
    n = flat.size

    order = np.argsort(flat, kind="stable")
    pos = np.empty(n, dtype=np.intp)
    pos[order] = np.arange(n)

    deltas = [d for d in itertools.product((-1, 0, 1), repeat=arr.ndim) if any(d)]
    strides = [int(np.prod(shape[k + 1:], dtype=np.int64)) for k in range(arr.ndim)]
    coords = np.unravel_index(np.arange(n), shape)
    coords = np.stack(coords, axis=1)

    parent = list(range(n))
    birth = [0.0] * n  # valid only at root indices
    finite_points: list[tuple[float, float]] = []

    for i in order:
        v = float(flat[i])
        here = coords[i]
        roots = set()
        for delta in deltas:
            j = 0
            for k in range(arr.ndim):
                c = here[k] + delta[k]
                if c < 0 or c >= shape[k]:
                    j = -1
                    break
                j += c * strides[k]
            if j >= 0 and pos[j] < pos[i]:
                roots.add(_find(parent, j))
        if not roots:
            birth[i] = v
            continue
        survivor = min(roots, key=lambda r: (birth[r], r))
        for r in roots:
            if r == survivor:
                continue
            if birth[r] < v:
                finite_points.append((birth[r], v))
            parent[r] = survivor
        parent[i] = survivor

    top = _find(parent, int(order[0]))
    points = finite_points + [(birth[top], INF)]
    return PersistenceDiagram(tuple(points))


@dataclass(frozen=True)
class Matching:
    """Perfect matching between the rows and columns of a cost matrix."""

    pairs: tuple[tuple[int, int], ...]
    total_cost: float


def min_cost_assignment(cost) -> Matching:
    """Minimum-total-cost perfect matching of a square nonnegative matrix."""
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ShapeError(f"cost matrix must be square, got shape {c.shape}")
    if c.size:
        if not np.isfinite(c).all():
            raise NumericError("cost matrix contains non-finite entries")
        if (c < 0).any():
            raise NumericError("cost matrix entries must be nonnegative")
    rows, cols = linear_sum_assignment(c)
    pairs = tuple(zip(rows.tolist(), cols.tolist()))
    return Matching(pairs=pairs, total_cost=float(c[rows, cols].sum()))


class InfiniteDeathPolicy(Enum):
    CAP_AT_GLOBAL_MAX = "cap"  # replace +inf with the largest finite coordinate present
    DROP = "drop"
    REJECT = "reject"


def _resolve_infinite(
    d1: PersistenceDiagram, d2: PersistenceDiagram, policy: InfiniteDeathPolicy
) -> tuple[np.ndarray, np.ndarray]:
    a1 = d1.as_array()
    a2 = d2.as_array()
    inf1 = np.isinf(a1[:, 1])
    inf2 = np.isinf(a2[:, 1])
    if not inf1.any() and not inf2.any():
        return a1, a2
    if policy is InfiniteDeathPolicy.REJECT:
        raise InfiniteDeathError("diagram contains an infinite death")
    if policy is InfiniteDeathPolicy.DROP:
        return a1[~inf1], a2[~inf2]
    if policy is InfiniteDeathPolicy.CAP_AT_GLOBAL_MAX:
        finite = np.concatenate([a1[np.isfinite(a1)], a2[np.isfinite(a2)]])
        cap = float(finite.max())  # births are finite, so this is never empty
        a1 = a1.copy()
        a2 = a2.copy()
        a1[inf1, 1] = cap
        a2[inf2, 1] = cap
        return a1, a2
    raise ConfigError(f"unknown infinite-death policy {policy!r}")


def wasserstein_distance(
    d1: PersistenceDiagram,
    d2: PersistenceDiagram,
    p: float = 2.0,
    infinite_death_policy: InfiniteDeathPolicy = InfiniteDeathPolicy.CAP_AT_GLOBAL_MAX,
) -> float:
    """p-Wasserstein distance between persistence diagrams.

    Solved as one square (n1+n2) x (n1+n2) assignment with diagonal slots
    (Kerber, Morozov and Nigmetov, arXiv:1606.03357). A point matches
    either a point of the other diagram, at ||x - y||_2^p, or its own
    diagonal slot, at (|d - b| / sqrt 2)^p, its distance to the diagonal;
    every other point-to-slot pair is forbidden, and unused slots pair with
    each other for free. Returns the p-th root of the minimal total.
    """
    if not (np.isfinite(p) and p >= 1):
        raise ConfigError(f"order p must be a real >= 1, got {p}")
    a1, a2 = _resolve_infinite(d1, d2, infinite_death_policy)
    n1, n2 = len(a1), len(a2)
    if n1 == 0 and n2 == 0:
        return 0.0
    n = n1 + n2
    # the cost matrix and one n1 x n2 temporary
    _require_memory(8 * (n * n + n1 * n2), "the diagram cost matrix")

    cost = np.full((n, n), INF)
    cost[n1:, n2:] = 0.0  # unused diagonal slots pair up for free
    between = cost[:n1, :n2]
    np.subtract.outer(a1[:, 0], a2[:, 0], out=between)
    np.hypot(between, np.subtract.outer(a1[:, 1], a2[:, 1]), out=between)
    between **= p
    # deaths never precede births, and a capped death is the largest coordinate
    slide1 = ((a1[:, 1] - a1[:, 0]) / math.sqrt(2.0)) ** p
    slide2 = ((a2[:, 1] - a2[:, 0]) / math.sqrt(2.0)) ** p
    if not (np.isfinite(between).all() and np.isfinite(slide1).all() and np.isfinite(slide2).all()):
        raise NumericError(f"diagram matching costs overflow at order p={p}")
    cost[np.arange(n1), n2 + np.arange(n1)] = slide1
    cost[n1 + np.arange(n2), np.arange(n2)] = slide2
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum() ** (1.0 / p))


def _feature_matrix(arr: np.ndarray, feature_axis: int | None) -> np.ndarray:
    if feature_axis is None:
        return arr.reshape(-1, 1)  # scalar feature per location
    if not -arr.ndim <= feature_axis < arr.ndim:
        raise AxisError(f"feature axis {feature_axis} out of range for rank {arr.ndim}")
    moved = np.moveaxis(arr, feature_axis, -1)
    return moved.reshape(-1, moved.shape[-1])


def pairwise_correlation_distance(X, Y, feature_axis: int | None = None) -> float:
    """One minus the Pearson correlation of the two pairwise-distance vectors.

    Every non-feature position is a location carrying a feature vector
    (scalar when feature_axis is None); the Euclidean distances between all
    location pairs of X are correlated against those of Y over the strict
    upper triangle. Result lies in [0, 2].
    """
    X = as_tensor(X)
    Y = as_tensor(Y)
    if X.shape != Y.shape:
        raise ShapeError(f"shape mismatch: {X.shape} vs {Y.shape}")
    require_finite(X, "X")
    require_finite(Y, "Y")
    fx = _feature_matrix(X, feature_axis)
    fy = _feature_matrix(Y, feature_axis)
    n = fx.shape[0]
    if n < 3:
        raise ShapeError(f"need at least 3 locations, got {n}")
    # two condensed distance vectors, and np.corrcoef's centred stack of both
    _require_memory(5 * 8 * (n * (n - 1) // 2), "the pairwise distance vectors")
    dx = pdist(fx)
    dy = pdist(fy)
    if np.all(dx == dx[0]) or np.all(dy == dy[0]):
        raise UndefinedCorrelationError(
            "pairwise distances are all identical; correlation undefined"
        )
    r = float(np.corrcoef(dx, dy)[0, 1])
    return float(min(2.0, max(0.0, 1.0 - r)))


def write_diagram(diagram: PersistenceDiagram, path) -> None:
    """Write one 'birth,death' pair per line; +inf deaths print as 'inf'."""
    lines = [f"{b:.17g},{d:.17g}" for b, d in diagram.points]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines))
        if lines:
            fh.write("\n")


def read_diagram(path) -> PersistenceDiagram:
    """Parse the diagram text format; an empty file is an empty diagram."""
    points = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise FormatError(f"{path}:{lineno}: expected 'birth,death', got {raw!r}")
            try:
                b = float(parts[0])
                d = float(parts[1])
            except ValueError:
                raise FormatError(f"{path}:{lineno}: unparseable number in {raw!r}") from None
            if not np.isfinite(b):
                raise FormatError(f"{path}:{lineno}: birth must be finite, got {parts[0]}")
            if np.isnan(d) or d < b:
                raise FormatError(f"{path}:{lineno}: death precedes birth in {raw!r}")
            points.append((b, d))
    return PersistenceDiagram(tuple(points))
