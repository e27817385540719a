"""Topological dissimilarity oracles.

0-dimensional sublevel-set persistence over dense grids, p-Wasserstein
distance between persistence diagrams, and pairwise correlation distance.
These are the non-differentiable references the directional sign loss is
evaluated against. The diagram distance, whose
cost matrix is quadratic in the diagram size, refuses before allocating an
input whose buffers would top MEMORY_LIMIT_BYTES; the correlation distance
works in blocks and needs memory linear in the number of locations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.optimize import linear_sum_assignment

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
CORR_BLOCK_PAIRS = 1 << 15  # location pairs per correlation block: 256 KiB per float64 buffer


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
        try:
            arr = np.asarray(self.points, dtype=np.float64)
        except ValueError as exc:  # ragged points, or entries that are not numbers
            raise ShapeError(f"diagram points must be (birth, death) pairs: {exc}") from None
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ShapeError(f"diagram points must be (birth, death) pairs, got shape {arr.shape}")
        births, deaths = arr[:, 0], arr[:, 1]
        bad_birth = ~np.isfinite(births)
        bad = bad_birth | np.isnan(deaths) | (deaths < births)
        if bad.any():
            k = int(bad.argmax())  # the first bad point, as a point-by-point check finds it
            b, d = float(births[k]), float(deaths[k])
            if bad_birth[k]:
                raise NumericError(f"birth must be finite, got {b}")
            raise NumericError(f"death {d} precedes birth {b}")
        # stable, as sorted() is: equal points, +0.0 and -0.0 alike, keep their order
        order = np.lexsort((deaths, births))
        pts = tuple(zip(births[order].tolist(), deaths[order].tolist()))
        object.__setattr__(self, "points", pts)

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

    The earlier-swept neighbours of every cell are gathered with numpy into
    lists grouped by sweep position before the union-find sweep runs.
    """
    arr = as_tensor(t)
    if arr.ndim > 3:
        raise ShapeError(f"persistence supports ranks 1 to 3, got rank {arr.ndim}")
    require_finite(arr, "grid")
    flat = arr.ravel()
    n = flat.size

    order = np.argsort(flat, kind="stable")
    pos = np.empty(n, dtype=np.intp)
    pos[order] = np.arange(n)
    pos = pos.reshape(arr.shape)

    # The offsets above zero in tuple order meet each adjacent pair once; the
    # later-swept cell of a pair lists the earlier one as a neighbour.
    later, earlier = [], []
    for delta in itertools.product((-1, 0, 1), repeat=arr.ndim):
        if delta <= (0,) * arr.ndim:
            continue
        a = pos[tuple(slice(max(0, -d), s - max(0, d)) for d, s in zip(delta, arr.shape))]
        b = pos[tuple(slice(max(0, d), s - max(0, -d)) for d, s in zip(delta, arr.shape))]
        later.append(np.maximum(a, b).ravel())
        earlier.append(np.minimum(a, b).ravel())
    later = np.concatenate(later)
    nbrs = np.concatenate(earlier)[np.argsort(later)].tolist()
    offsets = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(later, minlength=n), out=offsets[1:])
    offsets = offsets.tolist()
    values = flat[order].tolist()

    # The sweep runs on sweep positions. A component's root is its founding
    # cell, so its birth is values[root]; and since the sweep orders cells by
    # (value, row-major index), the smaller root is the elder component.
    parent = list(range(n))
    finite_points: list[tuple[float, float]] = []
    for k in range(n):
        lo, hi = offsets[k], offsets[k + 1]
        if lo == hi:
            continue  # founds a component
        if hi - lo == 1:
            parent[k] = _find(parent, nbrs[lo])
            continue
        roots = {_find(parent, j) for j in nbrs[lo:hi]}
        survivor = min(roots)
        v = values[k]
        for r in roots:
            if r == survivor:
                continue
            if values[r] < v:
                finite_points.append((values[r], v))
            parent[r] = survivor
        parent[k] = survivor

    # position 0, the global minimum, founds the elder of all components
    return PersistenceDiagram(tuple(finite_points) + ((values[0], INF),))


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


def _block_distances(
    features: np.ndarray, r0: int, r1: int, out: np.ndarray, term: np.ndarray
) -> None:
    # out[a, b] = distance of locations r0 + a and r0 + 1 + b; features add in order, as in pdist
    for k, col in enumerate(features):
        dest = term if k else out
        # column minus row: numpy's vector-minus-scalar loop is the fast one,
        # and the square drops the sign
        np.subtract(col[None, r0 + 1:], col[r0:r1, None], out=dest)
        np.multiply(dest, dest, out=dest)
        if k:
            out += dest
    np.sqrt(out, out=out)


def pairwise_correlation_distance(X, Y, feature_axis: int | None = None) -> float:
    """One minus the Pearson correlation of the two pairwise-distance vectors.

    Every non-feature position is a location carrying a feature vector
    (scalar when feature_axis is None); the Euclidean distances between all
    location pairs of X are correlated against those of Y over the strict
    upper triangle. Result lies in [0, 2].

    The triangle is walked in blocks of whole rows of about CORR_BLOCK_PAIRS
    pairs. Each block's distances, less the first distance of each side, add
    into five running sums from which the correlation follows, so memory is
    linear in the number of locations and no distance vector is kept.
    """
    X = as_tensor(X)
    Y = as_tensor(Y)
    if X.shape != Y.shape:
        raise ShapeError(f"shape mismatch: {X.shape} vs {Y.shape}")
    require_finite(X, "X")
    require_finite(Y, "Y")
    # one contiguous row per feature
    fx = np.ascontiguousarray(_feature_matrix(X, feature_axis).T)
    fy = np.ascontiguousarray(_feature_matrix(Y, feature_axis).T)
    n = fx.shape[1]
    if n < 3:
        raise ShapeError(f"need at least 3 locations, got {n}")

    # the largest block: rows * width <= CORR_BLOCK_PAIRS with rows <= width,
    # or one row wider than that
    size = min(max(CORR_BLOCK_PAIRS, n - 1), (n - 1) ** 2)
    buffers = np.empty((3, size))  # x side, y side, and a term of a later feature
    # In a block's first `rows` columns, entry (a, b) with b < a pairs location
    # r0 + a with the earlier r0 + 1 + b, outside the triangle; there are at
    # most sqrt(size) rows.
    below = np.tri(math.isqrt(size), k=-1, dtype=bool)
    ref_x = ref_y = 0.0
    varies_x = varies_y = False
    sx = sy = sxx = syy = sxy = 0.0
    r0 = 0
    try:
        # numpy raises on an overflowing distance or block sum; the einsum
        # products and the Python sums overflow silently and are caught below
        with np.errstate(over="raise", invalid="raise"):
            while r0 < n - 1:
                width = n - 1 - r0
                r1 = r0 + max(1, min(width, CORR_BLOCK_PAIRS // width))
                rows = r1 - r0
                bx, by, term = (b[: rows * width].reshape(rows, width) for b in buffers)
                _block_distances(fx, r0, r1, bx, term)
                _block_distances(fy, r0, r1, by, term)
                if r0 == 0:
                    ref_x, ref_y = float(bx[0, 0]), float(by[0, 0])
                # shifted by a distance of each side, so the sums keep their
                # precision however concentrated the distances are; pairs below
                # the diagonal add 0
                bx -= ref_x
                by -= ref_y
                np.copyto(bx[:, :rows], 0.0, where=below[:rows, :rows])
                np.copyto(by[:, :rows], 0.0, where=below[:rows, :rows])
                varies_x = varies_x or bool(bx.any())
                varies_y = varies_y or bool(by.any())
                flat_x, flat_y = bx.ravel(), by.ravel()
                sx += float(flat_x.sum())
                sy += float(flat_y.sum())
                # einsum, not np.dot: a BLAS dot this long wakes BLAS worker
                # threads, and on a busy CPU each wake-up between blocks can
                # cost milliseconds
                sxx += float(np.einsum("i,i->", flat_x, flat_x))
                syy += float(np.einsum("i,i->", flat_y, flat_y))
                sxy += float(np.einsum("i,i->", flat_x, flat_y))
                r0 = r1
    except FloatingPointError:
        raise NumericError("pairwise distances overflow float64") from None
    if not (varies_x and varies_y):
        raise UndefinedCorrelationError(
            "pairwise distances are all identical; correlation undefined"
        )
    count = n * (n - 1) // 2
    var_x = sxx - sx * sx / count
    var_y = syy - sy * sy / count
    r = math.nan  # an overflowed sum, or a variance lost to rounding
    if 0.0 < var_x < INF and 0.0 < var_y < INF:
        r = (sxy - sx * sy / count) / math.sqrt(var_x) / math.sqrt(var_y)
    if not math.isfinite(r):
        raise NumericError("correlation of the pairwise distances is not finite in float64")
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
    # undecodable bytes become lone surrogates, so a bad line can be named
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.isascii():
                raw = raw.encode("ascii", "surrogateescape")
                raise FormatError(f"{path}:{lineno}: non-ASCII bytes in {raw!r}")
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
