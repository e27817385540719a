"""Directional sign loss: smooth forward value, analytic gradients, exact mismatch count.

The loss compares the signs of adjacent-element differences of two equally
shaped arrays, axis by axis, through a saturating sign-like map. The exact
count (non-differentiable) is exposed alongside as the unit reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .exceptions import (
    ConfigError,
    DegenerateAxisError,
    NonDifferentiableError,
    ShapeError,
)
from .tensor import as_tensor, require_finite

DEFAULT_SHARPNESS = 32.0
# elements per block in _evaluate: 256 KiB of float64 per buffer, a few of
# which fit in L2 together
BLOCK_ELEMENTS = 1 << 15


class SignKind(Enum):
    EXACT_SIGN = "exact"
    TANH = "tanh"
    SOFTSIGN = "softsign"


class Reduction(Enum):
    SUM = "sum"
    MEAN = "mean"
    NONE = "none"  # one loss value per example; requires a batch axis


@dataclass(frozen=True)
class DslConfig:
    """Options controlling a directional sign loss evaluation.

    `match_exact_units` halves every mismatch so the value shares units with
    the exact sign-mismatch count; `scale_by_comparisons` instead divides by
    the per-example comparison count so the magnitude is commensurate with
    mean-style losses. The two are mutually exclusive.
    """

    sharpness: float = DEFAULT_SHARPNESS
    weights: tuple[float, ...] | None = None
    sign_kind: SignKind = SignKind.TANH
    match_exact_units: bool = False
    skip_batch_axis: bool = False
    reduction: Reduction = Reduction.MEAN
    scale_by_comparisons: bool = True

    def __post_init__(self):
        if not (np.isfinite(self.sharpness) and self.sharpness > 0):
            raise ConfigError(f"sharpness must be positive, got {self.sharpness}")
        if self.match_exact_units and self.scale_by_comparisons:
            raise ConfigError(
                "match_exact_units and scale_by_comparisons are mutually exclusive"
            )
        if self.weights is not None:
            w = tuple(float(v) for v in self.weights)
            if any(not np.isfinite(v) or v < 0 for v in w):
                raise ConfigError(f"weights must be finite and nonnegative, got {w}")
            object.__setattr__(self, "weights", w)
        if not isinstance(self.sign_kind, SignKind):
            raise ConfigError(f"sign_kind must be a SignKind, got {self.sign_kind!r}")
        if not isinstance(self.reduction, Reduction):
            raise ConfigError(f"reduction must be a Reduction, got {self.reduction!r}")


def sign_like(x, kind: SignKind, s: float):
    """Sign-like transform into [-1, 1]; odd in x for every kind.

    ExactSign ignores the sharpness (sign(s*x) == sign(x) for s > 0).
    """
    if not (np.isfinite(s) and s > 0):
        raise ConfigError(f"sharpness must be positive, got {s}")
    if not isinstance(kind, SignKind):
        raise ConfigError(f"unknown sign kind {kind!r}")
    out = _transform_inplace(np.array(x, dtype=np.float64), kind, s)
    return out if out.ndim else float(out)


def _pair_axes(
    X, Y, skip_batch_axis: bool, weights, validate: bool = True
) -> tuple[np.ndarray, np.ndarray, list[int], list[float]]:
    X = as_tensor(X)
    Y = as_tensor(Y)
    if X.shape != Y.shape:
        raise ShapeError(f"shape mismatch: {X.shape} vs {Y.shape}")
    if validate:
        require_finite(X, "X")
        require_finite(Y, "Y")
    axes = list(range(1, X.ndim)) if skip_batch_axis else list(range(X.ndim))
    if not axes:
        raise DegenerateAxisError(
            "no compared axes: skip_batch_axis on a rank-1 tensor leaves nothing to compare"
        )
    for ax in axes:
        if X.shape[ax] == 1:
            raise DegenerateAxisError(
                f"compared axis {ax} has extent 1 and admits no finite differences"
            )
    if weights is None:
        w = [1.0] * len(axes)
    else:
        w = [float(v) for v in weights]
        if len(w) != len(axes):
            raise ConfigError(
                f"{len(w)} weights for {len(axes)} compared axes"
            )
    return X, Y, axes, w


def comparisons_per_example(shape, skip_batch_axis: bool = False) -> int:
    """Number of adjacent-element comparisons one example contributes."""
    sub = tuple(shape[1:]) if skip_batch_axis else tuple(shape)
    total = 0
    size = int(np.prod(sub))
    for i, n in enumerate(sub):
        total += (size // n) * (n - 1)
    return total


def _transform_inplace(d: np.ndarray, kind: SignKind, s: float, scratch=None) -> np.ndarray:
    # sign_like applied to a difference buffer the caller owns; softsign
    # needs one more buffer of d's shape, allocated when scratch is None
    if kind is SignKind.EXACT_SIGN:
        return np.sign(d, out=d)
    np.multiply(d, s, out=d)
    if kind is SignKind.TANH:
        return np.tanh(d, out=d)
    denom = np.abs(d, out=scratch)  # softsign: z / (1 + |z|)
    denom += 1.0
    return np.divide(d, denom, out=d)


def _scatter_diff(grad: np.ndarray, g: np.ndarray, ax: int, r0: int, accumulate: bool) -> None:
    """Apply the adjacent-difference chain rule for a block of differences g
    whose first row is row r0 of grad: +g onto the upper element of each
    difference and -g onto the lower one. Along axis 0 the upper element of
    the block's last difference is the next block's first row. With
    accumulate=False the target is uninitialized and written outright (valid
    when it receives one axis only), so a row r0 > 0 already holds the
    previous block's +g.
    """
    if ax:
        grad, r0 = grad[r0:r0 + g.shape[0]], 0
    n = g.shape[ax]
    nd = grad.ndim

    def sl(a, b):
        out = [slice(None)] * nd
        out[ax] = slice(a, b)
        return tuple(out)

    if accumulate:
        grad[sl(r0 + 1, r0 + n + 1)] += g
        grad[sl(r0, r0 + n)] -= g
        return
    if r0:
        grad[sl(r0, r0 + 1)] -= g[sl(0, 1)]
    else:
        np.negative(g[sl(0, 1)], out=grad[sl(0, 1)])
    np.subtract(g[sl(None, -1)], g[sl(1, None)], out=grad[sl(r0 + 1, r0 + n)])
    grad[sl(r0 + n, r0 + n + 1)] = g[sl(-1, None)]


def _dd_factor_into(t: np.ndarray, kind: SignKind, out: np.ndarray) -> np.ndarray:
    # d(sign_like)/dd up to the factor s, written into out: 1-t^2 or (1-|t|)^2;
    # d * factor(t) is d(sign_like)/ds
    if kind is SignKind.TANH:
        np.multiply(t, t, out=out)
        np.subtract(1.0, out, out=out)
        return out
    np.abs(t, out=out)
    np.subtract(1.0, out, out=out)
    np.multiply(out, out, out=out)
    return out


def _evaluate(
    X,
    Y,
    cfg: DslConfig,
    want_dy: bool = False,
    want_dx: bool = False,
    want_ds: bool = False,
    tx_by_axis: dict[int, np.ndarray] | None = None,
    validate: bool = True,
):
    """Shared engine for the forward value and its analytic gradients.

    The arrays are walked in blocks of whole rows (axis 0) of about
    BLOCK_ELEMENTS elements. Every intermediate lives in a few block-sized
    buffers that this call owns, so the working set stays in cache whatever
    the input size; only the returned gradients are full-sized. A difference
    along axis 0 reads one row past its block.

    `tx_by_axis` optionally supplies precomputed sign_like(diff(X, axis)) per
    compared axis so repeated evaluations against a fixed X skip that work;
    it cannot be combined with want_dx/want_ds (those need the raw
    differences of X). `validate=False` skips the full finiteness scan for
    callers that already guarantee it.
    """
    X, Y, axes, w = _pair_axes(X, Y, cfg.skip_batch_axis, cfg.weights, validate)
    any_grad = want_dy or want_dx or want_ds
    if any_grad and cfg.sign_kind is SignKind.EXACT_SIGN:
        raise NonDifferentiableError("the exact sign function has no usable gradient")
    if cfg.reduction is Reduction.NONE and not cfg.skip_batch_axis:
        raise ConfigError("per-example reduction requires skip_batch_axis")
    if any_grad and cfg.reduction is Reduction.NONE:
        raise ConfigError("gradients are defined only for scalar reductions")
    if tx_by_axis is not None and (want_dx or want_ds):
        raise ConfigError("precomputed transforms cannot back gradients through X")

    s = cfg.sharpness
    kind = cfg.sign_kind
    if cfg.match_exact_units:
        unit = 0.5
    elif cfg.scale_by_comparisons:
        unit = 1.0 / comparisons_per_example(X.shape, cfg.skip_batch_axis)
    else:
        unit = 1.0

    n0 = X.shape[0]
    n_examples = n0 if cfg.skip_batch_axis else 1
    example_axes = tuple(range(1, X.ndim))
    per_example = np.zeros(n_examples)
    ds_total = 0.0
    # a single compared axis writes its gradient outright, so skip the zeroing
    accumulate = len(axes) > 1
    alloc = np.zeros_like if accumulate else np.empty_like
    grad_x = alloc(X) if want_dx else None
    grad_y = alloc(Y) if want_dy else None

    row = X.size // n0
    rows = max(1, min(n0, BLOCK_ELEMENTS // row))
    # transformed x and y, the mismatch, its sign: shaped per compared axis
    # for a block of `rows` rows of differences, sliced for a shorter one
    flat = np.empty((4 if any_grad else 3, rows * row))
    plan = []
    for ax, weight in zip(axes, w):
        lead = (slice(None),) * ax
        sub = list(X.shape[1:])
        if ax:
            sub[ax - 1] -= 1
        bufs = flat[:, :rows * math.prod(sub)].reshape(len(flat), rows, *sub)
        plan.append((ax, weight * unit, lead + (slice(1, None),), lead + (slice(None, -1),), bufs))

    for r0 in range(0, n0, rows):
        r1 = min(r0 + rows, n0)
        for ax, scale, hi, lo, bufs in plan:
            r_end = min(r1, n0 - 1) if ax == 0 else r1  # difference rows r0:r_end
            if r_end == r0:
                continue  # a last block of one row has no axis-0 differences
            if r_end - r0 < rows:
                bufs = bufs[:, :r_end - r0]
            stop = r_end + 1 if ax == 0 else r1
            xb, yb = X[r0:stop], Y[r0:stop]
            if tx_by_axis is not None and ax in tx_by_axis:
                tx = tx_by_axis[ax][r0:r_end]  # borrowed; never written below
            else:
                tx = _transform_inplace(np.subtract(xb[hi], xb[lo], out=bufs[0]), kind, s, bufs[2])
            ty = _transform_inplace(np.subtract(yb[hi], yb[lo], out=bufs[1]), kind, s, bufs[2])
            mism = np.subtract(tx, ty, out=bufs[2])
            if any_grad:
                sgn = np.sign(mism, out=bufs[3])  # sign(tx - ty); zero at the |.| kink
            np.abs(mism, out=mism)
            if cfg.skip_batch_axis:
                per_example[r0:r1] += scale * mism.sum(axis=example_axes)
            else:
                per_example[0] += scale * mism.sum()
            if not any_grad:
                continue

            # each transform becomes sign * factor(t) in place; the
            # gradients scale it by -s and s, dL/ds weights it by the raw d
            if want_dy or want_ds:
                gy = _dd_factor_into(ty, kind, out=ty)
                np.multiply(gy, sgn, out=gy)
            if want_dx or want_ds:
                gx = _dd_factor_into(tx, kind, out=tx)
                np.multiply(gx, sgn, out=gx)
            if want_ds:
                # the raw differences are recomputed from blocks still in cache
                term = np.subtract(xb[hi], xb[lo], out=mism)
                term *= gx
                dy = np.subtract(yb[hi], yb[lo], out=sgn)  # sgn is spent
                dy *= gy
                term -= dy
                ds_total += scale * term.sum()
            if want_dy:
                gy *= -(s * scale)
                _scatter_diff(grad_y, gy, ax, r0, accumulate)
            if want_dx:
                gx *= s * scale
                _scatter_diff(grad_x, gx, ax, r0, accumulate)

    if cfg.skip_batch_axis and cfg.reduction is Reduction.NONE:
        return per_example, None, None, None

    if cfg.skip_batch_axis and cfg.reduction is Reduction.MEAN:
        value = float(per_example.mean())
        batch_scale = 1.0 / n_examples
    else:
        value = float(per_example.sum())
        batch_scale = 1.0
    if grad_y is not None and batch_scale != 1.0:
        grad_y *= batch_scale
    if grad_x is not None and batch_scale != 1.0:
        grad_x *= batch_scale
    ds = float(ds_total * batch_scale) if want_ds else None
    return value, grad_y, grad_x, ds


def dsl_forward(X, Y, cfg: DslConfig = DslConfig()):
    """Directional sign loss between X and Y.

    Returns a float, or a rank-1 array of per-example losses when the
    reduction is NONE (batch axis required).
    """
    value, _, _, _ = _evaluate(X, Y, cfg)
    return value


def dsl_gradient(X, Y, cfg: DslConfig = DslConfig()):
    """Analytic gradients (dloss/dY, dloss/dX, dloss/ds) of dsl_forward.

    At points where the two transformed differences coincide the |.| kink
    contributes subgradient 0, so identical inputs yield exact zeros.
    """
    _, grad_y, grad_x, ds = _evaluate(X, Y, cfg, want_dy=True, want_dx=True, want_ds=True)
    return grad_y, grad_x, ds


def exact_sign_mismatch_count(X, Y, weights=None, skip_batch_axis: bool = False) -> float:
    """Exact, non-differentiable count of sign mismatches between finite differences.

    Each comparison contributes |sign(dX) - sign(dY)| / 2, which is 0, 0.5,
    or 1; 0.5 appears when exactly one of the two differences is zero.
    """
    X, Y, axes, w = _pair_axes(X, Y, skip_batch_axis, weights)
    total = 0.0
    for ax, weight in zip(axes, w):
        sx = np.sign(np.diff(X, axis=ax))
        sy = np.sign(np.diff(Y, axis=ax))
        total += weight * 0.5 * np.abs(sx - sy).sum()
    return float(total)
