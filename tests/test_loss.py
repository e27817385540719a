import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dsltopo import (
    ConfigError,
    DegenerateAxisError,
    DslConfig,
    NonDifferentiableError,
    NumericError,
    Reduction,
    ShapeError,
    SignKind,
    comparisons_per_example,
    dsl_forward,
    dsl_gradient,
    exact_sign_mismatch_count,
    sign_like,
)
from dsltopo.loss import BLOCK_ELEMENTS, _evaluate

from _oracles import fd_gradient, fd_scalar, whole_array_dsl

RAW = DslConfig(sharpness=1.0, match_exact_units=False, scale_by_comparisons=False)
UNITS = DslConfig(sharpness=1.0, match_exact_units=True, scale_by_comparisons=False)


def value_arrays(max_rank=3, max_side=5):
    return hnp.arrays(
        dtype=np.float64,
        shape=hnp.array_shapes(min_dims=1, max_dims=max_rank, min_side=2, max_side=max_side),
        elements=st.floats(-100, 100, allow_nan=False, allow_infinity=False),
    )


class TestSignLike:
    def test_origin(self):
        assert sign_like(0.0, SignKind.TANH, 32.0) == 0.0

    def test_exact_negative(self):
        assert sign_like(-5.0, SignKind.EXACT_SIGN, 3.0) == -1.0

    def test_tanh_value(self):
        assert sign_like(0.1, SignKind.TANH, 32.0) == pytest.approx(0.996682, abs=1e-6)

    def test_softsign_value(self):
        assert sign_like(0.1, SignKind.SOFTSIGN, 32.0) == pytest.approx(3.2 / 4.2, abs=1e-12)

    def test_exact_sign_ignores_sharpness(self):
        assert sign_like(2.0, SignKind.EXACT_SIGN, 1e-9) == 1.0
        assert sign_like(0.0, SignKind.EXACT_SIGN, 1e9) == 0.0

    def test_bad_sharpness(self):
        with pytest.raises(ConfigError):
            sign_like(1.0, SignKind.TANH, 0.0)
        with pytest.raises(ConfigError):
            sign_like(1.0, SignKind.TANH, -2.0)

    @given(
        st.floats(-50, 50, allow_nan=False),
        st.sampled_from(list(SignKind)),
        st.floats(0.01, 100, allow_nan=False),
    )
    def test_odd_and_bounded(self, x, kind, s):
        v = sign_like(x, kind, s)
        assert -1.0 <= v <= 1.0
        assert sign_like(-x, kind, s) == pytest.approx(-v, abs=1e-15)


class TestDslConfig:
    def test_mutual_exclusion(self):
        with pytest.raises(ConfigError):
            DslConfig(match_exact_units=True, scale_by_comparisons=True)

    def test_bad_sharpness(self):
        with pytest.raises(ConfigError):
            DslConfig(sharpness=0.0)
        with pytest.raises(ConfigError):
            DslConfig(sharpness=float("nan"))

    def test_negative_weight(self):
        with pytest.raises(ConfigError):
            DslConfig(weights=(1.0, -0.5))


class TestForward:
    def test_worked_example_units(self):
        v = dsl_forward([0, 1, 0], [0, 1, 2], UNITS)
        assert v == pytest.approx(np.tanh(1.0), abs=1e-12)

    def test_sharp_limit_matches_exact(self):
        cfg = DslConfig(sharpness=1e6, match_exact_units=True, scale_by_comparisons=False)
        assert dsl_forward([0, 1, 0], [0, 1, 2], cfg) == pytest.approx(1.0, abs=1e-6)

    def test_comparisons_per_example(self):
        assert comparisons_per_example((3,)) == 2
        assert comparisons_per_example((2, 3)) == 3 + 4
        assert comparisons_per_example((4, 2, 3), skip_batch_axis=True) == 3 + 4

    def test_scale_by_comparisons(self):
        x = np.arange(12.0).reshape(3, 4)
        y = x[::-1].copy()
        raw = dsl_forward(x, y, RAW)
        scaled = dsl_forward(x, y, DslConfig(sharpness=1.0))
        assert scaled == pytest.approx(raw / comparisons_per_example(x.shape), rel=1e-15)

    def test_weight_length_mismatch(self):
        with pytest.raises(ConfigError):
            dsl_forward([0, 1], [1, 0], DslConfig(weights=(1.0, 2.0)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            dsl_forward([0, 1, 2], [0, 1], RAW)

    def test_degenerate_axis(self):
        with pytest.raises(DegenerateAxisError):
            dsl_forward(np.ones((2, 1)), np.ones((2, 1)), RAW)

    def test_skip_batch_needs_compared_axes(self):
        cfg = DslConfig(skip_batch_axis=True)
        with pytest.raises(DegenerateAxisError):
            dsl_forward([0.0, 1.0], [1.0, 0.0], cfg)

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            dsl_forward([0.0, np.nan], [0.0, 1.0], RAW)

    def test_reduction_none_needs_batch(self):
        cfg = DslConfig(reduction=Reduction.NONE)
        with pytest.raises(ConfigError):
            dsl_forward([0.0, 1.0], [1.0, 0.0], cfg)

    def test_reductions_agree(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, 6))
        y = rng.normal(size=(4, 6))
        base = dict(sharpness=2.0, skip_batch_axis=True, scale_by_comparisons=False)
        per = dsl_forward(x, y, DslConfig(reduction=Reduction.NONE, **base))
        assert per.shape == (4,)
        total = dsl_forward(x, y, DslConfig(reduction=Reduction.SUM, **base))
        mean = dsl_forward(x, y, DslConfig(reduction=Reduction.MEAN, **base))
        assert total == pytest.approx(per.sum(), rel=1e-15)
        assert mean == pytest.approx(per.mean(), rel=1e-15)

    def test_skip_batch_compares_remaining_axes_only(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 5))
        y = rng.normal(size=(3, 5))
        skip = dsl_forward(x, y, DslConfig(
            sharpness=1.0, skip_batch_axis=True,
            reduction=Reduction.SUM, scale_by_comparisons=False))
        by_rows = sum(
            dsl_forward(x[i], y[i], RAW) for i in range(3)
        )
        assert skip == pytest.approx(by_rows, rel=1e-12)

    def test_zero_weight_axis_inert(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(4, 5))
        y = rng.normal(size=(4, 5))
        cfg = DslConfig(sharpness=1.0, weights=(0.0, 1.0), scale_by_comparisons=False)
        shifted = x + rng.normal(size=(4, 1))  # varies along axis 0 only
        assert dsl_forward(shifted, y, cfg) == pytest.approx(dsl_forward(x, y, cfg), rel=1e-12)

    @given(value_arrays())
    def test_identity(self, x):
        assert dsl_forward(x, x, RAW) == 0.0
        assert dsl_forward(x, x, DslConfig(sharpness=3.0)) == 0.0

    @given(value_arrays().flatmap(lambda x: st.tuples(st.just(x), value_arrays())))
    @settings(max_examples=40)
    def test_symmetry_and_bound(self, pair):
        x, y = pair
        if x.shape != y.shape:
            y = np.resize(y, x.shape)
        cfg = DslConfig(sharpness=2.5, match_exact_units=True, scale_by_comparisons=False)
        a = dsl_forward(x, y, cfg)
        b = dsl_forward(y, x, cfg)
        assert a == b
        assert 0.0 <= a <= comparisons_per_example(x.shape)


class TestExactCount:
    def test_worked_examples(self):
        assert exact_sign_mismatch_count([0, 1, 0], [0, 1, 2]) == 1.0
        assert exact_sign_mismatch_count([1, 1], [1, 2]) == 0.5
        x = np.arange(8.0).reshape(2, 4)
        assert exact_sign_mismatch_count(x, x) == 0.0

    def test_weights(self):
        x = [[0, 1], [1, 0]]
        y = [[1, 0], [0, 1]]
        full = exact_sign_mismatch_count(x, y)
        axis0 = exact_sign_mismatch_count(x, y, weights=(1.0, 0.0))
        axis1 = exact_sign_mismatch_count(x, y, weights=(0.0, 1.0))
        assert full == axis0 + axis1

    def test_skip_batch(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        y = np.array([[0.0, 2.0], [0.0, 1.0]])
        per_rows = sum(
            exact_sign_mismatch_count(x[i], y[i]) for i in range(2)
        )
        assert exact_sign_mismatch_count(x, y, skip_batch_axis=True) == per_rows

    @given(
        hnp.arrays(np.float64, st.integers(2, 30).map(lambda n: (n,)),
                   elements=st.integers(-5, 5).map(float)),
        hnp.arrays(np.float64, st.shared(st.integers(2, 30), key="n").map(lambda n: (n,)),
                   elements=st.integers(-5, 5).map(float)),
    )
    @settings(max_examples=40)
    def test_monotone_invariance(self, x, y):
        if x.shape != y.shape:
            y = np.resize(y, x.shape)
        base = exact_sign_mismatch_count(x, y)
        # strictly increasing maps preserve every difference's sign
        assert exact_sign_mismatch_count(np.exp(x / 10), 3 * y + 1) == base

    @given(value_arrays())
    def test_sharp_limit_on_integers(self, x):
        xi = np.round(x)
        yi = xi[..., ::-1].copy()
        cfg = DslConfig(sharpness=1e6, match_exact_units=True, scale_by_comparisons=False)
        assert abs(dsl_forward(xi, yi, cfg) - exact_sign_mismatch_count(xi, yi)) < 1e-3


class TestGradient:
    def test_worked_example(self):
        gy, gx, gs = dsl_gradient([0, 1, 0], [0, 1, 2], UNITS)
        sech2 = 1.0 - np.tanh(1.0) ** 2
        assert gy == pytest.approx([0.0, -sech2 / 2, sech2 / 2], abs=1e-12)
        assert gx == pytest.approx([0.0, sech2 / 2, -sech2 / 2], abs=1e-12)
        fs = fd_scalar(lambda s: dsl_forward(
            [0, 1, 0], [0, 1, 2],
            DslConfig(sharpness=s, match_exact_units=True, scale_by_comparisons=False)), 1.0)
        assert gs == pytest.approx(fs, rel=1e-6)

    def test_identity_is_exactly_zero(self):
        x = np.arange(24.0).reshape(2, 3, 4)
        gy, gx, gs = dsl_gradient(x, x.copy(), DslConfig(sharpness=4.0))
        assert not gy.any() and not gx.any() and gs == 0.0

    def test_exact_sign_rejected(self):
        cfg = DslConfig(sign_kind=SignKind.EXACT_SIGN)
        with pytest.raises(NonDifferentiableError):
            dsl_gradient([0, 1], [1, 0], cfg)

    def test_reduction_none_rejected(self):
        cfg = DslConfig(skip_batch_axis=True, reduction=Reduction.NONE)
        with pytest.raises(ConfigError):
            dsl_gradient(np.ones((2, 3)), np.zeros((2, 3)), cfg)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(3, 4))
        y = rng.normal(size=(3, 4))
        cfg = DslConfig(sharpness=1.5)
        gy, gx, gs = dsl_gradient(x, y, cfg)
        gy2, gx2, gs2 = dsl_gradient(y, x, cfg)
        assert np.array_equal(gy, gx2) and np.array_equal(gx, gy2)
        assert gs == pytest.approx(gs2, abs=1e-15)

    def test_mean_divides_by_batch(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(4, 6))
        y = rng.normal(size=(4, 6))
        base = dict(sharpness=1.5, skip_batch_axis=True, scale_by_comparisons=False)
        gy_sum, _, gs_sum = dsl_gradient(x, y, DslConfig(reduction=Reduction.SUM, **base))
        gy_mean, _, gs_mean = dsl_gradient(x, y, DslConfig(reduction=Reduction.MEAN, **base))
        assert gy_mean == pytest.approx(gy_sum / 4, rel=1e-15)
        assert gs_mean == pytest.approx(gs_sum / 4, rel=1e-15)

    @pytest.mark.parametrize("kind", [SignKind.TANH, SignKind.SOFTSIGN])
    @pytest.mark.parametrize(
        "cfg_kw",
        [
            dict(match_exact_units=True, scale_by_comparisons=False),
            dict(scale_by_comparisons=True),
            dict(match_exact_units=False, scale_by_comparisons=False, weights=(2.0, 0.5)),
        ],
    )
    def test_finite_difference_check(self, kind, cfg_kw):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(4, 5))
        y = rng.normal(size=(4, 5))
        cfg = DslConfig(sharpness=1.2, sign_kind=kind, **cfg_kw)
        gy, gx, gs = dsl_gradient(x, y, cfg)
        fy = fd_gradient(lambda a: dsl_forward(x, a, cfg), y)
        fx = fd_gradient(lambda a: dsl_forward(a, y, cfg), x)
        fs = fd_scalar(
            lambda s: dsl_forward(x, y, DslConfig(sharpness=s, sign_kind=kind, **cfg_kw)),
            1.2,
        )
        # central differences lose accuracy where tanh saturates, hence 1e-4
        assert gy == pytest.approx(fy, rel=1e-4, abs=1e-8)
        assert gx == pytest.approx(fx, rel=1e-4, abs=1e-8)
        assert gs == pytest.approx(fs, rel=1e-4, abs=1e-8)


class TestEngineCache:
    def test_precomputed_transform_matches(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(5, 7))
        y = rng.normal(size=(5, 7))
        cfg = DslConfig(sharpness=3.0, skip_batch_axis=True)
        plain = _evaluate(x, y, cfg, want_dy=True)
        tx = {1: sign_like(np.diff(x, axis=1), cfg.sign_kind, cfg.sharpness)}
        cached = _evaluate(x, y, cfg, want_dy=True, tx_by_axis=tx)
        assert plain[0] == cached[0]
        assert np.array_equal(plain[1], cached[1])

    def test_cache_cannot_back_x_gradients(self):
        x = np.zeros((2, 3))
        cfg = DslConfig(skip_batch_axis=True)
        tx = {1: np.zeros((2, 2))}
        with pytest.raises(ConfigError):
            _evaluate(x, x, cfg, want_dx=True, tx_by_axis=tx)


B = BLOCK_ELEMENTS


def assert_close(got, want, rtol=1e-12):
    """Equal to rtol relative to the largest magnitude of want."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    bound = rtol * max(float(np.abs(want).max()), 1e-300)
    assert float(np.abs(got - want).max()) <= bound


def random_pair(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape), rng.normal(size=shape)


class TestBlockBoundaries:
    """The blocked engine against the whole-array oracle on shapes whose
    rows straddle, fill or exceed a block."""

    def check(self, shape, seed=0, **cfg_kw):
        x, y = random_pair(shape, seed)
        cfg = DslConfig(**{"sharpness": 1.5, **cfg_kw})
        value, gy, gx, ds = dsl_forward(x, y, cfg), *dsl_gradient(x, y, cfg)
        want_value, want_gy, want_gx, want_ds = whole_array_dsl(x, y, cfg)
        assert value == pytest.approx(want_value, rel=1e-12, abs=0)
        assert ds == pytest.approx(want_ds, rel=1e-12, abs=0)
        assert_close(gy, want_gy)
        assert_close(gx, want_gx)

    @pytest.mark.parametrize("n", [B - 1, B, B + 1, 3 * B + 2])
    def test_rank1(self, n):
        self.check((n,), seed=n)

    @pytest.mark.parametrize("kind", [SignKind.TANH, SignKind.SOFTSIGN])
    def test_rank2_many_short_rows(self, kind):
        self.check((B // 3 + 5, 7), sign_kind=kind, weights=(2.0, 0.5))

    @pytest.mark.parametrize("kind", [SignKind.TANH, SignKind.SOFTSIGN])
    def test_rank2_rows_wider_than_a_block(self, kind):
        self.check((5, B + 3), sign_kind=kind, weights=(0.5, 3.0))

    def test_rank3_axis0_across_blocks(self):
        # 5 rows of 64 x 100 per block: blocks [0, 5) and [5, 9)
        self.check((9, 64, 100), sharpness=32.0)

    def test_rank3_rows_wider_than_a_block(self):
        self.check((4, 128, 300), match_exact_units=True, scale_by_comparisons=False)

    @pytest.mark.parametrize("reduction", [Reduction.SUM, Reduction.MEAN])
    @pytest.mark.parametrize("kind", [SignKind.TANH, SignKind.SOFTSIGN])
    def test_skip_batch_axis(self, reduction, kind):
        self.check((B // 10 + 3, 11, 6), skip_batch_axis=True, reduction=reduction,
                   sign_kind=kind, weights=(1.5, 0.25))

    @pytest.mark.parametrize("shape", [(B // 10 + 3, 11, 6), (3, B + 9)])
    def test_skip_batch_axis_per_example(self, shape):
        x, y = random_pair(shape, 3)
        cfg = DslConfig(sharpness=2.0, skip_batch_axis=True, reduction=Reduction.NONE)
        assert_close(dsl_forward(x, y, cfg), whole_array_dsl(x, y, cfg))

    @pytest.mark.parametrize("shape", [(B - 1,), (B // 100 + 1, 101)])
    def test_exact_sign_forward(self, shape):
        x, y = random_pair(shape, 4)
        x = np.round(x)
        y = np.round(y)
        cfg = DslConfig(sign_kind=SignKind.EXACT_SIGN, match_exact_units=True,
                        scale_by_comparisons=False)
        want = whole_array_dsl(x, y, cfg)[0]
        assert dsl_forward(x, y, cfg) == pytest.approx(want, rel=1e-12, abs=0)
        assert want == exact_sign_mismatch_count(x, y)

    @pytest.mark.parametrize("kind", [SignKind.TANH, SignKind.SOFTSIGN])
    def test_precomputed_transform(self, kind):
        x, y = random_pair((B // 50 + 7, 51), 5)
        cfg = DslConfig(sharpness=4.0, sign_kind=kind, skip_batch_axis=True)
        tx = {1: sign_like(np.diff(x, axis=1), kind, cfg.sharpness)}
        value, gy, _, _ = _evaluate(x, y, cfg, want_dy=True, tx_by_axis=tx)
        want_value, want_gy, _, _ = whole_array_dsl(x, y, cfg)
        assert value == pytest.approx(want_value, rel=1e-12, abs=0)
        assert_close(gy, want_gy)

    def test_swap_symmetry_across_blocks(self):
        x, y = random_pair((B // 20 + 1, 21), 6)
        cfg = DslConfig(sharpness=1.5)
        gy, gx, _ = dsl_gradient(x, y, cfg)
        gy2, gx2, _ = dsl_gradient(y, x, cfg)
        assert np.array_equal(gy, gx2) and np.array_equal(gx, gy2)
        assert dsl_forward(x, y, cfg) == dsl_forward(y, x, cfg)


class TestMemory:
    def test_peaks_at_two_to_the_21(self):
        x, y = random_pair((1 << 21,), 7)  # 16 MiB each
        mib = 1 << 20
        tracemalloc.start()
        try:
            dsl_forward(x, y)
            forward_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            dsl_gradient(x, y)  # its two 16 MiB outputs plus the block buffers
            gradient_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert forward_peak < 8 * mib
        assert gradient_peak < 40 * mib


class TestNonFinite:
    @pytest.mark.parametrize("where", [0, -1])
    @pytest.mark.parametrize("want_dy", [False, True])
    def test_unvalidated_nan_surfaces(self, where, want_dy):
        x, y = random_pair((B // 100 + 1, 101), 8)
        y[where, where] = np.nan  # first block or last block
        cfg = DslConfig(skip_batch_axis=True)
        value, gy, _, _ = _evaluate(x, y, cfg, want_dy=want_dy, validate=False)
        assert not np.isfinite(value)
        if want_dy:
            assert not np.isfinite(gy).all()

    def test_unvalidated_nan_per_example(self):
        x, y = random_pair((B // 100 + 1, 101), 9)
        y[-1, 50] = np.nan
        cfg = DslConfig(skip_batch_axis=True, reduction=Reduction.NONE)
        per, _, _, _ = _evaluate(x, y, cfg, validate=False)
        assert np.isfinite(per[:-1]).all() and np.isnan(per[-1])
