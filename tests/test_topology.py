import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from dsltopo import (
    AxisError,
    ConfigError,
    FormatError,
    InfiniteDeathError,
    InfiniteDeathPolicy,
    MemoryLimitError,
    NumericError,
    PersistenceDiagram,
    ShapeError,
    UndefinedCorrelationError,
    pairwise_correlation_distance,
    read_diagram,
    sublevel_persistence_0d,
    wasserstein_distance,
    write_diagram,
)

from dsltopo import topology
from dsltopo.topology import MEMORY_LIMIT_BYTES

from _oracles import (
    brute_force_wasserstein,
    condensed_correlation_distance,
    dense_projection_wasserstein,
    threshold_label_diagram,
)

INF = float("inf")


def small_grids(max_rank=3):
    return hnp.array_shapes(min_dims=1, max_dims=max_rank, min_side=1, max_side=5).flatmap(
        lambda shape: hnp.arrays(np.float64, shape, elements=st.integers(0, 4).map(float))
    )


def unit_extent_grids():
    # every extent but one is 1: (1, n), (n, 1), (1, 1, n), (n, 1, 1)
    shapes = st.tuples(st.integers(1, 30), st.sampled_from(["1n", "n1", "11n", "n11"])).map(
        lambda c: tuple(c[0] if k == "n" else 1 for k in c[1])
    )
    return shapes.flatmap(
        lambda shape: hnp.arrays(np.float64, shape, elements=st.integers(0, 3).map(float))
    )


def float_bits(points):
    return [struct.pack("<dd", b, d) for b, d in points]


class TestDiagram:
    def test_sorted_canonical(self):
        d = PersistenceDiagram(((2.0, 5.0), (0.0, INF), (0.0, 3.0)))
        assert d.points == ((0.0, 3.0), (0.0, INF), (2.0, 5.0))
        assert len(d) == 3
        assert d.as_array().shape == (3, 2)

    def test_empty(self):
        d = PersistenceDiagram(())
        assert len(d) == 0
        assert d.as_array().shape == (0, 2)

    def test_invalid_points(self):
        with pytest.raises(NumericError):
            PersistenceDiagram(((INF, INF),))
        with pytest.raises(NumericError):
            PersistenceDiagram(((0.0, float("nan")),))
        with pytest.raises(NumericError):
            PersistenceDiagram(((3.0, 1.0),))

    @pytest.mark.parametrize("points", [((1.0,),), ((0.0, 1.0, 2.0),), (0.0, 1.0),
                                        ((0.0, 1.0), (2.0,)), (("a", 1.0),)])
    def test_points_must_be_pairs(self, points):
        with pytest.raises(ShapeError):
            PersistenceDiagram(points)

    def test_first_invalid_point_is_reported(self):
        with pytest.raises(NumericError, match="death 1.0 precedes birth 3.0"):
            PersistenceDiagram(((0.0, 1.0), (3.0, 1.0), (INF, INF)))
        with pytest.raises(NumericError, match="birth must be finite, got -inf"):
            PersistenceDiagram(((0.0, 1.0), (-INF, 2.0), (3.0, 1.0)))

    @given(st.lists(
        st.tuples(st.sampled_from([0.0, -0.0, 1.0, -1.5]) | st.floats(-3, 3),
                  st.sampled_from([0.0, -0.0, 2.0, INF]) | st.floats(0, 6)),
        max_size=12,
    ).map(lambda pts: [(b, d) if d >= b else (d, b) for b, d in pts if b != INF]))
    @settings(max_examples=150, deadline=None)
    def test_canonical_order_matches_sorted(self, pts):
        pts = pts + pts[: len(pts) // 2]  # duplicate points
        assert float_bits(PersistenceDiagram(tuple(pts)).points) == float_bits(sorted(pts))


class TestSublevelPersistence:
    def test_constant(self):
        d = sublevel_persistence_0d(np.full((4,), 2.5))
        assert d.points == ((2.5, INF),)

    def test_1d_example(self):
        d = sublevel_persistence_0d([3.0, 1.0, 4.0, 1.0, 5.0])
        assert d.points == ((1.0, 4.0), (1.0, INF))

    def test_3x3_diagonal_merge(self):
        # the two minima touch diagonally, so only the essential class remains
        grid = np.array([[1.0, 3.0, 2.0], [4.0, 1.0, 5.0], [2.0, 6.0, 3.0]])
        d = sublevel_persistence_0d(grid)
        assert d.points == ((1.0, INF),)
        assert d.points == threshold_label_diagram(grid)

    def test_two_separated_minima(self):
        d = sublevel_persistence_0d([0.0, 5.0, 1.0])
        assert d.points == ((0.0, INF), (1.0, 5.0))

    def test_single_cell(self):
        assert sublevel_persistence_0d(np.array([[7.0]])).points == ((7.0, INF),)

    def test_rank_cap(self):
        with pytest.raises(ShapeError):
            sublevel_persistence_0d(np.zeros((2, 2, 2, 2)))

    def test_non_finite(self):
        with pytest.raises(NumericError):
            sublevel_persistence_0d([0.0, np.nan])

    def test_minima_count_on_distinct_values(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            grid = rng.permutation(np.arange(36.0)).reshape(6, 6)
            d = sublevel_persistence_0d(grid)
            neighbors_higher = np.ones((6, 6), bool)
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    if di == 0 and dj == 0:
                        continue
                    shifted = np.full((6, 6), np.inf)
                    src = grid[max(0, -di):6 - max(0, di), max(0, -dj):6 - max(0, dj)]
                    shifted[max(0, di):6 - max(0, -di), max(0, dj):6 - max(0, -dj)] = src
                    neighbors_higher &= shifted > grid
            assert len(d) == int(neighbors_higher.sum())

    @given(small_grids() | unit_extent_grids())
    @settings(max_examples=270, deadline=None)
    def test_matches_component_counting_oracle(self, grid):
        assert sublevel_persistence_0d(grid).points == threshold_label_diagram(grid)

    @pytest.mark.parametrize("shape", [(60,), (1, 60), (60, 1), (1, 1, 60), (60, 1, 1),
                                       (8, 9), (4, 5, 6)])
    def test_plateaus_match_oracle(self, shape):
        # long runs of equal values, where sweep order and the tie-break decide
        rng = np.random.default_rng(list(shape))
        n = math.prod(shape)
        runs = rng.integers(1, 12, size=n)
        values = np.repeat(rng.integers(0, 3, size=n).astype(float), runs)[:n]
        for grid in (values.reshape(shape), values[::-1].reshape(shape)):
            assert sublevel_persistence_0d(grid).points == threshold_label_diagram(grid)

    @given(small_grids(max_rank=1))
    @settings(max_examples=60)
    def test_exactly_one_essential_point(self, grid):
        pts = sublevel_persistence_0d(grid).points
        essential = [p for p in pts if math.isinf(p[1])]
        assert essential == [(float(grid.min()), INF)]
        assert all(b < dth for b, dth in pts if math.isfinite(dth))


class TestWasserstein:
    def test_worked_examples(self):
        d1 = PersistenceDiagram(((0.0, 2.0),))
        d2 = PersistenceDiagram(())
        # lone point pairs with its diagonal projection at distance sqrt(2)
        assert wasserstein_distance(d1, d2, p=2.0) == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert wasserstein_distance(d1, d2, p=1.0) == pytest.approx(math.sqrt(2.0), abs=1e-12)
        d3 = PersistenceDiagram(((0.0, 4.0),))
        assert wasserstein_distance(d1, d3, p=2.0) == pytest.approx(2.0, abs=1e-12)

    def test_both_empty(self):
        e = PersistenceDiagram(())
        assert wasserstein_distance(e, e) == 0.0

    def test_infinite_death_policies(self):
        d1 = PersistenceDiagram(((0.0, INF),))
        d2 = PersistenceDiagram(((0.0, 2.0),))
        with pytest.raises(InfiniteDeathError):
            wasserstein_distance(d1, d2, infinite_death_policy=InfiniteDeathPolicy.REJECT)
        dropped = wasserstein_distance(d1, d2, infinite_death_policy=InfiniteDeathPolicy.DROP)
        assert dropped == pytest.approx(math.sqrt(2.0), abs=1e-12)
        # cap replaces inf with the largest finite coordinate, here 2.0
        capped = wasserstein_distance(
            d1, d2, infinite_death_policy=InfiniteDeathPolicy.CAP_AT_GLOBAL_MAX)
        assert capped == 0.0

    def test_bad_order(self):
        d = PersistenceDiagram(((0.0, 1.0),))
        with pytest.raises(ConfigError):
            wasserstein_distance(d, d, p=0.5)

    @given(
        st.lists(st.tuples(st.floats(0, 5), st.floats(0, 5)), max_size=4),
        st.lists(st.tuples(st.floats(0, 5), st.floats(0, 5)), max_size=4),
        st.sampled_from([1.0, 2.0]),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_enumeration(self, pts1, pts2, p):
        pts1 = [(b, b + d) for b, d in pts1]
        pts2 = [(b, b + d) for b, d in pts2]
        got = wasserstein_distance(PersistenceDiagram(tuple(pts1)),
                                   PersistenceDiagram(tuple(pts2)), p=p)
        want = brute_force_wasserstein(pts1, pts2, p)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("n1,n2", [(0, 300), (1, 300), (2, 700), (200, 200)])
    @pytest.mark.parametrize("policy", list(InfiniteDeathPolicy))
    def test_matches_dense_projection_oracle(self, n1, n2, policy):
        # sizes past the enumeration oracle; (2, 700) is the shape of an
        # untrained wave model's diagram against its target's
        rng = np.random.default_rng([n1, n2])
        pts1, pts2 = [], []
        for pts, n in ((pts1, n1), (pts2, n2)):
            births = rng.normal(size=n)
            deaths = births + rng.exponential(0.5, size=n)
            if n and policy is not InfiniteDeathPolicy.REJECT:
                deaths[0] = INF  # the essential class of a sublevel diagram
            pts.extend(zip(births, deaths))
        for p in (1.0, 2.0):
            got = wasserstein_distance(PersistenceDiagram(tuple(pts1)),
                                       PersistenceDiagram(tuple(pts2)),
                                       p=p, infinite_death_policy=policy)
            want = dense_projection_wasserstein(pts1, pts2, p, policy.value)
            assert got == pytest.approx(want, rel=1e-12)

    def test_order_overflow(self):
        d = PersistenceDiagram(((0.0, 4.0),))
        with pytest.raises(NumericError):
            wasserstein_distance(d, PersistenceDiagram(()), p=1e6)

    def test_memory_limit_refused_before_allocating(self):
        # side * side float64 cells alone top the limit
        side = math.isqrt(MEMORY_LIMIT_BYTES // 8) + 1
        pts = tuple((float(i), float(i) + 1.0) for i in range(side // 2 + 1))
        d = PersistenceDiagram(pts)
        with pytest.raises(MemoryLimitError) as exc_info:
            wasserstein_distance(d, d)
        assert isinstance(exc_info.value, ShapeError)

    def test_metric_axioms_sample(self):
        rng = np.random.default_rng(33)
        diagrams = []
        for _ in range(6):
            n = rng.integers(0, 4)
            pts = []
            for _ in range(n):
                b = rng.uniform(0, 3)
                pts.append((b, b + rng.uniform(0.1, 3)))
            diagrams.append(PersistenceDiagram(tuple(pts)))
        for p in (1.0, 2.0):
            for a in diagrams:
                assert wasserstein_distance(a, a, p=p) <= 1e-9
            for i, a in enumerate(diagrams):
                for b in diagrams[i + 1:]:
                    ab = wasserstein_distance(a, b, p=p)
                    assert ab == pytest.approx(wasserstein_distance(b, a, p=p), abs=1e-9)
                    for c in diagrams:
                        ac = wasserstein_distance(a, c, p=p)
                        cb = wasserstein_distance(c, b, p=p)
                        assert ab <= ac + cb + 1e-9


class TestDiagramIO:
    def test_round_trip(self, tmp_path):
        d = PersistenceDiagram(((0.1, 0.30000000000000004), (1.0, INF), (-2.5, 7.0)))
        path = tmp_path / "d.txt"
        write_diagram(d, path)
        assert read_diagram(path).points == d.points

    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "e.txt"
        write_diagram(PersistenceDiagram(()), path)
        assert path.read_text() == ""
        assert read_diagram(path).points == ()

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("0,1\n\n  \n2,inf\n")
        assert read_diagram(path).points == ((0.0, 1.0), (2.0, INF))

    @pytest.mark.parametrize("line", ["0", "0,1,2", "a,1", "0,nan", "inf,inf", "3,1"])
    def test_malformed_lines(self, tmp_path, line):
        path = tmp_path / "bad.txt"
        path.write_text(line + "\n")
        with pytest.raises((FormatError, NumericError)) as exc_info:
            read_diagram(path)
        assert "bad.txt" in str(exc_info.value)

    def test_non_ascii_names_the_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"0,1\n\xff\xfe,2\n")
        with pytest.raises(FormatError, match=r"bad\.txt:2: non-ASCII"):
            read_diagram(path)

    @given(raw=st.lists(
        st.tuples(st.floats(-100, 100), st.floats(0, 100) | st.just(INF)),
        max_size=8,
    ))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, raw, tmp_path_factory):
        pts = tuple((b, b + d if math.isfinite(d) else INF) for b, d in raw)
        d = PersistenceDiagram(pts)
        path = tmp_path_factory.mktemp("dg") / "d.txt"
        write_diagram(d, path)
        assert read_diagram(path).points == d.points


class TestCorrelationDistance:
    def test_worked_example(self):
        x = np.array([[0.0], [1.0], [3.0]])
        y = np.array([[0.0], [2.0], [3.0]])
        got = pairwise_correlation_distance(x, y, feature_axis=None)
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_affine_invariance_gives_zero(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=(10, 3))
        assert pairwise_correlation_distance(x, 2.0 * x + 7.0) == pytest.approx(0.0, abs=1e-12)

    def test_anticorrelated_hits_two(self):
        x = np.array([0.0, 1.0, 3.0])
        # distances from reversed points are anti-ordered only partially;
        # build a case by hand: three collinear points vs a reflected copy
        y = np.array([3.0, 1.0, 0.0])
        v = pairwise_correlation_distance(x, y, feature_axis=None)
        assert 0.0 <= v <= 2.0

    def test_scalar_feature_axis_none(self):
        x = np.array([0.0, 1.0, 3.0])
        y = np.array([0.0, 2.0, 3.0])
        assert pairwise_correlation_distance(x, y, feature_axis=None) == pytest.approx(0.5)

    def test_feature_axis_moves(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(4, 6))
        y = rng.normal(size=(4, 6))
        a = pairwise_correlation_distance(x, y, feature_axis=1)
        b = pairwise_correlation_distance(x.T, y.T, feature_axis=0)
        assert a == pytest.approx(b, rel=1e-12)

    def test_axis_out_of_range(self):
        with pytest.raises(AxisError):
            pairwise_correlation_distance(np.zeros((4, 2)), np.zeros((4, 2)), feature_axis=2)

    def test_too_few_locations(self):
        with pytest.raises(ShapeError):
            pairwise_correlation_distance(np.zeros(2), np.zeros(2))
        with pytest.raises(ShapeError):
            pairwise_correlation_distance(np.zeros((2, 3)), np.zeros((2, 3)), feature_axis=1)

    def test_degenerate_distances(self):
        x = np.zeros((5, 2))
        y = np.arange(10.0).reshape(5, 2)
        with pytest.raises(UndefinedCorrelationError):
            pairwise_correlation_distance(x, y)

    @pytest.mark.parametrize("x, y", [
        ([1e308, -1e308, 1e308, 0.0], [0.0, 1.0, 2.0, 3.0]),  # a distance overflows
        ([1e200, 3e200, 0.0, 5e200], [0.0, 1.0, 3.0, 2.0]),  # its square overflows
        ([0.0, 1.2e154] * 3, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]),  # a sum of squares overflows
    ])
    @pytest.mark.filterwarnings("error")
    def test_overflow_raises(self, x, y):
        with pytest.raises(NumericError):
            pairwise_correlation_distance(x, y)

    def test_degenerate_across_blocks(self, monkeypatch):
        monkeypatch.setattr(topology, "CORR_BLOCK_PAIRS", 4)
        simplex = np.eye(7)  # every distance is sqrt 2
        y = np.random.default_rng(44).normal(size=(7, 7))
        with pytest.raises(UndefinedCorrelationError):
            pairwise_correlation_distance(simplex, y, feature_axis=1)
        with pytest.raises(UndefinedCorrelationError):
            pairwise_correlation_distance(y, simplex, feature_axis=1)
        # the first block, row 0, holds distances all equal to the first; later rows differ
        x = np.array([0.0, 1.0, 1.0, 1.0, 1.0, -1.0])
        y = np.arange(6.0) ** 2
        got = pairwise_correlation_distance(x, y)
        assert got == pytest.approx(condensed_correlation_distance(x, y), abs=1e-12)

    @pytest.mark.parametrize("block,n", [
        (None, 3),
        # the first block is rows 0..n-2 with (n - 1)^2 entries: under, at, just over 2^15
        (None, 181), (None, 182), (None, 183),
        (None, 2048),  # one wave
        # short rows pack several to a block; with n - 1 past the block, a row is a block
        (64, 9), (64, 10), (64, 65), (64, 66), (64, 200), (16, 40),
    ])
    def test_matches_condensed_oracle(self, monkeypatch, block, n):
        if block is not None:
            monkeypatch.setattr(topology, "CORR_BLOCK_PAIRS", block)
        rng = np.random.default_rng(n)
        x = rng.normal(size=n)
        y = x + rng.normal(size=n)
        got = pairwise_correlation_distance(x, y)
        assert got == pytest.approx(condensed_correlation_distance(x, y), abs=1e-12)

    @pytest.mark.parametrize("features", [1, 3])
    @pytest.mark.parametrize("block", [None, 64])
    def test_feature_axis_matches_condensed_oracle(self, monkeypatch, features, block):
        if block is not None:
            monkeypatch.setattr(topology, "CORR_BLOCK_PAIRS", block)
        rng = np.random.default_rng(features)
        x = rng.normal(size=(features, 30, 7))
        y = rng.normal(size=(features, 30, 7))
        got = pairwise_correlation_distance(x, y, feature_axis=0)
        want = condensed_correlation_distance(x, y, feature_axis=0)
        assert got == pytest.approx(want, abs=1e-12)

    def test_near_perfect_correlation_matches_oracle(self):
        rng = np.random.default_rng(45)
        x = rng.normal(size=(300, 2))
        y = 3.0 * x + 1e-9 * rng.normal(size=(300, 2))
        got = pairwise_correlation_distance(x, y, feature_axis=1)
        want = condensed_correlation_distance(x, y, feature_axis=1)
        assert want < 1e-15
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("case", ["gaussian", "simplex"])
    def test_concentrated_distances_match_oracle(self, case):
        # 200 points in 500 dimensions: the distances spread 3% about their
        # mean; near a regular simplex, 0.1%, where unshifted sums drift by 1e-10
        rng = np.random.default_rng(46)
        if case == "gaussian":
            x = rng.normal(size=(200, 500))
            y = x + 0.5 * rng.normal(size=(200, 500))
        else:
            noise = 1e-3 * rng.normal(size=(2, 200, 200))
            x = np.eye(200) + noise[0]
            y = np.eye(200) + noise[1] + 0.5 * noise[0]
        got = pairwise_correlation_distance(x, y, feature_axis=1)
        want = condensed_correlation_distance(x, y, feature_axis=1)
        assert got == pytest.approx(want, abs=1e-12)

    def test_memory_linear_in_locations(self):
        # two condensed vectors alone would be 134 MB at n = 4096
        rng = np.random.default_rng(47)
        x = rng.normal(size=4096)
        y = rng.normal(size=4096)
        tracemalloc.start()
        try:
            pairwise_correlation_distance(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_matches_pearson(self):
        rng = np.random.default_rng(43)
        x = rng.normal(size=(8, 3))
        y = rng.normal(size=(8, 3))
        got = pairwise_correlation_distance(x, y, feature_axis=1)

        def condensed(a):
            out = []
            for i in range(len(a)):
                for j in range(i + 1, len(a)):
                    out.append(np.linalg.norm(a[i] - a[j]))
            return np.array(out)

        r = stats.pearsonr(condensed(x), condensed(y)).statistic
        assert got == pytest.approx(1.0 - r, rel=1e-10)
