"""Property tests of the cover depth table, the sup-ratio kernel and the
measured Lipschitz constants against the per-point and per-pair formulas
they replace."""

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsedim import metric_core
from coarsedim.covers import lebesgue_number, make_cover, multiplicity
from coarsedim.errors import InputError
from coarsedim.metric_core import (
    TOL,
    PointSet,
    build_graph_metric,
    grid_space,
    map_between_spaces,
    map_to_reals,
    measured_lipschitz,
    path_space,
    sup_ratio,
)
from coarsedim.polyhedra import (
    EmbeddedPoint,
    SimplicialComplex,
    canonical_projection,
    coordinate_matrix,
    embedded_distance,
    projection_lipschitz_check,
)

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def weighted_graphs(draw, min_n=1, max_n=10):
    """Shortest-path metric of a random connected graph with positive
    integer or fractional weights."""
    n = draw(st.integers(min_n, max_n))
    weight = st.one_of(st.integers(1, 5), st.floats(0.25, 4.0))
    edges = [(draw(st.integers(0, v - 1)), v, draw(weight)) for v in range(1, n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weight)
    edges += [e for e in draw(st.lists(pairs, max_size=n)) if e[0] != e[1]]
    return build_graph_metric(n, edges)


@st.composite
def covers(draw):
    """A cover of a random carrier (sometimes the whole space, sometimes a
    proper subset, left implicit when it is the whole space), sometimes
    with a member equal to the whole carrier."""
    space = draw(weighted_graphs())
    points = list(range(space.n))
    carrier = sorted(draw(st.sets(st.sampled_from(points), min_size=1)))
    sets = draw(st.lists(st.sets(st.sampled_from(carrier), min_size=1), min_size=1, max_size=5))
    for p in set(carrier) - set().union(*sets):
        sets[draw(st.integers(0, len(sets) - 1))].add(p)
    if draw(st.booleans()):
        sets.append(set(carrier))
    implicit = len(carrier) == space.n and draw(st.booleans())
    return make_cover(space, sets, carrier=None if implicit else carrier)


# ---------------------------------------------------------------------------
# the pre-refactor per-point formulas


def reference_depth(cover, x, s):
    comp = [p for p in cover.universe() if p not in s.as_set()]
    return min(cover.space.dist(x, p) for p in comp) if comp else math.inf


def reference_lebesgue(cover):
    return min(
        max(reference_depth(cover, x, s) for s in cover.sets) for x in cover.universe()
    )


def reference_multiplicity(cover):
    return max(sum(1 for s in cover.sets if p in s.as_set()) for p in cover.universe())


def reference_projection(cover, x):
    depths = [reference_depth(cover, x, s) for s in cover.sets]
    infinite = [si for si, d in enumerate(depths) if d == math.inf]
    if infinite:
        return {si: 1.0 / len(infinite) for si in infinite}
    total = sum(depths)
    return {si: d / total for si, d in enumerate(depths) if d > 0}


class TestDepthTable:
    @SETTINGS
    @given(covers())
    def test_depths_match_brute_force(self, cover):
        table = cover.depths
        assert table.shape == (len(cover.universe()), len(cover.sets))
        for row, x in enumerate(cover.universe()):
            for j, s in enumerate(cover.sets):
                assert table[row, j] == reference_depth(cover, x, s)

    @SETTINGS
    @given(covers())
    def test_lebesgue_and_multiplicity_match_formulas(self, cover):
        assert lebesgue_number(cover) == reference_lebesgue(cover)
        assert multiplicity(cover) == reference_multiplicity(cover)

    @SETTINGS
    @given(covers())
    def test_projection_matches_formula(self, cover):
        for x in cover.universe():
            got = canonical_projection(cover, x).as_dict()
            assert got == reference_projection(cover, x)

    def test_whole_carrier_member_is_infinitely_deep(self):
        cover = make_cover(path_space(6), [[1, 2, 3], [2, 3], [1, 2, 3]], carrier=[1, 2, 3])
        assert cover.depths[:, 0].tolist() == [math.inf] * 3
        assert cover.depths[:, 1].tolist() == [0.0, 1.0, 2.0]
        assert lebesgue_number(cover) == math.inf
        assert canonical_projection(cover, 2).as_dict() == {0: 0.5, 2: 0.5}

    def test_table_is_cached(self):
        cover = make_cover(path_space(4), [[0, 1, 2], [1, 2, 3]])
        assert cover.depths is cover.depths

    def test_projection_outside_carrier_rejected(self):
        cover = make_cover(path_space(6), [[1, 2], [2, 3]], carrier=[1, 2, 3])
        with pytest.raises(InputError):
            canonical_projection(cover, 5)


# ---------------------------------------------------------------------------
# sup_ratio


@st.composite
def embedded_families(draw):
    """Points of a space (repeats allowed, so some pairs sit at distance
    0) with random barycentric points of a simplex as their images."""
    space = draw(weighted_graphs(min_n=2))
    k = draw(st.integers(1, 5))
    simplex = SimplicialComplex.from_maximal(range(k), [range(k)])
    pts = draw(st.lists(st.integers(0, space.n - 1), max_size=14))
    images = []
    for _ in pts:
        raw = draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))
        if sum(raw) < 1e-3:
            raw[0] = 1.0
        images.append(EmbeddedPoint.of(simplex, {v: w / sum(raw) for v, w in enumerate(raw)}))
    return space, pts, images


def pairwise_sup(space, pts, images):
    best = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = space.dist(pts[i], pts[j])
            if d > 0:
                best = max(best, embedded_distance(images[i], images[j]) / d)
    return best


class TestSupRatio:
    @SETTINGS
    @given(embedded_families(), st.integers(1, 12))
    def test_matches_pairwise_loop(self, family, block):
        space, pts, images = family
        want = pairwise_sup(space, pts, images)
        X = coordinate_matrix(images)
        assert sup_ratio(space, pts, X) == pytest.approx(want, rel=1e-12, abs=0)
        # blocks smaller than the point count: several chunks per row
        with mock.patch.object(metric_core, "SUP_RATIO_BLOCK", block):
            assert sup_ratio(space, pts, X) == pytest.approx(want, rel=1e-12, abs=0)

    def test_fewer_than_two_points(self):
        space = path_space(3)
        assert sup_ratio(space, [], []) == 0.0
        assert sup_ratio(space, [1], [[0.5, 0.5]]) == 0.0

    def test_zero_distance_pairs_skipped(self):
        space = path_space(3)
        assert sup_ratio(space, [0, 0, 2], [[0.0], [9.0], [4.0]]) == 2.5

    def test_one_column_is_exact_at_extreme_magnitudes(self):
        space = path_space(3)
        assert sup_ratio(space, [0, 1], [0.0, 5e-324]) == 5e-324
        assert sup_ratio(space, [0, 2], [-1e300, 1e300]) == 1e300

    def test_coordinate_matrix_columns(self):
        simplex = SimplicialComplex.from_maximal("abc", ["abc"])
        pts = [EmbeddedPoint.of(simplex, {"b": 1.0}), EmbeddedPoint.of(simplex, {"a": 0.5, "c": 0.5})]
        assert coordinate_matrix(pts).tolist() == [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]]

    @SETTINGS
    @given(weighted_graphs(min_n=2), st.data())
    def test_real_valued_lipschitz_matches_pairs(self, space, data):
        values = data.draw(st.lists(st.floats(-50, 50), min_size=space.n, max_size=space.n))
        f = map_to_reals(space, values)
        want = 0.0
        for i in range(space.n):
            for j in range(i + 1, space.n):
                want = max(want, abs(values[i] - values[j]) / space.dist(i, j))
        assert measured_lipschitz(f) == pytest.approx(want, rel=1e-12, abs=0)


class TestFiniteCodomain:
    @SETTINGS
    @given(weighted_graphs(), weighted_graphs(), st.data())
    def test_lipschitz_matches_pairs(self, space, target, data):
        images = data.draw(st.lists(st.integers(0, target.n - 1), min_size=space.n, max_size=space.n))
        f = map_between_spaces(space, target, images)
        want = 0.0
        for i in range(space.n):
            for j in range(i + 1, space.n):
                want = max(want, target.dist(images[i], images[j]) / space.dist(i, j))
        assert measured_lipschitz(f) == pytest.approx(want, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# the canonical projection's constant


def reference_projection_constant(cover):
    carrier = cover.universe().indices
    return pairwise_sup(cover.space, carrier, [canonical_projection(cover, x) for x in carrier])


def strips(space):
    """Overlapping index strips, as in the polyhedra projection tests."""
    width = max(2, space.n // 3)
    return [range(lo, min(space.n, lo + width + 2)) for lo in range(0, space.n, width)]


POLYHEDRA_CASES = [
    (path_space(6), [range(6)]),
    (path_space(10), [range(0, 6), range(4, 10)]),
    (path_space(2), [[0], [1]]),
    (path_space(12), strips(path_space(12))),
    (path_space(20), strips(path_space(20))),
    (grid_space(4, 5), strips(grid_space(4, 5))),
]


class TestProjectionConstant:
    @SETTINGS
    @given(covers())
    def test_matches_pair_loop(self, cover):
        rep = projection_lipschitz_check(cover)
        want = reference_projection_constant(cover)
        assert rep["measured"] == pytest.approx(want, rel=1e-12, abs=0)
        assert rep["ok"] == (want <= rep["bound"] + TOL)

    @pytest.mark.parametrize("space, sets", POLYHEDRA_CASES, ids=[
        "whole-space", "two-halves", "two-points", "path12-strips", "path20-strips", "grid4x5-strips"])
    def test_polyhedra_cases(self, space, sets):
        cover = make_cover(space, sets)
        rep = projection_lipschitz_check(cover)
        want = reference_projection_constant(cover)
        assert rep["measured"] == pytest.approx(want, rel=1e-12, abs=0)
        assert rep["ok"] and want <= rep["bound"] + TOL


@SETTINGS
@given(st.sets(st.integers(0, 40)), st.integers(-5, 45))
def test_pointset_membership(members, p):
    assert (p in PointSet.of(members)) == (p in members)
