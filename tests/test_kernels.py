"""Property tests of the cover membership, depth and projection tables
(with the nerves and refinement maps read from them), the sup-ratio
kernel and its edge certificate, the distance-to-set kernel, the exact
carving scan, the measured Lipschitz constants and the tower coordinate
blocks against the per-point, per-pair and full-scan versions they
replace."""

import dataclasses
import itertools
import math
import tracemalloc
from bisect import bisect_left
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coarsedim import covers as covers_module
from coarsedim import metric_core
from coarsedim.covers import (
    EXACT_CLUSTER_CAP,
    _color_floor,
    _conflict_graph,
    _greedy_clique,
    _lex_min_coloring,
    brute_force_chromatic,
    carve_clusters,
    chromatic_number,
    colored_decomposition,
    disjoint_to_cover,
    greedy_coloring,
    is_d_disjoint,
    lebesgue_number,
    make_cover,
    mesh,
    multiplicity,
    saturated_union,
    union_cover,
    verify_isometry,
)
from coarsedim.errors import InputError, InvariantViolation
from coarsedim.hurewicz import (
    all_face_agreements,
    build_assembly,
    make_config,
    tower_values,
)
from coarsedim.metric_core import (
    TOL,
    FiniteMetricSpace,
    PointSet,
    _inside_edges,
    _predecessor_table,
    _row_blocks,
    build_explicit,
    build_graph_metric,
    cycle_space,
    diameter_of,
    distance_to_set,
    edge_certificate,
    grid_space,
    map_between_spaces,
    map_to_reals,
    measured_lipschitz,
    neighborhood,
    path_space,
    set_distances,
    sup_ratio,
)
from coarsedim.polyhedra import (
    COORD_EPS,
    SimplicialComplex,
    check_rows,
    nerve,
    projection_lipschitz_check,
    projection_rows,
    refinement_map,
    used_columns,
)

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def weighted_graphs(draw, min_n=1, max_n=10, integer=False):
    """Shortest-path metric of a random connected graph with positive
    integer or (unless ``integer``) fractional weights."""
    n = draw(st.integers(min_n, max_n))
    weight = st.integers(1, 5) if integer else st.one_of(st.integers(1, 5), st.floats(0.25, 4.0))
    edges = [(draw(st.integers(0, v - 1)), v, draw(weight)) for v in range(1, n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weight)
    edges += [e for e in draw(st.lists(pairs, max_size=n)) if e[0] != e[1]]
    return build_graph_metric(n, edges)


@st.composite
def explicit_spaces(draw, max_n=10):
    """``build_explicit`` of distinct integer points of the plane under the
    l1 or the Euclidean norm."""
    pts = draw(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=max_n, unique=True))
    diff = np.array(pts, dtype=float)[:, None, :] - np.array(pts, dtype=float)[None, :, :]
    euclid = draw(st.booleans())
    return build_explicit(np.sqrt((diff**2).sum(axis=2)) if euclid else np.abs(diff).sum(axis=2))


@st.composite
def covers(draw, whole=False, spaces=None):
    """A cover of a random carrier (sometimes the whole space, sometimes a
    proper subset, left implicit when it is the whole space), sometimes
    with a member equal to the whole carrier; with ``whole``, always with
    one or two such members.  Spaces are drawn from ``spaces``, graph
    metrics by default."""
    space = draw(spaces if spaces is not None else weighted_graphs())
    points = list(range(space.n))
    carrier = sorted(draw(st.sets(st.sampled_from(points), min_size=1)))
    sets = draw(st.lists(st.sets(st.sampled_from(carrier), min_size=1), min_size=1, max_size=5))
    for p in set(carrier) - set().union(*sets):
        sets[draw(st.integers(0, len(sets) - 1))].add(p)
    if whole:
        for _ in range(draw(st.integers(1, 2))):
            sets.insert(draw(st.integers(0, len(sets))), set(carrier))
    elif draw(st.booleans()):
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


def reference_point(complex, coords):
    """The per-point check that ``check_rows`` replaced: the point with
    weights ``{vertex: weight}`` as ``(vertex, weight)`` pairs in vertex
    order."""
    clean = {v: float(w) for v, w in coords.items() if abs(w) > COORD_EPS}
    total = sum(clean.values())
    if abs(total - 1.0) > 1e-7:
        raise InputError(f"coordinates sum to {total}, expected 1")
    if any(w < 0 for w in clean.values()):
        raise InputError("negative barycentric coordinate")
    support = complex.sort_ids(clean)
    if support not in complex.simplices:
        raise InvariantViolation(f"support {support} is not a simplex")
    return tuple((v, clean[v]) for v in support)


def row_coords(complex, row):
    """The ``(vertex, weight)`` pairs of a block row's nonzero weights."""
    nz = np.flatnonzero(row)
    return tuple(zip([complex.vertices[c] for c in nz], row[nz].tolist()))


def checked(complex, coords):
    """The point ``{vertex: weight}`` through ``check_rows``, as pairs."""
    block = np.zeros((1, len(complex.vertices)))
    for v, w in coords.items():
        block[0, complex.positions[v]] = w
    return row_coords(complex, check_rows(complex, block)[0])


def projection_point(cover, x, complex=None):
    """One carrier point's row of the projection block, as pairs."""
    complex = nerve(cover) if complex is None else complex
    return row_coords(complex, check_rows(complex, projection_rows(cover, [x]))[0])


def point_distance(p, q):
    """Euclidean distance of two points given as pairs (vertex ids are an
    orthonormal basis, so this also works across glued complexes)."""
    a, b = dict(p), dict(q)
    return math.sqrt(sum((a.get(v, 0.0) - b.get(v, 0.0)) ** 2 for v in set(a) | set(b)))


def coordinate_matrix(points):
    """Dense coordinates of points given as pairs: one column per vertex
    of the union of their supports, in first-seen order."""
    columns: dict = {}
    for p in points:
        for v, _ in p:
            columns.setdefault(v, len(columns))
    out = np.zeros((len(points), len(columns)))
    for i, p in enumerate(points):
        for v, w in p:
            out[i, columns[v]] = w
    return out


def t_coordinates(config, tower, x):
    """Proximity weights of f(x) to the tower's nested base regions."""
    y = config.f.images[x]
    return [float(face.weights[y]) for face in tower.faces]


def reference_canonical_projection(cover, x, complex):
    """The per-point canonical projection the projection table replaced."""
    uni = cover.universe().indices
    row = bisect_left(uni, x)
    if row == len(uni) or uni[row] != x:
        raise InputError(f"point {x} is outside the cover's carrier")
    depths = cover.depths[row].tolist()
    infinite = [si for si, d in enumerate(depths) if d == math.inf]
    ids = complex.vertices
    if infinite:
        w = 1.0 / len(infinite)
        return reference_point(complex, {ids[si]: w for si in infinite})
    total = sum(depths)
    if total <= 0:
        raise InputError(f"point {x} lies in no cover set; family is not a cover at {x}")
    return reference_point(complex, {ids[si]: d / total for si, d in enumerate(depths) if d > 0})


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
            got = dict(projection_point(cover, x))
            assert got == reference_projection(cover, x)

    def test_whole_carrier_member_is_infinitely_deep(self):
        cover = make_cover(path_space(6), [[1, 2, 3], [2, 3], [1, 2, 3]], carrier=[1, 2, 3])
        assert cover.depths[:, 0].tolist() == [math.inf] * 3
        assert cover.depths[:, 1].tolist() == [0.0, 1.0, 2.0]
        assert lebesgue_number(cover) == math.inf
        assert dict(projection_point(cover, 2)) == {0: 0.5, 2: 0.5}

    def test_table_is_cached(self):
        cover = make_cover(path_space(4), [[0, 1, 2], [1, 2, 3]])
        assert cover.depths is cover.depths

    def test_mesh_is_measured_once(self):
        cover = make_cover(path_space(6), [[0, 1, 2], [1, 2, 3, 4], [5]])
        with mock.patch.object(covers_module, "diameters_of", wraps=metric_core.diameters_of) as spy:
            assert mesh(cover) == 3.0
            assert mesh(cover) == 3.0
        assert spy.call_count == 1  # one batch of all the sets, once
        assert cover.diameters.tolist() == [2.0, 3.0, 0.0]

    def test_projection_outside_carrier_rejected(self):
        cover = make_cover(path_space(6), [[1, 2], [2, 3]], carrier=[1, 2, 3])
        with pytest.raises(InputError, match="outside the cover's carrier"):
            projection_rows(cover, [5])

    @SETTINGS
    @given(st.one_of(covers(), covers(whole=True)))
    def test_projection_table_matches_per_point_projection(self, cover):
        complex = nerve(cover)
        table = cover.projections
        assert table.shape == (len(cover.universe()), len(cover.sets))
        assert not table.flags.writeable
        for row, x in enumerate(cover.universe()):
            want = reference_canonical_projection(cover, x, complex)
            assert projection_point(cover, x, complex) == want
            dense = [0.0] * len(cover.sets)
            for v, w in want:
                dense[v] = w
            assert table[row].tolist() == dense
            assert abs(table[row].sum() - 1.0) <= 1e-7 and (table[row] >= 0).all()

    def test_whole_carrier_members_share_the_weight(self):
        cover = make_cover(path_space(5), [[0, 1, 2, 3], [2, 3], [0, 1, 2, 3], [0, 1, 2, 3]],
                           carrier=[0, 1, 2, 3])
        assert cover.projections.tolist() == [[1 / 3, 0.0, 1 / 3, 1 / 3]] * 4


# ---------------------------------------------------------------------------
# the membership table against the per-point loops it replaced


def reference_nerve_cells(cover):
    """Set patterns of the carrier points, from a dict of member lists."""
    member_of: dict[int, list[int]] = {}
    for si, s in enumerate(cover.sets):
        for p in s:
            member_of.setdefault(p, []).append(si)
    return {tuple(sorted(member_of[p])) for p in cover.universe()}


def reference_refinement(fine, coarse):
    """Fine set index -> the first coarse set equal to it, else the first
    containing it, by frozenset subset tests; None when none contains it."""
    out = {}
    for fi, fset in enumerate(fine.sets):
        fpts = fset.as_set()
        target = None
        for ci, cset in enumerate(coarse.sets):
            if fpts <= cset.as_set():
                if cset.as_set() == fpts:
                    target = ci
                    break
                if target is None:
                    target = ci
        out[fi] = target
    return out


@st.composite
def nested_covers(draw):
    """A coarse cover and a fine cover of part of its carrier, each fine
    set a coarse set or a subset of one."""
    coarse = draw(covers())
    fine_sets = []
    for _ in range(draw(st.integers(1, 5))):
        host = sorted(draw(st.sampled_from(coarse.sets)))
        whole = draw(st.booleans())
        fine_sets.append(set(host) if whole else draw(st.sets(st.sampled_from(host), min_size=1)))
    carrier = sorted(set().union(*fine_sets))
    return coarse, make_cover(coarse.space, fine_sets, carrier=carrier)


class TestMembershipTable:
    @SETTINGS
    @given(st.one_of(covers(), covers(whole=True)))
    def test_member_matches_points_and_depths(self, cover):
        table = cover.member
        assert table.shape == (len(cover.sets), len(cover.universe()))
        assert not table.flags.writeable and cover.member is table
        for j, s in enumerate(cover.sets):
            assert table[j].tolist() == [x in s.as_set() for x in cover.universe()]
        assert np.array_equal(table, cover.depths.T > 0)

    @SETTINGS
    @given(st.one_of(covers(), covers(whole=True)))
    def test_nerve_matches_member_lists(self, cover):
        want = SimplicialComplex.from_maximal(range(len(cover.sets)), reference_nerve_cells(cover))
        assert nerve(cover) == want

    @SETTINGS
    @given(nested_covers())
    def test_refinement_matches_subset_loop(self, pair):
        coarse, fine = pair
        assume(lebesgue_number(coarse) > mesh(fine))
        assert refinement_map(fine, coarse).assignment == reference_refinement(fine, coarse)

    def test_fine_set_outside_coarse_carrier(self):
        s = path_space(6)
        coarse = make_cover(s, [[0, 1, 2], [1, 2, 3]], carrier=[0, 1, 2, 3])
        fine = make_cover(s, [[0], [4]], carrier=[0, 4])
        assert reference_refinement(fine, coarse) == {0: 0, 1: None}
        with pytest.raises(InvariantViolation, match="fine set 1 is contained in no coarse set"):
            refinement_map(fine, coarse)

    @SETTINGS
    @given(weighted_graphs(), st.data(), st.floats(0.0, 6.0))
    def test_enlarged_sets_are_carrier_neighborhoods(self, space, data, D):
        carrier = data.draw(st.sets(st.sampled_from(range(space.n)), min_size=1))
        dec = colored_decomposition(space, D, 2.0 * D, mode="greedy", carrier=carrier)
        want = [PointSet.of(set(neighborhood(space, s, D / 2.0)) & set(dec.universe())) for s in dec.all_sets()]
        assert list(disjoint_to_cover(dec).sets) == want


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
        images.append(checked(simplex, {v: w / sum(raw) for v, w in enumerate(raw)}))
    return space, pts, images


def pairwise_sup(space, pts, images):
    best = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = space.dist(pts[i], pts[j])
            if d > 0:
                best = max(best, point_distance(images[i], images[j]) / d)
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

    def test_used_columns_order(self):
        # the order a row-major scan first meets the columns, which is the
        # per-point coordinate matrix's first-seen order
        block = np.array([[0.0, 1.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.5], [0.0, 0.0, 0.0, 1.0]])
        assert used_columns(block).tolist() == [1, 0, 3]
        simplex = SimplicialComplex.from_maximal("abcd", ["abcd"])
        pts = [row_coords(simplex, row) for row in block]
        assert block[:, used_columns(block)].tolist() == coordinate_matrix(pts).tolist()
        assert coordinate_matrix(pts).tolist() == [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]]

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

    def test_identity_map_temporaries_stay_small(self):
        self.assert_identity_temporaries_stay_small(path_space(2000))

    def test_pair_loop_temporaries_stay_small(self):
        # the same matrix without its edges: the pair loop runs
        self.assert_identity_temporaries_stay_small(FiniteMetricSpace(path_space(2000).matrix))

    @staticmethod
    def assert_identity_temporaries_stay_small(space):
        f = map_between_spaces(space, space, range(space.n))
        tracemalloc.start()
        try:
            assert measured_lipschitz(f) == 1.0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


# ---------------------------------------------------------------------------
# the edge certificate


def reference_sup_ratio(space, pts, X):
    """The all-pairs loop ``sup_ratio`` runs without a certificate, with
    its arithmetic: one row difference per pair, in one block."""
    idx = np.asarray(pts, dtype=np.intp)
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    best = 0.0
    for i in range(len(idx) - 1):
        diff = X[i + 1:] - X[i]
        norms = np.abs(diff[:, 0]) if X.shape[1] == 1 else np.sqrt(np.einsum("ij,ij->i", diff, diff))
        dist = space.matrix[idx[i], idx[i + 1:]]
        pos = dist > 0
        if pos.any():
            best = max(best, float((norms[pos] / dist[pos]).max()))
    return best


def reference_certificate(space, pts):
    """Conditions (a)-(c) of ``edge_certificate``, one point and one edge
    at a time; the set of local (a, b) edges with a < b, or None."""
    edges = space.meta.get("edges")
    if space.provenance != "graph-shortest-path" or edges is None or len(set(pts)) != len(pts):
        return None
    d = space.dist
    if any(d(p, p) != 0 for p in pts):
        return None
    local = {p: i for i, p in enumerate(pts)}
    inside = [(u, v, w) for u, v, w in edges if u != v and u in local and v in local]
    if not all(0 < d(u, v) <= w and 0 < d(v, u) <= w for u, v, w in inside):
        return None
    into = {p: [] for p in pts}
    for u, v, w in inside:
        into[v].append((u, w))
        into[u].append((v, w))
    for s in pts:
        for v in pts:
            if s != v and not any(d(s, u) + w <= d(s, v) for u, w in into[v]):
                return None
    return {tuple(sorted((local[u], local[v]))) for u, v, _ in inside}


def certified_edges(space, pts):
    out = edge_certificate(space, pts)
    return None if out is None else set(zip(out[0].tolist(), out[1].tolist()))


@st.composite
def coordinate_rows(draw, n):
    """n coordinate rows of 1 to 4 columns; a 1-d array for one column."""
    cols = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.floats(-10, 10), min_size=cols, max_size=cols), min_size=n, max_size=n))
    X = np.array(rows, dtype=float).reshape(n, cols)
    return X[:, 0] if cols == 1 else X


class TestEdgeCertificate:
    @SETTINGS
    @given(weighted_graphs(min_n=2, integer=True), st.data(), st.sampled_from([1, 3, metric_core.SUP_RATIO_BLOCK]))
    def test_whole_integer_graph_takes_the_edge_path(self, space, data, block):
        pts = range(space.n)
        X = data.draw(coordinate_rows(space.n))
        values = X if X.ndim == 1 else X[:, 0]
        target = data.draw(weighted_graphs())
        images = data.draw(st.lists(st.integers(0, target.n - 1), min_size=space.n, max_size=space.n))
        want_finite = max(
            target.dist(images[i], images[j]) / space.dist(i, j)
            for i in range(space.n)
            for j in range(i + 1, space.n)
        )
        # small blocks split the edge list and the Bellman scan
        with mock.patch.object(metric_core, "SUP_RATIO_BLOCK", block):
            assert edge_certificate(space, pts) is not None
            assert sup_ratio(space, pts, X) == pytest.approx(reference_sup_ratio(space, pts, X), rel=1e-12, abs=0)
            want = reference_sup_ratio(space, pts, values)
            assert measured_lipschitz(map_to_reals(space, values)) == pytest.approx(want, rel=1e-12, abs=0)
            f = map_between_spaces(space, target, images)
            assert measured_lipschitz(f) == pytest.approx(want_finite, rel=1e-12, abs=0)

    @pytest.mark.parametrize("space", [path_space(7), cycle_space(6), grid_space(3, 5)], ids=["path", "cycle", "grid"])
    def test_whole_unit_graphs_pass(self, space):
        edges = certified_edges(space, range(space.n))
        assert edges == reference_certificate(space, list(range(space.n)))
        assert len(edges) == len(space.meta["edges"])

    @SETTINGS
    @given(weighted_graphs(min_n=2), st.data(), st.integers(1, 12))
    def test_any_point_list_matches_pair_loop(self, space, data, block):
        pts = data.draw(st.lists(st.integers(0, space.n - 1), max_size=space.n + 2))
        X = data.draw(coordinate_rows(len(pts)))
        assert certified_edges(space, pts) == reference_certificate(space, pts)
        want = reference_sup_ratio(space, pts, X)
        assert sup_ratio(space, pts, X) == pytest.approx(want, rel=1e-12, abs=0)
        # blocks smaller than a row: several blocks per scan
        with mock.patch.object(metric_core, "SUP_RATIO_BLOCK", block):
            assert certified_edges(space, pts) == reference_certificate(space, pts)
            assert sup_ratio(space, pts, X) == pytest.approx(want, rel=1e-12, abs=0)

    def test_cycle_without_a_point_is_rejected(self):
        # d(2, 4) = 2 runs through the missing point 3; inside the set the
        # only route has length 4, so no edge maximum bounds that pair
        space, pts = cycle_space(6), [0, 1, 2, 4, 5]
        assert edge_certificate(space, pts) is None
        X = [1.0, 0.5, 0.0, 2.0, 1.5]
        assert max(abs(X[i] - X[j]) for i, j in [(0, 1), (1, 2), (3, 4), (4, 0)]) == 0.5
        assert sup_ratio(space, pts, X) == reference_sup_ratio(space, pts, X) == 1.0

    @SETTINGS
    @given(weighted_graphs(min_n=2), st.data())
    def test_forged_light_edge_is_rejected(self, space, data):
        u, v = data.draw(st.lists(st.integers(0, space.n - 1), min_size=2, max_size=2, unique=True))
        space.meta["edges"].append((u, v, space.dist(u, v) * data.draw(st.floats(0.01, 0.99))))
        assert edge_certificate(space, range(space.n)) is None
        assert reference_certificate(space, list(range(space.n))) is None

    def test_repeated_point_is_rejected(self):
        space = path_space(4)
        assert edge_certificate(space, [0, 1, 1, 2]) is None
        assert sup_ratio(space, [0, 1, 1, 2], [0.0, 3.0, 1.0, 2.0]) == 3.0

    def test_spaces_without_edges_are_rejected(self):
        space = path_space(4)
        assert edge_certificate(FiniteMetricSpace(space.matrix), range(4)) is None
        assert edge_certificate(FiniteMetricSpace(space.matrix, provenance="graph-shortest-path"), range(4)) is None

    def test_certificate_temporaries_stay_small(self):
        space = grid_space(4, 500)
        X = np.arange(space.n, dtype=float) % 500
        tracemalloc.start()
        try:
            assert sup_ratio(space, range(space.n), X) == 1.0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert edge_certificate(space, range(space.n)) is not None


# ---------------------------------------------------------------------------
# one block rule for every matrix scan


class TestOneBlockRule:
    @SETTINGS
    @given(weighted_graphs(min_n=2), weighted_graphs(), st.data(), st.sampled_from([1, 3, 64, metric_core.SUP_RATIO_BLOCK]))
    def test_pair_loop_matches_reference_bit_for_bit(self, graph, target, data, block):
        # a bare matrix keeps no edges, so every pair is scanned, in row
        # blocks whose pairs carry the reference's arithmetic exactly
        space = FiniteMetricSpace(graph.matrix)
        pts = data.draw(st.lists(st.integers(0, space.n - 1), max_size=space.n + 2))
        X = data.draw(coordinate_rows(len(pts)))
        values = np.array(data.draw(st.lists(st.floats(-50, 50), min_size=space.n, max_size=space.n)))
        images = data.draw(st.lists(st.integers(0, target.n - 1), min_size=space.n, max_size=space.n))
        want_finite = max(
            target.dist(images[i], images[j]) / space.dist(i, j)
            for i in range(space.n)
            for j in range(i + 1, space.n)
        )
        with mock.patch.object(metric_core, "SUP_RATIO_BLOCK", block):
            assert sup_ratio(space, pts, X) == reference_sup_ratio(space, pts, X)
            assert measured_lipschitz(map_to_reals(space, values)) == reference_sup_ratio(space, range(space.n), values)
            assert measured_lipschitz(map_between_spaces(space, target, images)) == want_finite

    def test_only_row_blocks_reads_the_block_size(self):
        import ast
        import importlib
        import inspect
        import pkgutil

        import coarsedim

        names = [info.name for info in pkgutil.walk_packages(coarsedim.__path__, "coarsedim.")]
        assert [name for name in names if hasattr(importlib.import_module(name), "SUP_RATIO_BLOCK")] == [
            "coarsedim.metric_core"
        ]
        readers = {
            fn.name
            for fn in ast.walk(ast.parse(inspect.getsource(metric_core)))
            if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
            if isinstance(node, ast.Name) and node.id == "SUP_RATIO_BLOCK"
        }
        assert readers == {"_row_blocks"}


class TestChecksTemporariesStaySmall:
    """Checks on 2,000 points allocate below 1 MiB; an n x n float
    temporary alone would take 30.5 MiB."""

    @staticmethod
    def assert_peak_stays_small(check):
        tracemalloc.start()
        try:
            result = check()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        return result

    def test_diameter(self):
        space = path_space(2000)
        assert self.assert_peak_stays_small(lambda: diameter_of(space, range(2000))) == 1999.0

    def test_lebesgue_number_of_two_sets(self):
        # the worst point is 999 or 1000: 201 from the far end of one set
        cover = make_cover(path_space(2000), [range(0, 1200), range(800, 2000)])
        assert self.assert_peak_stays_small(lambda: lebesgue_number(cover)) == 201.0

    def test_verify_isometry(self):
        space = path_space(2000)
        reflection = [space.n - 1 - p for p in range(space.n)]
        assert self.assert_peak_stays_small(lambda: verify_isometry(space, space, reflection)) is None



@pytest.fixture(scope="module")
def thin_grid_assembly():
    """column_projection(4, 64) at r=2, the golden assembly of
    tests/test_hurewicz.py."""
    grid, path = grid_space(4, 64), path_space(64)
    f = map_between_spaces(grid, path, [p % 64 for p in range(grid.n)], 1.0)
    return build_assembly(make_config(f, 1.0, 1, 1, r=2.0, allow_sub_required=True))


def test_assembly_constants_take_the_edge_path(thin_grid_assembly):
    """Every tower fiber and the global map pass the certificate, and the
    report's constants equal the pair loop exactly."""
    asm = thin_grid_assembly
    space = asm.config.f.domain
    towers = [t for _, t in sorted(asm.towers.items())]
    def image(tower, x):
        return row_coords(tower.complex, asm.tower_map(tower, x))

    cases = [(t.fiber.indices, [image(t, x) for x in t.fiber]) for t in towers]
    cases.append((range(space.n), [image(asm.towers[asm.assignment[x]], x) for x in range(space.n)]))
    want = []
    for pts, images in cases:
        assert edge_certificate(space, pts) is not None
        X = coordinate_matrix(images)
        want.append(reference_sup_ratio(space, pts, X))
        assert sup_ratio(space, pts, X) == want[-1]
    assert [t["measured"] for t in asm.report["per_simplex"]] + [asm.report["measured_lipschitz"]] == want


# ---------------------------------------------------------------------------
# the tower coordinate blocks against the per-point evaluation they replace


def reference_cylinder_point(cyl, w, t):
    """The per-point cylinder quotient the block version replaced."""
    t = min(1.0, max(0.0, t))
    weights = dict(w)
    supp = cyl.source.sort_ids(weights)
    a = [weights[v] for v in supp]
    p = len(a)
    suffix = [0.0] * (p + 1)
    for j in range(p - 1, -1, -1):
        suffix[j] = suffix[j + 1] + a[j]
    valid = [i for i in range(p) if suffix[i + 1] <= t + COORD_EPS and t <= suffix[i] + COORD_EPS]
    i = max(valid)
    coords: dict = {}
    for j in range(i):
        coords[supp[j]] = coords.get(supp[j], 0.0) + a[j]
    coords[supp[i]] = coords.get(supp[i], 0.0) + (suffix[i] - t)
    top = {supp[i]: t - suffix[i + 1]}
    for j in range(i + 1, p):
        top[supp[j]] = top.get(supp[j], 0.0) + a[j]
    for v, weight in top.items():
        img = cyl.map.assignment[v]
        coords[img] = coords.get(img, 0.0) + weight
    return reference_point(cyl.complex, coords)


def reference_apply(g, point):
    acc: dict = {}
    for v, w in point:
        img = g.assignment[v]
        acc[img] = acc.get(img, 0.0) + w
    return reference_point(g.target, acc)


def reference_tower_value(config, tower, x):
    """The per-point tower evaluation the coordinate blocks replaced."""
    ts = t_coordinates(config, tower, x)
    assert ts[0] == 1.0
    phi = reference_canonical_projection(tower.faces[0].cover, x, tower.faces[0].nerve)
    for p, face in enumerate(tower.faces[1:], start=1):
        tp = ts[p]
        if tp <= 0.5:
            phi = reference_cylinder_point(tower.cylinders[p], phi, 2.0 * tp)
        else:
            pushed = reference_apply(tower.cylinders[p].map, phi)
            proj = reference_canonical_projection(face.cover, x, face.nerve)
            coords: dict = {}
            for v, w in pushed:
                coords[v] = coords.get(v, 0.0) + 2.0 * (1.0 - tp) * w
            for v, w in proj:
                coords[v] = coords.get(v, 0.0) + (2.0 * tp - 1.0) * w
            phi = reference_point(tower.cylinders[p].complex, coords)
    return phi


def reference_face_agreement(asm, flag_a, flag_b, values, tol=1e-9):
    """The per-point agreement loop over the eligible points, on the
    reference tower values ``values[flag][x]``."""
    ta, tb = asm.towers[flag_a], asm.towers[flag_b]
    both = np.intersect1d(ta.fiber.indices, tb.fiber.indices)
    ys = np.asarray(asm.config.f.images, dtype=np.intp)[both]

    def zero_above(tower):
        zero = [face.weights[ys] <= 1e-12 for face in tower.faces] + [np.ones(len(ys), bool)]
        return np.logical_and.accumulate(np.array(zero)[::-1])[::-1]

    za, zb = zero_above(ta), zero_above(tb)
    same = [fa == fb for fa, fb in zip(flag_a, flag_b)]
    prefix_len = same.index(False) if False in same else len(same)
    eligible = np.zeros(len(ys), dtype=bool)
    if prefix_len:
        eligible |= za[prefix_len] & zb[prefix_len]
    for pos in [i for i, s in enumerate(same) if s]:
        eligible |= (ta.faces[pos].weights[ys] >= 1.0 - 1e-12) & za[pos + 1] & zb[pos + 1]
    worst = 0.0
    witness = None
    for x in both[eligible].tolist():
        dev = point_distance(values[flag_a][x], values[flag_b][x])
        if dev > worst:
            worst = dev
            witness = x
    return {"pair": (flag_a, flag_b), "ok": worst <= tol, "points_checked": int(eligible.sum()),
            "max_deviation": worst, "witness": witness if worst > tol else None}


def column_projection(rows, cols):
    grid, path = grid_space(rows, cols), path_space(cols)
    return map_between_spaces(grid, path, [p % cols for p in range(grid.n)], 1.0)


def grid_identity(side):
    grid = grid_space(side, side)
    return map_between_spaces(grid, grid, range(grid.n), 1.0)


@pytest.fixture(scope="module")
def block_cases(thin_grid_assembly):
    """Assemblies with both t regimes, strictly inside (0, 1) as well, and
    (the identities at k=2) depth-2 towers."""
    return {
        "4x64-r2": thin_grid_assembly,
        "1x128-r8": build_assembly(make_config(column_projection(1, 128), 1.0, 1, 1, r=8.0,
                                               allow_sub_required=True)),
        "identity6x6-r1": build_assembly(make_config(grid_identity(6), 1.0, 1, 2, r=1.0,
                                                     allow_sub_required=True)),
        "identity8x8-r1.5": build_assembly(make_config(grid_identity(8), 1.0, 1, 2, r=1.5,
                                                       allow_sub_required=True)),
    }


@pytest.fixture(scope="module")
def reference_values(block_cases):
    """values[case][flag][x]: the per-point tower value at every fiber point."""
    return {
        name: {flag: {x: reference_tower_value(asm.config, tower, x) for x in tower.fiber}
               for flag, tower in asm.towers.items()}
        for name, asm in block_cases.items()
    }


class TestTowerBlocks:
    def test_rows_match_the_per_point_evaluation(self, block_cases, reference_values):
        regimes = set()
        for name, asm in block_cases.items():
            for flag, tower in asm.towers.items():
                for x in tower.fiber:
                    got = row_coords(tower.complex, asm.tower_map(tower, x))
                    assert got == reference_values[name][flag][x]
                    for p, t in enumerate(t_coordinates(asm.config, tower, x)[1:], start=1):
                        regimes.add((p, t <= 0.5, 0 < t < 1))
        assert {(1, True, True), (1, False, True), (2, True, True), (2, False, False)} <= regimes

    def test_report_reads_the_per_point_values(self, block_cases, reference_values):
        # the constants, in coordinate_matrix's column order, and the open
        # stars of the per-point values
        for name, asm in block_cases.items():
            values = reference_values[name]
            space = asm.config.f.domain
            for entry, (flag, tower) in zip(asm.report["per_simplex"], sorted(asm.towers.items())):
                X = coordinate_matrix([values[flag][x] for x in tower.fiber])
                assert entry["measured"] == sup_ratio(space, tower.fiber.indices, X)
            images = [values[asm.assignment[x]][x] for x in range(space.n)]
            assert asm.report["measured_lipschitz"] == sup_ratio(space, range(space.n), coordinate_matrix(images))
            stars: dict = {}
            for x, image in enumerate(images):
                supp = [v for v, _ in image]
                for size in range(1, len(supp) + 1):
                    for sub in itertools.combinations(supp, size):
                        stars.setdefault(sub, []).append(x)
            assert asm.report["cobound"] == max(space.matrix[np.ix_(p, p)].max() for p in stars.values())

    def test_face_agreements_match_the_per_point_loop(self, block_cases, reference_values):
        for name in ("4x64-r2", "identity6x6-r1", "identity8x8-r1.5"):
            asm = block_cases[name]
            got = all_face_agreements(asm)
            want = [reference_face_agreement(asm, *pair, reference_values[name])
                    for pair in itertools.combinations(sorted(asm.towers), 2)
                    if set(pair[0]) & set(pair[1])]
            assert [{k: r[k] for k in ("pair", "points_checked", "ok", "witness")} for r in got] == \
                [{k: r[k] for k in ("pair", "points_checked", "ok", "witness")} for r in want]
            for g, w in zip(got, want):
                assert g["max_deviation"] == pytest.approx(w["max_deviation"], rel=0, abs=1e-12)
            assert sum(r["points_checked"] for r in got) > 0


@SETTINGS
@given(st.lists(st.sampled_from([0.0, 1e-13, -1e-13, 0.25, 0.5, 1.0, -0.25, 1 / 3]), min_size=3, max_size=3),
       st.booleans())
def test_point_check_matches_per_point_check(weights, bare):
    # a triangle, or its three vertices alone
    vertices = ("a", "b", "c")
    complex = SimplicialComplex.from_maximal(vertices, [] if bare else [vertices])
    coords = dict(zip(vertices, weights))
    try:
        want = reference_point(complex, coords)
    except (InputError, InvariantViolation) as exc:
        with pytest.raises(type(exc), match=str(exc).split(" ")[0]):
            checked(complex, coords)
    else:
        assert checked(complex, coords) == want


class TestTowerBlockChecks:
    """The per-point checks of the reference evaluation, on the block path."""

    def test_point_outside_the_carrier(self, thin_grid_assembly):
        asm = thin_grid_assembly
        tower = next(iter(asm.towers.values()))
        outside = next(x for x in range(asm.config.f.domain.n) if x not in tower.fiber)
        with pytest.raises(InputError, match="outside the cover's carrier"):
            projection_rows(tower.faces[0].cover, [tower.fiber.indices[0], outside])
        with pytest.raises(InputError, match="outside the tower fiber"):
            asm.tower_map(tower, outside)

    def test_level_zero_weight_not_one(self, thin_grid_assembly):
        asm = thin_grid_assembly
        tower = next(iter(asm.towers.values()))
        base = tower.faces[0]
        x = tower.fiber.indices[-1]
        weights = base.weights.copy()
        weights[asm.config.f.images[x]] = 0.75
        forged = dataclasses.replace(
            tower, faces=(dataclasses.replace(base, weights=weights),) + tower.faces[1:])
        with pytest.raises(InvariantViolation, match="level-0 weight") as excinfo:
            tower_values(asm.config, forged)
        images = asm.config.f.images
        assert excinfo.value.witness == next(p for p in tower.fiber if images[p] == images[x])

    def test_support_not_a_simplex(self, thin_grid_assembly):
        asm = thin_grid_assembly
        # a tower whose level-0 projection puts some point on an edge
        tower = next(t for t in asm.towers.values()
                     if (projection_rows(t.faces[0].cover, t.fiber.indices) != 0).sum(axis=1).max() > 1)
        base = tower.faces[0]
        bare = SimplicialComplex.from_maximal(base.nerve.vertices, [])
        forged = dataclasses.replace(
            tower, faces=(dataclasses.replace(base, nerve=bare),) + tower.faces[1:])
        with pytest.raises(InvariantViolation, match="is not a simplex") as excinfo:
            tower_values(asm.config, forged)
        assert len(excinfo.value.witness) == 2


# ---------------------------------------------------------------------------
# distance to a set, and the set-geometry checks of covers built on it


def reference_set_distance(space, a, b):
    return space.matrix[np.ix_(sorted(a), sorted(b))].min()


def reference_carving(space, B, carrier=None, first_seed=None):
    """The per-point carving that the mask version replaced."""
    uni = PointSet.of(carrier) if carrier is not None else PointSet.universe(space.n)
    unassigned = set(uni.indices)
    clusters = []
    first = True
    while unassigned:
        if first and first_seed is not None and first_seed in unassigned:
            seed = first_seed
        else:
            seed = min(unassigned)
        first = False
        members = [p for p in unassigned if space.matrix[seed, p] <= B / 2.0 + TOL]
        clusters.append(PointSet.of(members))
        unassigned.difference_update(members)
    return clusters


def carrier_table(space, carrier=None):
    """A carrier's sorted ambient indices and its distance submatrix."""
    idx = np.array(sorted(carrier) if carrier is not None else range(space.n), dtype=np.intp)
    return idx, space.matrix[np.ix_(idx, idx)]


def clusters_of(idx, labels):
    """A label array's clusters as ambient point sets, in label order."""
    return [PointSet.of(idx[labels == i].tolist()) for i in range(labels.max(initial=-1) + 1)]


def reference_conflict_graph(space, clusters, D):
    adj = [set() for _ in clusters]
    for i in range(len(clusters)):
        for j in range(i + 1, len(clusters)):
            if reference_set_distance(space, clusters[i], clusters[j]) <= D:
                adj[i].add(j)
                adj[j].add(i)
    return adj


def reference_first_close_pair(space, family, d):
    """First pair i < j of nonempty members at most d apart, row-major."""
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            if not family[i] or not family[j]:
                continue
            dist = reference_set_distance(space, family[i], family[j])
            if dist <= d:
                return (i, j, dist)
    return None


def reference_saturated_union(space, vs, us, d):
    absorbed = [False] * len(us)
    merged = []
    for v in vs:
        acc = set(v)
        for i, u in enumerate(us):
            if reference_set_distance(space, v, u) <= d:
                acc.update(u)
                absorbed[i] = True
        merged.append(PointSet.of(acc))
    return merged + [PointSet.of(u) for i, u in enumerate(us) if not absorbed[i]]


def reference_chromatic_number(adj):
    """The two-solve version: greedy upper bound, first feasible k below
    it from the clique bound, then a second solve for the witness."""
    n = len(adj)
    if n == 0:
        return 0, []
    best = max(greedy_coloring(adj, [1] * n)) + 1
    k = _greedy_clique(adj)
    while k < best:
        if _lex_min_coloring(adj, k) is not None:
            best = k
            break
        k += 1
    return best, _lex_min_coloring(adj, best)


def families(space, max_size=4):
    """Lists of nonempty point sets of a space, overlaps and singletons
    included."""
    member = st.sets(st.integers(0, space.n - 1), min_size=1, max_size=max(1, space.n // 2))
    return st.lists(member, max_size=max_size)


class TestDistanceToSet:
    @SETTINGS
    @given(weighted_graphs(), st.data(), st.integers(1, 12))
    def test_matches_gathered_minimum(self, space, data, block):
        a = data.draw(st.sets(st.integers(0, space.n - 1), min_size=1))
        want = space.matrix[np.ix_(sorted(a), range(space.n))].min(axis=0)
        assert np.array_equal(distance_to_set(space, a), want)
        # blocks smaller than one row: one row gathered at a time
        with mock.patch.object(metric_core, "SUP_RATIO_BLOCK", block):
            assert np.array_equal(distance_to_set(space, a), want)

    @SETTINGS
    @given(weighted_graphs(), st.data(), st.integers(1, 12))
    def test_table_matches_pairwise_minima(self, space, data, block):
        fam_a = data.draw(families(space))
        fam_b = data.draw(families(space))
        want = np.array([[reference_set_distance(space, a, b) for b in fam_b] for a in fam_a])
        for size in (metric_core.SUP_RATIO_BLOCK, block):
            with mock.patch.object(metric_core, "SUP_RATIO_BLOCK", size):
                got = set_distances(space, fam_a, fam_b)
            assert got.shape == (len(fam_a), len(fam_b))
            assert np.array_equal(got, want.reshape(got.shape))

    @SETTINGS
    @given(weighted_graphs(), st.data())
    def test_empty_member_rejected(self, space, data):
        fam = data.draw(families(space))
        at = data.draw(st.integers(0, len(fam)))
        with_empty = fam[:at] + [set()] + fam[at:]
        with pytest.raises(InputError):
            set_distances(space, with_empty, fam)
        with pytest.raises(InputError):
            set_distances(space, fam, with_empty)

    def test_empty_set_rejected(self):
        with pytest.raises(InputError):
            distance_to_set(path_space(3), [])

    def test_overlap_is_zero(self):
        space = path_space(6)
        assert set_distances(space, [[0, 1, 2], [5]], [[2, 3], [4], [0]]).tolist() == [
            [0.0, 2.0, 0.0], [2.0, 1.0, 5.0]]


# ---------------------------------------------------------------------------
# carrier-local reads against the whole-row reads they replaced


def full_row_depths(cover):
    """The depth table read from every carrier row, the rows outside U
    included (where the minimum meets the diagonal entry d(x, x))."""
    car = np.array(cover.universe().indices)
    out = np.full((len(car), len(cover.sets)), math.inf)
    for j, inside in enumerate(cover.member):
        comp = car[~inside]
        if comp.size:
            out[:, j] = cover.space.matrix[np.ix_(car, comp)].min(axis=1)
    return out


def with_depths(cover, depths):
    """A copy of the cover whose cached depth table is ``depths``, so its
    projections and Lebesgue number are computed from them."""
    other = make_cover(cover.space, cover.sets, cover.carrier)
    other.__dict__["depths"] = depths
    return other


def full_row_enlargement(dec):
    """``disjoint_to_cover``'s sets as whole ambient rows gave them."""
    car = np.asarray(dec.universe().indices, dtype=np.intp)
    half = dec.D / 2.0
    return [PointSet(tuple(car[distance_to_set(dec.space, s)[car] <= half + TOL].tolist())) for s in dec.all_sets()]


def full_row_set_distances(space, fam_a, fam_b):
    cols = np.array([p for b in fam_b for p in sorted(b)], dtype=np.intp)
    starts = np.cumsum([0] + [len(b) for b in fam_b[:-1]])
    return np.array([np.minimum.reduceat(distance_to_set(space, a)[cols], starts) for a in fam_a]).reshape(
        len(fam_a), len(fam_b))


def boolean_or_certificate(space, idx):
    """``edge_certificate`` with the Bellman scan as one boolean OR per
    in-degree slot, as it was before the running minimum."""
    edges = space.graph_edges
    if edges is None:
        return None
    idx = np.asarray(idx, dtype=np.intp)
    m = space.matrix
    inside = _inside_edges(m, edges, idx)
    if inside is None or (m[idx, idx] != 0).any():
        return None
    a, b, w = inside
    pred, pred_w = _predecessor_table(a, b, w, len(idx))
    for block in _row_blocks(len(idx), len(idx)):
        rows = m[np.ix_(idx[block], idx)]
        held = np.zeros(rows.shape, dtype=bool)
        held[np.arange(len(rows)), np.arange(block.start, block.stop)] = True
        for k in range(len(pred)):
            via = rows[:, pred[k]]
            via += pred_w[k]
            held |= via <= rows
        if not held.all():
            return None
    return np.minimum(a, b), np.maximum(a, b)


def same_certificate(got, want):
    if got is None or want is None:
        return got is None and want is None
    return all(np.array_equal(g, w) for g, w in zip(got, want))


def planted_short_entry(space, s, v, d):
    """The graph space with d(s, v) = d(v, s) replaced by d, edges kept."""
    m = space.matrix.copy()
    m[s, v] = m[v, s] = d
    return FiniteMetricSpace(m, provenance="graph-shortest-path", meta={"edges": space.meta["edges"]})


def bits(a):
    """An array's bytes: equal exactly when every entry has the same bits
    (so 0.0 and -0.0 differ)."""
    return np.ascontiguousarray(a).tobytes()


def random_tree_space(n, seed, w=1.0):
    """A random tree on n vertices, every edge of weight w."""
    rng = np.random.default_rng(seed)
    return build_graph_metric(n, [(int(rng.integers(0, v)), v, w) for v in range(1, n)])


ANY_SPACE = st.one_of(weighted_graphs(), explicit_spaces())


class TestCarrierLocalReads:
    @SETTINGS
    @given(st.one_of(covers(spaces=ANY_SPACE), covers(whole=True, spaces=ANY_SPACE)), st.integers(1, 12))
    def test_depths_match_full_rows_bit_for_bit(self, cover, block):
        want = full_row_depths(cover)
        for x, row in zip(cover.universe(), want):
            assert row.tolist() == [reference_depth(cover, x, s) for s in cover.sets]
        with mock.patch.object(metric_core, "SUP_RATIO_BLOCK", block):
            fresh = make_cover(cover.space, cover.sets, cover.carrier)
            assert bits(fresh.depths) == bits(want)
        assert bits(cover.depths) == bits(want)
        old = with_depths(cover, want)
        assert bits(cover.projections) == bits(old.projections)
        assert lebesgue_number(cover) == lebesgue_number(old) == reference_lebesgue(cover)

    @SETTINGS
    @given(ANY_SPACE, st.data(), st.floats(0.0, 6.0), st.integers(1, 12))
    def test_enlarged_sets_match_full_rows(self, space, data, D, block):
        carrier = data.draw(st.sets(st.sampled_from(range(space.n)), min_size=1))
        dec = colored_decomposition(space, D, 2.0 * D, mode="greedy", carrier=carrier)
        want = full_row_enlargement(dec)
        assert list(disjoint_to_cover(dec).sets) == want
        with mock.patch.object(metric_core, "SUP_RATIO_BLOCK", block):
            assert list(disjoint_to_cover(dec).sets) == want

    @SETTINGS
    @given(ANY_SPACE, st.data(), st.integers(1, 12))
    def test_set_distances_match_full_rows_bit_for_bit(self, space, data, block):
        fam_a = data.draw(families(space))
        fam_b = data.draw(families(space))
        want = full_row_set_distances(space, fam_a, fam_b) if fam_a and fam_b else np.empty((len(fam_a), len(fam_b)))
        for size in (metric_core.SUP_RATIO_BLOCK, block):
            with mock.patch.object(metric_core, "SUP_RATIO_BLOCK", size):
                got = set_distances(space, fam_a, fam_b)
            assert got.shape == want.shape and bits(got) == bits(want)

    @SETTINGS
    @given(weighted_graphs(min_n=2), st.data(), st.integers(1, 12))
    def test_certificate_matches_boolean_scan(self, space, data, block):
        pts = data.draw(st.lists(st.integers(0, space.n - 1), max_size=space.n + 2))
        for idx in (pts, range(space.n)):
            want = boolean_or_certificate(space, idx)
            assert same_certificate(edge_certificate(space, idx), want)
            with mock.patch.object(metric_core, "SUP_RATIO_BLOCK", block):
                assert same_certificate(edge_certificate(space, idx), want)

    @pytest.mark.parametrize("space", [
        grid_space(3, 7), grid_space(1, 9), path_space(1), cycle_space(7), random_tree_space(40, 5),
        random_tree_space(30, 2, w=0.25), build_graph_metric(5, [(0, 1, 0.1), (1, 2, 1 / 3), (2, 3, 0.7), (3, 4, 2.2),
                                                           (0, 4, 3.3)]),
    ], ids=["grid3x7", "grid1x9", "point", "cycle7", "tree", "quarter-tree", "fractional-cycle"])
    def test_certificate_matches_boolean_scan_on_families(self, space):
        want = boolean_or_certificate(space, range(space.n))
        assert same_certificate(edge_certificate(space, range(space.n)), want)
        half = list(range(0, space.n, 2))
        assert same_certificate(edge_certificate(space, half), boolean_or_certificate(space, half))

    def test_planted_short_entry_is_rejected(self):
        grid = grid_space(3, 5)
        assert edge_certificate(grid, range(15)) is not None
        short = planted_short_entry(grid, 0, 14, 1.5)  # d(0, 14) is 6 in the grid
        assert boolean_or_certificate(short, range(15)) is None
        assert edge_certificate(short, range(15)) is None

    @pytest.mark.parametrize("diagonal", [1e-12, -1e-12, -0.0], ids=["positive", "negative", "negative-zero"])
    def test_diagonal_within_tolerance(self, diagonal):
        # build_explicit accepts a diagonal within TOL and keeps it; the
        # depth of a carrier point outside U is 0 by the identity axiom,
        # where the full-row minimum read that diagonal entry
        m = np.abs(np.subtract.outer(np.arange(6.0), np.arange(6.0)))
        np.fill_diagonal(m, diagonal)
        space = build_explicit(m)
        assert bits(np.diag(space.matrix)) == bits(np.full(6, diagonal))
        cover = make_cover(space, [[1, 2, 3], [2, 3, 4], [4, 5]], carrier=[1, 2, 3, 4, 5])
        old = full_row_depths(cover)
        outside = ~cover.member.T
        assert bits(cover.depths[~outside]) == bits(old[~outside])
        assert bits(old[outside]) == bits(np.full(outside.sum(), diagonal))  # the full-row read
        assert bits(cover.depths[outside]) == bits(np.zeros(outside.sum()))  # exactly +0.0
        assert ((cover.depths > 0) == cover.member.T).all()
        # the projection does not depend on the diagonal; in the full-row
        # depths a diagonal of +-1e-12 enters each row's depth total, moving
        # weights by about 1e-12 relative, and -0.0 moves nothing
        assert cover.projections.tolist() == [[1.0, 0.0, 0.0], [2 / 3, 1 / 3, 0.0], [1 / 3, 2 / 3, 0.0],
                                              [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]]
        before = with_depths(cover, old)
        assert np.abs(cover.projections - before.projections).max() <= 1e-11
        if diagonal == 0.0:
            assert bits(cover.projections) == bits(before.projections)
        assert lebesgue_number(cover) == lebesgue_number(before) == 1.0
        assert nerve(cover) == nerve(before)
        now, then = projection_lipschitz_check(cover), projection_lipschitz_check(before)
        assert now["measured"] == pytest.approx(then["measured"], rel=1e-11, abs=0)
        assert {k: v for k, v in now.items() if k != "measured"} == {k: v for k, v in then.items() if k != "measured"}


class TestSetGeometry:
    @SETTINGS
    @given(weighted_graphs(), st.data(), st.floats(0.0, 8.0))
    def test_carving_and_conflict_graph_match_references(self, space, data, B):
        carrier = data.draw(st.none() | st.sets(st.integers(0, space.n - 1)))
        idx, sub = carrier_table(space, carrier)
        for seed in [None, *range(idx.size)]:
            got = clusters_of(idx, carve_clusters(sub, B, seed))
            assert got == reference_carving(space, B, carrier, None if seed is None else int(idx[seed]))
        labels = carve_clusters(sub, B)
        D = data.draw(st.floats(0.0, 8.0))
        want = reference_conflict_graph(space, clusters_of(idx, labels), D)
        assert _conflict_graph(sub <= D, labels) == want

    @SETTINGS
    @given(weighted_graphs(), st.data(), st.floats(0.0, 6.0))
    def test_is_d_disjoint_witness(self, space, data, d):
        fam = data.draw(families(space, max_size=6))
        ok, witness = is_d_disjoint(space, fam, d)
        want = reference_first_close_pair(space, fam, d)
        assert ok == (want is None)
        assert witness == want

    @SETTINGS
    @given(weighted_graphs(), st.data(), st.floats(0.0, 6.0))
    def test_saturated_union(self, space, data, d):
        vs = data.draw(families(space))
        us = data.draw(families(space))
        assert saturated_union(space, vs, us, d) == reference_saturated_union(space, vs, us, d)

    @SETTINGS
    @given(weighted_graphs(min_n=2), st.data(), st.floats(0.0, 4.0))
    def test_union_cover_member_witness(self, space, data, r):
        members = data.draw(families(space, max_size=5).filter(bool))
        decomps = [colored_decomposition(space, 1, 3, "greedy", carrier=m) for m in members]
        core = data.draw(st.none() | st.sets(st.integers(0, space.n - 1), min_size=1))
        saturating = None if core is None else colored_decomposition(space, 1, 3, "greedy", carrier=core)
        trimmed = [set(m) - (core or set()) for m in members]
        want = reference_first_close_pair(space, trimmed, r)
        try:
            union_cover(members, decomps, saturating, r)
            got = None
        except InvariantViolation as exc:
            got = exc.witness if str(exc).startswith("members") else None
        assert got == want

    @SETTINGS
    @given(st.integers(0, 9), st.data())
    def test_chromatic_number_matches_two_solves(self, n, data):
        pairs = st.tuples(st.integers(0, max(0, n - 1)), st.integers(0, max(0, n - 1)))
        edges = data.draw(st.lists(pairs, max_size=3 * n)) if n else []
        adj = [set() for _ in range(n)]
        for u, v in edges:
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
        assert chromatic_number(adj) == reference_chromatic_number(adj)


# ---------------------------------------------------------------------------
# the exact carving scan


def reference_exact_scan(space, D, B, carrier=None):
    """The full scan that the color floor and the dedupe cut short: every
    carrier point seeds one carving, every carving is colored, and the
    first with the fewest colors is kept.  Returns the families."""
    uni = PointSet.of(carrier) if carrier is not None else PointSet.universe(space.n)
    best = None
    for seed in [None, *uni.indices[1:]]:
        clusters = reference_carving(space, B, carrier, seed)
        if len(clusters) > EXACT_CLUSTER_CAP:
            continue
        chi, witness = chromatic_number(reference_conflict_graph(space, clusters, D))
        if best is None or chi < best[0]:
            best = (chi, clusters, witness)
    _, clusters, witness = best
    families = [[] for _ in range(max(witness) + 1 if witness else 1)]
    for cluster, color in zip(clusters, witness):
        families[color].append(cluster)
    return tuple(tuple(fam) for fam in families)


def subset_chromatic(adj):
    """Exact chromatic number by dynamic programming over vertex subsets:
    a subset's count is one more than the least count of what remains
    after removing an independent subset through its lowest vertex.
    3^n steps for n vertices, where the backtracking of
    ``brute_force_chromatic`` takes about (n - 1)! on a complete graph
    (8 s for 10 vertices)."""
    n = len(adj)
    nbrs = [sum(1 << u for u in adj[v]) for v in range(n)]
    independent = [True] * (1 << n)
    for mask in range(1, 1 << n):
        rest = mask & (mask - 1)
        independent[mask] = independent[rest] and not nbrs[(mask & -mask).bit_length() - 1] & rest
    count = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low, rest = mask & -mask, mask & (mask - 1)
        best, sub = n, rest
        while True:  # every subset of rest, each with low added
            if independent[sub | low]:
                best = min(best, count[rest & ~sub] + 1)
            if not sub:
                break
            sub = (sub - 1) & rest
        count[mask] = best
    return count[-1]


def min_carved_chromatic(space, D, B, carrier):
    """Exact minimum color count over the carvings of every seed, each
    distinct clustering colored once."""
    clusterings = {tuple(reference_carving(space, B, carrier, seed)) for seed in (carrier or [None])}
    return min(subset_chromatic(reference_conflict_graph(space, list(c), D)) for c in clusterings)


@SETTINGS
@given(st.integers(0, 7).flatmap(lambda n: st.tuples(st.just(n), st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))) if n else st.just(set()))))
def test_subset_chromatic_matches_brute_force(graph):
    n, pairs = graph
    adj = [set() for _ in range(n)]
    for u, v in pairs:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    assert subset_chromatic(adj) == brute_force_chromatic(adj)


def test_subset_chromatic_of_complete_graph():
    # the instance that made the brute-force reference the slowest tier-1 test
    assert subset_chromatic([set(range(10)) - {v} for v in range(10)]) == 10


@st.composite
def scan_instances(draw):
    """(space, carrier, D, B): carriers empty, one point, any subset, or
    split in two parts with D below their distance, so the carrier is not
    D-connected; None stands for the whole space."""
    space = draw(weighted_graphs())
    points = st.integers(0, space.n - 1)
    B = draw(st.floats(0.0, 8.0))
    kind = draw(st.sampled_from(["whole", "empty", "point", "subset", "split"]))
    D = draw(st.floats(0.0, 8.0))
    carrier = None
    if kind == "empty":
        carrier = set()
    elif kind == "point":
        carrier = {draw(points)}
    elif kind == "subset":
        carrier = draw(st.sets(points, min_size=1))
    elif kind == "split" and space.n >= 2:
        carrier = draw(st.sets(points, min_size=2))
        part = draw(st.sets(st.sampled_from(sorted(carrier)), min_size=1, max_size=len(carrier) - 1))
        gap = reference_set_distance(space, part, carrier - part)
        D = draw(st.floats(0.0, gap, exclude_max=True))
    return space, carrier, D, B


class TestExactScan:
    @SETTINGS
    @given(scan_instances())
    def test_matches_full_scan(self, instance):
        space, carrier, D, B = instance
        got = colored_decomposition(space, D, B, "exact", carrier=carrier)
        assert got.families == reference_exact_scan(space, D, B, carrier)
        assert got.colors == len(got.families)
        assert got.info["mode"] == "exact"
        assert got.info["label"] == "exact over carved clusterings"
        size = space.n if carrier is None else len(carrier)
        assert 1 <= got.info["distinct"] <= got.info["carvings"] <= max(1, size)

    @SETTINGS
    @given(scan_instances())
    def test_floor_is_below_every_carving(self, instance):
        space, carrier, D, B = instance
        idx, sub = carrier_table(space, carrier)
        floor = _color_floor(sub, sub <= D, B)
        assert floor == colored_decomposition(space, D, B, "exact", carrier=carrier).info["color_floor"]
        assert floor <= min_carved_chromatic(space, D, B, idx.tolist())
        assert (floor == 0) == (not idx.size)

    @pytest.mark.parametrize(
        "edges, D, B",
        [
            # a later carving with as many clusters needs fewer colors
            ([(0, 1, 1), (0, 2, 3), (2, 3, 1)], 1.0, 7.0),
            # a later carving is one cluster, below the first one's count
            ([(0, 1, 2), (1, 2, 2), (1, 3, 3)], 2.5, 7.0),
        ],
    )
    def test_later_carving_wins(self, edges, D, B):
        space = build_graph_metric(4, edges)
        got = colored_decomposition(space, D, B, "exact")
        assert got.families == reference_exact_scan(space, D, B)
        assert chromatic_number(_conflict_graph(space.matrix <= D, carve_clusters(space.matrix, B)))[0] == 2
        assert got.colors == 1
        assert got.info["carvings"] > 1

    def test_split_carrier_floor_cases(self):
        # two far-apart halves of a path: each carving needs two clusters,
        # but no D-edge joins them
        _, sub = carrier_table(path_space(10), [0, 1, 2, 7, 8, 9])
        assert _color_floor(sub, sub <= 3.0, 2.0) == 1
        assert _color_floor(sub, sub <= 5.0, 2.0) == 2
        assert _color_floor(sub, sub <= 5.0, 18.0) == 1

    @SETTINGS
    @given(weighted_graphs(min_n=2), st.data())
    def test_connected_two_colorable_first_carving_is_the_only_one(self, space, data):
        # D at least every edge weight: the whole space is D-connected
        D = max(w for _, _, w in space.meta["edges"]) + data.draw(st.floats(0.0, 2.0))
        B = data.draw(st.floats(0.0, 2.0 * space.diameter()))
        m = space.matrix
        assume(_color_floor(m, m <= D, B) == 2)
        assume(chromatic_number(_conflict_graph(m <= D, carve_clusters(m, B)))[0] == 2)
        with mock.patch.object(covers_module, "carve_clusters", wraps=carve_clusters) as spy:
            got = colored_decomposition(space, D, B, "exact")
        assert spy.call_count == 1
        assert (got.info["carvings"], got.info["distinct"], got.info["color_floor"]) == (1, 1, 2)
        assert got.families == reference_exact_scan(space, D, B)

    @SETTINGS
    @given(weighted_graphs(min_n=2), st.data(), st.floats(0.0, 8.0))
    def test_asymmetry_within_tolerance(self, space, data, B):
        # one pair's two sides differ by less than TOL and D lies between
        # them: conflicts read d(p, q) with p in the lower cluster, and the
        # floor, which needs both sides, stays below every carving
        p, q = data.draw(st.lists(st.integers(0, space.n - 1), min_size=2, max_size=2, unique=True))
        m = space.matrix.copy()
        m[p, q] += 2.0 ** -34
        D = float(m[q, p]) + 2.0 ** -35
        assert m[q, p] < D < m[p, q] < m[q, p] + TOL
        asym = FiniteMetricSpace(m)
        carrier = sorted(data.draw(st.sets(st.integers(0, space.n - 1))) | {p, q})
        idx, sub = carrier_table(asym, carrier)
        for seed in [None, *carrier]:
            clusters = reference_carving(asym, B, carrier, seed)
            labels = carve_clusters(sub, B, None if seed is None else carrier.index(seed))
            assert clusters_of(idx, labels) == clusters
            assert _conflict_graph(sub <= D, labels) == reference_conflict_graph(asym, clusters, D)
        assert _color_floor(sub, sub <= D, B) <= min_carved_chromatic(asym, D, B, carrier)

    @pytest.mark.parametrize("close_side, adj", [((0, 1), [{1}, {0}]), ((1, 0), [set(), set()])])
    def test_asymmetric_pair_conflicts_from_the_lower_cluster(self, close_side, adj):
        m = np.array([[0.0, 1.0 + 2.0 ** -34], [1.0 + 2.0 ** -34, 0.0]])
        m[close_side] = 1.0
        sub = FiniteMetricSpace(m).matrix
        D = 1.0 + 2.0 ** -35
        labels = carve_clusters(sub, 0.0)
        assert labels.tolist() == [0, 1]
        assert _conflict_graph(sub <= D, labels) == adj
        assert _color_floor(sub, sub <= D, 0.0) == 1


# ---------------------------------------------------------------------------
# the canonical projection's constant


def reference_projection_constant(cover):
    carrier = cover.universe().indices
    return pairwise_sup(cover.space, carrier, [projection_point(cover, x) for x in carrier])


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


# ---------------------------------------------------------------------------
# one whole-space certificate per space, one scan per fiber, batched
# diameters and the wide-row pair chunks


@st.composite
def graphs(draw):
    """(n, edges) of a connected graph with one lightest edge weight w in
    {0.1, 0.5, 1, 3} per pair, or, sometimes, two: a grid, a cycle, a tree
    or a random graph, sometimes with heavier parallel edges and
    self-loops."""
    w = draw(st.sampled_from([0.1, 0.5, 1.0, 3.0]))
    kind = draw(st.sampled_from(["grid", "cycle", "tree", "random"]))
    if kind == "grid":
        rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
        n, pairs = rows * cols, metric_core._grid_edges(rows, cols)
    elif kind == "cycle":
        n = draw(st.integers(3, 12))
        pairs = [(v, (v + 1) % n) for v in range(n)]
    else:
        n = draw(st.integers(1, 14))
        pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
        if kind == "random":
            pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    heavier = set(draw(st.lists(st.sampled_from(pairs), max_size=2))) if pairs else set()
    edges = [(u, v, 2.5 * w if (u, v) in heavier else w) for u, v in pairs]
    if pairs:
        extra = st.tuples(st.sampled_from(pairs), st.sampled_from([1.5, 2.0, 7.0]))
        edges += [(u, v, w * k) for (u, v), k in draw(st.lists(extra, max_size=3))]
    return n, draw(st.permutations(edges))


class TestWholeCertificate:
    @SETTINGS
    @given(graphs())
    def test_whole_space_is_scanned_once(self, graph):
        space = build_graph_metric(*graph)
        with mock.patch.object(metric_core, "_bellman_holds", wraps=metric_core._bellman_holds) as spy:
            got = edge_certificate(space, range(space.n))
            assert edge_certificate(space, np.arange(space.n)) is got is space.whole_certificate
        assert spy.call_count == (_inside_edges(space.matrix, space.graph_edges, np.arange(space.n)) is not None)
        assert same_certificate(got, boolean_or_certificate(space, range(space.n)))
        if got is not None:
            assert not got[0].flags.writeable and not got[1].flags.writeable

    def test_point_lists_other_than_the_whole_space_scan(self):
        space = grid_space(3, 4)
        with mock.patch.object(metric_core, "_bellman_holds", wraps=metric_core._bellman_holds) as spy:
            assert edge_certificate(space, list(range(11, -1, -1))) is not None  # whole, not in index order
            assert edge_certificate(space, range(6)) is not None
            assert edge_certificate(space, range(6)) is not None
        assert spy.call_count == 3


def reference_diameter(space, points):
    idx = sorted(points)
    return float(space.matrix[np.ix_(idx, idx)].max()) if idx else 0.0


class TestBatchedDiameters:
    @SETTINGS
    @given(ANY_SPACE, st.data(), st.sampled_from([1, 3, 16, metric_core.SUP_RATIO_BLOCK]))
    def test_match_per_set_scans(self, space, data, block):
        sets = data.draw(st.lists(st.sets(st.integers(0, space.n - 1)), max_size=8))
        want = [reference_diameter(space, s) for s in sets]
        with mock.patch.object(metric_core, "SUP_RATIO_BLOCK", block):
            got = metric_core.diameters_of(space, [PointSet.of(s) for s in sets])
            assert got.tolist() == want
            assert [diameter_of(space, s) for s in sets] == want

    def test_cover_and_validate_measure_in_one_batch(self):
        space = path_space(30)
        dec = colored_decomposition(space, 2.0, 4.0, mode="greedy")
        with mock.patch.object(covers_module, "diameters_of", wraps=metric_core.diameters_of) as spy:
            dec.validate()
            cover = disjoint_to_cover(dec)
            assert mesh(cover) == max(reference_diameter(space, s) for s in cover.sets)
        assert spy.call_count == 2

    def test_validate_reports_the_first_wide_set(self):
        space = path_space(10)
        dec = dataclasses.replace(colored_decomposition(space, 1.0, 4.0, mode="greedy"), B=1.5)
        with pytest.raises(InvariantViolation, match="diameter 2.0 > B=1.5") as err:
            dec.validate()
        assert err.value.witness == (0, 0, 2.0) and type(err.value.witness[2]) is float

    def test_point_outside_the_space_is_rejected(self):
        with pytest.raises(InputError, match="outside the space's 4 points"):
            metric_core.diameters_of(path_space(4), [PointSet.of([1, 2]), PointSet.of([3, 9])])


def reference_phi_matrix(asm):
    """Phi as a dense matrix, built point by point from ``tower_map``: one
    row per point, its columns the used vertices in the order a row-major
    scan of the points first meets them."""
    first, rows = {}, []
    for x in range(len(asm.assignment)):
        tower = asm.towers[asm.assignment[x]]
        row = asm.tower_map(tower, x)
        rows.append({tower.complex.vertices[c]: row[c] for c in np.flatnonzero(row != 0).tolist()})
        for v in rows[-1]:
            first.setdefault(v, len(first))
    out = np.zeros((len(rows), len(first)))
    for x, row in enumerate(rows):
        for v, value in row.items():
            out[x, first[v]] = value
    return out


def test_phi_triples_match_the_dense_matrix(thin_grid_assembly):
    from coarsedim.hurewicz import _phi_triples

    asm = thin_grid_assembly
    dense = reference_phi_matrix(asm)
    phi = _phi_triples(asm)
    n = len(asm.assignment)
    assert phi.width == dense.shape[1]
    assert bits(phi.rows(np.arange(n))) == bits(dense)
    picks = np.array([5, 0, 5, n - 1, 17])
    assert bits(phi.rows(picks)) == bits(dense[picks])
    assert [s.indices for s in phi.stars()] == [tuple(np.flatnonzero(col).tolist()) for col in dense.T]
    space = asm.config.f.domain
    assert asm.report["cobound"] == max(reference_diameter(space, np.flatnonzero(col)) for col in dense.T)
    assert asm.report["measured_lipschitz"] == reference_sup_ratio(space, range(n), dense)


def test_assembly_scans_each_fiber_once_and_the_domain_once():
    grid, path = grid_space(4, 256), path_space(256)
    f = map_between_spaces(grid, path, [p % 256 for p in range(grid.n)], 1.0)
    config = make_config(f, 1.0, 1, 1, r=2.0, allow_sub_required=True)
    with mock.patch.object(metric_core, "_bellman_holds", wraps=metric_core._bellman_holds) as spy:
        asm = build_assembly(config)
        first = [tuple(call.args[1].tolist()) for call in spy.call_args_list]
        build_assembly(config)  # the domain's certificate is kept by the space
        second = [tuple(call.args[1].tolist()) for call in spy.call_args_list[len(first):]]
    fibers = {t.fiber.indices for t in asm.towers.values()}
    assert len(asm.towers) == 72 and len(fibers) == 37
    assert len(first) == 38 and set(first) == fibers | {tuple(range(grid.n))}
    assert len(second) == 37 and set(second) == fibers
    assert grid.whole_certificate is not None


class TestWideRowChunks:
    @pytest.mark.parametrize("width, blocks", [(5, 838), (64, 1910)])
    def test_two_thousand_points_take_fewer_blocks(self, width, blocks):
        # (n - 1) * width exceeds a block, yet rows are grouped once they
        # fit; a wider row is one block, never cut into column chunks
        chunks = list(metric_core._pair_chunks(2000, width))
        assert len(chunks) == blocks < 1999
        for a, b in chunks:
            assert b.stop == 2000 and (len(a) == 1 or len(a) * (b.stop - b.start) * width <= metric_core.SUP_RATIO_BLOCK)

    @pytest.mark.parametrize("n, width", [(2, 3), (7, 1), (30, 4), (61, 13)])
    def test_chunks_cover_every_pair_once(self, n, width):
        for block in (1, 5, 64, metric_core.SUP_RATIO_BLOCK):
            with mock.patch.object(metric_core, "SUP_RATIO_BLOCK", block):
                pairs = [(int(a), b) for rows, cols in metric_core._pair_chunks(n, width)
                         for a in rows[:, 0] for b in range(cols.start, cols.stop) if b > a]
            assert sorted(pairs) == list(itertools.combinations(range(n), 2))
            assert len(set(pairs)) == len(pairs)

    @pytest.mark.parametrize("width", [5, 8, 16, 32, 64])
    def test_wide_rows_match_reference_bit_for_bit(self, width):
        # an edge-less space: every pair is scanned; (n - 1) * width exceeds
        # the block, so the longest rows are a block each
        n, block = 200, 1024
        space = FiniteMetricSpace(path_space(n).matrix)
        X = np.random.default_rng(width).normal(size=(n, width))
        want = reference_sup_ratio(space, range(n), X)
        shapes = []
        norms = metric_core._row_norms

        def spy(diff):
            shapes.append(diff.shape)
            return norms(diff)

        with mock.patch.object(metric_core, "SUP_RATIO_BLOCK", block), \
                mock.patch.object(metric_core, "_row_norms", spy):
            assert sup_ratio(space, range(n), X) == want
        assert all(rows == 1 or rows * cols * width <= block for rows, cols, _ in shapes)
        assert len(shapes) < n - 1
