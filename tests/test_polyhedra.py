import math

import numpy as np
import pytest

from coarsedim import polyhedra
from coarsedim.covers import make_cover
from coarsedim.errors import InputError, InvariantViolation
from coarsedim.metric_core import build_explicit, grid_space, path_space
from coarsedim.polyhedra import (
    SimplicialComplex,
    SimplicialMap,
    check_rows,
    glue,
    mapping_cylinder,
    measure_cylinder_constant,
    measure_uniformization_constant,
    nerve,
    projection_lipschitz_check,
    projection_rows,
    refinement_map,
)

TRIANGLE = SimplicialComplex.from_maximal(["a", "b", "c"], [("a", "b", "c")])


def point(complex, coords):
    """The checked row of the point with weights ``{vertex: weight}``."""
    block = np.zeros((1, len(complex.vertices)))
    for v, w in coords.items():
        block[0, complex.positions[v]] = w
    return check_rows(complex, block)[0]


def barycenter(complex, simplex):
    return point(complex, {v: 1.0 / len(simplex) for v in simplex})


def as_dict(complex, row):
    """A row's nonzero weights by vertex."""
    nz = np.flatnonzero(row)
    return dict(zip([complex.vertices[c] for c in nz], row[nz].tolist()))


def projection(cover, x):
    """The canonical projection of one carrier point, by vertex index."""
    row = check_rows(nerve(cover), projection_rows(cover, [x]))[0]
    return as_dict(nerve(cover), row)


def unit_triangle_space():
    return build_explicit([[0, 1, 1], [1, 0, 1], [1, 1, 0]])


class TestComplex:
    def test_face_closure_enforced(self):
        with pytest.raises(InputError):
            SimplicialComplex(("a", "b"), frozenset({("a", "b")}))

    def test_dimension_and_maximal(self):
        assert TRIANGLE.dimension == 2
        assert TRIANGLE.maximal_simplices() == [("a", "b", "c")]

    def test_support_check(self):
        square = SimplicialComplex.from_maximal("abcd", [("a", "b"), ("c", "d")])
        with pytest.raises(InvariantViolation, match="is not a simplex") as excinfo:
            check_rows(square, np.array([[0.5, 0.5, 0.0, 0.0], [0.5, 0.0, 0.5, 0.0]]))
        assert excinfo.value.witness == ("a", "c")

    def test_distance_between_vertices(self):
        p = point(TRIANGLE, {"a": 1.0})
        q = point(TRIANGLE, {"b": 1.0})
        assert np.linalg.norm(p - p) == 0.0
        assert np.linalg.norm(p - q) == pytest.approx(math.sqrt(2))

    def test_vertex_to_opposite_edge_midpoint(self):
        p = point(TRIANGLE, {"a": 1.0})
        mid = barycenter(TRIANGLE, ("b", "c"))
        assert np.linalg.norm(p - mid) == pytest.approx(math.sqrt(1.5))


class TestNerve:
    def test_disjoint_sets_isolated_vertices(self):
        s = path_space(4)
        nv = nerve(make_cover(s, [[0, 1], [2, 3]]))
        assert nv.dimension == 0
        assert len(nv.vertices) == 2

    def test_triangle_boundary_without_filling(self):
        s = unit_triangle_space()
        nv = nerve(make_cover(s, [[0, 1], [1, 2], [2, 0]]))
        assert (0, 1) in nv.simplices and (1, 2) in nv.simplices and (0, 2) in nv.simplices
        assert (0, 1, 2) not in nv.simplices

    def test_single_edge(self):
        s = path_space(4)
        nv = nerve(make_cover(s, [[0, 1, 2], [1, 2, 3]]))
        assert nv.maximal_simplices() == [(0, 1)]


class TestCanonicalProjection:
    def test_point_in_one_set_goes_to_vertex(self):
        s = path_space(4)
        cover = make_cover(s, [[0, 1], [2, 3]])
        assert projection(cover, 0) == {0: 1.0}

    def test_midpoint_of_overlap(self):
        s = path_space(3)
        cover = make_cover(s, [[0, 1], [1, 2]])
        assert projection(cover, 1) == pytest.approx({0: 0.5, 1: 0.5})

    def test_endpoint_goes_to_vertex(self):
        s = path_space(3)
        cover = make_cover(s, [[0, 1], [1, 2]])
        assert projection(cover, 0) == pytest.approx({0: 1.0})

    def test_coordinates_sum_to_one_and_support_contains_point(self):
        s = grid_space(4, 4)
        cover = make_cover(s, [range(0, 8), range(4, 12), range(8, 16), [0, 15]])
        for x in range(s.n):
            p = projection(cover, x)
            assert sum(p.values()) == pytest.approx(1.0)
            for v in p:
                assert x in cover.sets[v]

    def test_whole_space_set_dominates(self):
        s = path_space(4)
        cover = make_cover(s, [range(4), [0, 1]])
        assert projection(cover, 0) == {0: 1.0}


class TestProjectionBound:
    def test_constant_map_whole_space(self):
        s = path_space(6)
        rep = projection_lipschitz_check(make_cover(s, [range(6)]))
        assert rep["measured"] == 0.0
        assert rep["ok"]

    def test_two_half_cover(self):
        s = path_space(10)
        rep = projection_lipschitz_check(make_cover(s, [range(0, 6), range(4, 10)]))
        assert rep["k"] == 1
        assert rep["lebesgue"] == 2.0
        assert rep["measured"] <= 25.0 / 2.0
        assert rep["ok"]

    def test_disjoint_two_point_cover(self):
        s = path_space(2)
        rep = projection_lipschitz_check(make_cover(s, [[0], [1]]))
        assert rep["k"] == 0
        assert rep["measured"] == pytest.approx(math.sqrt(2))
        assert rep["ok"]  # sqrt(2) <= 9 / 1

    def test_generated_covers_on_paths_and_grids(self):
        spaces = [path_space(12), path_space(20), grid_space(4, 5)]
        for s in spaces:
            n = s.n
            width = max(2, n // 3)
            sets = []
            start = 0
            while start < n:
                sets.append(range(start, min(n, start + width + 2)))
                start += width
            rep = projection_lipschitz_check(make_cover(s, sets))
            assert rep["ok"]


class TestRefinement:
    def test_self_refinement(self):
        # Lebesgue is infinite (one set is everything), so fine = coarse is
        # legal; each set prefers itself over mere containment
        s = path_space(10)
        cover = make_cover(s, [range(0, 10), range(0, 6)])
        rm = refinement_map(cover, cover, nerve(cover), nerve(cover))
        assert rm.assignment == {0: 0, 1: 1}

    def test_singletons_point_location(self):
        s = path_space(6)
        fine = make_cover(s, [[i] for i in range(6)])
        coarse = make_cover(s, [range(0, 4), range(2, 6)])
        rm = refinement_map(fine, coarse, nerve(fine), nerve(coarse))
        assert rm.assignment[0] == 0
        assert rm.assignment[5] == 1
        assert rm.assignment[2] == 0  # lowest index wins in the overlap

    def test_bricks_into_halves(self):
        s = path_space(10)
        fine = make_cover(s, [[0, 1, 2], [3, 4, 5], [6, 7], [8, 9]])
        coarse = make_cover(s, [range(0, 6), range(4, 10)])
        # Lebesgue(coarse) = 2 is not > mesh(fine) = 2, so widen the halves
        coarse = make_cover(s, [range(0, 7), range(3, 10)])
        rm = refinement_map(fine, coarse, nerve(fine), nerve(coarse))
        assert rm.assignment == {0: 0, 1: 0, 2: 1, 3: 1}

    def test_precondition_enforced(self):
        s = path_space(10)
        fine = make_cover(s, [range(0, 6), range(4, 10)])
        coarse = make_cover(s, [range(0, 6), range(4, 10)])
        with pytest.raises(InputError):
            refinement_map(fine, coarse, nerve(fine), nerve(coarse))


class TestMappingCylinder:
    def test_vertex_to_vertex_is_edge(self):
        src = SimplicialComplex.from_maximal([("s", 0)], [(("s", 0),)])
        dst = SimplicialComplex.from_maximal([("t", 0)], [(("t", 0),)])
        cyl = mapping_cylinder(SimplicialMap(src, dst, {("s", 0): ("t", 0)}))
        assert cyl.complex.dimension == 1
        p = cyl.point(point(src, {("s", 0): 1.0}), 0.25)
        assert as_dict(cyl.complex, p) == pytest.approx({("s", 0): 0.75, ("t", 0): 0.25})

    def test_edge_to_vertex_is_triangle(self):
        src = SimplicialComplex.from_maximal([("s", 0), ("s", 1)], [(("s", 0), ("s", 1))])
        dst = SimplicialComplex.from_maximal([("t", 0)], [(("t", 0),)])
        cyl = mapping_cylinder(SimplicialMap(src, dst, {("s", 0): ("t", 0), ("s", 1): ("t", 0)}))
        assert cyl.complex.dimension == 2
        assert len(cyl.complex.vertices) == 3

    def test_identity_on_edge_is_square(self):
        src = SimplicialComplex.from_maximal([("s", 0), ("s", 1)], [(("s", 0), ("s", 1))])
        dst = SimplicialComplex.from_maximal([("t", 0), ("t", 1)], [(("t", 0), ("t", 1))])
        cyl = mapping_cylinder(SimplicialMap(src, dst, {("s", 0): ("t", 0), ("s", 1): ("t", 1)}))
        triangles = [s for s in cyl.complex.simplices if len(s) == 3]
        assert len(triangles) == 2
        assert len(cyl.complex.vertices) == 4

    def test_bottom_is_isometric_copy(self):
        src = SimplicialComplex.from_maximal([("s", 0), ("s", 1), ("s", 2)], [(("s", 0), ("s", 1), ("s", 2))])
        dst = SimplicialComplex.from_maximal([("t", 0)], [(("t", 0),)])
        cyl = mapping_cylinder(SimplicialMap(src, dst, {v: ("t", 0) for v in src.vertices}))
        pts = [
            point(src, {("s", 0): 1.0}),
            barycenter(src, (("s", 0), ("s", 1))),
            barycenter(src, src.vertices),
        ]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                assert np.linalg.norm(
                    cyl.point(pts[i], 0.0) - cyl.point(pts[j], 0.0)
                ) == pytest.approx(np.linalg.norm(pts[i] - pts[j]))
            # t=0 keeps the exact source coordinates
            assert as_dict(cyl.complex, cyl.point(pts[i], 0.0)) == as_dict(src, pts[i])
        # the block quotient is the one-row quotient row by row
        block = np.array(pts)
        assert cyl.rows(block, [0.0, 0.5, 1.0]).tolist() == \
            [cyl.point(w, t).tolist() for w, t in zip(pts, [0.0, 0.5, 1.0])]

    def test_top_collapses_via_map(self):
        src = SimplicialComplex.from_maximal([("s", 0), ("s", 1)], [(("s", 0), ("s", 1))])
        dst = SimplicialComplex.from_maximal([("t", 0)], [(("t", 0),)])
        cyl = mapping_cylinder(SimplicialMap(src, dst, {("s", 0): ("t", 0), ("s", 1): ("t", 0)}))
        mid = barycenter(src, src.vertices)
        assert as_dict(cyl.complex, cyl.point(mid, 1.0)) == {("t", 0): 1.0}

    def test_quotient_continuity_across_prism_cells(self):
        src = SimplicialComplex.from_maximal([("s", 0), ("s", 1)], [(("s", 0), ("s", 1))])
        dst = SimplicialComplex.from_maximal([("t", 0), ("t", 1)], [(("t", 0), ("t", 1))])
        cyl = mapping_cylinder(SimplicialMap(src, dst, {("s", 0): ("t", 0), ("s", 1): ("t", 1)}))
        z = point(src, {("s", 0): 0.3, ("s", 1): 0.7})
        # boundary between prism cells sits at t = 0.7 for this point
        lo, hi = cyl.rows(np.array([z, z]), [0.7 - 1e-9, 0.7 + 1e-9])
        assert np.linalg.norm(lo - hi) < 1e-7

    def test_weights_short_of_t_have_no_cell(self):
        # the weights sum to 1 within check_rows' 1e-7 but stay below
        # t = 1, so no prism cell holds the point
        src = SimplicialComplex.from_maximal([("s", 0), ("s", 1)], [(("s", 0), ("s", 1))])
        dst = SimplicialComplex.from_maximal([("t", 0)], [(("t", 0),)])
        cyl = mapping_cylinder(SimplicialMap(src, dst, {v: ("t", 0) for v in src.vertices}))
        z = point(src, {("s", 0): 0.5, ("s", 1): 0.5 - 5e-8})
        want = (src.vertices, (0.5, 0.5 - 5e-8), 1.0)
        with pytest.raises(InvariantViolation, match="no cylinder cell") as excinfo:
            cyl.point(z, 1.0)
        assert excinfo.value.witness == want
        block = np.array([[0.25, 0.75], [0.5, 0.5 - 5e-8]])
        with pytest.raises(InvariantViolation, match="no cylinder cell") as excinfo:
            cyl.rows(block, [1.0, 1.0])
        assert excinfo.value.witness == want
        # at t = the weights' sum the point reaches the cylinder top
        assert list(as_dict(cyl.complex, cyl.point(z, 1.0 - 5e-8))) == [("t", 0)]


class TestUniformization:
    def test_vertex_cylinder_constant(self):
        c = measure_uniformization_constant(0)
        assert c == pytest.approx(math.sqrt(2))

    def test_constants_are_pinned(self):
        # the c-table every assembly report carries, bit for bit
        assert [measure_uniformization_constant(d) for d in range(4)] == [
            1.4142135623730951, 1.4142135623730951, 1.5533522542573694, 1.6601864068449173]

    def test_dimension_one_recorded(self):
        c = measure_uniformization_constant(1)
        assert c >= 1.0
        assert c >= measure_uniformization_constant(0) - 1e-9

    @pytest.mark.parametrize("dim", [0, 1, 2, 3])
    def test_cylinder_constant_matches_pairwise_loop(self, dim):
        # the pairwise loop the sup_ratio kernel replaced, kept as reference:
        # vertices, then barycenters of the larger simplices
        def loop_constant(cyl, t_steps=16):
            ts = [i / t_steps for i in range(t_steps + 1)]
            cells = sorted(cyl.source.simplices, key=lambda s: (len(s), s))
            samples = [barycenter(cyl.source, s) for s in cells if len(s) == 1]
            samples += [barycenter(cyl.source, s) for s in cells if len(s) >= 2]
            states = [(z, t, cyl.point(z, t)) for z in samples for t in ts]
            best = 0.0
            for i, (z1, t1, q1) in enumerate(states):
                for z2, t2, q2 in states[i + 1:]:
                    denom = math.hypot(np.linalg.norm(z1 - z2), t1 - t2)
                    if denom > 1e-12:
                        best = max(best, np.linalg.norm(q1 - q2) / denom)
            return best

        src = SimplicialComplex.from_maximal([("s", i) for i in range(dim + 1)],
                                             [tuple(("s", i) for i in range(dim + 1))])
        dst = SimplicialComplex.from_maximal([("t", 0)], [(("t", 0),)])
        cyl = mapping_cylinder(SimplicialMap(src, dst, {v: ("t", 0) for v in src.vertices}))
        assert measure_cylinder_constant(cyl) == pytest.approx(loop_constant(cyl), rel=1e-12)

    def test_explicit_sample(self):
        src = SimplicialComplex.from_maximal([("s", 0), ("s", 1)], [(("s", 0), ("s", 1))])
        dst = SimplicialComplex.from_maximal([("t", 0)], [(("t", 0),)])
        g = SimplicialMap(src, dst, {v: ("t", 0) for v in src.vertices})
        c = measure_cylinder_constant(mapping_cylinder(g))
        assert c >= 1.0


class TestGlue:
    def test_disjoint_union(self):
        a = SimplicialComplex.from_maximal(["a"], [("a",)])
        b = SimplicialComplex.from_maximal(["b"], [("b",)])
        g = glue([a, b])
        assert len(g.vertices) == 2
        assert g.dimension == 0

    def test_two_triangles_share_edge(self):
        t1 = SimplicialComplex.from_maximal(["a", "b", "c"], [("a", "b", "c")])
        t2 = SimplicialComplex.from_maximal(["b", "c", "d"], [("b", "c", "d")])
        g = glue([t1, t2])
        assert len(g.vertices) == 4
        assert len([s for s in g.simplices if len(s) == 3]) == 2


class TestUniformizationGuards:
    @pytest.mark.parametrize("measured", [
        [1.5, math.nan, 1.2], [math.nan, 1.0], [0.5, 0.75, 0.9],
    ], ids=["nan-after-max", "nan-first", "below-one"])
    def test_broken_measurement_raises(self, monkeypatch, measured):
        values = iter(measured)
        monkeypatch.setattr(polyhedra, "measure_cylinder_constant", lambda cyl: next(values))
        with pytest.raises(InvariantViolation):
            measure_uniformization_constant(len(measured) - 2)
