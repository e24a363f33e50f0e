import math
import tracemalloc
import warnings

import numpy as np
import pytest

from coarsedim import metric_core
from coarsedim.errors import CapExceeded, InputError
from coarsedim.group_spaces import hyperbolic
from coarsedim.group_spaces.bounds import NormalSeries, asdim_upper_bound, hirsch_length, parse_bound_expr
from coarsedim.group_spaces.hyperbolic import (
    BallSpace,
    BallSpacePoint,
    geometric_radii,
    height_projection,
    hyperbolization,
)
from coarsedim.metric_core import (
    FiniteMetricSpace,
    build_graph_metric,
    measured_lipschitz,
    path_space,
    verify_metric_axioms,
)


class TestHirsch:
    def test_three_z(self):
        assert hirsch_length(NormalSeries.of(["Z", "Z", "Z"])) == 3

    def test_all_finite(self):
        assert hirsch_length(NormalSeries.of(["finite:2", "finite:3"])) == 0

    def test_mixed(self):
        assert hirsch_length(NormalSeries.of(["Z", "finite:2", "Z"])) == 2

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            NormalSeries.of([])


class TestBoundCalculator:
    def test_polycyclic_h3(self):
        rep = asdim_upper_bound({"rule": "polycyclic", "series": ["Z", "Z", "Z"]})
        assert rep["bound"] == 3
        assert any("Hirsch" in line for line in rep["derivation"])

    def test_free_product_of_ones(self):
        rep = asdim_upper_bound({"rule": "free_product", "left": 1, "right": 1})
        assert rep["bound"] == 1

    def test_free_product_zero_case_labeled(self):
        rep = asdim_upper_bound({"rule": "free_product", "left": 0, "right": 0})
        assert rep["bound"] == 1
        assert any("upper bound" in line for line in rep["derivation"])

    def test_amalgam(self):
        rep = asdim_upper_bound(
            {"rule": "amalgam", "c": 1, "a_quotient": 1, "b_quotient": 1}
        )
        assert rep["bound"] == 2

    def test_extension_nested(self):
        rep = asdim_upper_bound(
            {
                "rule": "extension",
                "quotient": {"rule": "polycyclic", "series": ["Z", "Z"]},
                "kernel": "Z",
            }
        )
        assert rep["bound"] == 3

    def test_leaves(self):
        assert asdim_upper_bound("Z")["bound"] == 1
        assert asdim_upper_bound("finite:5")["bound"] == 0
        assert asdim_upper_bound(2)["bound"] == 2

    def test_series_object_accepted(self):
        assert asdim_upper_bound(NormalSeries.of(["Z", "finite:2"]))["bound"] == 1

    @pytest.mark.parametrize("text, expr", [
        ("polycyclic:Z,finite:2,Z", {"rule": "polycyclic", "series": ["Z", "finite:2", "Z"]}),
        ("freeprod:0,Z", {"rule": "free_product", "left": 0, "right": "Z"}),
        ("amalgam:finite:2,1,Z", {"rule": "amalgam", "c": "finite:2", "a_quotient": 1, "b_quotient": "Z"}),
        ("extension:Z,,3", {"rule": "extension", "quotient": "Z", "kernel": 3}),
        ('{"rule": "leaf", "value": 4}', {"rule": "leaf", "value": 4}),
    ])
    def test_short_forms(self, text, expr):
        assert parse_bound_expr(text) == expr

    @pytest.mark.parametrize("expr, message", [
        (2.5, "bound expression 2.5 is not a whole number"),
        (True, "bound expression True is a bool"),
        (float("inf"), "bound expression inf is not a whole number"),
        ("finite:0", "bound expression 'finite:0' is not 'Z', 'finite' or 'finite:<m>'"),
        ("finitely", "bound expression 'finitely' is not 'Z', 'finite' or 'finite:<m>'"),
        ({"rule": "leaf", "value": -1}, "leaf value must be a real number in [0, inf), not -1"),
        ({"rule": "polycyclic", "series": ("Z",)}, "polycyclic series must be a list of quotients"),
        ({"rule": "polycyclic", "series": ["Z", 5]}, "series quotient 5 is not 'Z'"),
        ({"rule": "free_product", "left": 1, "right": 1, "extra": 0},
         "the free_product rule takes the keys left, right; bound expression has ['left', 'right', 'extra']"),
        ({"rule": "direct_product"}, "names no rule of leaf, polycyclic, extension, free_product, amalgam"),
        ({"rule": ["amalgam"]}, "names no rule of leaf, polycyclic, extension, free_product, amalgam"),
        ([1], "bound expression [1] is not a whole number"),
    ])
    def test_malformed_leaf_or_rule_rejected(self, expr, message):
        with pytest.raises(InputError) as exc:
            asdim_upper_bound(expr)
        assert message in str(exc.value)


def reference_ball_distance(base, p, q):
    """The per-pair formula the row-block table replaced."""
    d = base.dist(p.center, q.center)
    return 2.0 * math.log((d + max(p.radius, q.radius)) / math.sqrt(p.radius * q.radius))


class TestHyperbolization:
    @pytest.mark.parametrize("block", [metric_core.SUP_RATIO_BLOCK, 120, 7])
    @pytest.mark.parametrize("case", ["path", "weighted"])
    def test_matrix_matches_scalar_reference(self, monkeypatch, block, case):
        if case == "path":
            base, radii = path_space(10), geometric_radii(levels=5)
        else:
            edges = [(0, 1, 0.25), (1, 2, 3.5), (2, 3, 1.75), (3, 0, 2.0), (1, 3, 0.5)]
            base, radii = build_graph_metric(4, edges), geometric_radii(0.3, 1.7, 7)
        monkeypatch.setattr(metric_core, "SUP_RATIO_BLOCK", block)
        h = hyperbolization(base, radii)
        want = np.array([[0.0 if p == q else reference_ball_distance(base, p, q) for q in h.points]
                         for p in h.points])
        # numpy's log may differ from math.log in the last bit on some
        # platforms; everything else in the formula is correctly rounded
        np.testing.assert_array_max_ulp(h.space.matrix, want, maxulp=2)

    def test_same_point_zero(self):
        h = hyperbolization(path_space(3), [1.0, math.e])
        i = h.index[BallSpacePoint(0, 1.0)]
        assert h.space.dist(i, i) == 0.0

    def test_same_center_radius_ratio(self):
        h = hyperbolization(path_space(2), [1.0, math.e**2])
        i = h.index[BallSpacePoint(0, 1.0)]
        j = h.index[BallSpacePoint(0, math.e**2)]
        assert h.space.dist(i, j) == pytest.approx(2.0)

    def test_unit_separation(self):
        h = hyperbolization(path_space(2), [1.0])
        i = h.index[BallSpacePoint(0, 1.0)]
        j = h.index[BallSpacePoint(1, 1.0)]
        assert h.space.dist(i, j) == pytest.approx(2.0 * math.log(2.0))

    def test_metric_axioms_exhaustive(self):
        h = hyperbolization(path_space(10), geometric_radii(levels=5))
        report = verify_metric_axioms(h.space, triple_mode="exhaustive")
        assert report["ok"]

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(InputError):
            hyperbolization(path_space(2), [0.0, 1.0])

    @pytest.mark.parametrize("radius", [math.inf, math.nan, 1e200, 1e-200, -1.0])
    def test_radius_without_finite_square_rejected(self, radius):
        # sqrt(t * s) would overflow or vanish: inf or NaN entries and a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=r"^radii must be positive floats with a positive finite square, not "):
                hyperbolization(path_space(2), [1.0, radius])

    @pytest.mark.parametrize("t0, ratio, levels", [(1.0, 1e200, 5), (1e308, math.e, 5), (1.0, 1e100, 5)])
    def test_overflowing_radii_rejected(self, t0, ratio, levels):
        with pytest.raises(InputError, match=r"^the largest radius t0 \* ratio\*\*\(levels - 1\) is not a finite float"):
            geometric_radii(t0, ratio, levels)

    def test_largest_finite_radius_passes(self):
        assert geometric_radii(1.0, 1e100, 4)[-1] == 1e300

    def test_matrix_cap_before_allocation(self, monkeypatch):
        base = path_space(5)
        monkeypatch.setattr(hyperbolic, "MATRIX_CAP", 16)

        def no_allocation(*args, **kwargs):
            raise AssertionError("an n x n matrix was allocated")

        with monkeypatch.context() as m:
            m.setattr(np, "zeros", no_allocation)
            with pytest.raises(CapExceeded, match="has 15 points; its matrix exceeds cap 16"):
                hyperbolization(base, geometric_radii(levels=3))
        assert hyperbolization(path_space(4), [1.0]).space.n == 4  # 16 entries still build


class TestHeightProjection:
    def test_values(self):
        h = hyperbolization(path_space(3), [1.0, math.e])
        proj = height_projection(h)
        assert proj.images[h.index[BallSpacePoint(0, 1.0)]] == 0.0
        assert proj.images[h.index[BallSpacePoint(0, math.e)]] == pytest.approx(1.0)

    def test_one_lipschitz_exhaustive(self):
        h = hyperbolization(path_space(10), geometric_radii(levels=5))
        proj = height_projection(h)
        assert measured_lipschitz(proj) <= 1.0 + 1e-12

    def test_expanding_pair_witnessed(self):
        h = hyperbolization(path_space(3), [1.0, math.e])
        shrunk = BallSpace(FiniteMetricSpace(h.space.matrix * 0.1), h.points, h.base, h.index)
        # points are ordered by radius, then center: (0, 3) is the first
        # pair i < j whose radii differ
        with pytest.raises(InputError, match=r"pair \(0, 3\)"):
            height_projection(shrunk)

    def test_witness_is_the_first_pair_across_row_blocks(self, monkeypatch):
        # blocks of 2 rows of 24 points, with only the pairs among points
        # 5.. shrunk: the witness lies past the first blocks and is still
        # the first expanded pair i < j of the whole-matrix scan
        h = hyperbolization(path_space(8), [1.0, math.e, math.e**2])
        d = h.space.matrix.copy()
        d[5:, 5:] *= 0.5
        v = np.array([math.log(p.radius) for p in h.points])
        gap = np.abs(np.subtract.outer(v, v))
        i, j = map(int, np.argwhere(np.triu(gap > d + hyperbolic.HEIGHT_TOL, 1))[0])
        want = f"height projection expands pair {(i, j)}: {gap[i, j]} > {d[i, j]}"
        assert (i, j) == (5, 12)
        monkeypatch.setattr(metric_core, "SUP_RATIO_BLOCK", 2 * h.space.n)
        shrunk = BallSpace(FiniteMetricSpace(d), h.points, h.base, h.index)
        with pytest.raises(InputError) as excinfo:
            height_projection(shrunk)
        assert str(excinfo.value) == want

    def test_check_temporaries_stay_small(self):
        h = hyperbolization(path_space(400), geometric_radii(levels=5))
        tracemalloc.start()
        try:
            height_projection(h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert h.space.n == 2000 and peak < 1 << 20
