import math

import numpy as np
import pytest

from coarsedim.covers import (
    ColoredDecomposition,
    brute_force_chromatic,
    carve_clusters,
    chromatic_number,
    colored_decomposition,
    decomposition_from_json,
    decomposition_to_json,
    disjoint_to_cover,
    finite_union_cover,
    is_d_disjoint,
    lebesgue_number,
    make_cover,
    mesh,
    multiplicity,
    saturated_union,
    scale_dimension_profile,
    uniform_decomposition,
    union_cover,
    verify_isometry,
)
from coarsedim.errors import InputError, InvariantViolation
from coarsedim.metric_core import (
    PointSet,
    cycle_space,
    diameter_of,
    grid_space,
    path_space,
)


class TestBasics:
    def test_cover_must_cover(self):
        s = path_space(4)
        with pytest.raises(InputError, match=r"^family does not cover the carrier \(missing \[2, 3\]\)$"):
            make_cover(s, [[0, 1]])

    @pytest.mark.parametrize("carrier", [[0, 1, 2], []], ids=["proper", "empty"])
    def test_set_outside_carrier_rejected(self, carrier):
        with pytest.raises(InputError, match="is outside the cover's carrier"):
            make_cover(path_space(4), [[0, 1], [2, 3]], carrier=carrier)

    def test_fractional_point_rejected(self):
        # a fractional point is an error, not truncated to the set (0, 1)
        with pytest.raises(InputError, match="point 1.5 is not a whole number"):
            make_cover(path_space(4), [[0, 1.5], [2, 3]])

    def test_bool_point_rejected(self):
        # True == 1, but a bool is not a point; numpy integers are
        with pytest.raises(InputError, match="point True is a bool"):
            make_cover(path_space(4), [[0, True], [2, 3]])
        assert PointSet.of([np.int64(1), np.int32(0)]).indices == (0, 1)

    def test_multiplicity(self):
        s = path_space(4)
        assert multiplicity(make_cover(s, [[0, 1], [2, 3]])) == 1
        assert multiplicity(make_cover(s, [[0, 1, 2], [1, 2, 3]])) == 2
        whole = [list(range(4))] * 3
        assert multiplicity(make_cover(s, whole)) == 3

    def test_lebesgue_whole_space_flag(self):
        s = path_space(4)
        assert lebesgue_number(make_cover(s, [range(4)])) == math.inf

    def test_lebesgue_two_bricks(self):
        # max distance to a complement, per point: 3, 2, 2, 3 -> inf is 2
        s = path_space(4)
        assert lebesgue_number(make_cover(s, [[0, 1, 2], [1, 2, 3]])) == 2.0

    def test_lebesgue_disjoint_singletons(self):
        s = path_space(2)
        assert lebesgue_number(make_cover(s, [[0], [1]])) == 1.0

    def test_mesh(self):
        s = path_space(3)
        assert mesh(make_cover(s, [[0], [1], [2]])) == 0.0
        assert mesh(make_cover(s, [[0, 1, 2]])) == 2.0

    def test_is_d_disjoint(self):
        s = path_space(10)
        ok, _ = is_d_disjoint(s, [[0, 1]], 5)
        assert ok
        ok, _ = is_d_disjoint(s, [[0, 1], [4, 5]], 2)
        assert ok  # gap is 3 > 2
        ok, witness = is_d_disjoint(s, [[0, 1], [4, 5]], 3)
        assert not ok and witness == (0, 1, 3.0)


    @pytest.mark.parametrize("families", [
        [[[0, 1, 2, 3, 4, 5]], [[]]],
        [[[]], [[0, 1, 2, 3, 4, 5]]],
        [[[0, 1, 2], []], [[3, 4, 5]]],
        [[[]]],
    ])
    def test_decomposition_rejects_empty_sets(self, families):
        s = path_space(6)
        dec = ColoredDecomposition(
            s, tuple(tuple(PointSet.of(m) for m in fam) for fam in families), D=1, B=5
        )
        with pytest.raises(InputError, match="nonempty"):
            dec.validate()
        with pytest.raises(InputError, match="nonempty"):
            decomposition_from_json({"D": 1, "B": 5, "families": families}, s)


class TestSaturatedUnion:
    def test_empty_u_keeps_v(self):
        s = path_space(12)
        out = saturated_union(s, [[0, 1]], [], 3)
        assert [t.indices for t in out] == [(0, 1)]

    def test_merge_and_survive(self):
        s = path_space(11)
        out = saturated_union(s, [[0, 1]], [[3], [10]], 3)
        assert [t.indices for t in out] == [(0, 1, 3), (10,)]

    def test_all_absorbed(self):
        s = path_space(8)
        out = saturated_union(s, [[0, 1], [6, 7]], [[2], [5]], 2)
        assert len(out) == 2

    def test_finite_union_cover_example(self):
        s = path_space(10)
        a = ColoredDecomposition(s, ((PointSet.of([0, 1]), PointSet.of([4])),), D=1, B=1,
                                 carrier=PointSet.of([0, 1, 4]))
        b = ColoredDecomposition(s, ((PointSet.of([6, 7]),),), D=1, B=1,
                                 carrier=PointSet.of([6, 7]))
        out = finite_union_cover(a, b, d=1)
        out.validate()
        assert out.universe().indices == (0, 1, 4, 6, 7)
        assert out.B == b.B + 2 * (1 + a.B)

    def test_finite_union_empty_b_is_a(self):
        s = path_space(10)
        a = ColoredDecomposition(s, ((PointSet.of([0, 1]), PointSet.of([5, 6])),), D=2, B=1,
                                 carrier=PointSet.of([0, 1, 5, 6]))
        b = ColoredDecomposition(s, ((),), D=2, B=0, carrier=PointSet.of([]))
        out = finite_union_cover(a, b, d=2)
        assert sorted(t.indices for fam in out.families for t in fam) == [(0, 1), (5, 6)]

    def test_unmerged_singletons(self):
        s = path_space(20)
        a = ColoredDecomposition(s, ((PointSet.of([0]),),), D=1, B=0, carrier=PointSet.of([0]))
        b = ColoredDecomposition(s, ((PointSet.of([10]),),), D=1, B=0, carrier=PointSet.of([10]))
        out = finite_union_cover(a, b, d=3)
        assert len(out.families[0]) == 2

    def test_color_count_mismatch(self):
        s = path_space(4)
        a = ColoredDecomposition(s, ((PointSet.of([0]),), ()), D=1, B=0, carrier=PointSet.of([0]))
        b = ColoredDecomposition(s, ((PointSet.of([3]),),), D=1, B=0, carrier=PointSet.of([3]))
        with pytest.raises(InputError):
            finite_union_cover(a, b, d=1)

    def test_randomized_arithmetic(self):
        # absorbing side gets margin > 3d + 2R, which guarantees the
        # d-disjoint, r + 2(d+R)-bounded conclusion; checked exactly per trial
        rng = np.random.default_rng(42)
        s = path_space(200)
        for _ in range(100):
            d = int(rng.integers(1, 4))
            blocks_a, blocks_b = [], []
            cursor = 0
            r_mesh = int(rng.integers(1, 5))
            big_gap = 3 * d + 2 * r_mesh + 1
            while cursor < 180:
                width = int(rng.integers(1, r_mesh + 2))
                blocks_b.append(list(range(cursor, min(200, cursor + width))))
                cursor += width + big_gap
            cursor = int(rng.integers(0, 3))
            while cursor < 190:
                width = int(rng.integers(1, r_mesh + 1))
                blocks_a.append(list(range(cursor, min(200, cursor + width))))
                cursor += width + d + 1
            mesh_a = max(diameter_of(s, b) for b in blocks_a)
            mesh_b = max(diameter_of(s, b) for b in blocks_b)
            carrier_a = PointSet.of([p for b in blocks_a for p in b])
            carrier_b = PointSet.of([p for b in blocks_b for p in b])
            dec_a = ColoredDecomposition(
                s, (tuple(PointSet.of(b) for b in blocks_a),), D=d, B=mesh_a, carrier=carrier_a
            )
            dec_a.validate()
            dec_b = ColoredDecomposition(
                s, (tuple(PointSet.of(b) for b in blocks_b),), D=big_gap - 1, B=mesh_b, carrier=carrier_b
            )
            dec_b.validate()
            out = finite_union_cover(dec_a, dec_b, d=d)
            out.validate()  # includes d-disjointness and the mesh bound
            assert out.B == dec_b.B + 2 * (d + dec_a.B)


class TestDisjointToCover:
    def test_single_set(self):
        s = path_space(5)
        dec = ColoredDecomposition(s, ((PointSet.of(range(5)),),), D=2, B=4)
        cover = disjoint_to_cover(dec)
        assert len(cover.sets) == 1

    def test_two_color_bricks(self):
        s = path_space(10)
        dec = ColoredDecomposition(
            s,
            (
                (PointSet.of([0, 1, 2]), PointSet.of([6, 7, 8])),
                (PointSet.of([3, 4, 5]), PointSet.of([9])),
            ),
            D=2,
            B=2,
        )
        dec.validate()
        cover = disjoint_to_cover(dec)
        assert multiplicity(cover) == 2
        assert lebesgue_number(cover) > 1.0

    def test_zero_margin(self):
        s = path_space(4)
        dec = ColoredDecomposition(
            s, ((PointSet.of([0]), PointSet.of([2])), (PointSet.of([1]), PointSet.of([3]))),
            D=0, B=0,
        )
        cover = disjoint_to_cover(dec)
        assert sorted(t.indices for t in cover.sets) == [(0,), (1,), (2,), (3,)]


class TestColoring:
    def test_singletons_one_color(self):
        s = path_space(5)
        dec = colored_decomposition(s, D=0.5, B=0, mode="exact")
        assert dec.colors == 1
        assert all(len(t) == 1 for fam in dec.families for t in fam)

    def test_path10_two_colors(self):
        s = path_space(10)
        dec = colored_decomposition(s, D=2, B=2, mode="exact")
        assert dec.colors == 2
        # brute-force oracle agrees 1 color is impossible for this carving
        from coarsedim.covers import _conflict_graph

        assert brute_force_chromatic(_conflict_graph(s.matrix <= 2, carve_clusters(s.matrix, 2))) == 2

    def test_grid5_exact_three_colors(self):
        s = grid_space(5, 5)
        dec = colored_decomposition(s, D=2, B=4, mode="exact")
        from coarsedim.covers import _conflict_graph

        oracle = brute_force_chromatic(_conflict_graph(s.matrix <= 2, carve_clusters(s.matrix, 4)))
        assert dec.colors <= oracle
        assert dec.colors == 3

    def test_greedy_at_least_exact(self):
        instances = [
            (path_space(12), 2, 3),
            (path_space(20), 3, 6),
            (cycle_space(9), 2, 4),
            (grid_space(3, 4), 2, 4),
            (grid_space(4, 4), 1, 3),
        ]
        for space, d, b in instances:
            greedy = colored_decomposition(space, d, b, mode="greedy")
            exact = colored_decomposition(space, d, b, mode="exact")
            assert greedy.colors >= exact.colors

    def test_exact_matches_brute_force(self):
        from coarsedim.covers import _conflict_graph

        for space, d, b in [
            (path_space(15), 2, 4),
            (cycle_space(10), 2, 3),
            (grid_space(3, 5), 2, 4),
        ]:
            adj = _conflict_graph(space.matrix <= d, carve_clusters(space.matrix, b))
            chi, witness = chromatic_number(adj)
            assert chi == brute_force_chromatic(adj)
            assert max(witness) + 1 == chi
            for u in range(len(adj)):
                for v in adj[u]:
                    assert witness[u] != witness[v]

    def test_decomposition_validates(self):
        s = grid_space(4, 6)
        dec = colored_decomposition(s, D=2, B=6, mode="greedy")
        dec.validate()
        for fam in dec.families:
            ok, _ = is_d_disjoint(s, fam, 2)
            assert ok


class TestUniformAndUnion:
    def test_single_space(self):
        s = path_space(10)
        out = uniform_decomposition([s], [list(range(10))], D=2, B=4)
        assert len(out) == 1

    def test_translated_copies(self):
        s = path_space(10)
        t = path_space(10)
        out = uniform_decomposition([s, t], [list(range(10)), list(range(10))], D=2, B=4)
        assert out[0].colors == out[1].colors

    def test_rotated_cycle(self):
        s = cycle_space(8)
        rotation = [(i + 3) % 8 for i in range(8)]
        out = uniform_decomposition([s, s], [list(range(8)), rotation], D=1, B=2)
        out[1].validate()

    def test_non_isometry_witnessed(self):
        s = path_space(4)
        with pytest.raises(InvariantViolation):
            verify_isometry(s, s, [0, 2, 1, 3])

    @pytest.mark.parametrize("assignment, message", [
        ([0, 1, 5], r"^image point 5 is outside the space's 3 points$"),
        ([0, 1.5, 2], r"^image point 1\.5 is not a whole number$"),
    ], ids=["out-of-range", "fractional"])
    def test_bad_image_point_rejected(self, assignment, message):
        s = path_space(3)
        with pytest.raises(InputError, match=message):
            verify_isometry(s, s, assignment)

    def test_whole_float_images_accepted(self):
        s = path_space(3)
        verify_isometry(s, s, [2.0, 1.0, 0.0])
        with pytest.raises(InvariantViolation) as excinfo:
            verify_isometry(s, s, [0.0, 2.0, 1.0])
        # pairs (0, 1) and (0, 2) are both off by 1: the first is the witness
        assert excinfo.value.witness == (0, 1, 1.0, 2.0)

    @pytest.mark.parametrize("block", [1, 24, 1 << 14])
    def test_witness_is_the_first_worst_pair_across_row_blocks(self, monkeypatch, block):
        from coarsedim import metric_core

        s = path_space(12)
        perm = np.random.default_rng(5).permutation(12)
        diff = np.abs(s.matrix[np.ix_(perm, perm)] - s.matrix)
        i, j = map(int, np.unravel_index(np.argmax(diff), diff.shape))
        monkeypatch.setattr(metric_core, "SUP_RATIO_BLOCK", block)
        with pytest.raises(InvariantViolation) as excinfo:
            verify_isometry(s, s, perm.tolist())
        assert excinfo.value.witness == (i, j, s.dist(i, j), s.dist(perm[i], perm[j]))

    def test_union_two_far_intervals(self):
        s = path_space(30)
        left, right = PointSet.of(range(0, 10)), PointSet.of(range(20, 30))
        dec_l = colored_decomposition(s, 2, 6, carrier=left)
        dec_r = colored_decomposition(s, 2, 6, carrier=right)
        out = union_cover([left, right], [dec_l, dec_r], None, r=2)
        assert out.colors == max(dec_l.colors, dec_r.colors)
        out.validate()

    def test_union_violation_witnessed(self):
        s = path_space(10)
        a, b = PointSet.of(range(0, 5)), PointSet.of(range(5, 10))
        dec_a = colored_decomposition(s, 1, 3, carrier=a)
        dec_b = colored_decomposition(s, 1, 3, carrier=b)
        with pytest.raises(InvariantViolation):
            union_cover([a, b], [dec_a, dec_b], None, r=2)

    def test_union_cross_shape(self):
        s = grid_space(7, 7)

        def idx(r, c):
            return r * 7 + c

        horizontal = PointSet.of(idx(3, c) for c in range(7))
        vertical = PointSet.of(idx(r, 3) for r in range(7))
        center = PointSet.of(
            idx(r, c) for r in range(7) for c in range(7) if abs(r - 3) + abs(c - 3) <= 1
        )
        arm_h = horizontal.difference(center)
        arm_v = vertical.difference(center)
        dec_h = colored_decomposition(s, 1, 2, carrier=arm_h)
        dec_v = colored_decomposition(s, 1, 2, carrier=arm_v)
        dec_c = colored_decomposition(s, 1, 2, carrier=center)
        out = union_cover([arm_h, arm_v], [dec_h, dec_v], dec_c, r=1)
        out.validate()
        assert out.colors == max(dec_h.colors, dec_v.colors, dec_c.colors)


class TestProfile:
    def test_single_point(self):
        s = path_space(1)
        rows = scale_dimension_profile(s, [1, 2, 4])
        assert all(r["colors"] == 1 for r in rows)

    def test_path64(self):
        s = path_space(64)
        rows = scale_dimension_profile(s, [2, 4, 8], mesh_multiplier=3)
        assert [r["colors"] for r in rows] == [2, 2, 2]
        assert rows[0]["mode"] in ("exact", "greedy")

    def test_grid8(self):
        s = grid_space(8, 8)
        rows = scale_dimension_profile(s, [2], mesh_multiplier=3)
        assert rows[0]["colors"] == 3

    @pytest.mark.parametrize("multiplier", [-1, -0.5, math.nan, "3"])
    def test_bad_mesh_multiplier_is_named(self, multiplier):
        # checked before any B = multiplier * D is formed, even for an empty D list
        for d_list in ([1], []):
            with pytest.raises(InputError, match=r"^mesh_multiplier must be a real number in \[0, inf\]"):
                scale_dimension_profile(path_space(4), d_list, mesh_multiplier=multiplier)


class TestJson:
    @pytest.mark.parametrize("doc, message", [
        ({"families": [[[0, 1], [8.5]]]}, "point 8.5 is not a whole number"),
        ({"families": [[[0, 1], [99]]]}, "point 99 is outside the space's 9 points"),
        ({"families": [[[0, 1], [-1]]]}, "point -1 is outside"),
        ({"families": [[[0, 1]]], "carrier": [0, 1.5]}, "point 1.5 is not a whole number"),
        ({"families": [[[0, 1]]], "carrier": [0, 1, 9]}, "point 9 is outside"),
    ], ids=["fractional", "too-large", "negative", "fractional-carrier", "carrier-outside"])
    def test_decomposition_points_must_be_space_points(self, doc, message):
        with pytest.raises(InputError, match=message):
            decomposition_from_json({"D": 1, "B": 5, **doc}, grid_space(3, 3))

    def test_decomposition_round_trip(self):
        s = path_space(10)
        dec = colored_decomposition(s, D=2, B=2, mode="exact")
        doc = decomposition_to_json(dec)
        assert set(doc) >= {"D", "B", "families"}
        dec2 = decomposition_from_json(doc, s)
        assert dec2.families == dec.families
