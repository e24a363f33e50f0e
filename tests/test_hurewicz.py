import json
import math
from pathlib import Path

import numpy as np
import pytest

from coarsedim import hurewicz
from coarsedim.errors import CapExceeded, InputError, StageFailure
from coarsedim.hurewicz import (
    all_face_agreements,
    build_assembly,
    default_c_table,
    lipschitz_recursion,
    make_config,
    proximity_weights,
    recursion_closed_form_bound,
    required_scale,
)
from coarsedim.metric_core import (
    build_graph_metric,
    grid_space,
    map_between_spaces,
    measured_lipschitz,
    path_space,
)
from coarsedim.polyhedra import check_rows, projection_rows


def constant_map(domain, codomain, point):
    return map_between_spaces(domain, codomain, [point] * domain.n, 0.0)


def column_projection(rows, cols):
    """Grid -> path map collapsing rows; 1-Lipschitz by construction."""
    grid = grid_space(rows, cols)
    path = path_space(cols)
    return map_between_spaces(grid, path, [p % cols for p in range(grid.n)], 1.0)


def t_coordinates(config, tower, x):
    """Proximity weights of f(x) to the tower's nested base regions."""
    y = config.f.images[x]
    return [float(face.weights[y]) for face in tower.faces]


def as_dict(complex, row):
    """A row's nonzero weights by vertex."""
    nz = np.flatnonzero(row)
    return dict(zip([complex.vertices[c] for c in nz], row[nz].tolist()))


def projection(face, x):
    """A fiber point's canonical projection into the face's nerve."""
    return as_dict(face.nerve, check_rows(face.nerve, projection_rows(face.cover, [x]))[0])


def phi(asm, x):
    """Phi at x, by vertex: x's row in its assigned tower's block."""
    tower = asm.towers[asm.assignment[x]]
    return as_dict(tower.complex, asm.tower_map(tower, x))


class TestScaleArithmetic:
    def test_required_scale_reference_value(self):
        assert required_scale(1.0, 1, 1, [1.0]) == 150.0

    def test_halving_epsilon_doubles_r(self):
        assert required_scale(0.5, 1, 1, [1.0]) == 2 * required_scale(1.0, 1, 1, [1.0])

    def test_k_zero_empty_product(self):
        assert required_scale(1.0, 1, 0, []) == 25.0
        assert required_scale(0.5, 0, 0, []) == 18.0

    def test_c_below_one_rejected(self):
        with pytest.raises(InputError):
            required_scale(1.0, 1, 1, [0.9])

    def test_recursion_base_case(self):
        lams = lipschitz_recursion(1, 1.0, 150.0, [], [150.0])
        assert lams == [25.0 / 150.0]

    def test_recursion_reference_value(self):
        lams = lipschitz_recursion(1, 1.0, 150.0, [1.0], [150.0, 150.0])
        assert lams[1] == pytest.approx(4 / 150 + 2 / 6 + 2 * 25 / 150)
        assert lams[1] == pytest.approx(0.693333333333)

    def test_recursion_below_closed_form(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(0, 3))
            k = int(rng.integers(1, 4))
            cs = [1.0 + 2.0 * rng.random() for _ in range(k)]
            r = required_scale(1.0, n, k, cs) * (1.0 + rng.random())
            lam = 1.0 + rng.random()
            # Lebesgue values above r, increasing
            Ls = sorted(r * (1.0 + rng.random(k + 1)))
            lams = lipschitz_recursion(n, lam, r, cs, Ls)
            for p in range(k + 1):
                assert lams[p] <= recursion_closed_form_bound(n, r, cs, p) + 1e-12

    def test_infinite_lebesgue_allowed(self):
        lams = lipschitz_recursion(1, 1.0, 10.0, [1.5], [math.inf, math.inf])
        assert lams[0] == 0.0
        assert lams[1] > 0.0  # the 4/(lam r) term survives

    def test_measured_c_table_at_least_one(self):
        cs = default_c_table(0, 2)
        assert all(c >= 1.0 for c in cs)

    def test_proximity_weights(self):
        assert proximity_weights(1.0, 4.0, [0.0, 2.0, 4.0, 9.0]).tolist() == [1.0, 0.5, 0.0, 0.0]


class TestConfig:
    def test_lambda_clamped_to_one(self):
        f = constant_map(path_space(4), path_space(4), 0)
        cfg = make_config(f, 1.0, 0, 0)
        assert cfg.lam == 1.0

    @pytest.mark.parametrize("n, k", [(9, 1), (6, 2), (0, 8)])
    def test_c_table_dimension_cap_before_measuring(self, monkeypatch, n, k):
        # measuring dimension 7 alone takes seconds, 8 about 20 s
        def never(dim):
            raise AssertionError(f"dimension {dim} was measured")

        monkeypatch.setattr(hurewicz, "measure_uniformization_constant", never)
        monkeypatch.setattr(hurewicz, "_C_CACHE", {})
        f = column_projection(4, 8)
        with pytest.raises(CapExceeded, match=rf"^n \+ k - 1 = {n + k - 1}: .* above dimension 6 is capped"):
            make_config(f, 1.0, n, k, r=2.0, allow_sub_required=True)

    def test_c_table_dimension_cap_bounds(self, monkeypatch):
        measured = []
        monkeypatch.setattr(hurewicz, "measure_uniformization_constant", lambda dim: measured.append(dim) or 1.5)
        monkeypatch.setattr(hurewicz, "_C_CACHE", {})
        f = column_projection(4, 8)
        assert make_config(f, 1.0, 5, 2, r=2.0, allow_sub_required=True).c_table == (1.5, 1.5)
        assert measured == [5, 6]
        # no dimension measured: k = 0, or a c_table passed
        assert make_config(f, 1.0, 9, 0, r=2.0, allow_sub_required=True).c_table == ()
        assert make_config(f, 1.0, 9, 1, r=2.0, c_table=[2.0], allow_sub_required=True).c_table == (2.0,)
        assert measured == [5, 6]

    def test_sub_required_needs_flag(self):
        f = column_projection(4, 8)
        with pytest.raises(InputError):
            make_config(f, 1.0, 1, 1, r=2.0)
        cfg = make_config(f, 1.0, 1, 1, r=2.0, allow_sub_required=True)
        assert not cfg.meets_required_scale


class TestDegenerateBase:
    def test_single_point_base(self):
        # one-point base: the whole construction is a fiber cover projection
        grid = grid_space(4, 4)
        point = path_space(1)
        f = constant_map(grid, point, 0)
        cfg = make_config(f, 1.0, 1, 0, r=2.0, allow_sub_required=True)
        asm = build_assembly(cfg)
        assert asm.K.dimension <= 1
        assert asm.report["towers"] == 1
        assert asm.report["cobound_ok"]

    def test_fiber_color_overflow_fails_with_stage(self):
        # a 2d fiber cannot be covered with one color at positive separation
        grid = grid_space(8, 8)
        point = path_space(1)
        f = constant_map(grid, point, 0)
        cfg = make_config(f, 1.0, 0, 0, r=1.1, allow_sub_required=True)
        with pytest.raises(StageFailure) as err:
            build_assembly(cfg)
        assert err.value.stage == "fiber-cover"


@pytest.fixture(scope="module")
def stress_assembly():
    f = column_projection(4, 64)
    cfg = make_config(f, 1.0, 1, 1, r=2.0, allow_sub_required=True)
    return build_assembly(cfg)


GOLDEN_REPORT = Path(__file__).parent / "data" / "assembly_column_projection_4x64_r2.json"
# measured constants; every other report field is combinatorial or an exact
# distance and must match exactly
MEASURED_FIELDS = {"measured_lipschitz", "cobound", "lambda_k", "lambda_k_per_simplex", "measured"}


def assert_matches_golden(got, want, path="report", measured=False):
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            assert_matches_golden(got[key], want[key], f"{path}.{key}", key in MEASURED_FIELDS)
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches_golden(g, w, f"{path}[{i}]", measured)
    elif measured:
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9), path
    else:
        assert got == want, path


class TestStressAssembly:
    """Thin 4 x 64 grid over a 64-path at a deliberately small scale: many
    towers, real cylinders, shared faces."""

    @pytest.fixture
    def asm(self, stress_assembly):
        return stress_assembly

    def test_report_matches_golden(self, asm):
        report = {k: v for k, v in asm.report.items() if k != "seed"}
        got = json.loads(json.dumps(report))
        assert_matches_golden(got, json.loads(GOLDEN_REPORT.read_text()))

    def test_dimension_bound(self, asm):
        assert asm.K.dimension <= 2

    def test_multiple_towers_with_real_cylinders(self, asm):
        assert asm.report["towers"] >= 4
        assert any(t.depth >= 1 for t in asm.towers.values())

    def test_per_tower_measured_below_recursion(self, asm):
        for entry in asm.report["per_simplex"]:
            assert entry["measured"] <= entry["lambda_k"] + 1e-9

    def test_recursion_below_closed_form(self, asm):
        for entry in asm.report["per_simplex"]:
            assert entry["lambda_k"] <= entry["closed_form_bound"] + 1e-9

    def test_cobounded(self, asm):
        assert asm.report["cobound_ok"]

    def test_face_agreements(self, asm):
        reports = all_face_agreements(asm)
        assert reports, "expected adjacent tower pairs"
        assert any(r["points_checked"] > 0 for r in reports)
        for r in reports:
            assert r["ok"], r

    def test_phi_total(self, asm):
        for x in range(asm.config.f.domain.n):
            assert abs(sum(phi(asm, x).values()) - 1.0) < 1e-9

    def test_support_sets_contain_point(self, asm):
        # every vertex of the image carrier is a cover set containing x
        for x in range(0, asm.config.f.domain.n, 7):
            for face, j in phi(asm, x):
                assert x in asm.face_covers[face].sets[j]

    def test_t_coordinates_cases(self, asm):
        tower = next(t for t in asm.towers.values() if t.depth == 1)
        cfg = asm.config
        for x in tower.fiber:
            ts = t_coordinates(cfg, tower, x)
            assert ts[0] == 1.0
            y = cfg.f.images[x]
            d = min(cfg.f.codomain.dist(y, w) for w in tower.faces[1].region)
            if d >= cfg.lam * cfg.r:
                assert ts[1] == 0.0
            if d == 0:
                assert ts[1] == 1.0

    def test_tower_value_at_zero_weight_is_base_projection(self, asm):
        # t_1 = 0 keeps the literal base-copy coordinates of the level-0
        # projection (the cylinder bottom embeds isometrically)
        cfg = asm.config
        hits = 0
        for tower in asm.towers.values():
            if tower.depth != 1:
                continue
            for x in tower.fiber:
                ts = t_coordinates(cfg, tower, x)
                if ts[1] == 0.0:
                    value = as_dict(tower.complex, asm.tower_map(tower, x))
                    assert value == projection(tower.faces[0], x)
                    hits += 1
        assert hits > 0

    def test_tower_value_at_full_weight_is_top_projection(self, asm):
        # t_1 = 1 wipes the history: the value is the level-1 projection
        cfg = asm.config
        hits = 0
        for tower in asm.towers.values():
            if tower.depth != 1:
                continue
            for x in tower.fiber:
                ts = t_coordinates(cfg, tower, x)
                if ts[1] == 1.0:
                    value = as_dict(tower.complex, asm.tower_map(tower, x))
                    assert value == pytest.approx(projection(tower.faces[1], x))
                    hits += 1
        assert hits > 0


REQUIRED_SCALE_GOLDEN = (
    Path(__file__).parent / "data" / "assembly_column_projection_1x2600_required.json"
)


def test_required_scale_report_matches_golden():
    """A 1 x 2600 grid over a 2600-path at the required scale for
    epsilon=1 (r about 212): fiber carriers of up to 1,061 points, each
    decomposed by the exact carving scan."""
    asm = build_assembly(make_config(column_projection(1, 2600), epsilon=1, n=1, k=1))
    report = {k: v for k, v in asm.report.items() if k != "seed"}
    got = json.loads(json.dumps(report))
    assert_matches_golden(got, json.loads(REQUIRED_SCALE_GOLDEN.read_text()))


@pytest.fixture(scope="module")
def depth2_assembly():
    g = grid_space(6, 6)
    f = map_between_spaces(g, g, range(36), 1.0)
    cfg = make_config(f, 1.0, 1, 2, r=1.0, allow_sub_required=True)
    return build_assembly(cfg)


DEPTH2_GOLDEN = Path(__file__).parent / "data" / "assembly_identity_grid6x6_r1.json"


class TestDepthTwoAssembly:
    """Identity of a 6 x 6 grid at r=1 with k=2: every tower has depth 2,
    so each g_2 composes two refinement steps."""

    def test_report_and_agreements_match_golden(self, depth2_assembly):
        want = json.loads(DEPTH2_GOLDEN.read_text())
        report = {k: v for k, v in depth2_assembly.report.items() if k != "seed"}
        assert_matches_golden(json.loads(json.dumps(report)), want["report"])
        got = [
            {k: rep[k] for k in ("pair", "points_checked", "ok", "witness")}
            for rep in all_face_agreements(depth2_assembly)
        ]
        assert json.loads(json.dumps(got)) == want["agreements"]
        assert sum(rep["points_checked"] for rep in got) == 478

    def test_g_maps_are_the_composed_refinement_steps(self, depth2_assembly):
        # g_2 is defined on both lower nerves and sends a nerve-0 vertex
        # where g_1 and then the last step send it
        for tower in depth2_assembly.towers.values():
            g1, g2 = tower.cylinders[1].map, tower.cylinders[2].map
            assert set(g2.assignment) == set(tower.cylinders[1].complex.vertices)
            for v in tower.faces[0].nerve.vertices:
                assert g2.assignment[v] == g2.assignment[g1.assignment[v]]


class TestFaceRecords:
    def test_towers_share_the_face_records(self, stress_assembly, depth2_assembly):
        for asm in (stress_assembly, depth2_assembly):
            for flag, tower in asm.towers.items():
                assert all(face is asm.faces[s] for s, face in zip(flag, tower.faces))
                assert tower.fiber == asm.faces[flag[0]].cover.universe()
            assert list(asm.faces) == sorted(asm.faces, key=lambda s: (len(s), s))
            assert asm.face_covers == {s: face.cover for s, face in asm.faces.items()}

    def test_region_and_weights_per_base_point(self, depth2_assembly):
        asm = depth2_assembly
        cfg = asm.config
        space_y = cfg.f.codomain
        for simplex, face in asm.faces.items():
            inter = set.intersection(*(set(asm.enlarged_cover.sets[v]) for v in simplex))
            assert set(face.region) == inter
            for y in range(space_y.n):
                d = min(space_y.dist(y, w) for w in face.region)
                assert face.weights[y] == max(0.0, (cfg.lam * cfg.r - d) / (cfg.lam * cfg.r))

    def test_fiber_cover_is_the_preimage_of_the_enlarged_sets(self, stress_assembly):
        asm = stress_assembly
        images = asm.config.f.images
        for simplex, face in asm.faces.items():
            union = set().union(*(set(asm.enlarged_cover.sets[v]) for v in simplex))
            want = [x for x in range(len(images)) if images[x] in union]
            assert list(face.cover.universe()) == want

    def test_agreement_points_match_the_per_point_rule(self, stress_assembly, depth2_assembly):
        # reference: the per-point eligibility loop the weight masks replace
        def eligible(cfg, ta, tb, x):
            tsa = t_coordinates(cfg, ta, x)
            tsb = t_coordinates(cfg, tb, x)
            prefix = 0
            while prefix < min(len(ta.flag), len(tb.flag)) and ta.flag[prefix] == tb.flag[prefix]:
                prefix += 1
            if prefix and all(t <= 1e-12 for t in tsa[prefix:] + tsb[prefix:]):
                return True
            return any(
                fa == fb and tsa[pos] >= 1.0 - 1e-12 and tsb[pos] >= 1.0 - 1e-12
                and all(t <= 1e-12 for t in tsa[pos + 1:] + tsb[pos + 1:])
                for pos, (fa, fb) in enumerate(zip(ta.flag, tb.flag))
            )

        # on the 8 x 8 identity at r=1.5 a few points are eligible only by
        # the common-prefix rule with a prefix of length 2
        g = grid_space(8, 8)
        f = map_between_spaces(g, g, range(64), 1.0)
        prefix_case = build_assembly(make_config(f, 1.0, 1, 2, r=1.5, allow_sub_required=True))
        for asm in (stress_assembly, depth2_assembly, prefix_case):
            for rep in all_face_agreements(asm):
                ta, tb = (asm.towers[flag] for flag in rep["pair"])
                both = set(ta.fiber) & set(tb.fiber)
                want = sum(eligible(asm.config, ta, tb, x) for x in both)
                assert rep["points_checked"] == want, rep["pair"]

    def test_assignment_depends_on_the_base_point_only(self, stress_assembly):
        asm = stress_assembly
        images = asm.config.f.images
        by_base: dict = {}
        for x, flag in asm.assignment.items():
            assert by_base.setdefault(images[x], flag) == flag


class TestRequiredScaleRun:
    def test_grid16_collapses_cleanly(self):
        f = column_projection(16, 16)
        cfg = make_config(f, 1.0, 1, 1)
        asm = build_assembly(cfg)
        assert cfg.meets_required_scale
        assert asm.report["measured_lipschitz"] <= 1.0
        assert asm.report["epsilon_certified"]
        assert asm.K.dimension <= 2


class TestBinaryTreeDepthMap:
    def test_levels_give_dimension_one(self):
        # depth-4 binary tree mapped to its depth line; level bands are
        # 1-colorable below separation 2, so the glued complex is a graph
        edges = []
        nodes = 2**4 - 1
        for v in range(1, nodes):
            edges.append((v, (v - 1) // 2))
        tree = build_graph_metric(nodes, edges)
        depth_of = [int(math.log2(v + 1)) for v in range(nodes)]
        path = path_space(4)
        f = map_between_spaces(tree, path, depth_of, 1.0)
        base = path  # manual base decomposition: two-level bricks
        from coarsedim.covers import ColoredDecomposition
        from coarsedim.metric_core import PointSet

        dec = ColoredDecomposition(
            path,
            ((PointSet.of([0, 1]),), (PointSet.of([2, 3]),)),
            D=1.8,
            B=1.0,
        )
        dec.validate()
        cfg = make_config(f, 1.0, 0, 1, r=0.9, allow_sub_required=True, mesh_multiplier=1.5)
        asm = build_assembly(cfg, base_decomposition=dec)
        assert asm.K.dimension <= 1
        assert asm.report["cobound_ok"]
