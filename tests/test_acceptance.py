"""Acceptance suite: one test per criterion, printing one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are pinned here (exact comparisons on integer-weight
data, 1e-9 on floats) and every expected value was computed by the
independent oracles in the module test suites before being frozen.
"""

import numpy as np
import pytest

from coarsedim.covers import (
    ColoredDecomposition,
    _conflict_graph,
    brute_force_chromatic,
    carve_clusters,
    chromatic_number,
    colored_decomposition,
    finite_union_cover,
    make_cover,
)
from coarsedim.group_spaces.bounds import asdim_upper_bound
from coarsedim.group_spaces.free_products import (
    PointedSpace,
    free_product_space,
    free_product_tree,
    tree_projection,
    word_stratification,
)
from coarsedim.group_spaces.groups import (
    cayley_ball,
    free_abelian_group,
    free_group,
    heisenberg_center_quotient,
    heisenberg_group,
    kernel_neighborhood_check,
)
from coarsedim.group_spaces.hyperbolic import (
    geometric_radii,
    height_projection,
    hyperbolization,
)
from coarsedim.hurewicz import (
    all_face_agreements,
    build_assembly,
    default_c_table,
    make_config,
    required_scale,
)
from coarsedim.metric_core import (
    PointSet,
    cycle_space,
    diameter_of,
    grid_space,
    map_between_spaces,
    measured_lipschitz,
    path_space,
    verify_metric_axioms,
)
from coarsedim.polyhedra import projection_lipschitz_check

FLOAT_TOL = 1e-9


def announce(line: str) -> None:
    print(line)


# ---------------------------------------------------------------------------


def test_criterion_01_metric_axiom_suite():
    """Every constructed space passes symmetry/positivity/triangle checks."""
    failures = []
    spaces = []

    spaces.append(("path-1000", path_space(1000)))
    spaces.append(("grid-31x31", grid_space(31, 31)))
    spaces.append(("cycle-500", cycle_space(500)))

    fps = free_product_space(PointedSpace(path_space(4), 0), PointedSpace(path_space(4), 0), 10)
    assert len(fps.words) <= 2000
    spaces.append((f"free-product-{len(fps.words)}w", fps.space))

    hyp1 = hyperbolization(path_space(20), geometric_radii(levels=5))
    hyp2 = hyperbolization(grid_space(6, 6), geometric_radii(levels=5))
    assert hyp1.space.n <= 500 and hyp2.space.n <= 500
    spaces.append((f"hyperbolization-{hyp1.space.n}", hyp1.space))
    spaces.append((f"hyperbolization-{hyp2.space.n}", hyp2.space))

    for name, group in (
        ("cayley-z2", free_abelian_group(2)),
        ("cayley-f2", free_group(2)),
        ("cayley-heisenberg", heisenberg_group()),
    ):
        ball = cayley_ball(group, 5)
        spaces.append((f"{name}-R5-{ball.space.n}", ball.space))

    for name, space in spaces:
        report = verify_metric_axioms(space, seed=2024)
        if not report["ok"]:
            failures.append((name, report["axiom"], report["witness"]))
    assert not failures, failures
    announce(f"criterion 1: PASS: {len(spaces)} spaces pass the metric axiom suite")


def test_criterion_02_projection_bound():
    """Canonical projection measured constant <= (2k+3)^2 / L on all pairs."""
    covers = []
    for n in (12, 18, 24, 30):
        for width in (4, 6):
            sets, start = [], 0
            while start < n:
                sets.append(range(start, min(n, start + width + 2)))
                start += width
            covers.append((f"path-{n}-w{width}", make_cover(path_space(n), sets)))
    for rows, cols in ((3, 4), (3, 5), (4, 5), (4, 6)):
        space = grid_space(rows, cols)
        for band in (1, 2):
            sets = []
            r = 0
            while r < rows:
                top = min(rows, r + band + 1)
                sets.append([i * cols + j for i in range(r, top) for j in range(cols)])
                r += band
            covers.append((f"grid-{rows}x{cols}-b{band}", make_cover(space, sets)))
    rng = np.random.default_rng(7)
    for trial in range(6):
        n = 20
        sets, start = [], 0
        while start < n:
            width = int(rng.integers(3, 7))
            sets.append(range(start, min(n, start + width + 2)))
            start += width
        covers.append((f"path-20-random-{trial}", make_cover(path_space(n), sets)))

    assert len(covers) >= 20
    for name, cover in covers:
        rep = projection_lipschitz_check(cover)
        assert rep["measured"] <= rep["bound"] + FLOAT_TOL, (name, rep)
    announce(f"criterion 2: PASS: {len(covers)} covers satisfy measured <= (2k+3)^2/L")


@pytest.fixture(scope="module")
def grid16_runs():
    grid = grid_space(16, 16)
    path = path_space(16)
    f = map_between_spaces(grid, path, [p % 16 for p in range(grid.n)], 1.0)
    c_table = default_c_table(1, 1)
    runs = {}
    for epsilon in (1.0, 0.5):
        cfg = make_config(f, epsilon, n=1, k=1, c_table=c_table)
        runs[epsilon] = build_assembly(cfg)
    return c_table, runs


def test_criterion_03_hurewicz_end_to_end(grid16_runs):
    """16x16 grid, coordinate projection, n = k = 1, measured c-table,
    r = required scale: epsilon-Lipschitz, low dimension, cobounded."""
    c_table, runs = grid16_runs
    for epsilon, asm in runs.items():
        report = asm.report
        assert asm.config.r >= required_scale(epsilon, 1, 1, c_table) - FLOAT_TOL
        assert report["measured_lipschitz"] <= epsilon + FLOAT_TOL
        assert report["dimK"] <= 2
        assert report["cobound"] <= report["cobound_bound"] + FLOAT_TOL
        for entry in report["per_simplex"]:
            assert entry["measured"] <= entry["lambda_k"] + FLOAT_TOL
            assert entry["lambda_k"] <= entry["closed_form_bound"] + FLOAT_TOL
        assert report["epsilon_certified"]
    announce(
        "criterion 3: PASS: assembled maps are epsilon-Lipschitz for epsilon in {1, 1/2}, "
        "dim K <= 2, cobounded, per-simplex constants within the recursion and closed form"
    )


def test_criterion_04_face_agreement(grid16_runs):
    """Every adjacent maximal-simplex pair agrees to 1e-9; checked in the
    criterion-3 runs and in a small-scale run where many towers coexist."""
    _, runs = grid16_runs
    pair_count = 0
    for asm in runs.values():
        for rep in all_face_agreements(asm):
            assert rep["ok"], rep
            pair_count += 1

    grid = grid_space(4, 64)
    path = path_space(64)
    f = map_between_spaces(grid, path, [p % 64 for p in range(grid.n)], 1.0)
    cfg = make_config(f, 1.0, 1, 1, r=2.0, allow_sub_required=True)
    stress = build_assembly(cfg)
    stress_reports = all_face_agreements(stress)
    assert stress_reports
    checked = 0
    for rep in stress_reports:
        assert rep["ok"], rep
        checked += rep["points_checked"]
    assert checked > 0
    pair_count += len(stress_reports)
    announce(
        f"criterion 4: PASS: {pair_count} adjacent tower pairs agree on shared faces "
        f"to 1e-9 ({checked} stress points)"
    )


def test_criterion_05_saturated_union_arithmetic():
    """100 seeded trials on paths <= 200 points: saturated unions are
    d-disjoint with mesh exactly <= r + 2(d + R)."""
    rng = np.random.default_rng(2024)
    space = path_space(200)
    trials = 0
    for _ in range(100):
        d = int(rng.integers(1, 4))
        r_mesh = int(rng.integers(1, 5))
        margin = 3 * d + 2 * r_mesh + 1
        blocks_b, cursor = [], int(rng.integers(0, 2))
        while cursor < 185:
            width = int(rng.integers(1, r_mesh + 2))
            blocks_b.append(list(range(cursor, min(200, cursor + width))))
            cursor += width + margin
        blocks_a, cursor = [], int(rng.integers(0, 3))
        while cursor < 195:
            width = int(rng.integers(1, r_mesh + 1))
            blocks_a.append(list(range(cursor, min(200, cursor + width))))
            cursor += width + d + 1
        dec_a = ColoredDecomposition(
            space,
            (tuple(PointSet.of(b) for b in blocks_a),),
            D=d,
            B=max(diameter_of(space, b) for b in blocks_a),
            carrier=PointSet.of([p for b in blocks_a for p in b]),
        )
        dec_b = ColoredDecomposition(
            space,
            (tuple(PointSet.of(b) for b in blocks_b),),
            D=margin - 1,
            B=max(diameter_of(space, b) for b in blocks_b),
            carrier=PointSet.of([p for b in blocks_b for p in b]),
        )
        dec_a.validate()
        dec_b.validate()
        out = finite_union_cover(dec_a, dec_b, d=d)  # validates internally
        assert out.B == dec_b.B + 2 * (d + dec_a.B)
        trials += 1
    assert trials == 100
    announce("criterion 5: PASS: 100 seeded saturated-union trials match the d-disjoint, r+2(d+R) arithmetic")


def test_criterion_06_coloring_oracle_equivalence():
    """Greedy >= exact, and exact matches the brute-force enumerator, on
    every path/cycle/grid instance with <= 12 carved clusters."""
    instances = []
    for n in (6, 10, 15, 20, 24):
        instances.append((f"path-{n}", path_space(n)))
    for n in (6, 9, 12):
        instances.append((f"cycle-{n}", cycle_space(n)))
    for rows, cols in ((3, 3), (3, 4), (4, 4), (3, 5), (4, 5), (5, 5)):
        instances.append((f"grid-{rows}x{cols}", grid_space(rows, cols)))
    params = [(1.0, 2.0), (2.0, 4.0), (2.0, 6.0), (3.0, 6.0)]
    checked = 0
    for name, space in instances:
        for d_sep, b_mesh in params:
            adj = _conflict_graph(space.matrix <= d_sep, carve_clusters(space.matrix, b_mesh))
            if len(adj) > 12:
                continue
            chi, witness = chromatic_number(adj)
            assert chi == brute_force_chromatic(adj), (name, d_sep, b_mesh)
            greedy = colored_decomposition(space, d_sep, b_mesh, mode="greedy")
            exact = colored_decomposition(space, d_sep, b_mesh, mode="exact")
            assert greedy.colors >= exact.colors, (name, d_sep, b_mesh)
            assert exact.colors <= chi
            checked += 1
    assert checked >= 20
    announce(f"criterion 6: PASS: {checked} instances: greedy >= exact = brute force")


def test_criterion_07_free_product_suite():
    """Pointed path(4) factors at max norm 6: axioms, tree, projection,
    stratification."""
    fps = free_product_space(PointedSpace(path_space(4), 0), PointedSpace(path_space(4), 0), 6)
    report = verify_metric_axioms(fps.space, triple_mode="exhaustive")
    assert report["ok"], report

    tree = free_product_tree(fps)
    assert len(tree.edges) == len(tree.vertices) - 1  # connected tree by construction

    proj = tree_projection(fps, tree)
    assert measured_lipschitz(proj) <= 1.0

    strata = word_stratification(fps)  # raises on an inclusion failure
    assert strata[0]["P"] == [()]
    announce(
        f"criterion 7: PASS: {len(fps.words)} words: exact axioms, coset tree "
        f"({len(tree.vertices)} vertices), 1-Lipschitz projection, strata inclusions"
    )


def test_criterion_08_extension_check():
    """Heisenberg onto Z^2: W_R(e) equals the R-neighborhood of the kernel
    inside the radius-8 ball, for R in {1, 2, 3}."""
    q = heisenberg_center_quotient()
    for R in (1, 2, 3):
        rep = kernel_neighborhood_check(q, R, ball_radius=8)
        assert rep["ok"], (R, rep["witness_w_only"], rep["witness_n_only"])
    announce("criterion 8: PASS: W_R(e) = N_R(kernel) for R in {1,2,3} in the radius-8 ball")


def test_criterion_09_bound_calculator():
    assert asdim_upper_bound({"rule": "polycyclic", "series": ["Z", "Z", "Z"]})["bound"] == 3
    assert asdim_upper_bound(
        {"rule": "amalgam", "c": 1, "a_quotient": 1, "b_quotient": 1}
    )["bound"] == 2
    assert asdim_upper_bound({"rule": "free_product", "left": 1, "right": 1})["bound"] == 1
    announce("criterion 9: PASS: polycyclic h=3 -> 3, amalgam 1+max{1,1,1} -> 2, free product -> 1")


def test_criterion_10_hyperbolization():
    """10-point base, 5 radii: exhaustive triangle check and the height
    projection's 1-Lipschitz property, both at 1e-9."""
    h = hyperbolization(path_space(10), geometric_radii(levels=5))
    assert h.space.n == 50
    report = verify_metric_axioms(h.space, triple_mode="exhaustive")
    assert report["ok"], report
    proj = height_projection(h)  # raises beyond 1e-12 internally
    assert measured_lipschitz(proj) <= 1.0 + FLOAT_TOL
    announce("criterion 10: PASS: ball-space triangle inequality and 1-Lipschitz height, 1e-9")
