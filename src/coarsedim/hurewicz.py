"""Dimension-lowering map assembly at a chosen scale.

Given a Lipschitz map f from a geodesic-like finite space X onto a base Y,
this module builds an explicit map Phi from X into a low-dimensional
uniform polyhedron K and measures everything the construction promises:

  * a base cover of f(X) whose enlargements keep small multiplicity,
  * per-face fiber covers with a Lebesgue/mesh ladder (each level's
    Lebesgue number exceeds the previous level's mesh),
  * refinement maps between consecutive nerves, iterated mapping
    cylinders, and the two-case interpolation that pushes a point up the
    tower as its image approaches the deeper base regions,
  * gluing of the per-tower polyhedra along shared faces.

The per-tower Lipschitz constants follow an explicit recursion; a closed
form bounds the recursion, and the scale needed to force an epsilon-
Lipschitz result is (2n+3)^2 6^k c_n ... c_{n+k-1} / epsilon where the
c_i are measured cylinder constants.  Reports carry measured values side
by side with every bound so each link of the chain can be audited.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .covers import (
    ColoredDecomposition,
    Cover,
    colored_decomposition,
    disjoint_to_cover,
    lebesgue_number,
    mesh,
    multiplicity,
)
from .errors import CapExceeded, InputError, InvariantViolation, StageFailure
from .metric_core import (
    TOL,
    FiniteMetricSpace,
    MetricMap,
    PointSet,
    _in_range,
    _rows_sup,
    _whole,
    diameters_of,
    distance_to_set,
    edge_certificate,
    measured_lipschitz,
    neighborhood,
)
from .polyhedra import (
    SimplicialComplex,
    SimplicialMap,
    check_rows,
    glue,
    mapping_cylinder,
    measure_uniformization_constant,
    nerve,
    projection_rows,
    refinement_map,
    used_columns,
)

T_EPS = 1e-12
# the largest dimension default_c_table measures: a measurement takes about
# four times the one below it (on a 2-core machine, 1.2 s at 6, 19.5 s at 8)
C_TABLE_DIM_CAP = 6


# ---------------------------------------------------------------------------
# scale arithmetic


def _check_scale_inputs(epsilon: float, n: int, k: int) -> None:
    """``InputError`` unless epsilon is a finite real > 0 and n and k are
    whole numbers >= 0."""
    _in_range(epsilon, "epsilon", 0, math.inf, "()")
    for value, what in ((n, "n"), (k, "k")):
        _in_range(_whole(value, what), what, 0)


def required_scale(epsilon: float, n: int, k: int, c_table: Sequence[float]) -> float:
    """Smallest working scale (2n+3)^2 * 6^k * c_n...c_{n+k-1} / epsilon."""
    _check_scale_inputs(epsilon, n, k)
    cs = list(c_table)[:k]
    if len(cs) < k:
        raise InputError(f"need {k} cylinder constants, got {len(cs)}")
    if any(c < 1.0 for c in cs):
        raise InputError("cylinder constants below 1 are impossible (rejected)")
    r = (2 * n + 3) ** 2 * 6**k / epsilon
    for c in cs:
        r *= c
    return r


def lipschitz_recursion(
    n: int, lam: float, r: float, c_table: Sequence[float], L_values: Sequence[float]
) -> list[float]:
    """Per-level constants: the base level is (2n+3)^2 / L_0; each cylinder
    level takes the worse of the quotient-map case and the interpolation
    case."""
    if not L_values:
        raise InputError("need at least one Lebesgue number")
    if any(L <= 0 for L in L_values):
        raise InputError("Lebesgue numbers must be positive")
    base = (2 * n + 3) ** 2
    lams = [base / L_values[0]]
    for p in range(1, len(L_values)):
        c = c_table[p - 1]
        case_quotient = c * math.sqrt(2.0) * max(lams[p - 1], 2.0 / (lam * r))
        case_blend = 4.0 / (lam * r) + 2.0 * lams[p - 1] + 2.0 * base / L_values[p]
        lams.append(max(case_quotient, case_blend))
    return lams


def recursion_closed_form_bound(n: int, r: float, c_table: Sequence[float], p: int) -> float:
    """Closed-form bound on the level-p recursion value:
    (2n+3)^2 / r times the product of max(c_j sqrt(2), 6)."""
    out = (2 * n + 3) ** 2 / r
    for j in range(p):
        out *= max(c_table[j] * math.sqrt(2.0), 6.0)
    return out


_C_CACHE: dict[int, float] = {}


def default_c_table(n: int, k: int) -> tuple[float, ...]:
    """Measured cylinder constants for source dimensions n .. n+k-1."""
    out = []
    for j in range(k):
        dim = n + j
        if dim not in _C_CACHE:
            _C_CACHE[dim] = measure_uniformization_constant(dim)
        out.append(_C_CACHE[dim])
    return tuple(out)


def proximity_weights(lam: float, r: float, distances) -> np.ndarray:
    """Clamped proximity of base points to a tower region: 1 on the
    region, falling linearly to 0 at distance lam*r."""
    return np.maximum(0.0, (lam * r - np.asarray(distances, dtype=float)) / (lam * r))


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class HurewiczConfig:
    f: MetricMap
    epsilon: float
    n: int
    k: int
    r: float
    lam: float
    c_table: tuple[float, ...]
    mesh_multiplier: float = 3.0
    seed: int = 0
    meets_required_scale: bool = True


def make_config(
    f: MetricMap,
    epsilon: float,
    n: int,
    k: int,
    r: float | None = None,
    c_table: Sequence[float] | None = None,
    mesh_multiplier: float = 3.0,
    allow_sub_required: bool = False,
    seed: int = 0,
) -> HurewiczConfig:
    if not isinstance(f.codomain, FiniteMetricSpace):
        raise InputError("the base map must land in a finite metric space")
    _check_scale_inputs(epsilon, n, k)  # before default_c_table measures n .. n+k-1
    if c_table is None and k and n + k - 1 > C_TABLE_DIM_CAP:
        raise CapExceeded(
            f"n + k - 1 = {n + k - 1}: measuring cylinder constants above dimension "
            f"{C_TABLE_DIM_CAP} is capped; pass a c_table"
        )
    if r is not None:
        _in_range(r, "r", 0, math.inf, "()")
    _in_range(mesh_multiplier, "mesh_multiplier", 0, math.inf, "()")
    lam = f.declared_lipschitz
    if lam is None:
        lam = measured_lipschitz(f)
    lam = max(1.0, lam)  # the scale arithmetic assumes lam >= 1
    cs = tuple(c_table) if c_table is not None else default_c_table(n, k)
    r_needed = required_scale(epsilon, n, k, cs)
    if r is None:
        r = r_needed
    meets = r >= r_needed - 1e-9
    if not meets and not allow_sub_required:
        raise InputError(
            f"scale {r} is below the required {r_needed}; pass allow_sub_required "
            "to run anyway (the epsilon claim is then not certified)"
        )
    return HurewiczConfig(f, epsilon, n, k, float(r), float(lam), cs, mesh_multiplier, seed, meets)


# ---------------------------------------------------------------------------
# faces and towers


@dataclass(frozen=True, eq=False)
class Face:
    """Everything the assembly needs of one base-nerve simplex, built once.

    ``region`` is W, the intersection of the simplex's enlarged base sets;
    ``weights[y]`` is the proximity weight of base point y to W.  ``cover``
    covers the preimage of the union of those sets, with its nerve,
    Lebesgue number and mesh."""

    simplex: tuple[int, ...]
    region: PointSet
    weights: np.ndarray
    cover: Cover
    nerve: SimplicialComplex
    lebesgue: float
    mesh: float


@dataclass(frozen=True, eq=False)
class Tower:
    """One maximal flag of base faces with its iterated mapping cylinders,
    ``cylinders[p]`` the one of g_p (``cylinders[0]`` is None)."""

    flag: tuple[tuple[int, ...], ...]
    faces: tuple[Face, ...]
    cylinders: tuple
    lambdas: tuple[float, ...]

    @property
    def depth(self) -> int:
        return len(self.flag) - 1

    @property
    def complex(self) -> SimplicialComplex:
        return self.cylinders[-1].complex if self.depth else self.faces[0].nerve

    @property
    def fiber(self) -> PointSet:
        return self.faces[0].cover.universe()


@dataclass(eq=False)
class Assembly:
    """The glued map Phi: X -> K with all the per-tower data that built it.

    ``values[flag]`` is the tower map over the whole fiber (see
    ``tower_values``); Phi at x is the row of x in its assigned tower's
    block."""

    config: HurewiczConfig
    base_decomposition: ColoredDecomposition
    enlarged_cover: Cover
    base_nerve: SimplicialComplex
    faces: dict[tuple, Face]
    towers: dict[tuple, Tower]
    values: dict[tuple, np.ndarray]
    assignment: dict[int, tuple]
    K: SimplicialComplex
    report: dict

    @property
    def face_covers(self) -> dict[tuple, Cover]:
        return {simplex: face.cover for simplex, face in self.faces.items()}

    def tower_map(self, tower: Tower, x: int) -> np.ndarray:
        """The row of fiber point x in the tower's block, as a new 1-d row."""
        return self.values[tower.flag][tower.fiber.rank([x], "the tower fiber")][0]


def tower_values(config: HurewiczConfig, tower: Tower) -> np.ndarray:
    """The tower map over its whole fiber, as one coordinate block over
    ``tower.complex`` with rows in fiber order.

    Level 0 is the fiber cover's canonical projection.  At level p, a row
    with t_p <= 1/2 goes through cylinder p's quotient at 2 t_p; a row with
    t_p > 1/2 blends its g_p-image, weighted 2 (1 - t_p), with face p's
    projection, weighted 2 t_p - 1.  The t_p are the proximity weights of
    f(x) to the tower's nested base regions; t_0 must be 1 on the fiber.
    Every level's block is checked by ``check_rows``."""
    pts = np.asarray(tower.fiber.indices, dtype=np.intp)
    base = tower.faces[0]
    phi = check_rows(base.nerve, projection_rows(base.cover, pts))
    ys = config.f.image_indices[pts]
    ts = [face.weights[ys] for face in tower.faces]
    off = np.abs(ts[0] - 1.0) > T_EPS
    if off.any():
        raise InvariantViolation(
            f"level-0 weight is {ts[0][off][0]} != 1 on the fiber", witness=int(pts[off][0])
        )
    for face, cyl, tp in zip(tower.faces[1:], tower.cylinders[1:], ts[1:]):
        low = tp <= 0.5
        high = ~low
        nxt = np.zeros((len(pts), len(cyl.complex.vertices)))
        nxt[low] = cyl.rows(phi[low], 2.0 * tp[low])
        if high.any():
            pushed = cyl.map.apply_rows(phi[high])
            proj = check_rows(face.nerve, projection_rows(face.cover, pts[high]))
            th = tp[high][:, None]
            nxt[high, phi.shape[1]:] = 2.0 * (1.0 - th) * pushed + (2.0 * th - 1.0) * proj
            nxt[high] = check_rows(cyl.complex, nxt[high])
        phi = nxt
    return phi


# ---------------------------------------------------------------------------
# assembly pipeline


def _build_face(config, simplex, enlarged, images, floor, stage_log) -> Face:
    """Face record of a base simplex.  Its fiber cover is a colored
    decomposition of the preimage at separation 2*max(r, floor), pooled
    into one cover (Lebesgue > max(r, floor)).  Regions and fibers are
    read from ``enlarged.member``, the enlarged base cover's table;
    ``images`` are f's images ranked into its carrier."""
    rows = enlarged.member[list(simplex)]
    region = PointSet(tuple(itertools.compress(enlarged.universe(), rows.all(axis=0))))
    if not region.indices:
        raise InvariantViolation(f"face {simplex} has empty intersection region")
    carrier = PointSet(tuple(np.flatnonzero(rows.any(axis=0)[images]).tolist()))
    if not carrier.indices:
        raise StageFailure("fiber-carrier", f"face {simplex} has empty fiber")
    d_sep = 2.0 * max(config.r, floor)
    b_mesh = config.mesh_multiplier * d_sep
    dec = colored_decomposition(config.f.domain, d_sep, b_mesh, mode="auto", carrier=carrier)
    if dec.colors > config.n + 1:
        raise StageFailure(
            "fiber-cover",
            f"face {simplex} needs {dec.colors} colors at separation {d_sep}, "
            f"allowed {config.n + 1}",
            details={"face": simplex, "D": d_sep, "B": b_mesh, "colors": dec.colors},
        )
    cover = disjoint_to_cover(dec)
    weights = proximity_weights(config.lam, config.r, distance_to_set(config.f.codomain, region))
    vertex_ids = [(simplex, j) for j in range(len(cover.sets))]
    face = Face(simplex, region, weights, cover, nerve(cover, vertex_ids),
                lebesgue_number(cover), mesh(cover))
    stage_log.append({"face": simplex, "D": d_sep, "B": b_mesh, "colors": dec.colors,
                      "mode": dec.info.get("mode"), "lebesgue": face.lebesgue,
                      "mesh": face.mesh, "carrier_size": len(carrier)})
    return face


def build_assembly(
    config: HurewiczConfig,
    base_decomposition: ColoredDecomposition | None = None,
) -> Assembly:
    f = config.f
    space_y = f.codomain
    lam_r = config.lam * config.r
    stage_log: list[dict] = []

    # stage 1: base cover of the image with controlled enlargements
    image = PointSet.of(f.images)
    if base_decomposition is None:
        base_decomposition = colored_decomposition(
            space_y, D=2.0 * lam_r, B=6.0 * lam_r, mode="auto", carrier=image
        )
    if base_decomposition.colors > config.k + 1:
        raise StageFailure(
            "base-cover",
            f"base decomposition needs {base_decomposition.colors} colors, "
            f"allowed {config.k + 1}",
            details={"colors": base_decomposition.colors},
        )
    base_sets = list(base_decomposition.all_sets())
    # the carrier is the union of the enlarged sets: d(y, union) = min d(y, B)
    enlarged_cover = Cover(
        space_y,
        tuple(neighborhood(space_y, s, lam_r) for s in base_sets),
        neighborhood(space_y, base_decomposition.universe(), lam_r),
    )
    mult = multiplicity(enlarged_cover)
    if mult > config.k + 1:
        raise StageFailure(
            "base-enlargement",
            f"enlarged base cover has multiplicity {mult}, allowed {config.k + 1}",
            details={"multiplicity": mult, "lam_r": lam_r},
        )

    base_nerve = nerve(enlarged_cover)

    # stage 2: one face record per base simplex, laddered by dimension
    images = enlarged_cover.universe().rank(f.images, "the enlarged base cover's carrier")
    faces: dict[tuple, Face] = {}
    for simplex in sorted(base_nerve.simplices, key=lambda s: (len(s), s)):
        floor = max(
            (faces[sub].mesh for size in range(1, len(simplex))
             for sub in itertools.combinations(simplex, size)),
            default=0.0,
        )
        faces[simplex] = _build_face(config, simplex, enlarged_cover, images, floor, stage_log)

    # stage 3: refinement maps along facet inclusions (the nerve is
    # face-closed, so every facet has a record)
    step_maps: dict[tuple, SimplicialMap] = {}
    for simplex in [s for s in faces if len(s) > 1]:
        top = faces[simplex]
        for facet in itertools.combinations(simplex, len(simplex) - 1):
            low = faces[facet]
            step_maps[(facet, simplex)] = refinement_map(
                low.cover, top.cover, low.nerve, top.nerve
            )

    # stage 4: towers, one per maximal flag, each evaluated over its fiber
    maximal = base_nerve.maximal_simplices()
    towers: dict[tuple, Tower] = {}
    for tau in maximal:
        for perm in itertools.permutations(tau):
            flag = tuple(tuple(sorted(perm[: i + 1])) for i in range(len(perm)))
            towers[flag] = _build_tower(config, flag, faces, step_maps)
    values = {flag: tower_values(config, tower) for flag, tower in towers.items()}

    # stage 5: assign every point to the tower over its base position
    stars: dict = {}
    for tau in maximal:
        for v in tau:
            stars.setdefault(v, set()).add(tau)
    weights = check_rows(base_nerve, projection_rows(enlarged_cover, image.indices))
    flag_of = {}
    for y, row in zip(image, weights):
        flag_of[y] = _assign_flag(stars, row)
        if flag_of[y] not in towers:
            raise InvariantViolation(f"base point {y} assigned to unknown flag {flag_of[y]}")
    assignment = {x: flag_of[y] for x, y in enumerate(f.images)}

    K = glue([t.complex for t in towers.values()])
    if K.dimension > config.n + config.k:
        raise InvariantViolation(
            f"glued complex has dimension {K.dimension} > n + k = {config.n + config.k}"
        )

    report = {
        "epsilon": config.epsilon,
        "r": config.r,
        "lam": config.lam,
        "n": config.n,
        "k": config.k,
        "c_table": list(config.c_table),
        "meets_required_scale": config.meets_required_scale,
        "seed": config.seed,
        "dimK": K.dimension,
        "towers": len(towers),
        "base_sets": len(base_sets),
        "stage_log": stage_log,
    }
    asm = Assembly(
        config, base_decomposition, enlarged_cover, base_nerve,
        faces, towers, values, assignment, K, report,
    )
    _finish_report(asm)
    return asm


def _build_tower(config, flag, faces, step_maps) -> Tower:
    """Iterated cylinders of g_p from cylinder p-1 (nerve 0 at p = 1) to
    nerve p, where g_p is step[p-1 -> p] composed with (g_(p-1) on the
    older vertices, the identity on nerve p-1)."""
    records = tuple(faces[simplex] for simplex in flag)
    source = records[0].nerve
    cylinders: list = [None]
    carry: dict = {}
    for p in range(1, len(flag)):
        step = step_maps[(flag[p - 1], flag[p])].assignment
        carry = {**{v: step[w] for v, w in carry.items()}, **step}
        cyl = mapping_cylinder(SimplicialMap(source, records[p].nerve, carry))
        cylinders.append(cyl)
        source = cyl.complex

    lambdas = lipschitz_recursion(
        config.n, config.lam, config.r, config.c_table, [face.lebesgue for face in records]
    )
    return Tower(flag, records, tuple(cylinders), tuple(lambdas))


def _assign_flag(stars: dict, row: np.ndarray) -> tuple:
    """Deterministic flag over a base point with projection weights
    ``row`` into the base nerve: order the cover sets through the point by
    decreasing weight (ties and the rest of the maximal simplex by index),
    and take prefixes.  The maximal simplex is the least one containing
    the support, found in the ``stars`` (each vertex's maximal simplices)
    of the support's vertices."""
    support = np.flatnonzero(row)
    weights = dict(zip(support.tolist(), row[support].tolist()))
    tau = min(set.intersection(*(stars[v] for v in weights)))
    in_support = sorted(weights, key=lambda v: (-weights[v], v))
    rest = sorted(v for v in tau if v not in weights)
    order = in_support + rest
    return tuple(tuple(sorted(order[: i + 1])) for i in range(len(order)))


def _finish_report(asm: Assembly) -> None:
    config = asm.config
    report = asm.report
    space_x = config.f.domain

    # a fiber is shared by the towers whose flags start at one face; its
    # certificate is found once
    certificates: dict[PointSet, tuple | None] = {}
    per_tower = []
    for flag, tower in sorted(asm.towers.items()):
        fiber = tower.fiber
        if fiber not in certificates:
            certificates[fiber] = edge_certificate(space_x, fiber.indices)
        values = asm.values[flag]
        block = values[:, used_columns(values)]
        bound = recursion_closed_form_bound(config.n, config.r, config.c_table, tower.depth)
        per_tower.append(
            {
                "flag": [list(face) for face in flag],
                "depth": tower.depth,
                "L_values": [face.lebesgue for face in tower.faces],
                "meshes": [face.mesh for face in tower.faces],
                "lambda_k": tower.lambdas[-1],
                "closed_form_bound": bound,
                "measured": _rows_sup(space_x, np.asarray(fiber.indices, dtype=np.intp), block.__getitem__,
                                      block.shape[1], certificates[fiber]),
            }
        )
    report["per_simplex"] = per_tower
    report["lambda_k_per_simplex"] = [t["lambda_k"] for t in per_tower]

    # Phi's constant over the certified edges, each chunk's rows built from
    # the triples; without a certificate every pair is scanned, over Phi
    # built whole
    phi = _phi_triples(asm)
    points = np.arange(space_x.n)
    edges = edge_certificate(space_x, points)
    rows = phi.rows if edges is not None else phi.rows(points).__getitem__
    report["measured_lipschitz"] = _rows_sup(space_x, points, rows, phi.width, edges)

    # coboundedness over open stars: points whose image carrier contains
    # the simplex; two such points share the simplex's common set, whose
    # diameter is below twice any level mesh.  A simplex's star lies in
    # each of its vertices' stars, so the largest diameter is a vertex
    # star's: the points with a nonzero entry in one column of Phi.
    cobound = float(diameters_of(space_x, phi.stars()).max())
    cobound_bound = max(
        [2.0 * face.mesh for face in asm.faces.values()] + [2.0 * mesh(asm.enlarged_cover)]
    )
    report["cobound"] = cobound
    report["cobound_bound"] = cobound_bound
    report["cobound_ok"] = cobound <= cobound_bound + 1e-9
    report["epsilon_certified"] = bool(
        config.meets_required_scale and report["measured_lipschitz"] <= config.epsilon + 1e-9
    )


@dataclass(frozen=True, eq=False)
class _PhiTriples:
    """Phi's nonzero entries, row by row: row x holds ``vals[k]`` in
    column ``cols[k]`` for k in ``start[x]:start[x + 1]``, of ``width``
    columns in all."""

    start: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    width: int

    def rows(self, xs) -> np.ndarray:
        """The dense rows of the points ``xs`` (a 1-d index array), zero
        outside their entries."""
        lo = self.start[xs]
        count = self.start[xs + 1] - lo
        at = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(int(count.sum()))
        out = np.zeros((len(xs), self.width))
        out[np.repeat(np.arange(len(xs)), count), self.cols[at]] = self.vals[at]
        return out

    def stars(self) -> list[PointSet]:
        """Each column's points with a nonzero entry, in column order."""
        row = np.repeat(np.arange(len(self.start) - 1), np.diff(self.start))
        order = np.lexsort((row, self.cols))
        cuts = np.cumsum(np.bincount(self.cols, minlength=self.width))[:-1]
        return [PointSet(tuple(star.tolist())) for star in np.split(row[order], cuts)]


def _phi_triples(asm: Assembly) -> _PhiTriples:
    """Phi's triples, read from the rows of the points assigned to each
    tower.  Its columns are the vertices Phi uses, in the order a
    row-major scan of the points in index order first meets them, as
    ``used_columns`` orders a block: a vertex is keyed by its first point
    and its column in that point's tower."""
    assigned: dict[tuple, list[int]] = {}
    for x, flag in asm.assignment.items():
        assigned.setdefault(flag, []).append(x)
    first: dict = {}
    parts = []
    for flag, xs in assigned.items():
        tower = asm.towers[flag]
        block = asm.values[flag][tower.fiber.rank(xs, "the tower fiber")]
        r, c = np.nonzero(block)
        used, at = np.unique(c, return_index=True)  # each column's first row: nonzero is row-major
        vertices = [tower.complex.vertices[j] for j in used.tolist()]
        for v, j, row in zip(vertices, used.tolist(), r[at].tolist()):
            first[v] = min(first.get(v, (xs[row], j)), (xs[row], j))
        parts.append((np.asarray(xs)[r], c, block[r, c], used, vertices))
    column = {v: j for j, v in enumerate(sorted(first, key=first.__getitem__))}
    rows, cols, vals = [], [], []
    for xr, c, val, used, vertices in parts:
        to_column = np.zeros(int(used[-1]) + 1, dtype=np.intp)
        to_column[used] = [column[v] for v in vertices]
        rows.append(xr)
        cols.append(to_column[c])
        vals.append(val)
    row = np.concatenate(rows)
    order = np.argsort(row, kind="stable")
    start = np.concatenate([[0], np.cumsum(np.bincount(row, minlength=len(asm.assignment)))])
    return _PhiTriples(start, np.concatenate(cols)[order], np.concatenate(vals)[order], len(column))


# ---------------------------------------------------------------------------
# face agreement


def face_agreement_check(asm: Assembly, flag_a: tuple, flag_b: tuple) -> dict:
    """Compare two towers on the points whose tower coordinates live on
    their shared faces.

    Eligible points either (i) put all their positive weights on a common
    prefix of the two flags, or (ii) sit at weight 1 on a shared face with
    nothing above it; in both regimes the construction evaluates to the
    same polyhedron point in both towers, and this is checked literally,
    coordinate by coordinate; a deviation over ``TOL`` fails.
    """
    ta, tb = asm.towers[flag_a], asm.towers[flag_b]
    if not set(flag_a) & set(flag_b):
        return {"adjacent": False, "ok": True, "points_checked": 0, "max_deviation": 0.0}
    both = np.intersect1d(ta.fiber.indices, tb.fiber.indices)
    ys = asm.config.f.image_indices[both]

    def zero_above(tower):
        # row q: every weight at levels q.. vanishes (row len(flag) is all True)
        zero = [face.weights[ys] <= T_EPS for face in tower.faces] + [np.ones(len(ys), bool)]
        return np.logical_and.accumulate(np.array(zero)[::-1])[::-1]

    za, zb = zero_above(ta), zero_above(tb)
    same = [fa == fb for fa, fb in zip(flag_a, flag_b)]
    prefix_len = same.index(False) if False in same else len(same)
    eligible = np.zeros(len(ys), dtype=bool)
    if prefix_len:
        eligible |= za[prefix_len] & zb[prefix_len]
    for pos in itertools.compress(range(len(same)), same):
        eligible |= (ta.faces[pos].weights[ys] >= 1.0 - T_EPS) & za[pos + 1] & zb[pos + 1]
    xs = both[eligible]
    worst = 0.0
    witness = None
    if len(xs):
        # both blocks over the union of the towers' vertices, which are
        # one orthonormal basis
        union = {v: j for j, v in enumerate(dict.fromkeys(ta.complex.vertices + tb.complex.vertices))}
        diff = np.zeros((len(xs), len(union)))
        for tower, sign in ((ta, 1.0), (tb, -1.0)):
            rows = asm.values[tower.flag][tower.fiber.rank(xs, "the tower fiber")]
            diff[:, [union[v] for v in tower.complex.vertices]] += sign * rows
        dev = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        at = int(dev.argmax())
        if dev[at] > 0:
            worst, witness = float(dev[at]), int(xs[at])
    return {
        "adjacent": True,
        "ok": worst <= TOL,
        "points_checked": int(eligible.sum()),
        "max_deviation": worst,
        "witness": witness if worst > TOL else None,
    }


def all_face_agreements(asm: Assembly) -> list[dict]:
    """``face_agreement_check`` of every pair of towers that share a face,
    with its ``pair``, in ``combinations(sorted(asm.towers), 2)`` order."""
    by_face: dict[tuple, list[tuple]] = {}
    for flag in sorted(asm.towers):
        for face in flag:
            by_face.setdefault(face, []).append(flag)
    pairs = set(itertools.chain.from_iterable(itertools.combinations(f, 2) for f in by_face.values()))
    out = []
    for pair in sorted(pairs):
        rep = face_agreement_check(asm, *pair)
        rep["pair"] = pair
        out.append(rep)
    return out
