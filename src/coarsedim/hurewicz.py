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
from typing import Any, Callable, Sequence

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
from .errors import InputError, InvariantViolation, StageFailure
from .metric_core import (
    FiniteMetricSpace,
    MetricMap,
    PointSet,
    diameter_of,
    map_between_spaces,
    measured_lipschitz,
    neighborhood,
    sup_ratio,
)
from .polyhedra import (
    EmbeddedPoint,
    SimplicialComplex,
    SimplicialMap,
    canonical_projection,
    coordinate_matrix,
    embedded_distance,
    glue,
    mapping_cylinder,
    measure_uniformization_constant,
    nerve,
    refinement_map,
)

T_EPS = 1e-12


# ---------------------------------------------------------------------------
# scale arithmetic


def required_scale(epsilon: float, n: int, k: int, c_table: Sequence[float]) -> float:
    """Smallest working scale (2n+3)^2 * 6^k * c_n...c_{n+k-1} / epsilon."""
    if epsilon <= 0:
        raise InputError("epsilon must be positive")
    if n < 0 or k < 0:
        raise InputError("n and k must be nonnegative")
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


def proximity_weights(lam: float, r: float, distances: Sequence[float]) -> list[float]:
    """Clamped proximity of a base point to each tower region: 1 on the
    region, falling linearly to 0 at distance lam*r."""
    return [max(0.0, (lam * r - d) / (lam * r)) for d in distances]


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
# towers


@dataclass(frozen=True, eq=False)
class Tower:
    """One maximal flag of base faces with its ladder of fiber covers and
    iterated mapping cylinders."""

    flag: tuple[tuple[int, ...], ...]
    w_sets: tuple[PointSet, ...]
    fiber: PointSet
    covers: tuple[Cover, ...]
    nerves: tuple[SimplicialComplex, ...]
    g_maps: tuple
    cylinders: tuple
    complexes: tuple[SimplicialComplex, ...]
    L_values: tuple[float, ...]
    meshes: tuple[float, ...]
    lambdas: tuple[float, ...]

    @property
    def depth(self) -> int:
        return len(self.flag) - 1

    @property
    def complex(self) -> SimplicialComplex:
        return self.complexes[-1]


class Assembly:
    """The glued map Phi: X -> K with all the per-tower data that built it."""

    def __init__(self, config, base_decomposition, enlarged_cover, base_nerve,
                 face_covers, face_nerves, towers, assignment, K, report):
        self.config = config
        self.base_decomposition = base_decomposition
        self.enlarged_cover = enlarged_cover
        self.base_nerve = base_nerve
        self.face_covers = face_covers
        self.face_nerves = face_nerves
        self.towers = towers
        self.assignment = assignment
        self.K = K
        self.report = report
        self._tower_values: dict = {}

    def tower_map(self, tower: Tower, x: int) -> EmbeddedPoint:
        cache = self._tower_values.setdefault(tower.flag, {})
        if x not in cache:
            cache[x] = _evaluate_tower(self.config, tower, x)
        return cache[x]

    def phi(self, x: int) -> EmbeddedPoint:
        return self.tower_map(self.towers[self.assignment[x]], x)


def _base_distance(space: FiniteMetricSpace, p: int, points: PointSet) -> float:
    return float(space.matrix[p, list(points.indices)].min())


def tower_t_coordinates(config: HurewiczConfig, tower: Tower, x: int) -> list[float]:
    """Proximity weights of f(x) to the tower's nested base regions; the
    level-0 weight is 1 on the tower's own fiber."""
    if x not in tower.fiber:
        raise InputError(f"point {x} is outside the tower fiber")
    y = config.f.images[x]
    space_y = config.f.codomain
    dists = [_base_distance(space_y, y, w) for w in tower.w_sets]
    ts = proximity_weights(config.lam, config.r, dists)
    if abs(ts[0] - 1.0) > T_EPS:
        raise InvariantViolation(f"level-0 weight is {ts[0]} != 1 on the fiber")
    return ts


def _evaluate_tower(config: HurewiczConfig, tower: Tower, x: int) -> EmbeddedPoint:
    ts = tower_t_coordinates(config, tower, x)
    phi = canonical_projection(tower.covers[0], x, tower.nerves[0])
    for p in range(1, tower.depth + 1):
        tp = ts[p]
        complex_p = tower.complexes[p]
        if tp <= 0.5:
            phi = tower.cylinders[p].point(phi, 2.0 * tp)
        else:
            pushed = tower.g_maps[p].apply(phi)
            proj = canonical_projection(tower.covers[p], x, tower.nerves[p])
            coords: dict = {}
            for v, w in pushed.coords:
                coords[v] = coords.get(v, 0.0) + 2.0 * (1.0 - tp) * w
            for v, w in proj.coords:
                coords[v] = coords.get(v, 0.0) + (2.0 * tp - 1.0) * w
            phi = EmbeddedPoint.of(complex_p, coords)
    return phi


# ---------------------------------------------------------------------------
# assembly pipeline


def _fiber_carrier(f: MetricMap, base_sets: Sequence[PointSet], face: tuple) -> PointSet:
    union = set()
    for v in face:
        union |= base_sets[v].as_set()
    return PointSet.of(p for p in range(f.domain.n) if f.images[p] in union)


def _build_face_cover(config, face, carrier, level_floor, stage_log) -> tuple[Cover, dict]:
    """Fiber cover over a base face: a colored decomposition at separation
    2*max(r, floor) pooled into one cover (Lebesgue > max(r, floor))."""
    target = max(config.r, level_floor)
    d_sep = 2.0 * target
    b_mesh = config.mesh_multiplier * d_sep
    dec = colored_decomposition(
        config.f.domain, d_sep, b_mesh, mode="auto", carrier=carrier
    )
    if dec.colors > config.n + 1:
        raise StageFailure(
            "fiber-cover",
            f"face {face} needs {dec.colors} colors at separation {d_sep}, "
            f"allowed {config.n + 1}",
            details={"face": face, "D": d_sep, "B": b_mesh, "colors": dec.colors},
        )
    cover = disjoint_to_cover(dec)
    info = {
        "face": face,
        "D": d_sep,
        "B": b_mesh,
        "colors": dec.colors,
        "mode": dec.info.get("mode"),
        "lebesgue": lebesgue_number(cover),
        "mesh": mesh(cover),
        "carrier_size": len(carrier),
    }
    stage_log.append(info)
    return cover, info


def build_assembly(
    config: HurewiczConfig,
    base_decomposition: ColoredDecomposition | None = None,
) -> Assembly:
    f = config.f
    space_x, space_y = f.domain, f.codomain
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
    enlarged_sets = [neighborhood(space_y, s, lam_r) for s in base_sets]
    carrier_y = PointSet.of(set().union(*(s.as_set() for s in enlarged_sets)))
    enlarged_cover = Cover(space_y, tuple(enlarged_sets), carrier_y)
    mult = multiplicity(enlarged_cover)
    if mult > config.k + 1:
        raise StageFailure(
            "base-enlargement",
            f"enlarged base cover has multiplicity {mult}, allowed {config.k + 1}",
            details={"multiplicity": mult, "lam_r": lam_r},
        )

    base_nerve = nerve(enlarged_cover)

    # stage 2: one fiber cover per base face, laddered by dimension
    face_covers: dict[tuple, Cover] = {}
    face_nerves: dict[tuple, SimplicialComplex] = {}
    face_mesh: dict[tuple, float] = {}
    for face in sorted(base_nerve.simplices, key=lambda s: (len(s), s)):
        carrier = _fiber_carrier(f, enlarged_sets, face)
        if not carrier.indices:
            raise StageFailure("fiber-carrier", f"face {face} has empty fiber")
        floor = max(
            (face_mesh[sub] for size in range(1, len(face)) for sub in itertools.combinations(face, size)),
            default=0.0,
        )
        cover, info = _build_face_cover(config, face, carrier, floor, stage_log)
        face_covers[face] = cover
        face_nerves[face] = nerve(cover, vertex_ids=[(face, j) for j in range(len(cover.sets))])
        face_mesh[face] = mesh(cover)

    # stage 3: refinement maps along facet inclusions (the nerve is
    # face-closed, so every facet has a cover)
    step_maps: dict[tuple, SimplicialMap] = {}
    for face in [s for s in face_covers if len(s) > 1]:
        for facet in itertools.combinations(face, len(face) - 1):
            step_maps[(facet, face)] = refinement_map(
                face_covers[facet], face_covers[face], face_nerves[facet], face_nerves[face]
            )

    # stage 4: towers, one per maximal flag
    towers: dict[tuple, Tower] = {}
    for tau in base_nerve.maximal_simplices():
        for perm in itertools.permutations(tau):
            flag = tuple(tuple(sorted(perm[: i + 1])) for i in range(len(perm)))
            towers[flag] = _build_tower(config, flag, enlarged_sets, face_covers, face_nerves, step_maps)

    # stage 5: assign every point to the tower over its base position
    maximal = base_nerve.maximal_simplices()
    assignment = {}
    for x in range(space_x.n):
        assignment[x] = _assign_flag(f, enlarged_cover, base_nerve, maximal, x)
        if assignment[x] not in towers:
            raise InvariantViolation(f"point {x} assigned to unknown flag {assignment[x]}")

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
        face_covers, face_nerves, towers, assignment, K, report,
    )
    _finish_report(asm)
    return asm


def _build_tower(config, flag, enlarged_sets, face_covers, face_nerves, step_maps) -> Tower:
    w_sets = []
    for face in flag:
        inter = enlarged_sets[face[0]].as_set()
        for v in face[1:]:
            inter &= enlarged_sets[v].as_set()
        if not inter:
            raise InvariantViolation(f"face {face} has empty intersection region")
        w_sets.append(PointSet.of(inter))
    covers = tuple(face_covers[face] for face in flag)
    fiber = covers[0].universe()
    nerves = tuple(face_nerves[face] for face in flag)

    complexes = [nerves[0]]
    g_maps: list = [None]
    cylinders: list = [None]
    for p in range(1, len(flag)):
        assignment = {}
        for j, face in enumerate(flag[:p]):
            comp = None
            for q in range(j, p):
                step = step_maps[(flag[q], flag[q + 1])]
                comp = step if comp is None else comp.compose(step)
            for v in face_nerves[face].vertices:
                assignment[v] = comp.assignment[v]
        g = SimplicialMap(complexes[p - 1], nerves[p], assignment)
        cyl = mapping_cylinder(g)
        g_maps.append(g)
        cylinders.append(cyl)
        complexes.append(cyl.complex)

    L_values = tuple(lebesgue_number(c) for c in covers)
    meshes = tuple(mesh(c) for c in covers)
    lambdas = tuple(
        lipschitz_recursion(config.n, config.lam, config.r, config.c_table, L_values)
    )
    return Tower(
        flag, tuple(w_sets), fiber, covers, nerves,
        tuple(g_maps), tuple(cylinders), tuple(complexes),
        L_values, meshes, lambdas,
    )


def _assign_flag(f, enlarged_cover, base_nerve, maximal, x: int) -> tuple:
    """Deterministic flag over the base position of f(x): order the cover
    sets through f(x) by decreasing projection weight (ties and the rest
    of the maximal simplex by index), and take prefixes."""
    y = f.images[x]
    proj = canonical_projection(enlarged_cover, y, base_nerve)
    weights = {v: w for v, w in proj.coords}
    support = tuple(sorted(weights))
    candidates = [s for s in maximal if set(support) <= set(s)]
    tau = min(candidates)
    in_support = sorted(weights, key=lambda v: (-weights[v], v))
    rest = sorted(v for v in tau if v not in weights)
    order = in_support + rest
    return tuple(tuple(sorted(order[: i + 1])) for i in range(len(order)))


def _finish_report(asm: Assembly) -> None:
    config = asm.config
    report = asm.report
    space_x = config.f.domain

    per_tower = []
    for flag, tower in sorted(asm.towers.items()):
        values = coordinate_matrix([asm.tower_map(tower, x) for x in tower.fiber])
        bound = recursion_closed_form_bound(config.n, config.r, config.c_table, tower.depth)
        per_tower.append(
            {
                "flag": [list(face) for face in flag],
                "depth": tower.depth,
                "L_values": list(tower.L_values),
                "meshes": list(tower.meshes),
                "lambda_k": tower.lambdas[-1],
                "closed_form_bound": bound,
                "measured": sup_ratio(space_x, tower.fiber.indices, values),
            }
        )
    report["per_simplex"] = per_tower
    report["lambda_k_per_simplex"] = [t["lambda_k"] for t in per_tower]

    images = [asm.phi(x) for x in range(space_x.n)]
    report["measured_lipschitz"] = sup_ratio(space_x, range(space_x.n), coordinate_matrix(images))

    # coboundedness over open stars: points whose image carrier contains
    # the simplex; two such points share the simplex's common set, whose
    # diameter is below twice any level mesh
    star_points: dict[tuple, list[int]] = {}
    for x, supp in enumerate(image.support() for image in images):
        for size in range(1, len(supp) + 1):
            for sub in itertools.combinations(supp, size):
                star_points.setdefault(sub, []).append(x)
    cobound = 0.0
    for pts in star_points.values():
        cobound = max(cobound, diameter_of(space_x, PointSet.of(pts)))
    all_meshes = [m for t in asm.towers.values() for m in t.meshes]
    cobound_bound = max(
        [2.0 * m for m in all_meshes] + [2.0 * mesh(asm.enlarged_cover)]
    )
    report["cobound"] = cobound
    report["cobound_bound"] = cobound_bound
    report["cobound_ok"] = cobound <= cobound_bound + 1e-9
    report["epsilon_certified"] = bool(
        config.meets_required_scale and report["measured_lipschitz"] <= config.epsilon + 1e-9
    )


# ---------------------------------------------------------------------------
# face agreement


def face_agreement_check(asm: Assembly, flag_a: tuple, flag_b: tuple, tol: float = 1e-9) -> dict:
    """Compare two towers on the points whose tower coordinates live on
    their shared faces.

    Eligible points either (i) put all their positive weights on a common
    prefix of the two flags, or (ii) sit at weight 1 on a shared face with
    nothing above it; in both regimes the construction evaluates to the
    same polyhedron point in both towers, and this is checked literally,
    coordinate by coordinate.
    """
    ta, tb = asm.towers[flag_a], asm.towers[flag_b]
    shared = set(flag_a) & set(flag_b)
    if not shared:
        return {"adjacent": False, "ok": True, "points_checked": 0, "max_deviation": 0.0}
    prefix_len = 0
    for fa, fb in zip(flag_a, flag_b):
        if fa != fb:
            break
        prefix_len += 1
    both = ta.fiber.intersection(tb.fiber)
    checked = 0
    worst = 0.0
    witness = None
    for x in both:
        tsa = tower_t_coordinates(asm.config, ta, x)
        tsb = tower_t_coordinates(asm.config, tb, x)
        eligible = False
        if prefix_len and all(t <= T_EPS for t in tsa[prefix_len:]) and all(
            t <= T_EPS for t in tsb[prefix_len:]
        ):
            eligible = True
        else:
            for pos in range(min(len(flag_a), len(flag_b))):
                if flag_a[pos] != flag_b[pos] or flag_a[pos] not in shared:
                    continue
                if (
                    tsa[pos] >= 1.0 - T_EPS
                    and tsb[pos] >= 1.0 - T_EPS
                    and all(t <= T_EPS for t in tsa[pos + 1:])
                    and all(t <= T_EPS for t in tsb[pos + 1:])
                ):
                    eligible = True
                    break
        if not eligible:
            continue
        checked += 1
        dev = embedded_distance(asm.tower_map(ta, x), asm.tower_map(tb, x))
        if dev > worst:
            worst = dev
            witness = x
    return {
        "adjacent": True,
        "ok": worst <= tol,
        "points_checked": checked,
        "max_deviation": worst,
        "witness": witness if worst > tol else None,
    }


def all_face_agreements(asm: Assembly, tol: float = 1e-9) -> list[dict]:
    flags = sorted(asm.towers)
    out = []
    for i in range(len(flags)):
        for j in range(i + 1, len(flags)):
            rep = face_agreement_check(asm, flags[i], flags[j], tol)
            if rep["adjacent"]:
                rep["pair"] = (flags[i], flags[j])
                out.append(rep)
    return out


# ---------------------------------------------------------------------------
# group actions


@dataclass(frozen=True)
class IsometricAction:
    """Group acting on a finite space; act(element, point) returns the
    moved point or None where the finite surrogate runs off the edge."""

    group: Any
    space: FiniteMetricSpace
    act: Callable[[Any, int], int | None]


def orbit_reduction(
    action: IsometricAction,
    x0: int,
    radius: int,
    epsilon: float,
    n: int,
    k: int,
    R_list: Sequence[float] = (),
    **config_kwargs,
) -> dict:
    """Orbit map of a group action as a dimension-lowering input: the
    Cayley ball maps to the orbit of the base point, with the Lipschitz
    constant max over generators of d(s.x0, x0) (clamped to 1).

    The action is verified isometric on every generator (over all point
    pairs where the finite action is defined); a violating pair is the
    witness.  Returns the config, the orbit map, and the requested
    materialized fibers over balls around x0.
    """
    from .group_spaces.groups import cayley_ball

    space = action.space
    for label, g in action.group.generators:
        moved = {p: action.act(g, p) for p in range(space.n)}
        defined = [p for p, q in moved.items() if q is not None]
        if not defined:
            raise InputError(f"generator {label} acts nowhere on the finite space")
        images = [moved[p] for p in defined]
        bad = np.argwhere(
            space.matrix[np.ix_(images, images)] != space.matrix[np.ix_(defined, defined)]
        )
        if len(bad):
            a, b = bad[0]  # first pair in row-major order
            raise InvariantViolation(
                f"generator {label} does not act isometrically",
                witness=(label, defined[a], defined[b]),
            )
    ball_data = cayley_ball(action.group, radius)
    images = []
    for elem in ball_data.elements:
        img = action.act(elem, x0)
        if img is None:
            raise InputError(
                f"orbit of {elem} leaves the finite space; shrink the ball radius"
            )
        images.append(img)
    lam = 1.0
    for label, g in action.group.generators:
        moved = action.act(g, x0)
        if moved is not None:
            lam = max(lam, space.dist(moved, x0))
    orbit_map = map_between_spaces(ball_data.space, space, images, lam)
    config = make_config(orbit_map, epsilon, n, k, **config_kwargs)
    fibers = {}
    for R in R_list:
        hits = [i for i, img in enumerate(images) if space.dist(img, x0) <= R]
        fibers[R] = PointSet.of(hits)
    return {
        "config": config,
        "orbit_map": orbit_map,
        "lam": lam,
        "ball": ball_data,
        "fibers": fibers,
    }
