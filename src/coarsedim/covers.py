"""Covers and colored decompositions.

A *cover* is a family of point sets whose union is the carrier (the whole
space unless stated).  A *colored decomposition* splits a carrier into
color classes, each a family of pairwise far-apart sets: within one color,
distinct sets are more than D apart, and every set has diameter at most B.
The number of colors needed at a given separation scale D is the basic
finite-scale dimension witness computed here.

Solvers: clusters are carved deterministically by smallest-index ball
carving at mesh B, then colored either greedily (descending size,
first-fit) or exactly (branch-and-bound chromatic number of the cluster
conflict graph, capped at 12 clusters).  Exact color counts are minimal
*for the carved clustering*; reports label which mode produced a value.
A decomposition of a carrier C holds a |C| x |C| float copy of C's
submatrix when C is a strict subset of the space, and one |C| x |C| bool
table of D-close pairs; both stay below ``MATRIX_CAP`` as the space does.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import CapExceeded, InputError, InvariantViolation
from .metric_core import (
    TOL,
    FiniteMetricSpace,
    PointSet,
    _first_max,
    _in_range,
    _min_of_rows,
    _point_set_in,
    _points_in,
    _row_blocks,
    as_point_set,
    diameter_of,
    diameters_of,
    set_distances,
)

EXACT_CLUSTER_CAP = 12
COORD_EPS = 1e-12  # barycentric weights at most this are zero


# ---------------------------------------------------------------------------
# covers


@dataclass(frozen=True)
class Cover:
    """Family of nonempty point sets covering a carrier.

    ``carrier`` defaults to the whole space; a cover of a subspace keeps
    ambient indices and distances but treats the carrier as its universe
    (complements, Lebesgue numbers and projections are carrier-relative).
    A family that fails to cover its carrier is an ``InputError``.
    """

    space: FiniteMetricSpace
    sets: tuple[PointSet, ...]
    carrier: PointSet | None = None

    def __post_init__(self):
        if not self.sets:
            raise InputError("cover needs at least one set")
        if any(not s.indices for s in self.sets):
            raise InputError("cover sets must be nonempty")
        uncovered = ~self.member.any(axis=0)
        if uncovered.any():
            missing = np.asarray(self.universe().indices)[uncovered][:5].tolist()
            raise InputError(f"family does not cover the carrier (missing {missing})")

    def universe(self) -> PointSet:
        return self.carrier if self.carrier is not None else PointSet.universe(self.space.n)

    @cached_property
    def member(self) -> np.ndarray:
        """|sets| x |carrier| table of which set holds which carrier point,
        columns in carrier order; a set point outside the carrier is an
        ``InputError``."""
        uni = self.universe()
        out = np.zeros((len(self.sets), len(uni)), dtype=bool)
        for j, s in enumerate(self.sets):
            out[j, uni.rank(s.indices, "the cover's carrier")] = True
        out.setflags(write=False)
        return out

    @cached_property
    def depths(self) -> np.ndarray:
        """|carrier| x |sets| table of d(x, carrier minus U), rows in carrier
        order; +inf where U is the whole carrier.  A carrier point lies in
        U exactly when its depth is positive.

        Only U's own rows are read, against the complement's columns, in
        ``_row_blocks``.  A carrier point outside U gets exactly 0 without
        a read: it lies in carrier minus U itself, so its depth is
        d(x, x) = 0 by the identity axiom.  (A diagonal the axiom check
        accepted within ``TOL``, such as 1e-12 or -0.0, is not read
        there.)"""
        car = np.array(self.universe().indices)
        m = self.space.matrix
        out = np.zeros((len(car), len(self.sets)))
        for j, inside in enumerate(self.member):
            comp = car[~inside]
            if not comp.size:
                out[:, j] = math.inf
                continue
            own = np.flatnonzero(inside)
            for rows in _row_blocks(len(own), len(comp)):
                out[own[rows], j] = m[car[own[rows], None], comp].min(axis=1)
        out.setflags(write=False)
        return out

    @cached_property
    def projections(self) -> np.ndarray:
        """|carrier| x |sets| partition of unity of the canonical
        projection, rows in carrier order: a set's weight is its depth over
        the row's depth total, summed left to right as Python's ``sum``
        adds.  Where sets equal to the whole carrier contain a point, the
        weight concentrates evenly on them (the limit of the formula as the
        depth grows).  Weights at most ``COORD_EPS`` are 0."""
        depths = self.depths
        total = np.zeros(len(depths))
        for col in depths.T:
            total += col
        with np.errstate(invalid="ignore"):  # inf / inf on rows replaced below
            out = depths / total[:, None]
        infinite = np.isinf(depths)
        deep = infinite.any(axis=1)
        out[deep] = infinite[deep] / infinite[deep].sum(axis=1, keepdims=True)
        out[np.abs(out) <= COORD_EPS] = 0.0
        out.setflags(write=False)
        return out

    @cached_property
    def diameters(self) -> np.ndarray:
        """Member diameters in set order, measured once per cover, in one
        ``diameters_of`` batch."""
        out = diameters_of(self.space, self.sets)
        out.setflags(write=False)
        return out


def make_cover(space, sets: Iterable, carrier=None) -> Cover:
    return Cover(
        space,
        tuple(as_point_set(s) for s in sets),
        as_point_set(carrier) if carrier is not None else None,
    )


def multiplicity(cover: Cover) -> int:
    """Largest number of cover sets through a single point."""
    return int(cover.member.sum(axis=0).max())


def mesh(cover: Cover) -> float:
    """Largest member diameter (the uniform boundedness witness)."""
    return float(cover.diameters.max())


def lebesgue_number(cover: Cover) -> float:
    """inf over carrier points of the largest distance to a member's
    complement (complement taken inside the carrier).  A member equal to
    the whole carrier makes this +inf."""
    return float(cover.depths.max(axis=1).min())


def is_d_disjoint(space, family: Sequence, d: float) -> tuple[bool, tuple | None]:
    """Whether distinct members are pairwise more than d apart; on failure
    the witness is (i, j, distance) for the first close pair i < j in
    row-major order of one set-distance table (rows: all members but the
    last)."""
    table = set_distances(space, family[:-1], family)
    close = np.argwhere(np.triu(table <= d, 1))
    if close.size:
        i, j = map(int, close[0])
        return False, (i, j, float(table[i, j]))
    return True, None


# ---------------------------------------------------------------------------
# colored decompositions


@dataclass(frozen=True)
class ColoredDecomposition:
    """Per-color families of B-bounded sets, pairwise more than D apart
    within each color, jointly covering the carrier."""

    space: FiniteMetricSpace
    families: tuple[tuple[PointSet, ...], ...]
    D: float
    B: float
    carrier: PointSet | None = None
    info: dict = field(default_factory=dict, compare=False)

    def universe(self) -> PointSet:
        return self.carrier if self.carrier is not None else PointSet.universe(self.space.n)

    @property
    def colors(self) -> int:
        return len(self.families)

    def all_sets(self) -> list[PointSet]:
        return [s for fam in self.families for s in fam]

    def validate(self) -> None:
        """Raise on the first failure, color by color: a family of two or
        more sets that is not D-disjoint, then a set of diameter above B
        (all diameters measured in one ``diameters_of`` batch, which also
        rejects a point outside the space); then a cover that differs from
        the carrier."""
        sets = self.all_sets()
        if any(not s.indices for s in sets):
            raise InputError("decomposition sets must be nonempty")
        diameters = iter(diameters_of(self.space, sets).tolist())
        covered: set[int] = set()
        for ci, fam in enumerate(self.families):
            ok, witness = is_d_disjoint(self.space, fam, self.D) if len(fam) > 1 else (True, None)
            if not ok:
                raise InvariantViolation(
                    f"color {ci} not {self.D}-disjoint", witness=(ci,) + witness
                )
            for si, s in enumerate(fam):
                dia = next(diameters)
                if dia > self.B + TOL:
                    raise InvariantViolation(
                        f"set {si} of color {ci} has diameter {dia} > B={self.B}",
                        witness=(ci, si, dia),
                    )
                covered.update(s.indices)
        uni = self.universe().as_set()
        if covered != uni:
            missing = sorted(uni - covered)[:5]
            extra = sorted(covered - uni)[:5]
            raise InvariantViolation(
                f"families do not cover the carrier exactly (missing {missing}, extra {extra})"
            )


# ---------------------------------------------------------------------------
# saturated unions


def saturated_union(space, v_family: Sequence, u_family: Sequence, d: float) -> list[PointSet]:
    """d-saturated union of two families: each V absorbs every U within
    distance d of it; U's farther than d from all V's survive unchanged."""
    vs = [as_point_set(s) for s in v_family]
    us = [as_point_set(s) for s in u_family]
    near = set_distances(space, vs, us) <= d
    merged = [
        PointSet.of(v.as_set().union(*(us[j].indices for j in np.flatnonzero(row))))
        for v, row in zip(vs, near)
    ]
    return merged + [u for u, absorbed in zip(us, near.any(axis=0)) if not absorbed]


def finite_union_cover(
    decomp_a: ColoredDecomposition,
    decomp_b: ColoredDecomposition,
    d: float,
) -> ColoredDecomposition:
    """Color-wise d-saturated union: decomp_b's families absorb decomp_a's
    sets.  With decomp_a R-bounded and decomp_b r-bounded, the output is
    d-disjoint with mesh at most r + 2(d + R); both facts are verified
    exactly on the result and a violation raises with a witness.

    Output d-disjointness needs headroom on the absorbing side: it is
    guaranteed when decomp_b's families are (3d + 2R)-disjoint, since a
    single far-reaching set of decomp_a can otherwise be absorbed by two
    different members of decomp_b and weld them together.
    """
    if decomp_a.space is not decomp_b.space and not np.array_equal(
        decomp_a.space.matrix, decomp_b.space.matrix
    ):
        raise InputError("decompositions must share a space")
    if decomp_a.colors != decomp_b.colors:
        raise InputError(
            f"color count mismatch: {decomp_a.colors} vs {decomp_b.colors}"
        )
    space = decomp_a.space
    r_bound = decomp_a.B
    families = []
    for fam_a, fam_b in zip(decomp_a.families, decomp_b.families):
        families.append(tuple(saturated_union(space, fam_b, fam_a, d)))
    mesh_bound = decomp_b.B + 2 * (d + r_bound)
    out = ColoredDecomposition(
        space,
        tuple(families),
        D=d,
        B=mesh_bound,
        carrier=decomp_a.universe().union(decomp_b.universe()),
        info={"rule": "saturated-union", "d": d, "R": decomp_a.B, "r": decomp_b.B},
    )
    out.validate()
    return out


def disjoint_to_cover(decomp: ColoredDecomposition) -> Cover:
    """Enlarge every set by D/2 inside the carrier and pool all colors into
    one cover.  Each enlarged set is read from the set's own rows and the
    carrier's columns of the matrix, not from whole ambient rows.

    The result is verified to have multiplicity at most the color count,
    Lebesgue number greater than D/2, and mesh at most B + D.
    """
    half = decomp.D / 2.0
    m = decomp.space.matrix
    car = np.asarray(decomp.universe().indices, dtype=np.intp)
    rows = [np.asarray(_point_set_in(decomp.space, s).indices, dtype=np.intp) for s in decomp.all_sets()]
    if not all(r.size for r in rows):
        raise InputError("decomposition sets must be nonempty")
    sets = tuple(PointSet(tuple(car[_min_of_rows(m, r, car) <= half + TOL].tolist())) for r in rows)
    cover = Cover(decomp.space, sets, decomp.carrier)
    mult = multiplicity(cover)
    if mult > decomp.colors:
        raise InvariantViolation(
            f"enlarged cover multiplicity {mult} exceeds color count {decomp.colors}"
        )
    leb = lebesgue_number(cover)
    if not leb > half:
        raise InvariantViolation(f"Lebesgue number {leb} not greater than D/2 = {half}")
    got_mesh = mesh(cover)
    if got_mesh > decomp.B + decomp.D + TOL:
        raise InvariantViolation(f"mesh {got_mesh} exceeds B + D = {decomp.B + decomp.D}")
    return cover


# ---------------------------------------------------------------------------
# carving and coloring


def carve_clusters(sub: np.ndarray, B: float, first_seed: int | None = None) -> np.ndarray:
    """Deterministic ball carving of a carrier given by its distance
    submatrix ``sub`` (local indices): repeatedly take the unassigned point
    of smallest index and claim every unassigned point within B/2 of it,
    read from the seed's row.  Returns each point's cluster label, clusters
    numbered in carving order.  ``first_seed`` overrides only the first
    pick (used by the exact solver to scan alternative carvings)."""
    labels = np.full(len(sub), -1, dtype=np.intp)
    seed, label = first_seed, 0
    while (free := labels < 0).any():
        if seed is None:
            seed = int(np.argmax(free))
        labels[free & (sub[seed] <= B / 2.0 + TOL)] = label
        seed, label = None, label + 1
    return labels


def _conflict_graph(close: np.ndarray, labels: np.ndarray) -> list[set[int]]:
    """Clusters i < j conflict when ``close[p, q]`` (d(p, q) <= D) holds
    for some p of cluster i and q of cluster j, read from the rows of the
    lower cluster."""
    k = int(labels.max(initial=-1)) + 1
    near = np.zeros((k, k), dtype=bool)
    for i in range(k - 1):
        near[i, labels[close[labels == i].any(axis=0)]] = True
    near = np.triu(near, 1)
    near |= near.T
    return [set(np.flatnonzero(row).tolist()) for row in near]


def greedy_coloring(adj: list[set[int]], sizes: Sequence[int]) -> list[int]:
    """First-fit in descending cluster size, ties by smallest index."""
    order = sorted(range(len(adj)), key=lambda v: (-sizes[v], v))
    colors = [-1] * len(adj)
    for v in order:
        used = {colors[u] for u in adj[v] if colors[u] >= 0}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return colors


def _greedy_clique(adj: list[set[int]]) -> int:
    if not adj:
        return 0
    best = 1
    for start in range(len(adj)):
        clique = [start]
        for v in sorted(range(len(adj)), key=lambda u: (-len(adj[u]), u)):
            if v != start and all(v in adj[u] for u in clique):
                clique.append(v)
        best = max(best, len(clique))
    return best


def _lex_min_coloring(adj: list[set[int]], k: int) -> list[int] | None:
    """Lexicographically smallest proper k-coloring in vertex order, or None.

    Colors beyond (max used so far + 1) are skipped: any coloring using a
    fresh color higher than that can be permuted down to one that is
    lexicographically no larger, so the restriction keeps both feasibility
    and the lex-minimal witness.
    """
    n = len(adj)
    colors = [-1] * n

    def place(v, used):
        if v == n:
            return True
        for c in range(min(k, used + 1)):
            if all(colors[u] != c for u in adj[v]):
                colors[v] = c
                if place(v + 1, max(used, c + 1)):
                    return True
                colors[v] = -1
        return False

    return colors if place(0, 0) else None


def chromatic_number(adj: list[set[int]]) -> tuple[int, list[int]]:
    """Exact chromatic number by branch and bound, with a deterministic
    lexicographically minimal witness at the optimum: the first k from the
    clique bound up that admits a coloring is the chromatic number."""
    k = _greedy_clique(adj)
    while (witness := _lex_min_coloring(adj, k)) is None:
        k += 1
    return k, witness


def brute_force_chromatic(adj: list[set[int]]) -> int:
    """Independent oracle: try every color count from 1 up, enumerating raw
    assignments with early conflict rejection.  Only for tiny instances."""
    n = len(adj)
    if n == 0:
        return 0

    def feasible(k):
        def rec(v, assignment):
            if v == n:
                return True
            for c in range(k):
                if all(assignment[u] != c for u in adj[v] if u < v):
                    assignment[v] = c
                    if rec(v + 1, assignment):
                        return True
            assignment[v] = -1
            return False

        return rec(0, [-1] * n)

    k = 1
    while not feasible(k):
        k += 1
    return k


def _color_floor(sub: np.ndarray, close: np.ndarray, B: float) -> int:
    """Lower bound on the chromatic number of every carving's conflict
    graph, from the carrier table: 0 for an empty carrier; 1 when some
    seed's row is within B/2 of the whole carrier (read as
    ``carve_clusters`` reads it, so that carving is one cluster) or when
    the carrier is not D-connected; 2 otherwise.  In the last case every
    carving has two clusters, and some edge of the D-graph joins two of
    them.  An edge needs both directions within D, ``close & close.T``
    with no tolerance, so the two clusters conflict whichever side
    ``_conflict_graph`` reads."""
    if not len(sub):
        return 0
    if (sub.max(axis=1) <= B / 2.0 + TOL).any():
        return 1
    near = close & close.T
    reached = np.zeros(len(sub), dtype=bool)
    reached[0] = True
    frontier = reached.copy()
    while frontier.any():
        frontier = near[frontier].any(axis=0) & ~reached
        reached |= frontier
    return 2 if reached.all() else 1


def colored_decomposition(
    space,
    D: float,
    B: float,
    mode: str = "auto",
    carrier=None,
) -> ColoredDecomposition:
    """Carve clusters at mesh B and color them so same-color clusters are
    more than D apart.

    ``mode="greedy"`` is the first-fit heuristic; ``mode="exact"`` returns
    a provably minimal color count for the carved clustering (branch and
    bound, at most ``EXACT_CLUSTER_CAP`` clusters) and additionally scans the
    alternative carvings obtained by letting each point seed the first
    cluster, keeping the first carving with the fewest colors.  The scan
    colors each distinct clustering once and stops when the best count
    reaches a proven floor on every carving's count (``_color_floor``),
    so the result is still exact over carved clusterings.
    ``mode="auto"`` runs exact when the default carving is small enough.
    Color counts are minimal among colorings of carved clusterings, which
    may overestimate the true optimum at (D, B).  ``info`` records the
    carvings made, the distinct clusterings colored and the floor (exact
    mode only).

    The call holds one carrier table whole, not in row blocks, since every
    carving and the floor reread it: the carrier's |C| x |C| distance
    submatrix ``sub`` (a float copy only when C is a strict subset of the
    space) and its |C| x |C| bool table ``close = sub <= D``, both below
    ``MATRIX_CAP``.  Carvings are label arrays over C, deduplicated by
    each point's smallest cluster-mate; only the returned one becomes
    point sets.
    """
    _in_range(D, "D", 0)
    _in_range(B, "B", 0, math.inf, "[]")  # B = inf carves one cluster
    t0 = time.perf_counter()
    uni = _point_set_in(space, carrier) if carrier is not None else PointSet.universe(space.n)
    idx = np.asarray(uni.indices, dtype=np.intp)
    sub = space.matrix if idx.size == space.n else space.matrix[idx[:, None], idx]
    close = sub <= D
    labels = carve_clusters(sub, B)
    sizes = np.bincount(labels)
    if mode == "auto":
        mode = "exact" if len(sizes) <= EXACT_CLUSTER_CAP else "greedy"
    if mode == "greedy":
        coloring = greedy_coloring(_conflict_graph(close, labels), sizes.tolist())
        scan = {"carvings": 1, "distinct": 1, "color_floor": None}
    elif mode == "exact":
        if len(sizes) > EXACT_CLUSTER_CAP:
            raise CapExceeded(
                f"exact mode capped at {EXACT_CLUSTER_CAP} clusters, carving produced {len(sizes)}"
            )
        best = None
        floor = _color_floor(sub, close, B)
        colored: set[bytes] = set()
        for carvings, seed in enumerate([None, *range(1, idx.size)], start=1):
            carving = labels if seed is None else carve_clusters(sub, B, seed)
            first = np.unique(carving, return_index=True)[1]
            key = first[carving].tobytes()
            if first.size > EXACT_CLUSTER_CAP or key in colored:
                continue
            colored.add(key)
            chi, witness = chromatic_number(_conflict_graph(close, carving))
            if best is None or chi < best[0]:
                best = (chi, carving, witness)
            if best[0] <= floor:
                break
        assert best is not None
        _, labels, coloring = best
        scan = {"carvings": carvings, "distinct": len(colored), "color_floor": floor}
    else:
        raise InputError(f"unknown mode {mode!r}")

    chosen = [PointSet(tuple(idx[labels == i].tolist())) for i in range(len(coloring))]
    n_colors = max(coloring) + 1 if coloring else 1
    families: list[list[PointSet]] = [[] for _ in range(n_colors)]
    for cluster, color in zip(chosen, coloring):
        families[color].append(cluster)
    decomp = ColoredDecomposition(
        space,
        tuple(tuple(fam) for fam in families),
        D=D,
        B=B,
        carrier=uni if carrier is not None else None,
        info={
            "mode": mode,
            "clusters": len(chosen),
            "colors": n_colors,
            "seconds": time.perf_counter() - t0,
            "label": "exact over carved clusterings" if mode == "exact" else "upper bound (greedy/carved)",
            **scan,
        },
    )
    decomp.validate()
    return decomp


# ---------------------------------------------------------------------------
# transported and union decompositions


def verify_isometry(src: FiniteMetricSpace, dst: FiniteMetricSpace, assignment: Sequence[int]):
    """Check that the assignment (points of ``dst``) is a bijection keeping
    every distance within ``TOL``: one ``_first_max`` scan of
    |d(a_i, a_j) - d(i, j)|, the witness its first worst pair."""
    if len(assignment) != src.n or src.n != dst.n:
        raise InputError("isometry must be a bijection between equal-size spaces")
    a = _points_in(dst, assignment, "image point")
    if len(set(a)) != len(a):
        raise InvariantViolation("assignment is not injective")
    a = np.asarray(a, dtype=np.intp)
    worst, i, j = _first_max(src.n, lambda rows: np.abs(dst.matrix[np.ix_(a[rows], a)] - src.matrix[rows]))
    if worst > TOL:
        raise InvariantViolation(
            "map is not an isometry",
            witness=(i, j, float(src.matrix[i, j]), float(dst.matrix[a[i], a[j]])),
        )


def uniform_decomposition(
    spaces: Sequence[FiniteMetricSpace],
    isometries: Sequence[Sequence[int]],
    D: float,
    B: float,
    mode: str = "auto",
) -> list[ColoredDecomposition]:
    """Decompose the first space once and transport the result through the
    supplied isometries, so all spaces share one color count and mesh."""
    if not spaces:
        raise InputError("need at least one space")
    if len(isometries) != len(spaces):
        raise InputError("one isometry per space required (identity for the first)")
    for space, iso in zip(spaces, isometries):
        verify_isometry(spaces[0], space, iso)
    rep = colored_decomposition(spaces[0], D, B, mode)
    out = []
    for space, iso in zip(spaces, isometries):
        fams = tuple(
            tuple(PointSet.of(iso[p] for p in s) for s in fam) for fam in rep.families
        )
        dec = ColoredDecomposition(space, fams, D=D, B=B, info=dict(rep.info))
        dec.validate()
        out.append(dec)
    return out


def union_cover(
    members: Sequence[PointSet],
    member_decomps: Sequence[ColoredDecomposition],
    saturating_decomp: ColoredDecomposition | None,
    r: float,
) -> ColoredDecomposition:
    """Decompose a union of subspaces that are pairwise far apart outside a
    saturating core.

    Each member comes with its own decomposition (all sharing a color
    count); the members minus the core must be pairwise more than r apart
    (verified, witness on failure).  Member families are restricted away
    from the core, concatenated color-wise, and r-saturated into the core's
    families.  The result is validated before being returned.
    """
    if not members:
        raise InputError("need at least one member")
    if len(member_decomps) != len(members):
        raise InputError("one decomposition per member required")
    space = member_decomps[0].space
    members = [as_point_set(m) for m in members]
    core = saturating_decomp.universe() if saturating_decomp is not None else PointSet.of([])
    trimmed = [m.difference(core) for m in members]
    live = [i for i, t in enumerate(trimmed) if t.indices]
    ok, close = is_d_disjoint(space, [trimmed[i] for i in live], r)
    if not ok:
        i, j, dist = live[close[0]], live[close[1]], close[2]
        raise InvariantViolation(
            f"members {i} and {j} are only {dist} apart outside the core (need > {r})",
            witness=(i, j, dist),
        )
    n_colors = max(d.colors for d in member_decomps)
    if saturating_decomp is not None:
        n_colors = max(n_colors, saturating_decomp.colors)

    def padded(decomp):
        fams = list(decomp.families)
        fams += [tuple()] * (n_colors - len(fams))
        return fams

    concat: list[list[PointSet]] = [[] for _ in range(n_colors)]
    for m, dec, trim in zip(members, member_decomps, trimmed):
        keep = trim.as_set()
        for color, fam in enumerate(padded(dec)):
            for s in fam:
                cut = PointSet.of(s.as_set() & keep)
                if cut.indices:
                    concat[color].append(cut)
    families = []
    for color in range(n_colors):
        if saturating_decomp is not None:
            sat_fam = padded(saturating_decomp)[color]
            families.append(tuple(saturated_union(space, sat_fam, concat[color], r)))
        else:
            families.append(tuple(concat[color]))
    carrier = PointSet.of(set().union(*(m.as_set() for m in members)) | core.as_set())
    d_out = min([r] + [d.D for d in member_decomps] + ([saturating_decomp.D] if saturating_decomp is not None else []))
    b_out = max(diameter_of(space, s) for fam in families for s in fam)
    out = ColoredDecomposition(
        space,
        tuple(families),
        D=d_out,
        B=b_out,
        carrier=carrier,
        info={"rule": "union-of-subspaces", "r": r, "colors": n_colors},
    )
    out.validate()
    return out


# ---------------------------------------------------------------------------
# profiles


def scale_dimension_profile(
    space,
    d_list: Sequence[float],
    mesh_multiplier: float = 3.0,
) -> list[dict]:
    """Minimal color counts found at each separation scale D with mesh
    policy B = multiplier * D.  Exact when the carving is small enough,
    greedy otherwise; each row records which.  The multiplier is checked
    first, so a bad one is named, not the B it would make; so is an
    infinite one at D = 0, where B would be inf * 0 = NaN."""
    _in_range(mesh_multiplier, "mesh_multiplier", 0, math.inf, "[]")
    rows = []
    for d in d_list:
        if mesh_multiplier == math.inf and d == 0:
            raise InputError("mesh_multiplier inf and D 0 give no mesh bound B = mesh_multiplier * D: inf * 0 is undefined")
        b = mesh_multiplier * d
        t0 = time.perf_counter()
        dec = colored_decomposition(space, d, b, mode="auto")
        rows.append(
            {
                "D": d,
                "B": b,
                "colors": dec.colors,
                "mode": dec.info["mode"],
                "seconds": time.perf_counter() - t0,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# JSON formats


def decomposition_to_json(decomp: ColoredDecomposition) -> dict:
    doc = {
        "D": decomp.D,
        "B": decomp.B,
        "families": [[list(s.indices) for s in fam] for fam in decomp.families],
    }
    if decomp.carrier is not None:
        doc["carrier"] = list(decomp.carrier.indices)
    return doc


def decomposition_from_json(doc: dict, space) -> ColoredDecomposition:
    try:
        fams = tuple(tuple(PointSet.of(_points_in(space, s, "point")) for s in fam) for fam in doc["families"])
        dec = ColoredDecomposition(
            space,
            fams,
            D=float(_in_range(doc["D"], "D", 0)),
            B=float(_in_range(doc["B"], "B", 0, math.inf, "[]")),
            carrier=PointSet.of(_points_in(space, doc["carrier"], "point")) if "carrier" in doc else None,
        )
    except (KeyError, TypeError) as exc:
        raise InputError(f"decomposition JSON missing field: {exc}") from exc
    dec.validate()
    return dec
