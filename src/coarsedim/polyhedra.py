"""Uniform polyhedra: nerves, canonical projections, simplicial maps and
mapping cylinders.

Complexes are realized with one orthonormal basis vector per vertex, and
the polyhedron metric is plain Euclidean distance on those coordinate
vectors.  Points of one complex form a coordinate block: one row per
point, one column per vertex in the complex's vertex order, each row's
weights nonnegative, summing to 1 and supported on a simplex, as
``check_rows`` checks.  Projections, simplicial maps and cylinder
quotients act on whole blocks.

Mapping cylinders are triangulated on the disjoint union of source and
target vertices; the quotient map q from (source point, t) onto the
cylinder is computed explicitly from the ordered prism decomposition, and
its Lipschitz constant is measured, not assumed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Sequence

import numpy as np

from .covers import COORD_EPS, Cover, lebesgue_number, mesh, multiplicity
from .errors import InputError, InvariantViolation
from .metric_core import TOL, FiniteMetricSpace, sup_ratio


def _closure(cells: Iterable[tuple]) -> frozenset[tuple]:
    out = set()
    for cell in cells:
        for size in range(1, len(cell) + 1):
            out.update(itertools.combinations(cell, size))
    return frozenset(out)


def _positions(vertices: Sequence) -> dict:
    return {v: i for i, v in enumerate(vertices)}


@dataclass(frozen=True)
class SimplicialComplex:
    """Abstract simplicial complex over ordered, hashable vertex ids.

    ``vertices`` fixes the canonical vertex order (used by cylinder
    triangulations); ``simplices`` is face-closed and stores sorted id
    tuples in that order.
    """

    vertices: tuple[Hashable, ...]
    simplices: frozenset[tuple]

    def __post_init__(self):
        pos = self.positions
        if len(pos) != len(self.vertices):
            raise InputError("duplicate vertex ids")
        for s in self.simplices:
            if not s:
                raise InputError("empty simplex")
            order = [pos[v] for v in s]
            if order != sorted(order) or len(set(order)) != len(order):
                raise InputError(f"simplex {s} not sorted in vertex order")
        if self.simplices != _closure(self.simplices):
            raise InputError("simplex set is not face-closed")

    @staticmethod
    def from_maximal(vertices: Sequence, maximal: Iterable[Iterable]) -> "SimplicialComplex":
        vertices = tuple(vertices)
        pos = _positions(vertices)
        cells = [tuple(sorted(set(c), key=pos.__getitem__)) for c in maximal]
        cells += [(v,) for v in vertices]
        return SimplicialComplex(vertices, _closure(cells))

    @cached_property
    def positions(self) -> dict:
        """Vertex id -> index in ``vertices``, built once per complex."""
        return _positions(self.vertices)

    def sort_ids(self, ids: Iterable) -> tuple:
        return tuple(sorted(set(ids), key=self.positions.__getitem__))

    @property
    def dimension(self) -> int:
        return max(len(s) for s in self.simplices) - 1

    def has_simplex(self, ids: Iterable) -> bool:
        return self.sort_ids(ids) in self.simplices

    def maximal_simplices(self) -> list[tuple]:
        """Simplices that are no proper face of another, in (size, ids)
        order.  The complex being face-closed, a proper face of a simplex
        lies in one of its facets, so dropping every facet of every simplex
        leaves exactly the maximal ones."""
        facets = {f for t in self.simplices for f in itertools.combinations(t, len(t) - 1)}
        return sorted(self.simplices - facets, key=lambda s: (len(s), s))


def check_rows(complex: SimplicialComplex, block: np.ndarray) -> np.ndarray:
    """Zero the weights at most ``COORD_EPS`` of a coordinate block, in
    place, and check that each row is a point of the complex: the weights
    sum to 1 within 1e-7, none is negative, and the support is a simplex
    (each distinct support pattern is looked up once)."""
    block[np.abs(block) <= COORD_EPS] = 0.0
    totals = block.sum(axis=1)
    off = ~(np.abs(totals - 1.0) <= 1e-7)
    if off.any():
        raise InputError(f"coordinates sum to {totals[off][0]}, expected 1")
    if (block < 0).any():
        raise InputError("negative barycentric coordinate")
    for pattern in dict.fromkeys(row.tobytes() for row in block != 0):
        support = tuple(itertools.compress(complex.vertices, pattern))
        if support not in complex.simplices:
            raise InvariantViolation(f"support {support} is not a simplex", witness=support)
    return block


def used_columns(block: np.ndarray) -> np.ndarray:
    """The block's columns with a nonzero entry, in the order a row-major
    scan first meets them.  ``sup_ratio`` sums each row norm of
    ``block[:, used_columns(block)]`` in this order, so every measured
    constant depends on it bit for bit."""
    nz = block != 0
    used = np.flatnonzero(nz.any(axis=0))
    return used[np.lexsort((used, nz[:, used].argmax(axis=0)))]


# ---------------------------------------------------------------------------
# nerves and canonical projections


def nerve(cover: Cover, vertex_ids: Sequence | None = None) -> SimplicialComplex:
    """One vertex per cover set, one simplex per set pattern realized by a
    point of the carrier."""
    ids = tuple(vertex_ids) if vertex_ids is not None else tuple(range(len(cover.sets)))
    if len(ids) != len(cover.sets):
        raise InputError("need one vertex id per cover set")
    # every set holds a carrier point, so the closure has every vertex
    cells = {tuple(itertools.compress(ids, pat)) for pat in cover.member.T.tolist()}
    return SimplicialComplex(ids, _closure(cells))


def projection_rows(cover: Cover, points) -> np.ndarray:
    """Rows of ``cover.projections`` at the given carrier points, as a new
    coordinate block over the nerve's vertices."""
    return cover.projections[cover.universe().rank(points, "the cover's carrier")]


def projection_lipschitz_check(cover: Cover) -> dict:
    """Measure the canonical projection of the carrier (exactly, over all
    pairs, by ``sup_ratio``) against the (2k+3)^2 / L bound, where k+1 is
    the multiplicity and L the Lebesgue number."""
    k = multiplicity(cover) - 1
    leb = lebesgue_number(cover)
    bound = 0.0 if math.isinf(leb) else (2 * k + 3) ** 2 / leb
    carrier = cover.universe().indices
    X = check_rows(nerve(cover), projection_rows(cover, carrier))
    measured = sup_ratio(cover.space, carrier, X[:, used_columns(X)])
    return {
        "measured": measured,
        "bound": bound,
        "k": k,
        "lebesgue": leb,
        "ok": measured <= bound + TOL,
    }


# ---------------------------------------------------------------------------
# simplicial maps and refinement


@dataclass(frozen=True)
class SimplicialMap:
    """Vertex assignment between complexes sending simplices to simplices."""

    source: SimplicialComplex
    target: SimplicialComplex
    assignment: dict

    def __post_init__(self):
        missing = [v for v in self.source.vertices if v not in self.assignment]
        if missing:
            raise InputError(f"assignment misses vertices {missing[:4]}")
        for s in self.source.simplices:
            if not self.target.has_simplex(self.assignment[v] for v in s):
                raise InvariantViolation(
                    "image of a simplex is not a simplex", witness=s
                )

    @cached_property
    def columns(self) -> np.ndarray:
        """Target column of each source column's image."""
        pos = self.target.positions
        return np.array([pos[self.assignment[v]] for v in self.source.vertices], dtype=np.intp)

    def push(self, block: np.ndarray) -> np.ndarray:
        """Target block of the images of source rows, unchecked: each
        column is added to its image's column in source vertex order."""
        out = np.zeros((len(block), len(self.target.vertices)))
        for c in np.flatnonzero(block.any(axis=0)):
            out[:, self.columns[c]] += block[:, c]
        return out

    def apply_rows(self, block: np.ndarray) -> np.ndarray:
        """The map on a block of source rows, checked in the target."""
        return check_rows(self.target, self.push(block))


def refinement_map(
    fine: Cover,
    coarse: Cover,
    fine_nerve: SimplicialComplex,
    coarse_nerve: SimplicialComplex,
) -> SimplicialMap:
    """Send each fine set to the first coarse set containing it.

    Requires Lebesgue(coarse) > mesh(fine), which guarantees a containing
    set exists; prefers the identical set when present, then lowest index.
    Containment is read from ``coarse.member``, scattered over the whole
    space so that a fine point outside the coarse carrier lies in no coarse
    set.
    """
    leb = lebesgue_number(coarse)
    b = mesh(fine)
    if not leb > b:
        raise InputError(f"need Lebesgue(coarse) > mesh(fine); got {leb} <= {b}")
    inside = np.zeros((len(coarse.sets), coarse.space.n), dtype=bool)
    inside[:, coarse.universe().indices] = coarse.member
    sizes = inside.sum(axis=1)
    assignment = {}
    for fi, fset in enumerate(fine.sets):
        # 2 for an equal coarse set, 1 for a larger one containing it
        fit = inside[:, fset.indices].all(axis=1) * (1 + (sizes == len(fset)))
        target = int(fit.argmax())
        if not fit[target]:
            raise InvariantViolation(
                f"fine set {fi} is contained in no coarse set", witness=fi
            )
        assignment[fine_nerve.vertices[fi]] = coarse_nerve.vertices[target]
    return SimplicialMap(fine_nerve, coarse_nerve, assignment)


# ---------------------------------------------------------------------------
# mapping cylinders


@dataclass(frozen=True)
class MappingCylinder:
    """Triangulated cylinder of a simplicial map g.

    Vertices are the disjoint union of source and target vertices; each
    source simplex [v0..vp] contributes the cells [v0..vi, g(vi)..g(vp)].
    ``rows(block, t)`` is the quotient map: t=0 is the isometric source
    copy, t=1 lands on the g-image in the target copy.
    """

    map: SimplicialMap
    complex: SimplicialComplex

    @property
    def source(self) -> SimplicialComplex:
        return self.map.source

    def rows(self, block: np.ndarray, t) -> np.ndarray:
        """The quotient map on a block of source rows, with one parameter
        per row.  Row by row: with suffix sums s_j of the weights (support
        in vertex order), the point lies in the prism cell of the last
        support vertex i with s_(i+1) <= t <= s_i; the weights before i
        stay on the source copy, vertex i keeps s_i - t there, and
        t - s_(i+1) and the weights after i move to their g-images."""
        t = np.asarray(t, dtype=float)
        if not ((-TOL <= t) & (t <= 1 + TOL)).all():
            raise InputError("cylinder parameter must lie in [0, 1]")
        t = np.clip(t, 0.0, 1.0)[:, None]
        m, p = block.shape
        suffix = np.zeros((m, p + 1))
        suffix[:, :p] = np.cumsum(block[:, ::-1], axis=1)[:, ::-1]
        valid = (block != 0) & (suffix[:, 1:] <= t + COORD_EPS) & (t <= suffix[:, :-1] + COORD_EPS)
        held = valid.any(axis=1)
        if not held.all():
            r = int(np.flatnonzero(~held)[0])
            nz = np.flatnonzero(block[r])
            support = tuple(self.source.vertices[c] for c in nz)
            raise InvariantViolation(
                f"no cylinder cell holds the point at t={t[r, 0]}: its weights sum to {suffix[r, 0]}",
                witness=(support, tuple(block[r, nz].tolist()), float(t[r, 0])),
            )
        i = (p - 1 - valid[:, ::-1].argmax(axis=1))[:, None]
        cols = np.arange(p)
        at = cols == i
        bottom = np.where(cols < i, block, 0.0)
        top = np.where(cols > i, block, 0.0)
        bottom[at] = np.take_along_axis(suffix, i, axis=1)[:, 0] - t[:, 0]
        top[at] = t[:, 0] - np.take_along_axis(suffix, i + 1, axis=1)[:, 0]
        return check_rows(self.complex, np.hstack([bottom, self.map.push(top)]))

    def point(self, w: np.ndarray, t: float) -> np.ndarray:
        """The quotient map at one source row: a one-row ``rows``."""
        return self.rows(w[None, :], [t])[0]


def mapping_cylinder(g: SimplicialMap) -> MappingCylinder:
    src, dst = g.source, g.target
    if set(src.vertices) & set(dst.vertices):
        raise InputError("source and target vertex ids must be disjoint")
    # source ids precede target ids in the cylinder's vertex order, and a
    # source simplex is already sorted, so each cell sorts only its image
    cells = set(dst.simplices)
    for s in src.simplices:
        for i in range(len(s)):
            cells.add(s[: i + 1] + dst.sort_ids(g.assignment[v] for v in s[i:]))
    complex = SimplicialComplex(src.vertices + dst.vertices, _closure(cells))
    return MappingCylinder(g, complex)


def _simplex_complex(dim: int, tag: str) -> SimplicialComplex:
    ids = tuple((tag, i) for i in range(dim + 1))
    return SimplicialComplex.from_maximal(ids, [ids])


T_STEPS = 16  # steps of the t grid on which cylinder constants are measured


def measure_cylinder_constant(cyl: MappingCylinder) -> float:
    """Measured Lipschitz constant of the quotient map q on the product
    source x [0, 1] with metric sqrt(d^2 + dt^2), sampled on a uniform t
    grid of ``T_STEPS`` steps at the vertices, then at the barycenters of
    the simplices of two or more vertices in ``(len, simplex)`` order
    (pairs closer than ``COORD_EPS`` are skipped)."""
    src = cyl.source
    cells = [s for s in sorted(src.simplices, key=lambda s: (len(s), s)) if len(s) >= 2]
    samples = np.zeros((len(src.vertices) + len(cells), len(src.vertices)))
    samples[: len(src.vertices)] = np.eye(len(src.vertices))
    for row, s in enumerate(cells, start=len(src.vertices)):
        samples[row, [src.positions[v] for v in s]] = 1.0 / len(s)
    check_rows(src, samples)
    ts = np.tile([i / T_STEPS for i in range(T_STEPS + 1)], len(samples))
    block = np.repeat(samples, T_STEPS + 1, axis=0)
    rows = np.hstack([block, ts[:, None]])
    dist = np.array([np.sqrt(np.einsum("ij,ij->i", rows - row, rows - row)) for row in rows])
    dist[dist <= COORD_EPS] = 0.0
    grid = FiniteMetricSpace(dist)
    images = cyl.rows(block, ts)
    return sup_ratio(grid, grid.points(), images[:, used_columns(images)])


def measure_uniformization_constant(dim: int) -> float:
    """Estimate the uniformization constant for cylinders over complexes of
    the given dimension: the max measured quotient-map constant over a
    deterministic family of collapse and identity maps (always >= 1, since
    q restricted to t=0 is an isometry).  A NaN measurement, or a maximum
    below 1, raises ``InvariantViolation``."""
    src = _simplex_complex(dim, "s")
    family = [
        SimplicialMap(src, _simplex_complex(0, "t"), {v: ("t", 0) for v in src.vertices}),
        SimplicialMap(src, _simplex_complex(dim, "t"), {("s", i): ("t", i) for i in range(dim + 1)}),
    ]
    if dim >= 1:
        collapse = {("s", i): ("t", min(i, dim - 1)) for i in range(dim + 1)}
        family.append(SimplicialMap(src, _simplex_complex(dim - 1, "t"), collapse))
    measured = [measure_cylinder_constant(mapping_cylinder(g)) for g in family]
    if any(math.isnan(c) for c in measured):
        raise InvariantViolation(f"uniformization constants {measured} include NaN")
    best = max(measured)
    if best < 1.0:
        raise InvariantViolation(f"uniformization constant {best} measured below 1")
    return best


# ---------------------------------------------------------------------------
# gluing


def glue(complexes: Sequence[SimplicialComplex]) -> SimplicialComplex:
    """Pushout along shared vertex ids: vertices and simplices are merged
    by identity of ids.  Shared subcomplexes must literally agree, which is
    how tower complexes are set up."""
    order: list = []
    seen = set()
    for c in complexes:
        for v in c.vertices:
            if v not in seen:
                seen.add(v)
                order.append(v)
    pos = _positions(order)
    cells = set()
    for c in complexes:
        for s in c.simplices:
            cells.add(tuple(sorted(s, key=pos.__getitem__)))
    return SimplicialComplex(tuple(order), _closure(cells))
