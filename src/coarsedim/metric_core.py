"""Finite metric spaces and measured Lipschitz constants.

Everything downstream runs on a :class:`FiniteMetricSpace`: an immutable
point set with an explicit distance matrix that is checked against the
metric axioms at construction time.  Balls, neighborhoods and set-to-set
distances are computed exactly.  Lipschitz constants of maps are *measured*
over point pairs rather than trusted, which is the verification instrument
used by every other module.

Distances are 64-bit floats.  Integer-weight graphs (the dominant case)
produce exact values, so comparisons against them are exact; everywhere
else a 1e-9 tolerance applies.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Iterable, Sequence

import numpy as np

from .errors import CapExceeded, InputError, MetricAxiomError

TOL = 1e-9

# Exhaustive triangle checks run below this size; above it a seeded sample
# is used (the seed is part of the report).
EXHAUSTIVE_TRIPLE_LIMIT = 300

# Largest temporary of sup_ratio, distance_to_set and the symmetrization of
# shortest-path matrices, in matrix entries.
SUP_RATIO_BLOCK = 1 << 14

# Largest n*n distance matrix a construction may allocate, in entries (512 MiB).
MATRIX_CAP = 1 << 26


# ---------------------------------------------------------------------------
# point sets


@dataclass(frozen=True)
class PointSet:
    """Sorted tuple of point indices of some ambient space."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = self.indices
        if any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
            raise InputError("PointSet indices must be strictly increasing")
        if idx and idx[0] < 0:
            raise InputError("PointSet indices must be nonnegative")

    @staticmethod
    def of(points: Iterable[int]) -> "PointSet":
        return PointSet(tuple(sorted(set(int(p) for p in points))))

    @staticmethod
    def universe(n: int) -> "PointSet":
        return PointSet(tuple(range(n)))

    def __iter__(self):
        return iter(self.indices)

    def __len__(self):
        return len(self.indices)

    def __contains__(self, p) -> bool:
        i = bisect_left(self.indices, p)
        return i < len(self.indices) and self.indices[i] == p

    def as_set(self) -> frozenset[int]:
        return frozenset(self.indices)

    def union(self, other: "PointSet") -> "PointSet":
        return PointSet.of(self.as_set() | other.as_set())

    def intersection(self, other: "PointSet") -> "PointSet":
        return PointSet.of(self.as_set() & other.as_set())

    def difference(self, other: "PointSet") -> "PointSet":
        return PointSet.of(self.as_set() - other.as_set())


def as_point_set(points) -> PointSet:
    if isinstance(points, PointSet):
        return points
    return PointSet.of(points)


# ---------------------------------------------------------------------------
# spaces


PROVENANCES = (
    "explicit-matrix",
    "graph-shortest-path",
    "word-metric-ball",
    "free-product",
    "hyperbolization",
)


@dataclass(frozen=True, eq=False)
class FiniteMetricSpace:
    """Immutable finite metric space, compared by identity.

    The distance matrix is validated on construction (see
    :func:`verify_metric_axioms`); the array is frozen so instances can be
    shared freely across threads.
    """

    matrix: np.ndarray
    labels: tuple[str, ...] | None = None
    provenance: str = "explicit-matrix"
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        if self.provenance not in PROVENANCES:
            raise InputError(f"unknown provenance {self.provenance!r}")
        if self.labels is not None and len(self.labels) != m.shape[0]:
            raise InputError("label count does not match point count")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def dist(self, a: int, b: int) -> float:
        return float(self.matrix[a, b])

    def points(self) -> range:
        return range(self.n)

    def diameter(self) -> float:
        return float(self.matrix.max()) if self.n else 0.0

    def label(self, p: int) -> str:
        return self.labels[p] if self.labels else str(p)


def _triangle_violation_exhaustive(m: np.ndarray, tol: float):
    n = m.shape[0]
    for k in range(n):
        via = m[:, k][:, None] + m[k, :][None, :]
        bad = m > via + tol
        if bad.any():
            i, j = map(int, np.argwhere(bad)[0])
            return (i, j, k, float(m[i, j]), float(m[i, k] + m[k, j]))
    return None


def _triangle_violation_sampled(m: np.ndarray, tol: float, seed: int, samples: int):
    n = m.shape[0]
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n, size=(samples, 3))
    lhs = m[idx[:, 0], idx[:, 1]]
    rhs = m[idx[:, 0], idx[:, 2]] + m[idx[:, 2], idx[:, 1]]
    bad = lhs > rhs + tol
    if bad.any():
        w = int(np.argmax(bad))
        i, j, k = map(int, idx[w])
        return (i, j, k, float(m[i, j]), float(m[i, k] + m[k, j]))
    return None


def verify_metric_axioms(
    space_or_matrix,
    *,
    triple_mode: str = "auto",
    seed: int = 0,
    samples: int = 200_000,
    tol: float = TOL,
) -> dict:
    """Check symmetry, positivity and the triangle inequality.

    Symmetry and positivity checks are always exhaustive.  The triangle
    check is exhaustive for spaces up to 300 points; above that,
    ``triple_mode="auto"`` samples triples with the given seed (recorded in
    the report).  Pass ``triple_mode="exhaustive"`` to force the full scan.
    """
    m = space_or_matrix.matrix if isinstance(space_or_matrix, FiniteMetricSpace) else np.asarray(space_or_matrix, float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError("distance matrix must be square")
    n = m.shape[0]
    report: dict[str, Any] = {"n": n, "ok": True, "witness": None, "seed": seed}

    diag = np.abs(np.diag(m))
    if n and diag.max() > tol:
        i = int(np.argmax(diag))
        report.update(ok=False, axiom="zero-diagonal", witness=(i, i, float(m[i, i])))
        return report
    asym = np.abs(m - m.T)
    if n and asym.max() > tol:
        i, j = map(int, np.unravel_index(np.argmax(asym), asym.shape))
        report.update(ok=False, axiom="symmetry", witness=(i, j, float(m[i, j]), float(m[j, i])))
        return report
    off = m + np.eye(n)  # mask the diagonal before positivity test
    if n and off.min() <= 0:
        i, j = map(int, np.unravel_index(np.argmin(off), off.shape))
        report.update(ok=False, axiom="positivity", witness=(i, j, float(m[i, j])))
        return report

    if triple_mode == "exhaustive" or (triple_mode == "auto" and n <= EXHAUSTIVE_TRIPLE_LIMIT):
        report["triple_mode"] = "exhaustive"
        w = _triangle_violation_exhaustive(m, tol)
    elif triple_mode in ("auto", "sampled"):
        report["triple_mode"] = "sampled"
        report["triples_sampled"] = samples
        w = _triangle_violation_sampled(m, tol, seed, samples)
    else:
        raise InputError(f"unknown triple_mode {triple_mode!r}")
    if w is not None:
        report.update(ok=False, axiom="triangle", witness=w)
    return report


def build_explicit(matrix, labels=None, *, provenance: str = "explicit-matrix") -> FiniteMetricSpace:
    """Build a space from an explicit square distance matrix, verifying the
    axioms first (exhaustively up to 300 points, sampled above).  The
    axioms accept an asymmetry within tolerance; the kept matrix is exactly
    symmetric, d(s, t) being the smaller of the two given entries, so no
    set-geometry result depends on which side it reads."""
    m = np.asarray(matrix, dtype=float)
    report = verify_metric_axioms(m)
    if not report["ok"]:
        raise MetricAxiomError(
            f"matrix violates {report['axiom']} axiom at {report['witness']}",
            witness=report["witness"],
        )
    return FiniteMetricSpace(np.minimum(m, m.T), tuple(labels) if labels else None, provenance)


def build_graph_metric(n: int, edges: Sequence[tuple], labels=None) -> FiniteMetricSpace:
    """Shortest-path metric of a connected, positively weighted graph.

    ``edges`` is a list of ``(i, j)`` or ``(i, j, w)`` entries; missing
    weights default to 1.  Parallel edges keep their lightest weight.  The
    matrix is exactly symmetric: d(s, t) is the smaller of the two
    directions' sums.  Disconnected graphs are rejected, and so is an n*n
    matrix over ``MATRIX_CAP`` before it is allocated.  scipy is imported
    on the first call with n > 1, so processes that build no graph never
    load it.
    """
    if n <= 0:
        raise InputError("graph needs at least one vertex")
    if n * n > MATRIX_CAP:
        raise CapExceeded(f"graph has {n} vertices; its matrix exceeds cap {MATRIX_CAP}")
    given = []
    lightest: dict[tuple[int, int], float] = {}
    for e in edges:
        if len(e) == 2:
            i, j, w = e[0], e[1], 1.0
        else:
            i, j, w = e
        if not (0 <= i < n and 0 <= j < n):
            raise InputError(f"edge {e} out of range")
        if w <= 0:
            raise InputError(f"edge {e} has nonpositive weight")
        w = float(w)
        given.append((int(i), int(j), w))
        pair = (min(i, j), max(i, j))
        lightest[pair] = min(w, lightest.get(pair, w))
    if n == 1:
        m = np.zeros((1, 1))
    else:
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import dijkstra

        rows = [i for i, _ in lightest]
        cols = [j for _, j in lightest]
        graph = coo_matrix((list(lightest.values()), (rows, cols)), shape=(n, n))
        m = dijkstra(graph, directed=False)
        if np.isinf(m).any():
            i, j = map(int, np.argwhere(np.isinf(m))[0])
            raise InputError(f"graph is disconnected: no path between {i} and {j}")
        # each source sums its own paths, so d(s, t) and d(t, s) can differ
        # in the last ulp; keep the smaller, a row block at a time
        step = max(1, SUP_RATIO_BLOCK // n)
        for lo in range(0, n, step):
            block = np.minimum(m[lo:lo + step], m[:, lo:lo + step].T)
            m[lo:lo + step] = block
            m[:, lo:lo + step] = block.T
    space = FiniteMetricSpace(m, tuple(labels) if labels else None, "graph-shortest-path")
    space.meta["edges"] = given
    return space


def path_space(n: int) -> FiniteMetricSpace:
    """Unit-weight path 0 - 1 - ... - n-1."""
    return build_graph_metric(n, [(i, i + 1) for i in range(n - 1)])


def cycle_space(n: int) -> FiniteMetricSpace:
    if n < 3:
        raise InputError("cycle needs at least 3 vertices")
    return build_graph_metric(n, [(i, (i + 1) % n) for i in range(n)])


def grid_space(rows: int, cols: int) -> FiniteMetricSpace:
    """Unit-weight grid graph; point index is row*cols + col."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return build_graph_metric(rows * cols, edges)


# ---------------------------------------------------------------------------
# balls, neighborhoods, set distances


def ball(space: FiniteMetricSpace, center: int, radius: float) -> PointSet:
    """Closed ball: all points at distance <= radius from the center."""
    if radius < 0:
        raise InputError("radius must be nonnegative")
    hits = np.nonzero(space.matrix[center] <= radius + TOL)[0]
    return PointSet(tuple(int(i) for i in hits))


def distance_to_set(space: FiniteMetricSpace, a) -> np.ndarray:
    """Vector of d(x, A) for every point x, exact: the minimum of A's
    matrix rows, gathered in blocks of at most ``SUP_RATIO_BLOCK``
    entries."""
    idx = np.asarray(as_point_set(a).indices, dtype=np.intp)
    if not idx.size:
        raise InputError("distance to a set needs a nonempty set")
    m = space.matrix
    step = max(1, SUP_RATIO_BLOCK // max(1, space.n))
    out = m[idx[:step]].min(axis=0)
    for lo in range(step, len(idx), step):
        np.minimum(out, m[idx[lo:lo + step]].min(axis=0), out=out)
    return out


def set_distances(space: FiniteMetricSpace, family_a: Sequence, family_b: Sequence) -> np.ndarray:
    """|family_a| x |family_b| table of set distances, 0 where two sets
    intersect.  Each row is ``distance_to_set`` of one A, min-reduced over
    the segments of family_b's concatenated indices.  Every member must be
    nonempty: ``reduceat`` would fill an empty segment with its
    neighbour's value."""
    fam_a = [as_point_set(s) for s in family_a]
    fam_b = [as_point_set(s).indices for s in family_b]
    if not all(fam_b) or not all(a.indices for a in fam_a):
        raise InputError("set distances need nonempty sets")
    out = np.empty((len(fam_a), len(fam_b)))
    if fam_a and fam_b:
        cols = np.fromiter(chain.from_iterable(fam_b), dtype=np.intp)
        starts = np.cumsum([0] + [len(b) for b in fam_b[:-1]])
        for i, a in enumerate(fam_a):
            out[i] = np.minimum.reduceat(distance_to_set(space, a)[cols], starts)
    return out


def set_distance(space: FiniteMetricSpace, a, b) -> float:
    """Minimum distance over pairs; 0 when the sets intersect."""
    return float(set_distances(space, [a], [b])[0, 0])


def neighborhood(space: FiniteMetricSpace, a, r: float, within=None) -> PointSet:
    """Closed r-neighborhood of a set, optionally restricted to a carrier
    subset (used when a cover lives on a subspace)."""
    if r < 0:
        raise InputError("radius must be nonnegative")
    a = as_point_set(a)
    if not a.indices:
        return a
    hits = np.flatnonzero(distance_to_set(space, a) <= r + TOL)
    out = PointSet(tuple(hits.tolist()))
    if within is not None:
        out = out.intersection(as_point_set(within))
    return out


def diameter_of(space: FiniteMetricSpace, a) -> float:
    a = as_point_set(a)
    if not a.indices:
        return 0.0
    sub = space.matrix[np.ix_(a.indices, a.indices)]
    return float(sub.max())


# ---------------------------------------------------------------------------
# maps and measured Lipschitz constants


@dataclass(frozen=True)
class MetricMap:
    """Total map from a finite metric space into a codomain whose metric
    the map does not restate: a :class:`FiniteMetricSpace` (``images[p]``
    is a point index of it) or ``"reals"`` (``images[p]`` is a float,
    distances are absolute differences)."""

    domain: FiniteMetricSpace
    images: tuple
    codomain: FiniteMetricSpace | str
    declared_lipschitz: float | None = None

    def __post_init__(self):
        if len(self.images) != self.domain.n:
            raise InputError("assignment must be total on the domain")
        if not isinstance(self.codomain, FiniteMetricSpace) and self.codomain != "reals":
            raise InputError(f"codomain must be a finite metric space or 'reals', not {self.codomain!r}")

    def points(self) -> range:
        return range(self.domain.n)


def map_between_spaces(
    domain: FiniteMetricSpace,
    codomain: FiniteMetricSpace,
    assignment: Sequence[int],
    declared_lipschitz: float | None = None,
) -> MetricMap:
    assignment = tuple(int(a) for a in assignment)
    for a in assignment:
        if not (0 <= a < codomain.n):
            raise InputError(f"image point {a} outside codomain")
    return MetricMap(domain, assignment, codomain, declared_lipschitz)


def map_to_reals(domain: FiniteMetricSpace, values: Sequence[float], declared_lipschitz=None) -> MetricMap:
    return MetricMap(domain, tuple(float(v) for v in values), "reals", declared_lipschitz)


def measured_lipschitz(m: MetricMap) -> float:
    """Largest ratio d(f(x), f(y)) / d(x, y) over all pairs of distinct
    points, exact: one codomain row gather per domain row for a finite
    codomain, ``sup_ratio`` for the reals."""
    if m.codomain == "reals":
        return sup_ratio(m.domain, m.points(), m.images)
    img = np.asarray(m.images, dtype=np.intp)
    cod, dom = m.codomain.matrix, m.domain.matrix
    best = 0.0
    for i in range(len(img) - 1):
        best = max(best, float((cod[img[i], img[i + 1:]] / dom[i, i + 1:]).max()))
    return best


def sup_ratio(space: FiniteMetricSpace, pts: Sequence[int], X) -> float:
    """Largest ||X_i - X_j|| / d(p_i, p_j) over pairs i < j with
    d(p_i, p_j) > 0; 0.0 for fewer than two points.

    ``X`` holds one coordinate row per point (a 1-d array is one column).
    Norms come from exact row differences, not from a Gram matrix, whose
    distances lose about sqrt(eps); one column gives |X_i - X_j| exactly.
    Temporaries stay below ``SUP_RATIO_BLOCK`` entries.
    """
    idx = np.asarray(pts, dtype=np.intp)
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    step = max(1, SUP_RATIO_BLOCK // max(1, X.shape[1]))
    best = 0.0
    for i in range(len(idx) - 1):
        for lo in range(i + 1, len(idx), step):
            diff = X[lo:lo + step] - X[i]
            norms = np.abs(diff[:, 0]) if X.shape[1] == 1 else np.sqrt(np.einsum("ij,ij->i", diff, diff))
            dist = space.matrix[idx[i], idx[lo:lo + step]]
            pos = dist > 0
            if pos.any():
                best = max(best, float((norms[pos] / dist[pos]).max()))
    return best


# ---------------------------------------------------------------------------
# JSON format: {"kind": "matrix"|"graph", "n": int, "labels": [...],
#               "matrix": [[...]] | "edges": [[i, j, w], ...]}


def space_to_json(space: FiniteMetricSpace) -> dict:
    doc: dict[str, Any] = {"n": space.n}
    if space.labels:
        doc["labels"] = list(space.labels)
    if space.provenance == "graph-shortest-path" and "edges" in space.meta:
        doc["kind"] = "graph"
        doc["edges"] = [[i, j, w] for i, j, w in space.meta["edges"]]
    else:
        doc["kind"] = "matrix"
        doc["matrix"] = [[float(x) for x in row] for row in space.matrix]
    return doc


def space_from_json(doc: dict) -> FiniteMetricSpace:
    try:
        kind = doc["kind"]
        n = doc["n"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"space JSON missing field: {exc}") from exc
    labels = doc.get("labels")
    if kind == "matrix":
        m = doc["matrix"]
        if len(m) != n:
            raise InputError("matrix size does not match n")
        return build_explicit(m, labels)
    if kind == "graph":
        return build_graph_metric(n, [tuple(e) for e in doc["edges"]], labels)
    raise InputError(f"unknown space kind {kind!r}")


def load_space(path) -> FiniteMetricSpace:
    with open(path, "r", encoding="utf-8") as f:
        return space_from_json(json.load(f))
