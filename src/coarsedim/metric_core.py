"""Finite metric spaces and measured Lipschitz constants.

Everything downstream runs on a :class:`FiniteMetricSpace`: an immutable
point set with an explicit, finite distance matrix, checked against the
metric axioms by the constructors that say so.  Neighborhoods and set-to-set
distances are computed exactly.  Lipschitz constants of maps are *measured*
rather than trusted, which is the verification instrument used by every
other module: over the edges of a graph metric when a Bellman certificate
shows that the edges carry every pair's ratio, over all point pairs
otherwise.

Distances are 64-bit floats.  Integer-weight graphs (the dominant case)
produce exact values, so comparisons against them are exact; everywhere
else a 1e-9 tolerance applies.
"""

from __future__ import annotations

import heapq
import json
import math
import operator
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain, repeat
from typing import Any, Iterable, Sequence

import numpy as np

from .errors import CapExceeded, InputError, MetricAxiomError

TOL = 1e-9

# Exhaustive triangle checks run below this size; above it a seeded sample
# of TRIPLE_SAMPLES triples is used (the seed is part of the report).
EXHAUSTIVE_TRIPLE_LIMIT = 300
TRIPLE_SAMPLES = 200_000

# Largest temporary of every check and measurement, in matrix entries; read
# only by _row_blocks.
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
        if any(map(operator.ge, idx, idx[1:])):
            raise InputError("PointSet indices must be strictly increasing")
        if idx and idx[0] < 0:
            raise InputError("PointSet indices must be nonnegative")

    @staticmethod
    def of(points: Iterable[int]) -> "PointSet":
        return PointSet(tuple(sorted(set(_whole(p, "point") for p in points))))

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

    def rank(self, points, where: str) -> np.ndarray:
        """Position of each point in the set; a point outside it raises
        ``InputError`` saying it is outside ``where``."""
        own = np.asarray(self.indices, dtype=np.intp)
        pts = np.asarray(points, dtype=np.intp)
        rows = np.minimum(np.searchsorted(own, pts), len(own) - 1)
        outside = own[rows] != pts if own.size else np.ones(pts.shape, dtype=bool)
        if outside.any():
            raise InputError(f"point {pts[outside][0]} is outside {where}")
        return rows

    def as_set(self) -> frozenset[int]:
        return frozenset(self.indices)

    def union(self, other: "PointSet") -> "PointSet":
        return PointSet.of(self.as_set() | other.as_set())

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

    Construction rejects a non-square matrix, and a NaN or infinite entry
    with its first (i, j, value) in row-major order, read in row blocks.
    The metric axioms are checked by the constructors that say so, such as
    ``build_explicit``.  A float array is taken over and frozen, not
    copied (a copy would double a Cayley ball's peak memory), so
    instances can be shared freely across threads.
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
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InputError("distance matrix must be square")
        bad, i, j = _first_max(m.shape[0], lambda rows: ~np.isfinite(m[rows]))
        if bad > 0:
            raise InputError(f"distance matrix has a non-finite entry at {(i, j, float(m[i, j]))}")
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

    @cached_property
    def graph_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """``(start, v, w)``, the edges of ``meta["edges"]`` without
        self-loops indexed by their first end: the edges (p, v, w) are
        rows ``start[p]:start[p + 1]`` of ``v`` and ``w``, in their given
        order.  None for a space that is not a graph metric keeping its
        edges."""
        edges = self.meta.get("edges")
        if self.provenance != "graph-shortest-path" or edges is None:
            return None
        arr = np.array(edges, dtype=float).reshape(-1, 3)
        u, v = arr[:, 0].astype(np.intp), arr[:, 1].astype(np.intp)
        keep = np.flatnonzero(u != v)
        keep = keep[np.argsort(u[keep], kind="stable")]
        start = np.concatenate([[0], np.cumsum(np.bincount(u[keep], minlength=self.n))])
        return start, v[keep], arr[keep, 2]

    @cached_property
    def triangle_witness(self) -> tuple | None:
        """The exhaustive triangle check's first violation, as
        ``_triangle_violation_exhaustive`` finds it, or None; computed once,
        the matrix being frozen."""
        return _triangle_violation_exhaustive(self.matrix, TOL)

    @cached_property
    def whole_certificate(self) -> tuple[np.ndarray, np.ndarray] | None:
        """``edge_certificate`` of the whole space in index order, computed
        once, on first use: the matrix is frozen and ``graph_edges`` read
        once."""
        if self.graph_edges is None:
            return None
        return _certify(self, np.arange(self.n))


def _row_blocks(rows: int, width: int):
    """Slices of the row blocks of a rows x width array, in order, each at
    most ``SUP_RATIO_BLOCK`` entries (one row if a row is wider): the one
    block rule of every matrix scan and every table filled by blocks."""
    step = max(1, SUP_RATIO_BLOCK // max(1, width))
    return (slice(lo, min(rows, lo + step)) for lo in range(0, rows, step))


def _first_max(n: int, values) -> tuple[float, int, int]:
    """``(v, i, j)``: the largest entry v of the n x n array whose rows
    ``rows`` (a slice from ``_row_blocks``) are ``values(rows)``, at its
    first position (i, j) in row-major order, as ``np.argmax`` gives it on
    the whole array; a later block replaces it only with a strictly larger
    entry.  ``(-inf, 0, 0)`` when n = 0."""
    best = (-math.inf, 0, 0)
    for rows in _row_blocks(n, n):
        block = values(rows)
        k = int(np.argmax(block))
        if block.flat[k] > best[0]:
            best = (float(block.flat[k]), rows.start + k // n, k % n)
    return best


def _negated_off_diagonal(m: np.ndarray, rows: slice) -> np.ndarray:
    """Rows ``rows`` of -(m + I): the positivity test's matrix, negated so
    that ``_first_max`` finds its first minimum (negation is exact)."""
    block = -m[rows]
    block[np.arange(len(block)), np.arange(rows.start, rows.stop)] -= 1.0
    return block


def _triangle_violation_exhaustive(m: np.ndarray, tol: float):
    """First (i, j, k), k outermost, with d(i, j) > d(i, k) + d(k, j) + tol.

    A first pass builds P = min over k of fl(m[:, k] + m[k, :]), two passes
    per k into preallocated n x n buffers, and tests m > fl(P + tol).
    fl(x + tol) is nondecreasing in x, so min over k of fl(s_k + tol) =
    fl(min over k of s_k + tol) = fl(P + tol), and m[i, j] exceeds some
    fl(s_k + tol) exactly when it exceeds their minimum: the test passes
    exactly when no k has a violation.  Only when it fails does the
    k-outermost scan run, to find the first witness.  Every k reads the
    two whole n x n buffers, kept small as the check runs only up to 300
    points (600 from ``hyperbolization``) or when a caller asks for it."""
    n = m.shape[0]
    shortest, via = np.full((n, n), np.inf), np.empty((n, n))
    for k in range(n):
        np.add(m[:, k, None], m[k], out=via)
        np.minimum(shortest, via, out=shortest)
    shortest += tol
    if (m > shortest).any():
        for k in range(n):
            np.add(m[:, k, None], m[k], out=via)
            via += tol
            bad = m > via
            if bad.any():
                i, j = map(int, np.argwhere(bad)[0])
                return (i, j, k, float(m[i, j]), float(m[i, k] + m[k, j]))
    return None


def _triangle_violation_sampled(m: np.ndarray, tol: float, seed: int):
    """First bad triple among ``TRIPLE_SAMPLES`` drawn from one seeded
    generator, drawn and checked in ``_row_blocks`` of triples (at most
    ``SUP_RATIO_BLOCK // 3`` each); successive draws continue the
    generator's stream, so the triples are those of one draw of all.  A
    C-contiguous matrix is read by flat gathers at i * n + j, which read
    the same entries as m[i, j] (every such offset is in range, so the
    gathers skip the bounds check); any other keeps the 2-D gather, as
    ``ravel`` would copy it."""
    n = m.shape[0]
    rng = np.random.default_rng(seed)
    flat = m.ravel() if m.flags.c_contiguous else None
    for chunk in _row_blocks(TRIPLE_SAMPLES, 3):
        idx = rng.integers(0, n, size=(chunk.stop - chunk.start, 3))
        i, j, k = idx.T
        if flat is None:
            ij, ik, kj = m[i, j], m[i, k], m[k, j]
        else:
            ri, rk = i * n, k * n
            ij, ik, kj = (flat.take(at, mode="clip") for at in (ri + j, ri + k, rk + j))
        bad = ij > ik + kj + tol
        if bad.any():
            i, j, k = map(int, idx[int(np.argmax(bad))])
            return (i, j, k, float(m[i, j]), float(m[i, k] + m[k, j]))
    return None


def verify_metric_axioms(
    space_or_matrix,
    *,
    triple_mode: str = "auto",
    seed: int = 0,
) -> dict:
    """Check finiteness, symmetry, positivity and the triangle inequality;
    the diagonal, symmetry and triangle tests allow an error of ``TOL``.

    Finiteness, the zero diagonal, symmetry and positivity are checked
    exhaustively, in that order, reading the matrix in row blocks of at
    most ``SUP_RATIO_BLOCK`` entries, so no n x n temporary is built.  A
    NaN or infinite entry of an array fails as ``"finite"`` at its first
    position in row-major order; a ``FiniteMetricSpace`` is not scanned
    for one, as its constructor rejected them and its matrix is frozen.
    Each other witness is the first worst entry in row-major order.  The
    triangle check is exhaustive for spaces up to 300 points; above that,
    ``triple_mode="auto"`` samples triples with the given seed (recorded
    in the report), a chunk at a time.  Pass
    ``triple_mode="exhaustive"`` to force the full scan.  A
    ``FiniteMetricSpace`` reads the exhaustive verdict from its cache
    (``triangle_witness``); an array is checked afresh.
    """
    space = space_or_matrix if isinstance(space_or_matrix, FiniteMetricSpace) else None
    m = space.matrix if space is not None else np.asarray(space_or_matrix, float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError("distance matrix must be square")
    n = m.shape[0]
    report: dict[str, Any] = {"n": n, "ok": True, "witness": None, "seed": seed}

    if space is None:  # a space's constructor has rejected every non-finite entry
        bad, i, j = _first_max(n, lambda rows: ~np.isfinite(m[rows]))
        if bad > 0:
            report.update(ok=False, axiom="finite", witness=(i, j, float(m[i, j])))
            return report
    diag = np.abs(np.diag(m))
    if n and diag.max() > TOL:
        i = int(np.argmax(diag))
        report.update(ok=False, axiom="zero-diagonal", witness=(i, i, float(m[i, i])))
        return report
    asym, i, j = _first_max(n, lambda rows: np.abs(m[rows] - m[:, rows].T))
    if asym > TOL:
        report.update(ok=False, axiom="symmetry", witness=(i, j, float(m[i, j]), float(m[j, i])))
        return report
    least, i, j = _first_max(n, lambda rows: _negated_off_diagonal(m, rows))
    if -least <= 0:
        report.update(ok=False, axiom="positivity", witness=(i, j, float(m[i, j])))
        return report

    if triple_mode == "exhaustive" or (triple_mode == "auto" and n <= EXHAUSTIVE_TRIPLE_LIMIT):
        report["triple_mode"] = "exhaustive"
        w = space.triangle_witness if space is not None else _triangle_violation_exhaustive(m, TOL)
    elif triple_mode in ("auto", "sampled"):
        report["triple_mode"] = "sampled"
        report["triples_sampled"] = TRIPLE_SAMPLES
        w = _triangle_violation_sampled(m, TOL, seed)
    else:
        raise InputError(f"unknown triple_mode {triple_mode!r}")
    if w is not None:
        report.update(ok=False, axiom="triangle", witness=w)
    return report


def build_explicit(matrix, labels=None) -> FiniteMetricSpace:
    """Build a space from an explicit square distance matrix, verifying the
    axioms first (exhaustively up to 300 points, sampled above).  The
    axioms accept an asymmetry within tolerance; the kept matrix is exactly
    symmetric, d(s, t) being the smaller of the two given entries, so no
    set-geometry result depends on which side it reads.  The matrix is
    copied once and symmetrized in place; a caller's array is not
    modified."""
    m = np.array(matrix, dtype=float)
    report = verify_metric_axioms(m)
    if not report["ok"]:
        raise MetricAxiomError(
            f"matrix violates {report['axiom']} axiom at {report['witness']}",
            witness=report["witness"],
        )
    _keep_smaller_side(m)
    return FiniteMetricSpace(m, tuple(labels) if labels else None)


def _keep_smaller_side(m: np.ndarray) -> None:
    """Make the square matrix m exactly symmetric in place, each pair
    keeping the smaller of d(s, t) and d(t, s): ``np.minimum(m, m.T)``
    bit for bit, a row block at a time."""
    for rows in _row_blocks(*m.shape):
        block = np.minimum(m[rows], m[:, rows].T)
        m[rows] = block
        m[:, rows] = block.T


def build_graph_metric(n: int, edges: Sequence[tuple], labels=None) -> FiniteMetricSpace:
    """Shortest-path metric of a connected graph with finite positive real
    edge weights, computed by ``_shortest_paths``.

    ``edges`` is a list of ``(i, j)`` or ``(i, j, w)`` lists or tuples; a
    weight is a real number other than a bool, 1 when missing.  The metric
    is that of the simple graph: self-loops are dropped and parallel edges
    keep their lightest weight; the matrix is exactly symmetric.  A bad
    entry (naming its edge), a disconnected graph and an n*n matrix over
    ``MATRIX_CAP`` are rejected, the last before it is allocated.
    """
    n = _vertex_count(n)
    given = []
    lightest: dict[tuple[int, int], float] = {}
    for entry in edges:
        if not isinstance(entry, (list, tuple)) or len(entry) not in (2, 3):
            raise InputError(f"edge {entry!r} is not a list of 2 or 3 items (i, j and an optional weight)")
        e = tuple(entry)
        i, j, w = e if len(e) == 3 else (*e, 1.0)
        try:  # the edge is formatted only for a message
            i, j = _whole(i, "vertex"), _whole(j, "vertex")
        except InputError as exc:
            raise InputError(f"edge {e}: {exc}") from None
        if not (0 <= i < n and 0 <= j < n):
            raise InputError(f"edge {e} out of range")
        if not (_real(w) and 0 < w < math.inf):
            raise InputError(f"edge {e} needs a finite positive real weight")
        w = float(w)
        given.append((i, j, w))
        if i != j:
            pair = (min(i, j), max(i, j))
            lightest[pair] = min(w, lightest.get(pair, w))
    m = np.zeros((1, 1)) if n == 1 else _shortest_paths(n, lightest)
    space = FiniteMetricSpace(m, tuple(labels) if labels else None, "graph-shortest-path")
    space.meta["edges"] = given
    return space


def _real(x) -> bool:
    """Whether x is a real number, Python's or numpy's, other than a bool."""
    return not isinstance(x, bool) and isinstance(x, (int, float, np.integer, np.floating))


def _whole(value, what: str) -> int:
    """``value`` as an int; ``InputError`` unless it is a whole number, so
    a fractional index is rejected instead of truncated.  A bool (Python's
    or numpy's) is rejected too, though it compares equal to 0 or 1."""
    if isinstance(value, (bool, np.bool_)):
        raise InputError(f"{what} {value!r} is a bool, not a whole number")
    try:
        out = int(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or out != value:
        raise InputError(f"{what} {value!r} is not a whole number")
    return out


def _in_range(value, what: str, lo: float, hi: float = math.inf, ends: str = "[)"):
    """``value`` itself if it is a real number (``_real``) in the interval
    from ``lo`` to ``hi``, each end closed ("[", "]") or open ("(", ")") as
    ``ends`` says; else an ``InputError`` naming ``what``.  NaN lies in no
    interval, so it passes no check."""
    if _real(value):
        above = value >= lo if ends[0] == "[" else value > lo
        below = value <= hi if ends[1] == "]" else value < hi
        if above and below:
            return value
    raise InputError(f"{what} must be a real number in {ends[0]}{lo:g}, {hi:g}{ends[1]}, not {value!r}")


def _vertex_count(n) -> int:
    """``n`` as a whole number >= 1, else an ``InputError``; a
    ``CapExceeded`` when an n x n matrix would exceed ``MATRIX_CAP``."""
    n = _in_range(_whole(n, "vertex count"), "vertex count", 1)
    if n * n > MATRIX_CAP:
        raise CapExceeded(f"graph has {n} vertices; its matrix exceeds cap {MATRIX_CAP}")
    return n


def _points_in(space: FiniteMetricSpace, values, what: str) -> list[int]:
    """``values`` as points of ``space``: whole numbers in range(n), else an
    ``InputError`` naming the first that is not."""
    pts = [_whole(p, what) for p in values]
    outside = [p for p in pts if not 0 <= p < space.n]
    if outside:
        raise InputError(f"{what} {outside[0]} is outside the space's {space.n} points")
    return pts


def _shortest_paths(n: int, lightest: dict[tuple[int, int], float]) -> np.ndarray:
    """Dijkstra's shortest-path matrix, bit for bit, of the connected simple
    graph on n > 1 vertices whose pairs carry the ``lightest`` weights.  A
    graph with n - 1 edges of one weight is ``_tree_paths``'s; every other
    one takes the relaxation below.

    M starts at +inf with a 0 diagonal.  Passes over the vertices in Prim
    order from vertex 0 (lightest leaving edge first, ties by discovery;
    BFS order when all edges have one length), alternately backward and
    forward, set M[v] = min(M[v], min over each weight w among v's edges
    of (min of the neighbour rows at w) + w), gathering rows in
    ``_row_blocks``, until a pass changes nothing.  M, the result, is the
    one n x n array built.

    Let D[v] be Dijkstra's distance from t, summed fl(D[u] + w) outward.
    fl(x + w) is nondecreasing in x and at least x, so a group's minimum
    may be taken before adding w, and D[v] <= fl(D[u] + w) on every edge,
    with equality at v's parent in Dijkstra's tree.  Hence M[:, t] >= D
    throughout, and after pass k, M[v, t] <= fl(M[parent, t] + w) <= D[v]
    for every v within k tree edges of t: the loop ends with M equal to
    Dijkstra's matrix transposed.  With one weight w, D = L[h] for the hop
    count h and L[k] = fl(L[k-1] + w), exactly symmetric; with more,
    d(s, t) and d(t, s) can differ in the last ulp, and the smaller is kept.

    When fl(x + w) > x for every distance x reached and weight w, D is
    also the only solution of X[t] = 0, X[v] = min over edges of
    fl(X[u] + w): a minimizing neighbour has a smaller X, so these chains
    end at t and X >= D, and X <= D along the tree.  Otherwise sums drop
    whole edges (fl(1e17 + 1) = 1e17), and the graph is rejected.  As
    fl(x + w) > x needs w > spacing(x) / 2 (or a tie rounding up to even)
    and spacing grows with x, the check is 2 w_min > spacing(top) for the
    largest distance top; ``top + w_min > top`` would pass a tie that
    rounds up at top alone.  A disconnected graph is rejected, naming 0
    and the smallest vertex Prim order misses: M's first infinite entry.

    A connected graph with n - 1 edges is a tree, and its loop stops after
    one backward and one forward pass.  Prim order lists every vertex after
    its tree parent p, and D[v] = fl(D[u] + w) along the one path from t.
    The backward pass reaches v after all its children, so by induction
    M[v, t] = D[v] for every t in v's subtree: the path leaves v through a
    child c, whose row is final there.  The forward pass reaches v after
    p, whose row is then final everywhere (the root's subtree is the whole
    tree), so M[v, t] = fl(M[p, t] + w) = D[v] for the other t as well.
    """
    adj: list[dict[float, list[int]]] = [{} for _ in range(n)]
    for (i, j), w in lightest.items():
        adj[i].setdefault(w, []).append(j)
        adj[j].setdefault(w, []).append(i)
    weights = set(lightest.values())
    if len(lightest) == n - 1 and len(weights) == 1:
        (w,) = weights
        return _tree_paths([next(iter(a.values()), []) for a in adj], w)
    order, done, heap, pushed = [], [False] * n, [(0.0, 0, 0)], 0
    while heap:
        s = heapq.heappop(heap)[2]
        if not done[s]:
            done[s] = True
            order.append(s)
            for w, nbrs in adj[s].items():
                for t in nbrs:
                    if not done[t]:
                        pushed += 1
                        heapq.heappush(heap, (w, pushed, t))
    if len(order) < n:
        raise InputError(f"graph is disconnected: no path between 0 and {done.index(False)}")
    m = np.full((n, n), np.inf)
    np.fill_diagonal(m, 0.0)
    rows = [(m[s], [(w, np.array(nbrs, dtype=np.intp)) for w, nbrs in adj[s].items()]) for s in order]
    passes = 2 if len(lightest) == n - 1 else math.inf
    changed = True
    while changed and passes:
        changed = False
        passes -= 1
        rows.reverse()
        for row, groups in rows:
            near = None
            for w, nbrs in groups:
                best = _min_of_rows(m, nbrs)
                best += w
                near = best if near is None else np.minimum(near, best, out=near)
            if changed or (near < row).any():
                np.minimum(row, near, out=row)
                changed = True
    top, w_min = float(m.max()), min(lightest.values())
    if not 2 * w_min > np.spacing(top):
        raise InputError(f"edge weight {w_min} vanishes in path sums up to {top}")
    if len(weights) > 1:
        _keep_smaller_side(m)
    return m


def _search(nbrs: list[list[int]], root: int) -> tuple[list[int], list[int], list[int]]:
    """Breadth-first order from ``root``, each vertex's parent in it (the
    root its own, -1 for a vertex not reached) and its depth."""
    order, parent, depth = [root], [-1] * len(nbrs), [0] * len(nbrs)
    parent[root] = root
    for v in order:
        for u in nbrs[v]:
            if parent[u] < 0:
                parent[u], depth[u] = v, depth[v] + 1
                order.append(u)
    return order, parent, depth


def _tree_paths(nbrs: list[list[int]], w: float) -> np.ndarray:
    """``_shortest_paths`` of a graph with n - 1 edges of one weight w, one
    array step per level of the tree: a disconnected graph and a vanishing
    w raise the same errors, and a tree gets the same matrix, bit for bit.

    Dijkstra's sum to a vertex h edges away is L[h], L[0] = 0 and L[k] =
    fl(L[k-1] + w), and in a tree h(u, v) = dep(u) + dep(v) - 2 dep(lca)
    for depths from any root.  The root is a center of the tree, the
    middle of a longest path, so the levels are fewest; the longest path
    has the largest sum, L[diameter].  The root's row is L[dep].  A vertex
    u of the next level, with parent p, has lca(u, v) = lca(p, v) for
    every v outside its subtree, so h(u, v) = h(p, v) + 1 and its row is
    fl(p's row + w) there; on its subtree lca = u and h = dep(v) - dep(u).
    A level's rows are copied from its parents' rows in row blocks, then
    its subtrees, which are disjoint, are written in one scatter: in
    depth-first preorder a subtree is a run starting at its root, and the
    level lists its vertices in increasing preorder (children are visited
    in breadth-first order), so the ancestor of each deeper vertex is
    found by ``searchsorted``.  No array but M is n x n."""
    n = len(nbrs)
    order, parent, _ = _search(nbrs, 0)
    if len(order) < n:
        raise InputError(f"graph is disconnected: no path between 0 and {parent.index(-1)}")
    far, parent, hops = _search(nbrs, order[-1])
    center, diameter = far[-1], hops[far[-1]]
    for _ in range(diameter // 2):
        center = parent[center]
    order, parent, hops = _search(nbrs, center)
    height = hops[order[-1]]
    sums = np.fromiter(accumulate(repeat(w, 2 * height), initial=0.0), float, 2 * height + 1)
    top = float(sums[diameter])
    if not 2 * w > np.spacing(top):
        raise InputError(f"edge weight {w} vanishes in path sums up to {top}")
    children: list[list[int]] = [[] for _ in range(n)]
    for v in order[1:]:
        children[parent[v]].append(v)
    preorder, stack = [], [center]
    while stack:
        v = stack.pop()
        preorder.append(v)
        stack.extend(reversed(children[v]))
    rank = np.empty(n, dtype=np.intp)
    rank[preorder] = np.arange(n)
    order, parent, depth = np.array(order), np.array(parent), np.array(hops)
    levels = np.searchsorted(depth[order], np.arange(height + 2))
    m = np.empty((n, n))
    np.take(sums, depth, out=m[center])
    for level, (lo, hi) in enumerate(zip(levels[1:-1], levels[2:]), 1):
        tops = order[lo:hi]
        for rows in _row_blocks(hi - lo, n):
            m[tops[rows]] = m[parent[tops[rows]]] + w
        below = order[lo:]
        above = tops[np.searchsorted(rank[tops], rank[below], side="right") - 1]
        m[above, below] = sums[depth[below] - level]
    return m


def _min_of_rows(m: np.ndarray, idx: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
    """The minimum of m's rows ``idx`` (nonempty) over the columns ``cols``
    (every column when None), gathered in row blocks of that width: only
    the entries in those rows and columns are read.  A copy of the row
    when there is one."""
    if cols is None and len(idx) == 1:
        return m[idx[0]].copy()
    out = None
    for rows in _row_blocks(len(idx), m.shape[1] if cols is None else len(cols)):
        low = (m[idx[rows]] if cols is None else m[idx[rows, None], cols]).min(axis=0)
        out = low if out is None else np.minimum(out, low, out=out)
    return out


def path_space(n: int) -> FiniteMetricSpace:
    """Unit-weight path 0 - 1 - ... - n-1."""
    n = _vertex_count(n)
    return build_graph_metric(n, _grid_edges(1, n))


def cycle_space(n: int) -> FiniteMetricSpace:
    n = _vertex_count(n)
    if n < 3:
        raise InputError("cycle needs at least 3 vertices")
    return build_graph_metric(n, _grid_edges(1, n) + [(n - 1, 0)])


def grid_space(rows: int, cols: int) -> FiniteMetricSpace:
    """Unit-weight grid graph; point index is row*cols + col."""
    rows = _in_range(_whole(rows, "rows"), "rows", 1)
    cols = _in_range(_whole(cols, "cols"), "cols", 1)
    return build_graph_metric(_vertex_count(rows * cols), _grid_edges(rows, cols))


def _grid_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    """The unit edges of the rows x cols grid graph, point r*cols + c, in
    row-major order of their first point.  Callers check the sizes and
    ``MATRIX_CAP`` first: over the cap, this list alone can exhaust memory."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return edges


# ---------------------------------------------------------------------------
# balls, neighborhoods, set distances


def _point_set_in(space: FiniteMetricSpace, a, what: str = "point") -> PointSet:
    """``a`` as a ``PointSet`` of points of ``space``, else
    ``_points_in``'s ``InputError`` naming the first point that is not.  A
    ``PointSet`` is sorted and nonnegative, so only its last index is
    compared."""
    if not isinstance(a, PointSet):
        return PointSet.of(_points_in(space, a, what))
    if a.indices and a.indices[-1] >= space.n:
        _points_in(space, a.indices, what)
    return a


def distance_to_set(space: FiniteMetricSpace, a) -> np.ndarray:
    """Vector of d(x, A) for every point x, exact: the minimum of A's
    matrix rows, gathered in blocks of at most ``SUP_RATIO_BLOCK``
    entries."""
    idx = np.asarray(_point_set_in(space, a).indices, dtype=np.intp)
    if not idx.size:
        raise InputError("distance to a set needs a nonempty set")
    return _min_of_rows(space.matrix, idx)


def set_distances(space: FiniteMetricSpace, family_a: Sequence, family_b: Sequence) -> np.ndarray:
    """|family_a| x |family_b| table of set distances, 0 where two sets
    intersect.  Each row is the minimum of one A's matrix rows over the
    columns of family_b's concatenated indices, min-reduced over their
    segments: only the |A| x |cols| entries the table uses are read, never
    whole ambient rows.  Every member must be nonempty: ``reduceat`` would
    fill an empty segment with its neighbour's value."""
    fam_a = [_point_set_in(space, s).indices for s in family_a]
    fam_b = [_point_set_in(space, s).indices for s in family_b]
    if not all(fam_b) or not all(fam_a):
        raise InputError("set distances need nonempty sets")
    out = np.empty((len(fam_a), len(fam_b)))
    if fam_a and fam_b:
        cols = np.fromiter(chain.from_iterable(fam_b), dtype=np.intp)
        starts = np.cumsum([0] + [len(b) for b in fam_b[:-1]])
        for i, a in enumerate(fam_a):
            rows = np.asarray(a, dtype=np.intp)
            out[i] = np.minimum.reduceat(_min_of_rows(space.matrix, rows, cols), starts)
    return out


def neighborhood(space: FiniteMetricSpace, a, r: float) -> PointSet:
    """Closed r-neighborhood of a set, the union of the closed r-balls
    about its points (its centers)."""
    if r < 0:
        raise InputError("radius must be nonnegative")
    a = _point_set_in(space, a, "center")
    if not a.indices:
        return a
    hits = np.flatnonzero(distance_to_set(space, a) <= r + TOL)
    return PointSet(tuple(hits.tolist()))


def diameter_of(space: FiniteMetricSpace, a) -> float:
    """Largest distance within the set (0.0 if empty): ``diameters_of``
    of the one set."""
    return float(diameters_of(space, [a])[0])


def diameters_of(space: FiniteMetricSpace, sets: Iterable) -> np.ndarray:
    """Each set's largest inner distance, in order (0.0 for an empty set).

    The sets of one size s are stacked into one table and their s x s
    submatrices gathered together, in ``_row_blocks`` of s * s entries
    per set, so a family costs one gather per distinct size, not one per
    set.  A set whose submatrix alone exceeds a block is scanned by
    ``_first_max`` in row blocks instead.  A maximum is exact, so every
    value is the one a per-set scan finds."""
    m = space.matrix
    idx = [_point_set_in(space, a).indices for a in sets]
    out = np.zeros(len(idx))
    by_size: dict[int, list[int]] = {}
    for k, points in enumerate(idx):
        if points:
            by_size.setdefault(len(points), []).append(k)
    for s, which in by_size.items():
        table = np.array([idx[k] for k in which], dtype=np.intp)
        if next(_row_blocks(s, s)).stop < s:  # one s x s submatrix exceeds a block
            for k, row in zip(which, table):
                out[k] = _first_max(s, lambda rows: m[row[rows, None], row])[0]
            continue
        for rows in _row_blocks(len(which), s * s):
            sub = table[rows]
            out[which[rows]] = m[sub[:, :, None], sub[:, None, :]].max(axis=(1, 2))
    return out


# ---------------------------------------------------------------------------
# maps and measured Lipschitz constants


@dataclass(frozen=True)
class MetricMap:
    """Total map from a finite metric space into a codomain whose metric
    the map does not restate: a :class:`FiniteMetricSpace` (``images[p]``
    is a point index of it) or ``"reals"`` (``images[p]`` is a float,
    distances are absolute differences).  A declared Lipschitz constant,
    when given, is a finite real >= 0 other than a bool."""

    domain: FiniteMetricSpace
    images: tuple
    codomain: FiniteMetricSpace | str
    declared_lipschitz: float | None = None

    def __post_init__(self):
        if len(self.images) != self.domain.n:
            raise InputError("assignment must be total on the domain")
        if not isinstance(self.codomain, FiniteMetricSpace) and self.codomain != "reals":
            raise InputError(f"codomain must be a finite metric space or 'reals', not {self.codomain!r}")
        lam = self.declared_lipschitz
        if lam is not None and not (_real(lam) and 0 <= lam < math.inf):
            raise InputError(f"declared Lipschitz constant {lam!r} is not a finite real >= 0")

    def points(self) -> range:
        return range(self.domain.n)

    @cached_property
    def image_indices(self) -> np.ndarray:
        """A finite codomain's ``images`` as one read-only intp array, built
        once, so a per-face or per-tower read gathers only its own points."""
        out = np.asarray(self.images, dtype=np.intp)
        out.setflags(write=False)
        return out


def map_between_spaces(
    domain: FiniteMetricSpace,
    codomain: FiniteMetricSpace,
    assignment: Sequence[int],
    declared_lipschitz: float | None = None,
) -> MetricMap:
    assignment = tuple(_points_in(codomain, assignment, "image point"))
    return MetricMap(domain, assignment, codomain, declared_lipschitz)


def map_to_reals(domain: FiniteMetricSpace, values: Sequence[float], declared_lipschitz=None) -> MetricMap:
    return MetricMap(domain, tuple(float(v) for v in values), "reals", declared_lipschitz)


def measured_lipschitz(m: MetricMap) -> float:
    """Largest ratio d(f(x), f(y)) / d(x, y) over all pairs of distinct
    points, exact.

    For the reals this is ``sup_ratio``.  For a finite codomain it is the
    same pair scan with codomain distances as numerators: when
    ``edge_certificate`` passes on the whole domain, the maximum over the
    domain's edges, since the certificate's chain argument (see
    ``sup_ratio``) goes through with the codomain's symmetry and triangle
    inequality, which its axiom check holds it to, in place of the
    Euclidean norm's.
    """
    if m.codomain == "reals":
        return sup_ratio(m.domain, m.points(), m.images)
    img = m.image_indices
    cod = m.codomain.matrix
    idx = np.arange(m.domain.n)
    return _pair_sup(m.domain, idx, lambda a, b: cod[img[a], img[b]], 1, edge_certificate(m.domain, idx))


def edge_certificate(space: FiniteMetricSpace, idx) -> tuple[np.ndarray, np.ndarray] | None:
    """The edges of ``space`` inside the point list ``idx``, as local index
    arrays ``(a, b)`` with a < b (read-only), when the certificate below
    proves that they carry every pair's ratio; None otherwise.  Every
    comparison is exact; there is no tolerance.

    (a) ``space`` is a graph metric that keeps its edges
        (``graph_edges``), ``idx`` repeats no point, and d(s, s) = 0 on it.
    (b) Every edge (u, v, w) inside ``idx`` has 0 < d(u, v) <= w and
        0 < d(v, u) <= w, so a forged light edge is rejected.
    (c) Bellman: for every s != v in ``idx`` some edge (u, v, w) inside
        ``idx`` has d(s, u) + w <= d(s, v).

    Condition (c) is scanned by ``_bellman_holds``; the whole space in
    index order is answered by ``whole_certificate``, scanned once per
    space.  A fractional-weight graph can miss (c) by an ulp; it then
    gets None, and the callers fall back to their pair loop.
    """
    if space.graph_edges is None:
        return None
    idx = np.asarray(idx, dtype=np.intp)
    if len(idx) == space.n and (idx == np.arange(space.n)).all():
        return space.whole_certificate
    return _certify(space, idx)


def _certify(space: FiniteMetricSpace, idx: np.ndarray):
    """``edge_certificate`` of the point list ``idx`` of a graph metric
    that keeps its edges."""
    m = space.matrix
    inside = _inside_edges(m, space.graph_edges, idx)
    if inside is None or (m[idx, idx] != 0).any():
        return None
    a, b, w = inside
    if not _bellman_holds(m, idx, a, b, w):
        return None
    out = np.minimum(a, b), np.maximum(a, b)
    for arr in out:
        arr.setflags(write=False)
    return out


def _bellman_holds(m: np.ndarray, idx: np.ndarray, a: np.ndarray, b: np.ndarray, w: np.ndarray) -> bool:
    """Condition (c) of ``edge_certificate`` for the local edges (a, b, w)
    of the point list ``idx``, scanned through a padded predecessor table
    (one row per in-degree slot, weight +inf in unused slots) in
    ``_row_blocks`` of source rows, each gathered from the matrix as the
    scan reaches it: the |idx| x |idx| submatrix is never built, and no
    entry outside ``idx``'s rows and columns is read.  Per block, one
    running minimum over the slots of d(s, u) + w, with -inf on the
    diagonal (s = v), is compared with the block once: some slot holds
    exactly when the smallest does, as every entry is finite."""
    n_idx = len(idx)
    pred, pred_w = _predecessor_table(a, b, w, n_idx)
    for block in _row_blocks(n_idx, n_idx):
        rows = m[idx[block, None], idx]
        best = np.full(rows.shape, np.inf)
        best[np.arange(len(rows)), np.arange(block.start, block.stop)] = -np.inf
        via = np.empty_like(rows)
        for k in range(len(pred)):
            np.take(rows, pred[k], axis=1, out=via, mode="clip")  # indices in range; "raise" would buffer out
            via += pred_w[k]
            np.minimum(best, via, out=best)
        if not (best <= rows).all():
            return False
    return True


def _inside_edges(m: np.ndarray, edges, idx: np.ndarray):
    """The edges (u, v, w) with both ends in the point list ``idx``, as
    local ``(a, b, w)`` arrays, read from the rows of ``idx``'s points in
    the edge index ``graph_edges``; None if ``idx`` repeats a point or an
    edge misses 0 < d(u, v) <= w or 0 < d(v, u) <= w."""
    start, end, weight = edges
    order = np.argsort(idx, kind="stable")
    srt = idx[order]
    if (srt[1:] == srt[:-1]).any():
        return None
    first = start[idx]
    count = start[idx + 1] - first
    a = np.repeat(np.arange(len(idx)), count)
    at = np.repeat(first - np.cumsum(count) + count, count) + np.arange(len(a))
    ends = end[at]
    rank = np.minimum(np.searchsorted(srt, ends), len(idx) - 1)
    inside = srt[rank] == ends
    a, b, at = a[inside], order[rank[inside]], at[inside]
    u, v, w = idx[a], idx[b], weight[at]
    duv, dvu = m[u, v], m[v, u]
    if not ((duv > 0) & (dvu > 0) & (duv <= w) & (dvu <= w)).all():
        return None
    return a, b, w


def _predecessor_table(a: np.ndarray, b: np.ndarray, w: np.ndarray, n: int):
    """In-edges of the undirected edges (a, b, w) over n vertices, padded:
    ``pred[k, v]`` is the tail of v's k-th in-edge and ``pred_w[k, v]`` its
    weight; unused slots point at v itself with weight +inf."""
    head = np.concatenate([b, a])
    order = np.argsort(head, kind="stable")
    count = np.bincount(head, minlength=n)
    slot = np.empty_like(order)
    slot[order] = np.arange(len(order)) - np.repeat(np.cumsum(count) - count, count)
    slots = int(count.max()) if n else 0
    pred = np.tile(np.arange(n), (slots, 1))
    pred_w = np.full((slots, n), np.inf)
    pred[slot, head] = np.concatenate([a, b])
    pred_w[slot, head] = np.concatenate([w, w])
    return pred, pred_w


def _pair_chunks(n: int, width: int):
    """Every pair a < b of n local points, as ``(a, b)`` chunks in
    row-major order: rows lo:hi (a column of local indices) against the
    columns lo + 1: (a slice), pairs with b <= a left for the caller to
    mask.  A block's row count is ``_row_blocks``' for rows as long as its
    first, n - 1 - lo pairs of ``width`` entries, so blocks grow as the
    rows shorten; a row whose pairs alone exceed a block is one block, as
    column chunks of it cost more in per-chunk work than they save (about
    15,600 chunks instead of 1,999 rows for 2,000 points at 64 columns)."""
    local, lo = np.arange(n), 0
    while lo < n - 1:
        length = n - 1 - lo
        hi = lo + next(_row_blocks(length, length * width)).stop
        yield local[lo:hi, None], slice(lo + 1, n)
        lo = hi


def _row_norms(diff: np.ndarray) -> np.ndarray:
    """Norm of each pair's row difference (the last axis): |x| for one
    column, else the square root of ``"ij,ij->i"`` over the pairs' rows."""
    rows = diff.reshape(-1, diff.shape[-1])
    norms = np.abs(rows[:, 0]) if rows.shape[1] == 1 else np.sqrt(np.einsum("ij,ij->i", rows, rows))
    return norms.reshape(diff.shape[:-1])


def sup_ratio(space: FiniteMetricSpace, pts: Sequence[int], X) -> float:
    """Largest ||X_i - X_j|| / d(p_i, p_j) over pairs i < j with
    d(p_i, p_j) > 0; 0.0 for fewer than two points.

    ``X`` holds one coordinate row per point (a 1-d array is one column).
    Norms come from exact row differences, not from a Gram matrix, whose
    distances lose about sqrt(eps); one column gives |X_i - X_j| exactly.

    When ``edge_certificate(space, pts)`` passes, the value is the maximum
    E over the certified edges alone.  Proof: take s != v in ``pts``.  By
    (c), v has an edge (u, v, w) with d(s, u) + w <= d(s, v); as w > 0,
    d(s, u) < d(s, v), so following such predecessors from v strictly
    decreases d(s, .) and, the set being finite, ends at s.  Summing the
    inequalities along the chain s = u_0, ..., u_k = v gives
    d(s, s) + sum w_i <= d(s, v), with d(s, s) = 0.  By (b) each link has
    ||X_{u_i} - X_{u_(i+1)}|| <= E d(u_i, u_(i+1)) <= E w_i, so the triangle
    inequality gives ||X_s - X_v|| <= E sum w_i <= E d(s, v).  Every edge
    is itself a pair, so the supremum over pairs is E.  Each edge ratio is
    computed as its pair would be (same orientation, same row
    difference), so E is the pair loop's value up to the rounding of the
    pairs that are not edges.  Otherwise every pair is scanned.
    """
    idx = np.asarray(pts, dtype=np.intp)
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    return _rows_sup(space, idx, X.__getitem__, X.shape[1], edge_certificate(space, idx))


def _rows_sup(space: FiniteMetricSpace, idx: np.ndarray, rows, width: int, edges) -> float:
    """``sup_ratio`` of the points ``idx`` with their certificate ``edges``
    already found (None: every pair), reading the coordinate rows of
    local indices a as ``rows(a)``, ``width`` columns each: ``a`` is an
    index array, or a slice of a row block's columns.  Rows built per
    chunk give every pair the row difference a stored block gives it."""
    return _pair_sup(space, idx, lambda a, b: _row_norms(rows(b) - rows(a)), width, edges)


def _pair_sup(space: FiniteMetricSpace, idx: np.ndarray, numerator, width: int, edges) -> float:
    """Largest numerator(a, b) / d(idx[a], idx[b]) over local pairs a < b
    with a positive distance, in one loop over chunks of pairs: slices of
    the certificate ``edges`` of ``idx`` when there is one, else
    ``_pair_chunks`` of all pairs (pairs with b <= a are masked out).
    ``numerator(a, b)`` takes broadcastable local indices (in a row block
    b is a slice of columns, read as views) and returns one value per
    pair, from a temporary of ``width`` entries per pair; ``_row_blocks``
    sizes the chunks."""
    local = np.arange(len(idx))
    if edges is None:
        chunks = _pair_chunks(len(idx), width)
    else:
        chunks = ((edges[0][rows], edges[1][rows]) for rows in _row_blocks(len(edges[0]), width))
    best = 0.0
    for a, b in chunks:
        dist = space.matrix[idx[a], idx[b]]
        pos = (local[b] > a) & (dist > 0)
        if pos.any():
            best = max(best, float((numerator(a, b)[pos] / dist[pos]).max()))
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
        doc["matrix"] = space.matrix.tolist()
    return doc


def space_from_json(doc: dict) -> FiniteMetricSpace:
    try:
        kind = doc["kind"]
        n = doc["n"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"space JSON missing field: {exc}") from exc
    labels = doc.get("labels")
    if kind not in ("matrix", "graph"):
        raise InputError(f"unknown space kind {kind!r}")
    key = "matrix" if kind == "matrix" else "edges"
    if not isinstance(doc.get(key), list):
        raise InputError(f"{kind} space JSON needs a list {key!r}, not {doc.get(key)!r}")
    if kind == "graph":
        return build_graph_metric(n, doc["edges"], labels)
    m = doc["matrix"]
    if len(m) != n:
        raise InputError("matrix size does not match n")
    for i, row in enumerate(m):
        if not isinstance(row, list) or len(row) != n:
            raise InputError(f"matrix row {i} is not a list of {n} distances")
        for x in row:
            if not _real(x):
                raise InputError(f"matrix row {i} has a non-numeric entry {x!r}")
    return build_explicit(m, labels)


def load_space(path) -> FiniteMetricSpace:
    with open(path, "r", encoding="utf-8") as f:
        return space_from_json(json.load(f))
