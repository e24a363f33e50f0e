"""Free products of pointed metric spaces.

Elements are alternating words over the two factors minus their
basepoints.  The norm of a word adds the letter depths d(letter, base);
the distance between two words strips their longest common beginning and
adds the norms of what is left.  The associated coset tree and its
1-Lipschitz projection are built for any truncation, and both are checked
(connectivity, acyclicity, measured Lipschitz constant) rather than
assumed.

Letters must sit at depth >= 1 from the basepoint, which is what makes
the tree projection 1-Lipschitz; factors violating this are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import CapExceeded, InputError, InvariantViolation
from ..metric_core import (
    MATRIX_CAP,
    FiniteMetricSpace,
    MetricMap,
    _in_range,
    build_graph_metric,
    map_between_spaces,
)

Letter = tuple[str, int]  # (factor tag "x"|"y", point index in that factor)
Word = tuple[Letter, ...]


@dataclass(frozen=True)
class PointedSpace:
    space: FiniteMetricSpace
    basepoint: int

    def letter_norms(self) -> dict[int, float]:
        return {
            p: float(self.space.matrix[p, self.basepoint])
            for p in range(self.space.n)
            if p != self.basepoint
        }


@dataclass(frozen=True, eq=False)
class FreeProductSpace:
    """Truncated free product: all alternating words of norm <= max_norm,
    as a finite metric space in canonical (norm, length, word) order."""

    space: FiniteMetricSpace
    words: tuple[Word, ...]
    norms: tuple[float, ...]
    factors: tuple[PointedSpace, PointedSpace]
    max_norm: float
    index: dict = field(compare=False)


def _distance_matrix(words: Sequence[Word], norms: Sequence[float], letter_norms: dict) -> np.ndarray:
    """Tail-norm recursion on the word trie: pairs whose next letters
    differ are exactly tail-norm apart; equal next letters recurse with the
    letter stripped.  One dense write per trie node, each no larger than
    the n x n result, keeps this near-linear in matrix size; the root's
    block is the whole matrix, written by one broadcast add, not a scatter."""
    n = len(words)
    out = np.zeros((n, n))

    def fill(indices: list[int], depth: int, remaining: np.ndarray):
        if depth == 0:
            np.add(remaining[:, None], remaining[None, :], out=out)
        else:
            idx = np.array(indices)
            out[np.ix_(idx, idx)] = remaining[:, None] + remaining[None, :]
        groups: dict[Letter, list[int]] = {}
        for pos, wi in enumerate(indices):
            w = words[wi]
            if len(w) > depth:
                groups.setdefault(w[depth], []).append(pos)
        for letter, members in groups.items():
            if len(members) < 2:
                continue
            sub = [indices[p] for p in members]
            rem = remaining[members] - letter_norms[letter]
            fill(sub, depth + 1, rem)

    fill(list(range(n)), 0, np.asarray(norms, float))
    np.fill_diagonal(out, 0.0)
    return out


def free_product_space(x: PointedSpace, y: PointedSpace, max_norm: float) -> FreeProductSpace:
    """All alternating words of norm <= max_norm, popped from a heap in
    (norm, length, word) order: every letter adds a norm >= 1, so no word
    is pushed below one already popped.  The word whose count squared
    exceeds ``MATRIX_CAP`` raises ``CapExceeded`` as it is popped, before
    the matrix is allocated."""
    _in_range(max_norm, "max_norm", 0)
    letters = {
        "x": sorted(x.letter_norms().items()),
        "y": sorted(y.letter_norms().items()),
    }
    min_norm = min((ln for items in letters.values() for _, ln in items), default=math.inf)
    if min_norm < 1.0:
        raise InputError(
            f"letter norms must be >= 1 (found {min_norm}); scale the factor's "
            "metric up so that every letter sits at depth >= 1"
        )

    import heapq

    words: list[Word] = []
    norms: list[float] = []
    frontier: list[tuple[float, int, Word]] = [(0.0, 0, ())]
    while frontier:
        norm, _, w = heapq.heappop(frontier)
        words.append(w)
        norms.append(norm)
        if len(words) ** 2 > MATRIX_CAP:
            raise CapExceeded(f"free product truncation has more than {math.isqrt(MATRIX_CAP)} words; "
                              f"its matrix exceeds cap {MATRIX_CAP}")
        last = w[-1][0] if w else None
        for tag in ("x", "y"):
            if tag == last:
                continue
            for p, ln in letters[tag]:
                if norm + ln <= max_norm + 1e-12:
                    new = w + ((tag, p),)
                    heapq.heappush(frontier, (norm + ln, len(new), new))

    letter_norms = {(tag, p): ln for tag, items in letters.items() for p, ln in items}
    matrix = _distance_matrix(words, norms, letter_norms)
    space = FiniteMetricSpace(matrix, tuple(_word_label(w) for w in words), "free-product")
    return FreeProductSpace(
        space,
        tuple(words),
        tuple(norms),
        (x, y),
        max_norm,
        {w: i for i, w in enumerate(words)},
    )


def _word_label(w: Word) -> str:
    return "e" if not w else "".join(f"{t}{p}" for t, p in w)


# ---------------------------------------------------------------------------
# the coset tree


def _strip_trailing(w: Word, tag: str) -> Word:
    return w[:-1] if w and w[-1][0] == tag else w


TREE_EDGE_LENGTH = 0.5


@dataclass(frozen=True, eq=False)
class TreeSpace:
    """Coset tree of a truncated free product; vertices are ("X", word)
    and ("Y", word) with the trailing letter of the matching factor
    stripped.

    Every edge crosses between X-cosets and Y-cosets, so the tree is
    bipartite and an X-to-X trip of one letter costs two hops.  Edges get
    length 1/2 so that one letter of travel costs one unit of tree
    distance; this is the normalization that makes the coset projection
    1-Lipschitz (with unit edges its worst pairs measure exactly 2)."""

    space: FiniteMetricSpace
    vertices: tuple
    index: dict = field(compare=False)
    edges: tuple = ()


def free_product_tree(fps: FreeProductSpace) -> TreeSpace:
    vertices = []
    for w in fps.words:
        if not w or w[-1][0] == "y":
            vertices.append(("X", w))
        if not w or w[-1][0] == "x":
            vertices.append(("Y", w))
    vertices.sort(key=lambda v: (len(v[1]), v))
    index = {v: i for i, v in enumerate(vertices)}
    edges = set()
    for side, w in vertices:
        if not w:
            continue
        # stripping the last letter joins a coset of the opposite factor
        parent = ("Y" if side == "X" else "X", w[:-1])
        if parent in index:
            edges.add((index[parent], index[(side, w)]))
    edges.add((index[("X", ())], index[("Y", ())]))
    space = build_graph_metric(
        len(vertices),
        [(i, j, TREE_EDGE_LENGTH) for i, j in sorted(edges)],
        [f"{s}:{_word_label(w)}" for s, w in vertices],
    )
    tree = TreeSpace(space, tuple(vertices), index, tuple(sorted(edges)))
    if len(tree.edges) != len(vertices) - 1:
        raise InvariantViolation(
            f"coset graph has {len(tree.edges)} edges on {len(vertices)} vertices, not a tree"
        )
    return tree


def tree_projection(fps: FreeProductSpace, tree: TreeSpace) -> MetricMap:
    """Word -> its X-coset vertex; verified 1-Lipschitz exhaustively by the
    caller via measured_lipschitz (letter norms >= 1 make it so)."""
    assignment = []
    for w in fps.words:
        v = ("X", _strip_trailing(w, "x"))
        assignment.append(tree.index[v])
    return map_between_spaces(fps.space, tree.space, assignment, 1.0)


def word_stratification(fps: FreeProductSpace) -> dict:
    """Length strata P_k plus their split by last-letter factor; includes
    the shift check that stripping the last X-letter of a (k+1)-stratum
    word lands in the Y-side k-stratum."""
    strata: dict[int, dict[str, list[Word]]] = {}
    for w in fps.words:
        k = len(w)
        entry = strata.setdefault(k, {"P": [], "PX": [], "PY": []})
        entry["P"].append(w)
        if w:
            entry["P" + w[-1][0].upper()].append(w)
    max_k = max(strata)
    none = {"PX": [], "PY": []}
    for k in range(1, max_k):
        upper, lower = strata.get(k + 1, none), strata.get(k, none)
        for side, other in (("PX", "PY"), ("PY", "PX")):
            prefixes = set(lower[other])
            for w in upper[side]:
                if w[:-1] not in prefixes:
                    raise InvariantViolation(
                        f"stratification inclusion fails at k={k}", witness=w
                    )
    return strata
