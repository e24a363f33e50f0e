"""Amalgamated products over a common subgroup, oracle-style.

No general rewriting is attempted: a model supplies exact factor
arithmetic, a membership test for the amalgamated subgroup C, and
transversal choice functions picking one representative per C-coset.
Every element then has a unique normal presentation (c, rep_1 ... rep_k)
with alternating factor letters, computed by a left-to-right fold; the
fold also implements group multiplication on normal forms, which is what
feeds the word-metric ball machinery.

Builtins: the plain free product Z2 * Z3 (trivial C), Z *_{2Z} Z, and
Z4 *_{Z2} Z6, each two cyclic factors from one rule (``_cyclic_factor``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..errors import InvariantViolation
from ..metric_core import build_explicit
from .free_products import PointedSpace, Word, free_product_space
from .groups import GroupModel, cayley_ball

NormalForm = tuple[Any, tuple[tuple[str, Any], ...]]  # (c, ((factor, rep), ...))


@dataclass(frozen=True)
class FactorOps:
    """Exact arithmetic for one factor and its copy of C."""

    name: str
    multiply: Callable[[Any, Any], Any]
    inverse: Callable[[Any], Any]
    identity: Any
    in_c: Callable[[Any], bool]
    to_c: Callable[[Any], Any]
    embed_c: Callable[[Any], Any]
    transversal: Callable[[Any], Any]


@dataclass(frozen=True)
class AmalgamModel:
    name: str
    factors: dict  # {"A": FactorOps, "B": FactorOps}
    c_identity: Any
    generator_letters: tuple[tuple[str, tuple[str, Any]], ...]  # (label, (factor, elem))

    def identity_form(self) -> NormalForm:
        return (self.c_identity, ())

    def letters_of(self, form: NormalForm) -> list[tuple[str, Any]]:
        c, seq = form
        first = seq[0][0] if seq else "A"
        ops = self.factors[first]
        return [(first, ops.embed_c(c))] + list(seq)

    def normalize(self, letters: Sequence[tuple[str, Any]]) -> NormalForm:
        """Fold raw factor letters into the unique normal presentation."""
        c, seq = self.c_identity, ()
        for fname, g in reversed(list(letters)):
            c, seq = self._left_multiply(fname, g, c, seq)
        return (c, seq)

    def _left_multiply(self, fname: str, g, c, seq) -> NormalForm:
        ops = self.factors[fname]
        u = ops.multiply(g, ops.embed_c(c))
        if seq and seq[0][0] == fname:
            u, seq = ops.multiply(u, seq[0][1]), seq[1:]
        if ops.in_c(u):
            return (ops.to_c(u), seq)
        t = ops.transversal(u)
        return (ops.to_c(ops.multiply(u, ops.inverse(t))), ((fname, t),) + seq)

    def multiply(self, a: NormalForm, b: NormalForm) -> NormalForm:
        return self.normalize(self.letters_of(a) + self.letters_of(b))


def amalgam_group_model(model: AmalgamModel) -> GroupModel:
    gens = tuple(
        (label, model.normalize([letter])) for label, letter in model.generator_letters
    )
    return GroupModel(model.name, model.identity_form(), gens, model.multiply)


# ---------------------------------------------------------------------------
# builtins


def _cyclic_factor(name: str, order: int, index: int) -> FactorOps:
    """Z_order (Z when order is 0) with C the subgroup generated by
    ``index``, which divides ``order``; C is recorded in index-units."""
    wrap = (lambda a: a % order) if order else (lambda a: a)
    return FactorOps(
        name=name,
        multiply=lambda a, b: wrap(a + b),
        inverse=lambda a: wrap(-a),
        identity=0,
        in_c=lambda a: a % index == 0,
        to_c=lambda a: wrap(a) // index,
        embed_c=lambda c: wrap(index * c),
        transversal=lambda a: a % index,
    )


def _cyclic_amalgam(name: str, a: tuple[int, int], b: tuple[int, int]) -> AmalgamModel:
    """Z_m *_C Z_n from the (order, index) pairs of ``_cyclic_factor``,
    generated by 1 in each factor and by its inverse when that differs."""
    factors = {"A": _cyclic_factor("A", *a), "B": _cyclic_factor("B", *b)}
    letters = []
    for fname, ops in factors.items():
        inv = ops.inverse(1)
        letters.append((fname.lower(), (fname, 1)))
        if inv != 1:
            letters.append((fname.lower() + "~", (fname, inv)))
    return AmalgamModel(name, factors, 0, tuple(letters))


def plain_free_product_z2_z3() -> AmalgamModel:
    """Free product Z2 * Z3 seen as an amalgam over the trivial subgroup:
    cosets are the elements themselves."""
    return _cyclic_amalgam("z2*z3", (2, 2), (3, 3))


def z_amalgam_2z() -> AmalgamModel:
    """Z *_{2Z} Z: two infinite cyclic factors glued along their even
    parts (a^2 = b^2 = z, central).  C is recorded in z-units."""
    return _cyclic_amalgam("z*_2z*z", (0, 2), (0, 2))


def z4_amalgam_z6() -> AmalgamModel:
    """Z4 *_{Z2} Z6: a^2 = b^3 = z with z of order 2."""
    return _cyclic_amalgam("z4*_z2*z6", (4, 2), (6, 3))


# ---------------------------------------------------------------------------
# the coset projection


def amalgam_projection(model: AmalgamModel, radius: int = 4) -> dict:
    """Project a word-metric ball of the amalgam onto the free product of
    its coset spaces and measure the claimed 1-Lipschitz constant on all
    generator pairs (x, xs) inside the ball.

    Coset spaces carry the quotient metric d(Cx, Cy) = min over C-elements
    in the ball of the word distance from x to c*y; at desk scale this is
    exact whenever the minimizing C-element lies in the enumeration.
    """
    group = amalgam_group_model(model)
    ball = cayley_ball(group, radius)
    c_elements = [e for e in ball.elements if not e[1]]

    def coset_space(factor: str) -> tuple[PointedSpace, list]:
        letters = {rep for _, seq in ball.elements for fname, rep in seq if fname == factor}
        reps = sorted(letters | {model.factors[factor].identity}, key=repr)
        pts = [model.normalize([(factor, r)]) for r in reps]
        n = len(reps)
        matrix = [[0.0] * n for _ in range(n)]
        for j, y in enumerate(pts):
            cy = [ball.index[p] for p in (model.multiply(c, y) for c in c_elements) if p in ball.index]
            if not cy and n > 1:
                raise InvariantViolation(f"coset distance not computable in ball of radius {radius}")
            for i in range(n):
                if i != j:
                    matrix[i][j] = min(ball.space.dist(ball.index[pts[i]], k) for k in cy)
        space = build_explicit(matrix, [repr(r) for r in reps])
        base = reps.index(model.factors[factor].identity)
        return PointedSpace(space, base), reps

    (space_a, reps_a), (space_b, reps_b) = coset_space("A"), coset_space("B")
    fps = free_product_space(space_a, space_b, float(radius))
    letter = {"A": ("x", reps_a), "B": ("y", reps_b)}  # factor -> (word tag, coset reps)

    def project(form: NormalForm) -> Word:
        return tuple((letter[f][0], letter[f][1].index(rep)) for f, rep in form[1])

    def coset_accounting_distance(u: Word, v: Word) -> float:
        """Image distance as the projection argument prices it: after the
        common beginning, a lone same-factor letter change costs the coset
        space distance between the letters; everything else costs the
        leftover norms.  The plain word metric prices the letter change
        through the basepoint instead, which can double it."""
        i = 0
        while i < min(len(u), len(v)) and u[i] == v[i]:
            i += 1
        tu, tv = u[i:], v[i:]
        plain = fps.space.dist(fps.index[u], fps.index[v])
        if len(tu) == 1 and len(tv) == 1 and tu[0][0] == tv[0][0]:
            tag = tu[0][0]
            ps = space_a if tag == "x" else space_b
            return min(plain, float(ps.space.matrix[tu[0][1], tv[0][1]]))
        return plain

    pairs_checked = 0
    worst_plain = 0.0
    worst = 0.0
    for e in ball.elements:
        img_e = project(e)
        if img_e not in fps.index:
            continue
        for _, s in group.generators:
            es = model.multiply(e, s)
            if es not in ball.index:
                continue
            img_es = project(es)
            if img_es not in fps.index:
                continue
            de = ball.space.dist(ball.index[e], ball.index[es])
            if de <= 0:
                continue
            worst_plain = max(
                worst_plain, fps.space.dist(fps.index[img_e], fps.index[img_es]) / de
            )
            worst = max(worst, coset_accounting_distance(img_e, img_es) / de)
            pairs_checked += 1
    return {
        "model": model.name,
        "radius": radius,
        "ball_size": len(ball.elements),
        "pairs_checked": pairs_checked,
        "max_generator_ratio": worst,
        "max_generator_ratio_plain_metric": worst_plain,
        "lipschitz_ok": worst <= 1.0 + 1e-9,
        "projection": project,
        "word_space": fps,
        "ball": ball,
    }

