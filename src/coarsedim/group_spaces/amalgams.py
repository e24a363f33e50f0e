"""Amalgamated products over a common subgroup, oracle-style.

No general rewriting is attempted: a model supplies exact factor
arithmetic, a membership test for the amalgamated subgroup C, and
transversal choice functions picking one representative per C-coset.
Every element then has a unique normal presentation (c, rep_1 ... rep_k)
with alternating factor letters, computed by a left-to-right fold; the
fold also implements group multiplication on normal forms, which is what
feeds the word-metric ball machinery.

Builtins: the plain free product Z2 * Z3 (trivial C), Z *_{2Z} Z, and
Z4 *_{Z2} Z6.
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
        h = ops.multiply(g, ops.embed_c(c))
        if seq and seq[0][0] == fname:
            u = ops.multiply(h, seq[0][1])
            if ops.in_c(u):
                return (ops.to_c(u), seq[1:])
            t = ops.transversal(u)
            c_new = ops.to_c(ops.multiply(u, ops.inverse(t)))
            return (c_new, ((fname, t),) + seq[1:])
        if ops.in_c(h):
            return (ops.to_c(h), seq)
        t = ops.transversal(h)
        c_new = ops.to_c(ops.multiply(h, ops.inverse(t)))
        return (c_new, ((fname, t),) + seq)

    def multiply(self, a: NormalForm, b: NormalForm) -> NormalForm:
        return self.normalize(self.letters_of(a) + self.letters_of(b))


def amalgam_group_model(model: AmalgamModel) -> GroupModel:
    gens = tuple(
        (label, model.normalize([letter])) for label, letter in model.generator_letters
    )
    return GroupModel(model.name, model.identity_form(), gens, model.multiply)


# ---------------------------------------------------------------------------
# builtins


def plain_free_product_z2_z3() -> AmalgamModel:
    """Free product Z2 * Z3 seen as an amalgam over the trivial subgroup:
    cosets are the elements themselves."""

    def cyclic_ops(name, m):
        return FactorOps(
            name=name,
            multiply=lambda a, b: (a + b) % m,
            inverse=lambda a: (-a) % m,
            identity=0,
            in_c=lambda a: a == 0,
            to_c=lambda a: 0,
            embed_c=lambda c: 0,
            transversal=lambda a: a,
        )

    return AmalgamModel(
        name="z2*z3",
        factors={"A": cyclic_ops("A", 2), "B": cyclic_ops("B", 3)},
        c_identity=0,
        generator_letters=(
            ("a", ("A", 1)),
            ("b", ("B", 1)),
            ("b~", ("B", 2)),
        ),
    )


def z_amalgam_2z() -> AmalgamModel:
    """Z *_{2Z} Z: two infinite cyclic factors glued along their even
    parts (a^2 = b^2 = z, central).  C is recorded in z-units."""

    def z_ops(name):
        return FactorOps(
            name=name,
            multiply=lambda a, b: a + b,
            inverse=lambda a: -a,
            identity=0,
            in_c=lambda a: a % 2 == 0,
            to_c=lambda a: a // 2,
            embed_c=lambda c: 2 * c,
            transversal=lambda a: a % 2,
        )

    return AmalgamModel(
        name="z*_2z*z",
        factors={"A": z_ops("A"), "B": z_ops("B")},
        c_identity=0,
        generator_letters=(
            ("a", ("A", 1)),
            ("a~", ("A", -1)),
            ("b", ("B", 1)),
            ("b~", ("B", -1)),
        ),
    )


def z4_amalgam_z6() -> AmalgamModel:
    """Z4 *_{Z2} Z6: a^2 = b^3 = z with z of order 2."""
    a_ops = FactorOps(
        name="A",
        multiply=lambda x, y: (x + y) % 4,
        inverse=lambda x: (-x) % 4,
        identity=0,
        in_c=lambda x: x % 2 == 0,
        to_c=lambda x: (x % 4) // 2,
        embed_c=lambda c: (2 * c) % 4,
        transversal=lambda x: x % 2,
    )
    b_ops = FactorOps(
        name="B",
        multiply=lambda x, y: (x + y) % 6,
        inverse=lambda x: (-x) % 6,
        identity=0,
        in_c=lambda x: x % 3 == 0,
        to_c=lambda x: (x % 6) // 3,
        embed_c=lambda c: (3 * c) % 6,
        transversal=lambda x: x % 3,
    )
    return AmalgamModel(
        name="z4*_z2*z6",
        factors={"A": a_ops, "B": b_ops},
        c_identity=0,
        generator_letters=(
            ("a", ("A", 1)),
            ("a~", ("A", 3)),
            ("b", ("B", 1)),
            ("b~", ("B", 5)),
        ),
    )


# ---------------------------------------------------------------------------
# the coset projection


def _coset_reps(model: AmalgamModel, factor: str, ball_elements) -> list:
    reps = {model.factors[factor].identity}
    for _, seq in ball_elements:
        for fname, rep in seq:
            if fname == factor:
                reps.add(rep)
    return sorted(reps, key=repr)


def _rep_element(model: AmalgamModel, factor: str, rep) -> NormalForm:
    ops = model.factors[factor]
    if ops.in_c(rep) and rep == ops.identity:
        return model.identity_form()
    return model.normalize([(factor, rep)])


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
        reps = _coset_reps(model, factor, ball.elements)
        pts = [_rep_element(model, factor, r) for r in reps]
        n = len(reps)
        matrix = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                best = None
                for c in c_elements:
                    cy = model.multiply(c, pts[j])
                    if cy in ball.index:
                        d = ball.space.dist(ball.index[pts[i]], ball.index[cy])
                        best = d if best is None else min(best, d)
                if best is None:
                    raise InvariantViolation(
                        f"coset distance not computable in ball of radius {radius}"
                    )
                matrix[i][j] = best
        space = build_explicit(matrix, [repr(r) for r in reps])
        base = reps.index(model.factors[factor].identity)
        return PointedSpace(space, base), reps

    (space_a, reps_a) = coset_space("A")
    (space_b, reps_b) = coset_space("B")
    fps = free_product_space(space_a, space_b, float(radius))

    def project(form: NormalForm) -> Word:
        word = []
        for fname, rep in form[1]:
            if fname == "A":
                word.append(("x", reps_a.index(rep)))
            else:
                word.append(("y", reps_b.index(rep)))
        return tuple(word)

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

