"""The logarithmic space of balls over a base space.

Points are pairs (center, radius t > 0); the distance between two balls is
2 ln((d(x, y) + max(t, s)) / sqrt(t s)).  Radii come from a finite
geometric grid.  The height map (x, t) -> ln t is 1-Lipschitz, which is
verified exhaustively rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import CapExceeded, InputError
from ..metric_core import (MATRIX_CAP, FiniteMetricSpace, MetricMap, _first_max, _in_range, _row_blocks, _whole,
                           map_to_reals, verify_metric_axioms)

HEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class BallSpacePoint:
    center: int
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise InputError("ball radius must be positive")


@dataclass(frozen=True, eq=False)
class BallSpace:
    space: FiniteMetricSpace
    points: tuple[BallSpacePoint, ...]
    base: FiniteMetricSpace
    index: dict = field(compare=False)


def geometric_radii(t0: float = 1.0, ratio: float = math.e, levels: int = 5) -> list[float]:
    _in_range(t0, "t0", 0, math.inf, "()")
    _in_range(ratio, "ratio", 1, math.inf, "()")
    _in_range(_whole(levels, "levels"), "levels", 1)
    try:  # the largest radius: a float power raises on overflow, a product gives inf
        top = t0 * ratio ** (levels - 1)
    except OverflowError:
        top = math.inf
    if top == math.inf:
        raise InputError(
            f"the largest radius t0 * ratio**(levels - 1) is not a finite float "
            f"(t0={t0!r}, ratio={ratio!r}, levels={levels!r})"
        )
    return [t0 * ratio**i for i in range(levels)]


def hyperbolization(base: FiniteMetricSpace, radii) -> BallSpace:
    """Space of balls over the base with the logarithmic metric; the
    resulting distance table passes the full axiom check (triangle
    inequality asserted numerically at 1e-9).  It is filled over
    ``_row_blocks``; only the returned table itself is n x n."""
    radii = sorted(set(float(t) for t in radii))
    if not radii:
        raise InputError("need at least one radius")
    for t in radii:  # the metric divides by sqrt(t * s), so t * t must be positive and finite
        if not (t > 0 and 0 < t * t < math.inf):
            raise InputError(f"radii must be positive floats with a positive finite square, not {t!r}")
    n = len(radii) * base.n
    if n * n > MATRIX_CAP:
        raise CapExceeded(f"space of balls has {n} points; its matrix exceeds cap {MATRIX_CAP}")
    points = tuple(
        BallSpacePoint(x, t) for t in radii for x in range(base.n)
    )
    centers = np.tile(np.arange(base.n), len(radii))
    radius = np.repeat(radii, base.n)
    matrix = np.zeros((n, n))
    for rows in _row_blocks(n, n):
        t = radius[rows, None]
        d = base.matrix[centers[rows, None], centers]
        matrix[rows] = 2.0 * np.log((d + np.maximum(t, radius)) / np.sqrt(t * radius))
    np.fill_diagonal(matrix, 0.0)
    space = FiniteMetricSpace(
        matrix,
        tuple(f"B_{p.radius:g}({p.center})" for p in points),
        "hyperbolization",
    )
    report = verify_metric_axioms(space, triple_mode="exhaustive" if n <= 600 else "auto")
    if not report["ok"]:
        raise InputError(f"ball-space metric failed {report['axiom']} at {report['witness']}")
    return BallSpace(space, points, base, {p: i for i, p in enumerate(points)})


def height_projection(hspace: BallSpace) -> MetricMap:
    """(x, t) -> ln t into the real line; |ln t - ln s| <= ball distance
    holds exactly since max(t,s)^2 >= t s, checked to 1e-12 on all pairs,
    a row block at a time; the witness is the first pair i < j."""
    values = [math.log(p.radius) for p in hspace.points]
    m = map_to_reals(hspace.space, values, declared_lipschitz=1.0)
    v, d, upper = np.array(values), hspace.space.matrix, np.arange(len(values))
    bad, i, j = _first_max(len(v), lambda rows: (np.abs(v[rows, None] - v) > d[rows] + HEIGHT_TOL)
                           & (upper > upper[rows, None]))
    if bad > 0:
        raise InputError(
            f"height projection expands pair {(i, j)}: {abs(v[i] - v[j])} > {hspace.space.dist(i, j)}"
        )
    return m
