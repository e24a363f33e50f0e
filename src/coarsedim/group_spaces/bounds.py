"""Symbolic upper-bound calculus for coarse dimension of groups.

Bounds are combined by four rules, each printed into a derivation chain:

  extension     quotient bound + kernel bound
  polycyclic    the Hirsch length (number of infinite-cyclic factors)
  free product  max(left, right, 1)
  amalgam       subgroup bound + max(left quotient, right quotient, 1)

Leaves are known bounds (whole numbers >= 0), infinite-cyclic factors "Z"
(1) or finite groups "finite" or "finite:<m>", m >= 1 (0); a polycyclic
series lists such quotients.  The free-product rule is stated for positive
inputs; when both sides are 0 the max(..., 1) value is an upper bound only
and the chain says so.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Sequence

from ..errors import InputError
from ..metric_core import _in_range, _whole

INFINITE_CYCLIC = "Z"
_QUOTIENT = re.compile(r"Z|finite(:0*[1-9][0-9]*)?")


def _quotient(q, what: str) -> str:
    if isinstance(q, str) and _QUOTIENT.fullmatch(q):
        return q
    raise InputError(f"{what} {q!r} is not 'Z', 'finite' or 'finite:<m>' with m a whole number >= 1")


@dataclass(frozen=True)
class NormalSeries:
    """Consecutive quotient descriptors, each "Z" or "finite:<m>"."""

    quotients: tuple[str, ...]

    def __post_init__(self):
        if not self.quotients:
            raise InputError("a normal series needs at least one quotient")
        for q in self.quotients:
            _quotient(q, "series quotient")

    @staticmethod
    def of(items: Sequence[str]) -> "NormalSeries":
        return NormalSeries(tuple(items))


def hirsch_length(series: NormalSeries) -> int:
    """Number of infinite-cyclic factors in the series."""
    return sum(1 for q in series.quotients if q == INFINITE_CYCLIC)


# each rule that combines sub-expressions: its operand keys in order, its
# header line, how it combines their bounds, and its closing line
_RULES = {
    "extension": (("quotient", "kernel"), "extension rule: quotient bound + kernel bound",
                  lambda q, k: q + k, lambda q, k, v: f"{q} + {k} = {v}"),
    "free_product": (("left", "right"), "free product rule: max(left, right, 1)",
                     lambda a, b: max(a, b, 1),
                     lambda a, b, v: f"max({a}, {b}, 1) = {v}"
                     + (" (upper bound; the equality case needs a positive side)" if max(a, b) == 0 else "")),
    "amalgam": (("c", "a_quotient", "b_quotient"),
                "amalgam rule: subgroup bound + max(left quotient, right quotient, 1)",
                lambda c, a, b: c + max(a, b, 1), lambda c, a, b, v: f"{c} + max({a}, {b}, 1) = {v}"),
}
_KEYS = {"leaf": ("value",), "polycyclic": ("series",), **{name: r[0] for name, r in _RULES.items()}}
_SHORT_FORMS = {"polycyclic": "polycyclic", "freeprod": "free_product", "amalgam": "amalgam", "extension": "extension"}


def parse_bound_expr(text: str):
    """The bound expression a command line spells: a JSON object, or a short
    form ``polycyclic:<q>,...``, ``freeprod:<l>,<r>``, ``amalgam:<c>,<a>,<b>``
    or ``extension:<q>,<k>`` whose integer operands are known bounds."""
    if text.startswith("{"):
        return json.loads(text)
    head, _, rest = text.partition(":")
    parts = [p for p in rest.split(",") if p]
    rule = _SHORT_FORMS.get(head)
    if rule == "polycyclic":
        return {"rule": rule, "series": parts}
    if rule is None:
        raise InputError(f"cannot parse bound expression {text!r}")
    keys = _RULES[rule][0]
    if len(parts) != len(keys):
        raise InputError(f"{head} takes {len(keys)} operands ({', '.join(keys)}), not {len(parts)}: {text!r}")
    return {"rule": rule, **{key: _token(p) for key, p in zip(keys, parts)}}


def _token(token: str):
    try:
        return int(token)
    except ValueError:
        return token


def _eval(expr, lines: list[str], depth: int, what: str) -> int:
    pad = "  " * depth
    if isinstance(expr, NormalSeries):
        expr = {"rule": "polycyclic", "series": list(expr.quotients)}
    if isinstance(expr, dict):
        rule = expr.get("rule")
        if not isinstance(rule, str) or rule not in _KEYS:
            raise InputError(f"{what} {expr!r} names no rule of {', '.join(_KEYS)}")
        others = [key for key in expr if key != "rule"]
        if set(others) != set(_KEYS[rule]):
            raise InputError(f"the {rule} rule takes the keys {', '.join(_KEYS[rule])}; {what} has {others}")
        if rule == "polycyclic":
            series = expr["series"]
            if not isinstance(series, list):
                raise InputError(f"polycyclic series must be a list of quotients, not {series!r}")
            h = hirsch_length(NormalSeries.of(series))
            lines.append(f"{pad}polycyclic rule: bound = Hirsch length = {h} (series {', '.join(series)})")
            return h
        if rule != "leaf":
            keys, header, combine, result = _RULES[rule]
            lines.append(pad + header)
            bounds = [_eval(expr[key], lines, depth + 1, key) for key in keys]
            value = combine(*bounds)
            lines.append(f"{pad}= {result(*bounds, value)}")
            return value
        expr, what = expr["value"], "leaf value"
    if isinstance(expr, str):
        value = 1 if _quotient(expr, what) == INFINITE_CYCLIC else 0
        lines.append(pad + ("infinite cyclic: 1" if value else "finite group: 0"))
        return value
    value = _in_range(_whole(expr, what), what, 0)
    lines.append(f"{pad}known bound: {value}")
    return value


def asdim_upper_bound(expr) -> dict:
    """Evaluate a bound expression tree and return the bound with its
    printed derivation chain."""
    lines: list[str] = []
    value = _eval(expr, lines, 0, "bound expression")
    return {"bound": value, "derivation": lines}
