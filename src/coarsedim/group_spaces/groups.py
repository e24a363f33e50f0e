"""Finitely generated group models and word-metric balls.

A :class:`GroupModel` is an oracle: an identity element, a generator list
closed under inverses, and a total multiplication.  Balls are enumerated
breadth-first, once, keeping the products in a table.  The word metric is
left-invariant, d(x, y) = |x^-1 y|, so a radius-R ball's metric is walked in
the table of the radius-2R enumeration.  Element order is canonical (word
length, then repr), so the metric does not depend on generator order.
"""

from __future__ import annotations

import math
import operator
import os
import select
import shlex
import subprocess
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from ..errors import CapExceeded, InputError, InvariantViolation
from ..metric_core import MATRIX_CAP, FiniteMetricSpace, _in_range, _row_blocks, _whole

BALL_CAP = 200_000
ORACLE_TIMEOUT_S = 10.0  # per oracle call
ORACLE_CLOSE_WAIT_S = 2.0  # between end of input and kill


@dataclass(frozen=True)
class GroupModel:
    """Group given by oracles; elements must be hashable.  ``multiply_many``,
    when set, answers a list of (a, b) pairs with the list of products
    a * b, as ``multiply`` would one at a time; ball enumeration sends it
    one list per BFS level.  A builtin's ``multiply`` may carry a
    ``keyed`` codec (``_Codec``) so that its balls are walked on int64
    keys; replacing ``multiply`` drops it."""

    name: str
    identity: Any
    generators: tuple[tuple[str, Any], ...]
    multiply: Callable[[Any, Any], Any]
    multiply_many: Callable[[list], list] | None = None

    def generator_elements(self) -> list:
        return [g for _, g in self.generators]


def _bfs(group: GroupModel, radius: int, keep: int | None = None) -> tuple:
    """BFS of the radius ball keeping, in discovery order, each element, its
    word length, the index and generator it was reached from, and
    ``table[i, g]``, the index of ``elements[i] * g`` if i is shorter than radius.
    Only the elements of length at most ``keep`` (all when None) are
    returned; the other lists cover the whole ball.

    A level's products are computed in one list, in row-major (element,
    generator) order, and deduplicated in that order, so discovery order
    is that of one product at a time.  An element is first reached at its
    first occurrence in the flat table, which each walk records and which
    gives its parent and letter; the identity keeps 0 and -1.  A builtin
    whose ``multiply`` carries a ``keyed`` codec is walked on int64 keys,
    one array step per level (``_keyed_levels``); any other multiply, or a
    codec that declines the generators, takes the tuple loop
    (``_tuple_levels``).  Both give the same lists and table, bit for bit."""
    codec = None
    if group.multiply_many is None and hasattr(group.multiply, "keyed"):
        codec = group.multiply.keyed(group.identity, group.generator_elements(), radius)
    if codec is None:
        elements, bounds, flat, first = _tuple_levels(group, radius)
    else:
        elements, bounds, flat, first = _keyed_levels(group, radius, codec)
    k = len(group.generators)
    length = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    parent, letter = np.zeros(len(length), dtype=np.intp), np.full(len(length), -1, dtype=np.intp)
    parent[1:], letter[1:] = np.divmod(first, k)
    kept = elements[:bounds[min(keep + 1, len(bounds) - 1)]] if keep is not None else elements
    if codec is not None:
        kept = codec.decode(kept)
    return kept, length.tolist(), parent.tolist(), letter.tolist(), flat.reshape(bounds[-2], k)


def _tuple_levels(group: GroupModel, radius: int) -> tuple[list, list[int], np.ndarray, np.ndarray]:
    """The BFS on elements: ``setdefault`` hashes each product once and
    appends it at its first occurrence.  Returns the elements, the level
    bounds, the flat table and each later element's first position in it."""
    gens = group.generator_elements()
    mul = group.multiply
    elements, index = [group.identity], {group.identity: 0}
    seen, bounds, table, first = index.setdefault, [0, 1], [], []
    while len(bounds) <= radius + 1 and bounds[-2] < bounds[-1]:
        level = elements[bounds[-2]:bounds[-1]]
        if group.multiply_many is None:
            products = [mul(elem, g) for elem in level for g in gens]
        else:
            products = group.multiply_many([(elem, g) for elem in level for g in gens])
        count = len(elements)
        for new in products:
            i = seen(new, count)
            if i == count:
                if count == BALL_CAP:
                    raise CapExceeded(f"ball of {group.name} exceeds cap {BALL_CAP}")
                elements.append(new)
                first.append(len(table))
                count += 1
            table.append(i)
        bounds.append(count)
    return elements, bounds, np.array(table, dtype=np.intp), np.array(first, dtype=np.intp)


def _keyed_levels(group: GroupModel, radius: int, codec: "_Codec") -> tuple:
    """The BFS on int64 keys, one array step per level: the keys in
    discovery order, and the same bounds, table and first positions as
    ``_tuple_levels``.

    A level's products form one (element, generator) row-major array.
    ``np.unique`` sorts it and returns, for each distinct key, the index
    of its first occurrence (it sorts stably to do so); keys found by
    ``searchsorted`` among the sorted keys seen so far keep their index,
    the others are numbered in the order of their first occurrences.  The
    tuple loop meets a product as new exactly when no earlier product and
    no earlier level has it, at that same first occurrence, so both number
    every element alike.  The ball overflows ``BALL_CAP`` in a level
    exactly when the tuple loop's count reaches the cap inside it, with
    the same message."""
    k = len(group.generators)
    level = np.array([codec.start], dtype=np.int64)
    levels, bounds, table, reached, done = [level], [0, 1], [], [], 0
    seen, where = level, np.zeros(1, dtype=np.intp)  # sorted keys and their indices
    while len(bounds) <= radius + 1 and bounds[-2] < bounds[-1]:
        products = np.empty((len(level), k), dtype=np.int64)
        for j in range(k):
            products[:, j] = codec.step(level, j)
        keys, first, inverse = np.unique(products.ravel(), return_index=True, return_inverse=True)
        at = np.searchsorted(seen, keys)
        old = at < len(seen)
        old[old] = seen[at[old]] == keys[old]
        new = ~old
        fresh = np.flatnonzero(new)
        fresh = fresh[np.argsort(first[fresh])]
        count = bounds[-1]
        if count + len(fresh) > BALL_CAP:
            raise CapExceeded(f"ball of {group.name} exceeds cap {BALL_CAP}")
        index = np.empty(len(keys), dtype=np.intp)
        index[old] = where[at[old]]
        index[fresh] = np.arange(count, count + len(fresh))
        reached.append(first[fresh] + done)
        done += len(inverse)
        table.append(index[inverse])
        level = keys[fresh]
        levels.append(level)
        seen, where = np.insert(seen, at[new], keys[new]), np.insert(where, at[new], index[new])
        bounds.append(count + len(fresh))
    flat, first = (np.concatenate(parts) if parts else np.zeros(0, dtype=np.intp) for parts in (table, reached))
    return np.concatenate(levels), bounds, flat, first


def enumerate_ball(group: GroupModel, radius: int) -> dict:
    """BFS enumeration of the radius ball: element -> word length."""
    return dict(zip(*_bfs(group, radius)[:2]))


def _inverses(bfs: tuple, targets: Sequence[int]) -> list[int]:
    """Discovery index of y^-1 for each discovery index y in ``targets``, walked from
    the identity along y's word backwards, all targets one letter at a time; the
    identity alone needs no inverse letter."""
    _, _, parent, letter, table = bfs
    ys = np.array(targets, dtype=np.intp)
    out = np.zeros(len(ys), dtype=np.intp)
    live = np.flatnonzero(ys)
    if len(live):
        inverse = [np.flatnonzero(row == 0) for row in table[table[0]]]
        if not all(len(h) for h in inverse):
            raise InvariantViolation("generator set is not closed under inverses")
        undo, parent, letter = np.array([h[0] for h in inverse]), np.array(parent), np.array(letter)
    while len(live):
        out[live] = table[out[live], undo[letter[ys[live]]]]
        ys[live] = parent[ys[live]]
        live = live[ys[live] != 0]
    return out.tolist()


@dataclass(frozen=True)
class CayleyBall:
    """Word-metric ball: a finite metric space plus the element list in
    canonical order (word length, then repr)."""

    group: GroupModel
    radius: int
    space: FiniteMetricSpace
    elements: tuple
    index: dict = field(compare=False)


def cayley_ball(group: GroupModel, radius: int) -> CayleyBall:
    """Enumerate B_radius with the exact word metric d(x, y) = |x^-1 y|, read
    from the product table of the B_2radius enumeration.  Row c of the walk
    holds x^-1 y for the c-th y and every x: the row of y's parent times y's
    last letter, all shorter than 2radius, so the rows of one word length
    are filled together, in row blocks.  Only B_radius is decoded to
    elements.  A nonzero diagonal or an asymmetric matrix means the oracle
    breaks the group law.  The walk table and that test are n x n, no
    larger than the matrix returned."""
    if radius < 0:
        raise InputError("radius must be nonnegative")
    bfs = elements, length, parent, letter, table = _bfs(group, 2 * radius, keep=radius)
    canon = sorted(range(len(elements)), key=lambda i: (length[i], repr(elements[i])))
    n = len(canon)
    if n * n > MATRIX_CAP:
        raise CapExceeded(f"ball of {group.name} has {n} points; its matrix exceeds cap {MATRIX_CAP}")
    at = np.array(canon, dtype=np.intp)
    row_of = np.empty(len(length), dtype=np.intp)
    row_of[at] = np.arange(n)
    up, last = row_of[np.array(parent)[at]], np.array(letter)[at]
    walks = np.empty((n, n), dtype=np.intp)
    walks[0] = _inverses(bfs, canon)
    levels = np.searchsorted(np.array(length)[at], np.arange(radius + 2))
    for lo, hi in zip(levels[1:-1], levels[2:]):  # each length's rows, from their parents' rows
        for rows in _row_blocks(hi - lo, n):
            rows = slice(lo + rows.start, lo + rows.stop)
            walks[rows] = table[walks[up[rows]], last[rows, None]]
    matrix = np.array(length, dtype=float)[walks]
    inner = [elements[i] for i in canon]
    broken = matrix != matrix.T
    np.fill_diagonal(broken, np.diagonal(matrix) != 0)
    if broken.any():
        c, r = np.argwhere(broken)[0]  # matrix[c, r] = d(x, y) for x = inner[r], y = inner[c]
        raise InvariantViolation(
            f"multiply oracle of {group.name} breaks the group law: d(x, y) = {matrix[c, r]:g}, d(y, x) = "
            f"{matrix[r, c]:g} at x = {inner[r]!r}, y = {inner[c]!r}", witness=(inner[r], inner[c]))
    space = FiniteMetricSpace(matrix, tuple(repr(e) for e in inner), "word-metric-ball")
    return CayleyBall(group, radius, space, tuple(inner), {e: i for i, e in enumerate(inner)})


# ---------------------------------------------------------------------------
# builtin families


@dataclass(frozen=True)
class _Codec:
    """int64 keys of a builtin's elements in one BFS: ``start`` is the
    identity's key, ``step(keys, j)`` the keys of the products by the j-th
    generator, as the tuple ``multiply`` computes them, and ``decode`` the
    list of tuples of an array of keys."""

    start: int
    step: Callable[[np.ndarray, int], np.ndarray]
    decode: Callable[[np.ndarray], list]


_KEY_LIMIT = 1 << 63  # every key, and every partial sum of a step, is below it


def _int_tuples(elements, size: int | None = None) -> bool:
    """Whether each element is a tuple of Python ints (of ``size`` items),
    so that decoded keys repeat them exactly, type and repr included."""
    return all(type(e) is tuple and (size is None or len(e) == size)
               and all(type(x) is int for x in e) for e in elements)


def _word_codec(rank: int):
    """Keys of free-group words: letter x is digit x, letter -x digit
    rank + x, and a word its digits read in base 2 rank + 1, last letter
    lowest.  No digit is 0, so each word has one key, below base**length,
    and the last letter is ``key % base``.  A generator applies its
    letters in turn, as ``multiply`` does: drop the last digit when it is
    the letter's inverse, else append the letter."""
    base = 2 * rank + 1
    letters = np.array([0, *range(1, rank + 1), *range(-1, -rank - 1, -1)], dtype=np.int64)

    def digit(x: int) -> int:
        return x if x > 0 else rank - x

    def codec(identity, gens, radius):
        if not _int_tuples([identity, *gens]) or not all(0 < abs(x) <= rank for w in (identity, *gens) for x in w):
            return None
        longest = len(identity) + radius * max(map(len, gens), default=0)
        if base ** longest > _KEY_LIMIT:
            return None
        moves = [[(digit(-x), digit(x)) for x in g] for g in gens]

        def step(keys, j):
            for undo, do in moves[j]:
                keys = np.where(keys % base == undo, keys // base, keys * base + do)
            return keys

        def decode(keys):
            digits = []
            while keys.any():
                keys, low = np.divmod(keys, base)
                digits.append(low)
            words = letters[np.stack(digits[::-1], axis=1)] if digits else np.zeros((len(keys), 0), np.int64)
            top = words.shape[1]
            return [tuple(w[top - n:]) for w, n in zip(words.tolist(), np.count_nonzero(words, axis=1).tolist())]

        start = 0
        for x in identity:
            start = start * base + digit(x)
        return _Codec(start, step, decode)

    return codec


def _coordinate_codec(spans: list[int]) -> tuple | None:
    """Keys of integer tuples with |x[i]| <= spans[i], as mixed-radix
    numbers, first coordinate highest: ``(encode, decode, strides)``, or
    None when a key could reach ``_KEY_LIMIT``."""
    widths = [2 * s + 1 for s in spans]
    if math.prod(widths) > _KEY_LIMIT:
        return None
    strides = [math.prod(widths[i + 1:]) for i in range(len(widths))]

    def encode(e):
        return sum((x + s) * t for x, s, t in zip(e, spans, strides))

    def decode(keys):
        columns = [((keys // t) % w - s).tolist() for t, w, s in zip(strides, widths, spans)]
        return list(zip(*columns))

    return encode, decode, strides


def _abelian_codec(rank: int):
    """Keys of Z^rank: a generator adds a constant to every key."""

    def codec(identity, gens, radius):
        if not _int_tuples([identity, *gens], rank):
            return None
        spans = [abs(identity[i]) + radius * max((abs(g[i]) for g in gens), default=0) for i in range(rank)]
        coded = _coordinate_codec(spans)
        if coded is None:
            return None
        encode, decode, strides = coded
        shifts = [sum(x * t for x, t in zip(g, strides)) for g in gens]
        return _Codec(encode(identity), lambda keys, j: keys + shifts[j], decode)

    return codec


def _heisenberg_codec(identity, gens, radius):
    """Keys of (a, b, c): right multiplication by (a', b', c') adds the
    constant key of (a', b', c') and a * b' to the c digit.  Over radius
    steps |a| and |b| grow by at most the largest |a'| and |b'| each, and
    |c| by the largest |c'| + A |b'|, A the bound on |a|."""
    if not _int_tuples([identity, *gens], 3):
        return None
    most = [max((abs(g[i]) for g in gens), default=0) for i in range(3)]
    a_span = abs(identity[0]) + radius * most[0]
    spans = [a_span, abs(identity[1]) + radius * most[1], abs(identity[2]) + radius * (most[2] + a_span * most[1])]
    coded = _coordinate_codec(spans)
    if coded is None:
        return None
    encode, decode, (a_stride, b_stride, _) = coded
    moves = [(a_stride * g[0] + b_stride * g[1] + g[2], g[1]) for g in gens]

    def step(keys, j):
        shift, b = moves[j]
        return keys + (shift + (keys // a_stride - a_span) * b)

    return _Codec(encode(identity), step, decode)


def _check_rank(rank: int) -> None:
    """``CapExceeded`` unless a ball of radius 1, the identity and the
    2·rank generators, fits ``MATRIX_CAP``; checked before any generator
    is built."""
    if (2 * rank + 1) ** 2 > MATRIX_CAP:
        raise CapExceeded(f"rank {rank} gives {2 * rank} generators; a ball of radius 1 exceeds cap {MATRIX_CAP}")


def free_group(rank: int) -> GroupModel:
    """Free group on `rank` letters; elements are reduced tuples of nonzero
    ints (sign = inverse).  From rank 2 its balls are walked on keys."""

    def mul(a, b):
        if len(b) == 1:  # a generator: cancel or append its one letter
            return a[:-1] if a and a[-1] == -b[0] else a + b
        a = list(a)
        for x in b:
            if a and a[-1] == -x:
                a.pop()
            else:
                a.append(x)
        return tuple(a)

    _check_rank(rank)
    if rank >= 2:
        mul.keyed = _word_codec(rank)
    gens = []
    for i in range(1, rank + 1):
        gens.append((f"g{i}", (i,)))
        gens.append((f"g{i}~", (-i,)))
    return GroupModel(f"free-{rank}", (), tuple(gens), mul)


def free_abelian_group(rank: int) -> GroupModel:
    """Z^rank as tuples of ints; from rank 2 its balls are walked on keys."""

    def mul(a, b):
        return tuple(map(operator.add, a, b))

    _check_rank(rank)
    if rank >= 2:
        mul.keyed = _abelian_codec(rank)
    zero = tuple([0] * rank)
    gens = []
    for i in range(rank):
        e = tuple(1 if j == i else 0 for j in range(rank))
        ne = tuple(-1 if j == i else 0 for j in range(rank))
        gens.append((f"e{i}", e))
        gens.append((f"e{i}~", ne))
    return GroupModel(f"zn-{rank}", zero, tuple(gens), mul)


def cyclic_group(m: int) -> GroupModel:
    if m < 2:
        raise InputError("cyclic group order must be at least 2")

    def mul(a, b):
        return (a + b) % m

    gens = [("t", 1 % m), ("t~", (-1) % m)]
    return GroupModel(f"z{m}", 0, tuple(gens), mul)


def heisenberg_group() -> GroupModel:
    """Integer upper-triangular 3x3 matrices encoded as (a, b, c):
    (a,b,c)*(a',b',c') = (a+a', b+b', c+c'+a*b').  Its balls are walked on
    keys."""

    def mul(p, q):
        return (p[0] + q[0], p[1] + q[1], p[2] + q[2] + p[0] * q[1])

    mul.keyed = _heisenberg_codec
    gens = (
        ("x", (1, 0, 0)),
        ("x~", (-1, 0, 0)),
        ("y", (0, 1, 0)),
        ("y~", (0, -1, 0)),
    )
    return GroupModel("heisenberg", (0, 0, 0), gens, mul)


# ---------------------------------------------------------------------------
# quotients and the kernel-neighborhood identity


@dataclass(frozen=True)
class QuotientPresentation:
    """Surjection onto a quotient: the projection oracle, a kernel
    membership test, and the quotient group generated by the images."""

    group: GroupModel
    quotient: GroupModel
    project: Callable[[Any], Any]
    in_kernel: Callable[[Any], bool]


def heisenberg_center_quotient() -> QuotientPresentation:
    """Heisenberg onto Z^2 by killing the center (the c coordinate)."""
    g = heisenberg_group()
    h = free_abelian_group(2)
    return QuotientPresentation(
        g,
        h,
        project=lambda p: (p[0], p[1]),
        in_kernel=lambda p: p[0] == 0 and p[1] == 0,
    )


def kernel_neighborhood_check(q: QuotientPresentation, R: int, ball_radius: int) -> dict:
    """Exact set equality, inside the enumerated ball, of

      {g : the quotient image of g has word norm <= R}   and
      {g : g lies within R of the kernel},

    the latter decided algebraically as: some h in B_R has g*h^-1 in the
    kernel (so no geodesic can escape the enumeration).
    """
    if ball_radius < 2 * R:
        raise InputError("ball radius must be at least 2R for a safe check")
    bfs = ball, length, *_ = _bfs(q.group, ball_radius)
    quotient_ball = enumerate_ball(q.quotient, R)
    inverses = [ball[i] for i in _inverses(bfs, [i for i, n in enumerate(length) if n <= R])]
    side_w, side_n = set(), set()
    for g in ball:
        if q.project(g) in quotient_ball:
            side_w.add(g)
        if any(q.in_kernel(q.group.multiply(g, inv)) for inv in inverses):
            side_n.add(g)
    only_w = sorted(side_w - side_n, key=repr)
    only_n = sorted(side_n - side_w, key=repr)
    return {
        "ok": not only_w and not only_n,
        "R": R,
        "ball_radius": ball_radius,
        "ball_size": len(ball),
        "witness_w_only": only_w[:3],
        "witness_n_only": only_n[:3],
        "size": len(side_w),
    }


# ---------------------------------------------------------------------------
# external oracle and JSON


class ExternalGroupOracle:
    """Group multiplication served by an external process over a line
    protocol: send "MUL a b", read back the product token.

    Requests are pipelined: ``multiply_many`` writes its requests while it
    reads the answers, polling both pipes, so neither side can block on a
    full pipe whatever the token lengths.  Each answer is awaited at most
    ``ORACLE_TIMEOUT_S`` after the previous one (``CapExceeded``); a
    closed stream or a dead process is an ``InputError``.  ``close()``
    ends the input first, so the oracle can finish cleanly, and kills it
    only if it has not exited ``ORACLE_CLOSE_WAIT_S`` later.  The caller
    owns the process and must close it."""

    def __init__(self, command: Sequence[str]):
        self.command = shlex.join(command)
        self.proc = subprocess.Popen(
            list(command), stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0
        )
        self._out = self.proc.stdout.fileno()
        self._buffer = b""

    def multiply(self, a: str, b: str) -> str:
        return self.multiply_many([(a, b)])[0]

    def multiply_many(self, pairs: Sequence[tuple[str, str]]) -> list[str]:
        """The products of ``pairs``, one "MUL a b" line each, in order."""
        pending = memoryview("".join(f"MUL {a} {b}\n" for a, b in pairs).encode())
        *lines, self._buffer = self._buffer.split(b"\n")
        try:
            into = self.proc.stdin.fileno()
        except ValueError as exc:
            raise InputError(f"group oracle {self.command!r} is gone: {exc}") from exc
        poll = select.poll()
        poll.register(self._out, select.POLLIN)
        poll.register(into, select.POLLOUT)
        os.set_blocking(into, False)
        try:
            deadline = time.monotonic() + ORACLE_TIMEOUT_S
            while pending or len(lines) < len(pairs):
                events = poll.poll(max(0.0, deadline - time.monotonic()) * 1000.0)
                if not events:
                    waiting = "MUL {} {}".format(*pairs[min(len(lines), len(pairs) - 1)])
                    raise CapExceeded(
                        f"group oracle {self.command!r} gave no answer to {waiting!r} "
                        f"within {ORACLE_TIMEOUT_S:g} s"
                    )
                for fd, _ in events:
                    if fd == into:
                        try:
                            pending = pending[os.write(into, pending):]
                        except BlockingIOError:
                            continue
                        except BrokenPipeError as exc:
                            raise InputError(f"group oracle {self.command!r} is gone: {exc}") from exc
                        if not pending:
                            poll.unregister(into)
                        continue
                    chunk = os.read(self._out, 65536)
                    if not chunk:
                        raise InputError(f"group oracle {self.command!r} closed the stream")
                    *new, self._buffer = (self._buffer + chunk).split(b"\n")
                    if new:
                        lines += new
                        deadline = time.monotonic() + ORACLE_TIMEOUT_S
        finally:
            os.set_blocking(into, True)
        self._buffer = b"\n".join(lines[len(pairs):] + [self._buffer])
        return [line.decode().strip() for line in lines[:len(pairs)]]

    def close(self) -> None:
        if self.proc.stdin.closed:
            return
        self.proc.stdin.close()  # end of input: the oracle may finish cleanly
        try:
            self.proc.wait(timeout=ORACLE_CLOSE_WAIT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# each builtin group's factory, and the whole-number parameters it takes
# with their defaults and least values
_BUILTINS: dict[str, tuple[Callable[..., GroupModel], dict[str, tuple[int, int]]]] = {
    "free": (free_group, {"rank": (2, 1)}),
    "free-abelian": (free_abelian_group, {"rank": (2, 1)}),
    "zn": (free_abelian_group, {"rank": (2, 1)}),
    "cyclic": (cyclic_group, {"order": (2, 2)}),
    "heisenberg": (heisenberg_group, {}),
}


def group_from_json(doc: dict, stack: ExitStack | None = None) -> GroupModel:
    """Group JSON: {"builtin": name, "params": {...}} or
    {"custom": {"command": [...], "identity": tok, "generators": [[label, tok], ...]}}.

    A custom group's oracle process is started only after the whole spec
    is validated, and is closed by ``stack``, which the caller owns."""
    if not isinstance(doc, dict):
        raise InputError(f"group JSON must be an object, not {doc!r}")
    if "builtin" in doc:
        name, params = doc["builtin"], doc.get("params", {})
        if not isinstance(name, str) or name not in _BUILTINS:
            raise InputError(f"unknown builtin group {name!r}")
        if not isinstance(params, dict):
            raise InputError(f"group JSON 'params' must be an object, not {params!r}")
        factory, takes = _BUILTINS[name]
        unknown = sorted(set(params) - set(takes))
        if unknown:
            raise InputError(f"builtin group {name!r} takes no parameter {unknown[0]!r}")
        return factory(*(_in_range(_whole(params.get(key, default), key), key, least)
                         for key, (default, least) in takes.items()))
    if "custom" in doc:
        spec = doc["custom"]
        try:
            command = spec["command"]
            identity = str(spec["identity"])
            gens = tuple((str(l), str(e)) for l, e in spec["generators"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"custom group JSON missing or malformed field: {exc}") from exc
        if not (isinstance(command, list) and command and all(isinstance(c, str) for c in command)):
            raise InputError("custom group 'command' must be a non-empty list of strings")
        if stack is None:
            raise TypeError("a custom group needs an ExitStack to own its oracle process")
        oracle = ExternalGroupOracle(command)
        stack.callback(oracle.close)
        return GroupModel("custom", identity, gens, oracle.multiply, oracle.multiply_many)
    raise InputError("group JSON needs 'builtin' or 'custom'")
