import dataclasses
import itertools
import random
import sys
import textwrap
from contextlib import ExitStack, closing

import numpy as np
import pytest

from coarsedim.errors import CapExceeded, InputError, InvariantViolation
from coarsedim.group_spaces import groups
from coarsedim.group_spaces.amalgams import (
    amalgam_group_model,
    plain_free_product_z2_z3,
    z4_amalgam_z6,
    z_amalgam_2z,
)
from coarsedim.group_spaces.groups import (
    ExternalGroupOracle,
    GroupModel,
    cayley_ball,
    cyclic_group,
    enumerate_ball,
    free_abelian_group,
    free_group,
    group_from_json,
    heisenberg_center_quotient,
    heisenberg_group,
    kernel_neighborhood_check,
)


def direct_product(a, b):
    """a x b on pairs, one generator per generator of a factor."""

    def mul(p, q):
        return (a.multiply(p[0], q[0]), b.multiply(p[1], q[1]))

    gens = [(f"{la}|", (ga, b.identity)) for la, ga in a.generators]
    gens += [(f"|{lb}", (a.identity, gb)) for lb, gb in b.generators]
    return GroupModel(f"{a.name}x{b.name}", (a.identity, b.identity), tuple(gens), mul)


MODELS = {
    "free2": lambda: free_group(2),
    "zn3": lambda: free_abelian_group(3),
    "z2": lambda: cyclic_group(2),
    "z7": lambda: cyclic_group(7),
    "heisenberg": heisenberg_group,
    "z_x_z3": lambda: direct_product(free_group(1), cyclic_group(3)),
    "amalgam_z2_z3": lambda: amalgam_group_model(plain_free_product_z2_z3()),
    "amalgam_z_2z": lambda: amalgam_group_model(z_amalgam_2z()),
    "amalgam_z4_z6": lambda: amalgam_group_model(z4_amalgam_z6()),
}


def reference_ball(group, radius):
    """Elements, labels and matrix of the word-metric ball by the direct
    method: the Cayley graph of B_2radius as adjacency lists, and one BFS
    per ball point inside it."""
    gens = group.generator_elements()
    wide = {group.identity: 0}
    frontier = [group.identity]
    for depth in range(1, 2 * radius + 1):
        nxt = []
        for e in frontier:
            for g in gens:
                new = group.multiply(e, g)
                if new not in wide:
                    wide[new] = depth
                    nxt.append(new)
        frontier = nxt
    order = sorted(wide, key=lambda e: (wide[e], repr(e)))
    pos = {e: i for i, e in enumerate(order)}
    adjacency = [[pos[t] for t in (group.multiply(e, g) for g in gens) if t in pos] for e in order]
    inner = [e for e in order if wide[e] <= radius]
    matrix = np.zeros((len(inner), len(inner)))
    for i, e in enumerate(inner):
        dist = {pos[e]: 0}
        frontier = [pos[e]]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adjacency[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        for j, f in enumerate(inner):
            matrix[i, j] = dist[pos[f]]
    return tuple(inner), tuple(repr(e) for e in inner), matrix


def assert_group_laws(group):
    """Exact identity laws and inverse closure on every generator, and
    associativity on all triples of the first 12 elements of B_2."""
    e = group.identity
    for label, g in group.generators:
        assert group.multiply(e, g) == g == group.multiply(g, e), f"identity law fails on {label}"
        assert any(group.multiply(g, h) == e for _, h in group.generators), f"{label} has no inverse"
    sample = list(enumerate_ball(group, 2))[:12]
    for a, b, c in itertools.product(sample, repeat=3):
        assert group.multiply(group.multiply(a, b), c) == group.multiply(a, group.multiply(b, c)), (a, b, c)


def assert_left_invariant(group, radius):
    """d(gx, gy) = d(x, y) in cayley_ball's metric for all g, x, y in
    B_radius whose products fall in B_2radius, read from its matrix."""
    big = cayley_ball(group, 2 * radius)
    inner = [e for e in big.elements if big.space.dist(big.index[group.identity], big.index[e]) <= radius]
    for g in inner:
        moved = {x: big.index.get(group.multiply(g, x)) for x in inner}
        for x, y in itertools.product(inner, repeat=2):
            if moved[x] is not None and moved[y] is not None:
                assert big.space.dist(moved[x], moved[y]) == big.space.dist(big.index[x], big.index[y]), (g, x, y)


def shuffled(group, seed):
    gens = list(group.generators)
    random.Random(seed).shuffle(gens)
    return dataclasses.replace(group, generators=tuple(gens))


def broken_z():
    """Z whose multiply is wrong on one input pair."""
    g = free_abelian_group(1)

    def broken(a, b):
        if a == (2,) and b == (1,):
            return (0,)
        return (a[0] + b[0],)

    return GroupModel("broken", g.identity, g.generators, broken)


class TestModels:
    def test_builtins_pass_validation(self):
        for g in (free_group(2), free_abelian_group(2), cyclic_group(5), heisenberg_group()):
            assert_group_laws(g)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_group_laws_on_every_model(self, name):
        assert_group_laws(MODELS[name]())

    def test_heisenberg_inverse(self):
        h = heisenberg_group()
        p = (3, -2, 7)
        inv = (-3, 2, 3 * (-2) - 7)
        assert h.multiply(p, inv) == (0, 0, 0)

    def test_direct_product(self):
        g = direct_product(cyclic_group(2), cyclic_group(3))
        assert_group_laws(g)
        assert len(enumerate_ball(g, 6)) == 6


class TestCayleyBall:
    def test_radius_zero_single_point(self):
        b = cayley_ball(free_group(2), 0)
        assert b.space.n == 1

    def test_z2_ball_two(self):
        b = cayley_ball(free_abelian_group(2), 2)
        assert b.space.n == 13  # 1 + 4 + 8

    def test_f2_ball_two(self):
        b = cayley_ball(free_group(2), 2)
        assert b.space.n == 17  # 1 + 4 + 12

    def test_word_metric_exact_on_z2(self):
        b = cayley_ball(free_abelian_group(2), 3)
        e = b.index[(0, 0)]
        for elem in b.elements:
            # L1 norm is the word metric for the standard generators
            assert b.space.dist(e, b.index[elem]) == abs(elem[0]) + abs(elem[1])

    def test_generator_order_irrelevant(self):
        g = free_abelian_group(2)
        permuted = GroupModel(g.name, g.identity, tuple(reversed(g.generators)), g.multiply)
        b1 = cayley_ball(g, 2)
        b2 = cayley_ball(permuted, 2)
        assert b1.elements == b2.elements
        assert (b1.space.matrix == b2.space.matrix).all()

    def test_left_invariance_holds(self):
        assert_left_invariant(free_abelian_group(2), 2)

    def test_left_invariance_catches_broken_oracle(self):
        # the ball of an oracle that breaks left invariance is never built
        with pytest.raises(InvariantViolation, match="breaks the group law"):
            assert_left_invariant(broken_z(), 2)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_matches_reference_bfs(self, name):
        for seed in (0, 1):
            group = shuffled(MODELS[name](), seed)
            for radius in range(4):
                ball = cayley_ball(group, radius)
                elements, labels, matrix = reference_ball(group, radius)
                assert ball.elements == elements
                assert ball.space.labels == labels
                assert ball.space.matrix.dtype == matrix.dtype
                assert ball.space.matrix.tobytes() == matrix.tobytes()

    @pytest.mark.parametrize("name", ["free2", "heisenberg", "z7"])
    def test_oracle_calls_are_the_enumeration(self, name):
        group = MODELS[name]()
        for radius in range(4):
            calls = []

            def counting(a, b):
                calls.append((a, b))
                return group.multiply(a, b)

            cayley_ball(dataclasses.replace(group, multiply=counting), radius)
            inside = len(enumerate_ball(group, 2 * radius - 1)) if radius else 0
            assert len(calls) == inside * len(group.generators)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_left_invariance_on_every_model(self, name):
        assert_left_invariant(MODELS[name](), 2)

    def test_broken_oracle_raises_with_pair(self):
        with pytest.raises(InvariantViolation, match="breaks the group law") as exc:
            cayley_ball(broken_z(), 2)
        x, y = exc.value.witness
        assert x != y  # an asymmetric pair; the diagonal is intact here

    def test_not_closed_under_inverses_raises(self):
        g = free_abelian_group(1)
        one_way = GroupModel("N", g.identity, g.generators[:1], g.multiply)
        assert cayley_ball(one_way, 0).space.n == 1  # no inverse is needed at radius 0
        with pytest.raises(InvariantViolation, match="not closed under inverses"):
            cayley_ball(one_way, 1)

    @pytest.mark.parametrize("group", [broken_z(), free_group(2), heisenberg_group()],
                             ids=["broken_z", "free2", "heisenberg"])
    def test_table_steps_lengthen_by_at_most_one(self, group):
        # so a walk of k steps from the identity reads only rows shorter than k,
        # and no walk in cayley_ball can reach an element without a row
        _, length, _, _, table = groups._bfs(group, 6)
        length = np.array(length)
        assert len(table) == np.count_nonzero(length < 6)
        assert (length[table] <= length[: len(table), None] + 1).all()

    def test_matrix_cap_before_allocation(self):
        with pytest.raises(CapExceeded, match="matrix exceeds cap"):
            cayley_ball(free_abelian_group(1), 5000)  # n = 10,001
        assert 10_001**2 > groups.MATRIX_CAP and 20_001 < groups.BALL_CAP


class TestKernelNeighborhood:
    def test_radius_zero_is_kernel(self):
        q = heisenberg_center_quotient()
        for ball_radius in (2, 0, 1):  # a table of radius < 2 has no generator rows
            rep = kernel_neighborhood_check(q, 0, ball_radius)
            assert rep["ok"]

    def test_z_mod_two_everything(self):
        g = free_abelian_group(1)
        h = cyclic_group(2)
        q_pres = __import__("coarsedim.group_spaces.groups", fromlist=["QuotientPresentation"]).QuotientPresentation(
            g, h, project=lambda p: p[0] % 2, in_kernel=lambda p: p[0] % 2 == 0
        )
        rep = kernel_neighborhood_check(q_pres, 1, 4)
        assert rep["ok"]
        assert rep["size"] == len(enumerate_ball(g, 4))  # N_1(2Z) is everything

    @pytest.mark.parametrize("R", [1, 2])
    def test_heisenberg_to_z2(self, R):
        q = heisenberg_center_quotient()
        rep = kernel_neighborhood_check(q, R, 2 * R + 2)
        assert rep["ok"], (rep["witness_w_only"], rep["witness_n_only"])


ORACLE_SCRIPT = textwrap.dedent(
    """
    import sys
    for line in sys.stdin:
        parts = line.split()
        if parts and parts[0] == "MUL":
            print(int(parts[1]) + int(parts[2]), flush=True)
    if len(sys.argv) > 1:
        open(sys.argv[1], "w").write("end of input")
    """
)
# answers the first request, then exits
ONE_SHOT_SCRIPT = textwrap.dedent(
    """
    import sys
    parts = sys.stdin.readline().split()
    print(int(parts[1]) + int(parts[2]), flush=True)
    """
)
# reads the first request and never answers, not even after end of input
HANGING_SCRIPT = textwrap.dedent(
    """
    import sys, time
    sys.stdin.readline()
    time.sleep(60)
    """
)


def oracle_command(tmp_path, script, *args):
    path = tmp_path / "oracle.py"
    path.write_text(script)
    return [sys.executable, str(path), *args]


def integer_group_doc(command):
    return {"custom": {"command": command, "identity": "0", "generators": [["t", "1"], ["t~", "-1"]]}}


class TestExternalOracle:
    def test_integer_oracle_ball(self, tmp_path):
        marker = tmp_path / "closed"
        with ExitStack() as stack:
            command = oracle_command(tmp_path, ORACLE_SCRIPT, str(marker))
            g = group_from_json(integer_group_doc(command), stack)
            ball = cayley_ball(g, 3)
        assert ball.space.n == 7
        center = ball.index["0"]
        assert ball.space.dist(center, ball.index["3"]) == 3.0
        assert marker.read_text() == "end of input"  # closed by end of input, not killed

    def test_close_is_graceful(self, tmp_path):
        with closing(ExternalGroupOracle(oracle_command(tmp_path, ORACLE_SCRIPT))) as oracle:
            assert oracle.multiply("2", "-5") == "-3"
        assert oracle.proc.returncode == 0
        oracle.close()  # idempotent

    def test_hanging_oracle_times_out(self, tmp_path, monkeypatch):
        monkeypatch.setattr(groups, "ORACLE_TIMEOUT_S", 0.2)
        with closing(ExternalGroupOracle(oracle_command(tmp_path, HANGING_SCRIPT))) as oracle:
            with pytest.raises(CapExceeded, match="oracle.py"):
                oracle.multiply("1", "1")
        assert oracle.proc.returncode is not None

    def test_closed_stream_is_input_error(self, tmp_path):
        with closing(ExternalGroupOracle(oracle_command(tmp_path, ONE_SHOT_SCRIPT))) as oracle:
            assert oracle.multiply("1", "1") == "2"
            with pytest.raises(InputError):
                oracle.multiply("1", "1")

    @pytest.mark.parametrize("field, value", [
        ("command", None), ("identity", None), ("generators", None),
        ("command", "python oracle.py"),  # a string, not an argument list
    ])
    def test_invalid_custom_spec_starts_no_process(self, monkeypatch, field, value):
        def no_spawn(*args, **kwargs):
            raise AssertionError("oracle process started")

        monkeypatch.setattr(groups.subprocess, "Popen", no_spawn)
        doc = integer_group_doc([sys.executable, "-c", "pass"])
        if value is None:
            del doc["custom"][field]
        else:
            doc["custom"][field] = value
        with ExitStack() as stack, pytest.raises(InputError):
            group_from_json(doc, stack)

    def test_builtin_from_json(self):
        g = group_from_json({"builtin": "heisenberg"})
        assert g.name == "heisenberg"
        with pytest.raises(InputError):
            group_from_json({"builtin": "nope"})

    @pytest.mark.parametrize("doc, generators", [
        ({"builtin": "free"}, 4),
        ({"builtin": "free", "params": {"rank": 3.0}}, 6),
        ({"builtin": "zn", "params": {"rank": 1}}, 2),
        ({"builtin": "cyclic", "params": {"order": 5}}, 2),
    ], ids=["free-default", "free-whole-float", "zn-rank-1", "cyclic-5"])
    def test_builtin_params_read_as_whole_numbers(self, doc, generators):
        assert len(group_from_json(doc).generators) == generators

    @pytest.mark.parametrize("name, params, message", [
        ("free", {"rank": 2.5}, "rank 2.5 is not a whole number"),
        ("free", {"rank": True}, "rank True is a bool, not a whole number"),
        ("free-abelian", {"rank": -3}, "rank must be a real number in [1, inf), not -3"),
        ("zn", {"rank": 0}, "rank must be a real number in [1, inf), not 0"),
        ("cyclic", {"order": 1}, "order must be a real number in [2, inf), not 1"),
        ("cyclic", {"order": "5"}, "order '5' is not a whole number"),
        ("cyclic", {"m": 0}, "builtin group 'cyclic' takes no parameter 'm'"),
        ("heisenberg", {"rank": 2}, "builtin group 'heisenberg' takes no parameter 'rank'"),
    ], ids=["fractional-rank", "bool-rank", "negative-rank", "zero-rank", "order-1", "string-order",
            "unknown-key", "heisenberg-params"])
    def test_bad_builtin_params_rejected(self, name, params, message):
        # a parameter is checked, not truncated by int(), and one the group
        # does not take is not ignored
        with pytest.raises(InputError) as err:
            group_from_json({"builtin": name, "params": params})
        assert str(err.value) == message
