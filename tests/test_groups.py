import sys
import textwrap
from contextlib import ExitStack, closing

import pytest

from coarsedim.errors import CapExceeded, InputError
from coarsedim.group_spaces import groups
from coarsedim.group_spaces.groups import (
    ExternalGroupOracle,
    GroupModel,
    cayley_ball,
    cyclic_group,
    direct_product,
    enumerate_ball,
    free_abelian_group,
    free_group,
    group_from_json,
    heisenberg_center_quotient,
    heisenberg_group,
    kernel_neighborhood_check,
    left_invariance_check,
    validate_group_model,
)


class TestModels:
    def test_builtins_pass_validation(self):
        for g in (free_group(2), free_abelian_group(2), cyclic_group(5), heisenberg_group()):
            assert validate_group_model(g)["ok"]

    def test_heisenberg_inverse(self):
        h = heisenberg_group()
        p = (3, -2, 7)
        inv = (-3, 2, 3 * (-2) - 7)
        assert h.multiply(p, inv) == (0, 0, 0)

    def test_direct_product(self):
        g = direct_product(cyclic_group(2), cyclic_group(3))
        assert validate_group_model(g)["ok"]
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
        assert left_invariance_check(free_abelian_group(2), 2)["ok"]

    def test_left_invariance_catches_broken_oracle(self):
        g = free_abelian_group(1)

        def broken(a, b):
            # deliberately wrong on one input pair
            if a == (2,) and b == (1,):
                return (0,)
            return (a[0] + b[0],)

        bad = GroupModel("broken", g.identity, g.generators, broken)
        assert not left_invariance_check(bad, 2)["ok"]


class TestKernelNeighborhood:
    def test_radius_zero_is_kernel(self):
        q = heisenberg_center_quotient()
        rep = kernel_neighborhood_check(q, 0, 2)
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
