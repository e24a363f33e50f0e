"""Property tests of the level-batched Cayley BFS, its keyed walk and its
builtin products, the pipelined oracle, the sampled and exhaustive
triangle checks and the two-pass tree metric, against the one-at-a-time
versions they replace."""

import dataclasses
import heapq
import sys
import textwrap
from contextlib import ExitStack, closing
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsedim import metric_core
from coarsedim.errors import CapExceeded, InputError
from coarsedim.group_spaces import groups
from coarsedim.group_spaces.groups import (
    ExternalGroupOracle,
    _bfs,
    cayley_ball,
    cyclic_group,
    free_abelian_group,
    free_group,
    group_from_json,
    heisenberg_group,
)
from coarsedim.metric_core import (
    TOL,
    FiniteMetricSpace,
    _triangle_violation_exhaustive,
    _triangle_violation_sampled,
    build_graph_metric,
    verify_metric_axioms,
)

from test_groups import reference_ball  # the direct ball: one BFS per point

SETTINGS = settings(max_examples=60, deadline=None)


# ---------------------------------------------------------------------------
# Cayley BFS and builtin products


def reference_bfs(group, radius):
    """One product at a time, the element list growing while it is read."""
    gens = group.generator_elements()
    elements, length, parent, letter = [group.identity], [0], [0], [-1]
    index, table = {group.identity: 0}, []
    for i, elem in enumerate(elements):
        if length[i] == radius:
            break
        for gi, g in enumerate(gens):
            new = group.multiply(elem, g)
            if new not in index:
                index[new] = len(elements)
                elements.append(new)
                length.append(length[i] + 1)
                parent.append(i)
                letter.append(gi)
                if len(elements) > groups.BALL_CAP:
                    raise CapExceeded(f"ball of {group.name} exceeds cap {groups.BALL_CAP}")
            table.append(index[new])
    rows = sum(n < radius for n in length)
    return elements, length, parent, letter, np.array(table, dtype=np.intp).reshape(rows, len(gens))


def reference_free_multiply(a, b):
    a = list(a)
    for x in b:
        if a and a[-1] == -x:
            a.pop()
        else:
            a.append(x)
    return tuple(a)


def reference_abelian_multiply(a, b):
    return tuple(x + y for x, y in zip(a, b))


BFS_MODELS = {
    "free2": lambda: free_group(2),
    "zn3": lambda: free_abelian_group(3),
    "heisenberg": heisenberg_group,
    "z5": lambda: cyclic_group(5),  # its levels run out after radius 2
}


def same_bfs(got, want):
    *lists, table = got
    *want_lists, want_table = want
    assert lists == want_lists
    assert all(type(x) is int for column in lists[1:] for x in column)
    assert table.dtype == want_table.dtype and table.shape == want_table.shape
    assert np.array_equal(table, want_table)


class TestLevelBFS:
    @pytest.mark.parametrize("name", sorted(BFS_MODELS))
    @pytest.mark.parametrize("radius", range(5))
    def test_matches_one_product_at_a_time(self, name, radius):
        group = BFS_MODELS[name]()
        same_bfs(_bfs(group, radius), reference_bfs(group, radius))

    def test_no_generators(self):
        group = groups.GroupModel("trivial", 0, (), lambda a, b: 0)
        for radius in range(3):
            same_bfs(_bfs(group, radius), reference_bfs(group, radius))

    @pytest.mark.parametrize("cap", range(1, 30))
    def test_ball_cap_inside_a_level(self, monkeypatch, cap):
        # free group levels hold 4, 12 and 36 elements: most caps fall inside one
        monkeypatch.setattr(groups, "BALL_CAP", cap)
        group = free_group(2)
        try:
            want = reference_bfs(group, 3)
        except CapExceeded as exc:
            with pytest.raises(CapExceeded, match=f"^{exc}$"):
                _bfs(group, 3)
        else:
            same_bfs(_bfs(group, 3), want)

    @SETTINGS
    @given(st.lists(st.sampled_from([1, -1, 2, -2, 3]), max_size=6),
           st.lists(st.sampled_from([1, -1, 2, -2, 3]), max_size=3))
    def test_free_multiply(self, a, b):
        mul = free_group(3).multiply
        a, b = reference_free_multiply((), a), reference_free_multiply((), b)
        assert mul(a, b) == reference_free_multiply(a, b)

    @SETTINGS
    @given(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
           st.lists(st.integers(-9, 9), min_size=3, max_size=3))
    def test_free_abelian_multiply(self, a, b):
        assert free_abelian_group(3).multiply(tuple(a), tuple(b)) == reference_abelian_multiply(a, b)


# ---------------------------------------------------------------------------
# keyed BFS of the growing builtins


KEYED_MODELS = {
    "free2": lambda: free_group(2),
    "free3": lambda: free_group(3),
    "zn2": lambda: free_abelian_group(2),
    "zn3": lambda: free_abelian_group(3),
    "heisenberg": heisenberg_group,
}
EXTRA_GENERATORS = {  # each with its inverse
    "zn2": [("a", (2, 1)), ("a~", (-2, -1))],
    "free2": [("ab", (1, 2)), ("ab~", (-2, -1))],
    "heisenberg": [("z", (0, 0, 1)), ("z~", (0, 0, -1)), ("xy", (1, 1, 1)), ("xy~", (-1, -1, 0))],
}


@st.composite
def keyed_groups(draw):
    """A builtin that walks keys, its generators shuffled and, for some,
    extended by a longer generator and its inverse."""
    name = draw(st.sampled_from(sorted(KEYED_MODELS)))
    group = KEYED_MODELS[name]()
    gens = list(group.generators)
    if name in EXTRA_GENERATORS and draw(st.booleans()):
        gens += EXTRA_GENERATORS[name]
    return dataclasses.replace(group, generators=tuple(draw(st.permutations(gens))))


def walks_keys(group, radius):
    """Whether ``_bfs`` takes the keyed walk for this group and radius."""
    keyed = getattr(group.multiply, "keyed", None)
    return keyed is not None and keyed(group.identity, group.generator_elements(), radius) is not None


def python_ints(elements):
    return all(type(x) is int for e in elements for x in e)


class TestKeyedBFS:
    @SETTINGS
    @given(keyed_groups(), st.integers(0, 4))
    def test_matches_one_product_at_a_time(self, group, radius):
        assert walks_keys(group, radius)
        got = _bfs(group, radius)
        same_bfs(got, reference_bfs(group, radius))
        assert python_ints(got[0])
        for keep in range(radius + 2):
            kept = _bfs(group, radius, keep=keep)[0]
            assert kept == [e for e, n in zip(got[0], got[1]) if n <= keep] and python_ints(kept)

    @SETTINGS
    @given(keyed_groups(), st.integers(0, 2))
    def test_ball_matches_the_reference_bit_for_bit(self, group, radius):
        ball = cayley_ball(group, radius)
        elements, labels, matrix = reference_ball(group, radius)
        assert ball.elements == elements and python_ints(ball.elements)
        assert ball.space.labels == labels
        assert ball.space.matrix.dtype == matrix.dtype
        assert ball.space.matrix.tobytes() == matrix.tobytes()

    @pytest.mark.parametrize("group", [
        dataclasses.replace(free_group(2), generators=(("w", (1,) * 14), ("w~", (-1,) * 14),
                                                       ("b", (2,)), ("b~", (-2,)))),
        dataclasses.replace(free_abelian_group(3), generators=(("big", (2**61, 0, 1)), ("big~", (-2**61, 0, -1)))),
        dataclasses.replace(heisenberg_group(), generators=(("x", (2**20, 0, 0)), ("x~", (-2**20, 0, 0)),
                                                            ("y", (0, 2**20, 0)), ("y~", (0, -2**20, 0)))),
    ], ids=["free2-long-word", "zn3-huge-step", "heisenberg-huge-steps"])
    def test_keys_that_would_overflow_take_the_tuple_loop(self, group):
        radius = 2
        assert not walks_keys(group, 2 * radius) and walks_keys(group, 0)
        with mock.patch.object(groups, "_keyed_levels", side_effect=AssertionError("keyed walk")):
            same_bfs(_bfs(group, 2 * radius), reference_bfs(group, 2 * radius))
            ball = cayley_ball(group, radius)
        elements, labels, matrix = reference_ball(group, radius)
        assert ball.elements == elements and ball.space.matrix.tobytes() == matrix.tobytes()

    @pytest.mark.parametrize("group", [
        dataclasses.replace(free_abelian_group(2), identity=(0, 0, 0)),  # three coordinates
        dataclasses.replace(free_group(2), generators=(("c", (3,)), ("c~", (-3,)))),  # a letter beyond the rank
        dataclasses.replace(heisenberg_group(), identity=(0, 0, np.int64(0))),  # not a Python int
    ], ids=["zn2-long-identity", "free2-foreign-letter", "heisenberg-numpy-int"])
    def test_unusual_elements_take_the_tuple_loop(self, group):
        assert not walks_keys(group, 3)
        same_bfs(_bfs(group, 3), reference_bfs(group, 3))

    def test_thin_builtins_keep_the_tuple_loop(self):
        for group in (free_group(1), free_abelian_group(1), cyclic_group(5)):
            assert not hasattr(group.multiply, "keyed")
        assert all(walks_keys(make(), 3) for make in KEYED_MODELS.values())

    def test_replaced_multiply_takes_the_tuple_loop(self):
        group = free_group(2)
        plain = dataclasses.replace(group, multiply=lambda a, b: group.multiply(a, b))
        with mock.patch.object(groups, "_keyed_levels", side_effect=AssertionError("keyed walk")):
            same_bfs(_bfs(plain, 3), reference_bfs(group, 3))


# ---------------------------------------------------------------------------
# the pipelined oracle


# answers "MUL a b" with a + b on integers, or with a when a is not one
ECHO_SCRIPT = textwrap.dedent(
    """
    import sys
    for line in sys.stdin:
        _, a, b = line.split()
        print(int(a) + int(b) if a.lstrip("-").isdigit() else a, flush=True)
    if len(sys.argv) > 1:
        open(sys.argv[1], "w").write("end of input")
    """
)
ONE_SHOT_SCRIPT = textwrap.dedent(
    """
    import sys
    parts = sys.stdin.readline().split()
    print(int(parts[1]) + int(parts[2]), flush=True)
    """
)
SILENT_SCRIPT = textwrap.dedent(
    """
    import sys, time
    sys.stdin.readline()
    time.sleep(60)
    """
)
# counts the MUL lines it answers and writes the count at end of input
COUNTING_SCRIPT = textwrap.dedent(
    """
    import sys
    calls = 0
    for line in sys.stdin:
        _, a, b = line.split()
        print(int(a) + int(b), flush=True)
        calls += 1
    open(sys.argv[1], "w").write(str(calls))
    """
)


def oracle_command(tmp_path, script, *args):
    path = tmp_path / "oracle.py"
    path.write_text(script)
    return [sys.executable, str(path), *args]


class TestPipelinedOracle:
    def test_batch_matches_single_calls(self, tmp_path):
        pairs = [(str(a), str(b)) for a in range(-3, 4) for b in (1, -1, 7)]
        with closing(ExternalGroupOracle(oracle_command(tmp_path, ECHO_SCRIPT))) as oracle:
            batch = oracle.multiply_many(pairs)
            assert batch == [oracle.multiply(a, b) for a, b in pairs]
            assert oracle.multiply_many([]) == []
        assert batch == [str(int(a) + int(b)) for a, b in pairs]

    def test_long_tokens_do_not_deadlock(self, tmp_path, monkeypatch):
        # each request and each answer overfills a 64 KiB pipe on its own
        monkeypatch.setattr(groups, "ORACLE_TIMEOUT_S", 5.0)
        tokens = [c * (70 * 1024) for c in "abcdefgh"]
        with closing(ExternalGroupOracle(oracle_command(tmp_path, ECHO_SCRIPT))) as oracle:
            assert oracle.multiply_many([(t, "1") for t in tokens]) == tokens
            assert oracle.multiply("2", "3") == "5"
        assert oracle.proc.returncode == 0

    def test_silent_oracle_times_out(self, tmp_path, monkeypatch):
        monkeypatch.setattr(groups, "ORACLE_TIMEOUT_S", 0.2)
        with closing(ExternalGroupOracle(oracle_command(tmp_path, SILENT_SCRIPT))) as oracle:
            with pytest.raises(CapExceeded, match=r"no answer to 'MUL 1 1' within 0.2 s"):
                oracle.multiply_many([("1", "1"), ("2", "2"), ("3", "3")])
        assert oracle.proc.returncode is not None

    def test_closed_stream_is_input_error(self, tmp_path):
        with closing(ExternalGroupOracle(oracle_command(tmp_path, ONE_SHOT_SCRIPT))) as oracle:
            with pytest.raises(InputError, match="closed the stream|is gone"):
                oracle.multiply_many([("1", "1"), ("2", "2"), ("3", "3")])
            with pytest.raises(InputError, match="closed the stream|is gone"):
                oracle.multiply("1", "1")

    def test_closed_oracle_is_input_error(self, tmp_path):
        oracle = ExternalGroupOracle(oracle_command(tmp_path, ECHO_SCRIPT))
        oracle.close()
        with pytest.raises(InputError, match="is gone"):
            oracle.multiply_many([("1", "1")])

    @pytest.mark.parametrize("radius", range(4))
    def test_custom_ball_sends_one_line_per_product(self, tmp_path, radius):
        count = tmp_path / "count"
        doc = {"custom": {"command": oracle_command(tmp_path, COUNTING_SCRIPT, str(count)),
                          "identity": "0", "generators": [["t", "1"], ["t~", "-1"], ["s", "2"], ["s~", "-2"]]}}
        with ExitStack() as stack:
            group = group_from_json(doc, stack)
            assert group.multiply_many is not None
            ball = cayley_ball(group, radius)
        sent = []

        def counting(a, b):
            sent.append((a, b))
            return str(int(a) + int(b))

        local = groups.GroupModel("local", "0", group.generators, counting)
        assert cayley_ball(local, radius).elements == ball.elements
        assert int(count.read_text()) == len(sent)

    def test_builtin_groups_have_no_batch_hook(self):
        assert all(make().multiply_many is None for make in BFS_MODELS.values())
        assert group_from_json({"builtin": "free"}).multiply_many is None


# ---------------------------------------------------------------------------
# triangle checks


def reference_exhaustive(m, tol):
    n = m.shape[0]
    for k in range(n):
        via = m[:, k][:, None] + m[k, :][None, :]
        bad = m > via + tol
        if bad.any():
            i, j = map(int, np.argwhere(bad)[0])
            return (i, j, k, float(m[i, j]), float(m[i, k] + m[k, j]))
    return None


def reference_sampled(m, tol, seed):
    n = m.shape[0]
    rng = np.random.default_rng(seed)
    chunk = metric_core.SUP_RATIO_BLOCK // 3
    for lo in range(0, metric_core.TRIPLE_SAMPLES, chunk):
        idx = rng.integers(0, n, size=(min(chunk, metric_core.TRIPLE_SAMPLES - lo), 3))
        lhs = m[idx[:, 0], idx[:, 1]]
        rhs = m[idx[:, 0], idx[:, 2]] + m[idx[:, 2], idx[:, 1]]
        bad = lhs > rhs + tol
        if bad.any():
            i, j, k = map(int, idx[int(np.argmax(bad))])
            return (i, j, k, float(m[i, j]), float(m[i, k] + m[k, j]))
    return None


@st.composite
def near_metrics(draw, max_n=14):
    """A metric of points on a line, perturbed in a few entries by amounts
    around the tolerance and by whole units, so some draws violate the
    triangle inequality by a hair and some by a lot."""
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(0, 10, size=n)
    m = np.abs(x[:, None] - x[None, :])
    for _ in range(draw(st.integers(0, 4))):
        i, j = rng.integers(0, n, size=2)
        bump = draw(st.sampled_from([TOL / 2, TOL, 2 * TOL, -TOL, 1e-6, 0.5, 3.0]))
        m[i, j] += bump
        m[j, i] += bump
    np.fill_diagonal(m, 0.0)
    return m


class TestTriangleChecks:
    @SETTINGS
    @given(near_metrics(), st.booleans())
    def test_exhaustive_matches_k_outermost_scan(self, m, fortran):
        if fortran:
            m = np.asfortranarray(m)
        assert _triangle_violation_exhaustive(m, TOL) == reference_exhaustive(m, TOL)

    @SETTINGS
    @given(near_metrics(), st.integers(0, 3), st.booleans())
    def test_sampled_matches_2d_gathers(self, m, seed, fortran):
        if fortran:
            m = np.asfortranarray(m)
            assert m.shape[0] < 2 or not m.flags.c_contiguous
        assert _triangle_violation_sampled(m, TOL, seed) == reference_sampled(m, TOL, seed)

    @SETTINGS
    @given(near_metrics(), st.sampled_from(["exhaustive", "sampled"]), st.booleans())
    def test_reports_equal_on_arrays_and_spaces(self, m, mode, fortran):
        if fortran:
            m = np.asfortranarray(m)
        want = reference_exhaustive(m, TOL) if mode == "exhaustive" else reference_sampled(m, TOL, 0)
        rep = verify_metric_axioms(m, triple_mode=mode)
        if rep.get("axiom") in (None, "triangle"):
            assert rep["witness"] == want
        space = FiniteMetricSpace(m.copy())
        assert verify_metric_axioms(space, triple_mode=mode) == rep

    def test_verdict_cached_on_the_space(self, monkeypatch):
        space = metric_core.grid_space(4, 4)
        first = verify_metric_axioms(space)
        monkeypatch.setattr(metric_core, "_triangle_violation_exhaustive", None)
        assert verify_metric_axioms(space) == first and first["triple_mode"] == "exhaustive"
        with pytest.raises(TypeError):  # a raw array is checked afresh
            verify_metric_axioms(space.matrix)

    def test_cached_witness(self):
        m = np.array([[0, 1, 5], [1, 0, 1], [5, 1, 0]], dtype=float)
        space = FiniteMetricSpace(m)
        want = (0, 2, 1, 5.0, 2.0)
        assert space.triangle_witness == want == reference_exhaustive(m, TOL)
        assert verify_metric_axioms(space)["witness"] == want


# ---------------------------------------------------------------------------
# tree metrics


def reference_shortest_paths(n, lightest):
    """Prim order, then backward and forward passes until one changes
    nothing, whatever the edge count."""
    adj = [{} for _ in range(n)]
    for (i, j), w in lightest.items():
        adj[i].setdefault(w, []).append(j)
        adj[j].setdefault(w, []).append(i)
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
    m = np.full((n, n), np.inf)
    np.fill_diagonal(m, 0.0)
    rows = [(m[s], [(w, np.array(nbrs, dtype=np.intp)) for w, nbrs in adj[s].items()]) for s in order]
    changed = True
    while changed:
        changed = False
        rows.reverse()
        for row, groups_ in rows:
            near = None
            for w, nbrs in groups_:
                best = m[nbrs].min(axis=0) + w
                near = best if near is None else np.minimum(near, best)
            if (near < row).any():
                np.minimum(row, near, out=row)
                changed = True
    if len(set(lightest.values())) > 1:
        m = np.minimum(m, m.T)
    return m


@st.composite
def random_trees(draw, max_n=40):
    n = draw(st.integers(2, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    label = rng.permutation(n)
    weights = draw(st.sampled_from(["float", "one", "few"]))
    edges = []
    for v in range(1, n):
        u = int(rng.integers(0, v))
        w = {"float": float(rng.uniform(0.01, 100)), "one": 0.5,
             "few": float(rng.choice([0.1, 0.3, 1 / 3]))}[weights]
        edges.append((int(label[u]), int(label[v]), w))
    return n, edges


class TestTreeMetric:
    @SETTINGS
    @given(random_trees())
    def test_two_passes_match_the_full_loop(self, tree):
        n, edges = tree
        lightest = {(min(i, j), max(i, j)): w for i, j, w in edges}
        got = build_graph_metric(n, edges).matrix
        assert got.tobytes() == reference_shortest_paths(n, lightest).tobytes()

    def test_deep_path_with_fractional_weights(self):
        rng = np.random.default_rng(3)
        edges = [(i, i + 1, float(w)) for i, w in enumerate(rng.uniform(0.1, 3, size=99))]
        lightest = {(i, j): w for i, j, w in edges}
        got = build_graph_metric(100, edges).matrix
        assert got.tobytes() == reference_shortest_paths(100, lightest).tobytes()
