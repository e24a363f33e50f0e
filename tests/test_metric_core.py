import heapq
import json
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsedim import metric_core
from coarsedim.covers import colored_decomposition
from coarsedim.errors import CapExceeded, InputError, MetricAxiomError
from coarsedim.metric_core import (
    MetricMap,
    PointSet,
    build_explicit,
    build_graph_metric,
    cycle_space,
    diameter_of,
    distance_to_set,
    grid_space,
    map_between_spaces,
    map_to_reals,
    measured_lipschitz,
    neighborhood,
    path_space,
    set_distances,
    space_from_json,
    space_to_json,
    verify_metric_axioms,
)


def floyd_warshall(n, edges):
    """Independent shortest-path oracle for graph-metric tests."""
    d = [[math.inf] * n for _ in range(n)]
    for i in range(n):
        d[i][i] = 0.0
    for e in edges:
        i, j, w = (e + (1.0,))[:3] if isinstance(e, tuple) else (e[0], e[1], 1.0)
        d[i][j] = min(d[i][j], w)
        d[j][i] = min(d[j][i], w)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return d


def lightest_pairs(edges):
    """The simple graph of ``(i, j, w)`` edges: no self-loops, the lightest
    weight per pair."""
    lightest = {}
    for i, j, w in edges:
        if i != j:
            pair = (min(i, j), max(i, j))
            lightest[pair] = min(w, lightest.get(pair, w))
    return lightest


def heap_dijkstra(n, edges):
    """Independent Dijkstra from every source over the simple graph, each
    distance summed d(u) + w in path order, then the smaller of the two
    directions, as build_graph_metric keeps it."""
    adj = [[] for _ in range(n)]
    for (i, j), w in lightest_pairs(edges).items():
        adj[i].append((j, w))
        adj[j].append((i, w))
    d = np.full((n, n), math.inf)
    for s in range(n):
        dist = [math.inf] * n
        dist[s] = 0.0
        heap = [(0.0, s)]
        while heap:
            du, u = heapq.heappop(heap)
            if du > dist[u]:
                continue
            for v, w in adj[u]:
                if du + w < dist[v]:
                    dist[v] = du + w
                    heapq.heappush(heap, (dist[v], v))
        d[s] = dist
    return np.minimum(d, d.T)


def scipy_metric(n, edges):
    """scipy's Dijkstra on the simple graph, the smaller of the two
    directions kept."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import dijkstra

    lightest = lightest_pairs(edges)
    rows, cols = zip(*lightest)
    raw = dijkstra(coo_matrix((list(lightest.values()), (rows, cols)), shape=(n, n)), directed=False)
    return np.minimum(raw, raw.T)


def coset_tree():
    """The coset tree of the benchmark's free product of two 4-point
    paths at norm 10, whose edges have length 1/2."""
    from coarsedim.group_spaces.free_products import PointedSpace, free_product_space, free_product_tree

    path4 = PointedSpace(path_space(4), 0)
    return free_product_tree(free_product_space(path4, path4, 10)).space


def erdos_renyi():
    """A connected G(400, 0.03) graph, every edge of length 0.1."""
    rng = np.random.default_rng(5)
    i, j = np.nonzero(np.triu(rng.random((400, 400)) < 0.03, 1))
    return build_graph_metric(400, [(a, b, 0.1) for a, b in zip(i.tolist(), j.tolist())])


def star_and_path(n, seed=3):
    """A star of weight 100 from vertex 0 plus a path of weight 1/2
    through its leaves in random order: BFS order needs hundreds of passes
    on it, Prim order a few."""
    leaves = np.random.default_rng(seed).permutation(np.arange(1, n)).tolist()
    return build_graph_metric(n, [(0, v, 100.0) for v in range(1, n)]
                              + [(a, b, 0.5) for a, b in zip(leaves, leaves[1:])])


def random_weight_grid(rows, cols, seed=4):
    """A grid graph whose edges have random weights in [0.25, 4]."""
    grid = grid_space(rows, cols).edges
    weights = 0.25 + 3.75 * np.random.default_rng(seed).random(len(grid))
    return build_graph_metric(rows * cols, [(i, j, w) for (i, j, _), w in zip(grid, weights.tolist())])


@st.composite
def weighted_multigraphs(draw):
    """A connected multigraph with weights from a fixed fractional set or
    drawn as floats, with parallel edges and self-loops."""
    n = draw(st.integers(2, 14))
    weight = st.sampled_from([0.1, 0.25, 1 / 3, 0.7, 1.0, 2.2, 7.3]) | st.floats(0.05, 20)
    vertex = st.integers(0, n - 1)
    edges = [(draw(st.integers(0, v - 1)), v, draw(weight)) for v in range(1, n)]
    edges += [(i, j, draw(weight)) for i, j in draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))]
    return n, draw(st.permutations(edges))


@st.composite
def equal_weight_multigraphs(draw):
    """A connected multigraph whose lightest edge on every pair has one
    length w, with heavier parallel edges (either orientation) and
    self-loops of any weight."""
    n = draw(st.integers(2, 12))
    w = draw(st.sampled_from([0.1, 0.25, 1 / 3, 0.5, 1.0, 7.3]))
    vertex = st.integers(0, n - 1)
    edges = [(draw(st.integers(0, v - 1)), v, w) for v in range(1, n)]
    edges += [(i, j, w) for i, j in draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))]
    heavier = st.sampled_from([2 * w, w + 1, 50.0])
    for i, j, _ in draw(st.lists(st.sampled_from(edges), max_size=n)):
        edges.append((j, i, draw(heavier)) if draw(st.booleans()) else (i, j, draw(heavier)))
    edges += [(v, v, draw(heavier | st.just(0.01))) for v in draw(st.lists(vertex, max_size=3))]
    return n, draw(st.permutations(edges))


def no_allocation(*args, **kwargs):
    raise AssertionError("an n x n matrix was allocated")


class TestBuildExplicit:
    def test_single_point(self):
        s = build_explicit([[0.0]])
        assert s.n == 1
        assert s.diameter() == 0.0

    def test_two_points(self):
        s = build_explicit([[0, 1], [1, 0]])
        assert s.dist(0, 1) == 1.0

    def test_asymmetric_rejected(self):
        with pytest.raises(MetricAxiomError) as err:
            build_explicit([[0, 1], [2, 0]])
        assert err.value.witness is not None

    def test_triangle_violation_rejected(self):
        with pytest.raises(MetricAxiomError):
            build_explicit([[0, 1, 5], [1, 0, 1], [5, 1, 0]])

    def test_zero_off_diagonal_rejected(self):
        with pytest.raises(MetricAxiomError):
            build_explicit([[0, 0], [0, 0]])

    def test_asymmetry_within_tolerance_is_symmetrized(self):
        # accepted by the axiom check, kept as the smaller entry, so a set
        # distance reads the same whichever side it gathers
        s = build_explicit([[0, 1, 2], [1 + 2**-40, 0, 1], [2, 1, 0]])
        assert np.array_equal(s.matrix, s.matrix.T)
        assert s.dist(1, 0) == 1.0
        assert metric_core.distance_to_set(s, [1])[0] == s.matrix[0, [1]].min()


class TestGraphMetric:
    def test_path(self):
        s = path_space(3)
        assert s.dist(0, 2) == 2.0

    def test_four_cycle_matches_oracle(self):
        edges = [(i, (i + 1) % 4) for i in range(4)]
        s = build_graph_metric(4, edges)
        oracle = floyd_warshall(4, [tuple(e) for e in edges])
        for i in range(4):
            for j in range(4):
                assert s.dist(i, j) == oracle[i][j]
        assert s.dist(0, 2) == 2.0

    def test_weighted_matches_oracle(self):
        edges = [(0, 1, 2.5), (1, 2, 1.0), (0, 2, 5.0), (2, 3, 0.5)]
        s = build_graph_metric(4, edges)
        oracle = floyd_warshall(4, edges)
        assert np.allclose(s.matrix, np.array(oracle))

    def test_disconnected_rejected(self):
        # the message names 0 and the smallest vertex 0 does not reach,
        # for equal weights and for two weights alike
        for n, edges, pair in [(4, [(0, 1), (2, 3)], "0 and 2"), (3, [], "0 and 1"),
                               (4, [(0, 1, 1), (2, 3, 2)], "0 and 2")]:
            with pytest.raises(InputError, match=f"^graph is disconnected: no path between {pair}$"):
                build_graph_metric(n, edges)

    def test_matrix_cap_before_allocation(self, monkeypatch):
        monkeypatch.setattr(metric_core, "MATRIX_CAP", 8)
        with monkeypatch.context() as m:
            m.setattr(metric_core, "_shortest_paths", no_allocation)
            with pytest.raises(CapExceeded, match="graph has 3 vertices; its matrix exceeds cap 8"):
                path_space(3)
        assert path_space(2).dist(0, 1) == 1.0  # 2 x 2 is within the cap

    @pytest.mark.parametrize("build", [lambda: grid_space(5, 5), lambda: grid_space(1, 5),
                                       lambda: path_space(5), lambda: cycle_space(5)],
                             ids=["grid", "one-row-grid", "path", "cycle"])
    def test_matrix_cap_before_edge_list(self, monkeypatch, build):
        # the sizes alone trip the cap: no edge list is built for a graph
        # whose matrix the cap rejects
        monkeypatch.setattr(metric_core, "MATRIX_CAP", 16)
        monkeypatch.setattr(metric_core, "_grid_edges", no_allocation)
        with pytest.raises(CapExceeded, match="vertices; its matrix exceeds cap 16"):
            build()

    @pytest.mark.parametrize("build, message", [
        (lambda: grid_space(0, 3), "rows must be a real number in [1, inf), not 0"),
        (lambda: grid_space(3, -2), "cols must be a real number in [1, inf), not -2"),
        (lambda: grid_space(2.5, 3), "rows 2.5 is not a whole number"),
        (lambda: grid_space(True, 3), "rows True is a bool"),
        (lambda: path_space(0), "vertex count must be a real number in [1, inf), not 0"),
        (lambda: path_space(math.nan), "vertex count nan is not a whole number"),
        (lambda: cycle_space(-4), "vertex count must be a real number in [1, inf), not -4"),
        (lambda: cycle_space(2), "cycle needs at least 3 vertices"),
    ], ids=["zero-rows", "negative-cols", "fractional-rows", "bool-rows", "empty-path", "nan-path",
            "negative-cycle", "short-cycle"])
    def test_bad_size_rejected(self, build, message):
        with pytest.raises(InputError, match=re.escape(message)):
            build()

    @pytest.mark.parametrize("weight", ["2", None, math.nan, math.inf, -math.inf, 0, -1.0])
    def test_bad_weight_rejected(self, weight):
        # a weight that is not a finite positive real is an input error
        # naming its edge
        with pytest.raises(InputError, match=r"^edge \(1, 2, .*\) needs a finite positive real weight$"):
            build_graph_metric(3, [(0, 1, 1.0), (1, 2, weight)])

    @pytest.mark.parametrize("edges, message", [
        ([5, (1, 2)], r"^edge 5 is not a list of 2 or 3 items"),
        ([(0, 1, 1, 7), (1, 2)], r"^edge \(0, 1, 1, 7\) is not a list of 2 or 3 items"),
        ([(0,), (1, 2)], r"^edge \(0,\) is not a list of 2 or 3 items"),
        ([(0, 1, True), (1, 2)], r"^edge \(0, 1, True\) needs a finite positive real weight$"),
        ([[0, 1, np.bool_(True)], [1, 2]], r"^edge \(0, 1, .*True_?\) needs a finite positive real weight$"),
    ], ids=["not-a-list", "four-items", "one-item", "bool-weight", "numpy-bool-weight"])
    def test_malformed_edge_rejected(self, edges, message):
        with pytest.raises(InputError, match=message):
            build_graph_metric(3, edges)
        # a space given its edges directly checks them the same way
        with pytest.raises(InputError, match=message):
            metric_core.FiniteMetricSpace(path_space(3).matrix, edges=edges)

    def test_weights_too_far_apart_rejected(self):
        # fl(1e17 + 1) = 1e17: the weight-1 edge vanishes from path sums
        with pytest.raises(InputError, match="edge weight 1.0 vanishes in path sums up to 1e"):
            build_graph_metric(3, [(0, 1, 1e17), (1, 2, 1.0)])
        assert build_graph_metric(3, [(0, 1, 1e15), (1, 2, 1.0)]).dist(0, 2) == 1e15 + 1

    @pytest.mark.parametrize("n, edges", [
        (3, [(0, 1.5), (1, 2)]),
        (3, [(0, 1), (2.5, 1, 1.0)]),
        (3.5, [(0, 1), (1, 2)]),
        ("3", [(0, 1), (1, 2)]),
    ], ids=["fractional-vertex", "fractional-weighted-vertex", "fractional-n", "string-n"])
    def test_non_integral_index_rejected(self, n, edges):
        # a fractional index is rejected, not truncated to another graph
        with pytest.raises(InputError, match="is not a whole number"):
            build_graph_metric(n, edges)

    @pytest.mark.parametrize("n, edges, message", [
        (2, [(False, True)], "edge \\(False, True\\): vertex False is a bool"),
        (3, [(0, 1), (np.True_, 2)], "vertex np.True_ is a bool"),
        (True, [], "vertex count True is a bool"),
    ], ids=["json-bools", "numpy-bool", "bool-n"])
    def test_bool_index_rejected(self, n, edges, message):
        # True == 1, but a bool is not a vertex index
        with pytest.raises(InputError, match=message):
            build_graph_metric(n, edges)

    def test_numpy_integer_indices_accepted(self):
        s = build_graph_metric(np.int64(3), [(np.int32(0), np.int64(1)), (np.uint8(1), 2)])
        assert np.array_equal(s.matrix, path_space(3).matrix)

    @pytest.mark.parametrize("doc, message", [
        ({"kind": "graph", "n": 3, "edges": 5}, "graph space JSON needs a list 'edges', not 5"),
        ({"kind": "graph", "n": 3}, "graph space JSON needs a list 'edges', not None"),
        ({"kind": "matrix", "n": 2, "matrix": 5}, "matrix space JSON needs a list 'matrix', not 5"),
        ({"kind": "matrix", "n": 2, "matrix": "ab"}, "needs a list 'matrix', not 'ab'"),
        ({"kind": "matrix", "n": 2, "matrix": [[0, 1], [1, 0]], "edges": 5}, "needs a list 'edges' when it has one"),
        ({"kind": "matrix", "n": 2, "matrix": [[0, 1], [1, 0]], "edges": [[0, 2]]}, r"edge \(0, 2\) out of range"),
    ], ids=["int-edges", "no-edges", "int-matrix", "string-matrix", "int-matrix-edges", "matrix-edge-out-of-range"])
    def test_json_shape_errors_are_input_errors(self, doc, message):
        with pytest.raises(InputError, match=message):
            space_from_json(doc)

    def test_whole_float_indices_accepted(self):
        s = build_graph_metric(3.0, [(0.0, 1.0), (1, 2)])
        assert np.array_equal(s.matrix, path_space(3).matrix)
        assert space_to_json(s)["edges"] == [[0, 1, 1.0], [1, 2, 1.0]]

    def test_round_trip_json(self):
        s = grid_space(3, 4)
        doc = space_to_json(s)
        assert doc["kind"] == "graph"
        s2 = space_from_json(doc)
        assert np.array_equal(s.matrix, s2.matrix)

    @pytest.mark.parametrize("edges", [[(0, 1, 1), (0, 1, 1)], [(0, 1, 3), (0, 1, 1)],
                                       [(0, 1, 1), (1, 0, 3)]])
    def test_parallel_edges_keep_lightest_weight(self, edges):
        s = build_graph_metric(2, edges)
        assert s.dist(0, 1) == 1.0
        assert space_to_json(s)["edges"] == [list(map(float, e)) for e in edges]  # as given

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 8).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                           st.integers(1, 12).map(lambda k: k / 4)), max_size=3 * n),
        st.randoms(use_true_random=False),
    )))
    def test_multigraph_equals_lightest_simple_graph(self, case):
        n, extra, rng = case
        path = [(v, v + 1, 1.0) for v in range(n - 1)]  # keeps it connected
        multi = path + extra + [(j, i, w) for i, j, w in extra if rng.random() < 0.5]
        rng.shuffle(multi)
        simple = [(i, j, w) for (i, j), w in lightest_pairs(multi).items()]
        m = build_graph_metric(n, multi).matrix
        assert np.array_equal(m, build_graph_metric(n, simple).matrix)
        assert np.array_equal(m, np.array(floyd_warshall(n, multi)))


    @pytest.mark.parametrize("block", [metric_core.SUP_RATIO_BLOCK, 64, 1])
    def test_fractional_weights_give_an_exactly_symmetric_matrix(self, monkeypatch, block):
        # Dijkstra sums each path from its own source, so d(s, t) and
        # d(t, s) can differ in the last ulp; the metric keeps the smaller
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import dijkstra

        monkeypatch.setattr(metric_core, "SUP_RATIO_BLOCK", block)
        rng = np.random.default_rng(11)
        asymmetric = 0
        for _ in range(20):
            n = int(rng.integers(20, 60))
            weights = {(v, v + 1): 0.25 + 3.75 * rng.random() for v in range(n - 1)}
            for i, j in rng.integers(0, n, size=(2 * n, 2)):
                if i < j:
                    weights[(int(i), int(j))] = 0.25 + 3.75 * rng.random()
            edges = [(i, j, w) for (i, j), w in weights.items()]
            m = build_graph_metric(n, edges).matrix
            assert np.array_equal(m, m.T)
            rows, cols, ws = zip(*edges)
            raw = dijkstra(coo_matrix((ws, (rows, cols)), shape=(n, n)), directed=False)
            asymmetric += not np.array_equal(raw, raw.T)
            assert np.array_equal(m, np.minimum(raw, raw.T))
        assert asymmetric  # the family does hit unequal sums

    @settings(max_examples=100, deadline=None)
    @given(equal_weight_multigraphs())
    def test_equal_weights_match_heap_dijkstra(self, case):
        n, edges = case
        m = build_graph_metric(n, edges).matrix
        assert np.array_equal(m, heap_dijkstra(n, edges))

    @pytest.mark.parametrize("build", [
        lambda: grid_space(31, 31), lambda: grid_space(4, 512), lambda: cycle_space(500), coset_tree, erdos_renyi,
    ], ids=["grid31x31", "grid4x512", "cycle500", "coset-tree", "erdos-renyi"])
    def test_equal_weights_match_scipy_exactly(self, build):
        space = build()
        assert np.array_equal(space.matrix, scipy_metric(space.n, space.edges))

    @settings(max_examples=100, deadline=None)
    @given(weighted_multigraphs())
    def test_weighted_multigraphs_match_scipy_exactly(self, case):
        n, edges = case
        assert np.array_equal(build_graph_metric(n, edges).matrix, scipy_metric(n, edges))

    @pytest.mark.parametrize("build", [lambda: star_and_path(1000), lambda: random_weight_grid(31, 31)],
                             ids=["star-and-path1000", "random-weight-grid31x31"])
    def test_weighted_graphs_match_scipy_exactly(self, build):
        space = build()
        assert np.array_equal(space.matrix, scipy_metric(space.n, space.edges))

    @pytest.mark.parametrize("build", [
        lambda: grid_space(4, 512), lambda: path_space(2600),
        lambda: build_graph_metric(2001, [(0, leaf) for leaf in range(1, 2001)]),
    ], ids=["grid4x512", "path2600", "star2000"])
    def test_hop_counts_allocate_little_beyond_the_output(self, build):
        tracemalloc.start()
        try:
            space = build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * space.matrix.nbytes


TREE_WEIGHTS = (1.0, 0.5, 0.1, 1 / 3)


def random_tree(n, seed, shape="random", w=1.0):
    """A tree on n vertices with one edge weight w, its labels shuffled
    and its edges listed in random order and orientation: "random"
    attaches each vertex to an earlier one, "path", "star" and "broom"
    (a path with a star at its end) are the deep and wide extremes."""
    rng = np.random.default_rng(seed)
    if shape == "random":
        parents = [int(rng.integers(0, v)) for v in range(1, n)]
    elif shape == "path":
        parents = list(range(n - 1))
    elif shape == "star":
        parents = [0] * (n - 1)
    else:
        parents = [max(0, v - 1) if v < n // 2 else n // 2 - 1 for v in range(1, n)]
    label = rng.permutation(n).tolist()
    edges = [(label[p], label[v], w) if rng.integers(2) else (label[v], label[p], w)
             for v, p in enumerate(parents, 1)]
    return [edges[i] for i in rng.permutation(len(edges))]


class TestTreeKernel:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 60), st.integers(0, 2**32 - 1), st.sampled_from(["random", "path", "star", "broom"]),
           st.sampled_from(TREE_WEIGHTS))
    def test_matches_heap_dijkstra(self, n, seed, shape, w):
        edges = random_tree(n, seed, shape, w)
        assert build_graph_metric(n, edges).matrix.tobytes() == heap_dijkstra(n, edges).tobytes()

    @pytest.mark.parametrize("w", TREE_WEIGHTS)
    @pytest.mark.parametrize("n, shape", [(2, "path"), (3, "star"), (200, "random"), (1200, "random"),
                                          (1200, "path"), (1200, "star"), (1200, "broom")])
    def test_matches_scipy(self, n, shape, w):
        edges = random_tree(n, n + len(shape), shape, w)
        assert build_graph_metric(n, edges).matrix.tobytes() == scipy_metric(n, edges).tobytes()

    @pytest.mark.parametrize("edges, kernel", [
        ([(0, 1, 0.5), (1, 2, 0.5), (3, 1, 0.5)], True),
        ([(0, 1), (1, 2), (1, 2, 4.0), (2, 2, 9.0), (2, 3)], True),  # heavier parallel edge, self-loop
        ([(0, 1, 0.5), (1, 2, 0.25), (3, 1, 0.5)], False),  # two weights
        ([(0, 1), (1, 2), (2, 3), (3, 0)], False),  # a cycle
    ], ids=["tree", "tree-with-extra-edges", "two-weights", "cycle"])
    def test_only_single_weight_trees_take_the_kernel(self, edges, kernel):
        with mock.patch.object(metric_core, "_tree_paths", wraps=metric_core._tree_paths) as tree_paths:
            got = build_graph_metric(4, edges).matrix
        assert tree_paths.called == kernel
        assert got.tobytes() == heap_dijkstra(4, [tuple(e) + (1.0,) * (3 - len(e)) for e in edges]).tobytes()

    @pytest.mark.parametrize("n, edges, pair", [
        (5, [(0, 1), (1, 2), (2, 0), (3, 4)], "0 and 3"),
        (4, [(1, 2), (2, 3), (3, 1)], "0 and 1"),
        (6, [(0, 5, 0.5), (5, 2, 0.5), (2, 0, 0.5), (1, 3, 0.5), (3, 4, 0.5)], "0 and 1"),
    ])
    def test_disconnected_message(self, n, edges, pair):
        # n - 1 edges of one weight that are no tree: 0 and the smallest
        # vertex it does not reach, as the relaxation names them
        with pytest.raises(InputError, match=f"^graph is disconnected: no path between {pair}$"):
            build_graph_metric(n, edges)

    def test_vanishing_weight_message(self):
        # fl(1e308 + 1e308) = inf: the same check and message as the relaxation's
        with pytest.raises(InputError, match=r"^edge weight 1e\+308 vanishes in path sums up to inf$"):
            build_graph_metric(3, [(0, 1, 1e308), (1, 2, 1e308)])


class TestBallsAndSets:
    # a closed ball is the neighborhood of a singleton
    def test_ball_radius_zero(self):
        s = path_space(10)
        assert neighborhood(s, [3], 0).indices == (3,)

    def test_ball_on_path(self):
        s = path_space(10)
        assert neighborhood(s, [3], 2).indices == (1, 2, 3, 4, 5)

    @pytest.mark.parametrize("center, message", [
        (-1, "center -1 is outside the space's 5 points"),
        (5, "center 5 is outside the space's 5 points"),
        (2.5, "center 2.5 is not a whole number"),
        (True, "center True is a bool"),
    ])
    def test_ball_center_must_be_a_point(self, center, message):
        with pytest.raises(InputError, match=message):
            neighborhood(path_space(5), [center], 1)

    def test_ball_whole_space(self):
        s = path_space(10)
        assert neighborhood(s, [0], s.diameter()).indices == tuple(range(10))

    @pytest.mark.parametrize("points", [[7], [1, 7, 9], PointSet.of([1, 7, 9])], ids=["one", "list", "point-set"])
    @pytest.mark.parametrize("primitive, what", [
        (lambda s, a: distance_to_set(s, a), "point"),
        (lambda s, a: neighborhood(s, a, 1), "center"),
        (lambda s, a: set_distances(s, [a], [[0]]), "point"),
        (lambda s, a: set_distances(s, [[0]], [a]), "point"),
        (lambda s, a: diameter_of(s, a), "point"),
        (lambda s, a: colored_decomposition(s, 1, 3, carrier=a), "point"),
    ], ids=["distance_to_set", "neighborhood", "set_distances-a", "set_distances-b", "diameter_of",
            "colored_decomposition-carrier"])
    def test_points_outside_the_space_rejected(self, primitive, what, points):
        with pytest.raises(InputError, match=f"^{what} 7 is outside the space's 5 points$"):
            primitive(path_space(5), points)

    def test_set_distance_overlap(self):
        s = path_space(6)
        assert set_distances(s, [[0, 1, 2]], [[2, 3]])[0, 0] == 0.0

    def test_set_distance_gap(self):
        s = path_space(10)
        assert set_distances(s, [[0, 1]], [[4, 5]])[0, 0] == 3.0

    def test_set_distance_singletons(self):
        s = path_space(10)
        assert set_distances(s, [[2]], [[7]])[0, 0] == s.dist(2, 7)

    def test_set_distance_empty_rejected(self):
        s = path_space(3)
        with pytest.raises(InputError):
            set_distances(s, [[]], [[0]])

    def test_neighborhood(self):
        s = path_space(10)
        assert neighborhood(s, [4], 0).indices == (4,)
        assert neighborhood(s, [4], 1).indices == (3, 4, 5)
        assert neighborhood(s, [4], 100).indices == tuple(range(10))

    def test_neighborhood_properties(self):
        s = grid_space(4, 4)
        a = PointSet.of([0, 5])
        prev = a
        for r in (0, 1, 2, 3):
            nb = neighborhood(s, a, r)
            assert set(a).issubset(set(nb))
            assert set(prev).issubset(set(nb))
            comp = PointSet.universe(s.n).difference(nb)
            if len(comp):
                assert set_distances(s, [a], [comp])[0, 0] > r
            prev = nb

    def test_diameter_of(self):
        s = path_space(10)
        assert diameter_of(s, [2]) == 0.0
        assert diameter_of(s, [0, 1, 2]) == 2.0


class TestAxiomVerifier:
    def test_sampled_mode_reports_seed(self):
        s = path_space(400)
        rep = verify_metric_axioms(s, seed=7)
        assert rep["ok"]
        assert rep["triple_mode"] == "sampled"
        assert rep["seed"] == 7

    def test_exhaustive_catches_planted_violation(self):
        m = np.array(path_space(50).matrix, copy=True)
        m[10, 40] = m[40, 10] = 100.0
        rep = verify_metric_axioms(m, triple_mode="exhaustive")
        assert not rep["ok"]
        assert rep["axiom"] == "triangle"


class TestLipschitz:
    def test_constant_map_is_zero(self):
        s = path_space(5)
        assert measured_lipschitz(map_between_spaces(s, s, [0] * s.n)) == 0.0

    def test_identity_is_one(self):
        s = path_space(5)
        assert measured_lipschitz(map_between_spaces(s, s, range(s.n))) == 1.0

    def test_doubling_map(self):
        # x -> 2x from {0,1,2} into {0,...,4} with real-line distances
        dom = build_explicit([[abs(i - j) for j in range(3)] for i in range(3)])
        m = map_to_reals(dom, [0.0, 2.0, 4.0])
        assert measured_lipschitz(m) == 2.0

    def test_check_declared(self):
        s = path_space(5)
        good = map_between_spaces(s, s, range(5), declared_lipschitz=1.0)
        assert measured_lipschitz(good) <= good.declared_lipschitz
        bad = map_between_spaces(s, s, [0, 4, 0, 4, 0], declared_lipschitz=1.0)
        assert measured_lipschitz(bad) == 4.0 > bad.declared_lipschitz

    @pytest.mark.parametrize("lam", [True, np.True_, -5, -0.5, math.nan, math.inf, "x", [1]],
                             ids=["bool", "numpy-bool", "negative-int", "negative", "nan", "inf", "string", "list"])
    def test_declared_lipschitz_must_be_a_finite_real_at_least_zero(self, lam):
        s = path_space(3)
        with pytest.raises(InputError, match="declared Lipschitz constant .* is not a finite real >= 0"):
            map_between_spaces(s, s, range(3), lam)
        with pytest.raises(InputError, match="declared Lipschitz constant"):
            map_to_reals(s, [0.0, 1.0, 2.0], lam)

    @pytest.mark.parametrize("lam", [None, 0, 0.0, 2, 1.5, np.float32(3.0), np.int64(4)])
    def test_declared_lipschitz_accepted(self, lam):
        s = path_space(3)
        assert map_between_spaces(s, s, range(3), lam).declared_lipschitz is lam

    @pytest.mark.parametrize("images", [[0, 1.5, 2], [0, "1", 2], [0, 1, 3], [0, True, 2]],
                             ids=["fractional", "string", "outside", "bool"])
    def test_image_must_be_a_codomain_point(self, images):
        s = path_space(3)
        with pytest.raises(InputError, match="image point"):
            map_between_spaces(s, s, images)

    def test_codomain_must_carry_a_metric(self):
        s = path_space(3)
        with pytest.raises(InputError):
            MetricMap(s, (0, 1, 2), "complex")


# ---------------------------------------------------------------------------
# axiom checks in row blocks against the whole-matrix reference


def whole_matrix_axioms(m, triple_mode="auto", seed=0, tol=metric_core.TOL):
    """The axiom checks as whole-matrix passes, each n x n temporary built
    at once and the sampled triples drawn in one call, with a finiteness
    check in front: the reports verify_metric_axioms must reproduce,
    witness included."""
    m = np.asarray(m, float)
    n = m.shape[0]
    report = {"n": n, "ok": True, "witness": None, "seed": seed}
    bad = ~np.isfinite(m)
    if bad.any():
        i, j = map(int, np.argwhere(bad)[0])
        report.update(ok=False, axiom="finite", witness=(i, j, float(m[i, j])))
        return report
    diag = np.abs(np.diag(m))
    if n and diag.max() > tol:
        i = int(np.argmax(diag))
        report.update(ok=False, axiom="zero-diagonal", witness=(i, i, float(m[i, i])))
        return report
    asym = np.abs(m - m.T)
    if n and asym.max() > tol:
        i, j = map(int, np.unravel_index(np.argmax(asym), asym.shape))
        report.update(ok=False, axiom="symmetry", witness=(i, j, float(m[i, j]), float(m[j, i])))
        return report
    off = m + np.eye(n)
    if n and off.min() <= 0:
        i, j = map(int, np.unravel_index(np.argmin(off), off.shape))
        report.update(ok=False, axiom="positivity", witness=(i, j, float(m[i, j])))
        return report
    w = None
    if triple_mode == "exhaustive" or (triple_mode == "auto" and n <= 300):
        report["triple_mode"] = "exhaustive"
        for k in range(n):
            bad = m > m[:, k][:, None] + m[k, :][None, :] + tol
            if bad.any():
                i, j = map(int, np.argwhere(bad)[0])
                w = (i, j, k, float(m[i, j]), float(m[i, k] + m[k, j]))
                break
    else:
        report["triple_mode"] = "sampled"
        report["triples_sampled"] = 200_000
        idx = np.random.default_rng(seed).integers(0, n, size=(200_000, 3))
        bad = m[idx[:, 0], idx[:, 1]] > m[idx[:, 0], idx[:, 2]] + m[idx[:, 2], idx[:, 1]] + tol
        if bad.any():
            i, j, k = map(int, idx[int(np.argmax(bad))])
            w = (i, j, k, float(m[i, j]), float(m[i, k] + m[k, j]))
    if w is not None:
        report.update(ok=False, axiom="triangle", witness=w)
    return report


PLANTS = ("none", "finite", "diagonal", "symmetry", "positivity", "triangle")


def planted(kind, n, seed):
    """An n-point metric |x_i - x_j| + 1 off the diagonal (every triangle
    has slack >= 1) with one violation of the given kind planted; "none"
    plants an asymmetry within tolerance.  Kinds other than "none",
    "finite" and "diagonal" need n >= 2."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 20, size=n).astype(float)
    m = np.abs(x[:, None] - x[None, :]) + (1.0 - np.eye(n))
    i = int(rng.integers(0, n))
    j = (i + 1 + int(rng.integers(0, n - 1))) % n if n > 1 else i

    def pick(values):
        return values[int(rng.integers(len(values)))]

    if kind == "none" and n > 1:
        m[i, j] += 4e-10
    elif kind == "finite":
        m[i, j] = pick([math.nan, math.inf, -math.inf])
        if rng.integers(2):
            m[j, i] = m[i, j]
    elif kind == "diagonal":
        m[i, i] = pick([2e-9, -2e-9, 0.5, -2.0])
    elif kind == "symmetry":
        m[i, j] += pick([2e-9, -2e-9, 0.25, -3.0])
    elif kind == "positivity":
        m[i, j] = m[j, i] = pick([0.0, -0.0, -1e-12, -1.0])
    elif kind == "triangle":
        m[i, j] = m[j, i] = 100.0
    return m


@st.composite
def planted_cases(draw, max_n=24):
    kind = draw(st.sampled_from(PLANTS))
    least = 1 if kind in ("none", "finite", "diagonal") else 2
    return kind, draw(st.integers(least, max_n)), draw(st.integers(0, 2**32 - 1))


def same_report(m, triple_mode="auto", seed=0):
    # json, so that NaN witnesses compare equal
    got = verify_metric_axioms(m, triple_mode=triple_mode, seed=seed)
    want = whole_matrix_axioms(m, triple_mode=triple_mode, seed=seed)
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    return got


class TestAxiomsInRowBlocks:
    @settings(max_examples=80, deadline=None)
    @given(planted_cases(), st.sampled_from(["auto", "sampled"]), st.integers(0, 3))
    def test_reports_match_whole_matrix_checks(self, case, triple_mode, seed):
        same_report(planted(*case), triple_mode, seed)

    @settings(max_examples=80, deadline=None)
    @given(planted_cases())
    def test_many_blocks_match_whole_matrix_checks(self, case):
        with mock.patch.object(metric_core, "SUP_RATIO_BLOCK", 64):
            same_report(planted(*case))

    @pytest.mark.parametrize("kind", ["none", "triangle"])
    def test_many_sample_chunks_match_one_draw(self, kind):
        m = planted(kind, 30, 5)
        with mock.patch.object(metric_core, "SUP_RATIO_BLOCK", 64):
            rep = same_report(m, "sampled", 3)
        assert rep["ok"] == (kind == "none")

    @pytest.mark.parametrize("kind, n", [(k, 1) for k in ("none", "finite", "diagonal")]
                             + [(k, 2) for k in PLANTS])
    def test_one_and_two_points(self, kind, n):
        for seed in range(4):
            same_report(planted(kind, n, seed))

    def test_empty_matrix(self):
        assert same_report(np.zeros((0, 0)))["ok"]

    # 16384 // 200 = 81 and 16384 // 301 = 54 rows per block: the last
    # block is partial; 301 points also take the sampled triangle check
    @pytest.mark.parametrize("kind", PLANTS)
    @pytest.mark.parametrize("n", [200, 301])
    def test_partial_last_block(self, kind, n):
        for seed in range(2):
            rep = same_report(planted(kind, n, seed), seed=seed)
            if kind == "none":
                assert rep["ok"] and rep["triple_mode"] == ("exhaustive" if n <= 300 else "sampled")

    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    @pytest.mark.parametrize("n", [7, 129, 593, 961, 1199, 1200])
    def test_chunked_draws_equal_one_draw(self, n, seed):
        total, chunk = metric_core.TRIPLE_SAMPLES, metric_core.SUP_RATIO_BLOCK // 3
        rng = np.random.default_rng(seed)
        chunks = [rng.integers(0, n, size=(min(chunk, total - lo), 3)) for lo in range(0, total, chunk)]
        one = np.random.default_rng(seed).integers(0, n, size=(total, 3))
        assert np.array_equal(np.concatenate(chunks), one)

    def test_check_allocates_no_square_temporary(self):
        space = grid_space(35, 35)
        tracemalloc.start()
        try:
            rep = verify_metric_axioms(space)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep["ok"] and rep["triple_mode"] == "sampled"
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_direct_construction_rejects_non_finite(self, value):
        # the first bad entry in row-major order, found across row blocks
        m = grid_space(5, 5).matrix.copy()
        m[3, 7] = m[7, 3] = m[9, 2] = value
        with mock.patch.object(metric_core, "SUP_RATIO_BLOCK", 64):
            with pytest.raises(InputError, match=rf"^distance matrix has a non-finite entry at \(3, 7, {value}\)$"):
                metric_core.FiniteMetricSpace(m)

    def test_direct_construction_takes_over_a_float_array(self):
        a = grid_space(3, 3).matrix.copy()
        space = metric_core.FiniteMetricSpace(a)
        assert space.matrix is a and not a.flags.writeable

    def test_a_space_is_not_scanned_again_for_finiteness(self):
        # the constructor rejected every non-finite entry of the frozen matrix
        space = grid_space(6, 6)
        with mock.patch.object(np, "isfinite", wraps=np.isfinite) as scan:
            rep = verify_metric_axioms(space)
        assert scan.call_count == 0 and rep["ok"]
        with mock.patch.object(np, "isfinite", wraps=np.isfinite) as scan:
            assert verify_metric_axioms(np.array(space.matrix)) == rep
        assert scan.call_count > 0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_an_array_keeps_the_finite_witness(self, value):
        m = grid_space(6, 6).matrix.copy()
        m[4, 9] = m[9, 4] = m[20, 1] = value
        with mock.patch.object(metric_core, "SUP_RATIO_BLOCK", 64):
            rep = verify_metric_axioms(m)
        assert (rep["ok"], rep["axiom"]) == (False, "finite")
        i, j, got = rep["witness"]
        assert (i, j) == (4, 9)
        assert got == value or (math.isnan(value) and math.isnan(got))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_distance_rejected(self, value):
        rep = verify_metric_axioms([[0, value], [value, 0]])
        assert not rep["ok"] and rep["axiom"] == "finite"
        with pytest.raises(MetricAxiomError) as err:
            build_explicit([[0, value], [value, 0]])
        assert err.value.witness[:2] == (0, 1)


class TestBuildExplicitInPlace:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 24), st.integers(0, 2**32 - 1), st.booleans())
    def test_min_with_transpose_bit_for_bit(self, n, seed, many_blocks):
        m = planted("none", n, seed)
        m += np.random.default_rng(seed).uniform(-2e-10, 2e-10, size=(n, n))
        given_m = m.copy()
        block = 64 if many_blocks else metric_core.SUP_RATIO_BLOCK
        with mock.patch.object(metric_core, "SUP_RATIO_BLOCK", block):
            space = build_explicit(m)
        assert space.matrix.tobytes() == np.minimum(given_m, given_m.T).tobytes()
        assert m.tobytes() == given_m.tobytes() and m.flags.writeable
        assert space.matrix is not m
