from types import SimpleNamespace

import numpy as np
import pytest

from coarsedim.errors import CapExceeded, InputError, InvariantViolation
from coarsedim.group_spaces import free_products
from coarsedim.group_spaces.free_products import (
    PointedSpace,
    free_product_space,
    free_product_tree,
    tree_projection,
    word_stratification,
)
from coarsedim.metric_core import (
    build_explicit,
    measured_lipschitz,
    path_space,
    verify_metric_axioms,
)


def no_allocation(*args, **kwargs):
    raise AssertionError("an n x n matrix was allocated")


def word_norm(fps, w):
    """Sum of the letters' distances to their factor's basepoint."""
    by_tag = {"x": fps.factors[0], "y": fps.factors[1]}
    return sum(float(by_tag[tag].space.matrix[p, by_tag[tag].basepoint]) for tag, p in w)


def direct_word_distance(fps, u, v):
    """Norms of what is left after the longest common beginning."""
    i = 0
    while i < min(len(u), len(v)) and u[i] == v[i]:
        i += 1
    return word_norm(fps, u[i:]) + word_norm(fps, v[i:])


def pointed_path(n):
    return PointedSpace(path_space(n), 0)


@pytest.fixture(scope="module")
def fps():
    return free_product_space(pointed_path(4), pointed_path(4), max_norm=6)


class TestWordSpace:
    def test_empty_word_present(self, fps):
        assert fps.words[0] == ()
        assert fps.norms[0] == 0.0

    def test_norm_formula(self, fps):
        w = (("x", 2), ("y", 3))
        assert word_norm(fps, w) == 5.0
        assert fps.space.dist(fps.index[()], fps.index[w]) == 5.0

    def test_distance_strips_common_beginning(self, fps):
        z = (("x", 1), ("y", 1))
        z2 = (("x", 1), ("y", 2))
        assert fps.space.dist(fps.index[z], fps.index[z2]) == 3.0  # |y1| + |y2|

    def test_self_distance_zero(self, fps):
        for w in fps.words[:10]:
            assert fps.space.dist(fps.index[w], fps.index[w]) == 0.0

    def test_matrix_matches_direct_formula(self, fps):
        # trie-built matrix vs the direct common-prefix evaluation
        import itertools

        for u, v in itertools.islice(itertools.combinations(fps.words, 2), 500):
            assert fps.space.dist(fps.index[u], fps.index[v]) == direct_word_distance(fps, u, v)

    def test_metric_axioms(self, fps):
        report = verify_metric_axioms(fps.space, triple_mode="exhaustive")
        assert report["ok"]

    def test_letters_alternate(self, fps):
        for w in fps.words:
            for a, b in zip(w, w[1:]):
                assert a[0] != b[0]

    def test_matrix_cap_before_allocation(self, monkeypatch):
        x = pointed_path(4)
        monkeypatch.setattr(free_products, "MATRIX_CAP", 8)
        with monkeypatch.context() as m:
            m.setattr(np, "zeros", no_allocation)
            with pytest.raises(CapExceeded, match="has more than 2 words; its matrix exceeds cap 8"):
                free_product_space(x, x, max_norm=1)  # e, x1, y1
        assert free_product_space(x, x, max_norm=0).space.n == 1

    def test_min_letter_norm_enforced(self):
        half = build_explicit([[0, 0.5], [0.5, 0]])
        with pytest.raises(InputError):
            free_product_space(PointedSpace(half, 0), pointed_path(2), max_norm=2)


class TestTree:
    def test_two_point_factors(self):
        fps = free_product_space(pointed_path(2), pointed_path(2), max_norm=2)
        tree = free_product_tree(fps)
        assert len(tree.edges) == len(tree.vertices) - 1

    def test_root_edge_only_for_trivial_truncation(self):
        fps = free_product_space(pointed_path(2), pointed_path(2), max_norm=0)
        tree = free_product_tree(fps)
        assert len(tree.vertices) == 2
        assert len(tree.edges) == 1

    def test_connected_and_acyclic(self, fps):
        tree = free_product_tree(fps)  # build_graph_metric rejects disconnected
        assert len(tree.edges) == len(tree.vertices) - 1

    def test_projection_one_lipschitz(self, fps):
        proj = tree_projection(fps, free_product_tree(fps))
        assert measured_lipschitz(proj) <= 1.0

    def test_projection_common_beginning_bound(self, fps):
        # coset distance never exceeds the leftover letter counts after the
        # common beginning, and the bound is attained
        tree = free_product_tree(fps)
        proj = tree_projection(fps, tree)
        tight = 0
        for u in fps.words:
            for v in fps.words:
                i = 0
                while i < min(len(u), len(v)) and u[i] == v[i]:
                    i += 1
                bound = len(u[i:]) + len(v[i:])
                du = tree.space.dist(proj.images[fps.index[u]], proj.images[fps.index[v]])
                assert du <= bound + 1e-9
                if u != v and du == bound:
                    tight += 1
        assert tight > 0


class TestStratification:
    def test_strata(self, fps):
        strata = word_stratification(fps)
        assert strata[0]["P"] == [()]
        assert all(len(w) == 1 for w in strata[1]["P"])
        for w in strata[2]["PX"]:
            assert w[-1][0] == "x" and w[0][0] == "y"

    def test_counts(self, fps):
        strata = word_stratification(fps)
        total = sum(len(v["P"]) for v in strata.values())
        assert total == len(fps.words)


def stratification_one_set_per_word(fps):
    """word_stratification as it was, building the prefix set of stratum k
    anew for every word of stratum k + 1: the reference for the strata and
    the witness."""
    strata = {}
    for w in fps.words:
        k = len(w)
        entry = strata.setdefault(k, {"P": [], "PX": [], "PY": []})
        entry["P"].append(w)
        if w:
            entry["P" + w[-1][0].upper()].append(w)
    max_k = max(strata)
    for k in range(1, max_k):
        upper = strata.get(k + 1, {"PX": [], "PY": []})
        for w in upper["PX"]:
            if w[:-1] not in set(strata[k]["PY"]):
                raise InvariantViolation(f"stratification inclusion fails at k={k}", witness=w)
        for w in upper["PY"]:
            if w[:-1] not in set(strata[k]["PX"]):
                raise InvariantViolation(f"stratification inclusion fails at k={k}", witness=w)
    return strata


def path_product_words(max_norm):
    """The words of the free product of two 4-point paths based at 0 with
    norm <= max_norm, in breadth-first order: letter (tag, p) has norm p."""
    words = [()]
    for w in words:
        norm = sum(p for _, p in w)
        for tag in "xy":
            if not w or w[-1][0] != tag:
                words += [w + ((tag, p),) for p in (1, 2, 3) if norm + p <= max_norm]
    return words


class TestStratificationSets:
    def test_word_list_is_the_truncation(self, fps):
        assert sorted(path_product_words(6)) == sorted(fps.words)

    @pytest.mark.parametrize("max_norm, count", [(10, 1199), (12, 4061)])
    def test_matches_one_set_per_word(self, max_norm, count):
        words = path_product_words(max_norm)
        assert len(words) == count
        truncation = SimpleNamespace(words=words)
        assert word_stratification(truncation) == stratification_one_set_per_word(truncation)
        prefixes = {w[:-1] for w in words}
        for k in (1, 2, 4, 6):
            # drop the first X-ending or the last Y-ending word of length k
            # that is a prefix, or every 7th word from the k-th on
            first_x = next(w for w in words if len(w) == k and w[-1][0] == "x" and w in prefixes)
            last_y = [w for w in words if len(w) == k and w[-1][0] == "y" and w in prefixes][-1]
            for dropped in ({first_x}, {last_y}, set(words[k::7])):
                broken = SimpleNamespace(words=[w for w in words if w not in dropped])
                with pytest.raises(InvariantViolation) as got:
                    word_stratification(broken)
                with pytest.raises(InvariantViolation) as want:
                    stratification_one_set_per_word(broken)
                assert (str(got.value), got.value.witness) == (str(want.value), want.value.witness)
