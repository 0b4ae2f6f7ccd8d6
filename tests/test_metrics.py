"""Phylometrics against brute-force references and frozen known values."""

import math
import random
import statistics
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surftrack.phylo import metrics as M
from surftrack.phylo.serialize import parse_newick
from _trees import balanced, build, caterpillar, cherry, forest, random_tree


# ---- independent references, deliberately dumb ----


def _bfs_pairwise_distances(tree):
    """Edge-count distance between all leaf pairs via per-leaf BFS."""
    adjacency = {}
    for child, parent in enumerate(tree.parent):
        if parent >= 0:
            adjacency.setdefault(parent, []).append(child)
            adjacency.setdefault(child, []).append(parent)
    has_children = set(tree.parent)
    leaves = [i for i in range(len(tree.parent)) if i not in has_children]
    out = []
    for i, a in enumerate(leaves):
        dist = {a: 0}
        q = deque([a])
        while q:
            x = q.popleft()
            for y in adjacency.get(x, []):
                if y not in dist:
                    dist[y] = dist[x] + 1
                    q.append(y)
        for b in leaves[i + 1 :]:
            out.append(dist[b])
    return out


def _recursive_colless(tree):
    """Same math as the library, different shape: plain recursion, no numpy."""
    kids = {}
    for child, parent in enumerate(tree.parent):
        kids.setdefault(parent, []).append(child)

    def visit(node):
        below = kids.get(node, [])
        own = math.log(len(below) + math.e)
        if not below:
            return own, 0.0
        sizes, total = [], 0.0
        for c in below:
            s, t = visit(c)
            sizes.append(s)
            total += t
        med = statistics.median(sizes)
        total += sum(abs(s - med) for s in sizes) / len(sizes)
        return own + sum(sizes), total

    return sum(visit(r)[1] for r in kids.get(-1, []))


def test_sum_branch_length_cherry():
    assert M.sum_branch_length(cherry(split=0, tips=10)) == 20.0


def test_sum_branch_length_counts_root_stem_as_zero():
    t = cherry(split=5.0, tips=9.0)
    # two edges of length 4; the root itself hangs from nothing
    assert M.sum_branch_length(t) == 8.0


def test_sum_branch_length_forest_adds_up():
    assert M.sum_branch_length(forest(cherry(), cherry("C", "D"))) == 40.0


def test_pairwise_distance_cherry():
    assert M.sum_pairwise_distance(cherry()) == 2.0
    assert M.mean_pairwise_distance(cherry()) == 2.0


def test_pairwise_distance_requires_single_root():
    with pytest.raises(ValueError):
        M.sum_pairwise_distance(forest(cherry(), cherry("C", "D")))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_pairwise_distances_match_bfs(seed):
    tree = random_tree(seed, max_leaves=24)
    brute = _bfs_pairwise_distances(tree)
    assert M.sum_pairwise_distance(tree) == pytest.approx(sum(brute))
    assert M.mean_pairwise_distance(tree) == pytest.approx(
        sum(brute) / len(brute) if brute else 0.0
    )


def test_colless_balanced_tree_is_zero():
    assert M.colless_like_index(balanced(3)) == 0.0


def test_colless_frozen_values():
    assert M.colless_like_index(caterpillar(8)) == pytest.approx(
        26.790169496286538, rel=1e-12
    )
    assert M.colless_like_index(caterpillar(8)) > M.colless_like_index(balanced(3))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_colless_matches_recursive_reference(seed):
    tree = random_tree(seed, max_leaves=20)
    assert M.colless_like_index(tree) == pytest.approx(_recursive_colless(tree))


def test_evolutionary_distinctness_cherry_split():
    ed = M.evolutionary_distinctness(cherry(split=0, tips=10))
    assert ed == {"A": 10.0, "B": 10.0}


def test_ed_divides_shared_stem():
    # ((A:5,B:5):5) style: stem length 5 shared by two leaves
    tree = build((-1, 0.0, None), (0, 5.0, None), (1, 10.0, "A"), (1, 10.0, "B"))
    ed = M.evolutionary_distinctness(tree)
    assert ed["A"] == 5.0 + 2.5
    assert ed["B"] == 7.5


def test_med_averages_over_every_leaf_when_labels_repeat():
    # leaves A, B, A score 3, 3 and 5
    tree = parse_newick("((A:1,B:1):4,A:5);")
    assert M.mean_evolutionary_distinctness(tree) == 11 / 3


def test_ed_rejects_repeated_labels():
    with pytest.raises(ValueError, match="duplicate leaf label 'A'"):
        M.evolutionary_distinctness(parse_newick("((A:1,B:1):4,A:5);"))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.booleans())
def test_ed_sums_to_total_branch_length(seed, forest):
    tree = random_tree(seed, max_leaves=30, forest=forest)
    ed = M.evolutionary_distinctness(tree)
    assert sum(ed.values()) == pytest.approx(M.sum_branch_length(tree), rel=1e-9)
    assert M.mean_evolutionary_distinctness(tree) == pytest.approx(
        sum(ed.values()) / len(ed)
    )


# ---- effect size ----


def test_cliffs_delta_known_values():
    assert M.cliffs_delta([1, 2, 3], [1, 2, 3]) == 0.0
    assert M.cliffs_delta([2, 2], [1, 1]) == 1.0
    assert M.cliffs_delta([1, 1], [2, 2]) == -1.0
    assert M.cliffs_delta([1, 2], [1, 2]) == 0.0
    assert M.cliffs_delta([0, 0, 2], [1, 1, 1]) == pytest.approx(-1.0 / 3.0)


def test_cliffs_delta_rejects_empty():
    with pytest.raises(ValueError):
        M.cliffs_delta([], [1])


@settings(max_examples=50)
@given(
    st.lists(st.integers(-50, 50), min_size=1, max_size=30),
    st.lists(st.integers(-50, 50), min_size=1, max_size=30),
)
def test_cliffs_delta_antisymmetric(xs, ys):
    assert M.cliffs_delta(xs, ys) == pytest.approx(-M.cliffs_delta(ys, xs))


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=30))
def test_cliffs_delta_self_is_zero(xs):
    assert M.cliffs_delta(xs, xs) == pytest.approx(0.0)


def test_classify_effect_thresholds():
    assert M.classify_effect(0.10) == "negligible"
    assert M.classify_effect(0.147) == "small"
    assert M.classify_effect(-0.2) == "small"
    assert M.classify_effect(0.33) == "medium"
    assert M.classify_effect(-0.474) == "large"
    assert M.classify_effect(1.0) == "large"


def test_metric_registry_names():
    assert set(M.METRICS) == {"sbl", "spd", "mpd", "colless", "med"}
    tree = cherry()
    for fn in M.METRICS.values():
        assert isinstance(fn(tree), float)


# ---- sanity on simulated shapes ----


def test_unbalanced_beats_balanced_for_random_sizes():
    rng = random.Random(7)
    for _ in range(5):
        depth = rng.randint(2, 5)
        assert M.colless_like_index(caterpillar(1 << depth)) > M.colless_like_index(
            balanced(depth)
        )
