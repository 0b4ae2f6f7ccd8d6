"""Triplet agreement scoring between a reference tree and a reconstruction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surftrack.phylo.tree import PhyloTree
from surftrack.phylo.triplets import TripletScore, sampled_triplet_error

from _trees import balanced, build, caterpillar, cherry, forest, leaf, random_tree


def rooted(*shape) -> PhyloTree:
    """Build a tree from nested label tuples, e.g. rooted(("A", "B"), "C")."""
    nodes = []

    def grow(spec, depth, up):
        if isinstance(spec, str):
            nodes.append((up, float(depth + 1), spec))
            return
        nodes.append((up, float(depth), None))
        here = len(nodes) - 1
        for sub in spec:
            grow(sub, depth + 1, here)

    grow(shape, 0, -1)
    return build(*nodes)


def test_tree_agrees_with_itself():
    t = rooted(("A", "B"), "C")
    score = sampled_triplet_error(t, t, n_triplets=50)
    assert score == TripletScore(correct=50, wrong=0, unsure=0)
    assert score.error == 0.0
    assert score.total == 50


def test_conflicting_resolution_is_wrong():
    ref = rooted(("A", "B"), "C")
    rec = rooted(("A", "C"), "B")
    score = sampled_triplet_error(ref, rec, n_triplets=40)
    assert score.wrong == 40
    assert score.error == 1.0


def test_opposite_four_leaf_pairings_disagree_everywhere():
    ref = rooted(("A", "B"), ("C", "D"))
    rec = rooted(("A", "C"), ("B", "D"))
    score = sampled_triplet_error(ref, rec, n_triplets=200)
    assert score.wrong == 200


def test_partial_agreement_lands_strictly_between():
    ref = rooted(("A", "B"), ("C", "D"))
    rec = rooted((("A", "B"), "C"), "D")
    score = sampled_triplet_error(ref, rec, n_triplets=400)
    # triples inside {A,B,X} agree, those pitting C against D do not
    assert 0 < score.wrong < 400
    assert score.unsure == 0
    assert score.correct + score.wrong == 400


def test_star_reconstruction_counts_as_unsure():
    ref = rooted(("A", "B"), "C")
    rec = rooted("A", "B", "C")
    score = sampled_triplet_error(ref, rec, n_triplets=30)
    assert score == TripletScore(correct=0, wrong=0, unsure=30)
    assert score.error == 0.0


def test_order_of_arguments_sets_who_is_judged():
    """A polytomy is only penalized (as unsure) on the reconstruction side."""
    star = rooted("A", "B", "C")
    resolved = rooted(("A", "B"), "C")
    forgiving = sampled_triplet_error(star, resolved, n_triplets=30)
    assert forgiving == TripletScore(correct=30, wrong=0, unsure=0)
    strict = sampled_triplet_error(resolved, star, n_triplets=30)
    assert strict == TripletScore(correct=0, wrong=0, unsure=30)


def test_forest_roots_act_as_outgroups():
    ref = forest(cherry(split=0.0, tips=1.0), leaf(0.0, "C"))

    agree = sampled_triplet_error(ref, rooted(("A", "B"), "C"), n_triplets=20)
    assert agree.wrong == 0 and agree.correct == 20

    clash = sampled_triplet_error(ref, rooted(("A", "C"), "B"), n_triplets=20)
    assert clash.wrong == 20


def test_leaf_label_sets_must_match():
    ref = rooted(("A", "B"), "C")
    rec = rooted(("A", "B"), "D")
    with pytest.raises(ValueError, match="differ"):
        sampled_triplet_error(ref, rec)


def test_needs_three_leaves():
    two = rooted("A", "B")
    with pytest.raises(ValueError, match="at least 3"):
        sampled_triplet_error(two, two)


def test_unlabeled_leaf_rejected():
    t = rooted(("A", "B"), "C")
    t.label[t.label.index("C")] = None
    with pytest.raises(ValueError, match="labeled"):
        sampled_triplet_error(t, t)


def test_duplicate_label_rejected():
    t = rooted(("A", "B"), "A")
    with pytest.raises(ValueError, match="duplicate"):
        sampled_triplet_error(t, t)


def test_same_seed_same_score():
    ref = caterpillar(8)
    rec = balanced(3)
    a = sampled_triplet_error(ref, rec, n_triplets=300, seed=7)
    b = sampled_triplet_error(ref, rec, n_triplets=300, seed=7)
    assert a == b
    assert a.total == 300


def test_zero_total_error_is_zero():
    assert TripletScore(0, 0, 0).error == 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_random_tree_scores_clean_against_itself(seed):
    t = random_tree(seed, max_leaves=24)
    if sum(1 for _ in t.leaves()) < 3:
        return
    score = sampled_triplet_error(t, t, n_triplets=120, seed=seed)
    assert score.wrong == 0
    assert score.unsure == 0
