"""Reconstruction from record sets, and pairwise MRCA brackets."""

import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surftrack.surface.annotation import RecordSet, SurfaceAnnotation
from surftrack.phylo.reconstruct import (
    build_forest,
    estimate_mrca_range,
    rank_intersection,
    stitch_roots,
)
from surftrack.phylo.serialize import export_alife_csv
from surftrack.phylo.tree import PhyloTree, children

from _trees import collapse_unifurcations


def records(pairs, counter):
    return RecordSet(tuple(r for r, _ in pairs), tuple(v for _, v in pairs), counter)


def from_values(values, policy="steady", slots=64, bits=8):
    ann = SurfaceAnnotation(policy, slots, differentia_bits=bits)
    for v in values:
        ann.deposit(v)
    return ann.to_records()


def test_identical_annotations_make_a_cherry():
    shared = from_values([7, 3, 9, 200, 41])
    tree = build_forest([(shared, "A"), (shared, "B")])
    assert tree.n_roots == 1
    assert sorted(leaf.label for leaf in tree.leaves()) == ["A", "B"]
    # lineages agree on every retained rank, so the split can only be
    # pinned to the last shared deposit
    assert tree.origin_time[0] == 4


def test_divergence_splits_at_first_mismatch():
    a = from_values([5, 5, 5, 1, 1])
    b = from_values([5, 5, 5, 2, 2])
    tree = build_forest([(a, "A"), (b, "B")])
    assert tree.n_roots == 1
    assert tree.origin_time[0] == 2  # last rank they agree on
    assert {leaf.origin_time for leaf in tree.leaves()} == {5}


def test_three_way_topology():
    a = from_values([9, 9, 9, 9, 1, 1])
    b = from_values([9, 9, 9, 9, 1, 2])
    c = from_values([9, 9, 3, 3, 3, 3])
    tree = build_forest([(a, "A"), (b, "B"), (c, "C")])
    assert tree.n_roots == 1
    kids = children(tree.parent)
    # C splits off first; A and B stay together one rank longer
    labels_by_child = [sorted(tree.label[x] for x in kids[c]) or [tree.label[c]] for c in kids[0]]
    assert sorted(map(tuple, labels_by_child)) == [("A", "B"), ("C",)]


def test_insertion_order_does_not_matter():
    a = from_values([1, 2, 3, 4])
    b = from_values([1, 2, 9, 9])
    c = from_values([1, 8, 8, 8])
    base = build_forest([(a, "A"), (b, "B"), (c, "C")])
    from surftrack.phylo.serialize import export_newick

    want = export_newick(base)
    for perm in ((b, "B"), (c, "C"), (a, "A")), ((c, "C"), (a, "A"), (b, "B")):
        assert export_newick(build_forest(list(perm))) == want


@settings(max_examples=30)
@given(st.permutations(range(6)))
def test_insertion_order_invariance_randomized(order):
    lineages = []
    for i in range(6):
        # shared prefix of three deposits, then per-lineage suffixes
        lineages.append((from_values([10, 20, 30] + [40 + i] * (i % 3 + 1)), f"L{i}"))
    from surftrack.phylo.serialize import export_newick

    want = export_newick(build_forest(lineages))
    got = export_newick(build_forest([lineages[i] for i in order]))
    assert got == want


def test_rank_zero_mismatch_means_separate_roots():
    a = from_values([1, 5, 5])
    b = from_values([2, 5, 5])
    tree = build_forest([(a, "A"), (b, "B")])
    assert tree.n_roots == 2


def test_stitch_joins_roots_at_origin_zero():
    a = from_values([1, 5])
    b = from_values([2, 5])
    tree = build_forest([(a, "A"), (b, "B")], stitch=True)
    assert tree.n_roots == 1
    assert tree.origin_time[0] == 0


def test_stitch_is_a_noop_on_single_tree():
    shared = from_values([3, 3, 3])
    plain = build_forest([(shared, "A"), (shared, "B")])
    stitched = build_forest([(shared, "A"), (shared, "B")], stitch=True)
    from surftrack.phylo.serialize import export_newick

    assert export_newick(stitched) == export_newick(plain)


def test_a_given_intersection_and_a_later_stitch_match_one_call():
    from surftrack.phylo.serialize import export_newick

    lineages = [(from_values([r, 5, 6 + i % 2]), f"L{i}") for i, r in enumerate([1, 1, 2, 3])]
    tree = build_forest(lineages)
    assert tree.n_roots == 3
    assert export_newick(stitch_roots(tree)) == export_newick(build_forest(lineages, stitch=True))


def test_no_common_ranks_warns_and_degrades():
    young = records([(0, 1)], counter=1)
    old = records([(4, 7), (8, 3)], counter=9)  # early ranks already pruned
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tree = build_forest([(young, "new"), (old, "old")])
    assert tree.n_roots == 2
    assert any("share no retained ranks" in str(w.message) for w in caught)


def test_rank_intersection_keeps_the_ranks_every_input_holds():
    a = records([(0, 1), (2, 5), (4, 7), (8, 3)], counter=9)
    b = records([(2, 6), (8, 3), (16, 1)], counter=17)
    c = records([(8, 0), (2, 2), (4, 4)], counter=9)
    assert rank_intersection([a, b, c]) == ([2, 8], 10 / 3)
    assert rank_intersection([a]) == ([0, 2, 4, 8], 4.0)
    assert rank_intersection([]) == ([], 0.0)
    young = records([(0, 1)], counter=1)
    assert rank_intersection([young, b]) == ([], 2.0)
    assert rank_intersection([young, young, b]) == ([], 5 / 3)


def test_founder_tags_ride_along():
    shared = from_values([1, 2, 3])
    tree = build_forest([(shared, "A", 17), (shared, "B", 17)])
    tags = {leaf.label: leaf.founder_tag for leaf in tree.leaves()}
    assert tags == {"A": 17, "B": 17}


def test_duplicate_labels_rejected():
    shared = from_values([1, 2])
    with pytest.raises(ValueError):
        build_forest([(shared, "A"), (shared, "A")])


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        build_forest([])


def trie_forest(entries):
    """Reference builder: a dict trie over the rows of values at the shared
    ranks, children by value then label, with unifurcations spliced out."""
    ranks, _ = rank_intersection([held for held, _, _ in entries])
    trie = {}
    for held, label, tag in entries:
        node = trie
        for rank in ranks:
            node = node.setdefault(held.mapping()[rank], {})
        node[label] = (float(held.counter), label, tag)
    parent, time, label, tag = [], [], [], []  # in preorder

    def grow(node, depth, up):
        for key in sorted(node):
            child = node[key]
            parent.append(up)
            if isinstance(child, dict):
                time.append(float(ranks[depth]))
                label.append(None)
                tag.append(None)
                grow(child, depth + 1, len(parent) - 1)
            else:
                for column, value in zip((time, label, tag), child):
                    column.append(value)

    grow(trie, 0, -1)
    return collapse_unifurcations(PhyloTree(parent, time, label, tag))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sorted_rows_build_the_collapsed_trie(data):
    ranks = sorted(data.draw(st.sets(st.integers(0, 30), min_size=1, max_size=6)))
    base = data.draw(st.lists(st.integers(0, 2), min_size=len(ranks), max_size=len(ranks)))
    labels = data.draw(
        st.lists(st.text("ab_1", min_size=1, max_size=3), min_size=1, max_size=12, unique=True)
    )
    entries = []
    for label in labels:
        keep = data.draw(st.integers(0, len(ranks)))  # shared prefix; duplicates when whole
        rest = data.draw(st.lists(st.integers(0, 2), min_size=len(ranks), max_size=len(ranks)))
        extra = data.draw(st.sets(st.integers(31, 40), max_size=2))  # ranks not all inputs hold
        pairs = [*zip(ranks, base[:keep] + rest[keep:]), *((rank, 0) for rank in sorted(extra))]
        counter = data.draw(st.integers(41, 45))
        entries.append((records(pairs, counter), label, data.draw(st.sampled_from([None, 3]))))
    assert export_alife_csv(build_forest(entries)) == export_alife_csv(trie_forest(entries))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rank_intersection_matches_a_per_set_reference(data):
    pool = data.draw(
        st.lists(st.sets(st.integers(0, 12), max_size=8).map(sorted), min_size=1, max_size=4)
    )
    shapes = [tuple(ranks) for ranks in pool]  # one shared object per shape
    sets = []
    for _ in range(data.draw(st.integers(1, 10))):
        held = data.draw(st.sampled_from(shapes))
        if data.draw(st.booleans()):
            held = tuple(list(held))  # equal ranks in a distinct tuple
        sets.append(RecordSet(held, (0,) * len(held), 0))
    shared, mean = rank_intersection(sets)
    assert shared == sorted(set.intersection(*(set(s.ranks()) for s in sets)))
    assert mean == sum(len(s.ranks()) for s in sets) / len(sets)


# ---- pairwise divergence bracket ----


def test_mrca_range_basic_bracket():
    a = from_values([5, 5, 1, 1, 1])
    b = from_values([5, 5, 2, 2, 2])
    assert estimate_mrca_range(a, b) == (1, 2)


def test_duplicate_labels_name_the_first_label_that_repeats():
    shared = from_values([1, 2, 3])
    with pytest.raises(ValueError, match=r"^leaf labels must be unique; 'a' repeats$"):
        build_forest([(shared, label) for label in "abba"])


def test_a_late_duplicate_among_many_labels_fails_fast():
    shared = records([(0, 1)], counter=1)
    labels = [f"n{i}" for i in range(100_000)]
    labels[-1] = labels[-2]
    started = time.perf_counter()
    with pytest.raises(ValueError, match=r"'n99998' repeats$"):
        build_forest([(shared, label) for label in labels])
    assert time.perf_counter() - started < 2.0


def test_mrca_range_all_match_is_open_ended():
    shared = from_values([4, 4, 4, 4])
    longer = from_values([4, 4, 4, 4, 9])
    lo, hi = estimate_mrca_range(shared, longer)
    assert lo == 3  # newest rank both retain and agree on
    assert hi == 4  # can't be past the shorter history's end


def test_mrca_range_disjoint_is_none():
    a = from_values([1, 9, 9])
    b = from_values([2, 8, 8])
    assert estimate_mrca_range(a, b) is None


def test_mrca_range_no_overlap_is_none():
    young = records([(0, 1)], counter=1)
    old = records([(4, 7)], counter=9)
    assert estimate_mrca_range(young, old) is None


def test_mrca_range_ignores_matches_after_first_mismatch():
    # rank 2 disagrees, rank 3 happens to collide back to equality;
    # the bracket must still close at rank 2
    a = records([(0, 1), (1, 4), (2, 5), (3, 6)], counter=4)
    b = records([(0, 1), (1, 4), (2, 9), (3, 6)], counter=4)
    assert estimate_mrca_range(a, b) == (1, 2)
