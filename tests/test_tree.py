"""The preorder column layout: building it from any node order, and
the invariant ``validate`` checks."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surftrack.phylo.metrics import evolutionary_distinctness
from surftrack.phylo.serialize import export_newick, parse_newick
from surftrack.phylo.tree import CycleError, PhyloTree, children
from surftrack.phylo.triplets import sampled_triplet_error

from _trees import cherry, random_tree


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.booleans(), st.integers(0, 2**32 - 1))
def test_from_parents_lays_any_sibling_preserving_order_out_in_preorder(seed, forest, shuffle):
    tree = random_tree(seed, max_leaves=30, forest=forest)
    tree.founder_tag = list(range(len(tree.parent)))
    # A random order of the nodes in which each sibling group, the roots
    # included, keeps its order: shuffle the slots, then hand each group
    # its own slots back in ascending order.
    slot = list(range(len(tree.parent)))
    random.Random(shuffle).shuffle(slot)
    for group in children(tree.parent):
        for node, place in zip(group, sorted(slot[x] for x in group)):
            slot[node] = place
    moved = [0] * len(tree.parent)
    for node, place in enumerate(slot):
        moved[place] = node
    again = PhyloTree.from_parents(
        [slot[tree.parent[x]] if tree.parent[x] >= 0 else -1 for x in moved],
        [tree.origin_time[x] for x in moved],
        [tree.label[x] for x in moved],
        [tree.founder_tag[x] for x in moved],
    )
    assert again == tree
    assert export_newick(again) == export_newick(tree)
    again.validate()


def test_from_parents_rejects_a_cycle():
    with pytest.raises(ValueError, match="cycle"):
        PhyloTree.from_parents([-1, 2, 1], [0.0] * 3, [None] * 3, [None] * 3)


def test_a_cycle_error_names_the_first_node_no_root_reaches():
    # node 1 hangs below the cycle 2 <-> 3
    with pytest.raises(CycleError) as err:
        PhyloTree.from_parents([-1, 2, 3, 2], [0.0] * 4, [None] * 4, [None] * 4)
    assert err.value.node == 1


def test_leaf_index_maps_each_label_to_its_position():
    tree = parse_newick("((A:1,B:1):4,C:5);")
    assert tree.leaf_index() == {"A": 2, "B": 3, "C": 4}


@pytest.mark.parametrize(
    "newick, message",
    [
        ("((A:1,:1):4,C:5);", "leaf 3 is unlabeled"),
        ("((A:1,B:1):4,A:5);", "duplicate leaf label 'A'"),
    ],
    ids=["unlabeled", "repeated"],
)
@pytest.mark.parametrize(
    "use",
    [evolutionary_distinctness, lambda tree: sampled_triplet_error(tree, tree)],
    ids=["distinctness", "triplets"],
)
def test_leaf_label_checks_reject_through_every_caller(newick, message, use):
    with pytest.raises(ValueError, match=message):
        use(parse_newick(newick))


@pytest.mark.parametrize(
    "parent,fragment",
    [
        ([0, 0, 0], "node 0: parent 0 breaks the preorder layout"),
        ([-1, 2, 0], "node 1: parent 2 breaks the preorder layout"),
        ([-1, 0, -1, 1], "node 3: parent 1 breaks the preorder layout"),
        ([-1, 0, 0, 1], "node 3: parent 1 breaks the preorder layout"),
    ],
)
def test_validate_rejects_columns_out_of_preorder(parent, fragment):
    tree = PhyloTree(parent, [0.0] * len(parent), [None] * len(parent), [None] * len(parent))
    with pytest.raises(ValueError, match=fragment):
        tree.validate()


def test_validate_rejects_a_child_before_its_parent():
    tree = cherry(split=5.0, tips=9.0)
    tree.validate()
    tree.origin_time[2] = 4.0
    with pytest.raises(ValueError, match="node 2: origin 4.0 precedes parent origin 5.0"):
        tree.validate()
