"""Summary statistics over phylogenies, plus effect-size helpers.

Conventions:

* Branch lengths are origin-time deltas; pairwise leaf distances count
  edges (topology), which keeps them meaningful when reconstruction
  compresses long unifurcated stretches into single edges.
* ``sum_branch_length``, ``mean_evolutionary_distinctness``, and the
  Colless-like imbalance are well defined on forests.  Pairwise
  distances need every leaf pair connected and refuse multi-root input.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Sequence

import numpy as np

from .tree import PhyloTree, children, depths


def sum_branch_length(tree: PhyloTree) -> float:
    """Total origin-time delta across all edges; 0 for a lone leaf."""
    time = tree.origin_time
    return float(sum(t - time[p] for t, p in zip(time, tree.parent) if p >= 0))


def _pairwise_totals(tree: PhyloTree) -> tuple[float, int]:
    if tree.n_roots != 1:
        raise ValueError(
            "pairwise distances need a single root; stitch the forest first"
        )
    parents = tree.parent
    depth = depths(parents)
    leaves_below = [0] * len(parents)
    kid_pairs = [0] * len(parents)  # leaf pairs that meet below each node
    total_depth = 0
    n_leaves = 0
    lca_sum = 0
    for i in reversed(range(len(parents))):
        if not leaves_below[i]:  # a leaf: every child adds at least one
            mine = 1
            total_depth += depth[i]
            n_leaves += 1
        else:
            mine = leaves_below[i]
            # Pairs of leaves whose paths meet exactly here.
            lca_sum += depth[i] * (mine * (mine - 1) // 2 - kid_pairs[i])
        up = parents[i]
        if up >= 0:
            leaves_below[up] += mine
            kid_pairs[up] += mine * (mine - 1) // 2
    if n_leaves < 2:
        return 0.0, n_leaves
    total = (n_leaves - 1) * total_depth - 2.0 * lca_sum
    return total, n_leaves


def sum_pairwise_distance(tree: PhyloTree) -> float:
    """Sum of edge-count distances over all unordered leaf pairs."""
    total, _ = _pairwise_totals(tree)
    return total


def mean_pairwise_distance(tree: PhyloTree) -> float:
    """Mean edge-count distance over all unordered leaf pairs."""
    total, n = _pairwise_totals(tree)
    if n < 2:
        raise ValueError(f"mean pairwise distance needs >= 2 leaves, have {n}")
    return total / (n * (n - 1) / 2)


def colless_like_index(tree: PhyloTree) -> float:
    """Imbalance for multifurcating trees.

    Every node gets weight ln(out_degree + e); a subtree's size is the
    sum of its nodes' weights; each internal node contributes the mean
    absolute deviation of its children's subtree sizes from their
    median.  Caterpillars maximize this, balanced trees minimize it.
    """
    kids = children(tree.parent)
    # Visit children before parents, roots last to first, each tree's
    # children left to right: the float sums depend on this order.
    order: list[int] = []
    stack = kids[-1][::-1]
    while stack:
        i = stack.pop()
        order.append(i)
        stack.extend(kids[i])
    total = 0.0
    fsize = [0.0] * len(tree.parent)
    for i in reversed(order):
        w = math.log(len(kids[i]) + math.e)
        fsize[i] = w + sum(fsize[c] for c in kids[i])
        if kids[i]:
            sizes = np.array([fsize[c] for c in kids[i]])
            total += float(np.abs(sizes - np.median(sizes)).mean())
    return total


def _distinctness(tree: PhyloTree) -> tuple[list[int], list[float]]:
    """Leaf positions in the order the float mean sums them (roots first
    to last, each tree's leaves last to first), and every node's
    fair-proportion score."""
    parent, time = tree.parent, tree.origin_time
    leaves_below = [0] * len(parent)
    for i in reversed(range(len(parent))):
        leaves_below[i] = leaves_below[i] or 1
        if parent[i] >= 0:
            leaves_below[parent[i]] += leaves_below[i]
    score = [0.0] * len(parent)
    for i, p in enumerate(parent):
        if p >= 0:
            score[i] = score[p] + (time[i] - time[p]) / leaves_below[i]
    roots = [i for i, p in enumerate(parent) if p < 0]
    order = sorted(tree.leaf_positions(), key=lambda i: (bisect_right(roots, i), -i))
    return order, score


def evolutionary_distinctness(tree: PhyloTree) -> dict[str, float]:
    """Fair-proportion distinctness per leaf.

    Each edge's length is split evenly among the leaves below it; a
    leaf's score sums its share along its root path.  Scores therefore
    add up to the total branch length.  Leaves must carry distinct labels.
    """
    score = _distinctness(tree)[1]
    return {label: score[i] for label, i in tree.leaf_index().items()}


def mean_evolutionary_distinctness(tree: PhyloTree) -> float:
    order, score = _distinctness(tree)
    if not order:
        raise ValueError("tree has no leaves")
    return sum(score[i] for i in order) / len(order)


_EFFECT_EDGES = (0.147, 0.33, 0.474)
_EFFECT_NAMES = ("negligible", "small", "medium", "large")


def cliffs_delta(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Cliff's delta: P(x > y) - P(x < y) over all cross pairs."""
    if not len(xs) or not len(ys):
        raise ValueError("cliffs_delta needs non-empty samples")
    ys_sorted = np.sort(np.asarray(ys, dtype=float))
    xs_arr = np.asarray(xs, dtype=float)
    less = np.searchsorted(ys_sorted, xs_arr, side="left")
    greater = len(ys_sorted) - np.searchsorted(ys_sorted, xs_arr, side="right")
    return float((less.sum() - greater.sum()) / (len(xs_arr) * len(ys_sorted)))


def classify_effect(delta: float) -> str:
    """Bucket |delta| into negligible / small / medium / large."""
    return _EFFECT_NAMES[bisect_right(_EFFECT_EDGES, abs(delta))]


METRICS = {
    "sbl": sum_branch_length,
    "spd": sum_pairwise_distance,
    "mpd": mean_pairwise_distance,
    "colless": colless_like_index,
    "med": mean_evolutionary_distinctness,
}
