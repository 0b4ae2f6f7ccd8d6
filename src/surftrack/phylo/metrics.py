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

from .tree import PhyloNode, PhyloTree, depths


def _postorder(tree: PhyloTree) -> list[PhyloNode]:
    out: list[PhyloNode] = []
    for root in tree.roots:
        stack = [root]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(node.children)
    out.reverse()
    return out


def sum_branch_length(tree: PhyloTree) -> float:
    """Total origin-time delta across all edges; 0 for a lone leaf."""
    return float(
        sum(c.origin_time - n.origin_time for n in tree.nodes() for c in n.children)
    )


def _pairwise_totals(tree: PhyloTree) -> tuple[float, int]:
    if tree.n_roots != 1:
        raise ValueError(
            "pairwise distances need a single root; stitch the forest first"
        )
    order, parents = tree.preorder()
    depth = depths(parents)
    leaves_below = [0] * len(order)
    kid_pairs = [0] * len(order)  # leaf pairs that meet below each node
    total_depth = 0
    n_leaves = 0
    lca_sum = 0
    for i in reversed(range(len(order))):
        if order[i].is_leaf:
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
    total = 0.0
    fsize: dict[int, float] = {}
    for node in _postorder(tree):
        w = math.log(len(node.children) + math.e)
        fsize[id(node)] = w + sum(fsize[id(c)] for c in node.children)
        if node.children:
            sizes = np.array([fsize[id(c)] for c in node.children])
            total += float(np.abs(sizes - np.median(sizes)).mean())
    return total


def evolutionary_distinctness(tree: PhyloTree) -> dict[str, float]:
    """Fair-proportion distinctness per leaf.

    Each edge's length is split evenly among the leaves below it; a
    leaf's score sums its share along its root path.  Scores therefore
    add up to the total branch length.  Leaves must be labeled.
    """
    out: dict[str, float] = {}
    order = _postorder(tree)
    leaves_below = {}
    for node in order:
        leaves_below[id(node)] = (
            1 if node.is_leaf else sum(leaves_below[id(c)] for c in node.children)
        )
    for root in tree.roots:
        stack = [(root, 0.0)]
        while stack:
            node, acc = stack.pop()
            if node.is_leaf:
                if node.label is None:
                    raise ValueError("evolutionary distinctness needs labeled leaves")
                out[node.label] = acc
                continue
            for c in node.children:
                share = (c.origin_time - node.origin_time) / leaves_below[id(c)]
                stack.append((c, acc + share))
    return out


def mean_evolutionary_distinctness(tree: PhyloTree) -> float:
    scores = evolutionary_distinctness(tree)
    if not scores:
        raise ValueError("tree has no leaves")
    return sum(scores.values()) / len(scores)


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
