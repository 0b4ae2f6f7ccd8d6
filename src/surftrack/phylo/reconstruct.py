"""Phylogeny reconstruction from surface annotation records.

The input is a set of record sets extracted from end-state genomes.
Retention policies guarantee that any two lineages of similar age hold
records at mostly the same ranks, but migration lag makes the sets
ragged at the edges, so reconstruction first intersects the rank sets
across all inputs.  After filtering, every annotation reads as an
equal-length string of differentia values over the common ranks, and a
plain trie over those strings is the phylogeny: lineages share a path
for as long as their values keep matching, and the rank where paths
part is a lower bound on their divergence time.
"""

from __future__ import annotations

import warnings
from typing import Iterable, Sequence

from ..surface.annotation import RecordSet
from .tree import PhyloNode, PhyloTree, collapse_unifurcations


class _TrieNode:
    __slots__ = ("children", "tips")

    def __init__(self) -> None:
        self.children: dict[int, _TrieNode] = {}
        self.tips: list[tuple[str, int, int | None]] = []


def _leaf(label: str, counter: int, tag: int | None) -> PhyloNode:
    return PhyloNode(float(counter), label=label, founder_tag=tag)


def build_forest(
    annotations: Iterable[tuple[RecordSet, str] | tuple[RecordSet, str, int | None]],
    stitch: bool = False,
) -> PhyloTree:
    """Reconstruct a phylogeny from labeled record sets.

    Each element is ``(records, label)`` or ``(records, label, tag)``.
    Lineages whose records disagree at the first common rank end up in
    separate trees; ``stitch`` joins a multi-root result under one
    synthetic root at origin 0.  If the inputs share no ranks at all
    (e.g. a brand-new lineage among old ones), nothing can be related
    and the result degrades to one root per input, with a warning.

    Child order is canonical (by differentia value, then label), so the
    result does not depend on input order.
    """
    items: list[tuple[RecordSet, str, int | None]] = []
    for entry in annotations:
        records, label = entry[0], entry[1]
        tag = entry[2] if len(entry) > 2 else None
        items.append((records, label, tag))
    if not items:
        raise ValueError("no annotations to reconstruct from")
    labels = [label for _, label, _ in items]
    if len(set(labels)) != len(labels):
        dupe = next(x for x in labels if labels.count(x) > 1)
        raise ValueError(f"leaf labels must be unique; {dupe!r} repeats")
    if len(items) == 1:
        records, label, tag = items[0]
        return PhyloTree([_leaf(label, records.counter, tag)])

    ordered, _ = rank_intersection([records for records, _, _ in items])

    if not ordered:
        warnings.warn(
            "annotations share no retained ranks; returning unrelated leaves",
            stacklevel=2,
        )
        roots = [_leaf(label, records.counter, tag) for records, label, tag in items]
        return _finish(PhyloTree(roots), stitch)

    trie = _TrieNode()
    for records, label, tag in items:
        values = records.mapping()
        node = trie
        for rank in ordered:
            node = node.children.setdefault(values[rank], _TrieNode())
        node.tips.append((label, records.counter, tag))

    roots = []
    for value in sorted(trie.children):
        roots.append(_to_phylo(trie.children[value], 0, ordered))
    tree = collapse_unifurcations(PhyloTree(roots))
    return _finish(tree, stitch)


def rank_intersection(record_sets: Sequence[RecordSet]) -> tuple[list[int], float]:
    """The ranks every record set holds, ascending, and the mean number of
    ranks a set holds.  ``build_forest`` reads its inputs at these ranks."""
    rank_sets = [set(records.ranks()) for records in record_sets]
    if not rank_sets:
        return [], 0.0
    shared = sorted(set.intersection(*rank_sets))
    return shared, sum(len(ranks) for ranks in rank_sets) / len(rank_sets)


def _to_phylo(trie: _TrieNode, depth: int, ranks: Sequence[int]) -> PhyloNode:
    node = PhyloNode(float(ranks[depth]))
    stack = [(trie, node, depth)]
    while stack:
        t, p, d = stack.pop()
        for tip in sorted(t.tips, key=lambda x: (x[0], x[1])):
            p.add(_leaf(*tip))
        for value in sorted(t.children):
            child = p.add(PhyloNode(float(ranks[d + 1])))
            stack.append((t.children[value], child, d + 1))
    return node


def _finish(tree: PhyloTree, stitch: bool) -> PhyloTree:
    if stitch and len(tree.roots) > 1:
        root = PhyloNode(0.0)
        for r in tree.roots:
            root.add(r)
        tree.roots = [root]
    return tree


def estimate_mrca_range(a: RecordSet, b: RecordSet) -> tuple[int, int] | None:
    """Bracket the generation of ``a`` and ``b``'s most recent common
    ancestor from their records alone.

    Returns ``(last_matching_rank, first_mismatching_rank)``: the MRCA
    lived at or after the first value, and strictly before the second.
    When every common rank matches, the upper end is the smaller deposit
    counter (the lineages may have diverged any time after the last
    shared record).  Returns None when the lineages look unrelated: no
    common ranks, or a mismatch at the very first one.  Matches beyond
    the first mismatch are spurious differentia collisions and ignored.
    """
    va, vb = a.mapping(), b.mapping()
    last: int | None = None
    for rank in sorted(va.keys() & vb.keys()):
        if va[rank] == vb[rank]:
            last = rank
        elif last is None:
            return None
        else:
            return (last, rank)
    if last is None:
        return None
    return (last, min(a.counter, b.counter))
