"""Phylogeny reconstruction from surface annotation records.

The input is a set of record sets extracted from end-state genomes.
Retention policies guarantee that any two lineages of similar age hold
records at mostly the same ranks, but migration lag makes the sets
ragged at the edges, so reconstruction first intersects the rank sets
across all inputs.  Every annotation then reads as an equal-length row
of differentia values over the common ranks.  Sorted, two adjacent rows
meet at the last common rank before their first mismatch, a lower bound
on their divergence time, and one stack pass over those meeting ranks
creates just the nodes where lineages branch.
"""

from __future__ import annotations

import warnings
from typing import Iterable, Sequence

import numpy as np

from ..surface.annotation import RecordSet
from .tree import PhyloNode, PhyloTree


def build_forest(
    annotations: Iterable[tuple[RecordSet, str] | tuple[RecordSet, str, int | None]],
    stitch: bool = False,
    shared: Sequence[int] | None = None,
) -> PhyloTree:
    """Reconstruct a phylogeny from labeled record sets.

    Each element is ``(records, label)`` or ``(records, label, tag)``.
    Lineages whose records disagree at the first common rank end up in
    separate trees; ``stitch`` joins a multi-root result with
    :func:`stitch_roots`.  If the inputs share no ranks at all (e.g. a
    brand-new lineage among old ones), nothing can be related and the
    result degrades to one root per input, with a warning.  ``shared``
    is the inputs' :func:`rank_intersection`, for a caller that already
    has it; by default it is computed here.

    Child order is canonical (by differentia value, then label), so the
    result does not depend on input order.
    """
    items = [
        (e[0], PhyloNode(float(e[0].counter), e[1], e[2] if len(e) > 2 else None))
        for e in annotations
    ]
    if not items:
        raise ValueError("no annotations to reconstruct from")
    labels = [leaf.label for _, leaf in items]
    if len(set(labels)) != len(labels):
        dupe = next(x for x in labels if labels.count(x) > 1)
        raise ValueError(f"leaf labels must be unique; {dupe!r} repeats")
    if len(items) == 1:
        return PhyloTree([items[0][1]])

    if shared is None:
        shared, _ = rank_intersection([records for records, _ in items])

    if not shared:
        warnings.warn(
            "annotations share no retained ranks; returning unrelated leaves",
            stacklevel=2,
        )
        tree = PhyloTree([leaf for _, leaf in items])
    else:
        # Sort by the values at the shared ranks, then by label: lexsort is
        # stable, so label order settles rows that match at every rank.
        items.sort(key=lambda item: item[1].label)
        mappings = (records.mapping() for records, _ in items)
        values = np.array([[m[rank] for rank in shared] for m in mappings])
        order = np.lexsort(values.T[::-1])
        values = values[order]
        differs = values[1:] != values[:-1]
        first = np.where(differs.any(axis=1), differs.argmax(axis=1), len(shared))
        leaves = [items[i][1] for i in order.tolist()]
        tree = PhyloTree(_join(leaves, (first - 1).tolist(), shared))
    return stitch_roots(tree) if stitch else tree


def _join(leaves: list[PhyloNode], meets: list[int], ranks: Sequence[int]) -> list[PhyloNode]:
    """Roots over sorted ``leaves``; leaves i and i+1 meet at column
    ``meets[i]`` of ``ranks`` (-1: no common ancestor).  ``open_`` holds
    the branching nodes above the newest leaf, shallowest first."""
    roots: list[PhyloNode] = []
    open_: list[tuple[int, PhyloNode]] = []
    done = leaves[0]
    for meet, leaf in zip(meets + [-1], leaves[1:] + [None]):
        while open_ and open_[-1][0] > meet:
            node = open_.pop()[1]
            node.add(done)
            done = node
        if meet < 0:
            roots.append(done)
        else:
            if not open_ or open_[-1][0] < meet:
                open_.append((meet, PhyloNode(float(ranks[meet]))))
            open_[-1][1].add(done)
        done = leaf
    return roots


def rank_intersection(record_sets: Sequence[RecordSet]) -> tuple[list[int], float]:
    """The ranks every record set holds, ascending, and the mean number of
    ranks a set holds.  Residency depends on the counter alone, so the sets
    hold few distinct rank tuples; one set is built per distinct tuple."""
    if not record_sets:
        return [], 0.0
    distinct = {records.held for records in record_sets}
    shared = set(distinct.pop()).intersection(*distinct)
    return sorted(shared), sum(len(records.held) for records in record_sets) / len(record_sets)


def stitch_roots(tree: PhyloTree) -> PhyloTree:
    """Join a multi-root forest under one synthetic root at origin 0, in place."""
    if len(tree.roots) > 1:
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
