"""Phylogeny reconstruction from surface annotation records.

The input is a set of record sets extracted from end-state genomes.
Retention policies guarantee that any two lineages of similar age hold
records at mostly the same ranks, but migration lag makes the sets
ragged at the edges, so reconstruction first intersects the rank sets
across all inputs.  Every annotation then reads as an equal-length row
of differentia values over the common ranks.  Sorted, two adjacent rows
meet at the last common rank before their first mismatch, and one stack
pass over those meeting ranks creates just the nodes where lineages
branch.  The meeting rank is not a lower bound on their divergence
time: after a split, b-bit differentiae still match by chance with
probability 2**-b per rank, so at 1 bit it often falls after the true
common ancestor.
"""

from __future__ import annotations

import warnings
from typing import Iterable, Sequence

import numpy as np

from ..surface.annotation import RecordSet
from .tree import PhyloTree


def build_forest(
    annotations: Iterable[tuple[RecordSet, str] | tuple[RecordSet, str, int | None]],
    stitch: bool = False,
) -> PhyloTree:
    """Reconstruct a phylogeny from labeled record sets.

    Each element is ``(records, label)`` or ``(records, label, tag)``.
    Lineages whose records disagree at the first common rank end up in
    separate trees; ``stitch`` joins a multi-root result with
    :func:`stitch_roots`.  If the inputs share no ranks at all (e.g. a
    brand-new lineage among old ones), nothing can be related and the
    result degrades to one root per input, with a warning.

    Child order is canonical (by differentia value, then label), so the
    result does not depend on input order.
    """
    entries = [(e[0], e[1], e[2] if len(e) > 2 else None) for e in annotations]
    if not entries:
        raise ValueError("no annotations to reconstruct from")
    labels = [label for _, label, _ in entries]
    if len(set(labels)) != len(labels):
        dupe = next(x for x in labels if labels.count(x) > 1)
        raise ValueError(f"leaf labels must be unique; {dupe!r} repeats")
    if len(entries) == 1:
        return _join(entries, [], [])

    shared, _ = rank_intersection([records for records, _, _ in entries])
    if not shared:
        warnings.warn(
            "annotations share no retained ranks; returning unrelated leaves",
            stacklevel=2,
        )
        tree = _join(entries, [-1] * (len(entries) - 1), [])
    else:
        # Sort by the values at the shared ranks, then by label: lexsort is
        # stable, so label order settles rows that match at every rank.
        entries.sort(key=lambda entry: entry[1])
        mappings = (records.mapping() for records, _, _ in entries)
        values = np.array([[m[rank] for rank in shared] for m in mappings])
        order = np.lexsort(values.T[::-1])
        values = values[order]
        differs = values[1:] != values[:-1]
        first = np.where(differs.any(axis=1), differs.argmax(axis=1), len(shared))
        tree = _join([entries[i] for i in order.tolist()], (first - 1).tolist(), shared)
    return stitch_roots(tree) if stitch else tree


def _join(leaves: list[tuple], meets: list[int], ranks: Sequence[int]) -> PhyloTree:
    """The forest over sorted ``leaves``, each ``(records, label, tag)``;
    leaves i and i+1 meet at column ``meets[i]`` of ``ranks`` (-1: no
    common ancestor).  ``open_`` holds the branching nodes above the
    newest leaf, shallowest first.  Nodes are numbered as they are made,
    each after its first child and before its later ones, so siblings
    come numbered in order."""
    parent: list[int] = []
    time: list[float] = []
    label: list[str | None] = []
    tag: list[int | None] = []
    open_: list[tuple[int, int]] = []  # (meet, node)
    for (records, name, founder), meet in zip(leaves, meets + [-1]):
        done = len(parent)
        parent.append(-1)
        time.append(float(records.counter))
        label.append(name)
        tag.append(founder)
        while open_ and open_[-1][0] > meet:
            node = open_.pop()[1]
            parent[done] = node
            done = node
        if meet >= 0:
            if not open_ or open_[-1][0] < meet:
                open_.append((meet, len(parent)))
                parent.append(-1)
                time.append(float(ranks[meet]))
                label.append(None)
                tag.append(None)
            parent[done] = open_[-1][1]
    return PhyloTree.from_parents(parent, time, label, tag)


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
    if tree.n_roots > 1:
        # Every position moves up one, and the old roots' -1 becomes 0.
        tree.parent = [-1] + [p + 1 for p in tree.parent]
        tree.origin_time = [0.0] + tree.origin_time
        tree.label = [None] + tree.label
        tree.founder_tag = [None] + tree.founder_tag
    return tree


def estimate_mrca_range(a: RecordSet, b: RecordSet) -> tuple[int, int] | None:
    """Bracket the generation of ``a`` and ``b``'s most recent common
    ancestor from their records alone.

    Returns ``(last_matching_rank, first_mismatching_rank)``.  The upper
    end is sound: a mismatch proves the MRCA lived strictly before it.
    The lower end holds only if no match is a collision: two diverged
    lineages still match at a rank with probability 2**-b for b-bit
    differentiae, and each such match can put the lower end after the
    MRCA.  When every common rank matches, the upper end is the smaller
    deposit counter (the lineages may have diverged any time after the
    last shared record).  Returns None when the lineages look unrelated:
    no common ranks, or a mismatch at the very first one.  Matches beyond
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
