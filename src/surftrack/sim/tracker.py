"""Exact parent-pointer lineage records, kept compact by pruning.

The tracker assigns every individual a monotonically increasing id and
stores its parent and birth rank, appended one cohort per generation.
Periodic pruning drops everything not ancestral to a caller-supplied
live set, which keeps memory proportional to the surviving genealogy
instead of total births.

Storage: two column buffers, parent and birth rank, reused across
prunes and grown by half when full.  The rows that survived the last
prune come first, in id order; their ids sit in a sorted side array and
their parent column holds the parent's row position.  Every row recorded
since holds the next consecutive id, so its position follows from its
id by subtraction, and its parent column holds the parent's id; only
references to survivors need a binary search.

A prune walks the genealogy as row positions, one ancestor level at a
time: first through the recent rows, then through the survivors.  A
reused stamp array drops repeats from each level without sorting, so a
level costs in proportion to its frontier.  The kept rows are then
gathered to the front of the same buffers, their parents rewritten as
positions.  Apart from one scan of the keep mask, a prune therefore
costs in proportion to the rows it keeps and the depth of their
genealogy, not to the rows it drops.

Birth rank is lineage-local time: the deposit counter the newborn
carried at its first deposit.  For lineages that never sat in a
migration buffer it equals the wall-clock generation.
"""

from __future__ import annotations

import numpy as np

from ..phylo.tree import PhyloNode, PhyloTree, collapse_unifurcations

NO_PARENT = -1


def _resized(buf: np.ndarray, used: int, capacity: int) -> np.ndarray:
    out = np.empty(capacity, dtype=buf.dtype)
    out[:used] = buf[:used]
    return out


class LineageTracker:
    def __init__(self) -> None:
        self._parent = np.empty(0, dtype=np.int64)  # survivors: row; recent rows: id
        self._rank = np.empty(0, dtype=np.int64)
        self._n = 0  # rows held: survivors first, then rows recorded since
        self._kept_ids = np.empty(0, dtype=np.int64)  # sorted ids of the survivors
        self._first_new = 0  # id of the first row recorded since the last prune
        self._next_id = 0
        self._stamp = np.empty(0, dtype=np.int32)
        self.rows_pruned = 0  # running total over every prune

    def __len__(self) -> int:
        return self._n

    def record_cohort(self, parents: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        """Register a batch of births; returns their new ids."""
        m = len(parents)
        end = self._n + m
        if end > len(self._parent):
            capacity = max(end, len(self._parent) * 3 // 2)
            self._parent = _resized(self._parent, self._n, capacity)
            self._rank = _resized(self._rank, self._n, capacity)
        self._parent[self._n : end] = parents
        self._rank[self._n : end] = ranks
        self._n = end
        ids = np.arange(self._next_id, self._next_id + m, dtype=np.int64)
        self._next_id += m
        return ids

    def record_birth(self, parent_id: int, rank: int) -> int:
        """Scalar convenience wrapper around :meth:`record_cohort`."""
        return int(self.record_cohort(np.array([parent_id]), np.array([rank]))[0])

    def _positions(self, ids: np.ndarray) -> np.ndarray:
        """Row positions of ``ids``; KeyError for any id not held."""
        if not ids.size:
            return ids
        if ids.max() >= self._next_id:
            raise KeyError("unknown lineage id")
        kept = self._kept_ids
        pos = ids + (kept.size - self._first_new)
        if ids.min() < self._first_new:
            old = ids < self._first_new
            query = ids[old]
            at = np.searchsorted(kept, query)
            if not kept.size or (kept[np.minimum(at, kept.size - 1)] != query).any():
                raise KeyError("unknown lineage id")
            pos[old] = at
        return pos

    def _visit(self, frontier: np.ndarray, keep: np.ndarray) -> np.ndarray:
        """Mark the unmarked rows of ``frontier`` kept; returns them once each."""
        frontier = frontier[~keep[frontier]]
        # the last write to a repeated position wins, so one copy passes
        order = np.arange(frontier.size, dtype=np.int32)
        self._stamp[frontier] = order
        frontier = frontier[self._stamp[frontier] == order]
        keep[frontier] = True
        return frontier

    def _closure(self, live: np.ndarray) -> np.ndarray:
        """Mask over the held rows: live or ancestral to a live id."""
        keep = np.zeros(self._n, dtype=bool)
        if len(self._stamp) < self._n:
            self._stamp = np.empty(len(self._parent), dtype=np.int32)
        live = np.asarray(live, dtype=np.int64)
        frontier = self._positions(live[live != NO_PARENT])
        n_old = self._kept_ids.size
        into_old = [frontier[frontier < n_old]]
        frontier = frontier[frontier >= n_old]
        # Rows recorded since the last prune name their parents by id.
        shift = n_old - self._first_new
        while frontier.size:
            parents = self._parent[self._visit(frontier, keep)]
            recent = parents >= self._first_new
            older = parents[~recent]
            into_old.append(self._positions(older[older != NO_PARENT]))
            frontier = parents[recent] + shift
        # Survivors of the last prune name their parents by row position.
        frontier = np.concatenate(into_old)
        while frontier.size:
            parents = self._parent[self._visit(frontier, keep)]
            frontier = parents[parents != NO_PARENT]
        return keep

    def _parent_rows(self, rows: np.ndarray) -> np.ndarray:
        """Index into ``rows`` of each row's parent (NO_PARENT for founders).

        ``rows`` is sorted and closed under parents, as a closure's rows
        are; the stamp array, sized by that closure, maps row to index.
        """
        parents = self._parent[rows]
        recent = parents[np.searchsorted(rows, self._kept_ids.size) :]
        named = recent != NO_PARENT
        recent[named] = self._positions(recent[named])
        self._stamp[rows] = np.arange(rows.size, dtype=np.int32)
        has_parent = parents != NO_PARENT
        parents[has_parent] = self._stamp[parents[has_parent]]
        return parents

    def prune(self, live: np.ndarray) -> int:
        """Drop records not ancestral to ``live``; returns rows removed."""
        rows = np.flatnonzero(self._closure(live))
        k = rows.size
        n_old = self._kept_ids.size
        ids = rows + (self._first_new - n_old)
        survivors = np.searchsorted(rows, n_old)  # rows are sorted: old ones first
        ids[:survivors] = self._kept_ids[rows[:survivors]]
        self._parent[:k] = self._parent_rows(rows)
        self._rank[:k] = self._rank[rows]
        removed = self._n - k
        self._n = k
        self._kept_ids = ids
        self._first_new = self._next_id
        self.rows_pruned += removed
        return removed

    def to_tree(
        self,
        sample_ids: np.ndarray,
        labels: list[str],
        tags: list[int | None] | None = None,
    ) -> PhyloTree:
        """Genealogy of the sampled individuals, unifurcations collapsed.

        Each sample becomes one labeled leaf (duplicates allowed: the
        same individual sampled twice yields two sibling leaves).  Leaf
        origin is the sample's birth rank; internal nodes carry their
        individual's birth rank.
        """
        sample_ids = np.asarray(sample_ids, dtype=np.int64)
        if len(sample_ids) != len(labels):
            raise ValueError("one label per sampled id")
        if tags is not None and len(tags) != len(labels):
            raise ValueError("one tag per sampled id")
        rows = np.flatnonzero(self._closure(sample_ids))
        nodes = [PhyloNode(float(r)) for r in self._rank[rows].tolist()]
        roots = []
        for node, u in zip(nodes, self._parent_rows(rows).tolist()):
            if u == NO_PARENT:
                roots.append(node)
            else:
                nodes[u].add(node)
        at = np.searchsorted(rows, self._positions(sample_ids))
        for k, (u, label) in enumerate(zip(at.tolist(), labels)):
            node = nodes[u]
            node.add(
                PhyloNode(
                    node.origin_time,
                    label=label,
                    founder_tag=None if tags is None else tags[k],
                )
            )
        return collapse_unifurcations(PhyloTree(roots))
