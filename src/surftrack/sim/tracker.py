"""Exact parent-pointer lineage records, kept compact by pruning.

The tracker assigns every individual a monotonically increasing id and
stores its parent and birth rank, appended one cohort per generation.
Periodic pruning drops everything not ancestral to a caller-supplied
live set, which keeps memory proportional to the surviving genealogy
instead of total births.  The engine prunes every 64 cycles.

Storage: two column buffers, reused across prunes and grown by half
when full: each row's parent as a row position (int32, NO_PARENT for
founders) and its birth rank (uint32), 8 bytes per row.  The rows that
survived the last prune come first, in id order, and their ids sit in a
sorted side array.  Every row recorded since holds the next consecutive
id, so from the newest survivors whose ids run on to them, a row's
position follows from its id by one subtraction; older survivors need a
binary search.  ``record_cohort`` converts parent ids to positions on
arrival.  Positions fit because the buffers stay below 2**31 rows, and
ranks (deposit counters) lie in [0, 2**32).

Each survivor also carries the label of its chain: a maximal run of
survivors in which every row but the last has exactly one surviving
child.  Ids increase down a chain, and its label is the row position of
its top.  Whatever is kept of a chain is therefore the part at or above
its deepest kept row.

A prune sweeps the rows recorded since the last one cohort by cohort,
newest first: every parent sits in an earlier cohort, so one pass over
each cohort's keep mask marks its kept rows' parents, and what points
into the survivors becomes their entries.  It then marks the survivors
chain by chain: one step climbs from the tops of the chains just entered
to the chains their parents sit on, and one gather-and-compare keeps
every survivor at or above its chain's deepest entry.  The kept rows are
gathered to the front of the same buffers, their parent positions
renumbered to match, and relabelled.  A cut chain keeps its label, a branch left
with one kept child merges two chains, and a row that gains a second
child splits its chain; pointer doubling settles the rows these touch.
Only the rows recorded since get fresh labels, cohort by cohort, oldest
first.
So a prune costs in proportion to the rows recorded since the last one,
plus the rows it keeps, plus the branching depth of the genealogy (the
most chains on one path to a founder); it no longer grows with the
genealogy's depth in generations.  ``to_tree`` labels the sample's
ancestry the same way, counting samples as children, and builds one
node per chain.

Birth rank is lineage-local time: the deposit counter the newborn
carried at its first deposit.  For lineages that never sat in a
migration buffer it equals the wall-clock generation.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from ..phylo.tree import PhyloTree

NO_PARENT = -1
MAX_ROWS = 2**31 - 1  # rows held at once; positions are int32


def _resized(buf: np.ndarray, used: int, capacity: int) -> np.ndarray:
    out = np.empty(capacity, dtype=buf.dtype)
    out[:used] = buf[:used]
    return out


def _chain_tops(
    parent: np.ndarray, through: np.ndarray, carried: np.ndarray, blocks: list[int]
) -> np.ndarray:
    """Index of the top of each row's chain.

    ``parent`` indexes the same rows (NO_PARENT for founders).  A row
    continues its parent's chain when the parent is ``through``, that is
    has exactly one child.  The leading ``len(carried)`` rows have their
    parents among themselves and already know the top of an earlier,
    coarser chain of theirs, an ancestor-or-self: unless some row inside
    that chain now starts a chain of its own, they share its new top, and
    the rest resolve by pointer doubling.  The other rows come in
    ``blocks`` (start indices, ascending, the first at ``len(carried)``)
    whose parents all sit in earlier blocks or among the leading rows, so
    one pass per block labels them in order.  Labels are carried rather
    than recomputed because relabelling every kept row by pointer
    doubling made a 16x16 purifying tracked run's prunes about 40%
    slower (360-400 against 260-280 ms on a 2-core host).
    """
    n, m = parent.size, carried.size
    idx = np.arange(n, dtype=np.int32)
    top = ~np.append(through, False)[parent]  # a founder's NO_PARENT reads False
    jump = np.where(top, idx, parent)
    head = jump[:m]
    # A row that now starts a chain inside a carried one splits it.
    inner = carried != idx[:m]
    split = np.zeros(m, dtype=bool)
    split[carried[inner & top[:m]]] = True
    inner &= ~split[carried]
    head[inner] = carried[inner]
    todo = np.flatnonzero(~top[head])
    while todo.size:
        hop = head[head[todo]]
        head[todo] = hop
        todo = todo[~top[hop]]
    # A top points at itself and any other row at its parent, whose top
    # an earlier block has already found.
    for a, b in zip(blocks, blocks[1:] + [n]):
        jump[a:b] = jump[jump[a:b]]
    return jump


class LineageTracker:
    def __init__(self) -> None:
        self._parent = np.empty(0, dtype=np.int32)  # row of each row's parent
        self._rank = np.empty(0, dtype=np.uint32)
        self._n = 0  # rows held: survivors first, then rows recorded since
        self._kept_ids = np.empty(0, dtype=np.int64)  # sorted ids of the survivors
        self._chain = np.empty(0, dtype=np.int32)  # survivors: row of their chain's top
        self._first_direct = 0  # held ids from here on sit at id - (next id - rows held)
        self._cohorts: list[int] = []  # first row of each cohort recorded since
        self._next_id = 0
        self._stamp = np.empty(0, dtype=np.int32)
        self._peak = 0  # most rows held at once, up to the last prune
        self.rows_pruned = 0  # running total over every prune

    def __len__(self) -> int:
        return self._n

    @property
    def peak_rows(self) -> int:
        """The most rows held at once so far."""
        return max(self._peak, self._n)

    def record_cohort(self, parents: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        """Register a batch of births; returns their new ids.

        Every parent is a held id returned by an earlier call, or
        NO_PARENT (KeyError otherwise), and every rank lies in
        [0, 2**32) (ValueError otherwise).  A failed call records nothing.
        """
        parents, ranks = np.asarray(parents), np.asarray(ranks)
        m = len(parents)
        start, end = self._n, self._n + m
        if m:
            lo = int(parents.min())
            if lo < NO_PARENT or parents.max() >= self._next_id:
                raise KeyError("unknown lineage id")
            if ranks.min() < 0 or ranks.max() >= 2**32:  # ranks are uint32
                raise ValueError("birth ranks must lie in [0, 2**32)")
        if end > len(self._parent):
            if end > MAX_ROWS:
                raise OverflowError(f"the lineage tracker holds at most {MAX_ROWS} rows")
            capacity = min(max(end, len(self._parent) * 3 // 2), MAX_ROWS)
            self._parent = _resized(self._parent, start, capacity)
            self._rank = _resized(self._rank, start, capacity)
        out = self._parent[start:end]
        # Ids and the shift wrap to 32 bits alike, so the difference is
        # exact for every id from _first_direct on.
        out[:] = parents
        out -= np.int64(self._next_id - start).astype(np.int32)
        if m and lo < self._first_direct:  # older survivors or founders
            old = parents < self._first_direct
            named = parents[old]
            real = named != NO_PARENT
            named[real] = self._positions(named[real])
            out[old] = named
        self._rank[start:end] = ranks
        self._cohorts.append(start)
        self._n = end
        ids = np.arange(self._next_id, self._next_id + m, dtype=np.int64)
        self._next_id += m
        return ids

    def _positions(self, ids: np.ndarray) -> np.ndarray:
        """Row positions of ``ids``; KeyError for any id not held."""
        if not ids.size:
            return ids
        if ids.max() >= self._next_id:
            raise KeyError("unknown lineage id")
        kept = self._kept_ids
        pos = ids - (self._next_id - self._n)
        if ids.min() < self._first_direct:
            old = ids < self._first_direct
            query = ids[old]
            at = np.searchsorted(kept, query)
            if not kept.size or (kept[np.minimum(at, kept.size - 1)] != query).any():
                raise KeyError("unknown lineage id")
            pos[old] = at
        return pos

    def _ancestry(self, live: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows live or ancestral to a live id, sorted, and the index into
        them of each one's parent (NO_PARENT for founders)."""
        n_old = self._kept_ids.size
        live = np.asarray(live, dtype=np.int64)
        at = self._positions(live[live != NO_PARENT])
        # Every parent sits in an earlier cohort or among the survivors:
        # sweep the newest first.  A mark on a row already swept changes
        # nothing, so NO_PARENT may mark the spare last entry.
        seen = np.zeros(self._n + 1, dtype=bool)
        seen[at] = True
        rows, parents = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int32)]
        ends = self._cohorts[1:] + [self._n]
        for start, end in zip(reversed(self._cohorts), reversed(ends)):
            row = np.flatnonzero(seen[start:end])
            row += start
            named = self._parent[row]
            rows.append(row)
            parents.append(named)
            seen[named] = True
        if n_old:
            entries = np.flatnonzero(seen[:n_old]).astype(np.int32)
            kept = np.flatnonzero(self._survivor_closure(entries))
            rows.append(kept)
            parents.append(self._parent[kept])
        rows = np.concatenate(rows[::-1])
        parents = np.concatenate(parents[::-1])
        # A stamp, not np.searchsorted(rows, parents): that saved 2 MiB but doubled prune time.
        if len(self._stamp) <= self._n:
            self._stamp = np.empty(len(self._parent) + 1, dtype=np.int32)
            self._stamp[-1] = NO_PARENT  # never a row's: maps NO_PARENT to itself
        self._stamp[rows] = np.arange(rows.size, dtype=np.int32)
        return rows, self._stamp[parents]

    def _survivor_closure(self, entries: np.ndarray) -> np.ndarray:
        """Mask over the survivors: ``entries`` (rows) and their ancestors."""
        n_old = self._kept_ids.size
        chain = self._chain
        deep = np.full(n_old, -1, dtype=np.int32)  # deepest entry, by chain top
        # Each step climbs from the tops of the chains just entered to the
        # chains their parents sit on.
        while entries.size:
            tops = chain[entries]
            fresh = tops[deep[tops] < 0]
            np.maximum.at(deep, tops, entries)
            entries = self._parent[fresh]
            entries = entries[entries != NO_PARENT]
        return np.arange(n_old, dtype=np.int32) <= deep[chain]

    def _tops(self, rows: np.ndarray, parents: np.ndarray, through: np.ndarray) -> np.ndarray:
        """Chain tops over a closure's ``rows``, as indices into them.

        Call right after :meth:`_ancestry`, whose stamp maps each
        survivor's carried chain label into ``rows``.
        """
        old = rows[: np.searchsorted(rows, self._kept_ids.size)]
        carried = self._stamp[self._chain[old]]
        blocks = np.searchsorted(rows, self._cohorts).tolist()
        return _chain_tops(parents, through, carried, blocks)

    def prune(self, live: np.ndarray) -> int:
        """Drop records not ancestral to ``live``; returns rows removed."""
        rows, parents = self._ancestry(live)
        k = rows.size
        through = np.bincount(parents[parents != NO_PARENT], minlength=k) == 1
        chain = self._tops(rows, parents, through)
        ids = rows + (self._next_id - self._n)
        survivors = np.searchsorted(rows, self._kept_ids.size)  # rows are sorted: old ones first
        ids[:survivors] = self._kept_ids[rows[:survivors]]
        self._chain = chain
        self._parent[:k] = parents
        self._rank[:k] = self._rank[rows]
        removed = self._n - k
        self._peak = max(self._peak, self._n)
        self._n = k
        self._kept_ids = ids
        # Kept ids that run on, one by one, to the newest id map by
        # subtraction; ids[i] - i grows with i and reaches the shift only
        # along that run.
        shift = self._next_id - k
        self._first_direct = shift + bisect_left(range(k), shift, key=lambda i: ids[i] - i)
        self._cohorts = []
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

        One node stands for each chain of the sample's ancestry, counting
        sample leaves as children: the chain's last row where it branches,
        else the lone sample leaf it ends in.  Children come in the order
        of their chains' tops, then the row's own sample leaves in sample
        order, as if every row were a node and unifurcations were spliced
        out afterwards.
        """
        sample_ids = np.asarray(sample_ids, dtype=np.int64)
        if len(sample_ids) != len(labels):
            raise ValueError("one label per sampled id")
        if tags is not None and len(tags) != len(labels):
            raise ValueError("one tag per sampled id")
        rows, parents = self._ancestry(sample_ids)
        at = np.searchsorted(rows, self._positions(sample_ids))
        kids = np.bincount(parents[parents != NO_PARENT], minlength=rows.size)
        leaves = np.bincount(at, minlength=rows.size)
        top = self._tops(rows, parents, (kids == 1) & (leaves == 0))
        time = self._rank[rows].astype(np.float64)
        fork = kids + leaves >= 2  # rows that stay nodes
        ends = np.flatnonzero(fork)
        lone = np.flatnonzero(~fork[at])  # samples that end a chain alone
        forked = np.flatnonzero(fork[at])  # sample leaves of forking rows
        # One node per chain, in order of the chain tops, then the forked leaves.
        last = np.concatenate([ends, at[lone]])  # each chain's node row
        order = np.argsort(top[last])
        who = np.concatenate([np.full(ends.size, -1), lone])[order]  # its sample, or -1
        chains = top[last[order]]
        anchor = np.concatenate([parents[chains], at[forked]])  # a row on the parent's chain
        up = np.where(anchor == NO_PARENT, -1, np.searchsorted(chains, top[anchor]))
        who = np.concatenate([who, forked]).tolist()
        return PhyloTree.from_parents(
            up.tolist(),
            time[np.concatenate([last[order], at[forked]])].tolist(),
            [None if k < 0 else labels[k] for k in who],
            [None if k < 0 or tags is None else tags[k] for k in who],
        )
