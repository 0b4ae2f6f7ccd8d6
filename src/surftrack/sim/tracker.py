"""Exact parent-pointer lineage records, kept compact by pruning.

The tracker stores each individual's parent and birth rank as one row,
appended one cohort per generation.  Periodic pruning keeps only what
the genealogy of a caller-supplied live set needs, which keeps memory
proportional to the live population instead of total births.  The
engine prunes every 8 cycles, so the rows held peak at the survivors
plus 8 cohorts: about 10 rows per agent on a 16x16 grid of 32.

Handles are row positions, int32.  ``record_cohort`` takes parent rows
(NO_PARENT for founders) and returns the new rows.  ``prune(live)``
moves the rows it keeps to the front, in sibling order (below), and
returns how many it removed; ``renumbered(live)``, read right after it,
gives the live rows' new positions, and every other handle from before
is void.  A row outside [0, len(tracker)) or below NO_PARENT raises
KeyError, but a void handle inside that range names some other row
unnoticed.

Storage: two column buffers, reserved at construction and reused
across prunes: each row's parent row (int32, NO_PARENT for founders)
and its birth rank (uint32), 8 bytes per row, survivors of a prune
included, plus a 4-byte scratch stamp per buffer row.  The engine
reserves the most rows its run can hold, so it never reallocates them;
past the reservation they grow by a quarter at a time.  While pruning
and building trees the stamp first counts each row's children, then
maps rows to new positions, and the splice's own row arrays are int32
as well.  Positions fit because the buffers stay below 2**31 rows, and
ranks (deposit counters) lie in [0, 2**32).

A prune and ``to_tree`` share one splice.  It takes the closure of a
set of rows (the rows in it or ancestral to one of them) and keeps only
the rows in the set or with two or more children in the closure, each
pointing at its nearest kept ancestor: the rows in between are
unifurcations.  So at most 2L - 1 rows survive for L distinct rows in
the set.  Row order is sibling order: cohorts are recorded in birth
order, and a splice lays the rows it keeps out in the order of their
heads, the top of the unifurcation run each absorbed (or the row
itself).  Heads are distinct, and a kept row's parent precedes its
head, so parents still precede their children and row order stays the
birth order of each row's topmost absorbed ancestor: a prune changes no
tree.  ``to_tree`` is a splice to the samples, one node per kept row.

The splice sweeps the rows recorded since the last prune cohort by
cohort, newest first.  Every parent sits in an earlier cohort, so when a
cohort is reached its rows' child counts are final: one pass finds its
kept rows and unifurcations and counts them for their parents.  The
survivors of the last prune that the sweep reaches are climbed, with a
visited mask, to their ancestors; only those count their children, and
the others are dropped unvisited.  Each unifurcation then finds the top
of its run by pointer doubling.  So a prune costs in proportion to the
rows recorded since the last one and the survivors they reach, plus a
few vectorised scans, a table over the rows held that lays the kept
rows out, and the moving of the survivors it keeps.

Birth rank is lineage-local time: the deposit counter the newborn
carried at its first deposit.  For lineages that never sat in a
migration buffer it equals the wall-clock generation.
"""

from __future__ import annotations

import numpy as np

from ..phylo.tree import PhyloTree

NO_PARENT = -1
_ONE = np.int32(1)  # np.add.at takes its fast path only for an operand of the array's dtype
MAX_ROWS = 2**31 - 1  # rows held at once; positions are int32


def _resized(buf: np.ndarray, used: int, capacity: int) -> np.ndarray:
    out = np.empty(capacity, dtype=buf.dtype)
    out[:used] = buf[:used]
    return out


class LineageTracker:
    def __init__(self, capacity: int = 0) -> None:
        """``capacity`` rows are reserved up front; the buffers grow past it
        by a quarter at a time."""
        capacity = min(capacity, MAX_ROWS)
        self._parent = np.empty(capacity, dtype=np.int32)  # row of each row's parent
        self._rank = np.empty(capacity, dtype=np.uint32)
        self._n = 0  # rows held: survivors first, then rows recorded since
        self._cohorts: list[int] = []  # first row of each cohort recorded since
        self._stamp = np.empty(1, dtype=np.int32)
        self._peak = 0  # most rows held at once, up to the last prune
        self.rows_pruned = 0  # running total over every prune

    def __len__(self) -> int:
        return self._n

    @property
    def peak_rows(self) -> int:
        """The most rows held at once so far."""
        return max(self._peak, self._n)

    def record_cohort(self, parent_rows: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        """Register a batch of births; returns their rows.  Every parent
        is a held row or NO_PARENT (KeyError otherwise), and every rank
        lies in [0, 2**32) (ValueError otherwise).  A failed call
        records nothing."""
        parents, ranks = np.asarray(parent_rows), np.asarray(ranks)
        m = len(parents)
        start, end = self._n, self._n + m
        if m:
            if parents.min() < NO_PARENT or parents.max() >= start:
                raise KeyError("no such tracker row")
            if ranks.min() < 0 or ranks.max() >= 2**32:  # ranks are uint32
                raise ValueError("birth ranks must lie in [0, 2**32)")
        if end > len(self._parent):
            if end > MAX_ROWS:
                raise OverflowError(f"the lineage tracker holds at most {MAX_ROWS} rows")
            capacity = min(max(end, len(self._parent) * 5 // 4), MAX_ROWS)
            self._parent = _resized(self._parent, start, capacity)
            self._rank = _resized(self._rank, start, capacity)
        self._parent[start:end] = parents
        self._rank[start:end] = ranks
        self._cohorts.append(start)
        self._n = end
        return np.arange(start, end, dtype=np.int32)

    def _splice(self, live: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows live or branching in the closure of ``live``, in sibling
        order, and the position among them of each one's nearest kept
        ancestor (NO_PARENT for none).  The stamp then maps each kept row to
        its position."""
        n, parent = self._n, self._parent
        k = self._cohorts[0] if self._cohorts else n  # survivors of the last prune
        at = np.asarray(live, dtype=np.int64)
        if at.size and (at.min() < 0 or at.max() >= n):
            raise KeyError("no such tracker row")
        if len(self._stamp) <= n:
            self._stamp = np.empty(len(parent) + 1, dtype=np.int32)
        # First the scratch column counts each row's reasons to be held: 2
        # if live, plus one per child in the closure.  Its spare last entry
        # stands for NO_PARENT.
        count = self._stamp
        count[:n] = 0
        count[-1] = 0
        count[at] = 2
        # Every parent sits in an earlier cohort or among the survivors:
        # sweep the newest first, so that a row's count is final when its
        # cohort is reached.  A row counted once is a unifurcation; one
        # counted twice or more is kept.
        kept, through, below, above = [], [], [], []  # and the parent of each
        ends = self._cohorts[1:] + [n]
        for start, end in zip(reversed(self._cohorts), reversed(ends)):
            held = count[start:end]
            branch = (held >= 2).nonzero()[0]
            row = np.concatenate((branch, (held == 1).nonzero()[0]), dtype=np.int32)
            row += start
            up = parent.take(row)
            np.add.at(count, up, _ONE)
            cut = branch.size
            kept.append(row[:cut])
            below.append(up[:cut])
            through.append(row[cut:])
            above.append(up[cut:])
        # The survivors the sweep reached, and those they descend from, are
        # found by climbing from the reached ones alone; then each counts
        # its children among them.
        unseen = count[: k + 1] == 0
        unseen[k] = False  # NO_PARENT, where the climb stops
        step = (count[:k] > 0).nonzero()[0]
        while step.size:
            up = parent.take(step)
            step = up.compress(unseen.take(up))
            unseen[step] = False
        row = (~unseen[:k]).nonzero()[0].astype(np.int32)
        up = parent.take(row)
        np.add.at(count, up, _ONE)
        count[-1] = 0
        held = count.take(row)
        for rows, named, which in ((kept, below, held >= 2), (through, above, held == 1)):
            rows.append(row.compress(which))
            named.append(up.compress(which))
        through, above = np.concatenate(through), np.concatenate(above)
        climbs = count.take(above) == 1  # the parent is a unifurcation too
        kept, below = np.concatenate(kept), np.concatenate(below)
        absorbs = count.take(below) == 1
        # Then the column points each unifurcation at the top of its run,
        # by pointer doubling, and each kept row at its new position.
        jump = self._stamp
        jump[-1] = NO_PARENT
        jump[through] = through
        todo = through.compress(climbs)
        jump[todo] = above.compress(climbs)
        del through, above, climbs  # freed before the kept rows' arrays grow
        while todo.size:
            hop = jump.take(jump.take(todo))
            jump[todo] = hop
            todo = todo.compress(jump.take(hop) != hop)
        head = np.where(absorbs, jump.take(below), kept)  # the top of the run above, or the row
        # Heads are distinct rows, and their order is sibling order: a table
        # over the rows held lays the kept rows out in it.
        jump[head] = kept
        is_head = np.zeros(n, dtype=bool)
        is_head[head] = True
        head = is_head.nonzero()[0]
        kept = jump.take(head)
        jump[kept] = np.arange(kept.size, dtype=np.int32)
        return kept, jump.take(parent.take(head))

    def prune(self, live: np.ndarray) -> int:
        """Keep, in sibling order, the rows live or ancestral to ``live``
        that are live or branch, each pointing at its nearest kept ancestor;
        returns rows removed.  NO_PARENT in ``live`` is skipped."""
        live = np.asarray(live)  # not cast: 2**64 - 1 would pass as NO_PARENT
        rows, up = self._splice(live[live != NO_PARENT])
        k = rows.size
        self._parent[:k] = up
        self._rank[:k] = self._rank.take(rows)
        removed = self._n - k
        self._peak = max(self._peak, self._n)
        self._n = k
        self._cohorts = []
        self.rows_pruned += removed
        return removed

    def renumbered(self, rows: np.ndarray) -> np.ndarray:
        """The last prune's live ``rows`` renumbered; read before the next prune or tree."""
        return self._stamp[rows]

    def to_tree(
        self,
        sample_rows: np.ndarray,
        labels: list[str],
        tags: list[int | None] | None = None,
    ) -> PhyloTree:
        """Genealogy of the sampled individuals, unifurcations collapsed.

        Each sample becomes one labeled leaf (duplicates allowed: the
        same individual sampled twice yields two sibling leaves).  Leaf
        origin is the sample's birth rank; internal nodes carry their
        individual's birth rank.

        The tree is a splice to the samples, one node per kept row in row
        order.  A row sampled once and with no children is its sample's
        leaf; any other sampled row gets its sample leaves, in sample
        order, after its other children.
        """
        if len(sample_rows) != len(labels):
            raise ValueError("one label per sampled row")
        if tags is not None and len(tags) != len(labels):
            raise ValueError("one tag per sampled row")
        rows, up = self._splice(sample_rows)
        at = self._stamp.take(sample_rows)
        k = rows.size
        kids = np.bincount(up[up != NO_PARENT], minlength=k)
        lone = ((kids == 0) & (np.bincount(at, minlength=k) == 1))[at]  # leaf is its row's node
        who = np.full(k, -1)  # each row node's sample, or -1
        who[at[lone]] = np.flatnonzero(lone)
        hung = np.flatnonzero(~lone)  # the other samples, hung below their row's node
        who = np.concatenate([who, hung]).tolist()
        return PhyloTree.from_parents(
            np.concatenate([up, at[hung]]).tolist(),
            self._rank[np.concatenate([rows, rows[at[hung]]])].astype(np.float64).tolist(),
            [None if i < 0 else labels[i] for i in who],
            [None if i < 0 or tags is None else tags[i] for i in who],
        )
