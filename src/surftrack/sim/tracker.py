"""Exact parent-pointer lineage records, kept compact by pruning.

The tracker stores each individual's parent and birth rank as one row,
appended one cohort per generation.  Periodic pruning keeps only what
the genealogy of a caller-supplied live set needs, which keeps memory
proportional to the live population instead of total births.  The
engine prunes every 32 cycles.

Handles are row positions.  ``record_cohort`` takes parent rows
(NO_PARENT for founders) and returns the new rows.  ``prune(live)``
moves the rows it keeps to the front, in order, and returns how many
it removed; ``renumbered(live)``, read right after it, gives the live
rows' new positions, and every other handle from before is void.  A
row outside [0, len(tracker)) or below NO_PARENT raises KeyError, but
a void handle inside that range names some other row unnoticed.

Storage: two column buffers, reused across prunes and grown by a
quarter when full: each row's parent row (int32, NO_PARENT for
founders) and its birth rank (uint32), 8 bytes per row, plus a 4-byte
stamp per buffer row, which maps rows to new positions while pruning
and building trees.  Positions fit because the buffers stay below
2**31 rows, and ranks (deposit counters) lie in [0, 2**32).

A prune takes the closure of the live set (the rows live or ancestral
to a live row) and keeps only its rows that are live or have two or more
children in it, each pointing at its nearest kept ancestor: the rows in
between are unifurcations, which ``to_tree`` would collapse anyway.  So
at most 2L - 1 rows survive for L distinct live rows.  Siblings are
ordered by key: a row's birth serial, or for a survivor that of the
topmost row of the run it absorbed, so ``to_tree`` orders them as if
nothing had been spliced.

The closure sweeps the rows recorded since the last prune cohort by
cohort, newest first: every parent sits in an earlier cohort, so one
pass over each cohort's mask marks its marked rows' parents, and the
survivors they reach are climbed with a visited mask.  So a prune costs
in proportion to the rows recorded since the last one plus the
survivors.

Birth rank is lineage-local time: the deposit counter the newborn
carried at its first deposit.  For lineages that never sat in a
migration buffer it equals the wall-clock generation.
"""

from __future__ import annotations

import numpy as np

from ..phylo.tree import PhyloTree

NO_PARENT = -1
MAX_ROWS = 2**31 - 1  # rows held at once; positions are int32


def _resized(buf: np.ndarray, used: int, capacity: int) -> np.ndarray:
    out = np.empty(capacity, dtype=buf.dtype)
    out[:used] = buf[:used]
    return out


def _chain_tops(parent: np.ndarray, through: np.ndarray, blocks: list[int]) -> np.ndarray:
    """Index of the top of each row's chain.

    ``parent`` indexes the same rows (NO_PARENT for founders).  A row
    continues its parent's chain when the parent is ``through``.  The
    rows before ``blocks[0]`` have their parents among themselves and
    resolve by pointer doubling.  The other rows come in ``blocks``
    (start indices, ascending) whose parents all sit in earlier blocks or
    among the leading rows, so one pass per block labels them in order.
    """
    n = parent.size
    idx = np.arange(n, dtype=np.int32)
    top = ~np.append(through, False)[parent]  # a founder's NO_PARENT reads False
    jump = np.where(top, idx, parent)
    head = jump[: blocks[0] if blocks else n]
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
        self._key = np.empty(0, dtype=np.int64)  # survivors: key atop the run each absorbed
        self._cohorts: list[int] = []  # first row of each cohort recorded since
        self._births = 0  # births so far: the next row's key
        self._stamp = np.empty(0, dtype=np.int32)
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
        self._births += m
        return np.arange(start, end, dtype=np.int64)

    def _key_of(self, rows: np.ndarray) -> np.ndarray:
        """Each row's key: a survivor's stored one, else its birth serial."""
        out = rows + (self._births - self._n)
        old = rows < self._key.size
        out[old] = self._key[rows[old]]
        return out

    def _ancestry(self, rows: np.ndarray) -> tuple[np.ndarray, ...]:
        """``rows`` and their ancestors, sorted; the index into them of
        each one's parent (NO_PARENT for founders) and of each of
        ``rows``; and the start of each cohort among them."""
        n_old = self._key.size
        at = np.asarray(rows, dtype=np.int64)
        if at.size and (at.min() < 0 or at.max() >= self._n):
            raise KeyError("no such tracker row")
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
            seen[-1] = True  # so the climb stops at NO_PARENT
            up = np.flatnonzero(seen[:n_old])
            while up.size:
                up = self._parent[up]
                up = np.unique(up[~seen[up]])
                seen[up] = True
            kept = np.flatnonzero(seen[:n_old])
            rows.append(kept)
            parents.append(self._parent[kept])
        rows = np.concatenate(rows[::-1])
        parents = np.concatenate(parents[::-1])
        # A stamp, not np.searchsorted(rows, parents): that saved 2 MiB but doubled prune time.
        if len(self._stamp) <= self._n:
            self._stamp = np.empty(len(self._parent) + 1, dtype=np.int32)
            self._stamp[-1] = NO_PARENT  # never a row's: maps NO_PARENT to itself
        self._stamp[rows] = np.arange(rows.size, dtype=np.int32)
        blocks = np.searchsorted(rows, self._cohorts).tolist()
        return rows, self._stamp[parents], self._stamp[at], blocks

    def prune(self, live: np.ndarray) -> int:
        """Keep, in order, the rows live or ancestral to ``live`` that are
        live or branch, each pointing at its nearest kept ancestor;
        returns rows removed.  NO_PARENT in ``live`` is skipped."""
        live = np.asarray(live, dtype=np.int64)
        rows, parents, at, blocks = self._ancestry(live[live != NO_PARENT])
        kept = np.bincount(parents[parents != NO_PARENT], minlength=rows.size) >= 2
        kept[at] = True
        head = rows[_chain_tops(parents, ~kept, blocks)[kept]]  # top of each kept row's run
        rows = rows[kept]
        k = rows.size
        self._key = self._key_of(head)
        self._stamp[rows] = np.arange(k, dtype=np.int32)  # each kept row's new position
        self._parent[:k] = self._stamp[self._parent[head]]  # its nearest kept ancestor's
        self._rank[:k] = self._rank[rows]
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

        One node stands for each chain of the sample's ancestry, counting
        sample leaves as children: the chain's last row where it branches,
        else the lone sample leaf it ends in.  Children come in the order
        of their chains' top keys, then the row's own sample leaves in
        sample order, as if every row were a node and unifurcations were
        spliced out afterwards.
        """
        if len(sample_rows) != len(labels):
            raise ValueError("one label per sampled row")
        if tags is not None and len(tags) != len(labels):
            raise ValueError("one tag per sampled row")
        rows, parents, at, blocks = self._ancestry(sample_rows)
        kids = np.bincount(parents[parents != NO_PARENT], minlength=rows.size)
        leaves = np.bincount(at, minlength=rows.size)
        top = _chain_tops(parents, (kids == 1) & (leaves == 0), blocks)
        time = self._rank[rows].astype(np.float64)
        fork = kids + leaves >= 2  # rows that stay nodes
        ends = np.flatnonzero(fork)
        lone = np.flatnonzero(~fork[at])  # samples that end a chain alone
        forked = np.flatnonzero(fork[at])  # sample leaves of forking rows
        # One node per chain, in order of the chain tops' keys, then the forked leaves.
        last = np.concatenate([ends, at[lone]])  # each chain's node row
        order = np.argsort(self._key_of(rows[top[last]]))
        who = np.concatenate([np.full(ends.size, -1), lone])[order]  # its sample, or -1
        chains = top[last[order]]
        node = np.empty(rows.size, dtype=np.int64)  # each chain top's node
        node[chains] = np.arange(chains.size)
        anchor = np.concatenate([parents[chains], at[forked]])  # a row on the parent's chain
        up = np.where(anchor == NO_PARENT, -1, node[top[anchor]])
        who = np.concatenate([who, forked]).tolist()
        return PhyloTree.from_parents(
            up.tolist(),
            time[np.concatenate([last[order], at[forked]])].tolist(),
            [None if k < 0 else labels[k] for k in who],
            [None if k < 0 or tags is None else tags[k] for k in who],
        )
