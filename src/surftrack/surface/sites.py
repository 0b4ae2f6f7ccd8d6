"""Slot placement rules for fixed-width lineage fingerprint surfaces.

A surface is a buffer of ``slot_count`` slots (a power of two).  At each
generation the lineage draws a small random value (a differentia) and
writes it into the slot chosen by the placement policy, or drops it when
the policy declines to store that generation.  Old entries are never
moved; pruning happens implicitly by overwrite.

Placement depends only on ``(policy, slot_count, rank)``.  That is the
whole trick: given a slot index and the current deposit counter, the
inverse functions here recover which generation's differentia the slot
holds right now, without any stored metadata.

Three policies are provided:

* ``steady``  -- retained ranks stay roughly evenly spaced over history.
  Ranks whose odd part is at least ``slot_count`` are never stored.
* ``tilted``  -- retained ranks crowd toward the present.  Slot 0 keeps
  rank 0 forever, slot 1 absorbs every rank with a high hanoi value, and
  each remaining hanoi band alternates between a dedicated slot pair.
* ``hybrid``  -- even ranks go to a steady sub-surface in the low half,
  odd ranks to a tilted sub-surface in the high half.

All functions take and return plain ints.  The simulation engine
tabulates :func:`site` per rank once and reads the table, so this is
the only placement implementation.
"""

from __future__ import annotations

POLICIES = ("steady", "tilted", "hybrid")


def hanoi_value(rank: int) -> int:
    """Number of trailing zero bits of ``rank + 1``.

    The sequence 0,1,0,2,0,1,0,3,... ; value v first appears at rank
    2**v - 1 and recurs every 2**(v+1) ranks.
    """
    r = rank + 1
    return (r & -r).bit_length() - 1


def _ctz(x: int) -> int:
    return (x & -x).bit_length() - 1


def validate_slot_count(policy: str, slot_count: int) -> None:
    """Reject slot counts the policy cannot index.

    Requires a power of two, at least 4 for steady/tilted and at least 8
    for hybrid (each hybrid half must itself be a valid sub-surface).
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    if slot_count < 4 or slot_count & (slot_count - 1):
        raise ValueError(f"slot_count must be a power of two >= 4, got {slot_count}")
    if policy == "hybrid" and slot_count < 8:
        raise ValueError(f"hybrid needs slot_count >= 8, got {slot_count}")


def steady_site(rank: int, slot_count: int) -> int | None:
    """Slot for ``rank`` under the steady policy, or None to discard.

    Ranks whose odd part is >= slot_count are discarded.  Stored ranks
    are contracted into [0, slot_count) by repeatedly folding the top
    bit; each fold halves the distance between neighbours of the same
    magnitude, which is what keeps the retained set evenly spread.
    """
    if rank < slot_count:
        return rank
    if (rank >> _ctz(rank)) >= slot_count:
        return None
    s = slot_count.bit_length() - 1
    t = rank
    while t >= slot_count:
        e = t.bit_length() - s
        i = (t - (1 << (s + e - 1))) >> e
        t = (2 * i + 1) << (e - 1)
    return t


def tilted_site(rank: int, slot_count: int) -> int:
    """Slot for ``rank`` under the tilted policy (never discards).

    Hanoi band h owns the slot pair (2 + 2h, 3 + 2h) and alternates
    between the two as successive ranks of that band arrive, so one
    older entry survives alongside the newest.  Bands at or above
    (slot_count - 2) / 2 all share the overflow slot 1.
    """
    if rank == 0:
        return 0
    h = hanoi_value(rank)
    cap = (slot_count - 2) >> 1
    if h >= cap:
        return 1
    i = (rank - ((1 << h) - 1)) >> (h + 1)
    return 2 + 2 * h + (i & 1)


def hybrid_site(rank: int, slot_count: int) -> int | None:
    """Slot for ``rank`` under the hybrid policy, or None to discard.

    Even ranks delegate to a steady sub-surface of half size (discards
    propagate); odd ranks delegate to a tilted sub-surface offset into
    the high half.
    """
    half = slot_count >> 1
    if rank & 1:
        return half + tilted_site(rank >> 1, half)
    return steady_site(rank >> 1, half)


def site(policy: str, rank: int, slot_count: int) -> int | None:
    if policy == "steady":
        return steady_site(rank, slot_count)
    if policy == "tilted":
        return tilted_site(rank, slot_count)
    if policy == "hybrid":
        return hybrid_site(rank, slot_count)
    raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")


def steady_resident(slot: int, counter: int, slot_count: int) -> int | None:
    """Rank currently held by ``slot`` after ``counter`` steady deposits.

    Walks the slot's write chain: slot s is first written by rank s,
    then by a deterministic sequence of doubling-spaced successors.  The
    resident is the last chain element below the counter.  Returns None
    while the slot has never been written.
    """
    if counter <= 0 or slot >= counter:
        return None
    if slot == 0:
        return 0
    s = slot_count.bit_length() - 1
    r = slot
    while True:
        c = _ctz(r)
        o = r >> c
        nxt = (1 << (s + c)) + ((o - 1) >> 1 << (c + 1))
        if nxt >= counter:
            return r
        r = nxt


def tilted_resident(slot: int, counter: int, slot_count: int) -> int | None:
    """Rank currently held by ``slot`` after ``counter`` tilted deposits."""
    if counter <= 0:
        return None
    if slot == 0:
        return 0
    cap = (slot_count - 2) >> 1
    if slot == 1:
        # Largest rank below the counter with hanoi value >= cap; such
        # ranks are exactly those congruent to -1 mod 2**cap.
        block = 1 << cap
        if counter < block:
            return None
        return (counter >> cap << cap) - 1
    h = (slot - 2) >> 1
    parity = (slot - 2) & 1
    first = (1 << h) - 1
    if counter <= first:
        return None
    i = (counter - 1 - first) >> (h + 1)
    if (i & 1) != parity:
        i -= 1
    if i < 0:
        return None
    if h == 0 and parity == 0 and i == 0:
        # Rank 0 belongs to slot 0; band 0's even-index slot starts
        # with its second even visitor (rank 4).
        return None
    return first + (i << (h + 1))


def hybrid_resident(slot: int, counter: int, slot_count: int) -> int | None:
    """Rank currently held by ``slot`` after ``counter`` hybrid deposits."""
    half = slot_count >> 1
    if slot < half:
        sub = steady_resident(slot, (counter + 1) >> 1, half)
        return None if sub is None else 2 * sub
    sub = tilted_resident(slot - half, counter >> 1, half)
    return None if sub is None else 2 * sub + 1


def resident_rank(policy: str, slot: int, counter: int, slot_count: int) -> int | None:
    """Rank whose differentia ``slot`` holds after ``counter`` deposits.

    None means the slot has never been written.  Closed form; total work
    is O(log counter) in the worst case and constant for most slots.
    """
    if not 0 <= slot < slot_count:
        raise ValueError(f"slot {slot} out of range for {slot_count} slots")
    if policy == "steady":
        return steady_resident(slot, counter, slot_count)
    if policy == "tilted":
        return tilted_resident(slot, counter, slot_count)
    if policy == "hybrid":
        return hybrid_resident(slot, counter, slot_count)
    raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
