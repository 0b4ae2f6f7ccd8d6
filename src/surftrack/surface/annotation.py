"""Per-lineage surface state: deposit, inversion, record extraction.

Which ranks a surface holds depends on its counter alone, so
:func:`residency` keeps one table per counter for the whole process in a
bounded LRU cache: every record set of a given counter, from
:meth:`SurfaceAnnotation.to_records` or :func:`surface_records`, holds
the same ``held`` tuple.  :func:`_residency` is the same inversion
uncached, for checks that must not read the cache.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import sites

#: Counters whose residency table :func:`residency` keeps cached.
RESIDENCY_CACHE_SIZE = 1024


@dataclass(frozen=True, slots=True)
class RecordSet:
    """Immutable snapshot of one annotation's recoverable history.

    ``held`` is the resident ranks, ascending, and ``values`` the
    differentia at them.  ``counter`` is the total number of deposits the
    annotation had seen, which doubles as the lineage's age.
    """

    held: tuple[int, ...]
    values: tuple[int, ...]
    counter: int

    def ranks(self) -> tuple[int, ...]:
        return self.held

    def mapping(self) -> dict[int, int]:
        return dict(zip(self.held, self.values))

    def __len__(self) -> int:
        return len(self.held)


@dataclass
class SurfaceAnnotation:
    """A fixed-width differentia buffer plus its deposit counter.

    The buffer starts zeroed.  Which slots actually hold data is never
    tracked explicitly; it is recomputed from the counter on demand,
    which is the point of the closed-form inversions.

    Instances are not thread safe; the simulation engine only ever
    mutates an annotation from the PE that owns it.
    """

    policy: str
    slot_count: int
    differentia_bits: int = 1
    counter: int = 0
    counter_capacity: int | None = None
    slots: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        sites.validate_slot_count(self.policy, self.slot_count)
        if not 1 <= self.differentia_bits <= 8:
            raise ValueError(f"differentia_bits must be 1..8, got {self.differentia_bits}")
        if not self.slots:
            self.slots = [0] * self.slot_count
        elif len(self.slots) != self.slot_count:
            raise ValueError(
                f"expected {self.slot_count} slot values, got {len(self.slots)}"
            )
        if self.counter < 0:
            raise ValueError(f"counter must be non-negative, got {self.counter}")
        if self.counter_capacity is not None and self.counter >= self.counter_capacity:
            raise ValueError(
                f"counter {self.counter} is at or past its capacity {self.counter_capacity}"
            )
        w = self.differentia_bits
        for k, v in enumerate(self.slots):
            if not 0 <= v < 1 << w:
                raise ValueError(f"slot {k} value {v} out of range for {w} bit(s)")

    def deposit(self, value: int) -> None:
        """Record ``value`` for the current rank and advance the counter.

        The counter advances even when the policy discards the rank;
        discarded generations are simply never recoverable.  Raises
        OverflowError instead of wrapping when the counter would exceed
        its capacity.
        """
        if self.counter_capacity is not None and self.counter >= self.counter_capacity - 1:
            raise OverflowError(
                f"deposit would push the counter past {self.counter_capacity - 1}; "
                "widen the layout rather than wrapping"
            )
        if not 0 <= value < (1 << self.differentia_bits):
            raise ValueError(
                f"differentia {value} out of range for {self.differentia_bits} bit(s)"
            )
        slot = sites.site(self.policy, self.counter, self.slot_count)
        if slot is not None:
            self.slots[slot] = value
        self.counter += 1

    def resident_rank(self, slot: int) -> int | None:
        """Rank whose differentia ``slot`` currently holds, or None."""
        return sites.resident_rank(self.policy, slot, self.counter, self.slot_count)

    def to_records(self) -> RecordSet:
        """Extract the resident ranks and the differentia at them."""
        held, slots = residency(self.policy, self.slot_count, self.counter)
        return RecordSet(held, tuple(self.slots[s] for s in slots), self.counter)


@functools.lru_cache(maxsize=RESIDENCY_CACHE_SIZE)
def residency(
    policy: str, slot_count: int, counter: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The ranks resident after ``counter`` deposits, ascending, and the
    slots that hold them: :func:`_residency`, cached.

    Residency depends on the counter alone, so every surface with the
    same counter, in any call, reads its records through the same table.
    The cache keeps the last ``RESIDENCY_CACHE_SIZE`` tables.  At 64
    slots an entry costs about 3.6 KB in the worst case (64 ranks past
    2**30, the cache's own bookkeeping included), so under 4 MB when full.
    """
    return _residency(policy, slot_count, counter)


def _residency(
    policy: str, slot_count: int, counter: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Uncached :func:`residency`, straight from the closed-form inversions.

    No two slots hold one rank, so ordering by rank fixes the slot order too.
    """
    sites.validate_slot_count(policy, slot_count)
    held = sorted(
        (rank, slot)
        for slot in range(slot_count)
        if (rank := sites.resident_rank(policy, slot, counter, slot_count)) is not None
    )
    return tuple(r for r, _ in held), tuple(s for _, s in held)


def surface_records(
    policy: str, slot_count: int, counters: np.ndarray, surfaces: np.ndarray
) -> list[RecordSet]:
    """Record sets of many surfaces at once, one per row of ``surfaces``.

    ``counters`` is (n,) and ``surfaces`` is an (n, slot_count) uint8
    array.  Each distinct counter's residency table is read once, and its
    rank tuple is shared by every record set of that counter in the
    process.
    """
    out: list[RecordSet] = [None] * len(counters)  # type: ignore[list-item]
    distinct, group = np.unique(np.asarray(counters, dtype=np.int64), return_inverse=True)
    rows = np.argsort(group, kind="stable")
    cuts = np.cumsum(np.bincount(group, minlength=len(distinct)))[:-1]
    for counter, members in zip(distinct.tolist(), np.split(rows, cuts)):
        held, slots = residency(policy, slot_count, counter)
        values = surfaces[np.ix_(members, np.asarray(slots, dtype=np.intp))].tolist()
        for row, vals in zip(members.tolist(), values):
            out[row] = RecordSet(held, tuple(vals), counter)
    return out
