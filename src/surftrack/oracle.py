"""Reference replay and retention-gap audits for placement policies.

Everything in :mod:`surftrack.surface.sites` is closed form.  This
module is the slow, obviously-correct counterpart: replay every deposit
from rank 0 and see what actually survives.  The two routes are kept
deliberately independent so each can catch the other lying; the CLI
``oracle`` subcommand and the equivalence test suite both lean on that.

Gap audits check the spacing guarantees the policies advertise:

* steady: after N deposits, adjacent retained ranks (with N appended)
  are never more than ``2 ** max(0, bit_length(N-1) - log2(S))`` apart.
* tilted: the gap ending at r' obeys ``r' - r <= max(4, N - r')`` while
  N is small enough for the surface; once ``floor(log2 N)`` reaches the
  overflow threshold ``(S - 2) / 2`` the bound may fail by design, and
  such violations are reported but flagged as clamp-regime.
* hybrid: the even ranks alone form a steady surface of S/2 slots over
  ceil(N/2) deposits, spaced two apart, and the odd ranks only split
  its gaps, so every gap is at most
  ``2 * steady_gap_bound(ceil(N/2), S/2)``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from .surface import sites
from .surface.annotation import _residency


def replay(
    policy: str, slot_count: int, counts: Iterable[int]
) -> Iterator[tuple[int, dict[int, int]]]:
    """Yield ``(n, slot -> resident rank)`` after each of the ascending
    deposit ``counts``, by placing every rank from 0 with ``site`` alone.

    One dict is updated in place between yields, so a whole sequence of
    counts costs one pass; no inversion formulas involved.
    """
    retained: dict[int, int] = {}
    rank = 0
    for n in counts:
        while rank < n:
            slot = sites.site(policy, rank, slot_count)
            if slot is not None:
                retained[slot] = rank
            rank += 1
        yield n, retained


def replay_retained(policy: str, slot_count: int, n_deposits: int) -> dict[int, int]:
    """Map slot -> resident rank after ``n_deposits``, by brute replay."""
    sites.validate_slot_count(policy, slot_count)
    return next(replay(policy, slot_count, [n_deposits]))[1]


def retained_ranks(policy: str, slot_count: int, n_deposits: int) -> list[int]:
    """Sorted ranks still resident after ``n_deposits``, by brute replay."""
    return sorted(replay_retained(policy, slot_count, n_deposits).values())


def closed_form_retained(policy: str, slot_count: int, n_deposits: int) -> dict[int, int]:
    """Map slot -> resident rank via the closed-form inversions, uncached,
    so a check never reads a table an earlier call left behind."""
    ranks, slots = _residency(policy, slot_count, n_deposits)
    return dict(zip(slots, ranks))


@dataclass(frozen=True)
class Mismatch:
    """One disagreement between replay and closed-form retention."""

    policy: str
    slot_count: int
    n_deposits: int
    slot: int
    replayed: int | None
    inverted: int | None


def equivalence_mismatches(
    policy: str, slot_count: int, n_values: list[int] | range
) -> list[Mismatch]:
    """Compare replay against inversion at each deposit count given.

    Replays incrementally, so a sorted range of counts costs one pass.
    """
    sites.validate_slot_count(policy, slot_count)
    wanted = sorted(set(int(n) for n in n_values))
    if not wanted or wanted[0] < 0:
        raise ValueError("deposit counts must be non-negative")
    out: list[Mismatch] = []
    for n, retained in replay(policy, slot_count, wanted):
        inverted = closed_form_retained(policy, slot_count, n)
        for slot in range(slot_count):
            inv, rep = inverted.get(slot), retained.get(slot)
            if inv != rep:
                out.append(Mismatch(policy, slot_count, n, slot, rep, inv))
    return out


@dataclass(frozen=True)
class GapViolation:
    """A retained-rank gap that exceeded the policy's advertised bound."""

    policy: str
    slot_count: int
    n_deposits: int
    rank: int
    next_rank: int
    gap: int
    bound: int
    clamp_regime: bool


@dataclass
class GapReport:
    """Outcome of a gap audit over all deposit counts up to a maximum."""

    policy: str
    slot_count: int
    max_deposits: int
    max_gap: int = 0
    max_gap_at: int = 0
    violations: list[GapViolation] = field(default_factory=list)

    @property
    def hard_violations(self) -> list[GapViolation]:
        return [v for v in self.violations if not v.clamp_regime]


def steady_gap_bound(n_deposits: int, slot_count: int) -> int:
    s = slot_count.bit_length() - 1
    return 1 << max(0, (n_deposits - 1).bit_length() - s)


def check_gap_bounds(policy: str, slot_count: int, max_deposits: int) -> GapReport:
    """Audit retention gaps for every N in 1..max_deposits.

    Appends N itself to the retained set so the trailing gap (how stale
    the newest retained rank is) gets checked too.  Also verifies rank 0
    stays resident throughout; a missing rank 0 is reported as a
    violation with bound 0.
    """
    sites.validate_slot_count(policy, slot_count)
    report = GapReport(policy, slot_count, max_deposits)
    cap = (slot_count - 2) >> 1
    for n, retained in replay(policy, slot_count, range(1, max_deposits + 1)):
        ranks = sorted(retained.values())
        clamped = policy == "tilted" and n.bit_length() - 1 >= cap
        if not ranks or ranks[0] != 0:
            report.violations.append(
                GapViolation(policy, slot_count, n, -1, ranks[0] if ranks else n, 0, 0, False)
            )
        ranks.append(n)
        for a, b in zip(ranks, ranks[1:]):
            gap = b - a
            if gap > report.max_gap:
                report.max_gap = gap
                report.max_gap_at = n
            if policy == "steady":
                bound = steady_gap_bound(n, slot_count)
            elif policy == "tilted":
                bound = max(4, n - b)
            else:
                bound = 2 * steady_gap_bound((n + 1) // 2, slot_count // 2)
            if gap > bound:
                report.violations.append(
                    GapViolation(policy, slot_count, n, a, b, gap, bound, clamped)
                )
    return report
