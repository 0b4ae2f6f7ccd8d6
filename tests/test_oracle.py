"""The replay oracle itself, and the audits built on it.

The oracle is the ground truth the closed forms are judged against, so
it gets its own hand-checked cases before anything trusts it.
"""

import pytest

from surftrack import oracle


def test_replay_matches_hand_worked_steady_map():
    assert oracle.replay_retained("steady", 4, 7) == {0: 0, 1: 4, 2: 2, 3: 6}


def test_replay_matches_hand_worked_tilted_map():
    got = oracle.replay_retained("tilted", 8, 8)
    assert got == {0: 0, 1: 7, 2: 4, 3: 6, 4: 1, 5: 5, 6: 3}


def test_retained_ranks_sorted_and_deduplicated():
    ranks = oracle.retained_ranks("steady", 4, 13)
    assert ranks == [0, 4, 8, 12]


def test_zero_deposits():
    assert oracle.replay_retained("hybrid", 8, 0) == {}
    assert oracle.closed_form_retained("hybrid", 8, 0) == {}


def test_equivalence_clean_on_moderate_range():
    for policy in ("steady", "tilted", "hybrid"):
        assert oracle.equivalence_mismatches(policy, 16, range(600)) == []


def test_equivalence_detects_a_broken_inversion(monkeypatch):
    """Sanity check that the checker can actually fail."""
    from surftrack.surface import sites

    real = sites.resident_rank

    def broken(policy, slot, counter, slot_count):
        r = real(policy, slot, counter, slot_count)
        if r == 4:
            return 5
        return r

    monkeypatch.setattr(oracle.sites, "resident_rank", broken)
    mismatches = oracle.equivalence_mismatches("steady", 8, range(40))
    assert mismatches
    first = mismatches[0]
    assert first.replayed == 4 and first.inverted == 5


def test_equivalence_detects_a_broken_inversion_behind_a_warm_cache(monkeypatch):
    """The cached residency tables hold the right ranks; the oracle must
    still invert with the broken function rather than read them."""
    from surftrack.surface import sites
    from surftrack.surface.annotation import residency

    residency.cache_clear()  # warm it with the true inversion, whatever ran before
    for n in range(40):
        residency("steady", 8, n)
    real = sites.resident_rank

    def broken(policy, slot, counter, slot_count):
        r = real(policy, slot, counter, slot_count)
        if r == 4:
            return 5
        return r

    monkeypatch.setattr(oracle.sites, "resident_rank", broken)
    mismatches = oracle.equivalence_mismatches("steady", 8, range(40))
    assert mismatches
    first = mismatches[0]
    assert first.replayed == 4 and first.inverted == 5


def test_equivalence_accepts_unsorted_checkpoints():
    a = oracle.equivalence_mismatches("steady", 8, [50, 10, 30])
    assert a == []


def test_steady_gap_bound_formula():
    assert oracle.steady_gap_bound(1, 8) == 1
    assert oracle.steady_gap_bound(8, 8) == 1
    assert oracle.steady_gap_bound(9, 8) == 2
    assert oracle.steady_gap_bound(17, 8) == 4
    assert oracle.steady_gap_bound(1 << 14, 64) == 1 << 8


def test_gap_report_steady_clean():
    report = oracle.check_gap_bounds("steady", 8, 2048)
    assert report.violations == []
    assert report.max_gap == 256
    assert report.hard_violations == []


def test_gap_report_tilted_clamp_regime_only():
    report = oracle.check_gap_bounds("tilted", 8, 64)
    assert report.hard_violations == []
    clamp = [v for v in report.violations if v.clamp_regime]
    assert clamp and len(clamp) == len(report.violations)
    # the overflow regime for S=8 starts once the counter needs more
    # than (S-2)/2 = 3 bits
    assert min(v.n_deposits for v in clamp) >= 8


def test_gap_report_tilted_wide_surface_clean():
    report = oracle.check_gap_bounds("tilted", 64, 4096)
    assert report.violations == []


def test_gap_report_hybrid_clean():
    report = oracle.check_gap_bounds("hybrid", 16, 4096)
    assert report.violations == []


def test_gap_report_hybrid_reports_a_tightened_bound(monkeypatch):
    """The hybrid bound is met with equality somewhere, so halving it
    must surface violations rather than pass silently."""
    real = oracle.steady_gap_bound
    monkeypatch.setattr(oracle, "steady_gap_bound", lambda n, s: max(1, real(n, s) // 2))
    report = oracle.check_gap_bounds("hybrid", 16, 4096)
    assert report.violations
    assert report.hard_violations == report.violations  # hybrid has no clamp regime
    v = report.violations[0]
    assert v.policy == "hybrid" and v.gap > v.bound


def test_gap_violation_records_context():
    report = oracle.check_gap_bounds("tilted", 8, 32)
    v = report.violations[0]
    assert v.policy == "tilted" and v.slot_count == 8
    assert v.gap == v.next_rank - v.rank
    assert v.gap > v.bound


def test_unknown_policy_rejected():
    with pytest.raises(ValueError):
        oracle.replay_retained("best", 8, 10)
