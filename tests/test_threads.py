"""Thread-per-PE execution against its lockstep fidelity contract."""

import threading

import numpy as np
import pytest

from surftrack.sim.config import ConfigError, GridConfig, Treatment
from surftrack.sim.engine import DeterministicGrid
from surftrack.sim.threads import MAX_THREADED_PES, ThreadedGrid


def lone_pe_config(**overrides) -> GridConfig:
    base = dict(width=1, height=1, generations=64, population=8, seed=2)
    base.update(overrides)
    return GridConfig(**base)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(),
        dict(layout="fitness", treatment=Treatment(mode="purifying"), seed=9),
        dict(
            layout="fitness",
            treatment=Treatment(mode="adaptive"),
            policy="steady",
            differentia_bits=8,
            seed=4,
        ),
    ],
    ids=["tagged-neutral", "fitness-purifying", "fitness-adaptive-8bit"],
)
def test_lone_pe_matches_lockstep_engine_exactly(overrides):
    """No links means no scheduling freedom: both executions consume the
    same stream in the same order and must agree bit for bit."""
    cfg = lone_pe_config(**overrides)
    det = DeterministicGrid(cfg)
    det.run()
    thr = ThreadedGrid(cfg)
    thr.run()
    pe = thr.pes[0]
    assert np.array_equal(pe.surf, det.pop["surf"][0])
    assert np.array_equal(pe.counter, det.pop["counter"][0])
    if pe.tag is not None:
        assert np.array_equal(pe.tag, det.pop["tag"][0])
    if pe.fit is not None:
        assert np.array_equal(pe.fit, det.pop["fit"][0])


def test_lone_pe_samples_identically():
    cfg = lone_pe_config()
    det = DeterministicGrid(cfg)
    det.run()
    thr = ThreadedGrid(cfg)
    thr.run()
    det_samples = det.sample_end_state(per_pe=3)
    thr_samples = thr.sample_end_state(per_pe=3)
    assert [s.fields for s in det_samples] == [s.fields for s in thr_samples]
    assert [s.label for s in det_samples] == [s.label for s in thr_samples]


def grid_run(**overrides) -> ThreadedGrid:
    base = dict(width=3, height=3, generations=120, population=8, seed=0)
    base.update(overrides)
    thr = ThreadedGrid(GridConfig(**base))
    thr.run()
    return thr


def test_migration_flows_everywhere():
    thr = grid_run()
    assert (thr.imported >= 1).all()
    assert (thr.exported >= 1).all()


def test_counters_bounded_by_generations():
    thr = grid_run(generations=60)
    for pe in thr.pes:
        assert (pe.counter <= 60).all()
        assert (pe.counter > 0).all()
        assert pe.generation == 60


def test_tags_conserved_across_threads():
    cfg = GridConfig(width=2, height=2, generations=40, population=8, seed=7)
    thr = ThreadedGrid(cfg)
    initial = set()
    for pe in thr.pes:
        initial |= set(pe.tag.tolist())
    thr.run()
    final = set()
    for pe in thr.pes:
        final |= set(pe.tag.tolist())
    assert final <= initial
    assert thr.founder_tag_count() == len(final)


def test_purifying_decay_holds_under_threads():
    thr = grid_run(
        generations=40,
        layout="fitness",
        treatment=Treatment(mode="purifying"),
    )
    for pe in thr.pes:
        assert (pe.fit <= 0.0).all()


def test_tracked_threaded_run_yields_a_forest():
    thr = grid_run(generations=50, track_perfect=True)
    samples = thr.sample_end_state(per_pe=1)
    ids = np.array([s.tracker_id for s in samples])
    tree = thr.tracker.to_tree(ids, [s.label for s in samples])
    assert tree.n_leaves == len(samples)
    tree.validate()


def test_wires_pair_up_with_the_neighbor_table():
    thr = ThreadedGrid(GridConfig(width=3, height=2, generations=1, population=4))
    from surftrack.sim.engine import OPPOSITE

    for pe in thr.pes:
        for d in range(4):
            q = thr.nbr[d, pe.p]
            wire = pe.wire_out[d]
            if q < 0:
                assert wire is None
            else:
                assert wire is thr.pes[int(q)].wire_in[OPPOSITE[d]] is not None


def test_fitness_layout_rejects_tag_queries():
    thr = ThreadedGrid(
        GridConfig(width=1, height=1, generations=1, population=4, layout="fitness")
    )
    thr.run()
    with pytest.raises(ValueError, match="no founder tag"):
        thr.founder_tag_count()


def test_grids_past_the_thread_cap_are_refused_before_any_thread_starts(monkeypatch):
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self))
    width = MAX_THREADED_PES + 1
    with pytest.raises(ConfigError, match=rf"{width}x1 grid .* capped at {MAX_THREADED_PES} PEs"):
        ThreadedGrid(GridConfig(width=width, height=1, generations=1, population=2))
    ThreadedGrid(GridConfig(width=MAX_THREADED_PES, height=1, generations=1, population=2))
    assert not started
