"""The asynchronous step-or-stall schedule against its lockstep contract."""

import math

import numpy as np
import pytest

from surftrack.phylo.serialize import export_alife_csv
from surftrack.sim import engine
from surftrack.sim.config import GridConfig, Treatment
from surftrack.sim.engine import MAX_NEIGHBOR_LEAD, STEP_P, DeterministicGrid


def lone_pe_config(**overrides) -> GridConfig:
    base = dict(width=1, height=1, generations=64, population=8, seed=2)
    base.update(overrides)
    return GridConfig(**base)


def async_run(**overrides) -> DeterministicGrid:
    base = dict(width=3, height=3, generations=120, population=8, seed=0)
    base.update(overrides)
    grid = DeterministicGrid(GridConfig(**base), asynchronous=True)
    grid.run()
    return grid


def assert_same_state(a: DeterministicGrid, b: DeterministicGrid) -> None:
    assert a.pop.keys() == b.pop.keys()
    for name in a.pop:
        assert np.array_equal(a.pop[name], b.pop[name]), name
    assert np.array_equal(a.generation, b.generation)


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
    """A lone PE has no neighbors to wait for: stalls only delay its steps,
    which consume its stream in the same order, so both modes agree."""
    cfg = lone_pe_config(**overrides)
    det = DeterministicGrid(cfg)
    det.run()
    asy = DeterministicGrid(cfg, asynchronous=True)
    asy.run()
    assert asy.cycle > det.cycle == cfg.generations  # it did stall
    assert_same_state(det, asy)


def test_lone_pe_samples_identically():
    cfg = lone_pe_config(sample_per_pe=3)
    det = DeterministicGrid(cfg)
    det.run()
    asy = DeterministicGrid(cfg, asynchronous=True)
    asy.run()
    det_samples = det.sample_end_state()
    asy_samples = asy.sample_end_state()
    assert [s.fields for s in det_samples] == [s.fields for s in asy_samples]
    assert [s.label for s in det_samples] == [s.label for s in asy_samples]


def test_stepping_every_eligible_pe_is_lockstep(monkeypatch):
    """With STEP_P = 1 nothing ever stalls, so the gather/scatter path must
    reproduce lockstep byte for byte, migrants and lineages included."""
    monkeypatch.setattr(engine, "STEP_P", 1.0)
    cfg = GridConfig(
        width=3,
        height=3,
        generations=150,
        population=8,
        seed=5,
        layout="fitness",
        policy="steady",
        torus=True,
        loss_rate=0.2,
        track_perfect=True,
        treatment=Treatment(mode="adaptive"),
    )
    det = DeterministicGrid(cfg)
    det.run()
    asy = DeterministicGrid(cfg, asynchronous=True)
    asy.run()
    assert asy.cycle == det.cycle
    assert_same_state(det, asy)
    assert np.array_equal(det.imported, asy.imported)
    assert np.array_equal(det.exported, asy.exported)
    det_samples, asy_samples = det.sample_end_state(), asy.sample_end_state()
    assert det_samples == asy_samples
    ids = np.array([s.tracker_id for s in det_samples])
    labels = [s.label for s in det_samples]
    assert export_alife_csv(det.tracker.to_tree(ids, labels)) == export_alife_csv(
        asy.tracker.to_tree(ids, labels)
    )


def test_no_pe_leads_a_neighbor_by_more_than_the_bound():
    grid = DeterministicGrid(
        GridConfig(width=4, height=3, generations=200, population=4, seed=1),
        asynchronous=True,
    )
    leads = []
    step = grid.step_cycle

    def checked_step():
        step()
        gen = grid.generation
        leads.append(int((gen[:, None] - gen[grid.nbr.T])[grid.valid.T].max()))

    grid.step_cycle = checked_step
    grid.run()
    assert len(leads) == grid.cycle
    assert max(leads) == MAX_NEIGHBOR_LEAD  # the bound binds, and holds


def test_an_eligible_pe_steps_at_step_p():
    """A PE below the run's goal and fewer than MAX_NEIGHBOR_LEAD
    generations ahead of its slowest neighbor steps with chance STEP_P in a
    cycle, within four standard errors; no other PE steps."""
    grid = DeterministicGrid(
        GridConfig(width=8, height=8, generations=300, population=4, seed=3),
        asynchronous=True,
    )
    trials = steps = 0
    step = grid.step_cycle

    def counted_step():
        nonlocal trials, steps
        gen = grid.generation.copy()
        slowest = np.where(grid.valid, gen[grid.nbr], gen.max()).min(axis=0)
        eligible = (gen < grid._goal) & (gen - slowest < MAX_NEIGHBOR_LEAD)
        step()
        stepped = grid.generation > gen
        assert not (stepped & ~eligible).any()
        trials += int(eligible.sum())
        steps += int(stepped.sum())

    grid.step_cycle = counted_step
    grid.run()
    assert trials > 10_000
    assert abs(steps - trials * STEP_P) <= 4 * math.sqrt(trials * STEP_P * (1 - STEP_P))


def test_a_schedule_draw_at_step_p_stalls(monkeypatch):
    """An eligible PE steps when its schedule uniform falls strictly below
    STEP_P: a uniform of exactly STEP_P stalls, the one just below steps."""
    grid = DeterministicGrid(
        GridConfig(width=3, height=3, generations=10, population=4), asynchronous=True
    )
    grid._goal = 10
    for u, steps in ((STEP_P, False), (np.nextafter(STEP_P, 0.0), True)):
        monkeypatch.setattr(engine.streams, "to_unit", lambda draws, u=u: np.full(draws.shape, u))
        assert (grid._schedule() == steps).all()


def test_migration_flows_everywhere():
    grid = async_run()
    assert (grid.imported >= 1).all()
    assert (grid.exported >= 1).all()


def test_counters_bounded_by_cycles():
    """A lineage deposits at most once per cycle, and every PE's last step
    deposits into each genome it holds."""
    grid = async_run(generations=60)
    assert (grid.generation == 60).all()
    assert grid.cycle > 60
    assert (grid.pop["counter"] <= grid.cycle).all()
    assert (grid.pop["counter"] >= 1).all()


def test_tags_conserved():
    cfg = GridConfig(width=2, height=2, generations=40, population=8, seed=7)
    grid = DeterministicGrid(cfg, asynchronous=True)
    initial = set(grid.pop["tag"].ravel().tolist())
    grid.run()
    final = set(grid.pop["tag"].ravel().tolist())
    assert final <= initial


def test_purifying_fitness_only_decays():
    grid = async_run(generations=40, layout="fitness", treatment=Treatment(mode="purifying"))
    assert (grid.pop["fit"] <= 0.0).all()
    assert (grid.pop["fit"] < 0.0).any()


def test_tracked_run_yields_a_forest():
    grid = async_run(generations=50, track_perfect=True)
    samples = grid.sample_end_state()
    ids = np.array([s.tracker_id for s in samples])
    tree = grid.tracker.to_tree(ids, [s.label for s in samples])
    assert tree.n_leaves == len(samples)
    tree.validate()


def test_fitness_layout_rejects_tag_queries():
    grid = DeterministicGrid(lone_pe_config(generations=1, layout="fitness"), asynchronous=True)
    grid.run()
    assert "tag" not in grid.pop
    assert grid.sample_end_state()[0].fields.founder_tag is None
