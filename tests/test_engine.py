"""Behavior of the deterministic grid engine."""

import copy
import importlib.util
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from surftrack.phylo.reconstruct import estimate_mrca_range
from surftrack.sim import streams
from surftrack.sim.config import GridConfig, Treatment
from surftrack.sim.engine import OPPOSITE, DeterministicGrid, neighbor_table
from surftrack.surface.annotation import SurfaceAnnotation
from surftrack.surface.sites import site


def records_of(sample, config):
    ann = SurfaceAnnotation(
        config.policy,
        config.slot_count,
        config.differentia_bits,
        counter=sample.fields.counter,
        slots=list(sample.fields.surface),
    )
    return ann.to_records()


def run_grid(**overrides) -> DeterministicGrid:
    base = dict(width=3, height=3, generations=60, population=8, seed=0)
    base.update(overrides)
    eng = DeterministicGrid(GridConfig(**base))
    eng.run()
    return eng


# -- neighbor table --------------------------------------------------------


def test_bounded_edges_have_missing_neighbors():
    t = neighbor_table(3, 3, torus=False)
    center = 4  # (1, 1)
    assert sorted(t[:, center].tolist()) == [1, 3, 5, 7]
    corner = 0  # (0, 0): no north, no west
    assert t[0, corner] == -1 and t[3, corner] == -1
    assert t[1, corner] == 1 and t[2, corner] == 3


def test_torus_wraps_every_direction():
    t = neighbor_table(3, 3, torus=True)
    assert (t >= 0).all()
    corner = 0
    assert t[0, corner] == 6  # north wraps to bottom row
    assert t[3, corner] == 2  # west wraps to east column


def test_neighbor_links_are_mutual():
    for torus in (False, True):
        t = neighbor_table(4, 3, torus=torus)
        for d in range(4):
            for p in range(12):
                q = t[d, p]
                if q >= 0:
                    assert t[OPPOSITE[d], q] == p


def test_grid_has_every_method_the_benchmark_tracer_wraps():
    """perfbench wraps grid methods by name and records a missing one as an
    absent boundary, not an error; a rename must fail here instead."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    wrapped = [attr for attr, _ in tracing.GRID_STAGES]
    stages = ("_transport_tick", "_inject_migrants", "_refill_emigrants")
    stages += ("_tournament", "_mutate", "_deposit")
    assert {"step_cycle", *stages, "sample_end_state"} <= set(wrapped)
    for attr in wrapped:
        assert callable(getattr(DeterministicGrid, attr, None)), attr


# -- determinism -----------------------------------------------------------


def test_identical_configs_replay_identically():
    a = run_grid()
    b = run_grid()
    for name in a.pop:
        assert np.array_equal(a.pop[name], b.pop[name]), name
    assert np.array_equal(a.imported, b.imported)
    assert np.array_equal(a.exported, b.exported)


def test_seed_changes_the_outcome():
    a = run_grid(seed=0)
    b = run_grid(seed=1)
    assert not np.array_equal(a.pop["surf"], b.pop["surf"])


@pytest.mark.parametrize(
    "overrides",
    [
        dict(),
        dict(layout="fitness", policy="steady", treatment=Treatment(mode="adaptive")),
        dict(
            layout="fitness",
            policy="hybrid",
            differentia_bits=8,
            slot_count=16,
            track_perfect=True,
            treatment=Treatment(mode="purifying"),
        ),
    ],
    ids=["tagged-tilted", "adaptive-steady", "purifying-hybrid-8bit-tracked"],
)
def test_running_past_the_configured_generations_continues_the_run(overrides):
    """run(a) then run(b) on a grid configured for a generations equals one
    run of a + b: counters outgrow the configured length mid-run."""
    a, b = 30, 90
    split = DeterministicGrid(GridConfig(width=3, height=3, generations=a, population=8, **overrides))
    split.run(a)
    split.run(b)
    whole = run_grid(generations=a + b, **overrides)
    assert split.cycle == whole.cycle == a + b
    for name in whole.pop:
        assert np.array_equal(split.pop[name], whole.pop[name]), name


@pytest.mark.parametrize("slots", [16, 128])
@pytest.mark.parametrize("bits", [1, 3, 8])
@pytest.mark.parametrize("policy", ["steady", "tilted", "hybrid"])
def test_engine_deposits_where_the_reference_places(policy, bits, slots):
    """A lone genome's end-state surface equals a SurfaceAnnotation fed the
    differentiae it drew.  Runs in several calls past the configured length,
    so the engine's per-rank deposit table grows several times.  A 3-bit
    field pads to a 4-bit stride, and 1-bit surfaces of 128 slots and all
    wider ones span several words."""
    config = GridConfig(
        width=1, height=1, generations=5, population=1, policy=policy,
        slot_count=slots, differentia_bits=bits,
    )
    eng = DeterministicGrid(config)
    for todo in (None, 7, 40, None):
        eng.run(todo)
    gens = int(eng.generation[0])
    assert gens == 57
    # PE 0's stream: the founder's tag, then per generation the 2*K*n
    # tournament draws and the one deposit draw (no migration on a lone PE).
    key = streams.stream_key(config.seed, 0)
    per_gen = 2 * config.tournament_size + 1
    ref = SurfaceAnnotation(policy, config.slot_count, bits)
    for g in range(gens):
        ref.deposit(streams.raw_draw(key, 1 + g * per_gen + per_gen - 1) & ((1 << bits) - 1))
    (sample,) = eng.sample_end_state()
    assert sample.fields.counter == ref.counter == gens
    assert list(sample.fields.surface) == ref.slots


def test_tournament_follows_the_reference_selection_rule():
    """Best fitness wins; equal fitness goes to the highest tie uniform."""
    P, K, n = 4, 12, 5
    eng = DeterministicGrid(
        GridConfig(width=2, height=2, generations=1, population=K, layout="fitness", seed=4)
    )
    eng.pop["fit"][:] = np.random.default_rng(0).integers(0, 3, size=(P, K))
    eng.pop["counter"][:] = np.arange(K)  # lane labels
    bank = copy.deepcopy(eng.bank)
    cand = streams.to_index(bank.draw(np.arange(P), K * n), K).reshape(P, K, n)
    ties = streams.to_unit(bank.draw(np.arange(P), K * n)).reshape(P, K, n)
    f = eng.pop["fit"][np.arange(P)[:, None, None], cand]
    score = np.where(f == f.max(axis=2, keepdims=True), ties, -1.0)
    winner = np.take_along_axis(cand, score.argmax(axis=2)[:, :, None], axis=2)[:, :, 0]
    eng._tournament(eng.pop, eng._all)
    assert np.array_equal(eng.pop["counter"], winner)


@pytest.mark.parametrize("ids", [None, [0, 3, 4, 8]], ids=["lockstep", "subset"])
def test_tagged_tournament_follows_the_reference_selection_rule(ids):
    """Tags all score 0, so the highest tie uniform wins, the first on
    equality; the tagged tournament reads only some of its block but every
    stepping cursor still ends the full 2*K*n draws further on."""
    K, n = 12, GridConfig.tournament_size
    eng = DeterministicGrid(GridConfig(width=3, height=3, generations=1, population=K, seed=6))
    eng.pop["counter"][:] = np.arange(K)  # lane labels
    ids = eng._all if ids is None else np.array(ids)
    before = eng.bank.positions.copy()
    draws = copy.deepcopy(eng.bank).draw(ids, 2 * K * n)
    cand = streams.to_index(draws[:, : K * n], K).reshape(len(ids), K, n)
    ties = streams.to_unit(draws[:, K * n :]).reshape(len(ids), K, n)
    winner = np.take_along_axis(cand, ties.argmax(axis=2)[:, :, None], axis=2)[:, :, 0]
    pop = {name: arr[ids] for name, arr in eng.pop.items()}
    eng._tournament(pop, ids)
    assert np.array_equal(pop["counter"], winner)
    moved = before.copy()
    moved[ids] += np.uint64(2 * K * n)
    assert np.array_equal(eng.bank.positions, moved)


@pytest.mark.parametrize("mode", ["purifying", "adaptive"])
@pytest.mark.parametrize("ids", [None, [1, 2, 7]], ids=["lockstep", "subset"])
def test_mutation_moves_cursors_3k_per_pass(mode, ids):
    """Every stepping cursor ends 3*K draws further on per mutation pass,
    and each lane the gate hits moves by its own block's u1 and u2."""
    K = 16
    treatment = Treatment(mode=mode, deleterious_p=0.4, beneficial_p=0.3)
    eng = DeterministicGrid(
        GridConfig(width=3, height=3, generations=1, population=K, layout="fitness",
                   treatment=treatment, seed=11)
    )
    ids = eng._all if ids is None else np.array(ids)
    fit = np.random.default_rng(1).normal(size=(len(ids), K)).astype(np.float32)
    want = fit.copy()
    bank = copy.deepcopy(eng.bank)
    passes = [(0.4, -1.0)] + ([(0.3, 1.0)] if mode == "adaptive" else [])
    for p, sigma in passes:
        u = streams.to_unit(bank.draw(ids, 3 * K))
        hit = u[:, :K] < p
        mag = streams.normal_magnitudes(u[:, K : 2 * K], u[:, 2 * K :]) * sigma
        want[hit] += mag[hit].astype(np.float32)
    before = eng.bank.positions.copy()
    pop = {"fit": fit.copy()}
    eng._mutate(pop, ids)
    assert np.array_equal(pop["fit"], want)
    moved = before.copy()
    moved[ids] += np.uint64(3 * K * len(passes))
    assert np.array_equal(eng.bank.positions, moved)
    assert np.array_equal(eng.bank.positions, bank.positions)


def test_tournament_keeps_the_first_of_equal_tie_uniforms():
    """Tie draws that differ only below the 53 bits to_unit keeps are equal
    ties, and the earliest such candidate wins."""
    K = 4
    eng = DeterministicGrid(GridConfig(width=1, height=1, generations=1, population=K))
    eng.pop["counter"][:] = np.arange(K)  # lane labels
    cands = [0, 1, 2, 3, 0]  # to_index(c << 62, 4) == c
    ties = [(7 << 11) | 0x7FF, 9 << 11, (9 << 11) | 0x400, (3 << 11) | 0x7FF, (9 << 11) | 0x7FF]
    lane = [c << 62 for c in cands]
    row = np.array(lane * K + ties * K, dtype=np.uint64)[None, :]
    # The block starts at position 0; the tagged tournament reads it through `at`.
    eng.bank.positions[:] = 0
    eng.bank.at = lambda streams, base, offsets: row[:, (base[:, None] + offsets)[0]]
    eng._tournament(eng.pop, eng._all)
    assert eng.pop["counter"].tolist() == [[1] * K]


def test_zero_generations_is_a_fresh_machine():
    eng = run_grid(generations=0)
    assert (eng.pop["counter"] == 0).all()
    assert eng.cycle == 0
    assert len(eng.sample_end_state()) == 9


# -- counters and migration -------------------------------------------------


def test_lone_pe_counters_equal_generations():
    eng = run_grid(width=1, height=1, generations=75)
    assert (eng.pop["counter"] == 75).all()


def test_grid_counters_never_exceed_generations():
    eng = run_grid(generations=80)
    assert (eng.pop["counter"] <= 80).all()
    # time spent in a migration buffer is missed deposits, and the lag is
    # inherited; by now every lineage has a buffered ancestor somewhere
    assert eng.pop["counter"].max() < 80
    assert eng.pop["counter"].min() > 0


def test_every_pe_imports_and_exports():
    eng = run_grid(generations=120)
    assert (eng.imported >= 1).all()
    assert (eng.exported >= 1).all()


def test_lone_pe_never_migrates():
    eng = run_grid(width=1, height=1, generations=40)
    assert eng.imported.sum() == 0
    assert eng.exported.sum() == 0


def test_transit_loss_reduces_arrivals():
    clean = run_grid(generations=80)
    lossy = run_grid(generations=80, loss_rate=0.9)
    assert lossy.imported.sum() < clean.imported.sum()
    assert lossy.imported.sum() >= 0


@pytest.mark.parametrize("asynchronous", [False, True], ids=["lockstep", "asynchronous"])
def test_lost_migrants_are_counted_at_the_loss_rate(asynchronous):
    def run(loss_rate):
        config = GridConfig(width=3, height=3, generations=200, population=8, loss_rate=loss_rate)
        eng = DeterministicGrid(config, asynchronous=asynchronous)
        eng.run()
        return int(eng.lost.sum()), int(eng.exported.sum())

    assert run(0.0)[0] == 0
    lost, exported = run(0.3)
    trials = lost + exported  # every departure is delivered or lost
    assert trials > 1000
    bound = 4 * math.sqrt(0.3 * 0.7 / trials)
    assert abs(lost / trials - 0.3) < bound


# -- whole-grid migration against the per-direction reference ----------------
#
# The engine moves migrants over all 4P links in one pass per stage.  These
# reference stages handle one direction at a time, as the protocol reads: a
# PE's draws in N, E, S, W order, transport's loss draws direction by
# direction, and colliding inject writes applied one slot column at a time.


def reference_transport(g):
    R = GridConfig.RECEIVE_CAPACITY
    for d in range(4):
        src = np.nonzero(g.emig_full[d] & g.valid[d])[0]
        if not src.size:
            continue
        dst = g.nbr[d, src]
        dd = OPPOSITE[d]
        room = g.stage_n[dd, dst] < R
        src, dst = src[room], dst[room]
        if not src.size:
            continue
        if g.config.loss_rate > 0.0:
            u = streams.to_unit(g.bank.draw(np.array([g._transport_stream]), len(src))[0])
            kept = u >= g.config.loss_rate
            g.lost[src[~kept]] += 1
        else:
            kept = np.ones(len(src), dtype=bool)
        ksrc, kdst = src[kept], dst[kept]
        if ksrc.size:
            j = g.stage_n[dd, kdst]
            for name, arr in g.stage.items():
                arr[dd, kdst, j] = g.emig[name][d, ksrc]
            g.stage_n[dd, kdst] += 1
            g.exported[ksrc] += 1
        g.emig_full[d, src] = False


def reference_inject(g, active):
    K, R = g.config.population, GridConfig.RECEIVE_CAPACITY
    for d in range(4):
        sel = np.nonzero((g.stage_n[d] >= R) & active)[0]
        if not sel.size:
            continue
        idx = streams.to_index(g.bank.draw(sel, R), K)
        for j in range(R):
            for name, arr in g.pop.items():
                arr[sel, idx[:, j]] = g.stage[name][d, sel, j]
        g.stage_n[d, sel] = 0
        g.imported[sel] += R


def reference_refill(g, active):
    K = g.config.population
    for d in range(4):
        sel = np.nonzero(~g.emig_full[d] & g.valid[d] & active)[0]
        if not sel.size:
            continue
        idx = streams.to_index(g.bank.draw(sel, 1)[:, 0], K)
        for name, arr in g.emig.items():
            arr[d, sel] = g.pop[name][sel, idx]
        g.emig_full[d, sel] = True


def scramble(g, rng):
    """Distinct values in every buffer, random link states, partly full stages."""
    R = GridConfig.RECEIVE_CAPACITY
    for group in (g.pop, g.emig, g.stage):
        for arr in group.values():
            if arr.dtype.kind == "f":
                top = 1 << 15
            else:
                top = min(1 << 30, int(np.iinfo(arr.dtype).max))
            arr[...] = (rng.permutation(arr.size) % top).reshape(arr.shape)
    g.emig_full[:] = (rng.random(g.valid.shape) < 0.6) & g.valid
    g.stage_n[:] = rng.integers(0, R + 1, size=g.stage_n.shape)
    g.bank.positions[:] = rng.integers(0, 1 << 40, size=g.bank.positions.shape, dtype=np.uint64)


def assert_same_migration_state(a, b, where):
    for group in ("pop", "emig", "stage"):
        for name in getattr(a, group):
            assert np.array_equal(getattr(a, group)[name], getattr(b, group)[name]), (
                where, group, name
            )
    for attr in ("stage_n", "emig_full", "imported", "exported", "lost"):
        assert np.array_equal(getattr(a, attr), getattr(b, attr)), (where, attr)
    assert np.array_equal(a.bank.positions, b.bank.positions), (where, "cursors")


@pytest.mark.parametrize(
    "geometry",
    [(3, 3, False), (3, 3, True), (1, 5, False), (5, 1, True), (2, 2, True), (4, 3, False)],
    ids=["open3x3", "torus3x3", "open1x5", "torus5x1", "torus2x2", "open4x3"],
)
@pytest.mark.parametrize("loss_rate", [0.0, 0.3], ids=["lossless", "lossy"])
@pytest.mark.parametrize(
    "genome",
    [
        dict(population=2),  # 4 writes into 2 slots: every inject collides
        dict(
            population=5,
            layout="fitness",
            slot_count=8,
            differentia_bits=8,
            track_perfect=True,
        ),
    ],
    ids=["tagged-pop2", "fitness-8bit-tracked"],
)
def test_whole_grid_migration_matches_the_per_direction_reference(geometry, loss_rate, genome):
    width, height, torus = geometry
    config = GridConfig(
        width=width, height=height, torus=torus, loss_rate=loss_rate, generations=1, **genome
    )
    fast = DeterministicGrid(config)
    rng = np.random.default_rng([width, height, torus, int(loss_rate * 10), config.population])
    R = GridConfig.RECEIVE_CAPACITY
    shared_pe = collided = 0
    for round_ in range(6):
        scramble(fast, rng)
        ref = copy.deepcopy(fast)
        for step in range(4):
            where = (round_, step)
            if step == 0:
                active = fast._everyone
            else:
                active = rng.random(config.n_pes) < 0.6  # an asynchronous subset
            fast._transport_tick()
            reference_transport(ref)
            assert_same_migration_state(fast, ref, where + ("transport",))
            full = (fast.stage_n >= R) & active
            shared_pe += int((full.sum(axis=0) > 1).any())
            collided += int(full.any() and config.population < R)
            fast._inject_migrants(active)
            reference_inject(ref, active)
            assert_same_migration_state(fast, ref, where + ("inject",))
            fast._refill_emigrants(active)
            reference_refill(ref, active)
            assert_same_migration_state(fast, ref, where + ("refill",))
    assert shared_pe > 0  # some PE injected from several links in one step
    if config.population < R:
        assert collided > 0
    if loss_rate > 0:
        assert fast.lost.sum() > 0


def test_torus_and_bounded_runs_differ():
    flat = run_grid(generations=40)
    wrapped = run_grid(generations=40, torus=True)
    assert not np.array_equal(flat.pop["surf"], wrapped.pop["surf"])


# -- founder tags and fitness ------------------------------------------------


def test_tags_are_inherited_never_invented():
    cfg = GridConfig(width=2, height=2, generations=50, population=8, seed=3)
    eng = DeterministicGrid(cfg)
    initial = set(np.unique(eng.pop["tag"]).tolist())
    eng.run()
    final = set(np.unique(eng.pop["tag"]).tolist())
    assert final <= initial


def test_tag_diversity_collapses_over_time():
    cfg = GridConfig(width=1, height=1, generations=400, population=16, seed=5)
    eng = DeterministicGrid(cfg)
    start = len(np.unique(eng.pop["tag"]))
    eng.run()
    assert len(np.unique(eng.pop["tag"])) < start


def test_fitness_layout_has_no_tags():
    eng = run_grid(layout="fitness", generations=5)
    assert "tag" not in eng.pop
    s = eng.sample_end_state()[0]
    assert s.fields.founder_tag is None
    assert s.fields.fitness is not None


def test_neutral_fitness_stays_zero():
    eng = run_grid(layout="fitness", generations=50)
    assert (eng.pop["fit"] == 0.0).all()


def test_purifying_fitness_only_decays():
    eng = run_grid(
        layout="fitness",
        generations=50,
        treatment=Treatment(mode="purifying"),
    )
    assert (eng.pop["fit"] <= 0.0).all()
    assert (eng.pop["fit"] < 0.0).any()


def test_unopposed_beneficial_mutation_climbs():
    eng = run_grid(
        layout="fitness",
        generations=50,
        treatment=Treatment(mode="adaptive", deleterious_p=0.0, beneficial_p=1.0),
    )
    assert (eng.pop["fit"] > 0.0).all()


# -- what each stage samples, against closed forms ------------------------------
#
# These read only what a stage leaves in the population, so they hold for
# any draw layout.  Each bound is four standard errors, or the chi-square or
# Kolmogorov-Smirnov quantile at 0.999, at a fixed seed.

CHI2_999 = {1: 10.828, 7: 24.322, 14: 36.123, 15: 37.697, 255: 330.52}  # by degrees of freedom


@pytest.mark.parametrize("bits", [1, 3, 8])
def test_deposited_differentiae_are_uniform(bits):
    """One deposit on 16,384 fresh lanes: the values at rank 0's slot
    cover the 2**bits values evenly."""
    eng = DeterministicGrid(
        GridConfig(8, 8, 1, population=256, policy="steady", slot_count=16,
                   differentia_bits=bits, seed=5)
    )
    eng._deposit(eng.pop, eng._all)
    bit = site("steady", 0, 16) * eng._stride
    words = eng.pop["surf"][..., bit // 64].ravel()
    values = (words >> np.uint64(bit % 64)) & np.uint64(2**bits - 1)
    counts = np.bincount(values.astype(np.int64), minlength=2**bits)
    expected = values.size / 2**bits
    assert ((counts - expected) ** 2 / expected).sum() <= CHI2_999[2**bits - 1]


def mutated_once(treatment: Treatment) -> np.ndarray:
    """The fitness of 32,768 lanes, all 0 before one mutate stage."""
    eng = DeterministicGrid(
        GridConfig(8, 8, 1, population=512, layout="fitness", treatment=treatment, seed=3)
    )
    eng._mutate(eng.pop, eng._all)
    return eng.pop["fit"].ravel().astype(np.float64)


GATES = {
    "deleterious": lambda p, sigma: Treatment(
        mode="purifying", deleterious_p=p, deleterious_sigma=sigma
    ),
    "beneficial": lambda p, sigma: Treatment(
        mode="adaptive", deleterious_p=0.0, beneficial_p=p, beneficial_sigma=sigma
    ),
}


@pytest.mark.parametrize("p", [0.05, 1 / 3, 0.8])
@pytest.mark.parametrize("gate", sorted(GATES))
def test_the_mutation_gate_opens_at_its_probability(gate, p):
    fit = mutated_once(GATES[gate](p, 1.0))
    n, hits = fit.size, np.count_nonzero(fit)
    assert abs(hits - n * p) <= 4 * math.sqrt(n * p * (1 - p))


@pytest.mark.parametrize("sigma", [0.5, 2.0])
@pytest.mark.parametrize("gate", sorted(GATES))
def test_mutation_magnitudes_are_half_normal(gate, sigma):
    """Every lane mutates once: magnitudes have mean sigma * sqrt(2 / pi)
    and second moment sigma**2, with the gate's sign."""
    fit = mutated_once(GATES[gate](1.0, sigma))
    size = -fit if gate == "deleterious" else fit
    n = size.size
    mean_se = sigma * math.sqrt((1 - 2 / math.pi) / n)
    assert abs(size.mean() - sigma * math.sqrt(2 / math.pi)) <= 4 * mean_se
    assert abs((size**2).mean() - sigma**2) <= 4 * sigma**2 * math.sqrt(2 / n)


def tournament_winners(fit: np.ndarray | None, calls: int = 8) -> np.ndarray:
    """The lane each slot wins in ``calls`` tournaments on a 16x16 grid of
    16-lane PEs, shape (calls, P, K).  Every call starts from lanes
    labelled 0..K-1 with the (P, K) fitness ``fit``; None runs the tagged
    layout, where every lane scores 0."""
    K = 16
    layout = "tagged" if fit is None else "fitness"
    eng = DeterministicGrid(GridConfig(16, 16, 1, population=K, layout=layout, seed=7))
    won = np.empty((calls,) + eng.pop["counter"].shape, dtype=np.int64)
    for call in range(calls):
        eng.pop["counter"][:] = np.arange(K)  # lane labels
        if fit is not None:
            eng.pop["fit"][:] = fit
        eng._tournament(eng.pop, eng._all)
        won[call] = eng.pop["counter"]
    return won


def test_the_tournament_winners_rank_follows_the_closed_form():
    """With K distinct fitnesses per PE, the winner of n candidates drawn
    with replacement has fitness rank r <= m with chance ((m + 1) / K)**n;
    the empirical law stays within the 0.999 Kolmogorov-Smirnov bound."""
    P, K, n = 256, 16, GridConfig.tournament_size
    rank = np.random.default_rng(0).permuted(np.tile(np.arange(K), (P, 1)), axis=1)
    won = tournament_winners(rank.astype(np.float32))
    got = rank[np.arange(P)[:, None], won].ravel()
    cdf = np.cumsum(np.bincount(got, minlength=K)) / got.size
    assert np.abs(cdf - ((np.arange(K) + 1) / K) ** n).max() <= 1.95 / math.sqrt(got.size)


def within_group_chi2(counts: np.ndarray, groups: list[slice]) -> float:
    """Chi-square of ``counts`` against uniform within each group."""
    total = 0.0
    for group in groups:
        c = counts[group]
        expected = c.sum() / c.size
        total += float(((c - expected) ** 2 / expected).sum())
    return total


def test_tournament_winners_are_uniform_among_the_lanes_tied_at_their_fitness():
    """Lanes 0..3 tie at the top and 4..15 at the bottom; given the fitness
    it won at, the winner is any lane of that tie alike."""
    K, top = 16, 4
    fit = np.tile((np.arange(K) < top).astype(np.float32), (256, 1))
    counts = np.bincount(tournament_winners(fit).ravel(), minlength=K)
    assert within_group_chi2(counts, [slice(0, top), slice(top, K)]) <= CHI2_999[K - 2]


def test_tagged_tournament_winners_are_uniform_over_all_lanes():
    K = 16
    counts = np.bincount(tournament_winners(None).ravel(), minlength=K)
    assert within_group_chi2(counts, [slice(0, K)]) <= CHI2_999[K - 1]


# -- guard rails -------------------------------------------------------------


def traced_peak(run) -> int:
    """Bytes ``run()`` holds at its peak beyond what was held before it,
    as tracemalloc sees them; numpy reports its arrays' buffers there."""
    outer = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not outer:
            tracemalloc.stop()


PINNED_PEAK = 3_000_394  # bytes, measured with CPython 3.11 and numpy 2.4


def test_a_tracked_run_holds_at_most_its_pinned_peak():
    """A tracked 16x16 purifying run through three prunes peaks within 10%
    of its pinned peak, which the tournament's draw block and the tracker's
    reserved buffers set."""
    config = GridConfig(
        16, 16, 2000, layout="fitness", treatment=Treatment(mode="purifying"),
        track_perfect=True,
    )
    assert traced_peak(lambda: DeterministicGrid(config).run(24)) <= PINNED_PEAK * 1.1


def test_counter_overflow_refuses_to_wrap():
    eng = run_grid(generations=0)
    eng.pop["counter"][:] = eng.layout.counter_capacity - 1
    with pytest.raises(OverflowError, match="widen the counter field"):
        eng.step_cycle()


def test_config_is_validated_on_construction():
    from surftrack.sim.config import ConfigError

    with pytest.raises(ConfigError):
        DeterministicGrid(GridConfig(width=0, height=3, generations=1))


# -- sampling ----------------------------------------------------------------


def test_sample_labels_follow_the_grid():
    eng = run_grid(width=2, height=2, generations=10, sample_per_pe=3)
    samples = eng.sample_end_state()
    assert [s.label for s in samples] == [
        f"pe{x}_{y}_{j}" for y in range(2) for x in range(2) for j in range(3)
    ]
    assert all(len(s.fields.surface) == 64 for s in samples)
    assert all(s.tracker_id is None for s in samples)


def test_tracked_samples_carry_live_ids():
    eng = run_grid(generations=30, track_perfect=True, sample_per_pe=2)
    samples = eng.sample_end_state()
    ids = np.array([s.tracker_id for s in samples])
    labels = [s.label for s in samples]
    tree = eng.tracker.to_tree(ids, labels)
    assert sorted(l.label for l in tree.leaves()) == sorted(labels)


# -- record brackets vs exact genealogy ---------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_records_bracket_true_divergence_in_the_exact_regime(seed):
    """With 8-bit differentiae and fewer deposits than slots, the rank
    interval recovered from two genomes should pin the tracked split
    point exactly: common history through the ancestor's last deposit,
    divergence at the very next rank."""
    cfg = GridConfig(
        width=3,
        height=3,
        generations=48,
        population=8,
        layout="fitness",
        policy="steady",
        differentia_bits=8,
        seed=seed,
        track_perfect=True,
        sample_per_pe=2,
    )
    eng = DeterministicGrid(cfg)
    eng.run()
    samples = eng.sample_end_state()

    checked = 0
    violations = 0
    for a, b in itertools.combinations(samples, 2):
        tree = eng.tracker.to_tree(
            np.array([a.tracker_id, b.tracker_id]), ["a", "b"]
        )
        if tree.n_roots != 1:
            continue  # unrelated founders: nothing to bracket
        split_rank = int(tree.origin_time[0])
        checked += 1
        est = estimate_mrca_range(records_of(a, cfg), records_of(b, cfg))
        if est != (split_rank, split_rank + 1):
            violations += 1
    assert checked >= 10
    # a differentia collision (1 in 256 per rank) can blur one bracket
    assert violations <= max(1, checked // 50)
