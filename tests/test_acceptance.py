"""The ship gate: eleven end-to-end checks, one test per check.

Each test here states a user-visible promise of the package and holds
it to a concrete threshold, so a verbose run of this file doubles as a
pass/fail report.  Unit-level coverage lives in the other test modules;
nothing in this file is exploratory.
"""

import itertools
import random
import re
import statistics
import time
from collections import deque

import numpy as np

from surftrack import oracle
from surftrack.cli import main
from surftrack.phylo import metrics as M
from surftrack.phylo.reconstruct import build_forest
from surftrack.phylo.serialize import (
    export_alife_csv,
    export_newick,
    import_alife_csv,
    parse_newick,
)
from surftrack.phylo.triplets import sampled_triplet_error
from surftrack.sim.config import GridConfig, Treatment
from surftrack.sim.engine import DeterministicGrid
from surftrack.sim.output import read_manifest
from surftrack.surface.annotation import SurfaceAnnotation
from surftrack.surface.genome import GenomeFields, GenomeLayout, pack_genome, unpack_genome
from surftrack.surface.sites import POLICIES

from _trees import balanced, canon, caterpillar, random_tree

SLOT_COUNTS = (8, 16, 32, 64)


def records_of(sample, config):
    ann = SurfaceAnnotation(
        config.policy,
        config.slot_count,
        config.differentia_bits,
        counter=sample.fields.counter,
        slots=list(sample.fields.surface),
    )
    return ann.to_records()


def test_01_closed_form_placement_matches_replay_everywhere():
    """Closed-form slot inversion equals brute replay for every policy
    and surface size: all deposit counts through 4096, plus 1000 random
    counts up to 2**20 each, in under a minute."""
    started = time.perf_counter()
    rng = random.Random(0x5EED)
    for policy in POLICIES:
        for slots in SLOT_COUNTS:
            assert oracle.equivalence_mismatches(policy, slots, range(4097)) == []
            checkpoints = sorted(rng.randrange(1 << 20) for _ in range(1000))
            assert oracle.equivalence_mismatches(policy, slots, checkpoints) == []
    assert time.perf_counter() - started < 60.0


def test_02_steady_policy_keeps_its_gap_bound():
    """Steady surfaces never open a gap wider than advertised, and never
    drop rank 0, at any deposit count through 2**14 on any size."""
    for slots in SLOT_COUNTS:
        report = oracle.check_gap_bounds("steady", slots, 1 << 14)
        assert report.violations == [], (slots, report.violations[:3])


def test_03_tilted_policy_keeps_its_recency_bound():
    """Tilted surfaces keep every gap within max(4, N - r') and retain
    rank 0, at any deposit count through 2**14 on any size, outside the
    clamp regime that small surfaces reach once hanoi levels outnumber
    their slot pairs."""
    for slots in SLOT_COUNTS:
        report = oracle.check_gap_bounds("tilted", slots, 1 << 14)
        assert report.hard_violations == [], (slots, report.hard_violations[:3])
        if (slots - 2) // 2 > 14:  # 2**14 deposits never reach the clamp regime
            assert report.violations == [], (slots, report.violations[:3])


def test_03b_hybrid_policy_keeps_its_halved_steady_bound():
    """Hybrid surfaces keep every gap within twice the steady bound of
    their even half, 2 * steady_gap_bound(ceil(N/2), S/2), and retain
    rank 0, at any deposit count through 2**14 on any size."""
    for slots in SLOT_COUNTS:
        report = oracle.check_gap_bounds("hybrid", slots, 1 << 14)
        assert report.violations == [], (slots, report.violations[:3])


def test_04_exact_regime_reconstruction_matches_tracked_truth():
    """With 8-bit differentiae and fewer generations than slots, trees
    rebuilt from end-state genomes disagree with the exact tracker on at
    most 5% of sampled leaf triples, across five seeds, within 10s."""
    started = time.perf_counter()
    for seed in range(5):
        cfg = GridConfig(
            width=3,
            height=3,
            generations=48,
            policy="steady",
            differentia_bits=8,
            seed=seed,
            track_perfect=True,
        )
        eng = DeterministicGrid(cfg)
        eng.run()
        samples = eng.sample_end_state()
        reference = eng.tracker.to_tree(
            np.array([s.tracker_id for s in samples]), [s.label for s in samples]
        )
        reconstruction = build_forest(
            [(records_of(s, cfg), s.label) for s in samples]
        )
        score = sampled_triplet_error(
            reference, reconstruction, n_triplets=1000, seed=seed
        )
        assert score.error <= 0.05, (seed, score)
    assert time.perf_counter() - started < 10.0


def test_05_founder_clades_only_ever_die_out():
    """Distinct founder tags among sampled leaves never increase with
    run length: five seeds, durations 25/50/100/250, within 30s."""
    started = time.perf_counter()
    for seed in range(5):
        counts = []
        for generations in (25, 50, 100, 250):
            cfg = GridConfig(
                width=3, height=3, generations=generations, seed=seed
            )
            eng = DeterministicGrid(cfg)
            eng.run()
            tags = {s.fields.founder_tag for s in eng.sample_end_state()}
            counts.append(len(tags))
        assert counts == sorted(counts, reverse=True), (seed, counts)
    assert time.perf_counter() - started < 30.0


def test_06_purifying_selection_leaves_a_measurable_tree_signature():
    """Purely deleterious mutation pressure inflates reconstructed trees
    relative to a regime where beneficial sweeps keep pruning them:
    strictly larger median total branch length and median mean
    distinctness over 5 replicates each, with a Cliff's delta of at
    least 0.33 on branch length.  16x16 grid, 2000 generations."""
    started = time.perf_counter()
    results: dict[str, dict[str, list[float]]] = {}
    for mode in ("purifying", "adaptive"):
        sbl, med = [], []
        for seed in range(5):
            cfg = GridConfig(
                width=16,
                height=16,
                generations=2000,
                layout="fitness",
                treatment=Treatment(mode=mode),
                seed=seed,
            )
            eng = DeterministicGrid(cfg)
            eng.run()
            samples = eng.sample_end_state()
            tree = build_forest([(records_of(s, cfg), s.label) for s in samples])
            sbl.append(M.sum_branch_length(tree))
            med.append(M.mean_evolutionary_distinctness(tree))
        results[mode] = {"sbl": sbl, "med": med}
    assert statistics.median(results["purifying"]["sbl"]) > statistics.median(
        results["adaptive"]["sbl"]
    ), results
    assert statistics.median(results["purifying"]["med"]) > statistics.median(
        results["adaptive"]["med"]
    ), results
    delta = M.cliffs_delta(results["purifying"]["sbl"], results["adaptive"]["sbl"])
    assert delta >= 0.33, (delta, results)
    assert time.perf_counter() - started < 600.0


def test_07_equal_seeds_give_byte_identical_artifacts(tmp_path):
    """Two deterministic runs of the same config produce byte-identical
    genomes.csv and perfect_tree.csv files."""
    args = [
        "simulate",
        "--grid",
        "3x3",
        "--generations",
        "40",
        "--pop",
        "16",
        "--seed",
        "11",
        "--sample-per-pe",
        "2",
        "--track-perfect",
    ]
    assert main([*args, "--out", str(tmp_path / "one")]) == 0
    assert main([*args, "--out", str(tmp_path / "two")]) == 0
    for name in ("genomes.csv", "perfect_tree.csv"):
        a = (tmp_path / "one" / name).read_bytes()
        b = (tmp_path / "two" / name).read_bytes()
        assert a == b, name


def bfs_pairwise_distances(tree):
    adjacency = {}
    for child, parent in enumerate(tree.parent):
        if parent >= 0:
            adjacency.setdefault(parent, []).append(child)
            adjacency.setdefault(child, []).append(parent)
    has_children = set(tree.parent)
    leaves = [i for i in range(len(tree.parent)) if i not in has_children]
    out = []
    for i, a in enumerate(leaves):
        dist = {a: 0}
        q = deque([a])
        while q:
            x = q.popleft()
            for y in adjacency.get(x, []):
                if y not in dist:
                    dist[y] = dist[x] + 1
                    q.append(y)
        for b in leaves[i + 1 :]:
            out.append(dist[b])
    return out


def test_08_tree_metrics_agree_with_brute_force():
    """Pairwise-distance metrics equal a BFS recount and distinctness
    sums to total branch length on 200 random trees; the imbalance index
    orders a caterpillar above a balanced tree; the effect size is
    antisymmetric."""
    for seed in range(200):
        tree = random_tree(seed, max_leaves=64)
        brute = bfs_pairwise_distances(tree)
        assert M.sum_pairwise_distance(tree) == sum(brute)
        assert M.mean_pairwise_distance(tree) == sum(brute) / len(brute)
        sbl = M.sum_branch_length(tree)
        ed_total = sum(M.evolutionary_distinctness(tree).values())
        assert abs(ed_total - sbl) <= 1e-9 * sbl
    assert M.colless_like_index(caterpillar(8)) > M.colless_like_index(balanced(3))
    rng = random.Random(8)
    for _ in range(20):
        xs = [rng.uniform(-5, 5) for _ in range(rng.randint(1, 30))]
        ys = [rng.uniform(-5, 5) for _ in range(rng.randint(1, 30))]
        assert M.cliffs_delta(xs, ys) == -M.cliffs_delta(ys, xs)


def test_09_genomes_and_trees_round_trip_exactly():
    """Pack/unpack is the identity on 10**4 random genomes, and both
    tree formats reproduce 100 random forests exactly."""
    rng = random.Random(2026)
    for _ in range(10_000):
        kind = rng.choice(("tagged", "fitness"))
        slots = rng.choice(SLOT_COUNTS)
        w = rng.choice((1, 2, 4, 8))
        layout = GenomeLayout(kind, slots, w)
        fields = GenomeFields(
            counter=rng.randrange(layout.counter_capacity),
            surface=tuple(rng.randrange(1 << w) for _ in range(slots)),
            founder_tag=rng.randrange(1 << 16) if kind == "tagged" else None,
            fitness=(
                float(np.float32(rng.uniform(-1e3, 1e3))) if kind == "fitness" else None
            ),
        )
        assert unpack_genome(layout, pack_genome(layout, fields)) == fields
    for seed in range(100):
        tree = random_tree(seed, max_leaves=50, forest=seed % 3 == 0)
        assert parse_newick(export_newick(tree)) == tree
        # founder tags only travel in the CSV dialect
        for i in range(0, len(tree.parent), 5):
            tree.founder_tag[i] = i
        assert canon(import_alife_csv(export_alife_csv(tree))) == canon(tree)


def test_10_throughput_reported_for_the_record(tmp_path, capsys):
    """simulate reports its wall time on this host, on its summary line
    and in the manifest.  Informational: printed, not thresholded."""
    rc = main(["simulate", "--grid", "3x3", "--generations", "200", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert re.search(r"^simulated 3x3 grid for 200 generations .* in \d+\.\d\ds$", out, re.M)
    manifest = read_manifest(str(tmp_path / "manifest.json"))
    assert manifest["duration_seconds"] >= 0
    print(out)  # keep the numbers visible in -s runs
