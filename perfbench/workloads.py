"""The benchmark's workloads, the pass each one times, and the checks on it.

A pass runs surftrack's public API layer by layer, the way the
``simulate`` -> ``reconstruct`` -> ``metrics`` CLI user does, and every
call goes through a tracer hook (a plain call when untraced).  Checks run
after the timed region, so they never inflate a timing.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from surftrack.phylo.metrics import METRICS
from surftrack.phylo.reconstruct import build_forest
from surftrack.phylo.serialize import export_alife_csv, export_newick, parse_newick
from surftrack.phylo.triplets import sampled_triplet_error
from surftrack.sim.config import GridConfig, Treatment
from surftrack.sim.engine import DeterministicGrid
from surftrack.sim.output import genomes_csv_text, read_genomes_csv
from surftrack.surface.annotation import SurfaceAnnotation
from surftrack.surface.genome import pack_genome, unpack_genome

PASS_METRICS = ("sbl", "mpd", "colless", "med")
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: GridConfig  # seed is replaced by the run's --seed
    engine_in_pass: bool  # False: the engine runs once per set-up only
    n_triplets: int = 1000

    def config_for(self, seed: int) -> GridConfig:
        return replace(self.config, seed=seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "purifying16-tracked",
            "CLI-default 1-bit, migration-lagged regime with the exact tracker; "
            "engine and tracker take over 95% of a pass, and accuracy is poor "
            "(only ~8 of ~21.6 ranks per genome survive intersection).",
            GridConfig(
                16, 16, 2000, layout="fitness", treatment=Treatment(mode="purifying"),
                track_perfect=True,
            ),
            engine_in_pass=True,
        ),
        Workload(
            "tagged32-untracked",
            "4x the PEs and working set, neutral and untracked: mutation and the "
            "tracker are bypassed, and decoding plus reconstructing 4096 leaves "
            "takes a measurable few percent.",
            GridConfig(32, 32, 500, layout="tagged", sample_per_pe=4),
            engine_in_pass=True,
        ),
        Workload(
            "reconstruct-hybrid8",
            "The reconstruct + metrics user: 8192 hybrid 8-bit genomes of 48 "
            "records each, where no triplet is wrong; the surface read path and "
            "phylo dominate, and the engine runs only in set-up.",
            GridConfig(
                16, 16, 600, layout="fitness", policy="hybrid", differentia_bits=8,
                treatment=Treatment(mode="adaptive"), track_perfect=True,
                sample_per_pe=32,
            ),
            engine_in_pass=False,
            n_triplets=10_000,
        ),
    )
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Simulation:
    """One engine run's artifacts: what ``surftrack simulate`` writes."""

    config: GridConfig
    samples: list
    genomes_csv: str
    engine_s: float
    reference: object = None  # tracker tree over the samples, when tracked
    perfect_tree_csv: str | None = None
    rows_end: int | None = None

    def artifact_hashes(self) -> dict[str, str]:
        out = {"genomes.csv": sha256(self.genomes_csv)}
        if self.perfect_tree_csv is not None:
            out["perfect_tree.csv"] = sha256(self.perfect_tree_csv)
        return out


def simulate(config: GridConfig, tracer) -> Simulation:
    grid = DeterministicGrid(config)
    tracer.instrument_grid(grid)
    started = time.perf_counter()
    grid.run()
    engine_s = time.perf_counter() - started
    samples = grid.sample_end_state()
    text = tracer.call("output.write", genomes_csv_text, config.genome_layout(), samples)
    sim = Simulation(config, samples, text, engine_s)
    if grid.tracker is not None:
        sim.rows_end = len(grid.tracker)
        sim.reference = tracer.call(
            "tracker.to_tree",
            grid.tracker.to_tree,
            np.array([s.tracker_id for s in samples], dtype=np.int64),
            [s.label for s in samples],
            [s.fields.founder_tag for s in samples],
        )
    return sim


def finish_simulation(sim: Simulation) -> None:
    """Untimed: render the perfect tree the way the CLI writes it."""
    if sim.reference is not None:
        sim.perfect_tree_csv = export_alife_csv(sim.reference)


@dataclass
class LeafResult:
    """decode -> build_forest -> serialize -> metrics on one genomes.csv."""

    rows: list
    tree: object
    newick: str
    alife: str
    metrics: dict[str, float]
    seconds: float

    def digest(self) -> str:
        return sha256(self.newick + self.alife + repr(sorted(self.metrics.items())))


def leaf_section(sim: Simulation, tracer) -> LeafResult:
    cfg = sim.config
    started = time.perf_counter()
    rows = tracer.call(
        "output.decode", read_genomes_csv, sim.genomes_csv, cfg.genome_layout(), cfg.policy
    )
    tree = tracer.call(
        "reconstruct.build_forest",
        build_forest,
        ((r.records, r.label, r.founder_tag) for r in rows),
        stitch=True,
    )
    newick = tracer.call("serialize.newick_export", export_newick, tree)
    tracer.call("serialize.newick_parse", parse_newick, newick)
    alife = tracer.call("serialize.alife_export", export_alife_csv, tree)
    values = {m: tracer.call(f"metrics.{m}", METRICS[m], tree) for m in PASS_METRICS}
    return LeafResult(rows, tree, newick, alife, values, time.perf_counter() - started)


@dataclass
class PassResult:
    seconds: float
    sim: Simulation
    leaf: LeafResult
    triplets: object = None

    def digest(self) -> str:
        parts = [json.dumps(self.sim.artifact_hashes(), sort_keys=True), self.leaf.digest()]
        if self.triplets is not None:
            parts.append(repr(self.triplets))
        return sha256("|".join(parts))


def timed_pass(wl: Workload, seed: int, prepared: Simulation | None, tracer) -> PassResult:
    """The timed region of one pass; returns before any check runs."""
    started = time.perf_counter()
    sim = simulate(wl.config_for(seed), tracer) if wl.engine_in_pass else prepared
    leaf = leaf_section(sim, tracer)
    score = None
    if sim.reference is not None:
        score = tracer.call(
            "triplets.score", sampled_triplet_error, sim.reference, leaf.tree,
            n_triplets=wl.n_triplets, seed=seed,
        )
    return PassResult(time.perf_counter() - started, sim, leaf, score)


# -- checks ------------------------------------------------------------------


def expected_rows(sim: Simulation) -> list[tuple]:
    """What decoding genomes.csv must give back, built from memory alone."""
    cfg = sim.config
    out = []
    for s in sim.samples:
        ann = SurfaceAnnotation(
            cfg.policy, cfg.slot_count, cfg.differentia_bits,
            counter=s.fields.counter, slots=list(s.fields.surface),
        )
        out.append((s.pe_x, s.pe_y, s.label, ann.to_records(),
                    s.fields.founder_tag, s.fields.fitness))
    return out


def check_simulation(sim: Simulation, wl: Workload, seed: int, golden: dict) -> list[str]:
    """Pack/unpack round trip of every sample, and the golden artifact hashes."""
    problems = []
    layout = sim.config.genome_layout()
    for s in sim.samples:
        if unpack_genome(layout, pack_genome(layout, s.fields)) != s.fields:
            problems.append(f"{s.label}: genome does not survive pack/unpack")
            break
    entry = golden.get(wl.name)
    if entry and entry["seed"] == seed and entry["config"] == sim.config.to_dict():
        for name, digest in sim.artifact_hashes().items():
            if entry[name] != digest:
                problems.append(f"{name} differs from its golden sha256 at seed {seed}")
    return problems


def check_leaf(leaf: LeafResult, expected: list[tuple]) -> list[str]:
    problems = []
    got = [(r.pe_x, r.pe_y, r.label, r.records, r.founder_tag, r.fitness) for r in leaf.rows]
    if got != expected:
        bad = next((g[2] for g, e in zip(got, expected) if g != e), "row count")
        problems.append(f"decoded genomes.csv disagrees with the samples ({bad})")
    if export_newick(parse_newick(leaf.newick)) != leaf.newick:
        problems.append("Newick export -> parse -> export changed the text")
    labels = sorted(n.label for n in leaf.tree.leaves())
    if labels != sorted(e[2] for e in expected):
        problems.append("reconstructed leaf labels differ from the sampled labels")
    return problems


def rank_facts(rows: list) -> dict[str, float]:
    """Ranks kept by build_forest's global intersection, from its inputs."""
    rank_sets = [set(r.records.ranks()) for r in rows]
    shared = sorted(set.intersection(*rank_sets)) if rank_sets else []
    per_genome = sum(len(s) for s in rank_sets) / max(len(rank_sets), 1)
    roots = len({r.records.mapping()[shared[0]] for r in rows}) if shared else len(rows)
    return {
        "reconstruct.shared_ranks": len(shared),
        "annotation.records_per_genome": per_genome,
        "reconstruct.rank_use": len(shared) / per_genome if per_genome else 0.0,
        "reconstruct.roots": roots,
    }
