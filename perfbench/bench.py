"""Measurement for the layered pipeline benchmark: set-up, checked passes,
tracing, and the report.  ``run.py`` is the command-line entry point."""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import time
import traceback
from dataclasses import dataclass

import numpy

import workloads
from tracing import NullTracer, Tracer


# Reported on the last line; must match BENCHMARK.json.
END_TO_END = {
    "pass_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
# Printed in the report only: zero or undefined on some workload, set by
# the seed rather than by the code's speed, or too short to time steadily.
REPORT_ONLY = {
    "generations_per_s": "1/s",
    "leaves_per_s": "1/s",
    "triplet_wrong_frac": "ratio",
    "triplet_unsure_frac": "ratio",
    "fail_frac": "ratio",
}

# A name ending in "_s" is the summed self time of the span without that
# suffix; the rest are counts taken at the same boundaries.
PER_LAYER = {
    "engine.tournament_s": "s",
    "engine.deposit_s": "s",
    "engine.mutate_s": "s",
    "engine.transport_s": "s",
    "engine.inject_s": "s",
    "engine.refill_s": "s",
    "engine.sample_s": "s",
    "engine.cycles": "count",
    "streams.draw_s": "s",
    "streams.draws": "count",
    "sites.site_array_s": "s",
    "sites.site_array_ranks": "count",
    "tracker.record_cohort_s": "s",
    "tracker.prune_s": "s",
    "tracker.rows_pruned": "count",
    "tracker.rows_end": "count",
    "tracker.to_tree_s": "s",
    "output.write_s": "s",
    "output.decode_s": "s",
    "output.csv_bytes": "bytes",
    "genome.unpack_s": "s",
    "annotation.to_records_s": "s",
    "annotation.records_per_genome": "count",
    "reconstruct.build_forest_s": "s",
    "reconstruct.shared_ranks": "count",
    "reconstruct.rank_use": "ratio",
    "reconstruct.roots": "count",
    "serialize.newick_export_s": "s",
    "serialize.newick_parse_s": "s",
    "serialize.alife_export_s": "s",
    "metrics.sbl_s": "s",
    "metrics.mpd_s": "s",
    "metrics.colless_s": "s",
    "metrics.med_s": "s",
    "triplets.score_s": "s",
    "trace.overhead_s": "s",
}
TRACER_COUNTS = ("streams.draws", "sites.site_array_ranks", "tracker.rows_pruned")
# Exact counts that repeat for a given seed, cited in the report.
CITED_COUNTS = (
    "streams.draws", "sites.site_array_ranks", "engine.cycles",
    "tracker.rows_pruned", "reconstruct.shared_ranks",
)

# A set-up block is at least 3 repeats and 0.2 s.  More blocks follow
# passes while set-up has taken under a tenth of the time measured, so a
# cheap set-up is sampled across the whole run rather than in one moment.
SETUP_MIN_REPS, SETUP_BLOCK_S, SETUP_MAX_REPS, SETUP_SHARE = 3, 0.2, 1000, 0.1


# -- host --------------------------------------------------------------------


def git_revision(root: str) -> str:
    """HEAD of a git checkout at ``root``, read from its files; else unknown."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_info(root: str, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": git_revision(root),
        "seed": seed,
    }


# -- measurement -------------------------------------------------------------


def summary(values: list[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples above it."""
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 20:
        q = int(100 * (1 - 10 / len(values)))
        out[f"p{q}"] = sorted(values)[int(q / 100 * (len(values) - 1))]
    return out


@dataclass
class Outcome:
    """What a completed pass leaves behind once its big objects are freed."""

    seconds: float
    leaf_seconds: float
    engine_s: float
    leaves: int
    facts: dict
    triplets: object


class Bench:
    """One workload at one seed: set-up, checked passes, and the tallies."""

    def __init__(self, wl, seed: int) -> None:
        self.wl, self.seed = wl, seed
        self.golden = workloads.load_golden()
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.first_digest: str | None = None
        self.setup_problems: list[str] = []
        self.prepared = None  # the set-up's simulation, when the pass has no engine
        self.expected = None
        self.setup_times: list[float] = []
        self.setup_engine_times: list[float] = []

    def set_up(self) -> None:
        """One block of set-up repeats."""
        config = self.wl.config_for(self.seed)
        block: list[float] = []
        while len(block) < SETUP_MIN_REPS or (
            sum(block) < SETUP_BLOCK_S and len(block) < SETUP_MAX_REPS
        ):
            seconds, engine_s = self._set_up_once(config)
            block.append(seconds)
            if engine_s is not None:
                self.setup_engine_times.append(engine_s)
        self.setup_times += block

    def _set_up_once(self, config) -> tuple[float, float | None]:
        started = time.perf_counter()
        if self.wl.engine_in_pass:
            # One cycle as well as the constructor: work a later change moves
            # into first use shows here, and the pure-Python key derivation
            # alone (under a millisecond) swings with host load far more than
            # the numpy work a pass is made of.
            workloads.DeterministicGrid(config).step_cycle()
            return time.perf_counter() - started, None
        sim = workloads.simulate(config, NullTracer())
        seconds = time.perf_counter() - started
        workloads.finish_simulation(sim)
        if self.prepared is None:
            self.prepared = sim
            self.expected = workloads.expected_rows(sim)
            self.setup_problems += workloads.check_simulation(sim, self.wl, self.seed, self.golden)
        elif sim.artifact_hashes() != self.prepared.artifact_hashes():
            self.setup_problems.append("set-up artifacts differ between repeats")
        return seconds, sim.engine_s

    def _fail(self, problems: list[str]) -> None:
        self.failed += 1
        for p in problems:
            if p not in self.problems:
                self.problems.append(p)

    def run_pass(self, tracer) -> Outcome | None:
        """One checked pass; None if it raised."""
        wl = self.wl
        self.attempted += 1
        gc.collect()  # every pass starts from the same collector state
        try:
            with tracer.installed():
                res = workloads.timed_pass(wl, self.seed, self.prepared, tracer)
            problems = list(self.setup_problems)
            if wl.engine_in_pass:
                workloads.finish_simulation(res.sim)
                problems += workloads.check_simulation(res.sim, wl, self.seed, self.golden)
                expected = workloads.expected_rows(res.sim)
            else:
                expected = self.expected
            problems += workloads.check_leaf(res.leaf, expected)
            digest = res.digest()
            if self.first_digest is None:
                self.first_digest = digest
            elif digest != self.first_digest:
                problems.append("pass outputs differ from the first pass at the same seed")
            facts = workloads.rank_facts(res.leaf.rows)
            facts["output.csv_bytes"] = len(res.sim.genomes_csv.encode())
            if res.sim.rows_end is not None:
                facts["tracker.rows_end"] = res.sim.rows_end
        except Exception:  # a pass that raises is a failed pass, not a crash
            self._fail([traceback.format_exc(limit=3).strip().splitlines()[-1]])
            return None
        if problems:
            self._fail(problems)
        return Outcome(res.seconds, res.leaf.seconds, res.sim.engine_s,
                       len(res.sim.samples), facts, res.triplets)


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Untraced passes; returns (metric -> summary, report extras)."""
    wl = bench.wl
    bench.set_up()
    started = time.perf_counter()
    passes = []
    while bench.attempted == 0 or time.perf_counter() - started < seconds:
        res = bench.run_pass(NullTracer())
        if res is not None:
            passes.append(res)
        if sum(bench.setup_times) < SETUP_SHARE * (time.perf_counter() - started):
            bench.set_up()
    if not passes:
        return {}, {}
    leaf_times = [p.leaf_seconds for p in passes]
    engine_times = (
        [p.engine_s for p in passes] if wl.engine_in_pass else bench.setup_engine_times
    )
    last = passes[-1]
    gens = wl.config.generations
    out = {
        "pass_s": summary([p.seconds for p in passes]),
        "setup_s": summary(bench.setup_times),
        "generations_per_s": {"median": gens / statistics.median(engine_times),
                              "n": len(engine_times)},
        "leaves_per_s": {"median": last.leaves / statistics.median(leaf_times),
                         "n": len(leaf_times)},
        "peak_rss_mib": {"median": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                         "n": 1},
    }
    if last.triplets is not None:
        total = last.triplets.total
        out["triplet_wrong_frac"] = {"median": last.triplets.wrong / total, "n": total}
        out["triplet_unsure_frac"] = {"median": last.triplets.unsure / total, "n": total}
    extras = {
        "pass_seconds": [p.seconds for p in passes],
        "engine_seconds": engine_times,
        "leaves": last.leaves,
        "generations": gens,
        "engine_timed_in": "pass" if wl.engine_in_pass else "set-up",
        "counts": {k: v for k, v in last.facts.items() if k in CITED_COUNTS},
    }
    return out, extras


def traced(bench: Bench, seconds: float) -> tuple[dict, dict, Tracer]:
    """Alternate untraced and traced passes; per-layer metrics from the spans."""
    bench.set_up()
    tracer = Tracer()
    plain, traced_passes = [], []
    started = time.perf_counter()
    while (not plain or not traced_passes) or time.perf_counter() - started < seconds:
        if len(traced_passes) < len(plain):
            tracer.pass_id = len(traced_passes) + 1
            res = bench.run_pass(tracer)
            if res is None:
                break
            traced_passes.append(res)
        else:
            res = bench.run_pass(NullTracer())
            if res is None:
                break
            plain.append(res)
    if not traced_passes:
        return {}, {}, tracer
    per_pass = tracer.per_pass()
    out, absent, first = {}, [], {}
    for name in PER_LAYER:
        if name == "trace.overhead_s":
            values = [
                statistics.median(p.seconds for p in traced_passes)
                - statistics.median(p.seconds for p in plain)
            ]
        elif name == "engine.cycles":
            values = [per_pass[p]["engine.cycle"][1] for p in per_pass
                      if "engine.cycle" in per_pass[p]]
        elif name in TRACER_COUNTS:
            values = [v for (p, k), v in tracer.counts.items() if k == name]
        elif name.endswith("_s"):
            span = name[:-2]
            values = [per_pass[p][span][0] / 1e9 for p in per_pass if span in per_pass[p]]
        else:
            values = [p.facts[name] for p in traced_passes if name in p.facts]
        if values:
            out[name] = summary(values)
            first[name] = values[0]
        else:
            out[name] = {"median": 0, "n": 0}
            absent.append(name)
    extras = {
        "absent": absent,
        "missing_boundaries": sorted(tracer.missing),
        "traced_passes": len(traced_passes),
        "untraced_passes": len(plain),
        "spans": len(tracer.spans),
        "counts": {k: first[k] for k in CITED_COUNTS if k in first},
    }
    return out, extras, tracer


def measure(wl, seed: int, seconds: float, trace: int) -> tuple[dict, dict, object]:
    """Run one workload; returns (report, last-line result, tracer or None)."""
    bench = Bench(wl, seed)
    tracer = None
    if trace:
        metrics, extras, tracer = traced(bench, seconds)
        names = PER_LAYER
    else:
        metrics, extras = end_to_end(bench, seconds)
        names = END_TO_END
        if bench.attempted:
            metrics["fail_frac"] = {"median": bench.failed / bench.attempted,
                                    "n": bench.attempted}
    correct = bench.failed == 0 and all(n in metrics for n in names)
    units = {**END_TO_END, **REPORT_ONLY, **PER_LAYER}
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            n: {"value": metrics.get(n, {}).get("median", 0), "unit": units[n]} for n in names
        },
    }
    report = {
        "workload": wl.name,
        "why": wl.why,
        "config": wl.config_for(seed).to_dict(),
        "trace": trace,
        "seconds": seconds,
        "metrics": {n: {**m, "unit": units[n]} for n, m in metrics.items()},
        "problems": bench.problems,
        **extras,
    }
    return report, result, tracer


def print_report(report: dict, result: dict) -> None:
    print(f"workload {report['workload']}  seed {report['host']['seed']}  trace {report['trace']}")
    print(f"why: {report['why']}")
    print("host: " + ", ".join(f"{k}={v}" for k, v in report["host"].items()))
    if report.get("counts"):
        print("counts: " + ", ".join(f"{k}={v}" for k, v in report["counts"].items()))
    for name in report.get("absent", []):
        print(f"absent: {name}")
    print(f"{'metric':32} {'median':>14} {'unit':>6} {'n':>6}  other")
    for name, m in report["metrics"].items():
        other = "  ".join(f"{k}={v:.6g}" for k, v in m.items() if k.startswith("p"))
        print(f"{name:32} {m['median']:>14.6g} {m['unit']:>6} {m['n']:>6}  {other}")
    for p in report["problems"]:
        print(f"FAILED CHECK: {p}")
    print(f"passes ok: {result['attempted'] - result['failed']}/{result['attempted']}")
