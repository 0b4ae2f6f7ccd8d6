"""Command-line entry points.

Subcommands: simulate, reconstruct, metrics, compare, oracle.
Exit codes: 0 success, 1 failure (bad data, violated checks), 2 usage,
141 standard output closed by its reader (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import glob
import os
import sys
import time
import warnings

import numpy as np

from . import __version__, oracle
from .phylo import metrics as phylo_metrics
from .phylo.reconstruct import build_forest, rank_intersection
from .phylo.serialize import (
    AlifeCsvError,
    NewickParseError,
    export_alife_csv,
    export_newick,
    format_time,
    import_alife_csv,
    parse_newick,
)
from .sim.config import ConfigError, GridConfig, Treatment, check_types
from .sim.engine import DeterministicGrid
from .sim.output import (
    GenomesCsvError,
    genomes_csv_text,
    read_genomes_csv,
    read_manifest,
    write_manifest,
)
from .surface.annotation import residency
from .surface.genome import GenomeLayout
from .surface.sites import POLICIES


def _grid_pair(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"grid must look like WIDTHxHEIGHT, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surftrack",
        description="Lineage fingerprint surfaces: simulate, reconstruct, analyze.",
    )
    parser.add_argument("--version", action="version", version=f"surftrack {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a grid evolution simulation")
    sim.add_argument("--grid", type=_grid_pair, help="WIDTHxHEIGHT, e.g. 16x16")
    sim.add_argument("--pop", type=int, help="genomes per PE (default 32)")
    sim.add_argument("--generations", type=int, help="generation steps per PE")
    sim.add_argument(
        "--treatment", choices=("neutral", "purifying", "adaptive"), help="mutation regime"
    )
    sim.add_argument("--layout", choices=("tagged", "fitness"), help="genome wire format")
    sim.add_argument("--policy", choices=POLICIES, help="surface placement policy")
    sim.add_argument("--surface-slots", type=int, help="surface slot count (default 64)")
    sim.add_argument("--differentia-bits", type=int, help="bits per differentia (default 1)")
    sim.add_argument("--seed", type=int, help="run seed (default 0)")
    sim.add_argument("--torus", action="store_true", default=None, help="wrap grid edges")
    sim.add_argument("--loss-rate", type=float, help="in-transit migrant loss probability")
    sim.add_argument("--sample-per-pe", type=int, help="end-state genomes sampled per PE")
    sim.add_argument(
        "--track-perfect",
        action="store_true",
        default=None,
        help="record exact lineages and write perfect_tree.csv",
    )
    sim.add_argument(
        "--parallel",
        action="store_true",
        help="asynchronous PEs: seeded step-or-stall schedule with bounded neighbor lead",
    )
    sim.add_argument("--config", help="JSON config file; explicit flags override its keys")
    sim.add_argument("--out", required=True, help="output directory")

    rec = sub.add_parser("reconstruct", help="rebuild a phylogeny from genomes.csv")
    rec.add_argument("--genomes", required=True, help="genomes.csv from a simulate run")
    rec.add_argument(
        "--manifest",
        help="run manifest (default: manifest.json beside the genomes file)",
    )
    rec.add_argument("--policy", choices=POLICIES, help="override manifest policy")
    rec.add_argument("--layout", choices=("tagged", "fitness"), help="override manifest layout")
    rec.add_argument("--surface-slots", type=int, help="override manifest slot count")
    rec.add_argument("--differentia-bits", type=int, help="override manifest differentia bits")
    rec.add_argument(
        "--stitch",
        action="store_true",
        help="join a multi-root forest under a synthetic root at origin 0",
    )
    rec.add_argument("--out", required=True, help="output tree: *.newick or *.csv")

    met = sub.add_parser("metrics", help="compute summary metrics for a tree file")
    met.add_argument("--tree", required=True, help="input *.newick or *.csv tree")
    met.add_argument(
        "--metrics",
        default="sbl,mpd,colless,med",
        help=f"comma list from: {','.join(sorted(phylo_metrics.METRICS))}",
    )
    met.add_argument("--out", help="output CSV (default: stdout)")

    cmp_ = sub.add_parser("compare", help="effect size between two metric distributions")
    cmp_.add_argument("--a", required=True, help="glob of metric CSVs, first group")
    cmp_.add_argument("--b", required=True, help="glob of metric CSVs, second group")
    cmp_.add_argument("--metric", required=True, help="metric name to compare")

    orc = sub.add_parser("oracle", help="audit placement closed forms against replay")
    orc.add_argument("--policy", choices=POLICIES, required=True)
    orc.add_argument("--surface-slots", type=int, required=True)
    orc.add_argument("--max-n", type=int, default=4096, help="deposit counts to audit")
    orc.add_argument(
        "--allow-clamp",
        action="store_true",
        help="tolerate tilted gap violations in the overflow (clamp) regime",
    )
    return parser


# -- simulate ---------------------------------------------------------------


def _merge_config(args: argparse.Namespace) -> GridConfig:
    base: dict = {}
    if args.config:
        base = read_manifest(args.config)
        # Accept either a bare config or a full manifest.
        if "config" in base and isinstance(base["config"], dict):
            base = base["config"]
    overrides = {
        "population": args.pop,
        "generations": args.generations,
        "layout": args.layout,
        "policy": args.policy,
        "slot_count": args.surface_slots,
        "differentia_bits": args.differentia_bits,
        "seed": args.seed,
        "torus": args.torus,
        "loss_rate": args.loss_rate,
        "sample_per_pe": args.sample_per_pe,
        "track_perfect": args.track_perfect,
    }
    if args.grid is not None:
        overrides["width"], overrides["height"] = args.grid
    if args.treatment is not None:
        treatment = dict(base.get("treatment") or {})
        treatment["mode"] = args.treatment
        base["treatment"] = treatment
    for key, value in overrides.items():
        if value is not None:
            base[key] = value
    for required in ("width", "height", "generations"):
        if required not in base:
            raise ConfigError(
                f"missing {required}; pass --grid/--generations or a --config file"
            )
    try:
        return GridConfig.from_dict(base)
    except ConfigError as err:
        if args.config is None:
            raise
        raise ConfigError(f"{args.config}: {err}") from None


def _spread(values: np.ndarray) -> dict[str, float]:
    return {"min": int(values.min()), "median": float(np.median(values)), "max": int(values.max())}


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _merge_config(args)
    config.validate()
    started = time.perf_counter()
    grid = DeterministicGrid(config, asynchronous=args.parallel)
    os.makedirs(args.out, exist_ok=True)
    grid.run()
    samples = grid.sample_end_state()
    duration = time.perf_counter() - started

    layout = config.genome_layout()
    genomes_path = os.path.join(args.out, "genomes.csv")
    with open(genomes_path, "w", encoding="utf-8") as fh:
        fh.write(genomes_csv_text(layout, samples))
    outputs = {"genomes": "genomes.csv"}

    if config.track_perfect:
        ids = np.array([s.tracker_id for s in samples], dtype=np.int64)
        labels = [s.label for s in samples]
        tags = [s.fields.founder_tag for s in samples]
        tree = grid.tracker.to_tree(ids, labels, tags)
        with open(os.path.join(args.out, "perfect_tree.csv"), "w", encoding="utf-8") as fh:
            fh.write(export_alife_csv(tree))
        outputs["perfect_tree"] = "perfect_tree.csv"

    mode = "asynchronous" if args.parallel else "deterministic"
    stats = {
        "cycles": grid.cycle,
        "migrants_imported": int(grid.imported.sum()),
        "migrants_exported": int(grid.exported.sum()),
        "migrants_lost": int(grid.lost.sum()),
    }
    if grid.tracker is not None:
        stats["tracker_rows"] = len(grid.tracker)
        stats["tracker_rows_pruned"] = grid.tracker.rows_pruned
        stats["tracker_peak_rows"] = grid.tracker.peak_rows
    # A sample's live slots depend on its counter alone: one residency
    # table per distinct counter gives every sample's record count.
    counters = np.array([s.fields.counter for s in samples], dtype=np.int64)
    distinct, group = np.unique(counters, return_inverse=True)
    held = [len(residency(config.policy, config.slot_count, c)[0]) for c in distinct.tolist()]
    stats["sample_counters"] = _spread(counters)
    stats["sample_records"] = _spread(np.array(held)[group])
    write_manifest(
        os.path.join(args.out, "manifest.json"), config, mode, outputs, duration, stats
    )
    print(
        f"simulated {config.width}x{config.height} grid for "
        f"{config.generations} generations in {grid.cycle} cycles "
        f"({mode}, seed {config.seed}) in {duration:.2f}s"
    )
    print(f"wrote {len(samples)} genomes to {genomes_path}")
    c, r = stats["sample_counters"], stats["sample_records"]
    print(
        f"sampled genomes: counters {c['min']}..{c['max']} (median {c['median']:g}), "
        f"records {r['min']}..{r['max']} (median {r['median']:g})"
    )
    print(
        f"migrants: {stats['migrants_exported']} exported, "
        f"{stats['migrants_imported']} imported, {stats['migrants_lost']} lost in transit"
    )
    if grid.tracker is not None:
        print(
            f"lineage tracker holds {stats['tracker_rows']} rows "
            f"after pruning {stats['tracker_rows_pruned']}, "
            f"at most {stats['tracker_peak_rows']} at once"
        )
    return 0


# -- reconstruct -------------------------------------------------------------


def _reconstruction_params(args: argparse.Namespace) -> tuple[GenomeLayout, str]:
    manifest_path = args.manifest
    if manifest_path is None:
        candidate = os.path.join(os.path.dirname(os.path.abspath(args.genomes)), "manifest.json")
        manifest_path = candidate if os.path.exists(candidate) else None
    layout_kind = args.layout
    policy = args.policy
    slots = args.surface_slots
    bits = args.differentia_bits
    if manifest_path is not None:
        cfg = read_manifest(manifest_path).get("config", {})
        if not isinstance(cfg, dict):
            raise ConfigError(f"{manifest_path}: 'config' must be a JSON object")
        try:
            check_types(GridConfig, cfg)
        except ConfigError as err:
            raise ConfigError(f"{manifest_path}: {err}") from None
        layout_kind = layout_kind or cfg.get("layout")
        policy = policy or cfg.get("policy")
        slots = slots if slots is not None else cfg.get("slot_count")
        bits = bits if bits is not None else cfg.get("differentia_bits")
    if layout_kind is None or policy is None:
        raise ConfigError(
            "no manifest found; pass --manifest or --policy/--layout explicitly"
        )
    slots = 64 if slots is None else slots
    bits = 1 if bits is None else bits
    return GenomeLayout(layout_kind, slots, bits), policy


def cmd_reconstruct(args: argparse.Namespace) -> int:
    ext = os.path.splitext(args.out)[1].lower()
    if ext not in (".newick", ".csv"):
        print(f"unsupported tree extension {ext!r}; use .newick or .csv", file=sys.stderr)
        return 2
    layout, policy = _reconstruction_params(args)
    with open(args.genomes, encoding="utf-8") as fh:
        text = fh.read()
    try:
        rows = read_genomes_csv(text, layout, policy)
    except GenomesCsvError as err:
        raise GenomesCsvError(f"{args.genomes}: {err}") from None
    if not rows:
        print("no genomes to reconstruct from", file=sys.stderr)
        return 1
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tree = build_forest(
            [(r.records, r.label, r.founder_tag) for r in rows], stitch=args.stitch
        )
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)

    payload = export_newick(tree) if ext == ".newick" else export_alife_csv(tree)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(payload)
    print(
        f"reconstructed {tree.n_leaves} leaves into {tree.n_roots} tree(s), "
        f"max depth {tree.max_depth()}; wrote {args.out}"
    )
    shared, per_genome = rank_intersection([r.records for r in rows])
    # Genomes that differ at the first shared rank land in separate trees.
    roots = len({r.records.mapping()[shared[0]] for r in rows}) if shared else len(rows)
    print(
        f"rank intersection kept {len(shared)} of {per_genome:.1f} ranks per genome (mean); "
        f"{roots} root(s) before any stitch"
    )
    return 0


# -- metrics ------------------------------------------------------------------


def _load_tree(path: str):
    ext = os.path.splitext(path)[1].lower()
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        if ext == ".newick":
            return parse_newick(text)
        if ext == ".csv":
            return import_alife_csv(text)
    except (NewickParseError, AlifeCsvError) as err:
        raise type(err)(f"{path}: {err}") from None
    raise ValueError(f"unsupported tree extension {ext!r}; use .newick or .csv")


def cmd_metrics(args: argparse.Namespace) -> int:
    wanted = [m.strip() for m in args.metrics.split(",") if m.strip()]
    unknown = [m for m in wanted if m not in phylo_metrics.METRICS]
    if unknown:
        print(
            f"unknown metric(s) {', '.join(unknown)}; "
            f"valid names: {', '.join(sorted(phylo_metrics.METRICS))}",
            file=sys.stderr,
        )
        return 2
    tree = _load_tree(args.tree)
    name = os.path.splitext(os.path.basename(args.tree))[0]
    lines = ["tree,metric,value"]
    for m in wanted:
        value = phylo_metrics.METRICS[m](tree)
        lines.append(f"{name},{m},{format_time(value)}")
    payload = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
        print(f"wrote {len(wanted)} metric(s) to {args.out}")
    else:
        sys.stdout.write(payload)
    return 0


# -- compare ------------------------------------------------------------------


def _metric_values(pattern: str, metric: str) -> list[float]:
    values = []
    for path in sorted(glob.glob(pattern)):
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            try:
                mi, vi = header.index("metric"), header.index("value")
            except ValueError:
                raise ValueError(f"{path}: expected a tree,metric,value CSV") from None
            for rownum, line in enumerate(fh, start=2):
                parts = line.strip().split(",")
                if len(parts) > max(mi, vi) and parts[mi] == metric:
                    try:
                        values.append(float(parts[vi]))
                    except ValueError as err:
                        raise ValueError(f"{path}: row {rownum}, field 'value': {err}") from None
    return values


def cmd_compare(args: argparse.Namespace) -> int:
    xs = _metric_values(args.a, args.metric)
    ys = _metric_values(args.b, args.metric)
    if not xs or not ys:
        print(
            f"no {args.metric!r} values found (group a: {len(xs)}, group b: {len(ys)})",
            file=sys.stderr,
        )
        return 1
    d = phylo_metrics.cliffs_delta(xs, ys)
    label = phylo_metrics.classify_effect(d)
    print(f"metric={args.metric} cliffs_delta={d:+.4f} effect={label} n_a={len(xs)} n_b={len(ys)}")
    return 0


# -- oracle --------------------------------------------------------------------


def cmd_oracle(args: argparse.Namespace) -> int:
    policy, slots = args.policy, args.surface_slots
    n_equiv = min(args.max_n, 4096)
    mismatches = oracle.equivalence_mismatches(policy, slots, range(n_equiv + 1))
    print(
        f"equivalence: closed form vs replay over N=0..{n_equiv}: "
        f"{'ok' if not mismatches else f'{len(mismatches)} mismatches'}"
    )
    for mm in mismatches[:5]:
        print(
            f"  N={mm.n_deposits} slot={mm.slot}: replay={mm.replayed} "
            f"closed-form={mm.inverted}"
        )
    report = oracle.check_gap_bounds(policy, slots, args.max_n)
    hard = report.hard_violations
    clamped = [v for v in report.violations if v.clamp_regime]
    print(
        f"gap audit to N={args.max_n}: max gap {report.max_gap} at N={report.max_gap_at}; "
        f"{len(hard)} hard violations, {len(clamped)} clamp-regime"
    )
    for v in (hard or clamped)[:5]:
        kind = "clamp" if v.clamp_regime else "HARD"
        print(
            f"  [{kind}] N={v.n_deposits}: gap {v.rank}->{v.next_rank} = {v.gap} "
            f"exceeds bound {v.bound}"
        )
    if mismatches or hard:
        return 1
    if clamped and not args.allow_clamp:
        print("clamp-regime violations present; pass --allow-clamp to tolerate them")
        return 1
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "reconstruct": cmd_reconstruct,
    "metrics": cmd_metrics,
    "compare": cmd_compare,
    "oracle": cmd_oracle,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = _COMMANDS[args.command](args)
        if sys.stdout is not None:  # None when started with stdout closed
            sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return status
    except BrokenPipeError:
        # Nobody reads the rest; send the unflushed output where the
        # interpreter's final flush cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    except (
        ConfigError,
        GenomesCsvError,
        AlifeCsvError,
        NewickParseError,
        OverflowError,
        ValueError,
        OSError,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
