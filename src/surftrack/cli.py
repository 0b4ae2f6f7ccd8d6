"""Command-line entry points.

Subcommands: simulate, reconstruct, metrics, compare, oracle.
Exit codes: 0 success, 1 failure (bad data, violated checks), 2 usage,
141 standard output closed by its reader (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import glob
import io
import os
import sys
import time
import warnings
from dataclasses import fields

import numpy as np

from . import __version__, oracle
from .phylo import metrics as phylo_metrics
from .phylo.reconstruct import build_forest, rank_intersection, stitch_roots
from .phylo.serialize import (
    export_alife_csv,
    export_newick,
    format_time,
    import_alife_csv,
    parse_newick,
)
from .sim.config import ConfigError, GridConfig, check_types
from .sim.engine import DeterministicGrid
from .sim.output import genomes_csv_text, read_genomes_csv, read_manifest, write_manifest
from .surface.annotation import residency
from .surface.genome import GenomeLayout
from .surface.sites import POLICIES
from .tables import Table, finite


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
    sim.add_argument("--pop", type=int, dest="population", help="genomes per PE (default 32)")
    sim.add_argument("--generations", type=int, help="generation steps per PE")
    sim.add_argument(
        "--treatment",
        choices=("neutral", "purifying", "adaptive"),
        dest="mode",
        help="mutation regime",
    )
    sim.add_argument("--layout", choices=("tagged", "fitness"), help="genome wire format")
    sim.add_argument("--policy", choices=POLICIES, help="surface placement policy")
    sim.add_argument(
        "--surface-slots", type=int, dest="slot_count", help="surface slot count (default 64)"
    )
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
    rec.add_argument(
        "--surface-slots", type=int, dest="slot_count", help="override manifest slot count"
    )
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


@contextlib.contextmanager
def _about(path: str | None):
    """Prefix ``path`` to a ValueError raised inside, an error about that
    file's contents; with no path, leave the error as it is."""
    try:
        yield
    except ValueError as err:
        if path is None:
            raise
        raise ValueError(f"{path}: {err}") from None


def _load_config(args: argparse.Namespace, path: str | None) -> dict:
    """The run config in ``path`` (none if None), a bare config or a
    manifest holding one under "config", with every flag whose dest is a
    ``GridConfig`` field laid over it; type-checked, and errors name the file."""
    with _about(path):
        data = {} if path is None else read_manifest(path)
        if "config" in data:
            data = data["config"]
            if not isinstance(data, dict):
                raise ConfigError("'config' must be a JSON object")
        for f in fields(GridConfig):
            if getattr(args, f.name, None) is not None:
                data[f.name] = getattr(args, f.name)
        check_types(GridConfig, data)
    return data


def _grid_config(args: argparse.Namespace) -> GridConfig:
    base = _load_config(args, args.config)
    if args.grid is not None:
        base["width"], base["height"] = args.grid
    if args.mode is not None:
        base["treatment"] = dict(base.get("treatment") or {}, mode=args.mode)
    for required in ("width", "height", "generations"):
        if required not in base:
            raise ConfigError(
                f"missing {required}; pass --grid/--generations or a --config file"
            )
    with _about(args.config):
        return GridConfig.from_dict(base)


def _spread(values: np.ndarray) -> dict[str, float]:
    return {"min": int(values.min()), "median": float(np.median(values)), "max": int(values.max())}


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _grid_config(args)
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
    # A sample's live slots depend on its counter alone: the process's
    # residency table of each distinct counter gives every sample's record count.
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
    path = args.manifest
    if path is None:
        candidate = os.path.join(os.path.dirname(os.path.abspath(args.genomes)), "manifest.json")
        path = candidate if os.path.exists(candidate) else None
    cfg = _load_config(args, path)
    missing = " or ".join(key for key in ("policy", "layout") if key not in cfg)
    if missing:
        found = "no manifest found" if path is None else f"{path}: config has no {missing}"
        raise ConfigError(f"{found}; pass --manifest or --policy/--layout explicitly")
    slots = cfg.get("slot_count", GridConfig.slot_count)
    bits = cfg.get("differentia_bits", GridConfig.differentia_bits)
    return GenomeLayout(cfg["layout"], slots, bits), cfg["policy"]


def _tree_extension(path: str) -> str | None:
    """The extension of a tree file's ``path``, or None, said on stderr,
    if it names no tree format."""
    ext = os.path.splitext(path)[1].lower()
    if ext in (".newick", ".csv"):
        return ext
    print(f"unsupported tree extension {ext!r}; use .newick or .csv", file=sys.stderr)
    return None


def cmd_reconstruct(args: argparse.Namespace) -> int:
    ext = _tree_extension(args.out)
    if ext is None:
        return 2
    layout, policy = _reconstruction_params(args)
    with _about(args.genomes), open(args.genomes, encoding="utf-8") as fh:
        rows = read_genomes_csv(fh.read(), layout, policy)
    if not rows:
        print("no genomes to reconstruct from", file=sys.stderr)
        return 1
    shared, per_genome = rank_intersection([r.records for r in rows])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tree = build_forest([(r.records, r.label, r.founder_tag) for r in rows])
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    roots = tree.n_roots
    if args.stitch:
        stitch_roots(tree)

    payload = export_newick(tree) if ext == ".newick" else export_alife_csv(tree)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(payload)
    print(
        f"reconstructed {tree.n_leaves} leaves into {tree.n_roots} tree(s), "
        f"max depth {tree.max_depth()}; wrote {args.out}"
    )
    print(
        f"rank intersection kept {len(shared)} of {per_genome:.1f} ranks per genome (mean); "
        f"{roots} root(s) before any stitch"
    )
    return 0


# -- metrics ------------------------------------------------------------------


def cmd_metrics(args: argparse.Namespace) -> int:
    wanted = [m.strip() for m in args.metrics.split(",") if m.strip()]
    unknown = [m for m in wanted if m not in phylo_metrics.METRICS]
    if unknown or not wanted:
        what = f"unknown metric(s) {', '.join(unknown)}" if unknown else "no metric named"
        print(
            f"{what}; valid names: {', '.join(sorted(phylo_metrics.METRICS))}",
            file=sys.stderr,
        )
        return 2
    ext = _tree_extension(args.tree)
    if ext is None:
        return 2
    with _about(args.tree), open(args.tree, encoding="utf-8") as fh:
        tree = (parse_newick if ext == ".newick" else import_alife_csv)(fh.read())
    name = os.path.splitext(os.path.basename(args.tree))[0]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("tree", "metric", "value"))
    refused = 0
    for m in wanted:
        try:
            value = phylo_metrics.METRICS[m](tree)
        except ValueError as err:
            print(f"error: {args.tree}: {m}: {err}", file=sys.stderr)
            refused += 1
            continue
        writer.writerow((name, m, format_time(value)))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(buf.getvalue())
        print(f"wrote {len(wanted) - refused} metric(s) to {args.out}")
    else:
        sys.stdout.write(buf.getvalue())
    return 1 if refused else 0


# -- compare ------------------------------------------------------------------


def _metric_values(pattern: str, metric: str) -> list[float]:
    values = []
    for path in sorted(glob.glob(pattern)):
        with _about(path), open(path, encoding="utf-8", newline="") as fh:
            table = Table(fh.read(), ("metric", "value"), ValueError)
            for rownum, row in table.rows:
                if table.cell(row, rownum, "metric", str) == metric:
                    values.append(table.cell(row, rownum, "value", finite))
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
    except (OverflowError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
