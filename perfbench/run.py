"""Layered pipeline benchmark for surftrack.

Run from the repository root:

    python3 perfbench/run.py --workload purifying16-tracked --seed 0 --seconds 25 --trace 0

With ``--trace 0`` it times untraced passes and reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced passes and
reports the per-layer metrics plus the tracing overhead.  Every pass is
checked.  A human-readable report comes first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full report (host, counts, absent boundaries) and, when
traced, the spans are written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "surftrack", "__init__.py")):
        print(f"no surftrack sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import bench  # imports surftrack, so only once src/ is on the path

    wl = bench.workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(bench.workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    report, result, tracer = bench.measure(wl, args.seed, args.seconds, args.trace)
    report["host"] = bench.host_info(root, args.seed)
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{wl.name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"report": report, "result": result}, fh, indent=2)
    if tracer is not None:
        tracer.write(stem + ".spans.jsonl")
    bench.print_report(report, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
