"""Smoke test of the benchmark's own code, on tiny versions of each workload.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import dataclasses
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAMES = list(workloads.WORKLOADS)


def tiny(name):
    wl = workloads.WORKLOADS[name]
    config = dataclasses.replace(
        wl.config, width=3, height=3, generations=40,
        sample_per_pe=min(wl.config.sample_per_pe, 4),
    )
    return dataclasses.replace(wl, config=config, n_triplets=200)


def measure(name, trace=0):
    return bench.measure(tiny(name), seed=1, seconds=0.01, trace=trace)


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_every_named_metric_is_emitted_with_a_unit(name, trace):
    report, result, _ = measure(name, trace)
    assert result["correct"], report["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = bench.PER_LAYER if trace else {**bench.END_TO_END, **bench.REPORT_ONLY}
    if not workloads.WORKLOADS[name].config.track_perfect:
        expected = {k: u for k, u in expected.items() if not k.startswith("triplet")}
    assert set(result["metrics"]) == set(bench.PER_LAYER if trace else bench.END_TO_END)
    for metric, unit in expected.items():
        assert report["metrics"][metric]["unit"] == unit
        assert report["metrics"][metric]["n"] >= (0 if trace else 1)
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and m["unit"]
    if trace:
        assert report["metrics"]["engine.tournament_s"]["n"] == (
            1 if workloads.WORKLOADS[name].engine_in_pass else 0
        )
    else:
        assert all(result["metrics"][m]["value"] > 0 for m in bench.END_TO_END)


def test_untracked_workload_reports_tracker_layers_absent():
    report, result, _ = measure("tagged32-untracked", trace=1)
    assert result["correct"]
    assert {"tracker.prune_s", "tracker.to_tree_s", "triplets.score_s"} <= set(
        report["absent"]
    )


def test_a_vanished_boundary_is_absent_not_an_error(monkeypatch):
    stages = tracing.GRID_STAGES + (("_merged_stages", "engine.merged"),)
    monkeypatch.setattr(tracing, "GRID_STAGES", stages)
    report, result, _ = measure("purifying16-tracked", trace=1)
    assert result["correct"]
    assert "engine.merged" in report["missing_boundaries"]


def corrupting(edit):
    real = workloads.genomes_csv_text

    def write(layout, samples):
        header, first, rest = real(layout, samples).split("\n", 2)
        cells = first.split(",")
        cells = edit(layout, cells)
        return "\n".join([header, ",".join(cells), rest])

    return write


def flip_slot0_bit(layout, cells):
    """Slot 0 holds rank 0 under every policy, so its record changes."""
    i = 2 * (layout.header_bytes + layout.counter_bytes) + 1
    hexed = cells[2]
    cells[2] = hexed[:i] + format(int(hexed[i], 16) ^ 1, "x") + hexed[i + 1 :]
    return cells


def bump_counter_column(layout, cells):
    cells[3] = str(int(cells[3]) + 1)
    return cells


@pytest.mark.parametrize("edit", [flip_slot0_bit, bump_counter_column])
@pytest.mark.parametrize("name", NAMES)
def test_a_corrupted_genomes_csv_is_a_failed_pass(name, edit, monkeypatch):
    monkeypatch.setattr(workloads, "genomes_csv_text", corrupting(edit))
    report, result, _ = measure(name)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert report["problems"]
