"""End-to-end command-line behavior, driven through main(argv)."""

import json
import os
import statistics
import subprocess
import sys

import pytest

import surftrack
from surftrack.cli import main
from surftrack.phylo.serialize import import_alife_csv, parse_newick
from surftrack.sim.output import read_genomes_csv, read_manifest
from surftrack.surface.genome import GenomeLayout


def simulate_into(dirpath, *extra) -> int:
    return main(
        [
            "simulate",
            "--grid",
            "2x2",
            "--generations",
            "20",
            "--pop",
            "8",
            "--sample-per-pe",
            "2",
            "--out",
            str(dirpath),
            *extra,
        ]
    )


# -- argparse-level behavior ---------------------------------------------


def test_no_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2
    assert pytest.raises(SystemExit, main, ["bench"]).value.code == 2  # retired


def test_version_flag():
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0


def test_malformed_grid_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as e:
        main(["simulate", "--grid", "3", "--generations", "5", "--out", str(tmp_path)])
    assert e.value.code == 2


# -- simulate --------------------------------------------------------------


def test_simulate_writes_genomes_and_manifest(tmp_path, capsys):
    assert simulate_into(tmp_path / "run") == 0
    out = capsys.readouterr().out
    assert "wrote 8 genomes" in out
    assert (tmp_path / "run" / "genomes.csv").exists()
    manifest = read_manifest(str(tmp_path / "run" / "manifest.json"))
    assert manifest["mode"] == "deterministic"
    assert manifest["config"]["width"] == 2
    assert not (tmp_path / "run" / "perfect_tree.csv").exists()


def test_simulate_without_geometry_fails_cleanly(tmp_path, capsys):
    rc = main(["simulate", "--generations", "5", "--out", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_simulate_into_a_closed_pipe_exits_quietly(tmp_path, unbuffered):
    src = os.path.dirname(os.path.dirname(surftrack.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONUNBUFFERED=unbuffered)
    args = ["simulate", "--grid", "2x2", "--generations", "20", "--out", str(tmp_path)]
    proc = subprocess.Popen(
        [sys.executable, "-m", "surftrack.cli", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()  # the reader goes away before the first line is printed
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""
    assert (tmp_path / "genomes.csv").exists()
    assert (tmp_path / "manifest.json").exists()


def test_tracked_simulate_adds_the_exact_tree(tmp_path):
    assert simulate_into(tmp_path, "--track-perfect") == 0
    tree = import_alife_csv((tmp_path / "perfect_tree.csv").read_text())
    labels = sorted(l.label for l in tree.leaves())
    assert len(labels) == 8
    assert labels[0].startswith("pe")
    manifest = read_manifest(str(tmp_path / "manifest.json"))
    assert manifest["outputs"]["perfect_tree"] == "perfect_tree.csv"


def test_parallel_simulate_is_labeled_in_the_manifest(tmp_path):
    assert simulate_into(tmp_path, "--parallel") == 0
    assert read_manifest(str(tmp_path / "manifest.json"))["mode"] == "asynchronous"


def test_parallel_reruns_are_byte_identical(tmp_path):
    for run in ("one", "two"):
        assert simulate_into(tmp_path / run, "--parallel", "--track-perfect", "--seed", "3") == 0
    for name in ("genomes.csv", "perfect_tree.csv"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


@pytest.mark.parametrize("extra", [(), ("--parallel",)], ids=["lockstep", "asynchronous"])
def test_simulate_reports_run_stats(tmp_path, capsys, extra):
    assert simulate_into(tmp_path, *extra) == 0
    manifest = read_manifest(str(tmp_path / "manifest.json"))
    stats = manifest["stats"]
    assert set(stats) == {
        "cycles",
        "migrants_imported",
        "migrants_exported",
        "migrants_lost",
        "sample_counters",
        "sample_records",
    }
    if extra:
        assert stats["cycles"] > 20  # some PEs stalled on some cycles
    else:
        assert stats["cycles"] == 20
    out = capsys.readouterr().out
    assert f"20 generations in {stats['cycles']} cycles" in out
    assert stats["migrants_lost"] == 0  # no transit loss configured
    assert (
        f"migrants: {stats['migrants_exported']} exported, "
        f"{stats['migrants_imported']} imported, 0 lost in transit"
    ) in out
    # Each import empties a full 4-migrant stage; what was delivered but is
    # still staged has been exported without being imported yet.
    assert 0 < stats["migrants_imported"] <= stats["migrants_exported"]
    assert stats["migrants_imported"] % 4 == 0
    # The sample spreads agree with what genomes.csv decodes to.
    cfg = manifest["config"]
    rows = read_genomes_csv(
        (tmp_path / "genomes.csv").read_text(),
        GenomeLayout(cfg["layout"], cfg["slot_count"], cfg["differentia_bits"]),
        cfg["policy"],
    )
    for key, values in (
        ("sample_counters", [r.records.counter for r in rows]),
        ("sample_records", [len(r.records) for r in rows]),
    ):
        assert stats[key] == {
            "min": min(values), "median": statistics.median(values), "max": max(values)
        }
    c, r = stats["sample_counters"], stats["sample_records"]
    assert (
        f"sampled genomes: counters {c['min']}..{c['max']} (median {c['median']:g}), "
        f"records {r['min']}..{r['max']} (median {r['median']:g})"
    ) in out


@pytest.mark.parametrize("extra", [(), ("--parallel",)], ids=["lockstep", "asynchronous"])
def test_tracked_simulate_reports_tracker_rows(tmp_path, capsys, extra):
    assert simulate_into(tmp_path / "tracked", "--track-perfect", *extra) == 0
    stats = read_manifest(str(tmp_path / "tracked" / "manifest.json"))["stats"]
    # every founder and every birth is either still held or was pruned:
    # 2x2 PEs of 8 lanes, founders plus 20 generations of births
    assert stats["tracker_rows"] + stats["tracker_rows_pruned"] == 4 * 8 * 21
    assert 0 < stats["tracker_rows"] < stats["tracker_rows_pruned"]
    # the most rows held at once: at least what is left, at most every birth
    assert stats["tracker_rows"] < stats["tracker_peak_rows"] <= 4 * 8 * 21
    assert (
        f"lineage tracker holds {stats['tracker_rows']} rows "
        f"after pruning {stats['tracker_rows_pruned']}, "
        f"at most {stats['tracker_peak_rows']} at once"
    ) in capsys.readouterr().out
    assert simulate_into(tmp_path / "untracked", *extra) == 0
    stats = read_manifest(str(tmp_path / "untracked" / "manifest.json"))["stats"]
    assert not {"tracker_rows", "tracker_rows_pruned", "tracker_peak_rows"} & set(stats)
    assert "lineage tracker" not in capsys.readouterr().out


def test_config_file_reruns_are_byte_identical(tmp_path):
    assert simulate_into(tmp_path / "one") == 0
    rc = main(
        [
            "simulate",
            "--config",
            str(tmp_path / "one" / "manifest.json"),
            "--out",
            str(tmp_path / "two"),
        ]
    )
    assert rc == 0
    assert (tmp_path / "one" / "genomes.csv").read_bytes() == (
        tmp_path / "two" / "genomes.csv"
    ).read_bytes()


def test_config_file_flag_overrides_win(tmp_path):
    assert simulate_into(tmp_path / "one") == 0
    rc = main(
        [
            "simulate",
            "--config",
            str(tmp_path / "one" / "manifest.json"),
            "--seed",
            "9",
            "--out",
            str(tmp_path / "two"),
        ]
    )
    assert rc == 0
    two = read_manifest(str(tmp_path / "two" / "manifest.json"))
    assert two["config"]["seed"] == 9
    assert (tmp_path / "one" / "genomes.csv").read_text() != (
        tmp_path / "two" / "genomes.csv"
    ).read_text()


def test_malformed_config_file_names_the_file(tmp_path, capsys):
    bad = tmp_path / "config.json"
    bad.write_text('{"width": 2,')
    rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "run")])
    assert rc == 1
    assert f"error: {bad}: Expecting property name" in capsys.readouterr().err


# -- reconstruct -------------------------------------------------------------


def test_reconstruct_round_trips_the_samples(tmp_path, capsys):
    simulate_into(tmp_path)
    out = tmp_path / "tree.newick"
    rc = main(
        ["reconstruct", "--genomes", str(tmp_path / "genomes.csv"), "--out", str(out)]
    )
    assert rc == 0
    assert "reconstructed 8 leaves" in capsys.readouterr().out
    tree = parse_newick(out.read_text())
    assert sorted(l.label for l in tree.leaves()) == sorted(
        f"pe{x}_{y}_{j}" for x in range(2) for y in range(2) for j in range(2)
    )


def test_reconstruct_reports_the_rank_intersection(tmp_path, capsys):
    simulate_into(tmp_path, "--generations", "200", "--sample-per-pe", "3")
    layout = GenomeLayout("tagged", 64, 1)
    rows = read_genomes_csv((tmp_path / "genomes.csv").read_text(), layout, "tilted")
    rank_sets = [set(r.records.ranks()) for r in rows]
    shared = set.intersection(*rank_sets)
    mean = sum(len(ranks) for ranks in rank_sets) / len(rows)
    assert 0 < len(shared) < mean  # 200 generations leave ragged rank sets
    for extra in ((), ("--stitch",)):
        out = tmp_path / f"tree{len(extra)}.newick"
        rc = main(
            ["reconstruct", "--genomes", str(tmp_path / "genomes.csv"), "--out", str(out), *extra]
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        if not extra:
            roots = len(parse_newick(out.read_text()).roots)
        assert lines[-1] == (
            f"rank intersection kept {len(shared)} of {mean:.1f} ranks per genome (mean); "
            f"{roots} root(s) before any stitch"
        )


def test_reconstruct_to_alife_csv(tmp_path):
    simulate_into(tmp_path)
    out = tmp_path / "tree.csv"
    rc = main(
        ["reconstruct", "--genomes", str(tmp_path / "genomes.csv"), "--out", str(out)]
    )
    assert rc == 0
    assert import_alife_csv(out.read_text()).n_leaves == 8


def test_reconstruct_names_the_file_row_and_field_of_a_bad_genome(tmp_path, capsys):
    simulate_into(tmp_path)
    genomes = tmp_path / "genomes.csv"
    lines = genomes.read_text().splitlines()
    cells = lines[2].split(",")
    cells[1] = "north"  # pe_y
    lines[2] = ",".join(cells)
    genomes.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = main(["reconstruct", "--genomes", str(genomes), "--out", str(tmp_path / "t.newick")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: {genomes}: row 3, field 'pe_y': " in err


def test_reconstruct_rejects_unknown_extension(tmp_path, capsys):
    simulate_into(tmp_path)
    genomes = tmp_path / "genomes.csv"
    lines = genomes.read_text().splitlines()
    cells = lines[1].split(",")
    cells[2] = "zz"  # genome_hex
    lines[1] = ",".join(cells)
    genomes.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    out = tmp_path / "t.nexus"
    rc = main(["reconstruct", "--genomes", str(genomes), "--out", str(out)])
    assert rc == 2
    assert "unsupported tree extension" in capsys.readouterr().err
    assert not out.exists()


def test_reconstruct_names_a_malformed_manifest(tmp_path, capsys):
    simulate_into(tmp_path)
    bad = tmp_path / "broken.json"
    bad.write_text("not json")
    capsys.readouterr()
    rc = main(
        [
            "reconstruct",
            "--genomes",
            str(tmp_path / "genomes.csv"),
            "--manifest",
            str(bad),
            "--out",
            str(tmp_path / "t.newick"),
        ]
    )
    assert rc == 1
    assert f"error: {bad}: Expecting value" in capsys.readouterr().err


def test_reconstruct_needs_a_manifest_or_flags(tmp_path, capsys):
    simulate_into(tmp_path / "run")
    bare = tmp_path / "bare"
    bare.mkdir()
    (bare / "genomes.csv").write_text((tmp_path / "run" / "genomes.csv").read_text())
    rc = main(
        [
            "reconstruct",
            "--genomes",
            str(bare / "genomes.csv"),
            "--out",
            str(bare / "t.newick"),
        ]
    )
    assert rc == 1
    assert "no manifest found" in capsys.readouterr().err

    rc = main(
        [
            "reconstruct",
            "--genomes",
            str(bare / "genomes.csv"),
            "--policy",
            "tilted",
            "--layout",
            "tagged",
            "--out",
            str(bare / "t.newick"),
        ]
    )
    assert rc == 0


def reconstruct_with(tmp_path, *extra) -> int:
    return main(
        [
            "reconstruct",
            "--genomes",
            str(tmp_path / "genomes.csv"),
            "--out",
            str(tmp_path / "t.newick"),
            *extra,
        ]
    )


@pytest.mark.parametrize(
    "config, message",
    [
        ([], "'config' must be a JSON object"),
        ({"layout": "tagged", "policy": "tilted", "slot_count": "64"},
         "slot_count must be int, got '64'"),
        ({"layout": "tagged", "policy": "tilted", "differentia_bits": True},
         "differentia_bits must be int, got True"),
        ({"layout": ["tagged"], "policy": "tilted"}, "layout must be str, got ['tagged']"),
    ],
)
def test_reconstruct_rejects_a_malformed_manifest_config(tmp_path, capsys, config, message):
    simulate_into(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"config": config}))
    capsys.readouterr()
    assert reconstruct_with(tmp_path, "--manifest", str(bad)) == 1
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"


@pytest.mark.parametrize(
    "flag, message",
    [
        ("--surface-slots", "slot_count must be positive"),
        ("--differentia-bits", "differentia_bits must be 1..8, got 0"),
    ],
)
def test_reconstruct_zero_overrides_reach_the_layout_check(tmp_path, capsys, flag, message):
    simulate_into(tmp_path)
    capsys.readouterr()
    assert reconstruct_with(tmp_path, flag, "0") == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_simulate_names_the_config_file_and_key_of_a_mistyped_value(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"width": 2, "height": 2, "generations": 5, "torus": "no"}))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == f"error: {config}: torus must be bool, got 'no'\n"
    assert not (tmp_path / "run" / "manifest.json").exists()


def test_stitch_flag_forces_a_single_root(tmp_path):
    simulate_into(tmp_path)
    rc = main(
        [
            "reconstruct",
            "--genomes",
            str(tmp_path / "genomes.csv"),
            "--stitch",
            "--out",
            str(tmp_path / "tree.newick"),
        ]
    )
    assert rc == 0
    assert len(parse_newick((tmp_path / "tree.newick").read_text()).roots) == 1


# -- metrics and compare -------------------------------------------------------


def write_cherry(path):
    path.write_text("(A:10,B:10):0;\n")


def test_metrics_to_stdout(tmp_path, capsys):
    write_cherry(tmp_path / "pair.newick")
    rc = main(["metrics", "--tree", str(tmp_path / "pair.newick")])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "tree,metric,value"
    assert "pair,sbl,20" in out
    assert "pair,mpd,2" in out
    assert "pair,colless,0" in out
    assert "pair,med,10" in out


def test_metrics_to_file(tmp_path, capsys):
    write_cherry(tmp_path / "pair.newick")
    out = tmp_path / "m.csv"
    rc = main(
        ["metrics", "--tree", str(tmp_path / "pair.newick"), "--metrics", "sbl", "--out", str(out)]
    )
    assert rc == 0
    assert out.read_text() == "tree,metric,value\npair,sbl,20\n"


def test_unknown_metric_is_a_usage_error(tmp_path, capsys):
    write_cherry(tmp_path / "pair.newick")
    rc = main(["metrics", "--tree", str(tmp_path / "pair.newick"), "--metrics", "sbl,nope"])
    assert rc == 2
    assert "valid names" in capsys.readouterr().err


def test_pairwise_metrics_refuse_forests(tmp_path, capsys):
    (tmp_path / "forest.newick").write_text("(A:10,B:10):0;\n(C:5,D:5):0;\n")
    rc = main(["metrics", "--tree", str(tmp_path / "forest.newick"), "--metrics", "mpd"])
    assert rc == 1
    assert "stitch the forest" in capsys.readouterr().err


def test_metrics_names_the_file_of_a_bad_tree(tmp_path, capsys):
    bad = tmp_path / "bad.newick"
    bad.write_text("(A:x,B:1);\n")
    rc = main(["metrics", "--tree", str(bad)])
    assert rc == 1
    assert f"error: {bad}: line 1: bad branch length" in capsys.readouterr().err


def test_metrics_names_the_row_of_a_short_alife_row(tmp_path, capsys):
    bad = tmp_path / "t.csv"
    bad.write_text("id,ancestor_list,origin_time\n0\n")
    rc = main(["metrics", "--tree", str(bad)])
    assert rc == 1
    assert f"error: {bad}: row 2" in capsys.readouterr().err


def test_compare_reports_effect_size(tmp_path, capsys):
    for name, value in (("a1", 20), ("a2", 30), ("b1", 5), ("b2", 6)):
        (tmp_path / f"{name}.csv").write_text(f"tree,metric,value\nt,sbl,{value}\n")
    rc = main(
        [
            "compare",
            "--a",
            str(tmp_path / "a*.csv"),
            "--b",
            str(tmp_path / "b*.csv"),
            "--metric",
            "sbl",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "cliffs_delta=+1.0000" in out
    assert "effect=large" in out
    assert "n_a=2 n_b=2" in out


def test_compare_with_no_matches_fails(tmp_path, capsys):
    (tmp_path / "a.csv").write_text("tree,metric,value\nt,sbl,1\n")
    rc = main(
        [
            "compare",
            "--a",
            str(tmp_path / "a.csv"),
            "--b",
            str(tmp_path / "missing*.csv"),
            "--metric",
            "sbl",
        ]
    )
    assert rc == 1
    assert "no 'sbl' values found" in capsys.readouterr().err


def test_compare_names_the_file_row_and_field_of_a_bad_value(tmp_path, capsys):
    (tmp_path / "a.csv").write_text("tree,metric,value\nt,sbl,1\n")
    (tmp_path / "b.csv").write_text("tree,metric,value\nt,mpd,2\nt,sbl,abc\n")
    rc = main(
        [
            "compare",
            "--a",
            str(tmp_path / "a.csv"),
            "--b",
            str(tmp_path / "b.csv"),
            "--metric",
            "sbl",
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: {tmp_path / 'b.csv'}: row 3, field 'value': " in err
    assert "'abc'" in err


# -- oracle ----------------------------------------------------------------------


def test_oracle_passes_on_a_clean_policy(capsys):
    rc = main(["oracle", "--policy", "steady", "--surface-slots", "8", "--max-n", "600"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "equivalence: closed form vs replay over N=0..600: ok" in out
    assert "0 hard violations" in out


def test_oracle_gates_clamp_regime_behind_a_flag(capsys):
    args = ["oracle", "--policy", "tilted", "--surface-slots", "8", "--max-n", "64"]
    assert main(args) == 1
    assert "--allow-clamp" in capsys.readouterr().out
    assert main([*args, "--allow-clamp"]) == 0
