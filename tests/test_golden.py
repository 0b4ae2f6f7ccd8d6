"""Pinned artifact hashes: the engine's random-draw protocol must not drift.

Each case is a tiny run rendered the way ``surftrack simulate`` writes
it.  The sha256 of ``genomes.csv`` (and of ``perfect_tree.csv`` for
tracked runs) is pinned, so any change to which draws are taken, in
what order, or how they are used shows up here.  Together the cases
cover every branch of the tournament, mutation and deposit stages:
tagged and fitness layouts, all-tie tournaments, each treatment and
policy, the 8-bit surface, a 3-bit surface of 128 slots, in-transit
loss, the torus and tracking.
``tagged-tracked-400`` runs 400 lockstep cycles, so the engine prunes
the tracker ``400 // PRUNE_INTERVAL`` times (fifty at 8 cycles) before
the final prune, and its tree hash checks the lineage records across
prunes.  The prune cadence must not show in any artifact: two tracked
cases are rerun pruning every cycle and never before the end.
The cases in ASYNCHRONOUS run the step-or-stall schedule; they have no
earlier engine to agree with, so their hashes were recorded when that
mode was added and pin it against drift.

DECODED pins what ``read_genomes_csv`` makes of each case's
``genomes.csv``: a canonical rendering of every row's label, records,
founder tag and fitness repr.  Its hashes were recorded with the
per-genome decoder that preceded the columnar one, so they check that
the two agree.

RECONSTRUCTED pins what the phylo layer makes of each case's decoded
rows: ``build_forest``'s Newick and ALife CSV with and without
``stitch``, its ``max_depth``, the ``repr`` of every metric that
applies, and for tracked cases the triplet score against the tracker
tree.  Its hashes were recorded with the trie-based builder that
preceded the sorted-row one, so they check that the two agree.  Every
tree these cases build, tracked or reconstructed, must also pass
``PhyloTree.validate``.

The ``tagged-3bit-128`` hashes were recorded with the per-slot uint8
surface form that preceded the engine's packed words at every width,
so they check that the two agree.

To regenerate after a deliberate protocol change, run this module as a
script with the package on the path; it prints the new tables.
"""

import hashlib

import numpy as np
import pytest

from surftrack.phylo.metrics import METRICS
from surftrack.phylo.reconstruct import build_forest
from surftrack.phylo.serialize import export_alife_csv, export_newick
from surftrack.phylo.triplets import sampled_triplet_error
from surftrack.sim import engine
from surftrack.sim.config import GridConfig, Treatment
from surftrack.sim.engine import DeterministicGrid
from surftrack.sim.output import genomes_csv_text, read_genomes_csv

CASES = {
    "tagged-neutral": dict(),
    "fitness-neutral": dict(layout="fitness", population=12),
    "purifying-steady": dict(
        layout="fitness", policy="steady", treatment=Treatment(mode="purifying")
    ),
    "adaptive-hybrid": dict(
        layout="fitness",
        policy="hybrid",
        population=10,
        treatment=Treatment(mode="adaptive", beneficial_p=0.05),
    ),
    "purifying-8bit": dict(
        layout="fitness",
        policy="hybrid",
        differentia_bits=8,
        slot_count=16,
        treatment=Treatment(mode="purifying"),
    ),
    "tagged-3bit-128": dict(differentia_bits=3, slot_count=128),
    "tagged-lossy-torus-tracked": dict(
        loss_rate=0.3, torus=True, track_perfect=True, population=6
    ),
    "adaptive-steady-tracked": dict(
        layout="fitness",
        policy="steady",
        slot_count=32,
        track_perfect=True,
        loss_rate=0.1,
        treatment=Treatment(mode="adaptive"),
    ),
    "async-lossy-tracked": dict(loss_rate=0.3, track_perfect=True),
    "tagged-tracked-400": dict(generations=400, track_perfect=True),
}

ASYNCHRONOUS = {"async-lossy-tracked"}

GOLDEN = {
    "tagged-neutral": {
        "genomes.csv": "cead9947d773ea959ccfbcb84848086035af1392fa3fd9a0829e0a999423c5f9",
    },
    "fitness-neutral": {
        "genomes.csv": "a521b5f46a2ef792f9f8321b582f93d682d71224cf8cf25004c70cb36a03c472",
    },
    "purifying-steady": {
        "genomes.csv": "0dda369aa6673831fc6eb307c7c438fc4dc539deb3b8d54fcc902f58077a7d11",
    },
    "adaptive-hybrid": {
        "genomes.csv": "824761dfd2cd239f6d05f0f091c6ae268c975c0aa5021cbd3e8428aafd8fcb93",
    },
    "purifying-8bit": {
        "genomes.csv": "9d88b6488d979838a4d9299fc489c8724217514af18331169b10fccaa9c84d40",
    },
    "tagged-3bit-128": {
        "genomes.csv": "71d05ca2bee8e9d78260ed42a06c808763f8959a86b897bb69705db6d48f466a",
    },
    "tagged-lossy-torus-tracked": {
        "genomes.csv": "782d47fe25afc271c0153d18c7bb782a7693b5f5c0961625bcf94aad086bc2d1",
        "perfect_tree.csv": "8f36bedc8ba048c11291dc28a7d731c6da58fd8e67278ae86ff41468e483ca47",
    },
    "adaptive-steady-tracked": {
        "genomes.csv": "c3979faa1e3b48178b50632903b084e7557e9253cbae93ecf966b64b9a8c01e4",
        "perfect_tree.csv": "cb88b1590d9b6756b8b12d93078b9d168a0c78dd7953b25e09d0ed7b224aeeb2",
    },
    "async-lossy-tracked": {
        "genomes.csv": "400ab9a8158fbdffeb6e0b34a7df8f405918acddfcb19ec23ec48d413f4a9954",
        "perfect_tree.csv": "5f3baee74f6d7ac02eeada4c0d47c8ac302aa9f2cf22e0cf8c19573407e25e44",
    },
    "tagged-tracked-400": {
        "genomes.csv": "2185d595f7e626c27f81670ce577a47558ea7b48fb315a948cd63ba45b249d93",
        "perfect_tree.csv": "9f265bd74e6814b098a30aa4966c1093b6f61d34e63f99f659dd2948b4ee5040",
    },
}


DECODED = {
    "adaptive-hybrid": "a588103c641839c4d7f0834bf3d917050ecf3a8b75a5025a6290ef41d19ca6fe",
    "adaptive-steady-tracked": "33dc568790bc1e86c6a7abbfc8048bc4711bc460046e3e6e9c7080d78ea63664",
    "async-lossy-tracked": "84646f33a144246a36b40e9c5ff33b42704325fc19935a9f42db106c6ddaaa96",
    "fitness-neutral": "1ef36d264854645678ce6657cf243aac0097083c4b4b7b4911750eaa2f07ee51",
    "purifying-8bit": "622bff8a84a1992315f98eb22aecd5d2c8c99fe095ea8116704bd869648cdac8",
    "purifying-steady": "880cc00e8b089bb7282280f84101405dea923cc322b90170cf682c743b46eff1",
    "tagged-3bit-128": "e58c30f6e19927ae28ed68f3d4546fa613d8386d123868c208242a78e202ea75",
    "tagged-lossy-torus-tracked": "5ce57d921d72eb94ffd17484ee9641a548980165ba7a454404b1704e9345465d",
    "tagged-neutral": "c15cc1e752e6456854c3b3720ec046564f166266f0b5a8d47952c4fdccdf3f49",
    "tagged-tracked-400": "fb22c52b42f8b2aede72e655a3f684b93ed9ff32e7e639acf1a29b361d93ee3b",
}


RECONSTRUCTED = {
    "adaptive-hybrid": "0162a34b68ccff281c67f805e418afc84b291ce99b4477a7e78a98469ffbdb91",
    "adaptive-steady-tracked": "bb810eadfddd90b2805c86522eb07c18e5446e10be276cd2d150f160321e00d0",
    "async-lossy-tracked": "aaf6c01adca286c8af6ca84c94e30619e595c081fa6c433cbb16f2b581d5de22",
    "fitness-neutral": "e49db231748eaa6d8e1fecb91fe14899fb78ff36b7d782d9f141c292ba451a13",
    "purifying-8bit": "c651fd31e4604b5900de00d07258bf92da7fcd365364bdbff77e6df9d0a6f9b8",
    "purifying-steady": "13e6db0277e5c7da6e14e8c11b2cee085446bd448871f903fdabe4b8c1b5fabe",
    "tagged-3bit-128": "c830de54f8b20762df91ca9a1a6624cf8978f5dcc84dfeb49d6edd5c2311e467",
    "tagged-lossy-torus-tracked": "629cf1c0f52fde186f0db569546a7ea48f571c2d454f7697da844c4807570f51",
    "tagged-neutral": "4b83a995517b8b705da3091143fe8d61ae8649e897eb7e83c39f4d3321829184",
    "tagged-tracked-400": "624bb2b376e3515ffcfbb53615a6df500d7a0cf717ffe5eb6b1f5c05882d66b1",
}


def case_config(name: str) -> GridConfig:
    base = dict(width=3, height=3, generations=150, population=8, seed=5, sample_per_pe=3)
    base.update(CASES[name])
    return GridConfig(**base)


def case_genomes_csv(config: GridConfig, asynchronous: bool = False):
    grid = DeterministicGrid(config, asynchronous=asynchronous)
    grid.run()
    samples = grid.sample_end_state()
    return grid, samples, genomes_csv_text(config.genome_layout(), samples)


def tracker_tree(grid, samples):
    tree = grid.tracker.to_tree(
        np.array([s.tracker_id for s in samples], dtype=np.int64),
        [s.label for s in samples],
        [s.fields.founder_tag for s in samples],
    )
    tree.validate()
    return tree


def artifact_hashes(config: GridConfig, asynchronous: bool = False) -> dict[str, str]:
    grid, samples, text = case_genomes_csv(config, asynchronous)
    texts = {"genomes.csv": text}
    if grid.tracker is not None:
        texts["perfect_tree.csv"] = export_alife_csv(tracker_tree(grid, samples))
    return {k: hashlib.sha256(v.encode()).hexdigest() for k, v in texts.items()}


def decoded_hash(config: GridConfig, asynchronous: bool = False) -> str:
    text = case_genomes_csv(config, asynchronous)[2]
    rows = read_genomes_csv(text, config.genome_layout(), config.policy)
    rendering = "".join(
        f"{r.label} {_records_text(r.records)} {r.founder_tag!r} {r.fitness!r}\n" for r in rows
    )
    return hashlib.sha256(rendering.encode()).hexdigest()


def _records_text(records) -> str:
    """A record set's (rank, value) pairs and counter, spelled as the
    DECODED hashes were recorded, so they do not depend on field names."""
    pairs = tuple(zip(records.ranks(), records.values))
    return f"RecordSet(entries={pairs!r}, counter={records.counter!r})"


def reconstructed_hash(config: GridConfig, asynchronous: bool = False) -> str:
    grid, samples, text = case_genomes_csv(config, asynchronous)
    rows = read_genomes_csv(text, config.genome_layout(), config.policy)
    entries = [(r.records, r.label, r.founder_tag) for r in rows]
    reference = tracker_tree(grid, samples) if grid.tracker is not None else None
    parts = []
    for stitch in (False, True):
        tree = build_forest(entries, stitch=stitch)
        tree.validate()
        parts += [export_newick(tree), export_alife_csv(tree), f"{tree.max_depth()}\n"]
        for metric, fn in METRICS.items():
            if tree.n_roots == 1 or metric not in ("spd", "mpd"):
                parts.append(f"{metric} {fn(tree)!r}\n")
        if reference is not None:
            parts.append(f"{sampled_triplet_error(reference, tree)!r}\n")
    return hashlib.sha256("".join(parts).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifacts_match_pinned_hashes(name):
    assert artifact_hashes(case_config(name), name in ASYNCHRONOUS) == GOLDEN[name]


@pytest.mark.parametrize("interval", [1, 10**9])
@pytest.mark.parametrize("name", ["tagged-tracked-400", "async-lossy-tracked"])
def test_prune_cadence_leaves_the_artifacts_alone(monkeypatch, name, interval):
    default = artifact_hashes(case_config(name), name in ASYNCHRONOUS)
    monkeypatch.setattr(engine, "PRUNE_INTERVAL", interval)
    assert artifact_hashes(case_config(name), name in ASYNCHRONOUS) == default


@pytest.mark.parametrize("name", sorted(CASES))
def test_decoded_rows_match_pinned_hashes(name):
    assert decoded_hash(case_config(name), name in ASYNCHRONOUS) == DECODED[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_reconstruction_matches_pinned_hashes(name):
    assert reconstructed_hash(case_config(name), name in ASYNCHRONOUS) == RECONSTRUCTED[name]


if __name__ == "__main__":
    import pprint

    pprint.pprint(
        {name: artifact_hashes(case_config(name), name in ASYNCHRONOUS) for name in CASES}
    )
    pprint.pprint({name: decoded_hash(case_config(name), name in ASYNCHRONOUS) for name in CASES})
    pprint.pprint(
        {name: reconstructed_hash(case_config(name), name in ASYNCHRONOUS) for name in CASES}
    )
