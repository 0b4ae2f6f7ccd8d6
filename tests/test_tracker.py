"""Exact lineage tracking: rows, pruning and renumbering, and genealogy extraction.

Handles are row positions, and a prune renumbers the rows it keeps.  The
brute-force references keep their dicts keyed by logical id (birth serial)
and map each id the tracker must still accept to its current row.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surftrack.phylo.tree import PhyloTree
from surftrack.sim import engine, tracker
from surftrack.sim.config import GridConfig, Treatment
from surftrack.sim.engine import DeterministicGrid
from surftrack.sim.tracker import NO_PARENT, LineageTracker

from _trees import canon, collapse_unifurcations


def record_birth(tr: LineageTracker, parent_id: int, rank: int) -> int:
    """One birth, as a cohort of one."""
    return int(tr.record_cohort(np.array([parent_id]), np.array([rank]))[0])


def row_after_prune(tr: LineageTracker, row: int) -> int:
    """The new row of a live row of the last prune."""
    return int(tr.renumbered(np.array([row]))[0])


def family() -> tuple[LineageTracker, int, int, int]:
    """Founder at rank 0 with two children born at rank 1."""
    tr = LineageTracker()
    founder = record_birth(tr, NO_PARENT, 0)
    a = record_birth(tr, founder, 1)
    b = record_birth(tr, founder, 1)
    return tr, founder, a, b


def random_genealogy(seed: int, births: int) -> tuple[LineageTracker, dict[int, int]]:
    """Random forest of lineages plus an externally kept parent map."""
    rng = np.random.default_rng(seed)
    tr = LineageTracker()
    parent_of: dict[int, int] = {}
    known: list[int] = []
    cohort = 0
    while len(parent_of) < births:
        n = int(rng.integers(1, 6))
        if known and rng.random() > 0.1:
            parents = rng.choice(known, size=n)
        else:
            parents = np.full(n, NO_PARENT)
        ids = tr.record_cohort(parents, np.full(n, cohort))
        for i, p in zip(ids.tolist(), parents.tolist()):
            parent_of[i] = int(p)
        known.extend(ids.tolist())
        cohort += 1
    return tr, parent_of


def brute_closure(parent_of: dict[int, int], live) -> set[int]:
    keep: set[int] = set()
    for x in live:
        x = int(x)
        while x != NO_PARENT and x not in keep:
            keep.add(x)
            x = parent_of[x]
    return keep


def brute_spliced(parent_of: dict[int, int], live) -> set[int]:
    """The rows a prune keeps: the closure less the rows that are not
    live and have exactly one child inside it."""
    keep = brute_closure(parent_of, live)
    kids = Counter(parent_of[x] for x in keep)
    live = {int(x) for x in live}
    return {x for x in keep if x in live or kids[x] != 1}


def brute_tree(parent_of, rank_of, sample, labels) -> PhyloTree:
    """Reference genealogy built from plain dicts, nodes in id order."""
    keep = sorted(brute_closure(parent_of, sample))
    at = {i: k for k, i in enumerate(keep)}
    parent = [-1 if parent_of[i] == NO_PARENT else at[parent_of[i]] for i in keep]
    time = [float(rank_of[i]) for i in keep]
    label = [None] * len(keep)
    for sid, name in zip(sample, labels):
        parent.append(at[int(sid)])
        time.append(float(rank_of[int(sid)]))
        label.append(name)
    tree = PhyloTree.from_parents(parent, time, label, [None] * len(parent))
    return collapse_unifurcations(tree)


def test_ids_are_sequential_across_cohorts():
    tr = LineageTracker()
    first = tr.record_cohort(np.full(3, NO_PARENT), np.zeros(3))
    second = tr.record_cohort(np.array([0, 2]), np.ones(2))
    assert first.tolist() == [0, 1, 2]
    assert second.tolist() == [3, 4]
    assert len(tr) == 5


def test_simple_family_becomes_a_cherry():
    tr, founder, a, b = family()
    tree = tr.to_tree(np.array([a, b]), ["A", "B"])
    assert tree.n_roots == 1
    assert tree.origin_time[0] == 0.0
    assert sorted(leaf.label for leaf in tree.leaves()) == ["A", "B"]
    assert all(leaf.origin_time == 1.0 for leaf in tree.leaves())


def test_sampling_one_individual_twice_gives_sibling_leaves():
    tr, founder, a, b = family()
    tree = tr.to_tree(np.array([a, a]), ["X", "Y"])
    # the chain founder -> a collapses; a's node survives as the fork
    assert tree.parent == [-1, 0, 0]
    assert tree.origin_time[0] == 1.0
    assert tree.label[1:] == ["X", "Y"]


def test_internal_nodes_carry_birth_ranks():
    tr = LineageTracker()
    founder = record_birth(tr, NO_PARENT, 0)
    mid = record_birth(tr, founder, 7)
    left = record_birth(tr, mid, 9)
    right = record_birth(tr, mid, 12)
    tree = tr.to_tree(np.array([left, right]), ["L", "R"])
    assert tree.parent == [-1, 0, 0]
    assert tree.origin_time == [7.0, 9.0, 12.0]


def test_separate_founders_stay_separate_trees():
    tr = LineageTracker()
    f1 = record_birth(tr, NO_PARENT, 0)
    f2 = record_birth(tr, NO_PARENT, 0)
    a = record_birth(tr, f1, 1)
    b = record_birth(tr, f2, 1)
    tree = tr.to_tree(np.array([a, b]), ["A", "B"])
    assert tree.n_roots == 2


def test_founder_tags_ride_to_leaves():
    tr, founder, a, b = family()
    tree = tr.to_tree(np.array([a, b]), ["A", "B"], tags=[11, None])
    by_label = {leaf.label: leaf.founder_tag for leaf in tree.leaves()}
    assert by_label == {"A": 11, "B": None}


def test_label_and_tag_counts_must_match():
    tr, founder, a, b = family()
    with pytest.raises(ValueError, match="one label per"):
        tr.to_tree(np.array([a, b]), ["A"])
    with pytest.raises(ValueError, match="one tag per"):
        tr.to_tree(np.array([a, b]), ["A", "B"], tags=[1])


def test_unknown_id_rejected():
    tr, *_ = family()
    with pytest.raises(KeyError):
        tr.to_tree(np.array([57]), ["X"])


def test_returned_id_array_is_caller_safe():
    # engines overwrite lanes of the returned array in place when
    # injecting migrants; that must not corrupt the stored records
    tr = LineageTracker()
    ids = tr.record_cohort(np.full(2, NO_PARENT), np.zeros(2))
    ids[:] = -99
    tree = tr.to_tree(np.array([0, 1]), ["A", "B"])
    assert tree.n_roots == 2


def test_input_arrays_are_copied():
    tr = LineageTracker()
    parents = np.full(2, NO_PARENT)
    ranks = np.zeros(2, dtype=np.int64)
    tr.record_cohort(parents, ranks)
    ranks[:] = 42
    tree = tr.to_tree(np.array([0]), ["A"])
    assert tree.origin_time[0] == 0.0


def test_peak_rows_is_the_most_rows_held_at_once():
    tr, founder, a, b = family()
    assert tr.peak_rows == 3
    tr.prune(np.array([a]))  # b dies, and the founder above a is spliced out
    a = row_after_prune(tr, a)
    assert (len(tr), tr.peak_rows) == (1, 3)
    tr.record_cohort(np.full(4, a), np.full(4, 2))
    assert (len(tr), tr.peak_rows) == (5, 5)
    tr.prune(np.array([a]))
    assert (len(tr), tr.peak_rows) == (1, 5)


def test_prune_drops_extinct_branches_and_unifurcations():
    m = Mirror()
    founder = m.cohort([NO_PARENT])[0]
    keep_kid = m.cohort([founder])[0]
    dead_kid = m.cohort([founder])[0]
    m.cohort([dead_kid])
    keep_grandkid = m.cohort([keep_kid])[0]
    before = m.tr.to_tree(m.rows([keep_grandkid]), ["K"])
    m.prune([keep_grandkid])  # checks the rows removed and held against brute_spliced
    assert m.pruned == 4
    assert len(m.tr) == 1  # only the live row: its line up to the founder is unary
    after = m.tr.to_tree(m.rows([keep_grandkid]), ["K"])
    assert canon(after) == canon(before)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_prune_agrees_with_brute_force_closure(seed):
    tr, parent_of = random_genealogy(seed, births=300)
    rng = np.random.default_rng(seed + 1000)
    live = rng.choice(sorted(parent_of), size=20, replace=False)
    expected_keep = brute_spliced(parent_of, live)
    removed = tr.prune(live)
    assert removed == len(parent_of) - len(expected_keep)
    assert len(tr) == len(expected_keep)


def test_growth_continues_after_prune():
    tr, founder, a, b = family()
    tr.prune(np.array([a]))
    a = row_after_prune(tr, a)
    c = record_birth(tr, a, 2)
    d = record_birth(tr, a, 2)
    tree = tr.to_tree(np.array([c, d]), ["C", "D"])
    assert tree.n_roots == 1
    assert tree.origin_time[0] == 1.0  # a is the fork now
    assert sorted(leaf.label for leaf in tree.leaves()) == ["C", "D"]


def test_prune_to_nothing():
    tr, *_ = family()
    assert tr.prune(np.empty(0, dtype=np.int64)) == 3
    assert len(tr) == 0


def test_empty_sample_gives_empty_forest():
    tr, *_ = family()
    tree = tr.to_tree(np.empty(0, dtype=np.int64), [])
    assert tree.n_roots == 0


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_interleaved_prunes_agree_with_a_brute_force_reference(seed):
    """Rounds of cohorts and prunes, checked against dicts after every prune.

    Each round's parents come both from the last prune's live ids and
    from ids recorded since, and each live set holds a founder and
    repeated ids.  Ids count births; ``row`` maps each id the tracker
    must still accept to its current row.
    """
    rng = np.random.default_rng(seed)
    tr = LineageTracker()
    parent_of: dict[int, int] = {}
    rank_of: dict[int, int] = {}
    row = {NO_PARENT: NO_PARENT}
    held: set[int] = set()  # ids the last prune kept
    named: list[int] = []  # the last prune's live ids
    rank = 0
    pruned = 0
    for _ in range(6):
        survivors, recent = list(named), []
        for _ in range(int(rng.integers(2, 8))):
            n = int(rng.integers(1, 30))
            pools = [pool for pool in (survivors, recent) if pool]
            parents = np.array(
                [
                    NO_PARENT if not pools or rng.random() < 0.05
                    else int(rng.choice(pools[int(rng.integers(len(pools)))]))
                    for _ in range(n)
                ]
            )
            ranks = rank + rng.integers(0, 3, size=n)
            rows = tr.record_cohort([row[p] for p in parents.tolist()], ranks)
            ids = range(len(parent_of), len(parent_of) + n)
            for i, r, p, k in zip(ids, rows.tolist(), parents.tolist(), ranks.tolist()):
                parent_of[i], row[i], rank_of[i] = p, r, k
            recent.extend(ids)
            rank += 3
        candidates = survivors + recent
        founders = [i for i in candidates if parent_of[i] == NO_PARENT]
        live = rng.choice(candidates, size=int(rng.integers(1, 12)))
        live = np.concatenate([live, live[:3], founders[:1]])
        expected = brute_spliced(parent_of, live)
        live_rows = np.array([row[i] for i in live.tolist()])
        assert tr.prune(live_rows) == len(held) + len(recent) - len(expected)
        pruned += len(held) + len(recent) - len(expected)
        held = expected
        named = sorted(set(live.tolist()))
        row = {NO_PARENT: NO_PARENT, **dict(zip(live.tolist(), tr.renumbered(live_rows).tolist()))}
        assert len(tr) == len(held)
        assert len(tr) <= 2 * len(named) - 1  # every kept row that is not live branches
        assert tr.rows_pruned == pruned
        sample = rng.choice(named, size=int(rng.integers(1, 10)))
        sample = np.concatenate([sample, sample[:2]])
        labels = [f"s{k}" for k in range(len(sample))]
        got = tr.to_tree(np.array([row[i] for i in sample.tolist()]), labels)
        assert got == brute_tree(parent_of, rank_of, sample, labels)


@pytest.mark.parametrize("case", ["past-the-end", "negative"])
@pytest.mark.parametrize("method", ["prune", "to_tree", "record_cohort"])
def test_ids_not_held_are_rejected(method, case):
    tr, founder, a, b = family()
    tr.prune(np.array([a]))  # drops b and splices out the founder
    c = record_birth(tr, row_after_prune(tr, a), 2)
    bad = {"past-the-end": c + 1, "negative": -2}[case]
    ids = np.array([c, bad])
    with pytest.raises(KeyError):
        if method == "prune":
            tr.prune(ids)
        elif method == "to_tree":
            tr.to_tree(ids, ["C", "X"])
        else:
            tr.record_cohort(ids, np.full(2, 3))
    assert len(tr) == 2  # a failed call leaves the records alone
    d = record_birth(tr, c, 3)  # and the next row is still the next one
    assert d == c + 1


@pytest.mark.parametrize("rank", [-1, 2**32, 2**40])
def test_ranks_outside_32_bits_are_rejected(rank):
    tr, founder, a, b = family()
    with pytest.raises(ValueError, match="ranks"):
        tr.record_cohort(np.array([a, b]), np.array([2, rank]))
    assert len(tr) == 3


def test_the_largest_rank_round_trips():
    tr = LineageTracker()
    founder = record_birth(tr, NO_PARENT, 2**32 - 1)
    assert tr.to_tree(np.array([founder]), ["F"]).origin_time == [2**32 - 1]


def test_rows_held_are_capped(monkeypatch):
    monkeypatch.setattr(tracker, "MAX_ROWS", 4)
    tr, founder, a, b = family()
    with pytest.raises(OverflowError):
        tr.record_cohort(np.array([a, b]), np.full(2, 2))
    assert len(tr) == 3
    record_birth(tr, a, 2)  # the fourth row still fits
    assert len(tr) == 4


class Mirror:
    """A tracker and a plain-dict reference, driven in lockstep.

    Callers name lineages by id, which counts births.  Every prune is
    checked for the rows it drops, the rows it holds (against
    :func:`brute_spliced`, and at most two per live id), the running
    total and the renumbering, which puts each live id at its place
    among the held ids in id order; ``check_tree`` compares ``to_tree``
    with :func:`brute_tree`, child order included.  ``named`` holds the
    ids the tracker must still accept: the last prune's live ids and
    every id recorded since; ``row`` maps each to its current row.
    """

    def __init__(self) -> None:
        self.tr = LineageTracker()
        self.parent_of: dict[int, int] = {}
        self.rank_of: dict[int, int] = {}
        self.held: set[int] = set()
        self.named: set[int] = set()
        self.row = {NO_PARENT: NO_PARENT}
        self.pruned = 0

    def rows(self, ids) -> np.ndarray:
        return np.array([self.row[int(i)] for i in ids], dtype=np.int64)

    def cohort(self, parents) -> list[int]:
        parents = np.asarray(parents, dtype=np.int64).reshape(-1)
        ranks = np.array([self.rank_of.get(int(p), -1) + 1 for p in parents], dtype=np.int64)
        rows = self.tr.record_cohort(self.rows(parents), ranks).tolist()
        ids = list(range(len(self.parent_of), len(self.parent_of) + len(rows)))
        for i, r, p, k in zip(ids, rows, parents.tolist(), ranks.tolist()):
            self.parent_of[i], self.row[i], self.rank_of[i] = p, r, k
        self.held.update(ids)
        self.named.update(ids)
        return ids

    def chain(self, parent: int, length: int) -> list[int]:
        """``length`` births in a line below ``parent``, one cohort each."""
        out = []
        for _ in range(length):
            parent = self.cohort([parent])[0]
            out.append(parent)
        return out

    def prune(self, live) -> None:
        expected = brute_spliced(self.parent_of, live)
        removed = len(self.held) - len(expected)
        live_rows = self.rows(live)
        assert self.tr.prune(live_rows) == removed
        self.held = expected
        self.named = {int(x) for x in live}
        renumbered = self.tr.renumbered(live_rows).tolist()
        self.row = {NO_PARENT: NO_PARENT, **dict(zip(map(int, live), renumbered))}
        at = {i: k for k, i in enumerate(sorted(expected))}  # kept rows stay in id order
        assert all(self.row[i] == at[i] for i in self.named)
        self.pruned += removed
        assert len(self.tr) == len(expected)
        assert len(self.tr) <= max(2 * len(self.named) - 1, 0)
        assert self.tr.rows_pruned == self.pruned

    def check_tree(self, sample) -> None:
        sample = [int(s) for s in sample]
        labels = [f"s{k}" for k in range(len(sample))]
        got = self.tr.to_tree(self.rows(sample), labels)
        got.validate()
        want = brute_tree(self.parent_of, self.rank_of, sample, labels)
        assert got == want


def test_one_cohort_names_survivors_recent_rows_and_founders():
    m = Mirror()
    founders = m.cohort([NO_PARENT] * 3)
    line = m.chain(founders[0], 5)
    side = m.cohort([founders[1], line[2]])
    # founders[0] and founders[1] survive, founders[2] is dropped, and
    # line[0] and line[3] are spliced out.
    m.prune([line[-1], side[0], side[1], line[1], founders[0], founders[1]])
    recent = m.cohort([line[-1], side[1], founders[1]])
    mixed = m.cohort(
        [founders[1], line[1], NO_PARENT, recent[0], founders[0], recent[2], NO_PARENT, side[0]]
    )
    m.check_tree(mixed + [line[1], recent[1]])
    m.prune(mixed + [recent[1], line[1], founders[1], line[-1]])
    m.check_tree(mixed + [recent[1], line[1]])
    late = m.cohort([mixed[2], founders[1], recent[1], line[-1]])
    m.prune(late)
    m.check_tree(late)


def test_unary_chain_thousands_of_levels_deep():
    m = Mirror()
    founder = m.cohort([NO_PARENT])[0]
    line = [founder]
    side = []
    for step in range(12):
        line += m.chain(line[-1], 100)
        side += m.chain(line[-50], 3)  # a short side branch off the middle
        mid = [line[k] for k in (7, 500) if k < len(line)]  # live rows inside the line
        m.prune(([line[-1], side[-1]] if step % 3 == 0 else [line[-1]]) + mid)
    assert len(line) > 1000
    m.check_tree([line[-1], line[-1]])
    m.check_tree([line[-1], line[500], line[7]])  # sampling mid-chain splits it
    m.prune([line[-1]])
    assert len(m.tr) == 1  # the whole line is unary above its tip
    m.check_tree([line[-1]])


def test_live_mid_chain_row_that_gains_a_second_child_splits_its_chain():
    m = Mirror()
    founder = m.cohort([NO_PARENT])[0]
    line = [founder] + m.chain(founder, 20)
    m.prune([line[-1], line[10], line[15]])  # live rows inside the chain
    b = m.cohort([line[10]])[0]
    c = m.cohort([line[-1]])[0]
    m.prune([b, c, line[15]])
    m.check_tree([b, c])
    m.check_tree([c, b, line[15]])
    d = m.cohort([line[15]])[0]  # a second split, below the first
    m.prune([d, b])
    m.check_tree([d, b])
    m.prune([d])
    m.check_tree([d])
    assert len(m.tr) == 1  # d's whole ancestry is unary


def test_branch_whose_other_children_all_die_merges_chains():
    m = Mirror()
    founder = m.cohort([NO_PARENT])[0]
    stem = [founder] + m.chain(founder, 5)
    left = m.chain(stem[-1], 10)
    right = m.chain(stem[-1], 10)
    m.prune([left[-1], right[-1], left[3], left[6], stem[2]])
    z = m.chain(left[-1], 4)
    m.prune([z[-1], left[3], left[6], stem[2]])  # right dies: the stem, left and z are one chain
    m.check_tree([z[-1], left[3]])
    m.prune([left[6], stem[2]])  # cut inside the merged chain
    m.check_tree([left[6]])
    w = m.cohort([stem[2], left[6], left[6]])
    m.prune(w)
    m.check_tree(w)
    m.prune([w[1]])  # the stem's new branch dies: merge again
    m.check_tree([w[1], w[1]])


def test_several_founders_some_of_which_die_out():
    m = Mirror()
    founders = m.cohort([NO_PARENT] * 4)
    tips = [m.chain(f, 6 + 3 * k)[-1] for k, f in enumerate(founders)]
    kids = m.cohort([tips[0], tips[0], tips[2], tips[3]])
    m.prune(kids[:3])
    m.check_tree(kids[:3])
    late = m.cohort([NO_PARENT, kids[2]])
    m.prune([kids[0], late[0], late[1]])
    m.check_tree([late[1], late[0], kids[0]])
    m.prune([late[0]])
    assert len(m.tr) == 1
    m.check_tree([late[0]])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_prune_after_every_cohort(seed):
    rng = np.random.default_rng(seed)
    m = Mirror()
    live = m.cohort([NO_PARENT] * 3)
    for step in range(60):
        n = int(rng.integers(1, 7))
        ids = m.cohort(rng.choice(live, size=n))
        keep = int(rng.integers(1, len(ids) + 1))
        live = ids[:keep] + [int(x) for x in rng.choice(live, size=int(rng.integers(0, 2)))]
        m.prune(live)
        if step % 10 == 9:
            m.check_tree(rng.choice(sorted(m.named), size=4))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_chain_heavy_genealogies_agree_with_a_brute_force_reference(seed):
    """Long lines of descent that branch rarely, rows that stay live for
    several rounds, and samples taken between prunes."""
    rng = np.random.default_rng(seed)
    m = Mirror()
    live = m.cohort([NO_PARENT] * int(rng.integers(1, 4)))
    for _ in range(int(rng.integers(1, 8))):
        for _ in range(int(rng.integers(1, 30))):
            # mostly one child per live row, sometimes two, sometimes none
            parents = [p for p in live for _ in range(int(rng.choice(3, p=[0.1, 0.8, 0.1])))]
            if not parents:
                parents = [int(rng.choice(live))]
            lingering = [p for p in live if rng.random() < 0.05]
            live = m.cohort(parents) + lingering
        if rng.random() < 0.5:
            m.check_tree(rng.choice(sorted(m.named), size=int(rng.integers(1, 6))))
        live = [int(x) for x in rng.choice(live, size=int(rng.integers(1, len(live) + 1)))]
        m.prune(live)
        m.check_tree(rng.choice(sorted(m.named), size=int(rng.integers(1, 6))))


def test_a_tracked_grid_holds_at_most_two_rows_per_live_id(monkeypatch):
    """After every prune of an engine run, L distinct live ids hold at
    most 2L - 1 rows."""
    grid = DeterministicGrid(
        GridConfig(
            16, 16, 300, layout="fitness", treatment=Treatment(mode="purifying"),
            track_perfect=True,
        )
    )
    tr = grid.tracker
    prune = tr.prune
    held = []

    def checked(live):
        removed = prune(live)
        held.append((len(tr), np.unique(live).size))
        return removed

    monkeypatch.setattr(tr, "prune", checked)
    grid.run()
    assert len(held) == 300 // engine.PRUNE_INTERVAL + 1  # the last one ends the run
    assert all(rows <= 2 * live - 1 for rows, live in held)


def assert_handles_are_rows(grid: DeterministicGrid) -> int:
    """Every handle the grid holds names a row of its tracker born at the
    rank its genome's counter implies; returns how many are in transit."""
    tr = grid.tracker
    occupied = np.arange(GridConfig.RECEIVE_CAPACITY) < grid.stage_n[:, :, None]
    held = [(grid.pop["gid"], grid.pop["counter"])]
    held.append((grid.emig["gid"][grid.emig_full], grid.emig["counter"][grid.emig_full]))
    held.append((grid.stage["gid"][occupied], grid.stage["counter"][occupied]))
    gid = np.concatenate([g.ravel() for g, _ in held])
    counter = np.concatenate([c.ravel() for _, c in held])
    assert ((0 <= gid) & (gid < len(tr))).all()
    # A genome's counter has run one past its birth rank since its first
    # deposit; a founder that has not stepped yet is born at rank 0.
    labels = [str(k) for k in range(gid.size)]
    born = {leaf.label: leaf.origin_time for leaf in tr.to_tree(gid, labels).leaves()}
    assert [born[k] for k in labels] == np.maximum(counter - 1, 0).tolist()
    return gid.size - grid.pop["gid"].size


@pytest.mark.parametrize(
    "asynchronous, config",
    [
        (False, GridConfig(4, 4, 100, population=8, layout="fitness", track_perfect=True)),
        (True, GridConfig(3, 3, 100, population=4, loss_rate=0.2, track_perfect=True)),
    ],
    ids=["lockstep", "async-lossy"],
)
def test_every_handle_a_tracked_grid_holds_is_a_current_row(monkeypatch, asynchronous, config):
    """The engine renumbers its handles at every prune: in the population,
    in the full emigrant links and in the filled stage slots."""
    grid = DeterministicGrid(config, asynchronous=asynchronous)
    step = grid.step_cycle
    in_transit = []

    def checked():
        step()
        if grid.cycle % engine.PRUNE_INTERVAL == 0:
            in_transit.append(assert_handles_are_rows(grid))

    monkeypatch.setattr(grid, "step_cycle", checked)
    grid.run()
    in_transit.append(assert_handles_are_rows(grid))  # after the final prune
    assert len(in_transit) >= 4 and min(in_transit) > 0
    samples = grid.sample_end_state()
    assert all(0 <= s.tracker_id < len(grid.tracker) for s in samples)


def test_prune_renumbers_the_live_rows_in_their_order():
    tr, founder, a, b = family()
    c, d = tr.record_cohort(np.array([b, a]), np.array([2, 2]))
    live = np.array([d, b, d, NO_PARENT, founder])
    assert tr.prune(live) == 2  # c dies, and a, with one child, is spliced out
    assert tr.renumbered(live).tolist() == [2, 1, 2, NO_PARENT, 0]
    # d's run starts at a, born before b, so it still comes first.
    tree = tr.to_tree(np.array([2, 1, 0]), ["D", "B", "F"])
    assert tree.parent == [-1, 0, 0, 0]
    assert tree.label == [None, "D", "B", "F"]
    assert tree.origin_time == [0.0, 2.0, 1.0, 0.0]
