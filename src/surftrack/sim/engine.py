"""Grid engine, batch-vectorized across processing elements.

The simulated machine is a rectangle of PEs, each owning a fixed-size
population of genomes and four point-to-point links to its neighbors.
Per cycle: a transport tick moves emigrants one hop, then PEs run one
generation step.  In lockstep mode every PE steps every cycle.  In
asynchronous mode a PE steps only when a draw from a dedicated schedule
stream falls below STEP_P and it is fewer than MAX_NEIGHBOR_LEAD
generations ahead of its slowest neighbor; otherwise it stalls for the
cycle while transport keeps ticking.  Within a cycle PE steps touch only
their own population and buffers, so evaluating the stepping PEs as
numpy array slabs is exactly equivalent to stepping them one by one.

A generation step, in pinned order:

1. For each inbound link (N, E, S, W) whose receive stage has filled to
   4 migrants: overwrite 4 uniformly drawn population slots, in arrival
   order, then reset the stage.
2. For each outbound link whose previous emigrant has departed: stash a
   uniformly drawn copy as the next emigrant.
3. Evaluate fitness (a plain field read; tagged genomes score 0).
4. Tournament selection with replacement per population slot: draw
   ``tournament_size`` candidate indices, take the best fitness,
   breaking ties uniformly among tied samples.
5. Treatment-specific fitness mutation (float32 arithmetic).
6. Deposit one fresh differentia per genome and bump its counter.

Random draws come from one counter-based stream per PE, consumed in the
order above, plus a dedicated transport stream for loss and a schedule
stream for the asynchronous mode, so identical configurations replay
identically in either mode.  A PE's own draws depend only on how many
steps it has taken, not on the cycle it takes them in, so a lone PE
evolves identically in both modes.  A stage may take its consecutive
draws from the same streams in one call and split the result, since a
stream's cursor positions are contiguous either way.  A stage may also
mix only the draws it reads, provided its cursors still advance over
the whole block: the tagged tournament, where every candidate scores 0,
reads just the tie draws and each winner's candidate draw.

The migration stages (transport, inject, refill) handle every link of
the grid at once, as one flat list of 4P links in direction-major
order.  Each PE still takes its draws for its links in N, E, S, W
order, and transport's loss draws run over the departing links in that
same direction-major order, so these draws sit where a per-direction
loop would take them.  When two of a PE's inject writes pick the same
population slot, the last write in N, E, S, W then arrival order wins,
as if the writes were made one at a time.

Each lane holds its surface as packed uint64 words at every differentia
width: slot j's field, ``stride`` bits wide (the width rounded up to a
power of two, so no field crosses a word), starts at bit ``j * stride``.
A deposit writes one field through its rank's row of word masks, all
zero for a rank the policy discards.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..surface.genome import GenomeColumns, GenomeFields, GenomeLayout
from ..surface.sites import site
from . import streams
from .config import GridConfig
from .tracker import NO_PARENT, LineageTracker

# Directions, clockwise from north; OPPOSITE[d] is the inbound index on
# the receiving side of a d-ward hop.
DIRECTIONS = ((0, -1), (1, 0), (0, 1), (-1, 0))
OPPOSITE = (2, 3, 0, 1)

PRUNE_INTERVAL = 8

#: How many generations a PE may run ahead of its slowest neighbor in
#: asynchronous mode.  Without a cap one PE could finish before its
#: neighbors take a step and migration would dwindle to nothing; matching
#: the receive stage depth keeps transfer pressure comparable to lockstep.
MAX_NEIGHBOR_LEAD = 4

#: Chance that an eligible PE steps in an asynchronous cycle.
STEP_P = 0.5

# Low bits of a tie draw that its to_unit uniform ignores; the tournament
# stores the candidate's column there.
_TIE_LOW = np.uint64(0x7FF)


@dataclass(frozen=True, slots=True)
class SampledGenome:
    """One end-state genome pulled for export."""

    pe_x: int
    pe_y: int
    label: str
    fields: GenomeFields
    tracker_id: int | None = None  # tracker row, as it stands after run()'s final prune


def sample_labels(xs: Sequence[int], ys: Sequence[int]) -> list[str]:
    """``pe{x}_{y}_{j}`` for each sample, with j counting samples per PE in order."""
    seen: dict[tuple[int, int], int] = {}
    labels = []
    for pe in zip(xs, ys):
        j = seen[pe] = seen.get(pe, -1) + 1
        labels.append(f"pe{pe[0]}_{pe[1]}_{j}")
    return labels


def neighbor_table(width: int, height: int, torus: bool) -> np.ndarray:
    """(4, P) PE index of each neighbor, -1 where the edge is open."""
    p = np.arange(width * height)
    xs, ys = p % width, p // width
    table = np.full((4, width * height), -1, dtype=np.int64)
    for d, (dx, dy) in enumerate(DIRECTIONS):
        nx, ny = xs + dx, ys + dy
        if torus:
            nx, ny = nx % width, ny % height
            table[d] = ny * width + nx
        else:
            ok = (nx >= 0) & (nx < width) & (ny >= 0) & (ny < height)
            table[d, ok] = (ny * width + nx)[ok]
    return table


class DeterministicGrid:
    """Single-process, bit-reproducible execution of the grid protocol.

    ``asynchronous=True`` selects the seeded step-or-stall schedule
    described in the module docstring instead of lockstep.
    """

    def __init__(self, config: GridConfig, asynchronous: bool = False) -> None:
        config.validate()
        self.config = config
        self.asynchronous = asynchronous
        self.layout: GenomeLayout = config.genome_layout()
        P, K = config.n_pes, config.population
        R = GridConfig.RECEIVE_CAPACITY
        self.cycle = 0
        self.generation = np.zeros(P, dtype=np.int64)  # steps taken by each PE
        self._goal = 0  # the generation run() drives every PE to

        self.nbr = neighbor_table(config.width, config.height, config.torus)
        self.valid = self.nbr >= 0
        # Flat (4P) stage each flat link delivers into: link (d, p) feeds
        # stage (OPPOSITE[d], nbr[d, p]), and no other link feeds that stage.
        opposite = np.array(OPPOSITE)[:, None] * P
        self._link_stage = np.where(self.valid, opposite + self.nbr, -1).reshape(-1)
        self._link_pe = np.tile(np.arange(P), 4)  # PE of each flat link
        # Inject's last-writer table over flat lanes; all -1 between calls.
        self._slot_writer = np.full(P * K, -1, dtype=np.int64)
        self.bank = streams.StreamBank(config.seed, P + 2)
        self._transport_stream = P
        self._schedule_stream = P + 1
        self._all = np.arange(P)
        self._everyone = np.ones(P, dtype=bool)
        self._row_base = (self._all * K)[:, None]  # flat index of each PE's lane 0
        n = config.tournament_size
        # Each lane's first candidate draw within its own stream's block.
        self._cand_steps = np.arange(K, dtype=np.uint64) * np.uint64(n)
        self._tie_steps = np.arange(K * n, 2 * K * n, dtype=np.uint64)  # tie draws in a block
        # j of each candidate, for a PE's whole row of K*n keys at once.
        self._tie_cols = np.tile(np.arange(n, dtype=np.uint64), K)
        # Each lane's first place among the scored tournament's candidates.
        self._lane_cands = np.arange(0, P * K * n, n) if config.layout != "tagged" else None
        w = config.differentia_bits  # the surface words: see the module docstring
        self._stride = 1 << (w - 1).bit_length()
        self._field = np.uint64((1 << w) - 1)
        self._spread = np.uint64(sum(1 << k for k in range(0, 64, self._stride)))
        words = -(-config.slot_count * self._stride // 64)
        # Per-rank deposit masks, one row of words per rank, built on first
        # use and grown on demand; a rank the policy discards has all zeros.
        self._rank_mask = np.zeros((0, words), dtype=np.uint64)

        self.pop: dict[str, np.ndarray] = {
            "surf": np.zeros((P, K, words), dtype=np.uint64),
            "counter": np.zeros((P, K), dtype=np.int64),
        }
        if config.layout == "tagged":
            self.pop["tag"] = (self.bank.draw(self._all, K) & np.uint64(0xFFFF)).astype(
                np.uint16
            )
        else:
            self.pop["fit"] = np.zeros((P, K), dtype=np.float32)

        self.tracker: LineageTracker | None = None
        if config.track_perfect:
            # Rows held peak just before a prune: the survivors of the last
            # one, at most 2L - 1 for L live handles (population, emigrant
            # links, stage slots), plus PRUNE_INTERVAL cohorts; and they never
            # pass the births of the configured run.
            live = P * (K + 4 + 4 * R)
            peak = PRUNE_INTERVAL * P * K + 2 * live - 1
            self.tracker = LineageTracker(min(peak, (config.generations + 1) * P * K))
            founders = self.tracker.record_cohort(
                np.full(P * K, NO_PARENT), np.zeros(P * K, np.int64)
            )
            self.pop["gid"] = founders.reshape(P, K)

        self.emig = {
            name: np.zeros((4, P) + arr.shape[2:], dtype=arr.dtype)
            for name, arr in self.pop.items()
        }
        self.stage = {
            name: np.zeros((4, P, R) + arr.shape[2:], dtype=arr.dtype)
            for name, arr in self.pop.items()
        }
        self.emig_full = np.zeros((4, P), dtype=bool)  # set on valid links only
        self.stage_n = np.zeros((4, P), dtype=np.int64)
        self.imported = np.zeros(P, dtype=np.int64)
        self.exported = np.zeros(P, dtype=np.int64)  # delivered, by source PE
        self.lost = np.zeros(P, dtype=np.int64)  # dropped in transit, by source PE

    # -- cycle pieces ----------------------------------------------------

    def _transport_tick(self) -> None:
        """Move departed emigrants one hop; apply in-transit loss."""
        P, R = self.config.n_pes, GridConfig.RECEIVE_CAPACITY
        links = np.flatnonzero(self.emig_full)
        if not links.size:
            return
        dest = self._link_stage.take(links)
        stage_n = self.stage_n.reshape(-1)
        room = stage_n.take(dest) < R
        links, dest = links[room], dest[room]
        if not links.size:
            return
        if self.config.loss_rate > 0.0:
            u = streams.to_unit(self.bank.draw_one(self._transport_stream, len(links)))
            kept = u >= self.config.loss_rate
            self.lost += np.bincount(self._link_pe.take(links[~kept]), minlength=P)
            klinks, kdest = links[kept], dest[kept]
        else:
            klinks, kdest = links, dest
        # Each stage has one feeding link, so no two writes hit one slot.
        at = kdest * R + stage_n.take(kdest)
        for name, arr in self.stage.items():
            rest = arr.shape[3:]
            arr.reshape((-1,) + rest)[at] = self.emig[name].reshape((-1,) + rest)[klinks]
        stage_n[kdest] += 1
        self.exported += np.bincount(self._link_pe.take(klinks), minlength=P)
        # Departed either way: delivered or lost in transit.
        self.emig_full.reshape(-1)[links] = False

    def _schedule(self) -> np.ndarray:
        """Mask of the PEs that step this asynchronous cycle."""
        gen = self.generation
        nbr_gen = np.where(self.valid, gen[self.nbr], np.iinfo(np.int64).max)
        within_lead = gen - MAX_NEIGHBOR_LEAD < nbr_gen.min(axis=0)
        u = streams.to_unit(self.bank.draw_one(self._schedule_stream, self.config.n_pes))
        return (gen < self._goal) & within_lead & (u < STEP_P)

    def _link_draws(
        self, mask: np.ndarray, count: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The links a (4, P) mask selects, flat and direction-major, their
        PEs, and ``count`` draws for each link from its PE's stream.

        A PE takes its links' draws in N, E, S, W order, so a link's block
        ends at its PE's cursor plus ``count`` times the link's rank among
        that PE's selected links; every cursor advances past all its blocks.
        """
        links = np.flatnonzero(mask)
        pes = self._link_pe.take(links)
        # cumsum(mask * count, axis=0), written as row adds: numpy's
        # accumulate runs several times slower over a 4-row axis.
        end = mask * np.uint64(count)
        end[1] += end[0]
        end[2] += end[1]
        end[3] += end[2]
        base = self.bank.skip(self._all, end[3]).take(pes)
        base += end.reshape(-1).take(links)
        base -= np.uint64(count)
        return links, pes, self.bank.at(pes, base, np.arange(count))

    def _inject_migrants(self, active: np.ndarray) -> None:
        K = self.config.population
        R = GridConfig.RECEIVE_CAPACITY
        full = (self.stage_n >= R) & active
        if not full.any():
            return
        links, pes, draws = self._link_draws(full, R)
        # Write i moves flat stage slot src[i] into flat lane target[i].  A
        # PE's writes run in its N, E, S, W, then arrival order, which is
        # also the order of their src.
        target = streams.to_index(draws, K)
        target += (pes * K)[:, None]
        target = target.reshape(-1)
        src = ((links * R)[:, None] + np.arange(R)).reshape(-1)
        # Where writes collide the last one wins, as if made one at a time.
        writer = self._slot_writer
        np.maximum.at(writer, target, src)
        won = writer.take(target) == src
        writer[target] = -1
        target, src = target[won], src[won]
        for name, arr in self.pop.items():
            rest = arr.shape[2:]
            arr.reshape((-1,) + rest)[target] = self.stage[name].reshape((-1,) + rest)[src]
        self.stage_n.reshape(-1)[links] = 0
        self.imported += full.sum(axis=0) * R

    def _refill_emigrants(self, active: np.ndarray) -> None:
        K = self.config.population
        due = self.valid & ~self.emig_full & active
        if not due.any():
            return
        links, pes, draws = self._link_draws(due, 1)
        src = streams.to_index(draws[:, 0], K)
        src += pes * K
        for name, arr in self.emig.items():
            rest = arr.shape[2:]
            arr.reshape((-1,) + rest)[links] = self.pop[name].reshape((-1,) + rest)[src]
        self.emig_full.reshape(-1)[links] = True

    # The three kernel stages below update ``pop``, a dict of (m, K, ...)
    # population arrays, in place; row i belongs to PE ``ids[i]`` and draws
    # from its stream.  Lockstep passes the whole grid, so that path never
    # gathers or scatters.

    def _tournament(self, pop: dict[str, np.ndarray], ids: np.ndarray) -> None:
        cfg = self.config
        K, n = cfg.population, cfg.tournament_size
        m = len(ids)
        L, KN = m * K, K * n
        row_base = self._row_base[:m]
        # Each stream's block holds K*n candidate draws, then K*n tie draws.
        # Candidate j's key: the top 53 bits of its tie draw, which order
        # exactly as its to_unit uniform does, over TIE_LOW - j in the low
        # bits.  The largest key is the highest tie, the first on equality.
        if "fit" in pop:
            key = self.bank.draw(ids, 2 * KN)  # every candidate is scored
            cand = streams.to_index(key[:, :KN], K)
            cand += row_base
            key = key[:, KN:]  # the keys are made in place of the ties
        else:
            # Tags all score 0, so only the ties and each winner's candidate
            # are read; the cursors still pass the whole block.
            start = self.bank.skip(ids, 2 * KN)
            key = self.bank.at(ids, start, self._tie_steps)
        key |= _TIE_LOW
        key -= self._tie_cols
        key = key.reshape(m, K, n)
        if "fit" in pop:
            fit = pop["fit"].reshape(-1).take(cand).reshape(m, K, n)
            best = fit[..., 0]
            for j in range(1, n):
                best = np.maximum(best, fit[..., j])
            key *= fit == best[..., None]  # only the fittest stay in the running
        # Each lane's top key, reduced in one (m, K) array, becomes its
        # winner's column.  The draw block is freed before the winners are
        # drawn and gathered, so the step never holds it beside them.
        col = key[..., 0].copy()
        for j in range(1, n):
            np.maximum(col, key[..., j], out=col)
        del key
        col &= _TIE_LOW
        np.subtract(_TIE_LOW, col, out=col)
        if "fit" in pop:
            at = col.view(np.int64)
            at += self._lane_cands[:L].reshape(m, K)  # each winner's place in cand
            winner = cand.reshape(-1).take(at)
        else:
            winner = streams.to_index(self.bank.at(ids, start, self._cand_steps + col), K)
            winner += row_base
        winner = winner.reshape(L)
        for name, arr in pop.items():
            pop[name] = arr.reshape((L,) + arr.shape[2:]).take(winner, axis=0).reshape(arr.shape)
        if self.tracker is not None:
            gid = self.tracker.record_cohort(pop["gid"].ravel(), pop["counter"].ravel())
            pop["gid"] = gid.reshape(m, K)

    def _mutate(self, pop: dict[str, np.ndarray], ids: np.ndarray) -> None:
        t = self.config.treatment
        if "fit" not in pop or t.mode == "neutral":
            return
        K = self.config.population
        fit = pop["fit"].reshape(-1)
        passes = [(t.deleterious_p, -t.deleterious_sigma)]
        if t.mode == "adaptive":
            passes.append((t.beneficial_p, t.beneficial_sigma))
        for p, sigma in passes:
            draws = self.bank.draw(ids, 3 * K)  # gate, u1, u2 per PE
            hit = np.flatnonzero(streams.to_unit(draws[:, :K]) < p)
            at = hit + (hit // K) * (2 * K) + K  # each hit lane's u1 in the flat draws
            u1 = streams.to_unit(draws.reshape(-1)[at])
            u2 = streams.to_unit(draws.reshape(-1)[at + K])
            # Lanes whose gate stays shut would change by 0.0, which leaves
            # a float32 fitness that is never -0.0 exactly as it is.
            fit[hit] += (streams.normal_magnitudes(u1, u2) * sigma).astype(np.float32)

    def _rank_tables(self, top: int) -> None:
        """Make the per-rank deposit masks cover ranks 0..top, at least
        doubling their length whenever they grow."""
        have = len(self._rank_mask)
        if top < have:
            return
        cfg = self.config
        ranks = range(have, max(2 * have, top + 1))
        placed = [site(cfg.policy, r, cfg.slot_count) for r in ranks]
        slots = np.array([-1 if s is None else s for s in placed], dtype=np.int64)
        rows = np.flatnonzero(slots >= 0)
        bit = slots[rows] * self._stride
        mask = np.zeros((len(ranks), self._rank_mask.shape[1]), dtype=np.uint64)
        mask[rows, bit // 64] = self._field << (bit % 64).astype(np.uint64)
        self._rank_mask = np.concatenate([self._rank_mask, mask])

    def _deposit(self, pop: dict[str, np.ndarray], ids: np.ndarray) -> None:
        counters = pop["counter"]
        top = int(counters.max())
        if top >= self.layout.counter_capacity - 1:
            raise OverflowError(
                "deposit counter would overflow the genome layout; "
                "shorten the run or widen the counter field"
            )
        self._rank_tables(top)
        draws = self.bank.draw(ids, self.config.population)
        draws &= self._field
        draws *= self._spread  # the value copied into every field of the word
        surf = pop["surf"]
        flips = surf ^ draws[..., None]
        flips &= self._rank_mask.take(counters, axis=0)
        surf ^= flips  # the masked field takes the new value; the rest stay
        counters += 1

    def step_cycle(self) -> None:
        """One transport tick, then a generation step on each PE that steps."""
        self._transport_tick()
        active = self._schedule() if self.asynchronous else self._everyone
        self._inject_migrants(active)
        self._refill_emigrants(active)
        if not self.asynchronous:
            self._tournament(self.pop, self._all)
            self._mutate(self.pop, self._all)
            self._deposit(self.pop, self._all)
        elif active.any():
            ids = np.flatnonzero(active)
            pop = {name: arr[ids] for name, arr in self.pop.items()}
            self._tournament(pop, ids)
            self._mutate(pop, ids)
            self._deposit(pop, ids)
            for name, arr in self.pop.items():
                arr[ids] = pop[name]
        self.generation += active
        self.cycle += 1
        if self.tracker is not None and self.cycle % PRUNE_INTERVAL == 0:
            self._prune()

    def run(self, generations: int | None = None) -> None:
        """Cycle until every PE has taken ``generations`` more steps
        (default: the configured run length)."""
        todo = self.config.generations if generations is None else generations
        self._goal = int(self.generation.max()) + todo
        while self.generation.min() < self._goal:
            self.step_cycle()
        if self.tracker is not None:
            self._prune()

    def _prune(self) -> None:
        """Prune the tracker to the lineages the grid holds: those of the
        population, the full emigrant links and the filled stage slots.
        Then rewrite each of those handles as its new row."""
        occupied = np.arange(GridConfig.RECEIVE_CAPACITY) < self.stage_n[:, :, None]
        gid, emig, stage = self.pop["gid"], self.emig["gid"], self.stage["gid"]
        self.tracker.prune(np.concatenate([gid.ravel(), emig[self.emig_full], stage[occupied]]))
        renumbered = self.tracker.renumbered
        gid[...] = renumbered(gid)
        emig[self.emig_full] = renumbered(emig[self.emig_full])
        stage[occupied] = renumbered(stage[occupied])

    # -- end-state access --------------------------------------------------

    def sample_end_state(self) -> list[SampledGenome]:
        """Uniform seeded sample of ``sample_per_pe`` genomes from every PE."""
        cfg = self.config
        k = cfg.sample_per_pe
        picks = streams.to_index(self.bank.draw(self._all, k), cfg.population)
        lanes = (picks + self._row_base).reshape(-1)
        col = {
            name: arr.reshape((-1,) + arr.shape[2:]).take(lanes, axis=0)
            for name, arr in self.pop.items()
        }
        # Slot j's field starts at bit j * stride of the little-endian octets.
        at = np.arange(cfg.slot_count) * self._stride
        octets = col["surf"].astype("<u8", copy=False).view(np.uint8).reshape(len(lanes), -1)
        surf = (octets[:, at >> 3] >> (at & 7).astype(np.uint8)) & np.uint8(self._field)
        fields = GenomeColumns(col["counter"], surf, col.get("tag"), col.get("fit")).to_fields()
        pe = np.repeat(self._all, k)
        xs, ys = (pe % cfg.width).tolist(), (pe // cfg.width).tolist()
        gids = col["gid"].tolist() if "gid" in col else [None] * len(lanes)
        return list(map(SampledGenome, xs, ys, sample_labels(xs, ys), fields, gids))
