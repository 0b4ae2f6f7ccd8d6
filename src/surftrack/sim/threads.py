"""Thread-per-PE execution of the grid protocol.

Each PE runs in its own thread; every directed link becomes a lock-
protected wire holding one in-flight emigrant and the receiver's stage.
There is no global barrier: a bounded-lead rule keeps every PE within
a few generations of its slowest neighbor (see MAX_NEIGHBOR_LEAD) so
transfers keep flowing, but arrival interleavings are up to the
scheduler.  Multi-PE results are therefore not bit-identical to the
deterministic engine; protocol invariants (population size, tag
conservation, counter bounds) still hold, and a 1x1 grid, having no
links, must match the deterministic engine bit for bit since both
consume the same per-PE streams in the same order.

In-transit loss draws come from a per-wire stream here rather than the
deterministic engine's single transport stream, because a shared cursor
would make thread scheduling leak into the random sequence.
"""

from __future__ import annotations

import threading

import numpy as np

from ..surface.genome import GenomeFields
from ..surface.sites import site_array
from . import streams
from .config import ConfigError, GridConfig
from .engine import OPPOSITE, SampledGenome, neighbor_table
from .tracker import NO_PARENT, LineageTracker


#: Largest grid the thread-per-PE engine accepts: it starts one OS thread
#: per PE, so the PE count is also its thread count.
MAX_THREADED_PES = 256


class _Wire:
    __slots__ = ("lock", "emig", "stage", "loss", "departed")

    def __init__(self, loss: streams.ScalarStream | None) -> None:
        self.lock = threading.Lock()
        self.emig: dict | None = None
        self.stage: list[dict] = []
        self.loss = loss
        self.departed = 0


class _PE:
    def __init__(self, config: GridConfig, p: int, tracker, tracker_lock) -> None:
        self.config = config
        self.p = p
        K = config.population
        self.stream = streams.ScalarStream(config.seed, p)
        w = config.differentia_bits
        if w == 1 and config.slot_count <= 64:
            self.surf = np.zeros(K, dtype=np.uint64)
        else:
            self.surf = np.zeros((K, config.slot_count), dtype=np.uint8)
        self.counter = np.zeros(K, dtype=np.int64)
        self.imported = 0
        self.exported = 0
        self.tag = None
        self.fit = None
        if config.layout == "tagged":
            self.tag = (self.stream.draw(K) & np.uint64(0xFFFF)).astype(np.uint16)
        else:
            self.fit = np.zeros(K, dtype=np.float32)
        self.tracker = tracker
        self.tracker_lock = tracker_lock
        self.gid = None
        if tracker is not None:
            with tracker_lock:
                self.gid = tracker.record_cohort(
                    np.full(K, NO_PARENT), np.zeros(K, np.int64), np.full(K, p)
                )
        self.wire_in: list[_Wire | None] = [None] * 4
        self.wire_out: list[_Wire | None] = [None] * 4
        self.generation = 0

    # -- lane snapshots ----------------------------------------------------

    def _read_lane(self, i: int) -> dict:
        snap = {
            "surf": self.surf[i].copy() if self.surf.ndim == 2 else self.surf[i],
            "counter": self.counter[i],
        }
        if self.tag is not None:
            snap["tag"] = self.tag[i]
        if self.fit is not None:
            snap["fit"] = self.fit[i]
        if self.gid is not None:
            snap["gid"] = self.gid[i]
        return snap

    def _write_lane(self, i: int, snap: dict) -> None:
        self.surf[i] = snap["surf"]
        self.counter[i] = snap["counter"]
        if self.tag is not None:
            self.tag[i] = snap["tag"]
        if self.fit is not None:
            self.fit[i] = snap["fit"]
        if self.gid is not None:
            self.gid[i] = snap["gid"]

    # -- one generation ------------------------------------------------------

    def _pull_transport(self) -> None:
        R = GridConfig.RECEIVE_CAPACITY
        for d in range(4):
            wire = self.wire_in[d]
            if wire is None:
                continue
            with wire.lock:
                if wire.emig is None or len(wire.stage) >= R:
                    continue
                genome = wire.emig
                wire.emig = None
                if wire.loss is not None:
                    u = streams.to_unit(wire.loss.draw(1))[0]
                    if u < self.config.loss_rate:
                        continue  # lost in transit; departed regardless
                wire.stage.append(genome)
                wire.departed += 1

    def _inject(self) -> None:
        R = GridConfig.RECEIVE_CAPACITY
        K = self.config.population
        for d in range(4):
            wire = self.wire_in[d]
            if wire is None:
                continue
            migrants = None
            with wire.lock:
                if len(wire.stage) >= R:
                    migrants = list(wire.stage)
                    wire.stage.clear()
            if migrants:
                idx = streams.to_index(self.stream.draw(R), K)
                for j in range(R):
                    self._write_lane(int(idx[j]), migrants[j])
                self.imported += R

    def _refill(self) -> None:
        K = self.config.population
        for d in range(4):
            wire = self.wire_out[d]
            if wire is None:
                continue
            with wire.lock:
                empty = wire.emig is None
            if empty:
                i = int(streams.to_index(self.stream.draw(1), K)[0])
                snap = self._read_lane(i)
                with wire.lock:
                    wire.emig = snap

    def step(self) -> None:
        cfg = self.config
        K, n = cfg.population, cfg.tournament_size
        self._pull_transport()
        self._inject()
        self._refill()

        cand = streams.to_index(self.stream.draw(K * n), K).reshape(K, n)
        ties = streams.to_unit(self.stream.draw(K * n)).reshape(K, n)
        if self.fit is not None:
            f = self.fit[cand]
        else:
            f = np.zeros((K, n), dtype=np.float32)
        best = f.max(axis=1, keepdims=True)
        score = np.where(f == best, ties, -1.0)
        winner = np.take_along_axis(cand, score.argmax(axis=1)[:, None], axis=1)[:, 0]

        self.surf = self.surf[winner]
        self.counter = self.counter[winner]
        if self.tag is not None:
            self.tag = self.tag[winner]
        if self.fit is not None:
            self.fit = self.fit[winner]
        if self.gid is not None:
            parents = self.gid[winner]
            with self.tracker_lock:
                self.gid = self.tracker.record_cohort(
                    parents, self.counter.copy(), np.full(K, self.p)
                )

        t = cfg.treatment
        if self.fit is not None and t.mode != "neutral":
            gate = streams.to_unit(self.stream.draw(K))
            u1 = streams.to_unit(self.stream.draw(K))
            u2 = streams.to_unit(self.stream.draw(K))
            mag = streams.normal_magnitudes(u1, u2) * t.deleterious_sigma
            self.fit -= np.where(gate < t.deleterious_p, mag, 0.0).astype(np.float32)
            if t.mode == "adaptive":
                gate = streams.to_unit(self.stream.draw(K))
                u1 = streams.to_unit(self.stream.draw(K))
                u2 = streams.to_unit(self.stream.draw(K))
                mag = streams.normal_magnitudes(u1, u2) * t.beneficial_sigma
                self.fit += np.where(gate < t.beneficial_p, mag, 0.0).astype(np.float32)

        layout_capacity = cfg.genome_layout().counter_capacity
        if (self.counter >= layout_capacity - 1).any():
            raise OverflowError("deposit counter would overflow the genome layout")
        slots, stored = site_array(cfg.policy, self.counter, cfg.slot_count)
        draws = self.stream.draw(K)
        if self.surf.ndim == 1:
            bits = draws & np.uint64(1)
            shift = slots.astype(np.uint64)
            mask = np.uint64(1) << shift
            self.surf = np.where(stored, (self.surf & ~mask) | (bits << shift), self.surf)
        else:
            vals = (draws & np.uint64((1 << cfg.differentia_bits) - 1)).astype(np.uint8)
            lanes = np.nonzero(stored)[0]
            self.surf[lanes, slots[stored]] = vals[stored]
        self.counter = self.counter + 1
        self.generation += 1


class ThreadedGrid:
    """One thread per PE; see module docstring for the fidelity contract."""

    def __init__(self, config: GridConfig) -> None:
        config.validate()
        if config.n_pes > MAX_THREADED_PES:
            raise ConfigError(
                f"a {config.width}x{config.height} grid needs {config.n_pes} threads; "
                f"thread-per-PE execution is capped at {MAX_THREADED_PES} PEs"
            )
        self.config = config
        P = config.n_pes
        self.nbr = neighbor_table(config.width, config.height, config.torus)
        self.tracker: LineageTracker | None = (
            LineageTracker() if config.track_perfect else None
        )
        self._tracker_lock = threading.Lock()
        self.pes = [_PE(config, p, self.tracker, self._tracker_lock) for p in range(P)]

        next_loss_stream = P + 1
        for p in range(P):
            for d in range(4):
                q = self.nbr[d, p]
                if q < 0:
                    continue
                loss = None
                if config.loss_rate > 0.0:
                    loss = streams.ScalarStream(config.seed, next_loss_stream)
                    next_loss_stream += 1
                wire = _Wire(loss)
                self.pes[p].wire_out[d] = wire
                self.pes[int(q)].wire_in[OPPOSITE[d]] = wire

    #: How many generations a PE may run ahead of its slowest neighbor.
    #: Without this cap the scheduler is free to run one thread to
    #: completion before its neighbors take a single step, and migration
    #: silently degenerates to nothing.  Matching the stage depth keeps
    #: transfer pressure comparable to the lockstep engine while leaving
    #: arrival interleavings scheduler-dependent.
    MAX_NEIGHBOR_LEAD = 4

    def run(self, generations: int | None = None) -> None:
        todo = self.config.generations if generations is None else generations
        cond = threading.Condition()
        progress = [0] * len(self.pes)
        lead = self.MAX_NEIGHBOR_LEAD

        def drive(pe: _PE) -> None:
            neighbors = [int(q) for q in self.nbr[:, pe.p] if q >= 0]
            for g in range(todo):
                with cond:
                    cond.wait_for(
                        lambda: all(progress[q] >= g - lead for q in neighbors)
                    )
                pe.step()
                with cond:
                    progress[pe.p] = g + 1
                    cond.notify_all()

        workers = [
            threading.Thread(target=drive, args=(pe,), name=f"pe{pe.p}")
            for pe in self.pes
        ]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        if self.tracker is not None:
            self.tracker.prune(self._live_ids())

    @property
    def imported(self) -> np.ndarray:
        return np.array([pe.imported for pe in self.pes], dtype=np.int64)

    @property
    def exported(self) -> np.ndarray:
        out = np.zeros(len(self.pes), dtype=np.int64)
        for pe in self.pes:
            for wire in pe.wire_out:
                if wire is not None:
                    out[pe.p] += wire.departed
        return out

    def _live_ids(self) -> np.ndarray:
        parts = [pe.gid for pe in self.pes]
        for pe in self.pes:
            for wire in pe.wire_out:
                if wire is not None and wire.emig is not None and "gid" in wire.emig:
                    parts.append(np.array([wire.emig["gid"]], dtype=np.int64))
            for wire in pe.wire_in:
                if wire is not None:
                    parts.extend(
                        np.array([g["gid"]], dtype=np.int64)
                        for g in wire.stage
                        if "gid" in g
                    )
        return np.concatenate(parts)

    def _lane_fields(self, pe: _PE, i: int) -> GenomeFields:
        cfg = self.config
        if pe.surf.ndim == 1:
            word = int(pe.surf[i])
            surface = tuple((word >> k) & 1 for k in range(cfg.slot_count))
        else:
            surface = tuple(int(v) for v in pe.surf[i])
        return GenomeFields(
            counter=int(pe.counter[i]),
            surface=surface,
            founder_tag=int(pe.tag[i]) if pe.tag is not None else None,
            fitness=float(pe.fit[i]) if pe.fit is not None else None,
        )

    def sample_end_state(self, per_pe: int | None = None) -> list[SampledGenome]:
        cfg = self.config
        k = cfg.sample_per_pe if per_pe is None else per_pe
        out = []
        for pe in self.pes:
            idx = streams.to_index(pe.stream.draw(k), cfg.population)
            x, y = pe.p % cfg.width, pe.p // cfg.width
            for j, i in enumerate(idx.tolist()):
                out.append(
                    SampledGenome(
                        pe_x=x,
                        pe_y=y,
                        label=f"pe{x}_{y}_{j}",
                        fields=self._lane_fields(pe, i),
                        tracker_id=int(pe.gid[i]) if pe.gid is not None else None,
                    )
                )
        return out

    def founder_tag_count(self) -> int:
        if self.config.layout != "tagged":
            raise ValueError("fitness layout genomes carry no founder tag")
        return len(np.unique(np.concatenate([pe.tag for pe in self.pes])))
