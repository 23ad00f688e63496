"""Column-parallel batched replay of fault scenarios (numpy kernel).

The scalar :meth:`~repro.sim.engine.SystemSimulator.run` replays one
scenario per call; million-scenario injection sweeps pay its Python
per-instance bookkeeping once per scenario.  This module compiles the
simulator's resolved :class:`~repro.sim.engine._InstancePlan` tuples
*once* into one **row recipe** per instance and replays ``B`` scenarios
simultaneously — one matrix column per scenario — with the same
semantics, bit for bit:

* **arrival matrix** — one ``(rows, B)`` matrix holds everything a
  receiver can read: each instance's finish where it produced (+inf
  where it starved or died), one row per **channel** (a sender's frames
  carrying one message) with the arrival of its earliest valid frame,
  and one row that is always +inf.  A channel is evaluated once, when
  its sender has run: the controller's validity test (``finish <=
  slot_start + ε``) becomes a ``searchsorted`` of the sender's row into
  its sorted frame thresholds and a ``take`` from a precompiled table of
  earliest arrivals.  Channel rows are reused once their last reader
  has run;
* **row recipes** — per instance, the arrival rows of its input groups
  padded to the widest group with the +inf row, the node index, and the
  scalars ``max(table start, release)``, ``wcet``, ``wcet + µ``,
  ``recovery + µ`` and ``reexec·(recovery + µ)``.  A step gathers the
  rows in one ``take``, reduces each group with one ``min`` over the
  padded ``(width, groups, B)`` block and the groups with one ``max`` —
  float min/max is order-independent-exact, so this matches the scalar
  ``max(ready, min(arrivals))`` fold bit-for-bit;
* **kernel execution** — the closed-form contingency arithmetic of
  :class:`~repro.sim.kernel.NodeKernel` applied to whole rows:
  ``(start + wcet) + n·(recovery + µ)`` for survivors,
  ``(start + (wcet + µ)) + reexec·(recovery + µ)`` for dead replicas,
  in the scalar kernel's IEEE operation order;
* **starvation** is read off +inf: a group with no valid arrival
  reduces to +inf, so a starved column's start and finish are +inf, its
  node chain keeps its value there, and ``starved`` / ``executed`` /
  ``produced`` are derived after the loop.  A dead replica *does*
  occupy the CPU until its busy-end but produces nothing;
* **completions** — per process, a ``min`` over its replica rows of the
  arrival matrix, ``+inf`` marking a dead process.

Parity with the scalar engine is a contract, not an accident — the
hypothesis suite ``tests/sim/test_batch_parity.py`` asserts repr-byte
equality column by column, including faults-beyond-k and dead-replica
edges (the same discipline as the delta kernel's
``tests/opt/test_delta_parity.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.sim.engine import SimulationResult, SystemSimulator
from repro.sim.faults import FaultScenario
from repro.sim.kernel import ExecutionRecord
from repro.ttp.bus import FRAME_EPS


@dataclass
class BatchResult:
    """Arrays of one :meth:`BatchSimulator.run_batch` call (column = scenario).

    Row order of the ``(instances, B)`` arrays is the simulator's
    placement order (:attr:`BatchSimulator.instance_ids`); the
    ``(processes, B)`` arrays follow :attr:`BatchSimulator.processes`.
    """

    sim: "BatchSimulator"
    failures: np.ndarray  # (N, B) int64 failed-attempt counts
    start: np.ndarray  # (N, B) float64; +inf where not executed
    finish: np.ndarray  # (N, B) float64; +inf where not executed
    executed: np.ndarray  # (N, B) bool — ran (possibly dying), not starved
    produced: np.ndarray  # (N, B) bool — executed and survived
    starved: np.ndarray  # (N, B) bool — no valid input arrived
    completions: np.ndarray  # (P, B) float64; +inf where the process died
    process_alive: np.ndarray  # (P, B) bool

    @property
    def columns(self) -> int:
        return self.failures.shape[1]

    def scalarize(self, column: int,
                  scenario: FaultScenario | None = None) -> SimulationResult:
        """Rebuild one column as a scalar :class:`SimulationResult`.

        Byte-equal to :meth:`SystemSimulator.run` on the same scenario
        (floats are converted back to Python floats, so ``repr`` output
        matches too) — the bridge the parity suite and exemplar tooling
        compare through.
        """
        sim = self.sim
        if scenario is None:
            scenario = FaultScenario(failures={
                iid: int(count)
                for iid, count in zip(sim.instance_ids, self.failures[:, column])
                if count
            })
        result = SimulationResult(scenario=scenario)
        for i, iid in enumerate(sim.instance_ids):
            if self.starved[i, column]:
                result.starved.append(iid)
                continue
            failed = int(self.failures[i, column])
            reexec = int(sim.reexecutions[i])
            survives = failed <= reexec
            result.executions[iid] = ExecutionRecord(
                instance_id=iid,
                start=float(self.start[i, column]),
                finish=float(self.finish[i, column]),
                attempts=failed + 1 if survives else reexec + 1,
                produced=bool(self.produced[i, column]),
            )
        for p, process in enumerate(sim.processes):
            if self.process_alive[p, column]:
                result.completions[process] = float(self.completions[p, column])
            else:
                result.dead_processes.append(process)
        return result


class _Sends(NamedTuple):
    """One sender's channels: arrival rows ``[lo, hi)`` and their lookup.

    ``thresholds`` are the sorted validity thresholds (``slot_start + ε``)
    of every frame on those channels.  An output ready at ``t`` makes
    valid exactly the frames whose threshold is at or after position
    ``j = thresholds.searchsorted(t)``, and ``table[c, j]`` is channel
    ``c``'s earliest arrival among them (+inf past the last threshold,
    which also covers a starved or dead sender's +inf output).
    """

    lo: int
    hi: int
    thresholds: np.ndarray
    table: np.ndarray


class _Row(NamedTuple):
    """Static inputs of one instance's replay step, compiled once."""

    index: int  # row in placement order
    node: int
    floor: float  # max(table start, release)
    wcet: float
    wcet_mu: float  # wcet + µ: a dead replica's first attempt
    recmu: float  # recovery + µ: one failed attempt
    dead_tail: float  # reexec·(recovery + µ)
    src: np.ndarray | None  # arrival rows, (width, groups) flattened
    groups: int
    width: int  # options per group, padded with the +inf row
    sends: _Sends | None


class BatchSimulator:
    """Columnar compilation of one :class:`SystemSimulator`'s replay plans.

    Compile once per target, then :meth:`run_batch` replays arbitrarily
    many ``(instances, B)`` failure matrices against the frozen recipes.
    """

    def __init__(self, simulator: SystemSimulator) -> None:
        schedule = simulator.schedule
        medl = schedule.medl
        mu = schedule.faults.mu
        plans = simulator._plans

        self.simulator = simulator
        self.instance_ids: tuple[str, ...] = tuple(p.iid for p in plans)
        index = {iid: i for i, iid in enumerate(self.instance_ids)}
        self.nodes: tuple[str, ...] = tuple(schedule.record.nodes)
        node_index = {node: i for i, node in enumerate(self.nodes)}
        n = len(plans)
        self.reexecutions = np.asarray(
            [plan.instance.reexecutions for plan in plans], dtype=np.int64
        )

        # Input options per instance and group: (sender, None) reads a
        # local sender's output, (sender, message_ids) a remote sender's
        # channel.  A sender placed later, or one that never runs, has
        # no output yet when the scalar loop reaches the receiver, so it
        # is no option.  A group left without options starves the
        # instance in every scenario: it never runs and never sends.
        inputs: dict[int, list[list[tuple[int, tuple[str, ...] | None]]]] = {}
        last_read: dict[tuple[int, tuple[str, ...]], int] = {}
        for i, plan in enumerate(plans):
            groups = [
                [
                    (index[source.iid],
                     None if source.local else source.message_ids)
                    for source in group
                    if index[source.iid] in inputs
                    and (source.local or source.message_ids)
                ]
                for group in plan.groups
            ]
            if all(groups):
                inputs[i] = groups
                for options in groups:
                    for option in options:
                        if option[1] is not None:
                            last_read[option] = i

        # Arrival matrix rows: [0, n) the instances, n always +inf, then
        # channel slots.  Each sender's channels take adjacent slots, so
        # one ``take`` writes them; a slot is free again once the last
        # reader of its channel has run (a row reads before it sends).
        never = n
        channels: dict[int, list[tuple[str, ...]]] = {}
        for sender, message_ids in last_read:
            channels.setdefault(sender, []).append(message_ids)
        free_after: list[int] = []  # per slot, the last row reading it
        channel_row: dict[tuple[int, tuple[str, ...]], int] = {}
        sends: dict[int, _Sends] = {}
        for sender in sorted(channels):
            carried = channels[sender]
            lo = 0
            while any(free_after[slot] > sender
                      for slot in range(lo, min(lo + len(carried),
                                                len(free_after)))):
                lo += 1
            free_after.extend([0] * (lo + len(carried) - len(free_after)))
            for slot, message_ids in enumerate(carried, start=lo):
                free_after[slot] = last_read[sender, message_ids]
                channel_row[sender, message_ids] = n + 1 + slot
            sends[sender] = _Sends(
                n + 1 + lo, n + 1 + lo + len(carried),
                *_channel_lookup(carried, medl),
            )
        self._arrival_rows = n + 1 + len(free_after)

        self._rows: list[_Row] = []
        for i, groups in inputs.items():
            plan = plans[i]
            instance = plan.instance
            recmu = instance.recovery_unit + mu
            rows = [
                [sender if message_ids is None
                 else channel_row[sender, message_ids]
                 for sender, message_ids in options]
                for options in groups
            ]
            width = max(map(len, rows), default=0)
            src = np.asarray(
                [options + [never] * (width - len(options))
                 for options in rows],
                dtype=np.intp,
            ).T.ravel() if rows else None
            self._rows.append(_Row(
                index=i,
                node=node_index[plan.node],
                floor=max(plan.table_start, plan.release),
                wcet=instance.wcet,
                wcet_mu=instance.wcet + mu,
                recmu=recmu,
                dead_tail=instance.reexecutions * recmu,
                src=src,
                groups=len(rows),
                width=width,
                sends=sends.get(i),
            ))

        # Completion slots: slot r holds every process's r-th replica row
        # (the +inf row where a process has fewer replicas scheduled).
        ft = simulator.ft
        self.processes: tuple[str, ...] = tuple(ft.group_of)
        replica_rows = [
            [index[iid] for iid in replicas if iid in index]
            for replicas in ft.group_of.values()
        ]
        replicas = max(map(len, replica_rows), default=0)
        self._completion_slots = [
            np.asarray(
                [rows[r] if r < len(rows) else never for rows in replica_rows],
                dtype=np.intp,
            )
            for r in range(max(replicas, 1))
        ]
        self._align_cache: dict[tuple[str, ...], np.ndarray] = {}

    # -- alignment ---------------------------------------------------------

    def alignment(self, ids: Sequence[str]) -> np.ndarray:
        """Row gather mapping a matrix indexed by ``ids`` onto plan order.

        ``matrix[alignment(ids)]`` reorders a failure matrix whose rows
        follow ``ids`` (e.g. :attr:`ScenarioSpace.ids`, sorted) into this
        simulator's placement order.
        """
        key = tuple(ids)
        perm = self._align_cache.get(key)
        if perm is None:
            where = {iid: j for j, iid in enumerate(key)}
            try:
                perm = np.asarray(
                    [where[iid] for iid in self.instance_ids], dtype=np.intp
                )
            except KeyError as error:
                raise SimulationError(
                    f"failure matrix is missing instance {error.args[0]!r}"
                ) from None
            self._align_cache[key] = perm
        return perm

    # -- replay ------------------------------------------------------------

    def run_batch(self, failures, ids: Sequence[str] | None = None) -> BatchResult:
        """Replay every column of ``failures`` (one scenario per column).

        ``failures`` is an ``(instances, B)`` integer matrix of
        failed-attempt counts, rows in placement order — or in ``ids``
        order when ``ids`` is given (the matrix is gathered through
        :meth:`alignment` first).  Counts may exceed the fault model's
        ``k`` and a replica's capacity, exactly like the scalar ``run``.
        """
        failures = np.asarray(failures, dtype=np.int64)
        if failures.ndim != 2:
            raise SimulationError(
                f"failure matrix must be 2-D (instances, B), "
                f"got shape {failures.shape}"
            )
        if ids is not None:
            failures = failures[self.alignment(ids)]
        n, columns = failures.shape
        if n != len(self.instance_ids):
            raise SimulationError(
                f"failure matrix has {n} rows, schedule has "
                f"{len(self.instance_ids)} instances"
            )
        if failures.size and int(failures.min()) < 0:
            raise SimulationError("failure counts must be >= 0")

        inf = np.inf
        survives = failures <= self.reexecutions[:, None]
        dying = (~survives.all(axis=1)).tolist()
        start = np.full((n, columns), inf)
        arrivals = np.full((self._arrival_rows, columns), inf)
        chains = [np.zeros(columns)] * len(self.nodes)  # read, never written
        busy = []  # (row, busy-end) of the rows with a dead replica

        for (i, node, floor, wcet, wcet_mu, recmu, dead_tail, src, groups,
             width, sends) in self._rows:
            row_start = start[i]
            chain = chains[node]
            if src is None:
                np.maximum(chain, floor, out=row_start)
            else:
                reach = arrivals.take(src, axis=0)
                if width > 1:
                    reach = reach.reshape(width, groups, columns).min(axis=0)
                ready = reach.max(axis=0) if groups > 1 else reach[0]
                np.maximum(ready, floor, out=row_start)
                np.maximum(row_start, chain, out=row_start)
            out = arrivals[i]
            if dying[i]:
                alive = survives[i]
                fin = np.where(
                    alive,
                    (row_start + wcet) + failures[i] * recmu,
                    (row_start + wcet_mu) + dead_tail,
                )
                np.copyto(out, fin, where=alive)
                busy.append((i, fin))
            else:
                fin = np.add(row_start, wcet, out=out)
                fin += failures[i] * recmu
            # A starved column (+inf start) leaves its node chain as is.
            chains[node] = (
                fin if src is None else np.where(row_start == inf, chain, fin)
            )
            if sends is not None:
                lo, hi, thresholds, table = sends
                np.take(table, thresholds.searchsorted(out), axis=1,
                        out=arrivals[lo:hi], mode="clip")

        slots = self._completion_slots
        completions = arrivals.take(slots[0], axis=0)
        for slot in slots[1:]:
            np.minimum(completions, arrivals.take(slot, axis=0),
                       out=completions)
        # The instance rows become the finish matrix: dead replicas get
        # their busy-end back once the completions have been read.
        finish = arrivals[:n]
        for i, fin in busy:
            finish[i] = fin
        starved = start == inf
        executed = ~starved
        return BatchResult(
            sim=self,
            failures=failures,
            start=start,
            finish=finish,
            executed=executed,
            produced=executed & survives,
            starved=starved,
            completions=completions,
            process_alive=completions != inf,
        )


def _channel_lookup(channels: list[tuple[str, ...]],
                    medl) -> tuple[np.ndarray, np.ndarray]:
    """``(thresholds, table)`` of one sender's channels (see :class:`_Sends`)."""
    frames = {
        message_id: (medl[message_id].slot_start + FRAME_EPS,
                     medl[message_id].arrival)
        for message_ids in channels
        for message_id in message_ids
    }
    thresholds = sorted({threshold for threshold, _ in frames.values()})
    table = np.full((len(channels), len(thresholds) + 1), np.inf)
    for c, message_ids in enumerate(channels):
        for j, bound in enumerate(thresholds):
            valid = [arrival for threshold, arrival in
                     (frames[m] for m in message_ids) if threshold >= bound]
            if valid:
                table[c, j] = min(valid)
    return np.asarray(thresholds, dtype=np.float64), table
