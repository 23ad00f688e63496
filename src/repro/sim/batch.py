"""Column-parallel batched replay of fault scenarios (numpy kernel).

The scalar :meth:`~repro.sim.engine.SystemSimulator.run` replays one
scenario per call; million-scenario injection sweeps pay its Python
per-instance bookkeeping once per scenario.  This module compiles the
simulator's resolved :class:`~repro.sim.engine._InstancePlan` tuples
*once* into integer-indexed columnar arrays and replays ``B`` scenarios
simultaneously — one matrix column per scenario — with the same
semantics, bit for bit:

* **interning** — instance ids, node names and process names become row
  indices; every per-instance parameter (``wcet``, ``recovery + µ``,
  release, table start, re-execution budget) is a flat vector;
* **arrival options** — each potential input arrival (a local
  predecessor's finish, or one bus frame of a remote sender) is one row
  of a CSR-style flattened option table: per instance a contiguous
  slice, per input group a start offset into that slice.  Arrivals are
  a gather of the source rows' finish columns masked by availability
  (``produced`` and, for frames, ``finish <= slot_start + ε`` — the
  controller's validity test), reduced group-wise with
  ``np.minimum.reduceat`` and across groups with ``max`` — float
  min/max is order-independent-exact, so the reductions match the
  scalar ``max(ready, min(arrivals))`` fold bit-for-bit;
* **kernel execution** — the closed-form contingency arithmetic of
  :class:`~repro.sim.kernel.NodeKernel` applied to whole rows:
  ``(start + wcet) + n·(recovery + µ)`` for survivors,
  ``(start + (wcet + µ)) + reexec·(recovery + µ)`` for dead replicas,
  with the per-instance scalar subexpressions precompiled so the IEEE
  operation order equals the scalar kernel's;
* **starvation/death** propagate as boolean masks (a starved instance
  never executes and never advances its node chain; a dead replica
  *does* occupy the CPU until its busy-end but produces nothing);
* **completions** — per process, a masked ``min`` over its replica
  rows, ``+inf`` marking a dead process.

Parity with the scalar engine is a contract, not an accident — the
hypothesis suite ``tests/sim/test_batch_parity.py`` asserts repr-byte
equality column by column, including faults-beyond-k and dead-replica
edges (the same discipline as the delta kernel's
``tests/opt/test_delta_parity.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import SimulationError
from repro.sim.engine import SimulationResult, SystemSimulator
from repro.sim.faults import FaultScenario
from repro.sim.kernel import ExecutionRecord

#: Frame validity epsilon — must equal ``repro.sim.controller._EPS`` so the
#: precompiled thresholds (``slot_start + ε``) match the scalar comparison.
_BUS_EPS = 1e-9


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


class BatchSimulator:
    """Columnar compilation of one :class:`SystemSimulator`'s replay plans.

    Compile once per target, then :meth:`run_batch` replays arbitrarily
    many ``(instances, B)`` failure matrices against the frozen arrays.
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
        self._node = np.empty(n, dtype=np.intp)
        self._table = np.empty(n, dtype=np.float64)
        self._release = np.empty(n, dtype=np.float64)
        self._wcet = np.empty(n, dtype=np.float64)
        self._wcet_mu = np.empty(n, dtype=np.float64)  # wcet + µ (dead head)
        self._recmu = np.empty(n, dtype=np.float64)  # recovery + µ
        self._dead_tail = np.empty(n, dtype=np.float64)  # reexec·(recovery+µ)
        self.reexecutions = np.empty(n, dtype=np.int64)
        self._always_starved = np.zeros(n, dtype=bool)

        # CSR-style flattened arrival-option table: per instance the slice
        # [opt_lo[i], opt_hi[i]) of the flat arrays, per input group a
        # start offset (relative to the instance's slice) for reduceat.
        opt_src: list[int] = []
        opt_thr: list[float] = []  # validity threshold on the source finish
        opt_const: list[float] = []  # frame arrival constant (remote only)
        opt_local: list[bool] = []
        group_starts: list[int] = []
        self._opt_lo = np.empty(n, dtype=np.intp)
        self._opt_hi = np.empty(n, dtype=np.intp)
        self._grp_lo = np.empty(n, dtype=np.intp)
        self._grp_hi = np.empty(n, dtype=np.intp)

        for i, plan in enumerate(plans):
            instance = plan.instance
            recovery = instance.recovery_unit
            self._node[i] = node_index[plan.node]
            self._table[i] = plan.table_start
            self._release[i] = plan.release
            self._wcet[i] = instance.wcet
            self._wcet_mu[i] = instance.wcet + mu
            self._recmu[i] = recovery + mu
            self._dead_tail[i] = instance.reexecutions * (recovery + mu)
            self.reexecutions[i] = instance.reexecutions

            self._opt_lo[i] = len(opt_src)
            self._grp_lo[i] = len(group_starts)
            for group in plan.groups:
                group_starts.append(len(opt_src) - self._opt_lo[i])
                before = len(opt_src)
                for source in group:
                    if source.local:
                        opt_src.append(index[source.iid])
                        opt_thr.append(np.inf)
                        opt_const.append(0.0)
                        opt_local.append(True)
                        continue
                    for message_id in source.message_ids:
                        descriptor = medl[message_id]
                        opt_src.append(index[source.iid])
                        opt_thr.append(descriptor.slot_start + _BUS_EPS)
                        opt_const.append(descriptor.arrival)
                        opt_local.append(False)
                if len(opt_src) == before:
                    # A group with no possible arrival (remote sources
                    # without matching frames): the scalar loop starves
                    # this instance in every scenario.
                    self._always_starved[i] = True
            self._opt_hi[i] = len(opt_src)
            self._grp_hi[i] = len(group_starts)

        self._opt_src = np.asarray(opt_src, dtype=np.intp)
        self._opt_thr = np.asarray(opt_thr, dtype=np.float64)[:, None]
        self._opt_const = np.asarray(opt_const, dtype=np.float64)[:, None]
        self._opt_local = np.asarray(opt_local, dtype=bool)[:, None]
        self._group_starts = np.asarray(group_starts, dtype=np.intp)

        # Completion rows: processes in FT-graph group order, each with
        # the row indices of its replicas present in the schedule.
        ft = simulator.ft
        self.processes: tuple[str, ...] = tuple(ft.group_of)
        self._process_rows: list[np.ndarray] = [
            np.asarray(
                [index[iid] for iid in replicas if iid in index],
                dtype=np.intp,
            )
            for replicas in ft.group_of.values()
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
        n, width = failures.shape
        if n != len(self.instance_ids):
            raise SimulationError(
                f"failure matrix has {n} rows, schedule has "
                f"{len(self.instance_ids)} instances"
            )
        if failures.size and int(failures.min()) < 0:
            raise SimulationError("failure counts must be >= 0")

        inf = np.inf
        start = np.full((n, width), inf)
        finish = np.full((n, width), inf)
        executed = np.zeros((n, width), dtype=bool)
        produced = np.zeros((n, width), dtype=bool)
        starved = np.zeros((n, width), dtype=bool)
        node_time = np.zeros((len(self.nodes), width))

        for i in range(n):
            if self._always_starved[i]:
                starved[i] = True
                continue
            lo, hi = self._opt_lo[i], self._opt_hi[i]
            if lo == hi:
                ready = self._release[i]
                strv = None
            else:
                sources = self._opt_src[lo:hi]
                fin = finish[sources]
                avail = produced[sources] & (fin <= self._opt_thr[lo:hi])
                values = np.where(
                    self._opt_local[lo:hi], fin, self._opt_const[lo:hi]
                )
                values = np.where(avail, values, inf)
                group_min = np.minimum.reduceat(
                    values,
                    self._group_starts[self._grp_lo[i]:self._grp_hi[i]],
                    axis=0,
                )
                strv = (group_min == inf).any(axis=0)
                ready = np.maximum(self._release[i], group_min.max(axis=0))
            chain = node_time[self._node[i]]
            row_start = np.maximum(np.maximum(self._table[i], ready), chain)
            counts = failures[i]
            survives = counts <= self.reexecutions[i]
            row_finish = np.where(
                survives,
                (row_start + self._wcet[i]) + counts * self._recmu[i],
                (row_start + self._wcet_mu[i]) + self._dead_tail[i],
            )
            if strv is not None and strv.any():
                ran = ~strv
                starved[i] = strv
                row_start = np.where(ran, row_start, inf)
                row_finish = np.where(ran, row_finish, inf)
            else:
                ran = np.ones(width, dtype=bool)
            executed[i] = ran
            produced[i] = ran & survives
            start[i] = row_start
            finish[i] = row_finish
            node_time[self._node[i]] = np.where(ran, row_finish, chain)

        completions = np.full((len(self.processes), width), inf)
        alive = np.zeros((len(self.processes), width), dtype=bool)
        for p, rows in enumerate(self._process_rows):
            if rows.size == 0:
                continue
            ok = produced[rows]
            completions[p] = np.where(ok, finish[rows], inf).min(axis=0)
            alive[p] = ok.any(axis=0)

        return BatchResult(
            sim=self,
            failures=failures,
            start=start,
            finish=finish,
            executed=executed,
            produced=produced,
            starved=starved,
            completions=completions,
            process_alive=alive,
        )
