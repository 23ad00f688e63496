"""Table 1: fault-tolerance overheads of MXR versus NFT (paper §6).

Three sweeps share one measurement: the percent overhead
``100 * (δ_MXR − δ_NFT) / δ_NFT`` aggregated as max/avg/min over the random
applications of one dimension.

* Table 1a — application size sweep (20..100 processes on 2..6 nodes,
  k = 3..7, µ = 5 ms);
* Table 1b — fault count sweep (60 processes, 4 nodes, k ∈ {2,4,6,8,10});
* Table 1c — fault duration sweep (20 processes, 2 nodes, k = 3,
  µ ∈ {1,5,10,15,20} ms).

Every sweep expands into independent ``(case, variant, seed)`` jobs executed
by :func:`repro.experiments.parallel.run_case_jobs`; ``jobs=1`` preserves
the serial path, ``jobs=N`` fans out over N processes with identical result
aggregation (see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.experiments.parallel import CaseJob, run_case_jobs, sweep_jobs
from repro.gen.suite import TABLE1A_DIMENSIONS
from repro.opt.strategy import OptimizationConfig


@dataclass(frozen=True)
class Table1Row:
    """One aggregated row: max/avg/min overhead (in %) of MXR over NFT."""

    label: str
    n_cases: int
    max_overhead: float
    avg_overhead: float
    min_overhead: float

    @classmethod
    def from_overheads(cls, label: str, overheads: Sequence[float]) -> "Table1Row":
        if not overheads:
            raise ValueError(f"row {label!r} has no measurements")
        return cls(
            label=label,
            n_cases=len(overheads),
            max_overhead=max(overheads),
            avg_overhead=sum(overheads) / len(overheads),
            min_overhead=min(overheads),
        )


def table1a(
    seeds: Sequence[int] = (0, 1, 2),
    dimensions: Sequence[tuple[int, int, int]] = TABLE1A_DIMENSIONS,
    mu: float = 5.0,
    time_scale: float = 1.0,
    progress: Callable[[str], None] | None = None,
    jobs: int = 1,
    config: OptimizationConfig | None = None,
    broker=None,
    resume: bool = False,
) -> list[Table1Row]:
    """Overhead versus application size (paper Table 1a)."""
    job_list = sweep_jobs(
        dimensions, seeds, ("NFT", "MXR"), mu, time_scale, config, tag="table1a"
    )
    results = run_case_jobs(
        job_list, n_jobs=jobs, progress=progress, broker=broker,
        resume=resume,
    )

    rows: list[Table1Row] = []
    index = 0
    for n_processes, _, _ in dimensions:
        overheads: list[float] = []
        for _ in seeds:
            runs = results[index]
            index += 1
            overheads.append(runs["MXR"].overhead_vs(runs["NFT"]))
        rows.append(Table1Row.from_overheads(f"{n_processes} procs", overheads))
    return rows


def _overhead_sweep(
    tag: str,
    seeds: Sequence[int],
    n_processes: int,
    n_nodes: int,
    reference: tuple[int, float],
    points: Sequence[tuple[str, str, int, float]],
    time_scale: float,
    config: OptimizationConfig | None,
    progress: Callable[[str], None] | None,
    jobs: int,
    broker,
    resume: bool,
) -> list[Table1Row]:
    """MXR overhead at each swept ``(k, µ)`` point over a per-seed NFT run.

    The NFT reference does not depend on the swept axis, so it is derived
    once per seed at ``reference = (k, µ)``; the reference jobs fan out
    together with the MXR jobs.  ``points`` lists ``(job tag, row label,
    k, µ)`` per swept value.
    """

    def job(k: int, mu: float, seed: int, variant: str, what: str) -> CaseJob:
        return CaseJob(
            n_processes=n_processes,
            n_nodes=n_nodes,
            k=k,
            mu=mu,
            seed=seed,
            variants=(variant,),
            time_scale=time_scale,
            config=config,
            label=f"{tag} {what} seed {seed}",
        )

    ref_jobs = [job(*reference, seed, "NFT", "NFT reference") for seed in seeds]
    mxr_jobs = [
        job(k, mu, seed, "MXR", what)
        for what, _, k, mu in points
        for seed in seeds
    ]
    results = run_case_jobs(
        ref_jobs + mxr_jobs, n_jobs=jobs, progress=progress, broker=broker,
        resume=resume,
    )
    reference_makespan = {
        seed: results[i]["NFT"].makespan for i, seed in enumerate(seeds)
    }

    rows: list[Table1Row] = []
    index = len(seeds)
    for _, label, _, _ in points:
        overheads: list[float] = []
        for seed in seeds:
            makespan = results[index]["MXR"].makespan
            index += 1
            base = reference_makespan[seed]
            overheads.append(100.0 * (makespan - base) / base)
        rows.append(Table1Row.from_overheads(label, overheads))
    return rows


def table1b(
    seeds: Sequence[int] = (0, 1, 2),
    fault_counts: Sequence[int] = (2, 4, 6, 8, 10),
    n_processes: int = 60,
    n_nodes: int = 4,
    mu: float = 5.0,
    time_scale: float = 1.0,
    progress: Callable[[str], None] | None = None,
    jobs: int = 1,
    config: OptimizationConfig | None = None,
    broker=None,
    resume: bool = False,
) -> list[Table1Row]:
    """Overhead versus number of faults k (paper Table 1b).

    NFT does not depend on k, so its schedule is derived once per seed.
    """
    return _overhead_sweep(
        "table1b", seeds, n_processes, n_nodes, (1, mu),
        [(f"k={k}", f"k = {k}", k, mu) for k in fault_counts],
        time_scale, config, progress, jobs, broker, resume,
    )


def table1c(
    seeds: Sequence[int] = (0, 1, 2),
    fault_durations: Sequence[float] = (1.0, 5.0, 10.0, 15.0, 20.0),
    n_processes: int = 20,
    n_nodes: int = 2,
    k: int = 3,
    time_scale: float = 1.0,
    progress: Callable[[str], None] | None = None,
    jobs: int = 1,
    config: OptimizationConfig | None = None,
    broker=None,
    resume: bool = False,
) -> list[Table1Row]:
    """Overhead versus fault duration µ (paper Table 1c)."""
    return _overhead_sweep(
        "table1c", seeds, n_processes, n_nodes, (k, 5.0),
        [(f"mu={mu:g}", f"mu = {mu:g} ms", k, mu) for mu in fault_durations],
        time_scale, config, progress, jobs, broker, resume,
    )
