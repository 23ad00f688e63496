"""End-to-end benchmark of the synthesizer and the fault-injection engine.

Run from the repository root::

    python3 e2ebench/run.py --workload synth-table1 --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates plain passes with passes under the layer
wrappers of ``layers.py`` and reports the per-layer metrics instead;
``--out DIR`` also writes that run's spans, registry counters and layer
metrics under DIR (nothing is written without it).  ``--case-seed``
selects the problem instances (0 by default, 1 is the held-out seed).

The timed body repeats whole passes, in one process and one thread,
until ``--seconds`` have passed and at least six passes are done.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Any failed operation or
output check makes the exit code 1.  NOTES.md says what each workload
and metric is for.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOADS = ("synth-table1", "synth-cruise", "inject-exhaustive",
             "inject-sampled")
SETUP_REPS = 3
#: Passes of each kind a run makes at least, so that every unit's fastest
#: time is taken over six samples even when the host is slow.
MIN_PASSES = 6

#: End-to-end metrics: name -> unit.  Measured with nothing wrapped.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "scenarios_per_s": "1/s",
    "makespan_geomean": "model_ms",
    "schedulable_frac": "ratio",
    "peak_rss_mb": "MiB",
}

#: Metrics of the benchmark's specification that are not defined, or
#: not nonzero, on every workload: printed with the end-to-end metrics
#: and reported per-layer.
PRINTED_ONLY = {
    "evaluations_per_s": "1/s",
    "residual_upper_bound": "probability",
    "failed_frac": "ratio",
}

#: Per-layer metrics: name -> unit.  Values are per wrapped pass (per
#: set-up repetition for work done in set-up).  The count-only leaves of
#: layers.HOT have ``.calls`` and no ``.s``.
PER_LAYER = {
    "gen.generate_case.s": "s",
    "model.build_ft_graph.calls": "count",
    "model.build_ft_graph.s": "s",
    "model.ft_graph_with_move.calls": "count",
    "model.ft_graph_with_move.s": "s",
    "opt.greedy_mpa.self_s": "s",
    "opt.tabu_search_mpa.self_s": "s",
    "opt.iterations": "count",
    "search.moves_priced": "count",
    "opt.signature.calls": "count",
    "opt.signature.s": "s",
    "evaluator.evaluate_many.calls": "count",
    "evaluator.evaluate_many.s": "s",
    "evaluator.context_for.s": "s",
    "evaluator.realize.s": "s",
    "evaluator.evaluate_full.calls": "count",
    "evaluator.evaluate_full.s": "s",
    "evaluator.record_rebuilds": "count",
    "evaluator.cache_hit_ratio": "ratio",
    "evaluator.delta_share": "ratio",
    "schedule.capture.calls": "count",
    "schedule.capture.s": "s",
    "schedule.plan_moves.s": "s",
    "schedule.delta_schedule.calls": "count",
    "schedule.delta_schedule.s": "s",
    "schedule.seal.calls": "count",
    "schedule.seal.s": "s",
    "schedule.cold_pass.calls": "count",
    "schedule.cold_pass.s": "s",
    "schedule.release_row.calls": "count",
    "schedule.analysis_place.calls": "count",
    "ttp.schedule_message.calls": "count",
    "sim.run_batch.calls": "count",
    "sim.run_batch.s": "s",
    "sim.check_batch.s": "s",
    "sim.validate_record.s": "s",
    "inject.build_context.s": "s",
    "inject.importance_scenarios.s": "s",
    "inject.plan_sweep.s": "s",
    "inject.counts_range.s": "s",
    "inject.sample_counts.s": "s",
    "inject.useful_ratio": "ratio",
    "inject.run_shard.calls": "count",
    "inject.run_shard.s": "s",
    "inject.fold.s": "s",
    "inject.tier.importance.scenarios": "count",
    "inject.tier.exhaustive.scenarios": "count",
    "inject.tier.stratified.scenarios": "count",
    **PRINTED_ONLY,
    "bench.trace_overhead_pct": "%",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the run's random draws")
    parser.add_argument("--case-seed", type=int, default=0,
                        help="problem instances (0 default, 1 held out)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="minimum length of the timed body")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for the traced run's files")
    return parser.parse_args(argv)


def geomean(values):
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def pass_wall(passes):
    """Wall seconds of one pass: the sum over its units of each unit's
    fastest time in the run.

    A unit (synthesis job or injection shard) does the same work in every
    pass, and load from elsewhere on the machine only ever slows it, so
    its fastest time is its least disturbed one (see NOTES.md).
    """
    return sum(min(times) for times in zip(*(p.unit_s for p in passes)))


def end_to_end(bench, setup_s, passes):
    """The end-to-end metrics and the printed-only ones."""
    designs = bench.designs(passes)
    wall_s = pass_wall(passes)
    search_s = sum(p.search_s for p in passes)
    aggregate = next(
        (p.aggregate for p in passes if p.aggregate is not None), None
    )
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "scenarios_per_s": passes[0].scenarios / wall_s if wall_s else 0.0,
        # No design at all means every job failed: the run reports 0 here
        # and ``correct: false``.
        "makespan_geomean": (
            geomean(m for m, _ in designs) if designs else 0.0
        ),
        "schedulable_frac": (
            sum(1 for _, s in designs if s) / len(designs) if designs else 0.0
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    extra = {
        "evaluations_per_s": (
            sum(p.evaluations for p in passes) / search_s if search_s else None
        ),
        "residual_upper_bound": (
            None if aggregate is None else aggregate.residual_upper_bound()
        ),
        "failed_frac": bench.tally.failed / max(1, bench.tally.attempted),
    }
    return metrics, extra


def time_body(bench, seconds, tracer=None, registry=None):
    """Repeat passes until ``seconds`` have passed.

    Untraced, every pass is plain.  With a tracer, passes alternate
    plain / wrapped (starting plain); the wrapped ones accumulate layer
    stats and registry counter deltas.
    """
    plain, traced = [], []
    layer_totals = {}
    counters = {}
    started = time.perf_counter()
    while True:
        enough = len(plain) >= MIN_PASSES and (
            tracer is None or len(traced) >= MIN_PASSES
        )
        if enough and time.perf_counter() - started >= seconds:
            break
        if tracer is None or len(plain) <= len(traced):
            plain.append(bench.run_pass())
            continue
        before = registry.snapshot()["counters"]
        tracer.install()
        try:
            traced.append(bench.run_pass(tracer))
        finally:
            tracer.uninstall()
        for key, value in registry.snapshot()["counters"].items():
            counters[key] = counters.get(key, 0.0) + value - before.get(
                key, 0.0
            )
        for key, stats in tracer.take().items():
            layer_totals.setdefault(key, type(stats)()).add(stats)
    return plain, traced, layer_totals, counters


def per_pass(setup_stats, body_stats, n_traced):
    """Layer name -> (calls, total s, self s): set-up work per repetition
    plus body work per wrapped pass."""
    rows = {}
    for stats, per in ((setup_stats, SETUP_REPS), (body_stats, n_traced)):
        for layer, s in stats.items():
            calls, total, self_s = rows.get(layer, (0.0, 0.0, 0.0))
            rows[layer] = (calls + s.calls / per, total + s.total_s / per,
                           self_s + s.self_s / per)
    return rows


def layer_metrics(bench, rows, plain, traced, counters):
    """Every per-layer metric of PER_LAYER."""
    values = {}
    for name in PER_LAYER:
        for suffix, column in ((".calls", 0), (".self_s", 2), (".s", 1)):
            if name.endswith(suffix):
                layer = name[:-len(suffix)]
                values[name] = rows.get(layer, (0.0, 0.0, 0.0))[column]
                break

    def counter(*names):
        return sum(counters.get(name, 0.0) for name in names) / len(traced)

    values["opt.iterations"] = counter("search.greedy.iterations",
                                       "search.tabu.iterations")
    values["search.moves_priced"] = counter("search.greedy.moves_priced",
                                            "search.tabu.moves_priced")
    values["evaluator.record_rebuilds"] = counter("evaluator.record_rebuilds")
    hits = counter("evaluator.cache_hits")
    exact = counter("evaluator.exact_evaluations")
    requests = hits + exact + counter("evaluator.ranked_evaluations")
    values["evaluator.cache_hit_ratio"] = hits / requests if requests else 0.0
    values["evaluator.delta_share"] = (
        counter("evaluator.delta_evaluations") / exact if exact else 0.0
    )
    for tier in ("importance", "exhaustive", "stratified"):
        values[f"inject.tier.{tier}.scenarios"] = counter(
            f"inject.tier.{tier}.scenarios"
        )
    aggregate = traced[0].aggregate
    values["inject.useful_ratio"] = (
        aggregate.scenarios / aggregate.draws
        if aggregate is not None and aggregate.draws else 0.0
    )
    _, extra = end_to_end(bench, 0.0, plain)
    values.update({name: value or 0.0 for name, value in extra.items()})
    values["bench.trace_overhead_pct"] = 100.0 * (
        pass_wall(traced) / pass_wall(plain) - 1.0
    )
    return values


def print_table(title, values, units):
    print(title)
    for name, value in values.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:34} {shown:>14} {units[name]}")


def print_layers(rows):
    from layers import HOT, TARGETS

    print(f"  {'layer':34} {'calls':>10} {'total_s':>10} {'self_s':>10}")
    for layer, *_ in TARGETS:
        calls, total, self_s = rows.get(layer, (0.0, 0.0, 0.0))
        if layer in HOT:
            print(f"  {layer:34} {calls:10.0f} {'(count)':>10} "
                  f"{'(count)':>10}")
        else:
            print(f"  {layer:34} {calls:10.0f} {total:10.4f} {self_s:10.4f}")


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no repro package under {SRC}; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from repro import obs

    import_s = time.perf_counter() - _STARTED
    bench = workloads.make_workload(args.workload, args.case_seed, args.seed)
    tracer = None
    if args.trace:
        from layers import LayerTracer

        tracer = LayerTracer(extra_modules=(workloads.__name__,))
        tracer.install()
    reps = []
    try:
        for _ in range(SETUP_REPS):
            started = time.perf_counter()
            bench.set_up()
            reps.append(time.perf_counter() - started)
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_stats = tracer.take() if tracer is not None else {}
    started = time.perf_counter()
    bench.warm_up()
    setup_s = import_s + statistics.median(reps) + (
        time.perf_counter() - started
    )

    plain, traced, body_stats, counters = time_body(
        bench, args.seconds, tracer, obs.get_registry()
    )
    bench.check(plain + traced)
    tally = bench.tally
    for error in tally.errors:
        print(f"FAILED: {error}", file=sys.stderr)
    title = (f"{args.workload}: case seed {args.case_seed}, seed "
             f"{args.seed}, {len(plain)} plain + {len(traced)} wrapped "
             f"pass(es), {tally.attempted} operations, {tally.failed} failed")
    if tracer is None:
        metrics, extra = end_to_end(bench, setup_s, plain)
        print_table(title, {**metrics, **extra},
                    {**END_TO_END, **PRINTED_ONLY})
        units = END_TO_END
    else:
        rows = per_pass(setup_stats, body_stats, len(traced))
        metrics = layer_metrics(bench, rows, plain, traced, counters)
        print(title)
        print_layers(rows)
        print_table("per-layer metrics", metrics, PER_LAYER)
        units = PER_LAYER
        if args.out is not None:
            tracer.write(args.out)
            (args.out / "registry.json").write_text(json.dumps({
                "wrapped_pass_counter_deltas": counters,
                "final": obs.get_registry().snapshot(),
            }, indent=1, sort_keys=True))
            (args.out / "layers.json").write_text(json.dumps({
                "workload": args.workload,
                "wrapped_passes": len(traced),
                "layers": {layer: dict(zip(("calls", "total_s", "self_s"),
                                           row))
                           for layer, row in rows.items()},
                "metrics": metrics,
            }, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
