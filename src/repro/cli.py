"""Command-line interface: regenerate the paper's tables and figures.

Examples
--------
Scaled-down laptop runs (defaults)::

    ftds table1a --seeds 3
    ftds figure10 --seeds 2
    ftds cc
    ftds validate --processes 20 --nodes 2 --k 3

Paper-scale runs (hours)::

    ftds table1a --seeds 15 --time-scale 20

Distributed runs over a shared broker file (see EXPERIMENTS.md)::

    ftds table1a --seeds 15 --time-scale 20 --broker /shared/q.db --jobs 4
    ftds worker --broker /shared/q.db          # attach from other machines
    ftds table1a --seeds 15 --time-scale 20 --broker /shared/q.db --resume
"""

from __future__ import annotations

import argparse
import sys

from repro import obs
from repro.errors import ConfigurationError, TraceError
from repro.experiments.cruise import run_cruise_experiment
from repro.experiments.figure10 import figure10
from repro.experiments.reporting import (
    format_cruise,
    format_figure10,
    format_table1,
)
from repro.experiments.runner import budget_for
from repro.experiments.table1 import table1a, table1b, table1c
from repro.gen.suite import generate_case


def _progress(line: str) -> None:
    print(f"  .. {line}", file=sys.stderr)


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {number}")
    return number


def _positive_float(value: str) -> float:
    number = float(value)
    if number <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {number}")
    return number


def _non_negative_int(value: str) -> int:
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {number}")
    return number


def _non_negative_float(value: str) -> float:
    number = float(value)
    if number < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {number}")
    return number


def _jobs_arg(value: str) -> int:
    """Parse ``--jobs``: a worker count >= 1, or -1 for all CPUs.

    Validation lives in :func:`repro.experiments.parallel.resolve_jobs`;
    its :class:`ConfigurationError` backs the argparse usage error, so the
    CLI and programmatic callers reject the same inputs with the same
    message.
    """
    from repro.experiments.parallel import resolve_jobs

    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None
    try:
        return resolve_jobs(number)
    except ConfigurationError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _add_trace(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help=(
            "write a structured JSONL run trace to FILE (spans, events, "
            "metrics snapshots); locally spawned workers write sibling "
            "shard files FILE.<worker>, stitched back together by "
            "'ftds trace summarize FILE'"
        ),
    )


def _add_case(
    parser: argparse.ArgumentParser, processes: int, k: int
) -> None:
    """The random-case options of the one-case commands."""
    parser.add_argument("--processes", type=_positive_int, default=processes)
    parser.add_argument("--nodes", type=_positive_int, default=2)
    parser.add_argument("--k", type=_non_negative_int, default=k)
    parser.add_argument("--mu", type=_non_negative_float, default=5.0)
    parser.add_argument("--seed", type=int, default=0)


def _add_common(parser: argparse.ArgumentParser) -> None:
    _add_trace(parser)
    parser.add_argument(
        "--seeds", type=_positive_int, default=3, help="random apps per row"
    )
    parser.add_argument(
        "--time-scale",
        type=_positive_float,
        default=1.0,
        help="multiply per-size search budgets (>=10 approaches paper scale)",
    )
    parser.add_argument(
        "--jobs",
        type=_jobs_arg,
        default=1,
        help=(
            "worker processes for the experiment sweep (1 = serial, -1 = "
            "all CPUs; results are aggregated in deterministic job order "
            "either way)"
        ),
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-case progress lines"
    )
    parser.add_argument(
        "--broker",
        default=None,
        metavar="PATH",
        help=(
            "drive the sweep through a durable SQLite work queue at PATH "
            "instead of a process pool; --jobs N local workers are "
            "attached, and more can join from other machines via "
            "'ftds worker --broker PATH' on a shared filesystem"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "with --broker: continue a partial sweep, decoding results of "
            "already-completed jobs from the broker instead of re-running "
            "them"
        ),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ftds",
        description=(
            "Fault-tolerant distributed embedded system design optimization "
            "(reproduction of Izosimov et al., DATE 2005)"
        ),
        epilog=(
            "The table1a/b/c and figure10 sweeps accept --jobs N to fan the "
            "independent (case, variant, seed) optimizations out over N "
            "worker processes; --jobs 1 (the default) runs serially.  Both "
            "paths aggregate results in the same deterministic job order, "
            "so the printed tables are identical (time-limited searches are "
            "identical as long as the wall-clock budget is not the binding "
            "constraint; see EXPERIMENTS.md)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("table1a", "overhead vs application size (Table 1a)"),
        ("table1b", "overhead vs number of faults (Table 1b)"),
        ("table1c", "overhead vs fault duration (Table 1c)"),
        ("figure10", "MX/MR/SFX deviation from MXR (Figure 10)"),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        _add_common(sub)

    cc = subparsers.add_parser(
        "cc", help="cruise controller experiment (paper §6)"
    )
    _add_trace(cc)

    worker = subparsers.add_parser(
        "worker",
        help="run a work-queue consumer daemon against a broker file",
    )
    worker.add_argument(
        "--broker", required=True, metavar="PATH", help="SQLite broker file"
    )
    _add_trace(worker)
    worker.add_argument(
        "--trace-run",
        default=None,
        metavar="RUN_ID",
        help=(
            "with --trace: join an existing trace run id (printed by the "
            "driver) so this worker's shard stitches into the driver's "
            "trace; defaults to the FTDS_TRACE_RUN environment variable "
            "or a fresh id"
        ),
    )
    worker.add_argument(
        "--lease",
        type=_positive_float,
        default=None,
        help="lease seconds per job (default: queue default)",
    )
    worker.add_argument(
        "--max-jobs",
        type=_positive_int,
        default=None,
        help="exit after acking this many jobs",
    )
    worker.add_argument(
        "--drain",
        action="store_true",
        help="exit when the queue is fully processed instead of polling",
    )
    worker.add_argument(
        "--validate-samples",
        type=_non_negative_int,
        default=None,
        help=(
            "fault-injection samples per schedule before acking "
            "(0 disables validation; default: queue default)"
        ),
    )
    worker.add_argument(
        "--quiet", action="store_true", help="suppress per-job ack lines"
    )

    inject = subparsers.add_parser(
        "inject",
        help=(
            "sharded fault-injection sweep over the <=k scenario space of "
            "one optimized schedule (exhaustive / stratified / importance "
            "tiers, streaming coverage bounds)"
        ),
    )
    _add_case(inject, processes=12, k=2)
    inject.add_argument(
        "--initial",
        action="store_true",
        help=(
            "inject the initial MPA schedule instead of optimizing first "
            "(fast; used by CI smoke and benchmarks)"
        ),
    )
    inject.add_argument(
        "--budget",
        type=_positive_int,
        default=100_000,
        help="total scenario budget across all tiers (default 100000)",
    )
    inject.add_argument(
        "--shard-size",
        type=_positive_int,
        default=2000,
        help="scenarios per shard (default 2000)",
    )
    inject.add_argument(
        "--tier",
        choices=("auto", "exhaustive", "stratified", "importance"),
        default="auto",
        help=(
            "coverage tier: auto enumerates when the space fits the budget "
            "and falls back to stratified sampling otherwise"
        ),
    )
    inject.add_argument(
        "--sweep-seed",
        type=_non_negative_int,
        default=0,
        help="master seed of the stratified draws (default 0)",
    )
    inject.add_argument(
        "--alpha",
        type=_positive_float,
        default=0.05,
        help="Clopper-Pearson significance (bound confidence = 1 - alpha)",
    )
    inject.add_argument(
        "--jobs",
        type=_jobs_arg,
        default=1,
        help=(
            "local worker processes when driving through --broker "
            "(without --broker only 1 is accepted)"
        ),
    )
    inject.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the aggregate summary as JSON to PATH",
    )
    inject.add_argument(
        "--broker",
        default=None,
        metavar="PATH",
        help=(
            "drive shards through a durable SQLite work queue at PATH; "
            "'ftds worker --broker PATH' daemons on other machines lease "
            "and execute them next to optimizer jobs"
        ),
    )
    inject.add_argument(
        "--resume",
        action="store_true",
        help=(
            "with --broker: continue a partial sweep, folding results of "
            "already-completed shards from the broker instead of "
            "re-simulating them"
        ),
    )
    inject.add_argument(
        "--quiet", action="store_true", help="suppress per-shard progress lines"
    )
    _add_trace(inject)

    trace = subparsers.add_parser(
        "trace",
        help=(
            "analyze JSONL run traces written with --trace: stitch "
            "multi-worker shards by run id and profile the span tree"
        ),
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    for name, help_text in (
        ("summarize", "span tree, self-time profile, queue overhead, "
                      "cache/tier effectiveness"),
        ("top", "top span names by self time"),
        ("export", "merged metrics as Prometheus text or the full summary "
                   "as JSON"),
    ):
        sub = trace_sub.add_parser(name, help=help_text)
        sub.add_argument(
            "files",
            nargs="+",
            metavar="FILE",
            help=(
                "trace file(s); worker shard files FILE.<worker> next to "
                "a listed file are discovered automatically"
            ),
        )
        sub.add_argument(
            "--run",
            default=None,
            metavar="RUN_ID",
            help="select one run when the files contain several",
        )
    trace_sub.choices["summarize"].add_argument(
        "--depth",
        type=_positive_int,
        default=4,
        help="span tree depth to print (default 4)",
    )
    trace_sub.choices["summarize"].add_argument(
        "--json",
        action="store_true",
        help="emit the summary as JSON instead of text",
    )
    trace_sub.choices["top"].add_argument(
        "--limit",
        type=_positive_int,
        default=10,
        help="span names to list (default 10)",
    )
    trace_sub.choices["export"].add_argument(
        "--format",
        choices=("prometheus", "json"),
        default="prometheus",
        help="export format (default prometheus)",
    )

    validate = subparsers.add_parser(
        "validate", help="optimize one random case and fault-inject the schedule"
    )
    _add_case(validate, processes=20, k=3)
    validate.add_argument("--samples", type=_non_negative_int, default=200)
    _add_trace(validate)

    gantt = subparsers.add_parser(
        "gantt", help="optimize one random case and render the schedule"
    )
    _add_case(gantt, processes=12, k=2)
    gantt.add_argument("--width", type=int, default=80)
    _add_trace(gantt)

    export = subparsers.add_parser(
        "export", help="optimize one random case and write problem+solution JSON"
    )
    export.add_argument("output", help="path of the JSON file to write")
    _add_case(export, processes=12, k=2)
    _add_trace(export)

    args = parser.parse_args(argv)
    progress = None if getattr(args, "quiet", True) else _progress

    if args.command == "trace":
        return _run_trace(args, parser)
    if args.command == "worker":
        return _run_worker(args)

    trace_path = getattr(args, "trace", None)
    if trace_path:
        tracer = obs.enable_tracing(
            trace_path, label=args.command, export_env=True
        )
        print(f"tracing to {trace_path} (run {tracer.run_id})",
              file=sys.stderr)
    try:
        with obs.span(f"cli.{args.command}"):
            return _dispatch(args, parser, progress)
    finally:
        if trace_path:
            obs.snapshot_metrics()
            obs.disable_tracing()


def _dispatch(args: argparse.Namespace, parser, progress) -> int:
    """Execute one non-trace subcommand (span-wrapped by :func:`main`)."""
    sweeps = {"table1a": table1a, "table1b": table1b, "table1c": table1c,
              "figure10": figure10}
    if args.command in sweeps:
        if args.resume and args.broker is None:
            parser.error("--resume requires --broker")
        broker = None
        if args.broker is not None:
            from repro.queue.sqlite import SqliteBroker

            broker = SqliteBroker(args.broker)
        seeds = tuple(range(args.seeds))
        try:
            rows = sweeps[args.command](
                seeds=seeds, time_scale=args.time_scale, progress=progress,
                jobs=args.jobs, broker=broker, resume=args.resume,
            )
        finally:
            if broker is not None:
                broker.close()
        if args.command == "figure10":
            print(format_figure10(rows))
        else:
            titles = {
                "table1a": "Table 1a: MXR overhead vs application size",
                "table1b": "Table 1b: MXR overhead vs number of faults",
                "table1c": "Table 1c: MXR overhead vs fault duration",
            }
            print(format_table1(rows, titles[args.command]))
    elif args.command == "cc":
        print(format_cruise(run_cruise_experiment()))
    elif args.command == "inject":
        return _run_inject(args, parser, progress)
    elif args.command == "validate":
        _run_validate(args)
    elif args.command == "gantt":
        _run_gantt(args)
    elif args.command == "export":
        _run_export(args)
    return 0


def _run_worker(args: argparse.Namespace) -> int:
    import os

    from repro.queue.sqlite import SqliteBroker
    from repro.queue.worker import (
        DEFAULT_LEASE_S,
        DEFAULT_VALIDATE_SAMPLES,
        Worker,
        default_worker_id,
    )

    validate_samples: int | None = DEFAULT_VALIDATE_SAMPLES
    if args.validate_samples is not None:
        validate_samples = args.validate_samples or None  # 0 disables
    worker_id = default_worker_id()
    tracer = None
    if args.trace:
        # A remote worker stitches into the driver's trace by sharing its
        # run id (--trace-run, printed by a tracing driver); the shard file
        # is local to this machine and is merged at analysis time.
        run_id = args.trace_run or os.environ.get(obs.TRACE_RUN_ENV) or None
        tracer = obs.enable_tracing(args.trace, run_id=run_id, worker=worker_id)
    else:
        tracer = obs.adopt_env_tracing(worker_id)
    broker = SqliteBroker(args.broker)
    try:
        worker = Worker(
            broker,
            worker_id=worker_id,
            lease_s=args.lease if args.lease is not None else DEFAULT_LEASE_S,
            validate_samples=validate_samples,
            progress=None if args.quiet else _progress,
        )
        acked = worker.run(drain=args.drain, max_jobs=args.max_jobs)
    finally:
        broker.close()
        if tracer is not None:
            tracer.snapshot_metrics()
            obs.disable_tracing()
    print(f"worker {worker.worker_id}: acked {acked} job(s), "
          f"{worker.failed} failure(s)")
    return 0


def _run_trace(args: argparse.Namespace, parser) -> int:
    import json as json_module

    from repro.obs.analyze import (
        format_summary,
        format_top,
        load_run,
        summarize,
    )

    try:
        run = load_run(args.files, run_id=args.run)
        if args.trace_command == "summarize":
            if args.json:
                print(json_module.dumps(
                    summarize(run), indent=2, sort_keys=True
                ))
            else:
                print(format_summary(run, depth=args.depth))
        elif args.trace_command == "top":
            print(format_top(run, limit=args.limit))
        else:  # export
            if args.format == "prometheus":
                print(obs.render_prometheus(run.metrics), end="")
            else:
                print(json_module.dumps(
                    summarize(run), indent=2, sort_keys=True
                ))
    except TraceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe: normal CLI etiquette.
        sys.stderr.close()
        return 0
    return 0


def _run_inject(args: argparse.Namespace, parser, progress) -> int:
    import json as json_module

    from repro.experiments.reporting import format_inject
    from repro.inject.driver import run_inject_sweep
    from repro.inject.plan import plan_sweep
    from repro.inject.target import (
        InjectTarget,
        cached_context,
        target_from_optimization,
    )

    if args.resume and args.broker is None:
        parser.error("--resume requires --broker")
    if args.jobs != 1 and args.broker is None:
        parser.error("--jobs N requires --broker")

    with obs.span("target"):
        case = generate_case(
            args.processes, args.nodes, args.k, mu=args.mu, seed=args.seed
        )
        if args.initial:
            from repro.model.merge import merge_application
            from repro.opt.initial import initial_bus_access, initial_mpa
            from repro.schedule.list_scheduler import list_schedule

            merged = merge_application(case.application)
            bus = initial_bus_access(case.application, case.architecture)
            implementation = initial_mpa(
                merged, case.architecture, case.faults, bus
            )
            schedule = list_schedule(
                merged, case.faults, implementation.policies,
                implementation.mapping, bus,
            )
            target = InjectTarget(
                application=case.application,
                faults=case.faults,
                implementation=implementation,
                record=schedule.record,
                label=f"initial-{args.processes}p{args.nodes}n-k{args.k}",
            )
        else:
            from repro.opt.strategy import optimize

            config = budget_for(args.processes)
            result = optimize(
                case.application, case.architecture, case.faults, "MXR",
                config,
            )
            target = target_from_optimization(result, case.application)

    with obs.span("plan") as sp:
        # The cached context is the one the inline shards replay against,
        # so its space and importance list are derived once per run.
        context = cached_context(target.fingerprint(), target.build_context)
        plan = plan_sweep(
            context.space,
            len(context.importance),
            budget=args.budget,
            shard_size=args.shard_size,
            seed=args.sweep_seed,
            tier=args.tier,
        )
        sp.set(shards=len(plan.shards))
    print(f"target {target.label}: {plan.describe()}")

    broker = None
    if args.broker is not None:
        from repro.queue.sqlite import SqliteBroker

        broker = SqliteBroker(args.broker)
    try:
        with obs.span("sweep", broker=args.broker or "inline"):
            aggregate, stats = run_inject_sweep(
                target,
                plan,
                broker=broker,
                resume=args.resume,
                local_workers=args.jobs if broker is not None else 0,
                alpha=args.alpha,
                progress=progress,
            )
    finally:
        if broker is not None:
            broker.close()

    with obs.span("report"):
        summary = aggregate.to_dict()
        if args.json is not None:
            registry = obs.get_registry()
            # Observability sidecar: registry-backed counts next to (never
            # inside) the canonical aggregate — the wire/parity surface of
            # InjectAggregate.to_dict() stays byte-identical.
            payload = dict(summary)
            payload["obs"] = {
                "shards_folded": registry.value("inject.shards_folded"),
                "queue_dead_letters": registry.value("queue.depth.dead"),
                "evaluator_cache_hits": registry.value(
                    "evaluator.cache_hits"
                ),
                "evaluator_evaluations": registry.value(
                    "evaluator.exact_evaluations"
                ),
            }
            with open(args.json, "w") as handle:
                json_module.dump(payload, handle, indent=2, sort_keys=True)
            print(f"wrote {args.json}")
        print(stats.summary())
        print(format_inject(summary))
    return 0 if summary["ok"] else 1


def _optimize_random_case(args):
    from repro.opt.strategy import optimize

    case = generate_case(
        args.processes, args.nodes, args.k, mu=args.mu, seed=args.seed
    )
    config = budget_for(args.processes)
    result = optimize(
        case.application, case.architecture, case.faults, "MXR", config
    )
    return case, result


def _run_gantt(args) -> None:
    from repro.schedule.gantt import GanttOptions, render_gantt

    _, result = _optimize_random_case(args)
    print(render_gantt(result.schedule, GanttOptions(width=args.width)))


def _run_export(args) -> None:
    from repro.io.json_codec import save_case

    case, result = _optimize_random_case(args)
    save_case(
        args.output,
        case.application,
        case.architecture,
        case.faults,
        result.implementation,
    )
    print(
        f"wrote {args.output}: {args.processes} processes on {args.nodes} "
        f"nodes, schedule length {result.makespan:.1f} ms"
    )


def _run_validate(args: argparse.Namespace) -> None:
    from repro.sim.validate import validate_schedule

    _, result = _optimize_random_case(args)
    print(
        f"optimized {args.processes}p/{args.nodes}n k={args.k}: "
        f"schedule length {result.makespan:.1f} ms"
    )
    report = validate_schedule(result.schedule, samples=args.samples)
    print(f"fault injection: {report.summary()}")
    for violation in report.violations[:10]:
        print(f"  !! {violation}")


if __name__ == "__main__":
    sys.exit(main())
