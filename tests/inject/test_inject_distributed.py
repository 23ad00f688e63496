"""Distributed injection sweeps: SQLite broker, worker loss, resume, CLI.

The headline scenario mirrors ``tests/queue/test_distributed_smoke.py``
for shards instead of optimizer jobs: a worker dies mid-sweep while
holding a lease, and ``--resume`` completes the sweep folding already-
acked shards from their checkpoints — never re-simulating them — into an
aggregate identical to an uninterrupted inline run.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.inject.driver import enqueue_shards, run_inject_sweep
from repro.inject.importance import importance_scenarios
from repro.inject.plan import plan_sweep
from repro.inject.space import ScenarioSpace
from repro.queue.sqlite import SqliteBroker
from repro.queue.worker import DEFAULT_VALIDATE_SAMPLES, Worker


def exhaustive_plan(target, shard_size=16):
    context = target.build_context()
    space = ScenarioSpace.of(context.ft, target.faults.k)
    ranked = importance_scenarios(target.record, context.ft, target.faults.k)
    return plan_sweep(space, len(ranked), budget=10_000, shard_size=shard_size)


def test_killed_worker_then_resume_matches_uninterrupted(
    tmp_path, small_target
):
    path = str(tmp_path / "inject.db")
    plan = exhaustive_plan(small_target)
    assert len(plan.shards) >= 4  # enough left for the victim to orphan one

    broker = SqliteBroker(path)
    sweep = enqueue_shards(small_target, plan, broker)
    assert sweep.stats.enqueued == len(plan.shards)

    # A worker acks exactly two shards, leases a third and dies without
    # acking, nacking or cleaning up — a machine loss.  The fork start
    # method lets the victim live in this test instead of prod code.
    def victim_main() -> None:
        import os

        victim_broker = SqliteBroker(path)
        Worker(
            victim_broker, worker_id="victim", lease_s=8.0,
            poll_interval_s=0.01,
        ).run(max_jobs=2)
        assert victim_broker.lease("victim", 8.0) is not None
        os._exit(1)  # hard crash while holding the lease

    context = multiprocessing.get_context("fork")
    victim = context.Process(target=victim_main, daemon=True)
    victim.start()
    victim.join(timeout=120.0)
    assert victim.exitcode == 1

    assert broker.pending().done == 2
    assert broker.pending().leased == 1  # the orphaned lease
    done_fingerprints = [
        fp for fp in sweep.fingerprints if broker.state(fp) == "done"
    ]
    broker.close()

    # Resume with fresh workers: done shards fold from their checkpoints,
    # the victim's lease lapses (8 s) and its shard is redelivered.
    resumed = SqliteBroker(path)
    try:
        aggregate, stats = run_inject_sweep(
            small_target, plan, broker=resumed, resume=True,
            local_workers=2, lease_s=30.0, timeout_s=240.0,
        )
        assert stats.checkpoint_hits == len(done_fingerprints) == 2
        assert stats.completed == len(plan.shards)
        # Acked shards were never re-simulated: still exactly one delivery.
        for fingerprint in done_fingerprints:
            assert resumed.attempts(fingerprint) == 1
    finally:
        resumed.close()

    # The resumed sweep's workers replayed through the batched kernel;
    # it must fold to the same aggregate as an uninterrupted inline run
    # on the *scalar* reference path (batch_size=0) — the cross-path,
    # cross-process byte-equality contract of the batch tier.
    inline, inline_stats = run_inject_sweep(small_target, plan, batch_size=0)
    assert inline_stats.completed == len(plan.shards)
    resumed_summary = aggregate.to_dict()
    inline_summary = inline.to_dict()
    for summary in (resumed_summary, inline_summary):
        summary.pop("elapsed_s")
        summary.pop("scenarios_per_sec")
        summary.pop("phase_s")
    assert resumed_summary == inline_summary


def test_dead_lettered_shard_is_reported_instead_of_hanging(small_target):
    """A shard past the importance list fails on every delivery; the
    shared driver raises with the shard's coordinates, not a hang."""
    from repro.errors import QueueError
    from repro.inject.partition import TIER_IMPORTANCE, ShardSpec
    from repro.queue.memory import MemoryBroker

    plan = exhaustive_plan(small_target)
    plan.shards.append(
        ShardSpec(TIER_IMPORTANCE, 0, None, 10_000, 10_001, 1, 0)
    )
    with pytest.raises(QueueError) as excinfo:
        run_inject_sweep(
            small_target, plan, broker=MemoryBroker(), local_workers=1,
            max_attempts=1, timeout_s=120.0,
        )
    message = str(excinfo.value)
    assert "dead-lettered" in message
    assert "importance[10000:10001]" in message
    assert "SimulationError" in message


def test_enqueue_refuses_foreign_broker_without_resume(tmp_path, small_target):
    from repro.errors import ConfigurationError

    path = str(tmp_path / "busy.db")
    broker = SqliteBroker(path)
    try:
        broker.enqueue("unrelated", '{"kind": "other"}', 3)
        with pytest.raises(ConfigurationError, match="resume"):
            enqueue_shards(small_target, exhaustive_plan(small_target), broker)
        # Even with resume, shards of a *different* sweep abort the drive
        # before anything is enqueued next to them.
        with pytest.raises(ConfigurationError, match="orphan|not part"):
            enqueue_shards(
                small_target, exhaustive_plan(small_target), broker,
                resume=True,
            )
        assert broker.pending().total == 1  # nothing was enqueued
    finally:
        broker.close()


def test_cli_inject_smoke_writes_summary(tmp_path, capsys):
    """`ftds inject --initial` end to end: exit code gates on `ok`."""
    import json

    from repro.cli import main

    out = tmp_path / "inject.json"
    code = main([
        "inject", "--initial", "--processes", "8", "--nodes", "2",
        "--k", "2", "--seed", "0", "--budget", "5000",
        "--shard-size", "64", "--json", str(out),
    ])
    captured = capsys.readouterr().out
    summary = json.loads(out.read_text())
    assert code == (0 if summary["ok"] else 1)
    assert summary["complete"] is True
    assert "Fault injection:" in captured


def test_cli_inject_resume_requires_broker(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(["inject", "--resume"])
    assert excinfo.value.code == 2
    assert "--resume requires --broker" in capsys.readouterr().err


def test_cli_inject_jobs_requires_broker(capsys):
    """`--jobs N` fans out only through a broker; inline it is an error."""
    from repro.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(["inject", "--jobs", "2"])
    assert excinfo.value.code == 2
    assert "--jobs N requires --broker" in capsys.readouterr().err


def test_cli_worker_validate_samples_plumbing(tmp_path, monkeypatch):
    """`--validate-samples` reaches the Worker: 0 disables, N overrides."""
    import repro.queue.worker as worker_module
    from repro.cli import main

    captured: list[int | None] = []

    class Probe(Worker):
        def __init__(self, broker, **kwargs):
            captured.append(kwargs.get("validate_samples"))
            super().__init__(broker, **kwargs)

    monkeypatch.setattr(worker_module, "Worker", Probe)
    path = str(tmp_path / "empty.db")
    for arguments, expected in (
        ([], DEFAULT_VALIDATE_SAMPLES),
        (["--validate-samples", "0"], None),
        (["--validate-samples", "7"], 7),
    ):
        code = main(
            ["worker", "--broker", path, "--drain", "--quiet"] + arguments
        )
        assert code == 0
        assert captured[-1] == expected
    assert len(captured) == 3
