"""Stitching multi-worker shards by run_id and profiling the span tree."""

from __future__ import annotations

import time

import pytest

from repro import obs
from repro.errors import TraceError
from repro.obs.analyze import (
    attribution,
    available_runs,
    effectiveness,
    format_summary,
    format_top,
    load_run,
    queue_overhead,
    summarize,
    time_by_name,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable_tracing()
    obs.reset_metrics()
    yield
    obs.disable_tracing()
    obs.reset_metrics()


def _sleep():
    time.sleep(0.002)


@pytest.fixture
def sweep_trace(tmp_path):
    """A driver file plus two worker shards sharing one run_id.

    Mirrors what ``ftds inject --broker --jobs 2 --trace`` writes: the
    driver's ``cli.inject`` root wrapping named phases, and per-worker
    ``job`` roots whose children are the traced payload work.
    """
    base = tmp_path / "sweep.jsonl"
    driver = Tracer(str(base), worker="driver", label="inject")
    run_id = driver.run_id
    with driver.span("cli.inject"):
        with driver.span("plan"):
            _sleep()
        with driver.span("sweep", broker="sqlite"):
            for worker_id in ("w0", "w1"):
                registry = MetricsRegistry()
                shard = Tracer(
                    obs.worker_trace_path(str(base), worker_id),
                    run_id=run_id,
                    worker=worker_id,
                )
                with shard.span("job", fingerprint="abc") as sp:
                    with shard.span("shard", tier="exhaustive"):
                        _sleep()
                    sp.set(outcome="ack")
                registry.inc("queue.leases")
                registry.inc("queue.acks")
                registry.inc("inject.tier.exhaustive.scenarios", 40)
                registry.inc("inject.tier.exhaustive.elapsed_s", 0.5)
                shard.snapshot_metrics(registry)
                shard.close()
    registry = MetricsRegistry()
    registry.inc("evaluator.cache_hits", 30)
    registry.inc("evaluator.exact_evaluations", 70)
    registry.set("queue.depth.dead", 0)
    driver.snapshot_metrics(registry)
    driver.close()
    return base, run_id


class TestStitching:
    def test_one_path_expands_to_all_shards_of_the_run(self, sweep_trace):
        base, run_id = sweep_trace
        run = load_run([str(base)])
        assert run.run_id == run_id
        assert len(run.files) == 3
        assert sorted(run.workers) == ["driver", "w0", "w1"]
        # One driver root; the worker job roots are separate trees.
        assert [root.name for root in run.roots] == ["cli.inject", "job", "job"]
        assert {root.worker for root in run.roots} == {"driver", "w0", "w1"}

    def test_span_ids_are_qualified_per_file(self, sweep_trace):
        # Driver and workers all start ids at 1; stitching must not
        # cross-link a worker's span under the driver's same-numbered one.
        base, _ = sweep_trace
        run = load_run([str(base)])
        for root in run.roots:
            for node in root.children:
                assert node.worker == root.worker

    def test_nesting_preserved_within_each_worker(self, sweep_trace):
        base, _ = sweep_trace
        run = load_run([str(base)])
        cli = run.roots[0]
        assert [child.name for child in cli.children] == ["plan", "sweep"]
        for job in run.roots[1:]:
            assert [child.name for child in job.children] == ["shard"]
            assert job.attrs["outcome"] == "ack"

    def test_metrics_merged_across_workers(self, sweep_trace):
        base, _ = sweep_trace
        run = load_run([str(base)])
        counters = run.metrics["counters"]
        # Counters sum across the two workers and the driver.
        assert counters["queue.acks"] == 2.0
        assert counters["inject.tier.exhaustive.scenarios"] == 80.0
        assert counters["evaluator.cache_hits"] == 30.0

    def test_multiple_runs_require_explicit_run_id(self, tmp_path):
        path = tmp_path / "t.jsonl"
        for _ in range(2):
            tracer = Tracer(str(path))
            with tracer.span("root"):
                pass
            tracer.close()
        with pytest.raises(TraceError, match="2 runs"):
            load_run([str(path)])
        runs = available_runs([str(path)])
        assert len(runs) == 2
        chosen = sorted(runs)[0]
        assert load_run([str(path)], run_id=chosen).run_id == chosen

    def test_unknown_run_id_rejected_with_candidates(self, sweep_trace):
        base, run_id = sweep_trace
        with pytest.raises(TraceError, match=run_id):
            load_run([str(base)], run_id="nope")

    def test_empty_file_set_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(TraceError, match="no trace events"):
            load_run([str(path)])


class TestProfiling:
    def test_time_by_name_aggregates_and_sorts_by_self_time(self, sweep_trace):
        base, _ = sweep_trace
        run = load_run([str(base)])
        rows = {row["name"]: row for row in time_by_name(run)}
        assert rows["job"]["count"] == 2
        assert rows["shard"]["count"] == 2
        # A job's self time excludes its shard child.
        assert rows["job"]["self_s"] < rows["job"]["total_s"]
        ordering = [row["self_s"] for row in time_by_name(run)]
        assert ordering == sorted(ordering, reverse=True)

    def test_attribution_anchors_on_cli_root(self, sweep_trace):
        base, _ = sweep_trace
        run = load_run([str(base)])
        att = attribution(run)
        # Only the driver's cli.* root counts as wall clock; the worker
        # job roots overlap it and would double-count.
        assert att["roots"] == 1
        assert att["wall_s"] == pytest.approx(run.roots[0].dur)
        assert 0.0 < att["attributed_pct"] <= 100.0

    def test_attribution_falls_back_to_all_roots(self, tmp_path):
        path = tmp_path / "lib.jsonl"
        tracer = Tracer(str(path))
        with tracer.span("optimize"):
            with tracer.span("greedy"):
                _sleep()
        tracer.close()
        att = attribution(load_run([str(path)]))
        assert att["roots"] == 1
        assert att["attributed_pct"] > 0.0

    def test_queue_overhead_is_job_self_time(self, sweep_trace):
        base, _ = sweep_trace
        run = load_run([str(base)])
        queue = queue_overhead(run)
        assert queue["jobs"] == 2
        assert 0.0 <= queue["overhead_s"] < queue["total_s"]
        assert queue["overhead_per_job_s"] == pytest.approx(
            queue["overhead_s"] / 2
        )

    def test_effectiveness_reads_merged_registry(self, sweep_trace):
        base, _ = sweep_trace
        run = load_run([str(base)])
        eff = effectiveness(run)
        assert eff["evaluator"]["requests"] == 100.0
        assert eff["evaluator"]["cache_hit_rate"] == pytest.approx(0.3)
        assert eff["broker"]["leases"] == 2.0
        assert eff["broker"]["acks"] == 2.0
        assert eff["broker"]["dead_letters"] == 0.0
        exhaustive = eff["inject_tiers"]["exhaustive"]
        assert exhaustive["scenarios"] == 80.0
        assert exhaustive["scenarios_per_sec"] == pytest.approx(80.0)


class TestRendering:
    def test_summarize_is_json_safe_and_complete(self, sweep_trace):
        base, run_id = sweep_trace
        import json

        summary = summarize(load_run([str(base)]))
        json.dumps(summary)  # must not raise
        assert summary["run"] == run_id
        assert summary["workers"] == ["driver", "w0", "w1"]
        assert summary["spans"] == 7

    def test_format_summary_mentions_the_headline_numbers(self, sweep_trace):
        base, run_id = sweep_trace
        text = format_summary(load_run([str(base)]))
        assert run_id in text
        assert "3 shard file(s), 3 worker(s)" in text
        assert "attributed to named spans" in text
        assert "cli.inject" in text
        assert "cache hits" in text
        assert "inject[exhaustive]" in text
        assert "2 leases" in text

    def test_format_top_ranks_by_self_time(self, sweep_trace):
        base, _ = sweep_trace
        text = format_top(load_run([str(base)]), limit=3)
        assert "top 3 span name(s)" in text
        assert text.count("\n") == 3
