#!/usr/bin/env python3
"""Fail CI when the evaluation or injection pipeline gets materially slower.

Compares freshly measured ``BENCH_*.json`` records against the baselines
committed at ``HEAD`` and exits non-zero when any gated metric dropped by
more than the allowed fraction (default 30% — generous enough that
shared-runner noise never trips it, tight enough that an accidental O(n)
regression in the delta kernel, the scheduler inner loop, or the
scenario simulator does).

Gated metrics (per file, dotted paths into the JSON record):

``BENCH_scheduler.json``
    * ``evaluations_per_sec`` — the headline delta-kernel throughput;
    * ``delta.speedup_vs_cold`` — the delta kernel's relative win over
      cold passes (guards against the *cold* path speeding up while the
      delta path silently rots, which the absolute headline alone would
      miss).

``BENCH_inject.json``
    * ``inject.scenarios_per_sec`` — fault-scenario simulation
      throughput of the sharded injection sweep (inline batched tier);
    * ``inject.batch.scenarios_per_sec`` — the same measurement under
      its explicit batch-tier name (guards against the sweep silently
      falling back to the scalar path).

On top of the drop-vs-baseline gates, a few metrics carry *absolute
ceilings* — smaller is better and the bound does not move with the
committed baseline:

``BENCH_scheduler.json``
    * ``obs.overhead_pct`` ≤ 15 — wall-clock cost of running the
      scaled-down strategy benchmark with ``--trace`` enabled, in
      percent over its untraced twin.  Guards against span writes or
      metric bookkeeping creeping into a per-evaluation hot loop (the
      intended instrumentation granularity is per phase/pass).

Usage (CI runs it right after the smoke benchmarks regenerate the
files)::

    python scripts/check_bench_regression.py [--root .]
        [--allowed-drop 0.30]

Baselines are read from ``git show HEAD:<file>`` so the working-tree
files can be the fresh measurements.  The gate is advisory
infrastructure, not physics: runs labelled ``perf-regression-expected``
skip the CI step entirely (see .github/workflows/ci.yml), a missing
baseline (first run, shallow clone without the file) passes with a
notice, and a metric or file absent from the committed baseline passes
with a notice (it was introduced by the PR under test).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

#: Per benchmark record, the dotted paths checked against the baseline.
GATED = (
    (
        "BENCH_scheduler.json",
        (
            "evaluations_per_sec",
            "delta.speedup_vs_cold",
        ),
    ),
    (
        "BENCH_inject.json",
        (
            "inject.scenarios_per_sec",
            "inject.batch.scenarios_per_sec",
        ),
    ),
)

#: Per benchmark record, (dotted path, inclusive ceiling) pairs gated
#: absolutely: the fresh measurement must not exceed the ceiling,
#: regardless of what the committed baseline says.
CEILINGS = (
    ("BENCH_scheduler.json", (("obs.overhead_pct", 15.0),)),
)


def lookup(record: dict, dotted: str) -> float | None:
    """Resolve a dotted path; ``None`` when any segment is missing."""
    node = record
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    try:
        return float(node)
    except (TypeError, ValueError):
        return None


def baseline_record(repo: Path, filename: str) -> dict | None:
    try:
        out = subprocess.run(
            ["git", "show", f"HEAD:{filename}"],
            capture_output=True,
            text=True,
            cwd=repo,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    try:
        return json.loads(out.stdout)
    except json.JSONDecodeError:
        return None


def check_file(
    root: Path, filename: str, metrics: tuple[str, ...], allowed_drop: float
) -> list[str]:
    """Gate one record; returns the metrics that regressed."""
    baseline = baseline_record(root, filename)
    current_path = root / filename
    if not current_path.exists():
        if baseline is None:
            print(f"perf gate: no fresh or committed {filename} — skipping")
            return []
        print(
            f"perf gate: {filename} committed at HEAD but not freshly "
            "measured — REGRESSION (the benchmark stopped running)"
        )
        return [f"{filename} missing"]
    current = json.loads(current_path.read_text())
    if baseline is None:
        print(
            f"perf gate: no committed baseline {filename} at HEAD — "
            "passing by default"
        )
        return []

    sha = baseline.get("stamp", {}).get("git_sha", "?")
    failures = []
    for metric in metrics:
        measured = lookup(current, metric)
        committed = lookup(baseline, metric)
        if measured is None:
            print(
                f"perf gate: {metric} missing from the fresh {filename} — "
                "REGRESSION (the benchmark stopped recording it)"
            )
            failures.append(metric)
            continue
        if committed is None:
            print(
                f"perf gate: {metric} not in the committed baseline — "
                "passing (introduced by this PR)"
            )
            continue
        if committed <= 0:
            print(
                f"perf gate: committed {metric} is non-positive — skipping"
            )
            continue
        floor = committed * (1.0 - allowed_drop)
        verdict = "OK" if measured >= floor else "REGRESSION"
        print(
            f"perf gate [{verdict}]: {metric} measured {measured:.2f} "
            f"vs committed {committed:.2f} "
            f"(floor {floor:.2f} = -{allowed_drop:.0%}; "
            f"baseline sha {sha})"
        )
        if measured < floor:
            failures.append(metric)
    return failures


def check_ceilings(
    root: Path, filename: str, bounds: tuple[tuple[str, float], ...]
) -> list[str]:
    """Gate absolute ceilings of one record; returns breached metrics."""
    current_path = root / filename
    if not current_path.exists():
        # The relative gate already decides whether a missing file is a
        # regression; ceilings only judge fresh measurements.
        return []
    current = json.loads(current_path.read_text())
    baseline = baseline_record(root, filename)
    failures = []
    for metric, ceiling in bounds:
        measured = lookup(current, metric)
        if measured is None:
            if baseline is not None and lookup(baseline, metric) is not None:
                print(
                    f"perf gate: {metric} missing from the fresh {filename} "
                    "— REGRESSION (the benchmark stopped recording it)"
                )
                failures.append(metric)
            else:
                print(
                    f"perf gate: {metric} not measured and not in the "
                    "committed baseline — skipping its ceiling"
                )
            continue
        verdict = "OK" if measured <= ceiling else "REGRESSION"
        print(
            f"perf gate [{verdict}]: {metric} measured {measured:.2f} "
            f"vs absolute ceiling {ceiling:.2f}"
        )
        if measured > ceiling:
            failures.append(metric)
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=Path,
        default=Path("."),
        help="directory holding the fresh BENCH_*.json records "
        "(default: current directory; must be inside the repository)",
    )
    parser.add_argument(
        "--allowed-drop",
        type=float,
        default=0.30,
        help="maximum tolerated fractional drop of any gated metric "
        "(default: 0.30)",
    )
    args = parser.parse_args(argv)

    root = args.root.resolve()
    failures: list[str] = []
    for filename, metrics in GATED:
        failures.extend(check_file(root, filename, metrics, args.allowed_drop))
    for filename, bounds in CEILINGS:
        failures.extend(check_ceilings(root, filename, bounds))

    if failures:
        print(
            "The pipeline regressed against the committed baseline "
            f"(more than {args.allowed_drop:.0%} slower, or over an "
            f"absolute ceiling) on: {', '.join(failures)}.\n"
            "If the slowdown is intended (heavier analysis, measurement "
            "environment change), either regenerate the committed "
            "BENCH_*.json on the PR or apply the "
            "'perf-regression-expected' label to skip this gate."
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
