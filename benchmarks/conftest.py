"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper and prints the
rows next to the paper's reference values, so ``pytest benchmarks/
--benchmark-only`` doubles as the reproduction record (see EXPERIMENTS.md).

Scale knobs (environment variables):

``REPRO_BENCH_SEEDS``      random applications per dimension (default 2;
                           paper used 15)
``REPRO_BENCH_TIME_SCALE`` multiplier on the per-size search budgets
                           (default 0.3; >= 10 approaches paper scale)
``REPRO_BENCH_RECORD``     ``1`` writes the tracked ``BENCH_*.json``
                           records; unset, the benchmarks measure and
                           assert but leave the tree clean
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

import pytest


def bench_seeds(default: int = 2) -> tuple[int, ...]:
    return tuple(range(int(os.environ.get("REPRO_BENCH_SEEDS", default))))


def bench_time_scale(default: float = 0.3) -> float:
    return float(os.environ.get("REPRO_BENCH_TIME_SCALE", default))


@pytest.fixture
def seeds() -> tuple[int, ...]:
    return bench_seeds()


@pytest.fixture
def time_scale() -> float:
    return bench_time_scale()


def bench_stamp() -> dict:
    """Provenance stamp for the ``BENCH_*.json`` artifacts.

    Records where a number came from, so a regression diff can distinguish
    "the code got slower" from "it was measured on a different machine /
    interpreter / commit".  The git SHA is ``None`` when the repository
    metadata is unavailable (e.g. a source tarball).
    """
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            cwd=Path(__file__).resolve().parent,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    import numpy

    return {
        "git_sha": sha,
        "generated_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def write_bench_record(path: Path, record: dict) -> None:
    """Write one ``BENCH_*.json`` record, only under ``REPRO_BENCH_RECORD=1``.

    The committed records are the baselines
    ``scripts/check_bench_regression.py`` gates against, so a plain test
    run must not rewrite them; CI's smoke benchmarks and deliberate
    re-recordings set the variable.
    """
    if os.environ.get("REPRO_BENCH_RECORD") == "1":
        path.write_text(json.dumps(record, indent=2) + "\n")


def print_block(title: str, body: str) -> None:
    """Emit a result block on the *real* stdout.

    pytest captures ``sys.stdout`` unless ``-s`` is given; the regenerated
    paper tables are the point of this harness, so they are written to the
    unbuffered original stream and always reach the console / tee file.
    """
    bar = "=" * 72
    stream = sys.__stdout__ or sys.stdout
    stream.write(f"\n{bar}\n{title}\n{bar}\n{body}\n\n")
    stream.flush()
