"""The library's only third-party runtime dependency is numpy.

networkx serves the test suite as an independent oracle; the package
itself must import and optimize with it absent.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")

_WITHOUT_NETWORKX = """
import sys

sys.modules["networkx"] = None  # any ``import networkx`` now fails

import repro
import repro.cli
import repro.experiments
import repro.inject.driver
import repro.queue.worker
from repro.gen.suite import generate_case
from repro.opt.strategy import OptimizationConfig, optimize

case = generate_case(8, 2, 2, seed=0)
result = optimize(
    case.application, case.architecture, case.faults, "MXR",
    OptimizationConfig(rounds=1),
)
print(result.makespan)
"""


def test_library_runs_without_networkx():
    done = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NETWORKX],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": REPO_SRC},
    )
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) > 0
