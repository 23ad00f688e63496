"""Traced run of every workload: per-layer tables, spans and registry counters.

Run from the repository root::

    python3 e2ebench/trace_all.py --out /tmp/e2e-trace

Each workload runs ``run.py --trace 1`` in its own process, one after
the other, with ``--out OUT/<workload>``: the per-layer table and
metrics (``bench.trace_overhead_pct`` among them) are printed, and
``spans.jsonl``, ``registry.json`` and ``layers.json`` are written there.
The exit code is 1 if any workload failed its output checks.
"""

import argparse
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--case-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)
    status = 0
    for workload in WORKLOADS:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(args.seed), "--case-seed", str(args.case_seed),
            "--seconds", str(args.seconds), "--trace", "1",
            "--out", str(args.out / workload),
        ]
        print(f"== {workload}", flush=True)
        status |= subprocess.run(command).returncode
    return 1 if status else 0


if __name__ == "__main__":
    sys.exit(main())
