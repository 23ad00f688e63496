"""Per-layer spans for the traced benchmark run, installed from outside src.

:class:`LayerTracer` swaps wrappers in for the public functions and
methods listed in :data:`TARGETS` and swaps the originals back on
:meth:`LayerTracer.uninstall`, so the untraced passes of a run execute
the program unmodified.  Each wrapper times its call, keeps a stack so a
parent's *self* time is its duration minus the time of the wrapped calls
nested in it, and keeps a span ``(id, parent, name, start, end, job)`` in
memory; :meth:`LayerTracer.write` writes the spans out when the run ends.

Leaf functions called 45,000 to 85,000 times per synthesis pass
(``HOT``) are counted only: timing them would add two clock reads to
every call and charge that to their callers, so their time stays in the
caller's self time and their rows report calls without seconds.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: (layer name, module, class or None, attribute) of every wrapped callable.
TARGETS: tuple[tuple[str, str, str | None, str], ...] = (
    ("gen.generate_case", "repro.gen.suite", None, "generate_case"),
    ("model.build_ft_graph", "repro.model.ftgraph", None, "build_ft_graph"),
    ("model.ft_graph_with_move", "repro.model.ftgraph", None,
     "ft_graph_with_move"),
    ("opt.optimize", "repro.opt.strategy", None, "optimize"),
    ("opt.greedy_mpa", "repro.opt.greedy", None, "greedy_mpa"),
    ("opt.tabu_search_mpa", "repro.opt.tabu", None, "tabu_search_mpa"),
    ("opt.signature", "repro.opt.implementation", "Implementation",
     "signature"),
    ("evaluator.evaluate_many", "repro.opt.evaluator", "Evaluator",
     "evaluate_many"),
    ("evaluator.context_for", "repro.opt.evaluator", "Evaluator",
     "context_for"),
    ("evaluator.realize", "repro.opt.evaluator", "Evaluator", "realize"),
    ("evaluator.evaluate_full", "repro.opt.evaluator", "Evaluator",
     "evaluate_full"),
    ("schedule.capture", "repro.schedule.incremental", "EvalContext",
     "capture"),
    ("schedule.plan_moves", "repro.schedule.incremental", "EvalContext",
     "plan_moves"),
    ("schedule.delta_schedule", "repro.schedule.incremental", "EvalContext",
     "delta_schedule"),
    ("schedule.seal", "repro.schedule.state", "SchedulerState", "seal"),
    ("schedule.cold_pass", "repro.schedule.list_scheduler", None,
     "build_schedule_record"),
    ("schedule.release_row", "repro.schedule.state", None, "release_row"),
    ("schedule.analysis_place", "repro.schedule.analysis",
     "WorstCaseAnalyzer", "place"),
    ("ttp.schedule_message", "repro.ttp.schedule", "BusScheduler",
     "schedule_message"),
    ("sim.validate_record", "repro.sim.validate", None, "validate_record"),
    ("sim.run_batch", "repro.sim.batch", "BatchSimulator", "run_batch"),
    ("sim.check_batch", "repro.sim.validate", "BatchChecker", "check"),
    ("inject.build_context", "repro.inject.target", "InjectTarget",
     "build_context"),
    ("inject.importance_scenarios", "repro.inject.importance", None,
     "importance_scenarios"),
    ("inject.plan_sweep", "repro.inject.plan", None, "plan_sweep"),
    ("inject.counts_range", "repro.inject.space", "ScenarioSpace",
     "counts_range"),
    ("inject.sample_counts", "repro.inject.space", "ScenarioSpace",
     "sample_counts"),
    ("inject.run_shard", "repro.inject.runner", None, "run_shard"),
    ("inject.fold", "repro.inject.aggregate", "InjectAggregate", "fold"),
)

#: Count-only leaves (see the module docstring).
HOT = frozenset(
    {"schedule.release_row", "schedule.analysis_place", "ttp.schedule_message"}
)


@dataclass
class LayerStats:
    """Calls, total seconds and self seconds of one wrapped callable."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0

    def add(self, other: "LayerStats") -> None:
        self.calls += other.calls
        self.total_s += other.total_s
        self.self_s += other.self_s


@dataclass
class LayerTracer:
    """Installs the wrappers, accumulates stats and spans (one per run)."""

    #: Modules outside ``repro`` that import wrapped functions by name.
    extra_modules: tuple[str, ...] = ()
    stats: dict[str, LayerStats] = field(default_factory=dict)
    spans: list[tuple] = field(default_factory=list)
    job: str | None = None
    _stack: list[list] = field(default_factory=list)
    _next_id: int = 0
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Swap a wrapper in for every target (idempotent per install)."""
        if self._patches:
            return
        import importlib

        holders = [
            module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro.")
                 or name in self.extra_modules)
        ]
        for layer, module_name, class_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            if class_name is None:
                original = getattr(module, attr)
                wrapper = self._wrap(layer, original)
                # ``from x import f`` binds f in the importer's namespace
                # too, so every module holding the original is patched.
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._patches.append((holder, key, original))
                            setattr(holder, key, wrapper)
                continue
            owner = getattr(module, class_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(layer, raw.__func__))
            else:
                wrapped = self._wrap(layer, raw)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every original; the program runs unmodified again."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, layer: str, func):
        stats = self.stats.setdefault(layer, LayerStats())
        if layer in HOT:
            @functools.wraps(func)
            def counted(*args, **kwargs):
                stats.calls += 1
                return func(*args, **kwargs)

            return counted

        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        @functools.wraps(func)
        def timed(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][1] if stack else None
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                spans.append((span_id, parent, layer, start, end, tracer.job))

        return timed

    # -- reporting -----------------------------------------------------------

    def take(self) -> dict[str, LayerStats]:
        """Return and reset the accumulated stats (spans are kept)."""
        taken = {
            name: LayerStats(s.calls, s.total_s, s.self_s)
            for name, s in self.stats.items()
        }
        for stats in self.stats.values():
            stats.calls, stats.total_s, stats.self_s = 0, 0.0, 0.0
        return taken

    def write(self, out_dir: Path) -> None:
        """Write the spans as JSON lines under ``out_dir``."""
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "spans.jsonl", "w") as handle:
            for span_id, parent, name, start, end, job in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end, "job": job,
                }) + "\n")
