"""In-memory span tracer installed around the names callers use.

A traced run replaces module attributes and class methods on the call paths
below with timing wrappers, records one span per call (name, start, end,
parent span) and puts every original back afterwards.  Nothing inside
``src/`` changes: the wrappers live here and only sit between callers and
the functions they already call.

Self time is a span's duration minus the time its child spans cover; calls
are single-threaded and sequential, so children never overlap.
"""

from __future__ import annotations

import gzip
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int = -1  # index into Tracer.spans, -1 for a root
    note: object = None  # per-layer detail captured by the wrapper

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    now: Callable[[], float] = time.perf_counter
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.now(), parent=parent))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = self.now()
        self._stack.pop()

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps([i, s.name, s.start, s.end, s.parent]) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Per-span duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


# ---------------------------------------------------------------------------
# Wrappers


def _node_count(skeleton, cache: dict) -> int:
    from daedisc.dsl import walk

    hit = cache.get(id(skeleton))
    if hit is None:
        # keep the skeleton alive so its id cannot be reused for another
        hit = cache[id(skeleton)] = (skeleton, sum(
            1 for expr in skeleton.expressions for _ in walk(expr)))
    return hit[1]


def _targets():
    """(owner, attribute, span name, note(result, args) or None) per wrapper."""
    import daedisc.cli as cli
    import daedisc.engine as engine
    import daedisc.fitting as fitting
    import daedisc.sindy as sindy
    from daedisc.archive import Archive
    from daedisc.dataset import TrajectoryDataset

    nodes: dict = {}

    def fit_eval_note(result, args):
        skeleton, _, batch = args[:3]
        return (batch.n_samples * _node_count(skeleton, nodes), result.faulted)

    def archive_members(archive) -> int:
        return sum(island.member_count() for island in archive.islands)

    def save_note(result, args):
        return (archive_members(args[0]), os.path.getsize(args[1]))

    return [
        (engine, "fit_and_score", "fitting.fit_and_score", lambda r, a: r.poisoned),
        (engine, "parse", "dsl.parse", None),
        (engine, "build_prompt", "gateway.build_prompt", lambda r, a: len(r)),
        (engine, "generate", "gateway.generate", None),
        (engine, "extend_variables", "engine.extend_variables", None),
        (engine.DiscoveryEngine, "fit", "engine.fit", None),
        (fitting, "evaluate", "evaluator.fit", fit_eval_note),
        (sindy, "evaluate", "evaluator.replay", None),
        (sindy, "stlsq", "sindy.stlsq", None),
        (sindy, "rk4_step", "benchmarks.rk4_step", None),
        (Archive, "sample_examples", "archive.sample_examples", None),
        (Archive, "register", "archive.register", lambda r, a: r),
        (Archive, "best", "archive.best", None),
        (Archive, "best_score", "archive.best_score", None),
        (Archive, "top", "archive.top", None),
        (Archive, "save", "archive.save", save_note),
        (TrajectoryDataset, "to_batch", "dataset.to_batch", None),
        (cli, "simulate", "benchmarks.simulate", None),
        (cli, "import_dataset", "dataset.import_dataset", None),
        (cli, "export_dataset", "dataset.export_dataset", None),
        (cli, "simulate_identified", "sindy.simulate_identified",
         lambda r, a: (r.diverged, len(r.time))),
        (cli, "build_report", "metrics.build_report", None),
    ]


def _wrap(tracer: Tracer, fn, name: str, note):
    spans = tracer.spans

    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.end(index)
            spans[index].note = exc
            raise
        tracer.end(index)
        if note is not None:
            spans[index].note = note(result, args)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


class installed:
    """Context manager: wrappers in place on entry, originals back on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        try:
            for owner, attr, name, note in _targets():
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, _wrap(self.tracer, original, name, note))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self.tracer

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer figures


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; NaN for no values."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def layer_metrics(spans: list[Span], fit_steps: int, fit_restarts: int) -> dict[str, float]:
    """Per-layer figures of one traced pass (see BENCHMARK.json per_layer)."""
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def total(name):
        return sum(spans[i].duration for i in idx(name))

    def self_total(name):
        return sum(own[i] for i in idx(name))

    def calls(name):
        return len(idx(name))

    def ratio(num, den):
        return num / den if den else 0.0

    def per_call_us(name):
        return ratio(total(name), calls(name)) * 1e6

    m: dict[str, float] = {}
    fit_notes = [spans[i].note for i in idx("evaluator.fit")]
    sample_nodes = sum(n[0] for n in fit_notes if isinstance(n, tuple))
    m["evaluator.fit.calls"] = calls("evaluator.fit")
    m["evaluator.fit.s"] = total("evaluator.fit")
    m["evaluator.fit.us_per_call"] = per_call_us("evaluator.fit")
    m["evaluator.fit.sample_nodes"] = sample_nodes
    m["evaluator.fit.ns_per_sample_node"] = ratio(total("evaluator.fit"), sample_nodes) * 1e9
    m["evaluator.fit.faults"] = sum(1 for n in fit_notes if isinstance(n, tuple) and n[1])
    m["evaluator.replay.calls"] = calls("evaluator.replay")
    m["evaluator.replay.s"] = total("evaluator.replay")
    m["evaluator.replay.us_per_call"] = per_call_us("evaluator.replay")

    fits = idx("fitting.fit_and_score")
    fit_ms = [spans[i].duration * 1e3 for i in fits]
    m["fitting.fit_and_score.calls"] = len(fits)
    m["fitting.fit_and_score.s"] = total("fitting.fit_and_score")
    m["fitting.fit_and_score.self_s"] = self_total("fitting.fit_and_score")
    m["fitting.fit_ms_p50"] = _percentile(fit_ms, 50) if fit_ms else 0.0
    m["fitting.fit_ms_p90"] = _percentile(fit_ms, 90) if fit_ms else 0.0
    m["fitting.us_per_restart_step"] = ratio(
        total("fitting.fit_and_score"), fit_steps * fit_restarts * len(fits)) * 1e6
    m["fitting.poisoned_ratio"] = ratio(sum(1 for i in fits if spans[i].note is True), len(fits))

    registers = idx("archive.register")
    best_group = {"archive.best", "archive.best_score", "archive.top"}
    saves = [spans[i].note for i in idx("archive.save") if isinstance(spans[i].note, tuple)]
    m["archive.sample_examples.s"] = total("archive.sample_examples")
    m["archive.register.calls"] = len(registers)
    m["archive.register.s"] = total("archive.register")
    m["archive.register.dup_ratio"] = ratio(
        sum(1 for i in registers if spans[i].note is False), len(registers))
    m["archive.best_top.s"] = sum(
        s.duration for s in spans
        if s.name in best_group and (s.parent < 0 or spans[s.parent].name not in best_group))
    m["archive.members_final"] = sum(n[0] for n in saves)
    m["archive.save.s"] = total("archive.save")
    m["archive.save.bytes"] = sum(n[1] for n in saves)

    parses = idx("dsl.parse")
    m["dsl.parse.calls"] = len(parses)
    m["dsl.parse.s"] = total("dsl.parse")
    m["dsl.parse.reject_ratio"] = ratio(
        sum(1 for i in parses if isinstance(spans[i].note, Exception)), len(parses))

    prompts = [spans[i].note for i in idx("gateway.build_prompt")]
    m["gateway.generate.calls"] = calls("gateway.generate")
    m["gateway.generate.s"] = total("gateway.generate")
    m["gateway.build_prompt.s"] = total("gateway.build_prompt")
    m["gateway.prompt_chars_mean"] = ratio(sum(prompts), len(prompts))

    m["engine.iterations"] = calls("archive.sample_examples")
    m["engine.extend_variables.calls"] = calls("engine.extend_variables")
    m["engine.extend_variables.s"] = total("engine.extend_variables")
    m["engine.self_s"] = self_total("engine.fit")

    m["dataset.to_batch.calls"] = calls("dataset.to_batch")
    m["dataset.to_batch.s"] = total("dataset.to_batch")
    m["dataset.import_dataset.s"] = total("dataset.import_dataset")
    m["dataset.export_dataset.s"] = total("dataset.export_dataset")

    replays = idx("sindy.simulate_identified")
    replay_steps = sum(
        1 for s in spans
        if s.name == "benchmarks.rk4_step" and s.parent >= 0
        and spans[s.parent].name == "sindy.simulate_identified")
    m["benchmarks.simulate.s"] = total("benchmarks.simulate")
    m["benchmarks.rk4_step.calls"] = calls("benchmarks.rk4_step")
    m["sindy.simulate_identified.s"] = total("sindy.simulate_identified")
    m["sindy.replay_us_per_step"] = ratio(total("sindy.simulate_identified"), replay_steps) * 1e6
    m["sindy.stlsq.s"] = total("sindy.stlsq")
    m["sindy.diverged_count"] = sum(
        1 for i in replays if isinstance(spans[i].note, tuple) and spans[i].note[0])
    m["metrics.build_report.s"] = total("metrics.build_report")
    return m
