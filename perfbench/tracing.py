"""Span tracing of tiersched's layers, recorded from outside the package.

A traced run swaps public functions and methods of the package for thin
wrappers that record one span per call: a name, a start, an end, the
enclosing span, and the id of the benchmark operation (solve, drain,
decision or certification) it belongs to.  Spans live in compact arrays
while the run lasts and are written out when it ends.  A layer's self time
is its span's duration minus the time its direct child spans cover.

Nothing here changes what the package computes: every wrapper calls the
original and returns its result unchanged.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from contextlib import contextmanager
from importlib import import_module
from time import perf_counter_ns

import numpy as np

from tiersched import baselines, ga, oracle, sim, workload

# The package re-exports a function named ``penalty`` over the module name.
penalty = import_module("tiersched.penalty")


class Tracer:
    """In-memory span recorder; ``on`` gates recording."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.op_id = -1
        self.on = False
        self.counters: Counter = Counter()
        # Values already scored inside the innermost evolve call.
        self.scored: set = set()

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def top(self) -> str | None:
        return self.names[self.name[self.stack[-1]]] if self.stack else None

    def begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self.stack.pop()

    def wrap(self, name, fn, *, after=None, skip=None, before=None):
        """Wrapper recording a span around ``fn``.

        ``name`` is a string or a function of the call's arguments.
        ``skip(args)`` true calls straight through without a span, ``before``
        and ``after(result, args)`` update counters.
        """
        fixed = self.intern(name) if isinstance(name, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on or (skip is not None and skip(args)):
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            idx = self.begin(fixed if fixed is not None
                             else self.intern(name(*args, **kwargs)))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(idx)
            if after is not None:
                after(result, args)
            return result

        return traced

    # ------------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = end - start
        child = parent >= 0
        cover = np.bincount(parent[child], weights=duration[child],
                            minlength=len(duration))
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "start_ns": start,
            "end_ns": end,
            "parent": parent,
            "op": np.frombuffer(self.op, dtype=np.int32),
            "self_ns": duration - cover,
        }

    def totals(self, a: dict[str, np.ndarray]) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds)."""
        n = len(self.names)
        calls = np.bincount(a["name"], minlength=n)
        incl = np.bincount(a["name"], weights=a["end_ns"] - a["start_ns"],
                           minlength=n)
        own = np.bincount(a["name"], weights=a["self_ns"], minlength=n)
        return {name: (int(calls[i]), incl[i] / 1e9, own[i] / 1e9)
                for i, name in enumerate(self.names)}

    def save(self, path, a: dict[str, np.ndarray]) -> None:
        np.savez_compressed(path, names=np.array(self.names), **a)


def span_cost_us() -> float:
    """Measured cost of recording one span, in microseconds per call."""
    calls = 20_000
    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap("trace.calibrate", noop)
    tracer.on = True
    t0 = perf_counter_ns()
    for _ in range(calls):
        traced()
    t1 = perf_counter_ns()
    for _ in range(calls):
        noop()
    t2 = perf_counter_ns()
    return max(0.0, ((t1 - t0) - (t2 - t1)) / calls / 1e3)


def _evolve_name(snapshot, config=None) -> str:
    return f"ga.evolve.{(config or ga.GAConfig()).variant}"


@contextmanager
def instrument(tracer: Tracer):
    """Install span wrappers on the package's public calls; undo on exit."""
    counters = tracer.counters

    def in_evolve() -> bool:
        top = tracer.top()
        return top is not None and top.startswith("ga.evolve.")

    def rescored(key) -> None:
        counters["ga.scorings"] += 1
        if key in tracer.scored:
            counters["ga.rescored"] += 1
        else:
            tracer.scored.add(key)

    def on_fitness(args) -> None:
        if in_evolve():
            rescored(hash(tuple(args[1])))

    def on_queue_score(args) -> None:
        rescored((args[1], hash(tuple(args[2]))))

    def on_evolve(result, args) -> None:
        config = (args[1] if len(args) > 1 else None) or ga.GAConfig()
        counters["ga.evaluations"] += result.evaluations
        counters[f"ga.generations.{config.variant}"] += config.generations

    # Only the segmented GA calls queue_score as a unit of work; inside
    # fitness and the oracle it is their inner loop, left untraced, so the
    # wrapper is installed only for the duration of an evolve call.
    plain_score = penalty.ScheduleEvaluator.queue_score
    traced_score = tracer.wrap(
        "penalty.queue_score", plain_score,
        skip=lambda args: not in_evolve(), before=on_queue_score)
    plain_evolve = ga.evolve

    def evolve_scoring(snapshot, config=None):
        tracer.scored.clear()
        penalty.ScheduleEvaluator.queue_score = traced_score
        try:
            return plain_evolve(snapshot, config)
        finally:
            penalty.ScheduleEvaluator.queue_score = plain_score

    def count(key, measure):
        def after(result, args):
            counters[key] += measure(result)
        return after

    targets = [
        (workload, "generate", tracer.wrap(
            "workload.generate", workload.generate,
            after=count("workload.jobs", len))),
        (sim, "simulate_to_snapshot", tracer.wrap(
            "sim.freeze", sim.simulate_to_snapshot)),
        (sim.Simulator, "step", tracer.wrap("sim.step", sim.Simulator.step)),
        (sim.Simulator, "snapshot", tracer.wrap(
            "sim.snapshot", sim.Simulator.snapshot,
            after=count("sim.residents", lambda s: len(s.progress)))),
        (sim.Simulator, "install_schedule", tracer.wrap(
            "sim.install", sim.Simulator.install_schedule,
            after=count("sim.rejects", lambda ok: not ok))),
        (sim.Simulator, "report", tracer.wrap(
            "sim.report", sim.Simulator.report)),
        (baselines.AssignmentPolicy, "assign", tracer.wrap(
            lambda policy, *a, **k: f"baselines.assign.{policy.kind.value}",
            baselines.AssignmentPolicy.assign)),
        (sim, "validate_schedule", tracer.wrap(
            "model.validate", sim.validate_schedule)),
        (penalty, "validate_schedule", tracer.wrap(
            "model.validate", penalty.validate_schedule)),
        (penalty.ScheduleEvaluator, "__init__", tracer.wrap(
            "penalty.evaluator_init", penalty.ScheduleEvaluator.__init__)),
        (penalty.ScheduleEvaluator, "fitness", tracer.wrap(
            "penalty.fitness", penalty.ScheduleEvaluator.fitness,
            before=on_fitness)),
        (penalty, "total_penalty", tracer.wrap(
            "penalty.total_penalty", penalty.total_penalty)),
        (ga, "evolve", tracer.wrap(_evolve_name, evolve_scoring,
                                   after=on_evolve)),
        (ga, "select", tracer.wrap("ga.select", ga.select)),
        (ga, "crossover", tracer.wrap("ga.crossover", ga.crossover)),
        (ga, "mutate", tracer.wrap("ga.mutate", ga.mutate)),
        (ga, "random_chromosome", tracer.wrap(
            "ga.init", ga.random_chromosome)),
        (oracle, "exhaustive_best", tracer.wrap(
            "oracle.solve", oracle.exhaustive_best,
            after=count("oracle.states", lambda r: r.states))),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    try:
        for owner, attr, wrapper in targets:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, spans: dict[str, np.ndarray],
                  slowdown: float = 1.0) -> dict[str, tuple[float, str]]:
    """Per-layer figures of a traced run: name -> (value, unit).

    ``spans`` is ``tracer.arrays()``.  Times are inclusive means per call
    unless NOTES.md names them as self time, and like the end-to-end
    timings they are scaled by the host's ``slowdown``.  A layer the
    workload does not use reports zero calls and time.
    """
    scale = {"ms": 1 / slowdown, "us": 1 / slowdown, "states/s": slowdown}
    metrics = _layer_metrics(tracer, tracer.totals(spans))
    return {m: (v * scale.get(unit, 1.0), unit)
            for m, (v, unit) in metrics.items()}


def _layer_metrics(tracer: Tracer, totals) -> dict[str, tuple[float, str]]:
    c = tracer.counters

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def mean(name, scale, own=False):
        n, incl, self_s = totals.get(name, (0, 0.0, 0.0))
        return (self_s if own else incl) / n * scale if n else 0.0

    def total_s(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    m: dict[str, tuple[float, str]] = {
        "workload.generate_ms": (mean("workload.generate", 1e3), "ms"),
        "workload.generate_calls": (calls("workload.generate"), "count"),
        "workload.jobs": (c["workload.jobs"], "count"),
        "sim.events": (calls("sim.step"), "count"),
        "sim.step_us": (mean("sim.step", 1e6, own=True), "us"),
        "sim.freeze_ms": (mean("sim.freeze", 1e3), "ms"),
        "sim.freeze_calls": (calls("sim.freeze"), "count"),
        "sim.snapshot_ms": (mean("sim.snapshot", 1e3), "ms"),
        "sim.snapshot_calls": (calls("sim.snapshot"), "count"),
        "sim.snapshot_residents": (
            c["sim.residents"] / calls("sim.snapshot")
            if calls("sim.snapshot") else 0.0, "jobs"),
        "sim.install_ms": (mean("sim.install", 1e3, own=True), "ms"),
        "sim.install_calls": (calls("sim.install"), "count"),
        "sim.rejects": (c["sim.rejects"], "count"),
        "sim.report_ms": (mean("sim.report", 1e3), "ms"),
        "sim.report_calls": (calls("sim.report"), "count"),
        "model.validate_ms": (mean("model.validate", 1e3), "ms"),
        "model.validations": (calls("model.validate"), "count"),
        "penalty.evaluator_init_ms": (mean("penalty.evaluator_init", 1e3), "ms"),
        "penalty.evaluator_inits": (calls("penalty.evaluator_init"), "count"),
        "penalty.fitness_us": (mean("penalty.fitness", 1e6), "us"),
        "penalty.fitness_calls": (calls("penalty.fitness"), "count"),
        "penalty.queue_score_us": (mean("penalty.queue_score", 1e6), "us"),
        "penalty.queue_score_calls": (calls("penalty.queue_score"), "count"),
        "penalty.total_penalty_ms": (mean("penalty.total_penalty", 1e3), "ms"),
        "penalty.total_penalty_calls": (calls("penalty.total_penalty"), "count"),
    }
    assigns = 0
    for kind in ("fcfs", "wlc", "wrr"):
        name = f"baselines.assign.{kind}"
        m[f"baselines.assign_us.{kind}"] = (mean(name, 1e6), "us")
        m[f"baselines.assigns.{kind}"] = (calls(name), "count")
        assigns += calls(name)
    m["baselines.assigns"] = (assigns, "count")
    for variant in ("virtualized", "segmented"):
        name = f"ga.evolve.{variant}"
        gens = c[f"ga.generations.{variant}"]
        m[f"ga.evolve_ms.{variant}"] = (mean(name, 1e3), "ms")
        m[f"ga.evolve_calls.{variant}"] = (calls(name), "count")
        m[f"ga.generation_us.{variant}"] = (
            total_s(name) / gens * 1e6 if gens else 0.0, "us")
    for op in ("select", "crossover", "mutate"):
        m[f"ga.{op}_us"] = (mean(f"ga.{op}", 1e6), "us")
        m[f"ga.{op}_calls"] = (calls(f"ga.{op}"), "count")
    m["ga.init_ms"] = (mean("ga.init", 1e3), "ms")
    m["ga.init_calls"] = (calls("ga.init"), "count")
    m["ga.evaluations"] = (c["ga.evaluations"], "count")
    m["ga.scorings"] = (c["ga.scorings"], "count")
    m["ga.rescored_share"] = (
        c["ga.rescored"] / c["ga.scorings"] if c["ga.scorings"] else 0.0,
        "ratio")
    oracle_s = total_s("oracle.solve")
    m["oracle.states"] = (c["oracle.states"], "count")
    m["oracle.solve_ms"] = (mean("oracle.solve", 1e3), "ms")
    m["oracle.solves"] = (calls("oracle.solve"), "count")
    m["oracle.states_per_s"] = (
        c["oracle.states"] / oracle_s if oracle_s else 0.0, "states/s")
    m["trace.spans"] = (len(tracer.start), "count")
    return m
