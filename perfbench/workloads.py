"""The benchmark's four workloads, each a closed loop over public calls.

Every workload builds its inputs from the run's seed before the timed loop,
then runs rounds back to back: the next solve, drain or decision starts
when the previous one ends, and arrival rates are in simulated time.  The
first ``block`` rounds of a run are its quality block; the quality figures
come from those rounds only, so they repeat exactly for a seed however fast
the host is.  Later rounds, which reuse the input pool cyclically, only add
timing samples.  Each final schedule or outcome is judged against a
reference on the same input: the frozen FCFS schedule for ``frozen-ga`` and
``desk-oracle``, the drain without optimizer for ``online-overload``, and
the FCFS drain for ``stream-drain``.  Every round's outputs are checked; a
failed check or an exception counts as a failed operation and is reported
on stderr.

The calls go through the package's module attributes (``sim.Simulator``,
``ga.evolve``, ...) so a traced run sees them; see ``tracing.py``.
"""

from __future__ import annotations

import subprocess
import sys
import traceback
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from importlib import import_module
from pathlib import Path
from time import perf_counter

from tiersched import baselines, ga, model, oracle, sim, workload

from hostspeed import HostSpeed, slowdown_now
from reference import reference_optimum

# The package re-exports a function named ``penalty`` over the module name.
penalty = import_module("tiersched.penalty")

TOTAL = penalty.AllowanceMode.TOTAL
ENV_2X3 = model.EnvironmentConfig()
ENV_2X2 = model.EnvironmentConfig(num_tiers=2, resources_per_tier=(2, 2))

SRC = Path(model.__file__).resolve().parents[1]
IMPORT = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
          "t = time.perf_counter(); import tiersched; "
          "print(time.perf_counter() - t)")


@dataclass
class Tally:
    """Timings, work, checks and quality figures of one run."""

    op_s: list[float] = field(default_factory=list)
    busy_s: float = 0.0
    jobs: int = 0
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    violation: float = 0.0
    penalty: float = 0.0
    reference_violation: float = 0.0
    reference_penalty: float = 0.0
    ops_started: int = 0
    # Per set-up pass: host seconds (fresh import plus input generation),
    # the import's share of them, and the host's slowdown around the pass.
    setup_s: list[float] = field(default_factory=list)
    setup_import_s: list[float] = field(default_factory=list)
    setup_slowdown: list[float] = field(default_factory=list)
    speed: HostSpeed = field(default_factory=HostSpeed)
    extra: dict[str, list[float]] = field(
        default_factory=lambda: defaultdict(list))

    def settle(self, what: str, problems: list[str], ops: int = 1,
               failures: int | None = None) -> None:
        """Count ``ops`` attempted operations and report any failure."""
        self.attempted += ops
        if problems:
            self.failed += failures if failures is not None else ops
            print(f"perfbench: FAILED {what}: " + "; ".join(problems),
                  file=sys.stderr)

    def judge(self, final, reference) -> None:
        """Add a final schedule's or outcome's totals to the quality block,
        with those of the reference it is judged against."""
        self.violation += final.total_violation
        self.penalty += final.total_cost
        self.reference_violation += reference.total_violation
        self.reference_penalty += reference.total_cost
        self.extra["improvement_pct"].append(
            _pct(reference.total_violation, final.total_violation))


@contextmanager
def operation(tally: Tally, tracer):
    """One solve, drain, step or instance: its spans share a new id, and
    the host's speed is sampled after it."""
    tally.ops_started += 1
    if tracer is not None:
        tracer.on, tracer.op_id = True, tally.ops_started
    try:
        yield
    finally:
        if tracer is not None:
            tracer.on, tracer.op_id = False, -1
        tally.speed.sample()


def _exception(problems: list[str]) -> None:
    problems.append(traceback.format_exc().strip().splitlines()[-1])
    traceback.print_exc(file=sys.stderr)


def _non_increasing(history) -> bool:
    return all(b.best <= a.best for a, b in zip(history, history[1:]))


def _pct(before: float, after: float) -> float:
    return 100.0 * (before - after) / abs(before) if before else 0.0


class Pooled:
    """A pool of job streams with consecutive seeds, cycled by round."""

    env = ENV_2X3

    def __init__(self, block: int, pool: int):
        self.block, self.pool_size = block, pool

    def setup(self, seed: int) -> None:
        self.pool = []  # free the previous pass's streams first
        self.seeds = [seed * self.pool_size + i + 1
                      for i in range(self.pool_size)]
        self.pool = [
            workload.generate(workload.WorkloadSpec(
                arrival_rate=self.rate, num_jobs=self.jobs, seed=s), self.env)
            for s in self.seeds]

    def pick(self, i: int) -> tuple[int, model.JobSet]:
        return self.seeds[i % self.pool_size], self.pool[i % self.pool_size]


class FrozenGA(Pooled):
    """README improvement instance: both GA variants on frozen snapshots."""

    name = "frozen-ga"
    rate = 7.0
    population = 10

    def __init__(self, jobs=110, generations=1000, block=20, pool=64):
        super().__init__(block, pool)
        self.jobs, self.generations = jobs, generations

    def round(self, i: int, tally: Tally, tracer, judged: bool) -> None:
        seed, jobs = self.pick(i)
        for variant in (ga.QueueVariant.VIRTUALIZED, ga.QueueVariant.SEGMENTED):
            config = ga.GAConfig(population=self.population,
                                 generations=self.generations,
                                 variant=variant, mode=TOTAL, seed=seed)
            problems: list[str] = []
            try:
                with operation(tally, tracer):
                    t0 = perf_counter()
                    snap = sim.simulate_to_snapshot(
                        jobs, self.env, baselines.make_policy("fcfs", self.env))
                    initial = penalty.total_penalty(snap, TOTAL)
                    result = ga.evolve(snap, config)
                    final = penalty.total_penalty(
                        snap, TOTAL, schedule=result.best_schedule)
                    elapsed = perf_counter() - t0
                optimum = self._check(snap, config, result, problems)
            except Exception:
                _exception(problems)
            tally.settle(f"{self.name} seed {seed} {variant}", problems)
            if problems:
                continue
            tally.op_s.append(elapsed)
            tally.busy_s += elapsed
            tally.jobs += len(snap.waiting_ids())
            tally.extra[f"{variant}_s"].append(elapsed)
            if judged:
                tally.judge(final, initial)
                gap = 100.0 * (result.best_fitness - optimum) / abs(optimum)
                tally.extra["gap_pct"].append(gap)
                tally.extra[f"gap_pct.{variant}"].append(gap)
                tally.extra["waiting"].append(len(snap.waiting_ids()))

    def _check(self, snap, config, result, problems: list[str]) -> float:
        """Check one solve; returns the reference optimum it was held to."""
        report = model.validate_schedule(result.best_schedule, snap.env,
                                         snap.jobs, snapshot=snap)
        if not report.ok:
            problems.append("best schedule invalid: "
                            + "; ".join(report.violations))
        runs = 1
        if config.variant == ga.QueueVariant.SEGMENTED:
            runs = sum(len(q) >= 2 for q in snap.schedule.flat_waiting())
        budget = config.population * config.generations * runs
        if result.evaluations != budget:
            problems.append(f"{result.evaluations} evaluations, "
                            f"budget {budget}")
        if not _non_increasing(result.history):
            problems.append("best-so-far history increases")
        optimum = reference_optimum(snap)
        if result.best_fitness < optimum - 1e-9 * max(1.0, abs(optimum)):
            problems.append(f"GA {result.best_fitness!r} beats the reference "
                            f"optimum {optimum!r}")
        return optimum


class StreamDrain(Pooled):
    """A long stable stream drained by each baseline dispatcher in turn.

    A round drains the one stream with ``fcfs``, ``wlc`` and ``wrr``, one
    operation each, so every run times whole cycles of the three."""

    name = "stream-drain"
    rate = 2.5
    dispatchers = ("fcfs", "wlc", "wrr")

    def __init__(self, jobs=50_000):
        super().__init__(block=1, pool=1)
        self.jobs = jobs

    def round(self, i: int, tally: Tally, tracer, judged: bool) -> None:
        _, jobs = self.pick(0)
        reference = None
        for kind in self.dispatchers:
            run = report = None  # free the previous drain first
            problems: list[str] = []
            try:
                with operation(tally, tracer):
                    t0 = perf_counter()
                    run = sim.Simulator(
                        jobs, self.env, baselines.make_policy(kind, self.env))
                    run.run()
                    report = run.report()
                    elapsed = perf_counter() - t0
                run.assert_invariants()
                if run.departed != len(jobs) or report.job_count != len(jobs):
                    problems.append(f"{run.departed} of {len(jobs)} departed, "
                                    f"{report.job_count} reported")
            except Exception:
                _exception(problems)
            tally.settle(f"{self.name} {kind}", problems)
            if problems:
                continue
            tally.op_s.append(elapsed)
            tally.busy_s += elapsed
            tally.jobs += len(jobs)
            tally.extra[f"{kind}_s"].append(elapsed)
            if kind == "fcfs":
                reference = report
            elif judged and reference is not None:
                tally.judge(report, reference)


class OnlineOverload(Pooled):
    """Online virtualized GA every ``epoch`` events on an overloaded tier 1."""

    name = "online-overload"
    rate = 4.0
    epoch = 50
    population = 10

    def __init__(self, jobs=3000, generations=20, block=2, pool=8):
        super().__init__(block, pool)
        self.jobs, self.generations = jobs, generations

    def round(self, i: int, tally: Tally, tracer, judged: bool) -> None:
        seed, jobs = self.pick(i)
        config = ga.GAConfig(population=self.population,
                             generations=self.generations, mode=TOTAL, seed=seed)
        decided = 0

        def optimizer(snapshot):
            nonlocal decided
            decided += 1
            return ga.evolve(snapshot, config).best_schedule

        problems: list[str] = []
        decisions: list[float] = []
        rejects = 0
        # Host time of the steps and the report only: the host-speed kernel
        # runs between operations, outside it.
        busy = 0.0
        try:
            run = sim.Simulator(jobs, self.env,
                                baselines.make_policy("fcfs", self.env),
                                optimizer=optimizer,
                                reschedule_every=self.epoch, keep_trace=True)
            while not run.done:
                before = decided
                with operation(tally, tracer):
                    t0 = perf_counter()
                    run.step()
                    elapsed = perf_counter() - t0
                busy += elapsed
                if decided != before:
                    decisions.append(elapsed)
            with operation(tally, tracer):
                t0 = perf_counter()
                report = run.report()
                busy += perf_counter() - t0
            run.assert_invariants()
            kinds = [ev.kind for ev in run.trace]
            rejects = kinds.count("reject")
            if rejects:
                problems.append(f"{rejects} reschedules rejected")
            if kinds.count("reschedule") + rejects != decided:
                problems.append("decision count disagrees with the trace")
            if run.departed != len(jobs) or report.job_count != len(jobs):
                problems.append(f"{run.departed} of {len(jobs)} departed")
        except Exception:
            _exception(problems)
        tally.settle(f"{self.name} seed {seed}", problems,
                     ops=max(decided, 1), failures=max(rejects, 1))
        if problems:
            return
        tally.op_s.extend(decisions)
        tally.busy_s += busy
        tally.jobs += len(jobs)
        if judged:
            baseline = sim.Simulator(
                jobs, self.env, baselines.make_policy("fcfs", self.env)).run()
            tally.judge(report, baseline.report())


class DeskOracle(Pooled):
    """README desk instances certified by exhaustive enumeration."""

    name = "desk-oracle"
    env = ENV_2X2
    rate = 4.0
    jobs = 9

    def __init__(self, block=400, pool=6144):
        super().__init__(block, pool)

    def round(self, i: int, tally: Tally, tracer, judged: bool) -> None:
        seed, jobs = self.pick(i)
        problems: list[str] = []
        try:
            with operation(tally, tracer):
                t0 = perf_counter()
                snap = sim.simulate_to_snapshot(
                    jobs, self.env, baselines.make_policy("fcfs", self.env))
                t1 = perf_counter()
                best = oracle.exhaustive_best(snap, TOTAL)
                t2 = perf_counter()
            if best.states != oracle.count_states(snap):
                problems.append(f"{best.states} states, expected "
                                f"{oracle.count_states(snap)}")
            optimum = reference_optimum(snap)
            if abs(optimum - best.fitness) > 1e-9:
                problems.append(f"reference optimum {optimum!r} differs from "
                                f"the oracle's {best.fitness!r}")
            final = penalty.total_penalty(snap, TOTAL, schedule=best.schedule)
        except Exception:
            _exception(problems)
        tally.settle(f"{self.name} seed {seed}", problems)
        if problems:
            return
        tally.op_s.append(t2 - t0)
        tally.busy_s += t2 - t0
        tally.jobs += len(snap.waiting_ids())
        tally.extra["oracle_s"].append(t2 - t1)
        tally.extra["states"].append(best.states)
        if judged:
            tally.judge(final, penalty.total_penalty(snap, TOTAL))


WORKLOADS = {w.name: w for w in (FrozenGA, StreamDrain, OnlineOverload,
                                 DeskOracle)}


def import_s() -> float:
    """Host seconds a fresh interpreter takes to import the package from the
    sources this process imported it from."""
    out = subprocess.run([sys.executable, "-c", IMPORT, str(SRC)],
                         capture_output=True, text=True, check=True,
                         timeout=120).stdout
    return float(out)


def drive(bench, seed: int, seconds: float, tracer=None,
          setup_passes: int = 5) -> Tally:
    """Set up ``setup_passes`` times, then run rounds until the quality
    block is done and time is up.

    A set-up pass imports the package in a fresh interpreter, timed inside
    that interpreter, and generates every input; the host's speed is taken
    just before and after it.  A round starts only while the block is
    unfinished or the mean round so far still fits in the remaining time,
    so runs end close to ``seconds``.
    """
    tally = Tally()
    for _ in range(setup_passes):
        with operation(tally, tracer):
            before = slowdown_now()
            fresh = import_s()
            t0 = perf_counter()
            bench.setup(seed)
            tally.setup_s.append(fresh + perf_counter() - t0)
            tally.setup_import_s.append(fresh)
            tally.setup_slowdown.append((before + slowdown_now()) / 2)
    t0 = perf_counter()
    while True:
        elapsed = perf_counter() - t0
        done = tally.rounds
        if done >= max(bench.block, 1) and elapsed + elapsed / done > seconds:
            break
        bench.round(done, tally, tracer, judged=done < bench.block)
        tally.rounds += 1
    return tally
