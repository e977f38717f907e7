"""Tests of the benchmark's own code, on tiny sizes."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from reference import reference_optimum  # noqa: E402
from tiersched import (  # noqa: E402
    EnvironmentConfig,
    GAConfig,
    WorkloadSpec,
    evolve,
    exhaustive_best,
    generate,
    make_policy,
    simulate_to_snapshot,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "frozen-ga": dict(jobs=40, generations=30, block=2, pool=4),
    "stream-drain": dict(jobs=2000),
    "online-overload": dict(jobs=300, generations=5, block=1, pool=2),
    "desk-oracle": dict(block=20, pool=32),
}


def tiny_run(name, seed=3, tracer=None):
    bench = workloads.WORKLOADS[name](**TINY[name])
    return workloads.drive(bench, seed, seconds=1e-3, tracer=tracer,
                           setup_passes=1)


def snapshot(rate, jobs, seed, env):
    stream = generate(WorkloadSpec(arrival_rate=rate, num_jobs=jobs, seed=seed),
                      env)
    return simulate_to_snapshot(stream, env, make_policy("fcfs", env))


def test_reference_optimum_matches_the_oracle():
    env = EnvironmentConfig(num_tiers=2, resources_per_tier=(2, 2))
    for seed in range(1, 41):
        snap = snapshot(4.0, 9, seed, env)
        optimum = reference_optimum(snap)
        assert optimum == pytest.approx(exhaustive_best(snap).fitness,
                                        abs=1e-9)


def test_reference_optimum_is_never_beaten_by_the_ga():
    env = EnvironmentConfig()
    for seed in (1, 2):
        snap = snapshot(7.0, 110, seed, env)
        optimum = reference_optimum(snap)
        for variant in ("virtualized", "segmented"):
            result = evolve(snap, GAConfig(generations=50, variant=variant,
                                           seed=seed))
            assert result.best_fitness >= optimum - 1e-9 * abs(optimum)


@pytest.mark.parametrize("name", sorted(TINY))
def test_quality_figures_repeat_for_a_seed(name):
    first, second = tiny_run(name), tiny_run(name)
    for tally in (first, second):
        assert tally.attempted > 0 and tally.failed == 0
    figures = ("violation", "penalty", "reference_violation",
               "reference_penalty")
    assert ([getattr(first, f) for f in figures]
            == [getattr(second, f) for f in figures])
    for key in ("gap_pct", "improvement_pct"):
        assert first.extra[key] == second.extra[key]
    metrics = run.end_to_end(first)
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(value > 0 for value, _ in metrics.values())


def test_traced_runs_emit_every_layer_metric():
    expected = {m["name"] for m in SPEC["per_layer"]}
    exercised = {
        "frozen-ga": ("ga.evolve_calls.virtualized", "ga.evolve_calls.segmented",
                      "penalty.fitness_calls", "penalty.queue_score_calls",
                      "ga.select_calls", "sim.freeze_calls"),
        "stream-drain": ("baselines.assigns.fcfs", "baselines.assigns.wlc",
                         "baselines.assigns.wrr", "sim.report_calls"),
        "online-overload": ("sim.install_calls", "model.validations",
                            "sim.snapshot_calls", "ga.init_calls"),
        "desk-oracle": ("oracle.states", "oracle.solves"),
    }
    plain_step = workloads.sim.Simulator.step
    for name, counts in exercised.items():
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            tally = tiny_run(name, tracer=tracer)
        assert tally.failed == 0
        metrics = tracing.layer_metrics(tracer, tracer.arrays())
        assert set(metrics) == expected
        assert all(metrics[c][0] > 0 for c in counts), name
        assert metrics["sim.events"][0] > 0 and metrics["sim.rejects"][0] == 0
    assert workloads.sim.Simulator.step is plain_step


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "desk-oracle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
