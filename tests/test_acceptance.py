"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Numbers that depend on randomness are pinned to canonical seeds; the
canonical experiment instances are documented in the README.
"""

import json
import statistics
import time

import numpy as np
import pytest

from tiersched import (
    AllowanceMode,
    EnvironmentConfig,
    GAConfig,
    QueueVariant,
    ScheduleEvaluator,
    Simulator,
    WorkloadSpec,
    differentiated_allowance,
    evolve,
    exhaustive_best,
    generate,
    make_policy,
    simulate_to_snapshot,
    total_penalty,
)
from tiersched.ga import (
    crossover,
    mutate,
    mutation_layout,
    random_chromosome,
)
from tiersched.penalty import penalty
from tiersched.cli import main as cli_main

from conftest import fresh_snapshot, genome_valid, job, loaded_snapshot


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


class TestCriterion1Equations:
    def test_equation_suite(self, env_1x1):
        started = time.time()
        checks = []

        j = job(1, (2.0, 3.0), allowance=10.0)
        checks.append(abs(differentiated_allowance(j, 0) - 4.0) <= 1e-12)

        checks.append(penalty(0.0, 1.0, 0.01) == 0.0)
        checks.append(penalty(-7.0, 1.0, 0.01) == 0.0)
        checks.append(abs(penalty(100.0, 1.0, 0.01) - 0.6321205588285577)
                      <= 1e-12)

        # Violation-time fixtures: exactly met, violated, and slack.
        from tiersched import JobSet
        from expected_waits import resident, violation_time
        snap1 = fresh_snapshot(env_1x1, JobSet((job(1, (1.0,), allowance=5.0),)),
                               (((1,),),), elapsed={1: 5.0})
        checks.append(abs(violation_time(*resident(snap1, 1), snap1.schedule,
                                         snap1.jobs, AllowanceMode.TOTAL)) <= 1e-12)

        # Fitness hand algebra on the two-permutation.
        jobs2 = JobSet((job(1, (2.0,)), job(2, (5.0,))))
        snap2 = fresh_snapshot(env_1x1, jobs2, (((1, 2),),))
        fwd = ScheduleEvaluator(snap2, AllowanceMode.TOTAL).fitness(((1, 2),))
        bwd = ScheduleEvaluator(snap2, AllowanceMode.TOTAL).fitness(((2, 1),))
        checks.append(abs((fwd - bwd) - (2.0 - 5.0)) <= 1e-12)
        checks.append(abs(fwd - ((-0.4) + (2.0 - 1.0))) <= 1e-12)

        # Per-tier allowance shares reassemble the total allowance.
        env3 = EnvironmentConfig(num_tiers=3, resources_per_tier=(1, 1, 1))
        drawn = generate(WorkloadSpec(arrival_rate=1.0, num_jobs=10_000,
                                      seed=101), env3)
        worst = max(abs(sum(differentiated_allowance(j, t) for t in range(3))
                        - j.allowance) for j in drawn)
        checks.append(worst <= 1e-9)

        elapsed = time.time() - started
        ok = all(checks) and elapsed < 5.0
        assert report(1, ok, f"equation fixtures, share residual {worst:.2e} "
                             f"({elapsed:.1f}s)")


class TestCriterion2Queueing:
    def test_mm1_degeneration(self):
        started = time.time()
        lam, mu = 0.5, 1.0
        expected = lam / (mu * (mu - lam))
        env = EnvironmentConfig(num_tiers=1, resources_per_tier=(1,))
        jobs = generate(WorkloadSpec(arrival_rate=lam, num_jobs=100_000,
                                     seed=3, service_rate=mu), env)
        rep = Simulator(jobs, env).run().report()
        mean = sum(o.waits[0] for o in rep.per_job.values()) / len(jobs)
        elapsed = time.time() - started
        ok = abs(mean - expected) / expected < 0.05 and elapsed < 30.0
        assert report(2, ok, f"M/M/1 mean wait {mean:.4f} vs {expected:.4f} "
                             f"({elapsed:.1f}s)")


class TestCriterion3OracleEquivalence:
    def test_genetic_matches_exhaustive_on_desk_instances(self, env_2x2):
        started = time.time()
        snapshots = []
        seed = 0
        while len(snapshots) < 50:
            seed += 1
            snap = loaded_snapshot(4.0, 9, seed=seed, env=env_2x2)
            if 1 <= len(snap.waiting_ids()) <= 8:
                snapshots.append((seed, snap))
        hits = 0
        beaten = 0
        for seed, snap in snapshots:
            oracle = exhaustive_best(snap, AllowanceMode.TOTAL)
            result = evolve(snap, GAConfig(population=10, generations=1000,
                                           seed=seed))
            if result.best_fitness < oracle.fitness - 1e-9:
                beaten += 1
            tolerance = 0.05 * max(abs(oracle.fitness), 1e-9)
            if result.best_fitness <= oracle.fitness + tolerance:
                hits += 1
        elapsed = time.time() - started
        ok = hits >= 45 and beaten == 0 and elapsed < 300.0
        assert report(3, ok, f"{hits}/50 within 5% of the exhaustive optimum, "
                             f"{beaten} impossible wins ({elapsed:.1f}s)")


class TestCriterion4ImprovementClaim:
    def test_genetic_scheduling_sheds_violation_time(self, env_2x3):
        started = time.time()
        variants = {
            "virtualized-total": (QueueVariant.VIRTUALIZED, AllowanceMode.TOTAL),
            "segmented-total": (QueueVariant.SEGMENTED, AllowanceMode.TOTAL),
            "virtualized-per-tier": (QueueVariant.VIRTUALIZED,
                                     AllowanceMode.PER_TIER),
            "segmented-per-tier": (QueueVariant.SEGMENTED,
                                   AllowanceMode.PER_TIER),
        }
        improvements = {name: [] for name in variants}
        sizes = []
        for seed in range(1, 11):
            snap = loaded_snapshot(7.0, 110, seed=seed, env=env_2x3)
            sizes.append(len(snap.waiting_ids()))
            for name, (variant, mode) in variants.items():
                initial = total_penalty(snap, mode).total_violation
                result = evolve(snap, GAConfig(population=10, generations=1000,
                                               variant=variant, mode=mode,
                                               seed=seed))
                enhanced = total_penalty(
                    snap, mode, schedule=result.best_schedule).total_violation
                improvements[name].append(100.0 * (initial - enhanced) / initial)
        medians = {n: statistics.median(v) for n, v in improvements.items()}
        elapsed = time.time() - started
        sizes_ok = all(45 <= s <= 110 for s in sizes)
        ok = all(m >= 20.0 for m in medians.values()) and sizes_ok \
            and elapsed < 600.0
        detail = ", ".join(f"{n} {m:.1f}%" for n, m in medians.items())
        assert report(4, ok, f"median violation-time reduction: {detail}; "
                             f"waiting sizes {min(sizes)}-{max(sizes)} "
                             f"({elapsed:.1f}s)")


def _comparison_rows(seeds, env):
    """Frozen-state policy comparison on the canonical instance."""
    totals = {k: [] for k in
              ("wrr", "wlc", "v_tot", "s_tot", "v_pt", "s_pt")}
    maxima = {k: [] for k in totals}
    ga_rows = {
        "v_tot": (QueueVariant.VIRTUALIZED, AllowanceMode.TOTAL),
        "s_tot": (QueueVariant.SEGMENTED, AllowanceMode.TOTAL),
        "v_pt": (QueueVariant.VIRTUALIZED, AllowanceMode.PER_TIER),
        "s_pt": (QueueVariant.SEGMENTED, AllowanceMode.PER_TIER),
    }
    for seed in seeds:
        jobs = generate(WorkloadSpec(arrival_rate=2.5, num_jobs=200,
                                     seed=seed), env)
        for name in ("wrr", "wlc"):
            snap = simulate_to_snapshot(jobs, env, make_policy(name, env))
            bd = total_penalty(snap, AllowanceMode.TOTAL)
            totals[name].append(bd.total_violation)
            maxima[name].append(bd.max_violation)
        snap = simulate_to_snapshot(jobs, env, make_policy("fcfs", env))
        for name, (variant, mode) in ga_rows.items():
            result = evolve(snap, GAConfig(population=10, generations=1000,
                                           variant=variant, mode=mode,
                                           seed=seed))
            bd = total_penalty(snap, mode, schedule=result.best_schedule)
            totals[name].append(bd.total_violation)
            maxima[name].append(bd.max_violation)
    return totals, maxima


@pytest.fixture(scope="module")
def comparison(env_2x3=None):
    env = EnvironmentConfig()
    return _comparison_rows(range(1, 11), env)


class TestCriterion5OrderingClaim:
    def test_genetic_variants_dominate_baselines(self, comparison):
        totals, _ = comparison
        med = {k: statistics.median(v) for k, v in totals.items()}
        margins = {}
        for row in ("v_tot", "s_tot", "v_pt", "s_pt"):
            margins[row] = min(
                100.0 * (med["wlc"] - med[row]) / med["wlc"],
                100.0 * (med["wrr"] - med[row]) / med["wrr"])
        beats = all(m >= 25.0 for m in margins.values())
        virt_wins = (med["v_tot"] < med["s_tot"]
                     and med["v_pt"] < med["s_pt"])
        ok = beats and virt_wins
        detail = ", ".join(f"{r} +{m:.1f}%" for r, m in margins.items())
        assert report("5-ordering", ok,
                      f"worst margin vs baselines: {detail}; "
                      f"virtualized<segmented: {virt_wins}")

    def test_per_tier_virtualized_has_lowest_maximum(self, comparison):
        _, maxima = comparison
        keys = list(maxima)
        wins = sum(
            1 for i in range(10)
            if maxima["v_pt"][i] <= min(maxima[k][i] for k in keys) + 1e-9)
        ok = wins >= 8
        assert report("5-max-violation", ok,
                      f"per-tier virtualized had the lowest maximum in "
                      f"{wins}/10 seed sets")


class TestCriterion6Structure:
    def test_operator_fuzz_and_budget(self):
        started = time.time()
        snap = loaded_snapshot(6.0, 24, seed=31)
        rng = np.random.default_rng(31)
        base = snap.schedule.flat_waiting()
        pool = [base] + [random_chromosome(snap, rng) for _ in range(5)]
        bad = 0
        for i in range(10_000):
            ca, cb = crossover(pool[i % 6], pool[(i * 5 + 2) % 6], rng)
            bad += not genome_valid(ca, snap)
            bad += not genome_valid(cb, snap)
            pool[i % 6] = ca
        mutant = base
        tiers = tuple(t for t, _ in snap.env.iter_queues())
        layout = mutation_layout(base, tiers)
        for _ in range(10_000):
            mutant = mutate(mutant, layout, rng)
            bad += not genome_valid(mutant, snap)

        config = GAConfig(population=10, generations=300, seed=7)
        result = evolve(snap, config)
        budget_ok = result.evaluations == 10 * 300
        bests = [h.best for h in result.history]
        monotone = all(b <= a + 1e-12 for a, b in zip(bests, bests[1:]))
        elapsed = time.time() - started
        ok = bad == 0 and budget_ok and monotone
        assert report(6, ok, f"{bad} invariant violations in 2x10^4 operator "
                             f"applications; budget exact: {budget_ok}; "
                             f"elitism monotone: {monotone} ({elapsed:.1f}s)")

    def test_pipeline_bit_determinism(self, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            code = cli_main(["run", "--jobs", "60", "--lambda", "6.0",
                             "--seed", "8", "--policy", "ga-virtualized",
                             "--generations", "150", "--out-dir", str(d)])
            assert code == 0
        same = all(
            (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
            for name in ("summary.json", "jobs.jsonl", "history.jsonl"))
        assert report("6-determinism", same,
                      "identical seeds reproduce identical report bytes")


class TestCriterion7ReportIntegrity:
    def test_summaries_rederive_from_job_records(self, tmp_path):
        run_dir = tmp_path / "run"
        code = cli_main(["run", "--jobs", "80", "--lambda", "5.0", "--seed",
                         "9", "--policy", "ga-virtualized", "--mode",
                         "per-tier", "--generations", "200",
                         "--out-dir", str(run_dir)])
        assert code == 0
        summary = json.loads((run_dir / "summary.json").read_text())
        records = [json.loads(line)
                   for line in (run_dir / "jobs.jsonl").read_text().splitlines()]
        run_ok = True
        for phase in ("initial", "enhanced"):
            alphas = [r["alpha"] for r in records if r["phase"] == phase]
            run_ok &= abs(sum(max(a, 0.0) for a in alphas)
                          - summary[phase]["violation"]) <= 1e-9
            run_ok &= abs(sum(r["cost"] for r in records
                              if r["phase"] == phase)
                          - summary[phase]["penalty"]) <= 1e-9

        cmp_dir = tmp_path / "cmp"
        code = cli_main(["compare", "--jobs", "50", "--lambda", "4.0",
                         "--policies", "wrr", "wlc", "ga-virtualized",
                         "--seeds", "1", "2", "3", "--generations", "150",
                         "--out-dir", str(cmp_dir)])
        assert code == 0
        runs = [json.loads(line)
                for line in (cmp_dir / "runs.jsonl").read_text().splitlines()]
        jobs = [json.loads(line)
                for line in (cmp_dir / "jobs.jsonl").read_text().splitlines()]
        cmp_ok = True
        for row in runs:
            alphas = [r["alpha"] for r in jobs
                      if r["policy"] == row["policy"] and r["seed"] == row["seed"]]
            cmp_ok &= len(alphas) == row["jobs"]
            cmp_ok &= abs(sum(max(a, 0.0) for a in alphas)
                          - row["violation_total"]) <= 1e-9
            cmp_ok &= abs(max((max(a, 0.0) for a in alphas), default=0.0)
                          - row["violation_max"]) <= 1e-9
            cmp_ok &= abs(sum(max(a, 0.0) for a in alphas) / max(len(alphas), 1)
                          - row["violation_mean"]) <= 1e-9
        ok = run_ok and cmp_ok
        assert report(7, ok, f"run records rederive summaries: {run_ok}; "
                             f"compare records rederive tables: {cmp_ok}")
