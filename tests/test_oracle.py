import math

import numpy as np
import pytest

from tiersched import (
    AllowanceMode,
    EnvironmentConfig,
    GAConfig,
    InstanceTooLargeError,
    JobSet,
    ScheduleEvaluator,
    evolve,
    exhaustive_best,
)
from tiersched.ga import random_chromosome
from tiersched.oracle import count_states

from conftest import fresh_snapshot, job, loaded_snapshot


class TestTinyInstances:
    def test_single_job_only_schedule(self, env_1x1):
        jobs = JobSet((job(1, (2.0,)),))
        snap = fresh_snapshot(env_1x1, jobs, (((1,),),))
        result = exhaustive_best(snap, AllowanceMode.TOTAL)
        assert result.fitness == pytest.approx(-jobs.job(1).allowance)
        assert result.schedule.queue(0, 0) == (1,)

    def test_two_jobs_shorter_first(self, env_1x1):
        jobs = JobSet((job(1, (5.0,)), job(2, (2.0,))))
        snap = fresh_snapshot(env_1x1, jobs, (((1, 2),),))
        result = exhaustive_best(snap, AllowanceMode.TOTAL)
        assert result.schedule.queue(0, 0) == (2, 1)
        # Hand algebra: leader scores -allowance, the trailer absorbs the
        # leader's execution time.
        expected = (-jobs.job(2).allowance) + (2.0 - jobs.job(1).allowance)
        assert result.fitness == pytest.approx(expected)

    def test_deterministic_lexicographic_tie_break(self, env_1x1):
        jobs = JobSet((job(1, (2.0,)), job(2, (2.0,))))
        snap = fresh_snapshot(env_1x1, jobs, (((1, 2),),))
        result = exhaustive_best(snap, AllowanceMode.TOTAL)
        # Equal execution times tie; the id-ordered schedule wins.
        assert result.schedule.queue(0, 0) == (1, 2)


class TestSearchSpace:
    def test_state_count_formula(self, env_2x2):
        snap = loaded_snapshot(5.0, 7, seed=1, env=env_2x2)
        per_tier = []
        for tier in range(2):
            k = len(snap.waiting_ids(tier))
            per_tier.append(math.factorial(k) * math.comb(k + 1, 1))
        assert count_states(snap) == sum(per_tier)
        result = exhaustive_best(snap)
        assert result.states == count_states(snap)

    def test_refuses_oversized_instances(self):
        env = EnvironmentConfig(num_tiers=1, resources_per_tier=(3,))
        jobs = JobSet(tuple(job(i + 1, (1.0,)) for i in range(12)))
        snap = fresh_snapshot(
            env, jobs, ((tuple(range(1, 13)), (), ()),))
        with pytest.raises(InstanceTooLargeError, match="evaluations"):
            exhaustive_best(snap)
        # An explicit larger ceiling admits the same instance.
        assert count_states(snap) == math.factorial(12) * math.comb(14, 2)


class TestCertifiedMinimality:
    def test_no_sampled_schedule_beats_oracle(self, env_2x2):
        rng = np.random.default_rng(8)
        for seed in (2, 3, 4):
            snap = loaded_snapshot(5.0, 8, seed=seed, env=env_2x2)
            result = exhaustive_best(snap, AllowanceMode.TOTAL)
            for _ in range(300):
                chrom = random_chromosome(snap, rng)
                assert (ScheduleEvaluator(snap, AllowanceMode.TOTAL).fitness(
                    chrom) >= result.fitness - 1e-9)

    def test_genetic_search_never_beats_oracle(self, env_2x2):
        for seed in (5, 6, 7):
            snap = loaded_snapshot(5.0, 8, seed=seed, env=env_2x2)
            oracle = exhaustive_best(snap, AllowanceMode.TOTAL)
            ga = evolve(snap, GAConfig(generations=300, seed=seed))
            assert ga.best_fitness >= oracle.fitness - 1e-9

    @pytest.mark.parametrize("mode", list(AllowanceMode))
    def test_oracle_schedule_scores_its_fitness(self, env_2x2, mode):
        snap = loaded_snapshot(5.0, 8, seed=9, env=env_2x2)
        result = exhaustive_best(snap, mode)
        evaluator = ScheduleEvaluator(snap, mode)
        assert evaluator.fitness(result.schedule.flat_waiting()) == \
            pytest.approx(result.fitness, abs=1e-9)
