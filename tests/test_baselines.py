import numpy as np
import pytest

from tiersched import EnvironmentConfig, JobSet, WorkloadSpec, generate, make_policy
from tiersched.baselines import PolicyKind
from tiersched.sim import Simulator

from conftest import job


def burst_jobs(count, exec_time=100.0):
    """Near-simultaneous arrivals with service too long to complete."""
    return JobSet(tuple(
        job(i + 1, (exec_time,), arrival=i * 1e-6) for i in range(count)))


def assign_all(env, policy, jobs):
    sim = Simulator(jobs, env, policy)
    sim.run(until_external_arrivals=len(jobs))
    return [list(sim.queue(0, k)) for k in range(env.resources_per_tier[0])]


class TestWeightedRoundRobin:
    def test_equal_weights_cycle(self):
        env = EnvironmentConfig(num_tiers=1, resources_per_tier=(3,))
        queues = assign_all(env, make_policy("wrr", env), burst_jobs(6))
        assert queues == [[1, 4], [2, 5], [3, 6]]

    def test_each_tier_keeps_its_own_cursor(self):
        env = EnvironmentConfig(num_tiers=2, resources_per_tier=(3, 2))
        policy = make_policy("wrr", env)
        picks = [(t, policy.pick(None, 1, t)) for t in (0, 1, 0, 1, 0, 1, 0)]
        assert picks == [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 0),
                         (0, 0)]


class TestWeightedLeastConnection:
    def test_spreads_simultaneous_burst(self):
        env = EnvironmentConfig(num_tiers=1, resources_per_tier=(3,))
        sim = Simulator(burst_jobs(3), env, make_policy("wlc", env))
        sim.run(until_external_arrivals=3)
        assert [sim.queue_count(0, k) for k in range(3)] == [1, 1, 1]

    def test_least_connection_counts_and_ties(self):
        env = EnvironmentConfig(num_tiers=1, resources_per_tier=(3,))
        policy = make_policy("wlc", env)

        class FakeSim:
            def __init__(self, counts):
                self.counts = counts

            def queue_count(self, tier, k):
                return self.counts[k]

        assert policy.pick(FakeSim([2, 0, 1]), 1, 0) == 1
        assert policy.pick(FakeSim([1, 1, 1]), 1, 0) == 0
        assert policy.pick(FakeSim([3, 2, 2]), 1, 0) == 1


class TestRandomAssign:
    def test_seed_determinism_and_range(self):
        env = EnvironmentConfig(num_tiers=1, resources_per_tier=(3,))
        a = assign_all(env, make_policy("random", env, seed=11), burst_jobs(30))
        b = assign_all(env, make_policy("random", env, seed=11), burst_jobs(30))
        c = assign_all(env, make_policy("random", env, seed=12), burst_jobs(30))
        assert a == b
        assert a != c
        assert sum(len(q) for q in a) == 30


class TestAppendOnly:
    @pytest.mark.parametrize("name", ["fcfs", "wrr", "wlc", "random"])
    def test_policies_never_reorder_queued_jobs(self, env_2x3, name):
        jobs = generate(WorkloadSpec(arrival_rate=6.0, num_jobs=30, seed=17),
                        env_2x3)
        sim = Simulator(jobs, env_2x3, make_policy(name, env_2x3, seed=17))
        previous = {
            (t, k): [] for t in range(2)
            for k in range(env_2x3.resources_per_tier[t])}
        while sim.step():
            for key in previous:
                now = list(sim.queue(*key))
                old = previous[key]
                # A queue may lose its head (completion) and gain at most
                # one tail append per event; the middle never changes.
                candidates = (old, old[1:])
                assert any(now == c or (now[:-1] == c) for c in candidates)
                previous[key] = now


class TestPolicyFactory:
    def test_kind_round_trip(self, env_2x3):
        for kind in PolicyKind:
            assert make_policy(kind, env_2x3).kind is kind
            assert make_policy(kind.value, env_2x3).kind is kind
