"""Shared builders for simulator states used across the test modules."""

from __future__ import annotations

import pytest

from tiersched import (
    EnvironmentConfig,
    Job,
    JobProgress,
    JobSet,
    Schedule,
    Snapshot,
    WorkloadSpec,
    generate,
    make_policy,
    simulate_to_snapshot,
    validate_schedule,
)


def job(jid, exec_times, arrival=0.0, allowance=None, fraction=0.2):
    """Job with an explicit allowance (default: fraction of total work)."""
    total = sum(exec_times)
    slack = allowance if allowance is not None else fraction * total
    return Job(id=jid, arrival=arrival, exec_times=tuple(exec_times),
               target_completion=arrival + total + slack)


def fresh_snapshot(env, jobs, orders, busy=None, clock=0.0, elapsed=None,
                   completed=None):
    """Snapshot where every scheduled job sits in its first (or stated) tier.

    ``orders`` follows Schedule layout.  ``elapsed`` and ``completed`` map
    job ids to elapsed waits and completed-tier wait tuples (zeros by
    default).
    """
    elapsed = elapsed or {}
    completed = completed or {}
    busy = busy or tuple(tuple(None for _ in row) for row in orders)
    schedule = Schedule(orders=orders, busy=busy)
    progress = {}
    for tier, row in enumerate(orders):
        for queue in row:
            for jid in queue:
                progress[jid] = JobProgress(
                    completed_waits=tuple(completed.get(jid, (0.0,) * tier)),
                    elapsed_wait=elapsed.get(jid, 0.0),
                )
    return Snapshot(env=env, jobs=jobs, clock=clock, schedule=schedule,
                    progress=progress)


def genome_valid(genome, snap):
    """Whether ``genome`` installed over ``snap`` passes ``validate_schedule``
    against ``snap``; ``with_waiting`` refuses a genome whose segment count
    differs from the queue count."""
    try:
        schedule = snap.schedule.with_waiting(genome)
    except ValueError:
        return False
    return validate_schedule(schedule, snap.env, snap.jobs, snapshot=snap).ok


def loaded_snapshot(arrival_rate, num_jobs, seed, env=None, policy="fcfs"):
    """Snapshot of a seeded workload at the instant its last job arrives."""
    env = env or EnvironmentConfig()
    jobs = generate(WorkloadSpec(arrival_rate=arrival_rate, num_jobs=num_jobs,
                                 seed=seed), env)
    return simulate_to_snapshot(jobs, env, make_policy(policy, env))


@pytest.fixture
def env_1x1():
    return EnvironmentConfig(num_tiers=1, resources_per_tier=(1,))


@pytest.fixture
def env_2x2():
    return EnvironmentConfig(num_tiers=2, resources_per_tier=(2, 2))


@pytest.fixture
def env_2x3():
    return EnvironmentConfig()
