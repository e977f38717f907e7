"""Arrival-assignment policies used as scheduling baselines.

A policy decides, the moment a job reaches a tier's dispatcher, which
resource queue it joins; the simulator appends the job at that queue's tail.
Baselines never touch jobs that are already queued; any reordering is left
to an optimizer.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .model import EnvironmentConfig


class PolicyKind(Enum):
    FCFS = "fcfs"
    WRR = "wrr"
    WLC = "wlc"
    RANDOM = "random"


class AssignmentPolicy:
    """Names the resource queue a job arriving at a tier joins.  ``seed``
    feeds the policies that draw at random; the others ignore it."""

    kind: PolicyKind

    def __init__(self, env: EnvironmentConfig, seed: int = 0):
        self.env = env

    def assign(self, sim, job_id: int, tier: int) -> int:
        return self.pick(sim, job_id, tier)

    def pick(self, sim, job_id: int, tier: int) -> int:
        raise NotImplementedError


class LeastBacklogPolicy(AssignmentPolicy):
    """Append to the queue with the least unfinished work ahead of the tail.

    Backlogs are never negative and a later queue must be lower by more
    than 1e-12, so the scan ends at the first backlog of at most 1e-12."""

    kind = PolicyKind.FCFS

    def pick(self, sim, job_id: int, tier: int) -> int:
        best, best_load = 0, None
        for k in range(self.env.resources_per_tier[tier]):
            load = sim.backlog(tier, k)
            if best_load is None or load < best_load - 1e-12:
                best, best_load = k, load
                if load <= 1e-12:
                    break
        return best


class WeightedRoundRobinPolicy(AssignmentPolicy):
    """Cycle through a tier's resources, one slot each (unit weights)."""

    kind = PolicyKind.WRR

    def __init__(self, env: EnvironmentConfig, seed: int = 0):
        super().__init__(env)
        self._cursor = [0] * env.num_tiers

    def pick(self, sim, job_id: int, tier: int) -> int:
        k = self._cursor[tier]
        self._cursor[tier] = (k + 1) % self.env.resources_per_tier[tier]
        return k


class WeightedLeastConnectionPolicy(AssignmentPolicy):
    """Fewest resident jobs (unit weights); ties go to the lowest index."""

    kind = PolicyKind.WLC

    def pick(self, sim, job_id: int, tier: int) -> int:
        best, fewest = 0, None
        for k in range(self.env.resources_per_tier[tier]):
            count = sim.queue_count(tier, k)
            if fewest is None or count < fewest:
                best, fewest = k, count
        return best


class RandomAssignPolicy(AssignmentPolicy):
    """Uniform random resource choice from a seeded stream."""

    kind = PolicyKind.RANDOM

    def __init__(self, env: EnvironmentConfig, seed: int = 0):
        super().__init__(env)
        self._rng = np.random.default_rng(seed)

    def pick(self, sim, job_id: int, tier: int) -> int:
        return int(self._rng.integers(self.env.resources_per_tier[tier]))


_POLICIES = {policy.kind: policy for policy in (
    LeastBacklogPolicy, WeightedRoundRobinPolicy,
    WeightedLeastConnectionPolicy, RandomAssignPolicy)}


def make_policy(kind: PolicyKind | str, env: EnvironmentConfig,
                seed: int = 0) -> AssignmentPolicy:
    return _POLICIES[PolicyKind(kind)](env, seed)
