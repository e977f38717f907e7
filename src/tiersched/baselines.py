"""Arrival-assignment policies used as scheduling baselines.

A policy decides, the moment a job reaches a tier's dispatcher, which
resource queue it joins.  Baselines always append at the tail and never
touch jobs that are already queued; any reordering is left to an optimizer.
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
    """Chooses (resource, position) for a job arriving at a tier."""

    kind: PolicyKind

    def assign(self, sim, job_id: int, tier: int) -> tuple[int, int]:
        k = self.pick(sim, job_id, tier)
        return k, sim.queue_count(tier, k)

    def pick(self, sim, job_id: int, tier: int) -> int:
        raise NotImplementedError


class LeastBacklogPolicy(AssignmentPolicy):
    """Append to the queue with the least unfinished work ahead of the tail.

    Backlogs are never negative and a later queue must be lower by more
    than 1e-12, so the scan ends at the first backlog of at most 1e-12."""

    kind = PolicyKind.FCFS

    def __init__(self, env: EnvironmentConfig):
        self.env = env

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

    def __init__(self, env: EnvironmentConfig):
        self.env = env
        self._cursor = [0] * env.num_tiers

    def pick(self, sim, job_id: int, tier: int) -> int:
        k = self._cursor[tier]
        self._cursor[tier] = (k + 1) % self.env.resources_per_tier[tier]
        return k


class WeightedLeastConnectionPolicy(AssignmentPolicy):
    """Fewest resident jobs (unit weights); ties go to the lowest index."""

    kind = PolicyKind.WLC

    def __init__(self, env: EnvironmentConfig):
        self.env = env

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
        self.env = env
        self._rng = np.random.default_rng(seed)

    def pick(self, sim, job_id: int, tier: int) -> int:
        return int(self._rng.integers(self.env.resources_per_tier[tier]))


def make_policy(kind: PolicyKind | str, env: EnvironmentConfig,
                seed: int = 0) -> AssignmentPolicy:
    kind = PolicyKind(kind) if not isinstance(kind, PolicyKind) else kind
    if kind is PolicyKind.FCFS:
        return LeastBacklogPolicy(env)
    if kind is PolicyKind.WRR:
        return WeightedRoundRobinPolicy(env)
    if kind is PolicyKind.WLC:
        return WeightedLeastConnectionPolicy(env)
    return RandomAssignPolicy(env, seed=seed)
