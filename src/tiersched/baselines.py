"""Arrival-assignment policies used as scheduling baselines.

A policy decides, the moment a job reaches a tier's dispatcher, which
resource queue it joins.  Baselines always append at the tail and never
touch jobs that are already queued; any reordering is left to an optimizer.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

import numpy as np

from .model import EnvironmentConfig


class PolicyKind(Enum):
    FCFS = "fcfs"
    WRR = "wrr"
    WLC = "wlc"
    RANDOM = "random"


def _tier_weights(env: EnvironmentConfig,
                  weights: Sequence[Sequence[float]] | None) -> list[tuple[float, ...]]:
    if weights is None:
        return [(1.0,) * m for m in env.resources_per_tier]
    out = []
    for tier, row in enumerate(weights):
        row = tuple(float(w) for w in row)
        if len(row) != env.resources_per_tier[tier]:
            raise ValueError(f"tier {tier}: one weight per resource required")
        if any(w < 0 for w in row):
            raise ValueError(f"tier {tier}: weights must be nonnegative")
        if not any(w > 0 for w in row):
            raise ValueError(f"tier {tier}: at least one positive weight required")
        out.append(row)
    if len(out) != env.num_tiers:
        raise ValueError("one weight row per tier required")
    return out


class AssignmentPolicy:
    """Chooses (resource, position) for a job arriving at a tier."""

    kind: PolicyKind

    def assign(self, sim, job_id: int, tier: int) -> tuple[int, int]:
        k = self.pick(sim, job_id, tier)
        return k, sim.queue_count(tier, k)

    def pick(self, sim, job_id: int, tier: int) -> int:
        raise NotImplementedError


class LeastBacklogPolicy(AssignmentPolicy):
    """Append to the queue with the least unfinished work ahead of the tail."""

    kind = PolicyKind.FCFS

    def __init__(self, env: EnvironmentConfig):
        self.env = env

    def pick(self, sim, job_id: int, tier: int) -> int:
        best, best_load = 0, None
        for k in range(self.env.resources_per_tier[tier]):
            load = sim.backlog(tier, k)
            if best_load is None or load < best_load - 1e-12:
                best, best_load = k, load
        return best


class WeightedRoundRobinPolicy(AssignmentPolicy):
    """Cycle through resources, granting each ``weight`` consecutive slots."""

    kind = PolicyKind.WRR

    def __init__(self, env: EnvironmentConfig,
                 weights: Sequence[Sequence[float]] | None = None):
        self.env = env
        self.weights = _tier_weights(env, weights)
        # per tier: [current resource, assignments used in its slot]
        self._cursor = [[self._first_eligible(t), 0] for t in range(env.num_tiers)]

    def _first_eligible(self, tier: int) -> int:
        return next(k for k, w in enumerate(self.weights[tier]) if w > 0)

    def pick(self, sim, job_id: int, tier: int) -> int:
        cursor = self._cursor[tier]
        k = cursor[0]
        cursor[1] += 1
        if cursor[1] >= self.weights[tier][k]:
            m = self.env.resources_per_tier[tier]
            nxt = (k + 1) % m
            while self.weights[tier][nxt] <= 0:
                nxt = (nxt + 1) % m
            cursor[0], cursor[1] = nxt, 0
        return k


class WeightedLeastConnectionPolicy(AssignmentPolicy):
    """Fewest resident jobs per unit weight; ties go to the lowest index."""

    kind = PolicyKind.WLC

    def __init__(self, env: EnvironmentConfig,
                 weights: Sequence[Sequence[float]] | None = None):
        self.env = env
        self.weights = _tier_weights(env, weights)

    def pick(self, sim, job_id: int, tier: int) -> int:
        best, best_ratio = None, None
        for k, w in enumerate(self.weights[tier]):
            if w <= 0:
                continue
            ratio = sim.queue_count(tier, k) / w
            if best_ratio is None or ratio < best_ratio - 1e-12:
                best, best_ratio = k, ratio
        if best is None:
            raise AssertionError(
                f"tier {tier}: no resource with a positive weight")
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
                weights: Sequence[Sequence[float]] | None = None,
                seed: int = 0) -> AssignmentPolicy:
    kind = PolicyKind(kind) if not isinstance(kind, PolicyKind) else kind
    if kind is PolicyKind.FCFS:
        return LeastBacklogPolicy(env)
    if kind is PolicyKind.WRR:
        return WeightedRoundRobinPolicy(env, weights)
    if kind is PolicyKind.WLC:
        return WeightedLeastConnectionPolicy(env, weights)
    return RandomAssignPolicy(env, seed=seed)
