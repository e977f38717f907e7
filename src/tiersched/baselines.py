"""Arrival-assignment policies used as scheduling baselines.

A policy decides, the moment a job reaches a tier's dispatcher, which
resource queue it joins; the simulator appends the job at that queue's tail.
Baselines never touch jobs that are already queued; any reordering is left
to an optimizer.
"""

from __future__ import annotations

from enum import Enum
from weakref import ref

import numpy as np

from .model import EnvironmentConfig, count


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


# Per job added, eight unit roundoffs of a queue's free time (Higham's bound).
_ROUNDING = 2.0 ** -50


class LeastBacklogPolicy(AssignmentPolicy):
    """Append to the queue with the least unfinished work ahead of the tail.

    Backlogs are never negative and a later queue must be lower by more
    than 1e-12, so the scan ends at the first backlog of at most 1e-12.
    Free times are cached; near-ties are left to the exact walk (README)."""

    kind = PolicyKind.FCFS
    _served = None  # the simulator the cache follows, by weak reference

    def pick(self, sim, job_id: int, tier: int) -> int:
        if self._served is None or self._served() is not sim:
            self._served, self._cache = ref(sim), [None] * self.env.num_tiers
        # per tier: [installs, arrived, ends, bounds], as of the last pick
        cache, arrived, clock = self._cache[tier], sim.arrived[tier], sim.clock
        if cache is None or cache[1] != arrived - 1 or sim.policy is not self:
            self._cache[tier] = [None, arrived, None, None]
            return self._walk(sim, tier)
        if cache[0] != sim.installs:  # read the queues again
            ends, bounds = [], []
            for k in range(self.env.resources_per_tier[tier]):
                ends.append(clock + sim.backlog(tier, k))
                bounds.append(_ROUNDING * sim.queue_count(tier, k) * ends[k])
            cache[0], cache[2], cache[3] = sim.installs, ends, bounds
        cache[1], ends, bounds = arrived, cache[2], cache[3]
        # high and low: the walk's bar (best load - 1e-12) +/- the best's bound
        best, high, low = 0, float("inf"), float("inf")
        for k, end in enumerate(ends):
            load, tol = end - clock, bounds[k]
            if load < 0.0:  # idle; beyond its bound, the walk's load is 0.0
                load, tol = 0.0, tol if load > -tol else 0.0
            if load - tol >= high:
                continue
            if load + tol >= low:
                best = self._walk(sim, tier)  # too close to call
                break
            best, high, low = k, load - 1e-12 + tol, load - 1e-12 - tol
            if load + tol <= 1e-12:  # no later load can be lower by 1e-12
                break
        end, tol = ends[best], bounds[best]
        if end <= clock:  # an idle queue's chain starts again at the clock
            end, tol = clock, max(0.0, tol - (clock - end))
        end += sim.jobs.exec_times[tier][job_id]
        ends[best], bounds[best] = end, tol + _ROUNDING * end
        return best

    def _walk(self, sim, tier: int) -> int:
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
        seed = count("seed", seed)
        if seed < 0:
            raise ValueError(f"random policy seed must be nonnegative, got "
                             f"{seed}")
        self._rng = np.random.default_rng(seed)

    def pick(self, sim, job_id: int, tier: int) -> int:
        return int(self._rng.integers(self.env.resources_per_tier[tier]))


_POLICIES = {policy.kind: policy for policy in (
    LeastBacklogPolicy, WeightedRoundRobinPolicy,
    WeightedLeastConnectionPolicy, RandomAssignPolicy)}


def make_policy(kind: PolicyKind | str, env: EnvironmentConfig,
                seed: int = 0) -> AssignmentPolicy:
    return _POLICIES[PolicyKind(kind)](env, seed)
