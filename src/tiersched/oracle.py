"""Exhaustive minimum-violation search for tiny frozen snapshots.

Ground truth for the genetic scheduler: enumerate every assignment of each
tier's waiting jobs to its queues and every ordering within those queues,
and keep the global minimum of the signed violation total.  Queue scores are
independent across tiers, so each tier is enumerated separately and the
minima add; the enumerated space is still exactly the full cross product.
Only sensible at desk scale (the state count is super-exponential).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations

from .model import Schedule, SchedulingError, Snapshot
from .penalty import AllowanceMode, ScheduleEvaluator

#: Ceiling on enumerated schedules before the oracle refuses.
DEFAULT_MAX_STATES = 5_000_000


class InstanceTooLargeError(SchedulingError):
    """The snapshot's schedule space exceeds the enumeration ceiling."""


@dataclass(frozen=True)
class OracleResult:
    schedule: Schedule
    fitness: float
    states: int


def count_states(snapshot: Snapshot) -> int:
    """Number of distinct schedules the oracle would enumerate."""
    total = 0
    for tier in range(snapshot.env.num_tiers):
        k = len(snapshot.waiting_ids(tier))
        m = snapshot.env.resources_per_tier[tier]
        total += math.factorial(k) * math.comb(k + m - 1, m - 1)
    return total


def _ordered_splits(ids: list[int], queues: int):
    """All ways to deal an ordered id list into ``queues`` ordered queues.

    Yields tuples of per-queue tuples; every permutation of ``ids`` combined
    with every split point covers each arrangement exactly once.
    """
    n = len(ids)
    if n == 0:
        yield ((),) * queues
        return
    for perm in permutations(ids):
        for bars in combinations(range(n + queues - 1), queues - 1):
            blocks = []
            prev = 0
            for i, bar in enumerate(bars):
                size = bar - i - prev
                blocks.append(perm[prev:prev + size])
                prev += size
            blocks.append(perm[prev:])
            yield tuple(blocks)


def exhaustive_best(snapshot: Snapshot,
                    mode: AllowanceMode = AllowanceMode.TOTAL) -> OracleResult:
    """Certified minimizer of the signed violation total.

    Ties break toward the lexicographically smallest schedule (per-queue id
    tuples, tier-major), which makes the result deterministic.  Refuses
    instances whose enumeration would exceed ``DEFAULT_MAX_STATES``.
    """
    estimated = count_states(snapshot)
    if estimated > DEFAULT_MAX_STATES:
        raise InstanceTooLargeError(
            f"instance needs {estimated} schedule evaluations, above the "
            f"ceiling of {DEFAULT_MAX_STATES}")

    evaluator = ScheduleEvaluator(snapshot, mode)
    env = snapshot.env
    best_orders: list[tuple[tuple[int, ...], ...]] = []
    total_fitness = evaluator.pinned_total
    states = 0
    for tier in range(env.num_tiers):
        ids = snapshot.waiting_ids(tier)
        m = env.resources_per_tier[tier]
        offset = env.queue_offset(tier)
        best_blocks = None
        best_score = None
        for blocks in _ordered_splits(ids, m):
            states += 1
            score = 0.0
            for k, block in enumerate(blocks):
                score += evaluator.queue_score(offset + k, block)
            if (best_score is None or score < best_score
                    or (score == best_score and blocks < best_blocks)):
                best_blocks, best_score = blocks, score
        if best_blocks is None:
            raise AssertionError(f"tier {tier}: no schedule enumerated")
        best_orders.extend(best_blocks)
        total_fitness += best_score
    schedule = snapshot.schedule.with_waiting(best_orders)
    return OracleResult(schedule=schedule, fitness=total_fitness, states=states)
