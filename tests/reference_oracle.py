"""State-by-state reference for ``tiersched.exhaustive_best``.

``reference_best`` forms each schedule of a tier as a tuple of per-queue id
tuples and scores it with one ``ScheduleEvaluator.queue_score`` call per
queue, keeping the first minimum it meets unless a later tie is
lexicographically smaller.  The package scores the same states a chunk of
permutations at a time with ``ScheduleEvaluator.prefix_scores``; the tests
hold the two to each other, schedule, fitness bits and state count alike.
"""

from __future__ import annotations

from itertools import combinations, permutations

from tiersched import (
    AllowanceMode,
    InstanceTooLargeError,
    OracleResult,
    ScheduleEvaluator,
    Snapshot,
)
from tiersched.oracle import DEFAULT_MAX_STATES, count_states


def ordered_splits(ids: list[int], queues: int):
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


def reference_best(snapshot: Snapshot,
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
        for blocks in ordered_splits(ids, m):
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
