"""Exhaustive minimum-violation search for tiny frozen snapshots.

Ground truth for the genetic scheduler: enumerate every assignment of each
tier's waiting jobs to its queues and every ordering within those queues,
and keep the global minimum of the signed violation total.  Queue scores are
independent across tiers, so each tier is enumerated separately and the
minima add; the enumerated space is still exactly the full cross product.

Every state is still formed and compared, but as rows of arrays: a tier's
permutations come in chunks of ``CHUNK_ROWS``, and each stars-and-bars split
of a chunk cuts every row into the same per-queue blocks.  A block's score
is a column of :meth:`ScheduleEvaluator.prefix_scores`, the same additions
as :meth:`ScheduleEvaluator.queue_score`, so each state's score is bit for
bit the one a state-by-state loop gets.  Only rows that reach the running
minimum are decoded into schedules for the tie-break.  Only sensible at
desk scale (the state count is super-exponential).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import combinations

import numpy as np

from .model import Schedule, SchedulingError, Snapshot
from .penalty import AllowanceMode, ScheduleEvaluator

#: Ceiling on enumerated schedules before the oracle refuses.
DEFAULT_MAX_STATES = 5_000_000

#: Permutations scored per array pass; bounds the oracle's working memory.
CHUNK_ROWS = 2048


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
        k = len(snapshot.waiting_by_tier[tier])
        m = snapshot.env.resources_per_tier[tier]
        total += math.factorial(k) * math.comb(k + m - 1, m - 1)
    return total


def _block_bounds(bars: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    """Each queue's ``(start, stop)`` slice of a permutation of ``n``
    entries, given the bar positions that deal it into ``len(bars) + 1``
    queues (a stars-and-bars combination of ``range(n + len(bars))``)."""
    bounds = []
    prev = 0
    for i, bar in enumerate(bars):
        bounds.append((prev, bar - i))
        prev = bar - i
    return bounds + [(prev, n)]


def _permutation_rows(n: int, start: int, stop: int) -> np.ndarray:
    """Rows ``start:stop`` of the permutations of ``range(n)`` in the order
    ``itertools.permutations`` lists them, as an int8 array.

    Row ``r`` is ``r // (n-1)!`` followed by row ``r % (n-1)!`` of the
    permutations of ``range(n - 1)``, with every entry at or above that
    first value raised by one.
    """
    if n == 0:
        return np.zeros((stop - start, 0), dtype=np.int8)
    rows = np.arange(start, stop)
    first, rest = np.divmod(rows, math.factorial(n - 1))
    first = first.astype(np.int8)[:, None]
    rest = _permutation_table(n - 1)[rest]
    rest += rest >= first
    return np.concatenate((first, rest), axis=1)


@cache
def _permutation_table(n: int) -> np.ndarray:
    """Every permutation of ``range(n)``, built once per process; at the
    state ceiling the largest is 9! rows of 9 entries (3.3 MB)."""
    table = _permutation_rows(n, 0, math.factorial(n))
    table.flags.writeable = False
    return table


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
    best_orders: list[tuple[tuple[int, ...], ...]] = []
    total_fitness = evaluator.pinned_total
    states = offset = 0  # offset: flat index of the tier's first queue
    for tier, m in enumerate(snapshot.env.resources_per_tier):
        id_array = snapshot.waiting_by_tier[tier]
        n = len(id_array)
        splits = [_block_bounds(bars, n)
                  for bars in combinations(range(n + m - 1), m - 1)]
        best_blocks = None
        best_score = None
        total_rows = math.factorial(n)
        for done in range(0, total_rows, CHUNK_ROWS):
            rows = min(CHUNK_ROWS, total_rows - done)
            orders = id_array[_permutation_rows(n, done, done + rows)]
            head = evaluator.prefix_scores(offset, orders)
            for bounds in splits:
                score = 0.0 + head[:, bounds[0][1]]
                for k, (start, stop) in enumerate(bounds[1:], 1):
                    score = score + evaluator.prefix_scores(
                        offset + k, orders[:, start:stop])[:, -1]
                states += rows
                low = score.min()
                if best_score is not None and low > best_score:
                    continue
                for row in np.flatnonzero(score == low).tolist():
                    perm = orders[row].tolist()
                    blocks = tuple(tuple(perm[start:stop])
                                   for start, stop in bounds)
                    if (best_score is None or low < best_score
                            or (low == best_score and blocks < best_blocks)):
                        best_blocks, best_score = blocks, float(low)
        if best_blocks is None:
            raise AssertionError(f"tier {tier}: no schedule enumerated")
        best_orders.extend(best_blocks)
        total_fitness += best_score
        offset += m
    schedule = snapshot.schedule.with_waiting(best_orders)
    return OracleResult(schedule=schedule, fitness=total_fitness, states=states)
