"""Reference optimum of the GA's signed objective, by min-cost assignment.

Per tier, the signed violation total is a schedule-independent constant plus
the sum of every waiting job's start time, and a queue becomes free at its
in-service residual.  That is P|avail|sum C_j, which reduces to an
assignment of jobs to (queue, successors-behind) slots: a job placed in
queue k with p jobs behind it contributes the residual of k once and its own
execution time p times (Horn 1973; Bruno, Coffman and Sethi 1974).  Slot
costs grow with p, so an optimal assignment fills each queue's slots from
p = 0 upward and decodes to one order per queue.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from tiersched import AllowanceMode, Schedule, Snapshot, total_penalty


def reference_schedule(snapshot: Snapshot) -> Schedule:
    """A schedule minimizing the signed violation total of the snapshot."""
    env, jobs, current = snapshot.env, snapshot.jobs, snapshot.schedule
    orders: list[tuple[int, ...]] = []
    for tier, m in enumerate(env.resources_per_tier):
        ids = snapshot.waiting_ids(tier)
        n = len(ids)
        if n == 0:
            orders.extend(() for _ in range(m))
            continue
        execs = np.array([jobs.job(j).exec_times[tier] for j in ids])
        residual = np.array([current.residual(tier, k) for k in range(m)])
        behind = np.arange(n)
        # cost[j, k, p]: job j in queue k with p successors; column k*n + p.
        cost = residual[None, :, None] + execs[:, None, None] * behind[None, None, :]
        rows, cols = linear_sum_assignment(cost.reshape(n, m * n))
        queues: list[list[tuple[int, int]]] = [[] for _ in range(m)]
        for row, col in zip(rows, cols):
            k, p = divmod(int(col), n)
            queues[k].append((p, ids[row]))
        orders.extend(tuple(jid for _, jid in sorted(q, reverse=True))
                      for q in queues)
    return current.with_waiting(orders)


def reference_optimum(snapshot: Snapshot) -> float:
    """Signed total of the reference schedule, scored by ``total_penalty``
    in ``total`` mode, the GA's objective in every workload."""
    return total_penalty(snapshot, AllowanceMode.TOTAL,
                         reference_schedule(snapshot)).total_signed
