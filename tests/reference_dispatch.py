"""Least-backlog FCFS dispatch by the exact walk, as a reference.

``ReferenceLeastBacklogPolicy`` re-adds every queue's unfinished work
(``Simulator.backlog``: the head's residual, then each waiting job's
execution time in queue order) at every arrival, as
``tiersched.baselines.LeastBacklogPolicy`` did before it cached each queue's
free time.  It keeps no state, so its pick is a function of the simulator's
state alone; the tests hold the cached policy's every pick to it.
"""

from __future__ import annotations

from tiersched.baselines import AssignmentPolicy, PolicyKind


class ReferenceLeastBacklogPolicy(AssignmentPolicy):
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
