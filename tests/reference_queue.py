"""Kiefer-Wolfowitz workload recursion for a tandem of central FCFS queues.

A tier of ``c`` resources that serves its arrivals in order, each at the
resource that frees first, is the ``c``-server FCFS queue.  A job arriving
at ``t`` starts at ``max(t, f)``, where ``f`` is the earliest time a
resource frees; that resource is then busy until the start plus the job's
execution time (Kiefer and Wolfowitz, 1955).  Each tier takes its arrivals
in ``(time, id)`` order, the simulator's tie rule, and its ``(end, id)``
departures are the next tier's arrivals.

The simulator's FCFS dispatch sends each arrival to the queue with the
least backlog, so its per-tier waits should be the recursion's, float for
float: the recursion adds each start and execution time as the simulator's
events do, and shares no code with it.
"""

from __future__ import annotations

import heapq

from tiersched import JobSet


def recursion_waits(jobs: JobSet, resources_per_tier) -> dict[int, tuple]:
    """Each job's wait at every tier, by the recursion, keyed by job id."""
    waits = {job.id: () for job in jobs}
    arrivals = sorted((job.arrival, job.id) for job in jobs)
    for tier, count in enumerate(resources_per_tier):
        free = [0.0] * count  # a heap of the resources' free times
        departures = []
        for t, jid in arrivals:
            start = max(t, heapq.heappop(free))
            end = start + jobs.job(jid).exec_times[tier]
            heapq.heappush(free, end)
            waits[jid] += (start - t,)
            departures.append((end, jid))
        arrivals = sorted(departures)
    return waits
