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

Two steady-state mean waits hold the drains to queueing theory.  FCFS makes
each tier a ``c``-server FCFS queue, and by Burke's theorem (1956) the
departures of a stationary M/M/c queue are Poisson, so every tier of the
tandem is M/M/c and its mean wait is Erlang C.  Round robin gives each of a
tier's ``c`` resources every ``c``-th arrival, so a resource of the first
tier is an E_c/M/1 queue (GI/M/1 with Erlang-c interarrivals).
"""

from __future__ import annotations

import heapq
import math

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


def erlang_c_wait(lam: float, mu: float, c: int) -> float:
    """Mean queueing wait of the M/M/c queue (Erlang C), for ``lam < c mu``."""
    a = lam / mu
    tail = a ** c / (math.factorial(c) * (1 - a / c))
    waits = tail / (sum(a ** k / math.factorial(k) for k in range(c)) + tail)
    return waits / (c * mu - lam)


def erlang_gi_m1_wait(lam: float, mu: float, c: int) -> float:
    """Mean queueing wait of the E_c/M/1 queue whose interarrival time is
    ``c`` exponential phases of rate ``lam``, for ``lam < c mu``.

    GI/M/1: ``sigma`` is the root in (0, 1) of ``sigma = A(mu (1 - sigma))``
    with ``A(s) = (lam / (lam + s)) ** c``, reached by iterating from 0, and
    the mean wait is ``sigma / (mu (1 - sigma))``.
    """
    sigma = 0.0
    for _ in range(100_000):
        following = (lam / (lam + mu * (1 - sigma))) ** c
        if following == sigma:
            break
        sigma = following
    return sigma / (mu * (1 - sigma))
