"""Handler-per-kind reference for ``tiersched.Simulator``'s events and report.

``ReferenceSimulator`` steps through a stream the way the simulator did when
each event kind had a handler of its own: ``step`` dispatches to
``_handle_arrival`` or ``_handle_completion``, and both end in ``_try_start``,
which checks for itself that the resource is idle and its queue non-empty.
Its handlers record each job's arrival and wait at every tier, and its
completion, in tables of their own, as the simulator did before it kept only
service starts.  Its ``_start_head`` starts a head without calling the
package's, and records the wait, so heads that an install starts are
recorded too.  Its ``report`` prices each job from these tables
and ``Job``'s fields, builds the records through ``JobOutcome``'s
constructor and keeps each job's total wait and response time, computed
here, in ``derived``; ``reference_violation_totals`` sums generator passes
over the records.  Every sum adds left to right from the int 0 on any
Python version (``sum()`` compensates floats from 3.12).  The package runs
both kinds of event in one step body, reads each job's stored allowance,
derives every time from the service starts and derives the two times on
read; the tests hold the two to each other, state after state.
"""

from __future__ import annotations

import heapq
from functools import reduce
from operator import add

from tiersched.model import TIME_EPS, InvalidScheduleError
from tiersched.penalty import ViolationBreakdown, penalty
from tiersched.sim import _ARRIVAL, _COMPLETION, JobOutcome, Simulator


def left_sum(values):
    """``values`` added left to right from the int 0."""
    return reduce(add, values, 0)


def reference_violation_totals(records) -> dict[str, float]:
    """Aggregates of expected or realized per-job records (any re-iterable
    collection of objects with ``alpha`` and ``cost``)."""
    return {
        "total_signed": left_sum(r.alpha for r in records),
        "total_violation": left_sum(max(r.alpha, 0.0) for r in records),
        "total_cost": left_sum(r.cost for r in records),
        "max_violation": max((max(r.alpha, 0.0) for r in records),
                             default=0.0),
    }


class ReferenceSimulator(Simulator):
    """A ``Simulator`` whose events and report take the handler-per-kind
    path over recorded arrivals, waits and completions; snapshots and
    installs are the package's own."""

    def __init__(self, jobs, env, *args, **kwargs):
        super().__init__(jobs, env, *args, **kwargs)
        n, tiers = len(jobs) + 1, env.num_tiers
        self._completion: list[float | None] = [None] * n
        self._arrive = [0.0] * (n * tiers)
        self._wait = [0.0] * (n * tiers)

    def step(self) -> bool:
        """Process the next pending event; False when none remain."""
        if not self._events:
            return False
        time, rank, job_id, tier, k = heapq.heappop(self._events)
        if time < self.clock - TIME_EPS:
            raise AssertionError("event times must not decrease")
        self.clock = time
        if rank == _COMPLETION:
            self._handle_completion(job_id, tier, k)
        else:
            self._handle_arrival(job_id, tier)
        if self.optimizer is not None:
            self._maybe_reschedule()
        return True

    def _handle_arrival(self, job_id: int, tier: int) -> None:
        if tier == 0:
            for following in self._arrivals:
                heapq.heappush(self._events, following)
                break
        else:
            self._in_flight[tier - 1] -= 1
        self._arrive[job_id * self.env.num_tiers + tier] = self.clock
        self.arrived[tier] += 1

        k = self.policy.assign(self, job_id, tier)
        if k not in range(self.env.resources_per_tier[tier]):
            raise InvalidScheduleError(
                f"policy returned invalid queue {k} for job {job_id} at "
                f"tier {tier}")
        self._queues[tier][k].append(job_id)
        if self.keep_trace:
            self._trace("arrive", job_id, tier, k)
        self._try_start(tier, k)

    def _handle_completion(self, job_id: int, tier: int, k: int) -> None:
        if self._busy[tier][k] is None:
            raise AssertionError("completion out of order")
        queue = self._queues[tier][k]
        if not queue or queue[0] != job_id:
            raise AssertionError("completing job is not the queue head")
        queue.pop(0)
        self._busy[tier][k] = None
        if self.keep_trace:
            self._trace("finish", job_id, tier, k)
        if tier + 1 < self.env.num_tiers:
            self._in_flight[tier] += 1
            heapq.heappush(self._events,
                           (self.clock, _ARRIVAL, job_id, tier + 1, -1))
        else:
            self._completion[job_id] = self.clock
            self.departed += 1
            if self.keep_trace:
                self._trace("depart", job_id, tier, k)
        self._try_start(tier, k)

    def _try_start(self, tier: int, k: int) -> None:
        if self._busy[tier][k] is not None:
            return
        queue = self._queues[tier][k]
        if not queue:
            return
        self._start_head(tier, k)

    def _start_head(self, tier: int, k: int) -> None:
        """Start the head by this module's own rules: record its wait and
        its service start (which the package's snapshots read), mark the
        resource busy until the start plus the execution time, and push
        that completion."""
        head = self._queues[tier][k][0]
        clock = self.clock
        slot = head * self.env.num_tiers + tier
        self._wait[slot] = clock - self._arrive[slot]
        self._start[slot] = clock
        end = clock + self._exec[tier][head]
        self._busy[tier][k] = end
        heapq.heappush(self._events, (end, _COMPLETION, head, tier, k))
        if self.keep_trace:
            self._trace("start", head, tier, k)

    def report(self) -> ViolationBreakdown:
        """Realized outcomes for every completed job; ``derived`` maps each
        one's id to its ``(total_wait, response_time)``."""
        chi, nu = self.env.chi, self.env.nu
        tiers = self.env.num_tiers
        wait, completions = self._wait, self._completion
        outcomes: dict[int, JobOutcome] = {}
        self.derived: dict[int, tuple[float, float]] = {}
        for job in self.jobs:
            jid = job.id
            completion = completions[jid]
            if completion is None:
                continue
            first = jid * tiers
            waits = tuple(wait[first:first + tiers])
            total_wait = left_sum(waits)
            arrival = job.arrival
            # Job.total_exec and Job.allowance, with one sum between them.
            total_exec = left_sum(job.exec_times)
            alpha = total_wait - ((job.target_completion - arrival) - total_exec)
            outcomes[jid] = JobOutcome(
                jid, arrival, completion, total_exec, waits, alpha,
                penalty(alpha, chi, nu))
            self.derived[jid] = (total_wait, completion - arrival)
        return ViolationBreakdown(
            per_job=outcomes, **reference_violation_totals(outcomes.values()))
