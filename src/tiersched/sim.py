"""Event-driven simulation of the multi-tier queueing environment.

The simulator is a single-writer state machine.  Two event kinds drive it:
external or inter-tier arrivals, and service completions.  At equal
timestamps completions are processed before arrivals, and lower job ids
first, which makes every run a deterministic function of its inputs.  An
assignment policy names the queue each arriving job joins at its tail; an
optional optimizer callback may reorder the waiting jobs between events via
frozen snapshots.

Every pending event sits in one heap: one completion per busy resource, one
hand-off per job moving between tiers, and the next external arrival, read
from the arrival-ordered job set when the one before it is processed.  So
an event's cost does not grow with the length of the stream.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Mapping
from heapq import heappop, heappush
from itertools import islice, repeat
from operator import gt, index
from typing import NamedTuple

import numpy as np

from .baselines import AssignmentPolicy, LeastBacklogPolicy
from .model import (
    TIME_EPS,
    EnvironmentConfig,
    InvalidScheduleError,
    JobSet,
    Residents,
    Schedule,
    Snapshot,
    count,
    ordered_sum,
    validate_schedule,
)
from .penalty import ViolationBreakdown, penalty, violation_totals

_COMPLETION = 0  # processed before arrivals at equal timestamps
_ARRIVAL = 1

TRACE_VERSION = 1


class TraceEvent(NamedTuple):
    """One line of the replay log (tiers and resources are 1-based here)."""

    time: float
    kind: str
    job_id: int
    tier: int
    resource: int

    def line(self) -> str:
        job = str(self.job_id) if self.job_id else "-"
        tier = str(self.tier + 1) if self.tier >= 0 else "-"
        res = str(self.resource + 1) if self.resource >= 0 else "-"
        return f"{self.time!r} {self.kind} {job} {tier} {res}"


class JobOutcome(NamedTuple):
    """Realized timings of one completed job, derived from service starts.

    Only what a record cannot derive is stored; ``total_wait`` and
    ``response_time`` are computed on read.  The violation time is
    mode-independent once a job is done: the per-tier allowance shares sum
    to the total allowance, so both reduce to total wait minus allowance.
    """

    job_id: int
    arrival: float
    completion: float
    total_exec: float
    waits: tuple[float, ...]
    alpha: float
    cost: float

    @property
    def total_wait(self) -> float:
        return ordered_sum(self.waits)  # left to right, as report() adds

    @property
    def response_time(self) -> float:
        return self.completion - self.arrival


def _timings(start, first, arrival, exec_times, jid, tiers: int):
    """Job ``jid``'s waits at its first ``tiers`` tiers, from its service
    starts ``start[first + t]`` and the job set's columns, and its arrival at
    the next (its completion after the last): the events' own float
    operations, so bit for bit theirs, for one id or elementwise for a numpy
    array of ids over numpy views of the tables."""
    arrival, waits = arrival[jid], []
    for t in range(tiers):
        began = start[first + t]
        waits.append(began - arrival)
        arrival = began + exec_times[t][jid]
    return waits, arrival


class _Outcomes(Mapping):
    """A drain report's ``per_job``: the ``JobOutcome`` of each completed
    job by id, built when read.

    It keeps the job set and typed columns (completed ids in id order,
    alphas, costs, a copy of the start table): a report taken mid-run holds
    no simulator object and does not move with it.  It reads as the
    equivalent dict.
    """

    __slots__ = ("_jobs", "_tiers", "_start", "_ids", "_alphas", "_costs")

    def __init__(self, jobs, tiers, start, ids, alphas, costs):
        self._jobs, self._tiers, self._start = jobs, tiers, start
        self._ids, self._alphas, self._costs = ids, alphas, costs

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self):
        return iter(self._ids)

    def __getitem__(self, jid) -> JobOutcome:
        ids = self._ids
        try:
            i = bisect_left(ids, index(jid))
        except TypeError:
            raise KeyError(jid) from None
        if i == len(ids) or ids[i] != jid:
            raise KeyError(jid)
        jid, jobs, tiers = ids[i], self._jobs, self._tiers
        waits, completion = _timings(self._start, jid * tiers, jobs.arrival,
                                     jobs.exec_times, jid, tiers)
        return tuple.__new__(JobOutcome, (  # skips the Python-level __new__
            jid, jobs.arrival[jid], completion, jobs.total_exec[jid],
            tuple(waits), self._alphas[i], self._costs[i]))

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class Simulator:
    """Drives a job set through the tiered environment.

    ``policy`` assigns arriving jobs to queues: an ``AssignmentPolicy``
    (``make_policy`` builds one from a name), or None for least-backlog
    FCFS.  ``optimizer``, when given, is called with a frozen snapshot
    every ``reschedule_every`` events and may return a replacement schedule;
    invalid schedules are rejected and logged, never installed.  A decision
    in which no waiting job could move is skipped: the current schedule is
    then the only valid candidate.  Each event is one :meth:`step`, and
    steps and installs start service alike.  A job's times at each tier
    all follow from the one recorded there, its service start (``_timings``).
    """

    def __init__(self, jobs: JobSet, env: EnvironmentConfig,
                 policy: AssignmentPolicy | None = None,
                 *,
                 optimizer=None,
                 reschedule_every: int = 1,
                 keep_trace: bool = False):
        if jobs.num_tiers not in (0, env.num_tiers):
            raise ValueError("job tier count does not match the environment")
        self.jobs = jobs
        self.env = env
        if policy is None:
            policy = LeastBacklogPolicy(env)
        elif not isinstance(policy, AssignmentPolicy):
            raise TypeError(f"policy must be an AssignmentPolicy or None, not "
                            f"{policy!r}; make_policy builds one from a name")
        self.policy = policy
        self.optimizer = optimizer
        self.reschedule_every = count("reschedule_every", reschedule_every)
        if self.reschedule_every < 1:
            raise ValueError(f"reschedule_every must be at least 1, not "
                             f"{reschedule_every!r}")
        self.keep_trace = keep_trace
        self.trace: list[TraceEvent] = []

        self.clock = 0.0
        self._queues: list[list[list[int]]] = [
            [[] for _ in range(m)] for m in env.resources_per_tier]
        # The service end of each resource's queue head while it is served;
        # the job in service is the queue head.
        self._busy: list[list[float | None]] = [
            [None] * m for m in env.resources_per_tier]
        # The queues are the only record of where a job is.  Its service
        # starts sit in one job-major column, entry ``jid * tiers + tier``
        # (job 0 unused), and a byte per job, in id order, marks it departed.
        n, tiers = len(jobs) + 1, env.num_tiers
        self._start = array("d", bytes(8 * n * tiers))
        self._departed = bytearray(n - 1)
        # exec[tier][jid]: execution time of a job at a tier, the job set's
        # columns (a set with no jobs has none: here one unused entry each)
        self._exec = jobs.exec_times or (array("d", bytes(8)),) * tiers
        # External arrivals in the heap's order, (arrival, id).  Ids follow
        # arrivals except where the job set lets one run back by TIME_EPS.
        arrival, ids = jobs.arrival, range(1, n)
        if any(map(gt, islice(arrival, 1, None), islice(arrival, 2, None))):
            ids = sorted(ids, key=lambda jid: (arrival[jid], jid))
        self._arrivals = zip(map(arrival.__getitem__, ids), repeat(_ARRIVAL),
                             ids, repeat(0), repeat(-1))
        # Completions, hand-offs and the next external arrival; every event
        # is (time, rank, job, tier, resource), the resource -1 for an
        # arrival, whose queue the policy names.  No two pending events
        # share their first four fields.
        self._events: list[tuple[float, int, int, int, int]] = list(
            islice(self._arrivals, 1))
        self.arrived = [0] * env.num_tiers
        self.departed = 0
        self._in_flight = [0] * env.num_tiers
        self._since_reschedule = 0

    # ------------------------------------------------------------------
    # read API (used by policies, reports, and tests)

    @property
    def done(self) -> bool:
        return not self._events

    def queue(self, tier: int, k: int) -> tuple[int, ...]:
        return tuple(self._queues[tier][k])

    def queue_count(self, tier: int, k: int) -> int:
        return len(self._queues[tier][k])

    def backlog(self, tier: int, k: int) -> float:
        """Unfinished work in a queue: in-service residual plus waiting work,
        summed in queue order."""
        queue = self._queues[tier][k]
        end = self._busy[tier][k]
        if end is None:
            total = 0.0
        else:
            total = end - self.clock
            total = total if total > 0.0 else 0.0  # max(0.0, ·), no call
            queue = queue[1:]
        exec_times = self._exec[tier]
        for jid in queue:
            total += exec_times[jid]
        return total

    # ------------------------------------------------------------------
    # event processing

    def step(self) -> bool:
        """Process the next pending event, a completion or an arrival, in
        one body; then an idle resource of the event with jobs queued starts
        its head.  False when no event remains."""
        events = self._events
        if not events:
            return False
        time, rank, job_id, tier, k = heappop(events)
        if time < self.clock - TIME_EPS:
            raise AssertionError("event times must not decrease")
        self.clock = time
        busy = self._busy[tier]
        if rank == _COMPLETION:
            queue = self._queues[tier][k]
            if busy[k] is None:
                raise AssertionError("completion out of order")
            if not queue or queue[0] != job_id:
                raise AssertionError("completing job is not the queue head")
            del queue[0]
            busy[k] = None
            if self.keep_trace:
                self._trace("finish", job_id, tier, k)
            if tier + 1 < self.env.num_tiers:
                self._in_flight[tier] += 1
                heappush(events, (time, _ARRIVAL, job_id, tier + 1, -1))
            else:
                self._departed[job_id - 1] = 1
                self.departed += 1
                if self.keep_trace:
                    self._trace("depart", job_id, tier, k)
        else:
            if tier:
                self._in_flight[tier - 1] -= 1
            else:
                following = next(self._arrivals, None)
                if following is not None:
                    heappush(events, following)
            self.arrived[tier] += 1
            k = self.policy.assign(self, job_id, tier)
            queues = self._queues[tier]
            if not 0 <= k < len(queues):
                raise InvalidScheduleError(
                    f"policy returned invalid queue {k} for job {job_id} at "
                    f"tier {tier}")
            queue = queues[k]
            queue.append(job_id)
            if self.keep_trace:
                self._trace("arrive", job_id, tier, k)
        if queue and busy[k] is None:
            self._start_head(tier, k)
        if self.optimizer is not None:
            self._maybe_reschedule()
        return True

    def run(self, *, until_external_arrivals: int | None = None) -> "Simulator":
        """Process events until drained or a stopping condition is met."""
        while self._events:
            self.step()
            if (until_external_arrivals is not None
                    and self.arrived[0] >= until_external_arrivals):
                break
        return self

    def _trace(self, kind: str, job_id: int, tier: int, resource: int) -> None:
        self.trace.append(TraceEvent(self.clock, kind, job_id, tier, resource))

    def _start_head(self, tier: int, k: int) -> None:
        """Start serving the head of an idle resource's non-empty queue."""
        head = self._queues[tier][k][0]
        clock = self.clock
        self._start[head * self.env.num_tiers + tier] = clock
        end = clock + self._exec[tier][head]
        self._busy[tier][k] = end
        heappush(self._events, (end, _COMPLETION, head, tier, k))
        if self.keep_trace:
            self._trace("start", head, tier, k)

    def _maybe_reschedule(self) -> None:
        self._since_reschedule += 1
        if self._since_reschedule < self.reschedule_every:
            return
        self._since_reschedule = 0
        if not self._can_move():
            return
        snapshot = self.snapshot()
        self.install_schedule(self.optimizer(snapshot), snapshot)

    def _can_move(self) -> bool:
        """Whether some tier has two waiting jobs, or one waiting job and a
        second resource, so that a candidate could differ from the current
        schedule."""
        for queues, busy in zip(self._queues, self._busy):
            waiting = (sum(len(q) for q in queues)
                       - sum(b is not None for b in busy))
            if waiting >= 2 or (waiting and len(queues) >= 2):
                return True
        return False

    # ------------------------------------------------------------------
    # rescheduling

    def install_schedule(self, schedule: Schedule, snapshot: Snapshot) -> bool:
        """Replace the waiting orders with those of a candidate schedule.

        ``snapshot`` must describe the current state: its clock and queue
        orders must be the live ones, which every event and every install
        that moves a job changes.  ``validate_schedule`` then checks the
        candidate against it: the layout, each tier's waiting set, and the
        pinned in-service heads with their residuals.  The snapshot is
        structurally valid by construction, so these checks also rule out
        unknown, duplicated and cross-tier ids.  A stale snapshot or an
        invalid candidate is rejected (logged, previous schedule kept).
        One walk over the queues rebuilds each and starts its head if the
        resource is idle; a start touches only its own queue.
        """
        if (snapshot.clock != self.clock
                or snapshot.schedule.orders != tuple(
                    tuple(map(tuple, tier)) for tier in self._queues)
                or not validate_schedule(schedule, self.env, self.jobs,
                                         snapshot=snapshot).ok):
            if self.keep_trace:
                self._trace("reject", 0, -1, -1)
            return False
        for tier, k in self.env.iter_queues():
            queues, idle = self._queues[tier], self._busy[tier][k] is None
            waiting = list(schedule.waiting(tier, k))
            queues[k] = waiting if idle else queues[k][:1] + waiting
            if idle and waiting:
                self._start_head(tier, k)
        if self.keep_trace:
            self._trace("reschedule", 0, -1, -1)
        return True

    # ------------------------------------------------------------------
    # snapshots and reports

    def snapshot(self) -> Snapshot:
        """Immutable view of the current queues and per-job progress.

        One walk over the queues (``Schedule.walk``) lists the residents;
        ``_timings`` then derives their waits tier by tier over numpy views
        of the tables, as ``report()`` does, into ``Residents`` columns.
        """
        clock, tiers, view = self.clock, self.env.num_tiers, np.frombuffer
        schedule = Schedule(orders=self._queues, busy=tuple(
            tuple(None if end is None else max(0.0, end - clock)
                  for end in tier_busy) for tier_busy in self._busy))
        ids, tier, serving, tier_rows = schedule.walk
        start, arrival = view(self._start), view(self.jobs.arrival)
        exec_times = [view(e) for e in self._exec]
        first = ids * tiers  # each one's row of the start table
        # A job waits until the clock, or until its service started.
        elapsed, heads = np.empty(len(ids)), serving.nonzero()[0]
        elapsed.fill(clock)
        elapsed[heads] = start[first[heads] + tier[heads]]
        waits = np.zeros((len(ids), tiers - 1))
        for t, rows in enumerate(tier_rows):
            if rows.start == rows.stop:
                continue
            done, arrived = _timings(start, first[rows], arrival, exec_times,
                                     ids[rows], t)
            for c, wait in enumerate(done):
                waits[rows, c] = wait
            elapsed[rows] -= arrived
        return Snapshot(env=self.env, jobs=self.jobs, clock=clock,
                        schedule=schedule, progress=Residents(waits, elapsed))

    def assert_invariants(self) -> None:
        """Raise if conservation or work-conservation is broken, if the
        pending events are not one completion per busy resource, one hand-off
        per job between tiers and, while external arrivals remain, the next
        one, or if a recorded start lies after the clock or misses its end."""
        busy = sum(end is not None
                   for tier_busy in self._busy for end in tier_busy)
        moving = sum(self._in_flight)
        arriving = int(self.arrived[0] < len(self.jobs))
        if len(self._events) != busy + moving + arriving:
            raise AssertionError(
                f"{len(self._events)} pending events for {busy} busy "
                f"resources + {moving} hand-offs + {arriving} external "
                f"arrivals")
        for tier in range(self.env.num_tiers):
            resident = sum(len(q) for q in self._queues[tier])
            in_flight = self._in_flight[tier]
            passed_on = (self.arrived[tier + 1]
                         if tier + 1 < self.env.num_tiers else self.departed)
            if self.arrived[tier] != resident + in_flight + passed_on:
                raise AssertionError(
                    f"tier {tier}: {self.arrived[tier]} arrived but "
                    f"{resident} resident + {in_flight} in flight + "
                    f"{passed_on} moved on")
            for k, queue in enumerate(self._queues[tier]):
                end, where = self._busy[tier][k], f"tier {tier} resource {k}"
                if queue and end is None:
                    raise AssertionError(f"{where}: idle with waiting jobs")
                if end is not None and not queue:
                    raise AssertionError(f"{where}: busy with an empty queue")
                head = queue[0] if queue else 0
                began = self._start[head * self.env.num_tiers + tier]
                if queue and began + self._exec[tier][head] != end:
                    raise AssertionError(f"{where}: head {head} started at "
                                         f"{began!r}, ends at {end!r}")
        if max(self._start) > self.clock:
            raise AssertionError(f"a recorded start lies after {self.clock!r}")

    def report(self) -> ViolationBreakdown:
        """Realized outcomes of every completed job plus their totals; alpha
        is the total wait less the allowance.

        ``_timings`` derives the waits of every completed job at once over
        numpy views of the tables, and typed columns keep each one's id,
        alpha and cost, which ``violation_totals`` adds; ``per_job`` builds a
        job's ``JobOutcome`` only when it is read."""
        chi, nu = self.env.chi, self.env.nu
        tiers, jobs, view = self.env.num_tiers, self.jobs, np.frombuffer
        ids = np.flatnonzero(view(self._departed, np.uint8)) + 1
        waits, _ = _timings(view(self._start), ids * tiers, view(jobs.arrival),
                            [view(e) for e in self._exec], ids, tiers)
        alphas = array("d", (ordered_sum(waits)
                             - view(jobs.allowance)[ids]).tobytes())
        costs = array("d", [penalty(alpha, chi, nu) for alpha in alphas])
        return ViolationBreakdown(
            per_job=_Outcomes(jobs, tiers, array("d", self._start),
                              array("q", ids.tobytes()), alphas, costs),
            **violation_totals(alphas, costs))

    def trace_lines(self) -> list[str]:
        return [f"# tiersched-trace {TRACE_VERSION}"] + [
            ev.line() for ev in self.trace]


def simulate_to_snapshot(jobs: JobSet, env: EnvironmentConfig,
                         policy: AssignmentPolicy | None = None) -> Snapshot:
    """Run until every external arrival has been processed, then freeze.

    This is the canonical way to produce optimization instances: the stream
    has fully arrived, queues are loaded, and no future arrival can disturb
    the frozen schedule.
    """
    sim = Simulator(jobs, env, policy)
    sim.run(until_external_arrivals=len(jobs))
    return sim.snapshot()
