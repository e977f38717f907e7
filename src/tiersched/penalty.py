"""Waiting allowances, violation times, and the exponential SLA penalty.

Two allowance formulations are supported.  In TOTAL mode a job is judged by
its whole-pipeline expected wait against its full allowance.  In PER_TIER
mode the allowance is split across tiers in proportion to each tier's share
of the job's execution time, and the job is judged tier-locally.  Either
way, positive violation time feeds an exponential penalty curve that
saturates at the monetary ceiling.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .model import (
    InvalidScheduleError,
    Job,
    Schedule,
    Snapshot,
    ordered_sum,
    validate_schedule,
)

if TYPE_CHECKING:
    from .sim import JobOutcome


class AllowanceMode(Enum):
    """How a job's queueing slack is granted when judging violations."""

    TOTAL = "total"
    PER_TIER = "per-tier"


def differentiated_allowance(job: Job, tier: int) -> float:
    """Tier share of the job's allowance, proportional to execution share.

    The shares sum back to the job's total allowance across all tiers.
    """
    return job.allowance * job.exec_times[tier] / job.total_exec


def penalty(alpha: float, chi: float, nu: float) -> float:
    """Provider cost for one job's violation time.

    Zero for satisfied clients (alpha <= 0), strictly increasing in alpha
    with curvature ``nu``, and bounded above by the ceiling ``chi``.
    """
    if alpha <= 0:
        return 0.0
    return chi * (1.0 - math.exp(-nu * alpha))


class JobViolation(NamedTuple):
    """Violation time, cost and expected wait of one job for one schedule.

    ``wait`` is the job's expected queueing time through its current tier:
    completed-tier waits plus the current tier's elapsed wait plus, for a
    waiting job, the work queued ahead of it under the schedule.
    """

    alpha: float
    cost: float
    wait: float


def violation_totals(alphas, costs) -> dict[str, float]:
    """Aggregates of expected or realized per-job figures, given as two
    equally long iterables of violation times and costs in record order, in
    one pass that builds no list: sums left to right from the int 0."""
    signed = violation = cost = 0
    peak = None
    for alpha, c in zip(alphas, costs):
        v = 0.0 if alpha < 0.0 else alpha  # max(alpha, 0.0), no call
        signed += alpha
        violation += v
        cost += c
        if peak is None or v > peak:  # the first of equal maxima, as max()
            peak = v
    return {
        "total_signed": signed,
        "total_violation": violation,
        "total_cost": cost,
        "max_violation": 0.0 if peak is None else peak,
    }


@dataclass(frozen=True)
class ViolationBreakdown:
    """Per-job violation times and penalties plus their aggregates.

    ``per_job`` maps job ids to their records: the expected
    ``JobViolation`` of each resident of a snapshot, or the realized
    ``JobOutcome`` of each job a simulation completed, which a drain
    report builds only when it is read.  ``total_signed``
    sums the raw signed violation times (the optimizer's objective);
    ``total_violation`` counts only positive parts (the reported SLA
    violation time, since a satisfied client violates nothing);
    ``total_cost`` is the summed penalty payable by the provider.
    """

    per_job: Mapping[int, JobViolation | JobOutcome]
    total_signed: float
    total_violation: float
    total_cost: float
    max_violation: float

    @property
    def job_count(self) -> int:
        return len(self.per_job)

    @property
    def mean_violation(self) -> float:
        return self.total_violation / len(self.per_job) if self.per_job else 0.0


class ScheduleEvaluator:
    """Fast scorer for candidate schedules of one snapshot.

    Everything that does not depend on queue order is folded into per-job
    constants up front, so scoring a candidate is a single pass through each
    queue: a running predecessor-work counter (seeded with the in-service
    residual) is the job's remaining wait.  In-service jobs keep their
    schedule-independent violation as a pinned constant.  :meth:`fitness` is
    ``pinned_total`` plus the :meth:`queue_score` of every queue, added in
    queue order.  :meth:`prefix_scores` scores many orders of one queue at
    once, with the same additions as :meth:`queue_score`.  :meth:`breakdown`
    is the package's one source of each resident's expected wait.  The
    constants come from the walk and the wait columns by array operations,
    with the float operations of one job's computation, in either mode.
    """

    def __init__(self, snapshot: Snapshot, mode: AllowanceMode):
        self.snapshot = snapshot
        env, jobs, view = snapshot.env, snapshot.jobs, np.frombuffer
        ids, _, serving, tier_rows = snapshot.schedule.walk
        waits, elapsed = snapshot.residents
        self._delays = [0.0 if residual is None else residual
                        for tier in snapshot.schedule.busy for residual in tier]
        # Completed waits added left to right from 0.0, as ordered_sum adds
        # them (the 0.0 past a job's tier adds nothing).
        self._done = done = np.zeros(len(ids))
        for column in waits.T:
            done += column
        waited, execs = done + elapsed, np.empty(len(ids))
        for column, rows in zip(jobs.exec_times, tier_rows):
            execs[rows] = view(column)[ids[rows]]  # each one's at its tier
        allowance = view(jobs.allowance)[ids]
        if mode is AllowanceMode.TOTAL:
            base = waited
        else:  # differentiated_allowance's arithmetic
            base = elapsed
            allowance = allowance * execs / view(jobs.total_exec)[ids]
        # Each resident's constant (an in-service job's is its violation)
        # and execution time; queue_score reads the waiting ones' by id.
        self._rows = ids, base - allowance, execs
        heads = serving.nonzero()[0]
        self._pinned = pinned = {  # in id order
            jid: JobViolation(alpha, penalty(alpha, env.chi, env.nu), wait)
            for jid, alpha, wait in sorted(zip(
                ids[heads].tolist(), self._rows[1][heads].tolist(),
                waited[heads].tolist()))}
        #: Signed violation of the in-service jobs, fixed for every candidate.
        self.pinned_total = ordered_sum(v.alpha for v in pinned.values())

    @cached_property
    def _lists(self) -> tuple[list[float], list[float]]:
        """The constants and execution times in lists indexed by job id
        (0.0 for a job not resident), built on first use: ``queue_score``
        reads them, and a dict measured 45% slower there."""
        const = [0.0] * (len(self.snapshot.jobs) + 1)
        exec_at = [0.0] * len(const)
        for jid, c, e in zip(*(column.tolist() for column in self._rows)):
            const[jid] = c
            exec_at[jid] = e
        return const, exec_at

    def queue_score(self, queue_index: int, order) -> float:
        """Signed violation total of one queue's waiting order."""
        run = self._delays[queue_index]
        const, execs = self._lists
        total = 0.0
        for jid in order:
            total += const[jid] + run
            run += execs[jid]
        return total

    @cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The per-job constants and execution times as arrays indexed by
        job id, built on the first :meth:`prefix_scores` call."""
        ids, const, execs = self._rows
        tables = np.zeros((2, len(self.snapshot.jobs) + 1))
        tables[0, ids], tables[1, ids] = const, execs
        return tables[0], tables[1]

    def prefix_scores(self, queue_index: int, orders) -> np.ndarray:
        """Signed violation totals of every prefix of many orders of one
        queue.

        ``orders`` is a 2-D array of job ids, one order per row.  Column c of
        the ``(rows, width + 1)`` result is ``queue_score(queue_index,
        row[:c])`` bit for bit: the columns repeat its additions in its order.
        """
        const, execs = self._tables
        rows, width = orders.shape
        table = np.empty((rows, width + 1))
        table[:, 0] = 0.0
        run = np.full(rows, self._delays[queue_index])
        for c in range(width):
            ids = orders[:, c]
            np.add(table[:, c], const[ids] + run, out=table[:, c + 1])
            run += execs[ids]
        return table

    def fitness(self, flat_orders) -> float:
        """Signed violation total over all residents for candidate orders.

        ``flat_orders`` lists the waiting order of every queue, tier-major,
        exactly as :meth:`Schedule.flat_waiting` produces them.
        """
        total = self.pinned_total
        for qi, order in enumerate(flat_orders):
            total += self.queue_score(qi, order)
        return total

    def breakdown(self, schedule: Schedule | None = None) -> ViolationBreakdown:
        """Full per-job evaluation of a schedule (default: the snapshot's)."""
        sched = schedule if schedule is not None else self.snapshot.schedule
        env, elapsed = self.snapshot.env, self.snapshot.residents.elapsed
        waited = dict(zip(self._rows[0].tolist(), zip(
            self._done.tolist(), elapsed.tolist())))
        violations, (const, execs) = dict(self._pinned), self._lists
        for qi, (tier, k) in enumerate(env.iter_queues()):
            run = self._delays[qi]
            for jid in sched.waiting(tier, k):
                done, elapsed_wait = waited[jid]
                alpha = const[jid] + run
                violations[jid] = JobViolation(
                    alpha, penalty(alpha, env.chi, env.nu),
                    done + (elapsed_wait + run))
                run += execs[jid]
        records = violations.values()
        return ViolationBreakdown(violations, **violation_totals(
            (v.alpha for v in records), (v.cost for v in records)))


def total_penalty(snapshot: Snapshot, mode: AllowanceMode,
                  schedule: Schedule | None = None) -> ViolationBreakdown:
    """Evaluate a schedule over a snapshot's resident jobs.

    The candidate schedule (default: the snapshot's own) is validated against
    the snapshot first; structural violations raise ``InvalidScheduleError``.
    """
    if schedule is not None:
        report = validate_schedule(schedule, snapshot.env, snapshot.jobs,
                                   snapshot=snapshot)
        if not report.ok:
            raise InvalidScheduleError("; ".join(report.violations))
    return ScheduleEvaluator(snapshot, mode).breakdown(schedule)
