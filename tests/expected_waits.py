"""Per-job hand-algebra reference for expected waits and violation times.

Each function recomputes one job's quantity from the schedule alone, one
queue scan per call.  A job is given as its id, its progress record and
whether it is in service; ``resident`` reads the three off a snapshot.
``ScheduleEvaluator.breakdown`` computes the same quantities for every
resident in one pass per queue; the tests hold the two to each other.
"""

from __future__ import annotations

from tiersched import (
    AllowanceMode,
    JobProgress,
    JobSet,
    Schedule,
    Snapshot,
    differentiated_allowance,
)


def resident(snapshot: Snapshot, job_id: int
             ) -> tuple[int, JobProgress, bool]:
    """A resident's id, progress record and in-service status, in the order
    the functions below take them."""
    schedule = snapshot.schedule
    return (job_id, snapshot.progress[job_id], any(
        schedule.in_service_id(tier, k) == job_id
        for tier, k in snapshot.env.iter_queues()))


def remaining_wait(schedule: Schedule, job_id: int, tier: int,
                   jobs: JobSet) -> float:
    """Queueing time still ahead of a job in its tier, under this schedule.

    Sums the execution times of every job queued ahead of it, counting an
    in-service head at its residual (a non-preemptive head physically delays
    everyone behind it).  Zero for the in-service head itself.
    """
    for k, queue in enumerate(schedule.orders[tier]):
        for pos, jid in enumerate(queue):
            if jid != job_id:
                continue
            busy = schedule.busy[tier][k] is not None
            if busy and pos == 0:
                return 0.0
            total = schedule.residual(tier, k)
            for ahead in queue[1 if busy else 0:pos]:
                total += jobs.job(ahead).exec_times[tier]
            return total
    raise LookupError(f"job {job_id} is not queued in tier {tier}")


def expected_wait_tier(job_id: int, progress: JobProgress, in_service: bool,
                       schedule: Schedule, tier: int, jobs: JobSet) -> float:
    """Expected queueing time of a job at one tier under a schedule.

    For completed tiers the wait is already realized; for the current tier it
    is elapsed wait plus the remaining wait implied by the queue order.  The
    wait at tiers the job has not reached is undefined.
    """
    if tier < progress.tier:
        return progress.completed_waits[tier]
    if tier > progress.tier:
        raise LookupError(
            f"job {job_id} has not reached tier {tier}")
    if in_service:
        return progress.elapsed_wait
    return progress.elapsed_wait + remaining_wait(
        schedule, job_id, tier, jobs)


def expected_wait_multitier(job_id: int, progress: JobProgress,
                            in_service: bool, schedule: Schedule,
                            jobs: JobSet) -> float:
    """Expected total queueing time through the job's current tier."""
    return sum(progress.completed_waits) + expected_wait_tier(
        job_id, progress, in_service, schedule, progress.tier, jobs)


def violation_time(job_id: int, progress: JobProgress, in_service: bool,
                   schedule: Schedule, jobs: JobSet,
                   mode: AllowanceMode) -> float:
    """Signed violation time of a resident job under the given mode.

    Positive means the client will be dissatisfied if the schedule holds;
    negative is slack.  TOTAL mode compares the multi-tier expected wait with
    the full allowance; PER_TIER mode compares the current tier's expected
    wait with that tier's allowance share.
    """
    job = jobs.job(job_id)
    if mode is AllowanceMode.TOTAL:
        return expected_wait_multitier(
            job_id, progress, in_service, schedule, jobs) - job.allowance
    return (expected_wait_tier(job_id, progress, in_service, schedule,
                               progress.tier, jobs)
            - differentiated_allowance(job, progress.tier))
