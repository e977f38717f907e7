"""Two-walk reference for the checks and records of a ``tiersched.Snapshot``.

``reference_snapshot_checks`` walks the schedule once to locate every job,
then walks the progress records to check each against its location, and
gathers the in-service ids and each tier's sorted waiting ids from the
locations.
``reference_one_walk_checks`` is the same check in one walk over the
schedule that looks each job's record up by id, as ``Snapshot`` made it
before it kept its residents as columns; the messages of its refusals are
the ones the package's vectorised check must raise.
Both also take the waits as ``Residents`` columns, one row per scheduled
id in walk order, and then refuse a completed wait past a row's tier that
is not 0.0, which a record cannot hold.
``reference_progress`` builds a ``ReferenceSimulator``'s progress records
from a sorted list of queue locations and the waits and arrivals its
handlers recorded.  The package checks a snapshot once over its columns,
and derives every time from the service starts; the tests hold the two to
each other: the same inputs refused with the same messages, the same
in-service and waiting ids, the same records in the same order.
"""

from __future__ import annotations

import math

from tiersched import (
    EnvironmentConfig,
    JobProgress,
    JobSet,
    Schedule,
)
from tiersched.model import TIME_EPS, Residents

from reference_sim import ReferenceSimulator


def _column_shape_checked(env: EnvironmentConfig, schedule: Schedule,
                          progress) -> None:
    """Refuse ``Residents`` columns without a row per scheduled id or a
    column per tier but the last."""
    rows = sum(len(queue) for tier in schedule.orders for queue in tier)
    if (progress.waits.shape, progress.elapsed.shape) != (
            (rows, env.num_tiers - 1), (rows,)):
        raise ValueError("schedule and progress must cover the same jobs")


def reference_snapshot_checks(env: EnvironmentConfig, jobs: JobSet,
                              schedule: Schedule,
                              progress: dict[int, JobProgress] | Residents
                              ) -> tuple[frozenset[int],
                                         tuple[tuple[int, ...], ...]]:
    """Raise ``ValueError`` where a ``Snapshot`` of these fields must be
    refused; otherwise return the in-service ids and the sorted waiting ids
    of each tier."""
    job_list = tuple(jobs)
    num_jobs = len(job_list)
    layout = tuple(len(tier) for tier in schedule.orders)
    if layout != env.resources_per_tier:
        raise ValueError("schedule layout does not match the environment")
    if jobs.num_tiers not in (0, env.num_tiers):
        raise ValueError("job tier count does not match the environment")
    columns = isinstance(progress, Residents)
    if columns:
        _column_shape_checked(env, schedule, progress)
    # One pass over the schedule: each job's (tier, in-service head)
    # location, checked against its progress record below.
    located: dict[int, tuple[int, bool]] = {}
    for tier, (tier_queues, tier_busy) in enumerate(
            zip(schedule.orders, schedule.busy)):
        for queue, residual in zip(tier_queues, tier_busy):
            for pos, jid in enumerate(queue):
                if not 1 <= jid <= num_jobs:
                    raise ValueError(f"unknown job id {jid} in tier {tier}")
                if jid in located:
                    raise ValueError(f"job {jid} scheduled twice")
                head = pos == 0 and residual is not None
                if head and (residual > job_list[jid - 1].exec_times[tier]
                             + TIME_EPS):
                    raise ValueError(
                        f"job {jid}: residual exceeds its tier {tier} "
                        f"execution time")
                located[jid] = (tier, head)
    past: dict[int, list[float]] = {}  # each row's waits past its tier
    if columns:  # rows in walk order, the order ``located`` keeps
        waits, elapsed = progress.waits.tolist(), progress.elapsed.tolist()
        progress = {}
        for row, (jid, (tier, _)) in enumerate(located.items()):
            progress[jid] = JobProgress(tuple(waits[row][:tier]), elapsed[row])
            past[jid] = waits[row][tier:]
    if located.keys() != progress.keys():
        raise ValueError("schedule and progress must cover the same jobs")
    for jid, prog in progress.items():
        tier, _ = located[jid]
        if tier != prog.tier:
            raise ValueError(
                f"job {jid} scheduled in tier {tier} but resides in "
                f"tier {prog.tier}")
        if any(w != 0.0 for w in past.get(jid, ())):
            raise ValueError(f"job {jid}: completed wait past its tier")
        if any(w < -TIME_EPS for w in prog.completed_waits):
            raise ValueError(f"job {jid}: negative completed wait")
        if prog.elapsed_wait < -TIME_EPS:
            raise ValueError(f"job {jid}: negative elapsed wait")
        if not all(map(math.isfinite, (*prog.completed_waits,
                                       prog.elapsed_wait))):
            raise ValueError(f"job {jid}: non-finite wait")

    by_tier: list[list[int]] = [[] for _ in schedule.orders]
    for jid in sorted(located):
        tier, head = located[jid]
        if not head:
            by_tier[tier].append(jid)
    in_service = frozenset(jid for jid, (_, head) in located.items() if head)
    return in_service, tuple(tuple(ids) for ids in by_tier)


def reference_one_walk_checks(env: EnvironmentConfig, jobs: JobSet,
                              schedule: Schedule,
                              progress: dict[int, JobProgress] | Residents
                              ) -> tuple[frozenset[int],
                                         tuple[tuple[int, ...], ...]]:
    """``reference_snapshot_checks`` in one walk: each job is checked where
    it is queued, against its own progress record (or row), and the
    in-service heads and each tier's waiting ids are gathered on the way."""
    num_jobs, exec_times = len(jobs), jobs.exec_times
    layout = tuple(len(tier) for tier in schedule.orders)
    if layout != env.resources_per_tier:
        raise ValueError("schedule layout does not match the environment")
    if jobs.num_tiers not in (0, env.num_tiers):
        raise ValueError("job tier count does not match the environment")
    columns = isinstance(progress, Residents)
    if columns:
        _column_shape_checked(env, schedule, progress)
        waits_rows = progress.waits.tolist()
        elapsed_rows = progress.elapsed.tolist()
    floor, row = -TIME_EPS, 0
    seen: set[int] = set()
    serving: list[int] = []
    by_tier: list[tuple[int, ...]] = []
    for tier, (tier_queues, tier_busy) in enumerate(
            zip(schedule.orders, schedule.busy)):
        waiting: list[int] = []
        for queue, residual in zip(tier_queues, tier_busy):
            for pos, jid in enumerate(queue):
                if not 1 <= jid <= num_jobs:
                    raise ValueError(f"unknown job id {jid} in tier {tier}")
                if jid in seen:
                    raise ValueError(f"job {jid} scheduled twice")
                seen.add(jid)
                head = pos == 0 and residual is not None
                if head and residual > exec_times[tier][jid] + TIME_EPS:
                    raise ValueError(
                        f"job {jid}: residual exceeds its tier {tier} "
                        f"execution time")
                if columns:
                    prog = JobProgress(tuple(waits_rows[row][:tier]),
                                       elapsed_rows[row])
                    past = waits_rows[row][tier:]
                else:
                    prog, past = progress.get(jid), ()
                row += 1
                if prog is None:
                    raise ValueError(
                        "schedule and progress must cover the same jobs")
                waits, elapsed = prog
                if len(waits) != tier:
                    raise ValueError(
                        f"job {jid} scheduled in tier {tier} but resides "
                        f"in tier {len(waits)}")
                if any(w != 0.0 for w in past):
                    raise ValueError(
                        f"job {jid}: completed wait past its tier")
                for wait in waits:
                    if wait < floor:
                        raise ValueError(
                            f"job {jid}: negative completed wait")
                if elapsed < floor:
                    raise ValueError(f"job {jid}: negative elapsed wait")
                for wait in (*waits, elapsed):
                    if not math.isfinite(wait):
                        raise ValueError(f"job {jid}: non-finite wait")
                if head:
                    serving.append(jid)
                else:
                    waiting.append(jid)
        waiting.sort()
        by_tier.append(tuple(waiting))
    if not columns and len(seen) != len(progress):
        raise ValueError("schedule and progress must cover the same jobs")
    return frozenset(serving), tuple(by_tier)


def reference_progress(sim: ReferenceSimulator) -> dict[int, JobProgress]:
    """The progress records of ``sim.snapshot()``, built from the sorted
    (job, tier, in service) locations of a walk over the queues and the
    reference's recorded waits and arrivals."""
    clock = sim.clock
    located = sorted(
        (jid, tier, pos == 0 and end is not None)
        for tier, (tier_queues, tier_busy) in enumerate(
            zip(sim._queues, sim._busy))
        for queue, end in zip(tier_queues, tier_busy)
        for pos, jid in enumerate(queue))
    tiers, arrive, wait = sim.env.num_tiers, sim._arrive, sim._wait
    progress: dict[int, JobProgress] = {}
    for jid, tier, in_service in located:
        first = jid * tiers
        slot = first + tier
        progress[jid] = JobProgress(
            tuple(wait[first:slot]),
            wait[slot] if in_service else clock - arrive[slot])
    return progress
