"""Whole-candidate reference for ``tiersched.validate_schedule``.

``reference_validate`` walks every queue of a candidate for unknown ids,
duplicates within a tier and jobs in two tiers, bounds each in-service
residual by its head's execution time, and then compares the candidate with
the snapshot.  The package checks those structural properties once, when a
``Snapshot`` is built, and compares candidates with it only; the tests hold
the two verdicts to each other.
"""

from __future__ import annotations

from tiersched import (
    EnvironmentConfig,
    JobSet,
    Schedule,
    Snapshot,
    ValidationReport,
)
from tiersched.model import TIME_EPS


def reference_validate(schedule: Schedule,
                       env: EnvironmentConfig,
                       jobs: JobSet,
                       snapshot: Snapshot | None = None) -> ValidationReport:
    """Check a schedule's structural invariants, report-style.

    Always checked: layout matches the environment, ids are known, no id
    appears twice within a tier, and no job occupies queues of two tiers at
    once.  Given a reference snapshot, additionally checks that per-tier
    waiting sets are preserved and that in-service jobs stay pinned at their
    original heads with their original residuals.
    """
    violations: list[str] = []

    if schedule.num_tiers != env.num_tiers or any(
            schedule.resources_in(t) != env.resources_per_tier[t]
            for t in range(schedule.num_tiers)):
        violations.append("layout does not match the environment")
        return ValidationReport(violations=tuple(violations))

    seen_tier: dict[int, int] = {}
    for tier in range(schedule.num_tiers):
        counted: dict[int, int] = {}
        for k in range(schedule.resources_in(tier)):
            for jid in schedule.queue(tier, k):
                if not 1 <= jid <= len(jobs):
                    violations.append(f"unknown job id {jid} in tier {tier}")
                    continue
                counted[jid] = counted.get(jid, 0) + 1
        for jid, n in counted.items():
            if n > 1:
                violations.append(f"duplicate within tier {tier}: job {jid}")
            if jid in seen_tier:
                violations.append(
                    f"job {jid} appears in tiers {seen_tier[jid]} and {tier}")
            else:
                seen_tier[jid] = tier

    for tier, k in env.iter_queues():
        head = schedule.in_service_id(tier, k)
        if head is None:
            continue
        residual = schedule.residual(tier, k)
        if 1 <= head <= len(jobs):
            if residual > jobs.job(head).exec_times[tier] + TIME_EPS:
                violations.append(
                    f"tier {tier} resource {k}: residual exceeds the head's "
                    f"execution time")

    if snapshot is not None:
        for tier in range(env.num_tiers):
            want = sorted(snapshot.waiting_ids(tier))
            have = sorted(
                jid for k in range(schedule.resources_in(tier))
                for jid in schedule.waiting(tier, k))
            if want != have:
                violations.append(f"tier {tier}: waiting job set changed")
        for tier, k in env.iter_queues():
            ref_head = snapshot.schedule.in_service_id(tier, k)
            got_head = schedule.in_service_id(tier, k)
            if ref_head != got_head:
                violations.append(
                    f"tier {tier} resource {k}: in-service job "
                    f"{ref_head} reordered or migrated")
            elif ref_head is not None and abs(
                    schedule.residual(tier, k)
                    - snapshot.schedule.residual(tier, k)) > TIME_EPS:
                violations.append(
                    f"tier {tier} resource {k}: in-service residual changed")

    return ValidationReport(violations=tuple(violations))
