"""Core domain types for the multi-tier queueing environment.

Jobs flow through N sequential tiers; each tier owns a set of identical
resources, each with its own queue.  A job's position within those queues is
the optimization variable, so the types here split cleanly into static data
(jobs, environment shape) and queue state (schedules, per-job progress).
Everything is an immutable value object: the simulator and the optimizers
build new instances instead of mutating shared state.
"""

from __future__ import annotations

import math
import operator
from array import array
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import NamedTuple

import numpy as np

#: Absolute tolerance for time comparisons throughout the package.
TIME_EPS = 1e-9


class SchedulingError(Exception):
    """Base class for domain errors raised by this package."""


class InvalidScheduleError(SchedulingError):
    """A schedule broke a structural invariant and cannot be used."""


@dataclass(frozen=True)
class EnvironmentConfig:
    """Shape of the environment plus its SLA penalty parameters.

    ``chi`` is the monetary ceiling of the per-job penalty curve and ``nu``
    its curvature (1/time).  The slack granted to synthesized jobs belongs
    to the workload, not the environment (see ``WorkloadSpec``).
    """

    num_tiers: int = 2
    resources_per_tier: tuple[int, ...] = (3, 3)
    chi: float = 1.0
    nu: float = 0.01

    def __post_init__(self) -> None:
        object.__setattr__(self, "num_tiers", count("num_tiers", self.num_tiers))
        object.__setattr__(self, "resources_per_tier", tuple(
            count("resources_per_tier", m) for m in self.resources_per_tier))
        if self.num_tiers < 1:
            raise ValueError("environment needs at least one tier")
        if len(self.resources_per_tier) != self.num_tiers:
            raise ValueError("resources_per_tier must give one count per tier")
        if any(m < 1 for m in self.resources_per_tier):
            raise ValueError("every tier needs at least one resource")
        if not 0 < self.chi < math.inf:
            raise ValueError("cost factor chi must be positive and finite")
        if not 0 < self.nu < math.inf:
            raise ValueError("scaling factor nu must be positive and finite")

    def iter_queues(self) -> Iterator[tuple[int, int]]:
        """All (tier, resource) pairs in tier-major order."""
        for tier, count in enumerate(self.resources_per_tier):
            for k in range(count):
                yield tier, k


def count(name: str, value) -> int:
    """``value`` as ``operator.index`` reads it, or a TypeError naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, not {value!r}") from None


def ordered_sum(values):
    """Left-to-right sum starting from the int 0, as ``sum()`` adds on
    Python 3.11; from 3.12 ``sum()`` compensates floats, which would change
    per-job and record-level totals between Python versions."""
    total = 0
    for value in values:
        total += value
    return total


def _job_rule(arrival, exec_times, target):
    """Whether a job's execution times are positive and finite, its arrival
    and target completion finite and its deadline no shorter than its total
    execution time (added left to right from the int 0), with that total
    and its allowance: of one job's fields, or elementwise of numpy columns
    of them (``exec_times`` one per tier)."""
    positive, total = True, 0
    for e in exec_times:
        positive = positive & (0.0 < e) & (e < math.inf)
        total = total + e
    deadline = target - arrival
    return ((positive, (abs(arrival) < math.inf) & (abs(target) < math.inf),
             deadline >= total - TIME_EPS), total, deadline - total)


def check_job(jid, arrival, exec_times, target) -> tuple[float, float]:
    """Total execution time and allowance of one job's fields, or the
    ValueError of the first check they fail."""
    if jid < 1:
        raise ValueError("job ids start at 1")
    if not exec_times:
        raise ValueError(f"job {jid}: needs at least one tier execution time")
    (positive, finite, in_time), total, allowance = _job_rule(
        arrival, exec_times, target)
    if not positive:
        raise ValueError(
            f"job {jid}: execution times must be positive and finite")
    if not finite:
        raise ValueError(
            f"job {jid}: arrival and target completion must be finite")
    if not in_time:
        raise ValueError(f"job {jid}: deadline {target - arrival!r} below "
                         f"total execution time {total!r}")
    return total, allowance


@dataclass(frozen=True, slots=True)
class Job:
    """One client job.

    ``arrival`` is the external arrival time at the first tier; arrivals at
    later tiers are produced by the simulation, not prescribed.  The target
    completion time implies a deadline relative to arrival, and the slack
    between deadline and total execution time is the job's waiting allowance:
    the total time it may spend queued without dissatisfying its client.
    The times are kept as floats (others converted through ``float``) and
    checked by ``check_job``.  ``total_exec`` and ``allowance`` are stored
    once at construction; neither takes part in equality, hashing or
    ``repr``.  The class has ``__slots__``.
    """

    id: int
    arrival: float
    exec_times: tuple[float, ...]
    target_completion: float
    #: Total execution time over all tiers, added left to right.
    total_exec: float = field(init=False, repr=False, compare=False)
    #: Total queueing slack the job can absorb without violation: its
    #: deadline less its total execution time.
    allowance: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "exec_times", tuple(map(float, self.exec_times)))
        for name in ("arrival", "target_completion"):
            object.__setattr__(self, name, float(getattr(self, name)))
        total, allowance = check_job(self.id, self.arrival, self.exec_times,
                                     self.target_completion)
        object.__setattr__(self, "total_exec", total)
        object.__setattr__(self, "allowance", allowance)

    @property
    def deadline(self) -> float:
        """Time budget from arrival to target completion."""
        return self.target_completion - self.arrival


def _check_order(arrival, ids=None, same_tiers=True) -> None:
    """Refuse, at the first job in id order that has one, an id other than
    its place 1..n (the default ids), an arrival more than ``TIME_EPS``
    before the latest one so far, or a false ``same_tiers`` entry."""
    dense = True if ids is None else ids == np.arange(1, len(ids) + 1)
    ordered = arrival >= np.maximum.accumulate(arrival) - TIME_EPS
    kept = dense & ordered & same_tiers
    if kept.all():
        return
    pos = int(kept.argmin())
    if not dense[pos]:
        raise ValueError(f"job ids must be dense and arrival-ordered; "
                         f"expected id {pos + 1}, found {ids[pos]}")
    if not ordered[pos]:
        raise ValueError(f"job {pos + 1} arrives before job {pos}; ids must "
                         f"follow arrival order")
    raise ValueError("all jobs must cover the same number of tiers")


@dataclass(frozen=True, slots=True, init=False, repr=False, eq=False)
class JobSet:
    """Arrival-ordered jobs with dense ids 1..len, kept as typed columns.

    Each field of ``Job`` is an ``array('d')`` column (``exec_times`` one
    per tier), not to be written, whose entry ``jid`` is job ``jid``'s
    (entry 0 unused, as in the simulator's tables).  Iterating it, or
    ``job(jid)``, builds each ``Job`` only when it is read.
    ``JobSet(jobs)`` takes ``Job`` objects and ``from_columns`` numpy
    columns, whose every row it checks by ``Job``'s rule; both refuse what
    ``_check_order`` refuses.
    """

    arrival: array
    exec_times: tuple[array, ...]
    target_completion: array
    total_exec: array
    allowance: array

    def __init__(self, jobs: Iterable[Job] = ()) -> None:
        jobs = tuple(jobs)
        tiers = len(jobs[0].exec_times) if jobs else 0
        ids = np.array([job.id for job in jobs])
        arrival = np.array([job.arrival for job in jobs])
        _check_order(arrival, ids, np.array(
            [len(job.exec_times) == tiers for job in jobs], bool))
        self._store(ids, arrival, [
            np.array([job.exec_times[t] for job in jobs])
            for t in range(tiers)],
            np.array([job.target_completion for job in jobs]))

    @classmethod
    def from_columns(cls, arrival, exec_times, target_completion,
                     ids=None) -> JobSet:
        """The jobs whose fields are numpy columns (``exec_times`` one per
        tier) and whose ids are ``ids`` (default 1..n); a row ``Job``
        refuses is refused first, with ``Job``'s error."""
        jobs = cls.__new__(cls)
        jobs._store(ids, arrival, exec_times, target_completion)
        _check_order(arrival, ids)
        return jobs

    def _store(self, ids, arrival, exec_times, target) -> None:
        with np.errstate(over="ignore", invalid="ignore"):
            (positive, finite, in_time), total, allowance = _job_rule(
                arrival, exec_times, target)
        kept = positive & finite & in_time
        if not kept.all():
            row = int(kept.argmin())
            check_job(row + 1 if ids is None else ids[row], float(arrival[row]),
                      [float(e[row]) for e in exec_times], float(target[row]))
        # With no tiers the set is empty, and so is its total column.
        for name, values in (("arrival", arrival), ("target_completion", target),
                             ("total_exec", total if len(exec_times) else arrival),
                             ("allowance", allowance)):
            object.__setattr__(self, name, _column(values))
        object.__setattr__(self, "exec_times", tuple(map(_column, exec_times)))

    def __len__(self) -> int:
        return len(self.arrival) - 1

    def __iter__(self) -> Iterator[Job]:
        return map(self.job, range(1, len(self) + 1))

    def __eq__(self, other) -> bool:
        if not isinstance(other, JobSet):
            return NotImplemented
        return self is other or (self.arrival, self.exec_times,
                                 self.target_completion) == (
            other.arrival, other.exec_times, other.target_completion)

    def __hash__(self) -> int:
        return hash((tuple(self.arrival), tuple(self.target_completion)))

    def __repr__(self) -> str:
        return f"JobSet(jobs={tuple(self)!r})"

    @property
    def num_tiers(self) -> int:
        return len(self.exec_times)

    def job(self, job_id: int) -> Job:
        if not 1 <= job_id <= len(self):
            raise KeyError(f"unknown job id {job_id}")
        return Job(operator.index(job_id), self.arrival[job_id], tuple(
            [e[job_id] for e in self.exec_times]),
            self.target_completion[job_id])


def _column(values) -> array:
    """A numpy column as an ``array('d')`` behind an unused entry 0."""
    return array("d", bytes(8) + values.tobytes())


class JobProgress(NamedTuple):
    """The waits a resident job has accrued so far.

    Tier indices are 0-based.  ``completed_waits`` holds the finalized queue
    waits of tiers the job already passed, so their count is the job's
    current tier; ``elapsed_wait`` is the wait accrued so far in the current
    tier (frozen at its final value once service starts).  The record's key
    in ``Snapshot.progress`` is the job's id, and the schedule says where it
    is queued and whether it is in service (``Schedule.walk``).
    """

    completed_waits: tuple[float, ...]
    elapsed_wait: float

    @property
    def tier(self) -> int:
        return len(self.completed_waits)


@dataclass(frozen=True)
class Schedule:
    """Per-queue execution orders plus the in-service job pinned at each head.

    ``orders[tier][k]`` lists job ids front-to-back for resource k of the
    tier.  ``busy[tier][k]`` is the residual execution time of the head job
    when that resource is mid-service, or ``None`` when idle.  Service is
    non-preemptive, so an in-service head is never reordered or migrated;
    everything behind it is fair game for the schedulers.
    """

    orders: tuple[tuple[tuple[int, ...], ...], ...]
    busy: tuple[tuple[float | None, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "orders", tuple(
            tuple(map(tuple, tier)) for tier in self.orders))
        object.__setattr__(self, "busy", tuple(map(tuple, self.busy)))
        if len(self.busy) != len(self.orders):
            raise ValueError("busy map must mirror the queue layout")
        for tier, (tqs, tbs) in enumerate(zip(self.orders, self.busy)):
            if len(tbs) != len(tqs):
                raise ValueError("busy map must mirror the queue layout")
            for k, (queue, residual) in enumerate(zip(tqs, tbs)):
                if residual is None:
                    continue
                if not queue:
                    raise ValueError(
                        f"tier {tier} resource {k}: busy with an empty queue")
                if residual < -TIME_EPS:
                    raise ValueError(
                        f"tier {tier} resource {k}: negative residual")

    @cached_property
    def walk(self) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                            tuple[slice, ...]]:
        """Every scheduled id in walk order (tier-major, each queue front to
        back), with its tier and whether it is in service, and each tier's
        rows; computed once per schedule, not to be written."""
        ids, heads, bounds = array("q"), [], [0]
        for tier_queues, tier_busy in zip(self.orders, self.busy):
            for queue, residual in zip(tier_queues, tier_busy):
                if residual is not None:
                    heads.append(len(ids))
                ids.extend(queue)
            bounds.append(len(ids))
        serving = np.zeros(len(ids), bool)
        serving[heads] = True
        tier_rows = tuple(map(slice, bounds, bounds[1:]))
        tier = np.zeros(len(ids), np.min_scalar_type(len(tier_rows)))
        for t, rows in enumerate(tier_rows[1:], 1):
            tier[rows] = t  # each row's tier, in the narrowest type
        return np.frombuffer(ids, np.int64), tier, serving, tier_rows

    def residual(self, tier: int, k: int) -> float:
        r = self.busy[tier][k]
        return 0.0 if r is None else r

    def in_service_id(self, tier: int, k: int) -> int | None:
        return self.orders[tier][k][0] if self.busy[tier][k] is not None else None

    def waiting(self, tier: int, k: int) -> tuple[int, ...]:
        """Queue content excluding the pinned in-service head."""
        queue = self.orders[tier][k]
        return queue[1:] if self.busy[tier][k] is not None else queue

    def flat_waiting(self) -> tuple[tuple[int, ...], ...]:
        """Waiting orders of every queue, tier-major (the genetic genome)."""
        return tuple(
            self.waiting(tier, k)
            for tier, tier_queues in enumerate(self.orders)
            for k in range(len(tier_queues)))

    def with_waiting(self, flat_orders: Sequence[Sequence[int]]) -> "Schedule":
        """Rebuild with new waiting orders, keeping the pinned heads; the ids
        are kept as given."""
        if len(flat_orders) != sum(len(t) for t in self.orders):
            raise ValueError("need one waiting order per queue")
        new_orders = []
        idx = 0
        for tier, tier_queues in enumerate(self.orders):
            row = []
            for k in range(len(tier_queues)):
                head = self.in_service_id(tier, k)
                prefix = (head,) if head is not None else ()
                row.append(prefix + tuple(flat_orders[idx]))
                idx += 1
            new_orders.append(tuple(row))
        return Schedule(orders=tuple(new_orders), busy=self.busy)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a structural schedule check."""

    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_schedule(schedule: Schedule,
                      env: EnvironmentConfig,
                      jobs: JobSet,
                      snapshot: Snapshot) -> ValidationReport:
    """Check a candidate schedule against the snapshot it was computed from.

    Reported as violations: ``env`` or ``jobs`` is not the snapshot's, the
    layout differs from the environment, a tier's waiting set changed, or an
    in-service head moved or had its residual changed (beyond ``TIME_EPS``).
    A ``Snapshot`` is structurally valid by construction: it holds each
    resident once under a known id, with no residual above its head's
    execution time.  So a candidate that passes holds the snapshot's jobs in
    their tiers, each once; no unknown id, duplicate or job in two tiers
    needs a walk of its own.
    """
    if env != snapshot.env or jobs != snapshot.jobs:
        return ValidationReport(violations=(
            "environment or job set differs from the snapshot's",))
    if tuple(len(tier) for tier in schedule.orders) != env.resources_per_tier:
        return ValidationReport(violations=(
            "layout does not match the environment",))

    violations: list[str] = []
    for tier, want in enumerate(snapshot.waiting_by_tier):
        have = sorted(
            jid for k in range(len(schedule.orders[tier]))
            for jid in schedule.waiting(tier, k))
        if have != want.tolist():
            violations.append(f"tier {tier}: waiting job set changed")
    reference = snapshot.schedule
    for tier, k in env.iter_queues():
        ref_head = reference.in_service_id(tier, k)
        if ref_head != schedule.in_service_id(tier, k):
            violations.append(
                f"tier {tier} resource {k}: in-service job "
                f"{ref_head} reordered or migrated")
        elif ref_head is not None and abs(
                schedule.residual(tier, k)
                - reference.residual(tier, k)) > TIME_EPS:
            violations.append(
                f"tier {tier} resource {k}: in-service residual changed")

    return ValidationReport(violations=tuple(violations))


class Residents(NamedTuple):
    """A snapshot's waits as columns, one row per resident in the walk order
    of its schedule (``Schedule.walk``, which gives each row's id, tier and
    in-service flag): the completed waits (a column per tier but the last,
    0.0 from the job's tier on) and the elapsed wait."""

    waits: np.ndarray
    elapsed: np.ndarray


class _Progress(Mapping):
    """A snapshot's ``progress``: each resident's ``JobProgress`` by id,
    built when read from its row; ``ranked`` holds the ids in id order and
    ``order`` their rows.  It reads as the equivalent dict."""

    def __init__(self, walk, residents: Residents, ranked: np.ndarray):
        self.walk, self.residents, self.ranked = walk, residents, ranked

    @cached_property
    def order(self) -> np.ndarray:
        return self.walk[0].argsort()

    def __len__(self) -> int:
        return len(self.ranked)

    def __iter__(self):
        return iter(self.ranked.tolist())

    def __getitem__(self, jid) -> JobProgress:
        try:
            i = int(self.ranked.searchsorted(operator.index(jid)))
        except TypeError:
            raise KeyError(jid) from None
        if i == len(self.ranked) or self.ranked[i] != jid:
            raise KeyError(jid)
        row, tier, (waits, elapsed) = self.order[i], self.walk[1], self.residents
        return tuple.__new__(JobProgress, (  # skips the Python-level __new__
            tuple(waits[row, :tier[row]].tolist()), elapsed[row].item()))

    def __repr__(self) -> str:
        return repr(dict(self.items()))


def _check_residents(schedule: Schedule, jobs: JobSet, residents: Residents,
                     held: np.ndarray, records: int) -> np.ndarray:
    """The ids in id order, or the ValueError of the first row that fails a
    check, with the first check it fails: an unknown id, an id seen in an
    earlier row, an in-service residual above the head's execution time, no
    progress record (``held`` -1), a record in another tier (columns pass
    the walk's own tiers as ``held``), a negative completed or elapsed wait,
    a non-finite one.  Then ``records`` must count the rows.  The rows are searched only when a summary of the
    columns (a NaN makes the least and greatest wait NaN) shows a failure."""
    (ids, tier, _, _), (waits, elapsed) = schedule.walk, residents
    num_jobs, floor = len(jobs), -TIME_EPS
    ranked, over, row = ids.copy(), [], 0
    ranked.sort()
    for t, (tier_queues, tier_busy) in enumerate(
            zip(schedule.orders, schedule.busy)):
        for queue, residual in zip(tier_queues, tier_busy):
            if (residual is not None and 1 <= queue[0] <= num_jobs
                    and residual > jobs.exec_times[t][queue[0]] + TIME_EPS):
                over.append(row)
            row += len(queue)
    if len(ids) and (ranked[0] < 1 or ranked[-1] > num_jobs or over
                     or np.count_nonzero(ranked[1:] == ranked[:-1])
                     or held is not tier and np.count_nonzero(held != tier)
                     or not floor <= waits.min(initial=elapsed.min())
                         <= waits.max(initial=elapsed.max()) < math.inf):
        order, twice = ids.argsort(kind="stable"), np.zeros(len(ids), bool)
        twice[order[1:]] = ids[order[1:]] == ids[order[:-1]]
        fails = ((ids < 1) | (ids > num_jobs), twice, np.isin(
            np.arange(len(ids)), over), held < 0, held != tier,
            (waits < floor).any(1), elapsed < floor,
            ~(np.isfinite(waits).all(1) & np.isfinite(elapsed)))
        row = int(reduce(operator.or_, fails).argmax())
        jid, t = ids[row], tier[row]
        raise ValueError(next(message for fail, message in zip(fails, (
            f"unknown job id {jid} in tier {t}", f"job {jid} scheduled twice",
            f"job {jid}: residual exceeds its tier {t} execution time",
            "schedule and progress must cover the same jobs",
            f"job {jid} scheduled in tier {t} but resides in tier {held[row]}",
            f"job {jid}: negative completed wait",
            f"job {jid}: negative elapsed wait",
            f"job {jid}: non-finite wait")) if fail[row]))
    if records != len(ids):
        raise ValueError("schedule and progress must cover the same jobs")
    return ranked


@dataclass(frozen=True)
class Snapshot:
    """Frozen view of the environment at one instant.

    Bundles the live schedule with per-job progress so violation times of
    candidate schedules can be evaluated without touching the simulator.
    ``Schedule.walk`` gives each resident's id, tier and in-service flag,
    and ``progress`` its waits: ``JobProgress`` records by id, or the
    ``Residents`` columns over the walk that ``Simulator.snapshot`` builds,
    kept as ``residents`` and read as a mapping that builds each record when
    read.  One vectorised check makes it structurally valid by construction:
    ``ValueError`` refuses a schedule laid out unlike ``env``, jobs with
    another tier count, an id outside ``1..len(jobs)``, a job scheduled
    twice (in one tier or two), an in-service residual above the head's
    execution time, and waits that disagree with the queues (coverage, row
    or column count, tier, negative or non-finite waits).
    ``validate_schedule`` checks candidates against a snapshot.
    """

    env: EnvironmentConfig
    jobs: JobSet
    clock: float
    schedule: Schedule
    progress: Mapping[int, JobProgress] | Residents = field(
        default_factory=dict)

    def __post_init__(self) -> None:
        schedule, progress = self.schedule, self.progress
        layout = tuple(len(tier) for tier in schedule.orders)
        if layout != self.env.resources_per_tier:
            raise ValueError("schedule layout does not match the environment")
        if self.jobs.num_tiers not in (0, self.env.num_tiers):
            raise ValueError("job tier count does not match the environment")
        ids, tier, _, _ = walk = schedule.walk
        if type(progress) is Residents:  # refused unless a row per walk row
            residents, held, records = progress, tier, len(ids)
            if (progress.waits.shape, progress.elapsed.shape) != (
                    (records, self.env.num_tiers - 1), (records,)):
                raise ValueError(
                    "schedule and progress must cover the same jobs")
        else:  # each scheduled job's record, and the tier it gives (-1: none)
            got = [progress.get(jid) for jid in ids.tolist()]
            held = np.array([len(r[0]) if r else -1 for r in got], int)
            waits = np.zeros((len(ids), self.env.num_tiers - 1))
            for row, record in enumerate(got):
                done = record[0][:waits.shape[1]] if record else ()
                waits[row, :len(done)] = done
            elapsed = np.array([r[1] if r else 0.0 for r in got], float)
            residents, records = Residents(waits, elapsed), len(progress)
        ranked = _check_residents(schedule, self.jobs, residents, held, records)
        object.__setattr__(self, "progress", _Progress(walk, residents, ranked))

    @property
    def residents(self) -> Residents:
        """The residents' waits, in the walk order of the schedule."""
        return self.progress.residents

    @cached_property
    def waiting_by_tier(self) -> tuple[np.ndarray, ...]:
        """Each tier's waiting ids, in id order."""
        ids, _, serving, tier_rows = self.schedule.walk
        by_tier = tuple(ids[rows][~serving[rows]] for rows in tier_rows)
        for waiting in by_tier:
            waiting.sort()
        return by_tier

    def waiting_ids(self, tier: int | None = None) -> list[int]:
        if tier is None:
            return np.sort(np.concatenate(self.waiting_by_tier)).tolist()
        return self.waiting_by_tier[tier].tolist()
