"""Element-by-element reference for workload generation and the checks of
``tiersched.Job`` and ``tiersched.JobSet``.

``reference_generate`` draws the same substreams as ``tiersched.generate``
and builds each job's fields one numpy scalar at a time.
``reference_job_checks`` and ``reference_jobset_checks`` repeat the two
constructors' checks with generator expressions and a ``None`` sentinel.
The package draws each column once and checks each job in plain loops and
each job set in one walk; the tests hold the two to each other: the same
fields bit for bit, the same inputs refused with the same error type and
message.

Totals over a job's tiers are added left to right from the int 0, as
``sum()`` adds them on Python 3.11, so the reference does not depend on the
interpreter's ``sum()``.
"""

from __future__ import annotations

import math

import numpy as np

from tiersched import EnvironmentConfig, WorkloadSpec
from tiersched.model import TIME_EPS


def _left_to_right(values):
    total = 0
    for value in values:
        total = total + value
    return total


def _stream(seed: int, key: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(key,))
    return np.random.Generator(np.random.PCG64(seq))


def reference_generate(spec: WorkloadSpec, env: EnvironmentConfig
                       ) -> list[tuple[int, float, tuple[float, ...], float]]:
    """The ``(id, arrival, exec_times, target_completion)`` of every job
    ``generate(spec, env)`` must build."""
    n = spec.num_jobs
    arrivals = np.cumsum(
        _stream(spec.seed, 0).exponential(1.0 / spec.arrival_rate, n))
    execs = [
        _stream(spec.seed, 1 + j).exponential(1.0 / spec.service_rate, n)
        for j in range(env.num_tiers)
    ]
    fields = []
    for i in range(n):
        exec_times = tuple(float(execs[j][i]) for j in range(env.num_tiers))
        total = _left_to_right(exec_times)
        arrival = float(arrivals[i])
        fields.append((i + 1, arrival, exec_times,
                       arrival + total + spec.allowance_fraction * total))
    return fields


def reference_job_checks(id, arrival, exec_times, target_completion
                         ) -> tuple[tuple[float, ...], float, float]:
    """Raise where ``Job(...)`` must refuse these fields; otherwise return
    the stored ``exec_times``, ``total_exec`` and ``allowance``."""
    exec_times = tuple(map(float, exec_times))
    if id < 1:
        raise ValueError("job ids start at 1")
    if not exec_times:
        raise ValueError(f"job {id}: needs at least one tier execution time")
    if not all(0 < e < math.inf for e in exec_times):
        raise ValueError(
            f"job {id}: execution times must be positive and finite")
    if not (math.isfinite(arrival) and math.isfinite(target_completion)):
        raise ValueError(
            f"job {id}: arrival and target completion must be finite")
    total = _left_to_right(exec_times)
    deadline = target_completion - arrival
    if deadline < total - TIME_EPS:
        raise ValueError(
            f"job {id}: deadline {deadline!r} below total "
            f"execution time {total!r}")
    return exec_times, total, deadline - total


def reference_jobset_checks(jobs) -> None:
    """Raise where ``JobSet(jobs)`` must refuse the (valid) jobs."""
    last_arrival = None
    tiers = None
    for pos, job in enumerate(tuple(jobs), start=1):
        if job.id != pos:
            raise ValueError(
                f"job ids must be dense and arrival-ordered; expected id "
                f"{pos}, found {job.id}")
        if last_arrival is not None and job.arrival < last_arrival - TIME_EPS:
            raise ValueError(
                f"job {job.id} arrives before job {job.id - 1}; ids must "
                f"follow arrival order")
        last_arrival = (job.arrival if last_arrival is None
                        else max(job.arrival, last_arrival))
        if tiers is None:
            tiers = len(job.exec_times)
        elif len(job.exec_times) != tiers:
            raise ValueError("all jobs must cover the same number of tiers")
