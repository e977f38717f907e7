"""Reproducible workload synthesis and the plain-text workload file format.

Arrivals follow a Poisson process; per-tier execution times are exponential.
Each random purpose draws from its own substream of the seeded generator, so
changing the tier count never perturbs the arrival sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import EnvironmentConfig, JobSet, check_job, count

FORMAT_NAME = "tiersched-workload"
FORMAT_VERSION = 1


class WorkloadFormatError(ValueError):
    """Malformed or unsupported workload file."""


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of a synthetic job stream."""

    arrival_rate: float
    num_jobs: int
    service_rate: float = 1.0
    allowance_fraction: float = 0.20
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("num_jobs", "seed"):
            object.__setattr__(self, name, count(name, getattr(self, name)))
        if not 0 < self.arrival_rate < math.inf:
            raise ValueError("arrival_rate must be positive and finite")
        if not 0 < self.service_rate < math.inf:
            raise ValueError("service_rate must be positive and finite")
        if self.num_jobs < 1:
            raise ValueError("need at least one job")
        if not 0 <= self.allowance_fraction < math.inf:
            raise ValueError("allowance_fraction must be nonnegative and finite")
        if self.seed < 0:
            raise ValueError(f"workload seed must be nonnegative, got {self.seed}")


def _stream(seed: int, key: int) -> np.random.Generator:
    # Substream 0: interarrivals; substream 1+j: tier-j execution times.
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(key,))
    return np.random.Generator(np.random.PCG64(seq))


def generate(spec: WorkloadSpec, env: EnvironmentConfig) -> JobSet:
    """Draw a job stream; identical seeds give identical job sets.

    Each job's target completion grants it queueing slack equal to
    ``allowance_fraction`` of its total execution time.
    """
    n = spec.num_jobs
    # An overflow gives inf, which ``JobSet.from_columns`` refuses as ``Job``
    # does; numpy's warning would only repeat that refusal on stderr.
    with np.errstate(over="ignore"):
        arrivals = np.cumsum(
            _stream(spec.seed, 0).exponential(1.0 / spec.arrival_rate, n))
        execs = [
            _stream(spec.seed, 1 + j).exponential(1.0 / spec.service_rate, n)
            for j in range(env.num_tiers)
        ]
        # Elementwise adds in tier order: each job's total is its execution
        # times added left to right, as ``Job`` adds them.
        totals = execs[0]
        for column in execs[1:]:
            totals = totals + column
        targets = arrivals + totals + spec.allowance_fraction * totals
    return JobSet.from_columns(arrivals, execs, targets)


def _columns(num_tiers: int) -> list[str]:
    return (["id", "arrival"]
            + [f"exec_{j + 1}" for j in range(num_tiers)]
            + ["target_completion"])


def save(jobs: JobSet, path) -> None:
    """Write a job set as diff-able plain text with bit-exact floats."""
    num_tiers = jobs.num_tiers
    lines = [
        f"# {FORMAT_NAME} {FORMAT_VERSION}",
        f"# tiers {num_tiers}",
        "# columns " + " ".join(_columns(num_tiers)),
    ]
    columns = (jobs.arrival, *jobs.exec_times, jobs.target_completion)
    for jid in range(1, len(jobs) + 1):
        lines.append(" ".join([str(jid)] + [repr(c[jid]) for c in columns]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def load(path) -> JobSet:
    """Read a workload file back; ``load(save(x)) == x``.  A file with no
    job lines is refused, as ``WorkloadSpec`` refuses zero jobs, and so is
    a byte outside ASCII, by its line."""
    text = Path(path).read_bytes().decode("ascii", errors="replace")
    lines = text.splitlines()
    if not text.isascii():
        lineno = next(n for n, line in enumerate(lines, start=1)
                      if not line.isascii())
        raise WorkloadFormatError(f"{path}: line {lineno}: not ASCII text")
    if len(lines) < 3:
        raise WorkloadFormatError(f"{path}: truncated header")

    head = lines[0].split()
    if head[:2] != ["#", FORMAT_NAME] or len(head) != 3:
        raise WorkloadFormatError(f"line 1: not a {FORMAT_NAME} file")
    if head[2] != str(FORMAT_VERSION):
        raise WorkloadFormatError(
            f"line 1: unsupported format version {head[2]!r} "
            f"(expected {FORMAT_VERSION})")

    tier_head = lines[1].split()
    if tier_head[:2] != ["#", "tiers"] or len(tier_head) != 3:
        raise WorkloadFormatError("line 2: expected '# tiers N'")
    try:
        num_tiers = int(tier_head[2])
    except ValueError:
        raise WorkloadFormatError("line 2: tier count must be an integer") from None
    if num_tiers < 1:
        raise WorkloadFormatError("line 2: tier count must be at least 1")

    if lines[2].split() != ["#", "columns"] + _columns(num_tiers):
        raise WorkloadFormatError("line 3: column list does not match the tier count")

    ids, rows = [], []
    for lineno, line in enumerate(lines[3:], start=4):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != 3 + num_tiers:
            raise WorkloadFormatError(
                f"line {lineno}: expected {3 + num_tiers} fields, "
                f"found {len(fields)}")
        try:
            jid, times = int(fields[0]), [float(f) for f in fields[1:]]
            check_job(jid, times[0], times[1:-1], times[-1])
        except ValueError as err:
            raise WorkloadFormatError(f"line {lineno}: {err}") from None
        ids.append(jid)
        rows.append(times)
    if not rows:
        raise WorkloadFormatError(f"{path}: no job lines")
    arrival, *exec_times, target = np.array(rows).T
    try:
        return JobSet.from_columns(arrival, exec_times, target, np.array(ids))
    except ValueError as err:
        raise WorkloadFormatError(f"{path}: {err}") from None
