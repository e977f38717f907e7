"""Experiment harness: generate workloads, run one policy, compare policies.

Outputs come in pairs: human-readable tables on stdout and versioned
line-delimited JSON records for machines.  Every summary number can be
re-derived from the per-job records.  All user-facing tier and resource
numbers are 1-based; ids and seeds are echoed so runs can be reproduced.

Exit codes: 0 success, 2 usage error, 3 unreadable or invalid input,
4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from .baselines import PolicyKind, make_policy
from .ga import GAConfig, QueueVariant, evolve
from .model import EnvironmentConfig, InvalidScheduleError, Snapshot
from .penalty import AllowanceMode, ViolationBreakdown, total_penalty
from .sim import Simulator
from .workload import WorkloadFormatError, WorkloadSpec, generate, load, save

BASELINES = tuple(kind.value for kind in PolicyKind)
GA_POLICIES = tuple("ga-" + variant for variant in (QueueVariant.VIRTUALIZED,
                                                    QueueVariant.SEGMENTED))

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4


def _parse_resources(text: str, tiers: int) -> tuple[int, ...]:
    """One count per tier, or one for all; ``--tiers`` below 1 is left to
    ``EnvironmentConfig``."""
    parts = text.replace(",", " ").split()
    counts = tuple(map(int, parts)) if all(map(str.isdecimal, parts)) else ()
    if len(counts) == 1:
        counts *= tiers
    if tiers >= 1 and (len(counts) != tiers or min(counts) < 1):
        raise ValueError(f"--resources {text!r} must be one positive count "
                         f"or {tiers} comma-separated ones")
    return counts


def _add_workload_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=int, help="number of jobs to draw")
    p.add_argument("--lambda", dest="arrival_rate", type=float,
                   help="Poisson arrival rate (jobs per time unit)")
    p.add_argument("--mu", type=float, default=1.0,
                   help="exponential service rate per resource")
    p.add_argument("--allowance", type=float, default=0.20,
                   help="waiting allowance as a fraction of total execution time")
    p.add_argument("--seed", type=int, default=0, help="workload seed")


def _add_env_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tiers", type=int, default=2)
    p.add_argument("--resources", default="3",
                   help="resources per tier: one count or a comma list")
    p.add_argument("--nu", type=float, default=0.01,
                   help="penalty curve scaling factor")
    p.add_argument("--chi", type=float, default=1.0,
                   help="penalty curve monetary ceiling")


def _add_ga_flags(p: argparse.ArgumentParser) -> None:
    # Each defaults to None, so that one given without a genetic policy to
    # read it can be refused.
    p.add_argument("--population", type=int,
                   help="chromosomes per generation (default 10)")
    p.add_argument("--generations", type=int,
                   help="generations per search (default 1000)")
    p.add_argument("--ga-seed", type=int,
                   help="genetic search seed (defaults to the workload seed)")
    p.add_argument("--initial-policy", choices=BASELINES,
                   help="arrival assignment behind every genetic policy's "
                        "starting schedule (default fcfs)")


def _ga_flags_given(args) -> list[str]:
    return [flag for flag, value in (
        ("--population", args.population), ("--generations", args.generations),
        ("--ga-seed", args.ga_seed), ("--initial-policy", args.initial_policy))
        if value is not None]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiersched",
        description="Multi-tier job scheduling testbed: penalty-aware "
                    "genetic scheduling vs WRR/WLC baselines.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a synthetic workload file")
    _add_workload_flags(p_gen)
    p_gen.add_argument("--tiers", type=int, default=2)
    p_gen.add_argument("--out", default="workload.txt")
    p_gen.set_defaults(func=cmd_generate)

    p_run = sub.add_parser("run", help="run one policy and report violations")
    _add_workload_flags(p_run)
    _add_env_flags(p_run)
    _add_ga_flags(p_run)
    p_run.add_argument("--epoch", type=int, default=0,
                       help="online rescheduling cadence in events; 0 "
                            "optimizes one frozen snapshot")
    p_run.add_argument("--workload", help="workload file (overrides generation flags)")
    p_run.add_argument("--policy", default="fcfs",
                       choices=BASELINES + GA_POLICIES)
    p_run.add_argument("--mode", default="total", choices=["total", "per-tier"],
                       help="allowance formulation every run is judged in; "
                            "only a genetic policy optimizes it")
    p_run.add_argument("--out-dir", default="run-out")
    p_run.add_argument("--trace", action="store_true",
                       help="also write the event trace")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare",
                           help="run several policies over seed sweeps")
    _add_workload_flags(p_cmp)
    _add_env_flags(p_cmp)
    _add_ga_flags(p_cmp)
    p_cmp.add_argument("--policies", nargs="+", required=True,
                       help="policy names; genetic ones accept a ':total' "
                            "(default) or ':per-tier' suffix")
    p_cmp.add_argument("--seeds", nargs="+", type=int, default=None,
                       help="workload seeds (defaults to --seed)")
    p_cmp.add_argument("--out-dir", default="compare-out")
    # A --seed default would hide one given beside --seeds.
    p_cmp.set_defaults(func=cmd_compare, seed=None)
    return parser


class SystemExit2(Exception):
    """Usage error discovered after argparse (still exits with code 2)."""


def _require_workload_flags(args) -> None:
    missing = []
    if args.jobs is None:
        missing.append("--jobs")
    if args.arrival_rate is None:
        missing.append("--lambda")
    if missing:
        raise SystemExit2(f"missing required flags: {', '.join(missing)}")


def _workload_spec(args, seed=None) -> WorkloadSpec:
    """Generation flags as a spec; ``seed`` overrides ``--seed``."""
    _require_workload_flags(args)
    return WorkloadSpec(
        arrival_rate=float(args.arrival_rate),
        num_jobs=int(args.jobs),
        service_rate=float(args.mu),
        allowance_fraction=float(args.allowance),
        seed=int(args.seed if seed is None else seed),
    )


def _workload(args, env: EnvironmentConfig):
    if getattr(args, "workload", None):
        try:
            return load(args.workload)
        except OSError as err:  # missing, a directory, unreadable
            raise WorkloadFormatError(str(err)) from None
    return generate(_workload_spec(args), env)


def _out_dir(args) -> Path:
    """Create ``--out-dir``; a path that cannot be a directory (say, one
    under a regular file) is a usage error."""
    try:
        Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise SystemExit2(f"--out-dir {args.out_dir}: {err.strerror}") from None
    return Path(args.out_dir)


def _environment(args) -> EnvironmentConfig:
    tiers = int(args.tiers)
    return EnvironmentConfig(
        num_tiers=tiers,
        resources_per_tier=_parse_resources(args.resources, tiers),
        chi=float(args.chi),
        nu=float(args.nu),
    )


def cmd_generate(args) -> int:
    spec = _workload_spec(args)
    env = EnvironmentConfig(num_tiers=int(args.tiers),
                            resources_per_tier=1)
    jobs = generate(spec, env)
    try:
        save(jobs, args.out)
    except OSError as err:
        raise SystemExit2(f"--out {args.out}: {err.strerror}") from None
    print(f"wrote {len(jobs)} jobs to {args.out} "
          f"(lambda={spec.arrival_rate} mu={spec.service_rate} "
          f"allowance={spec.allowance_fraction} seed={spec.seed})")
    return EXIT_OK


def _policy(token: str, mode: str = "total"):
    """Split 'ga-virtualized:per-tier' into (variant, mode); a baseline has
    no variant and is judged in ``mode``."""
    base, _, suffix = token.partition(":")
    if base not in GA_POLICIES:
        if token not in BASELINES:
            raise SystemExit2(f"unknown policy {token!r}")
        return None, AllowanceMode(mode)
    mode = suffix or mode
    if mode not in ("total", "per-tier"):
        raise SystemExit2(f"unknown allowance mode {mode!r} in {token!r}")
    return base.removeprefix("ga-"), AllowanceMode(mode)


def _ga_config(args, policy, seed: int) -> GAConfig | None:
    """Search flags as a config, None for a baseline; ``--ga-seed``
    overrides ``seed``."""
    variant, mode = policy
    if variant is None:
        return None
    sizes = {name: int(value) for name in ("population", "generations")
             if (value := getattr(args, name)) is not None}
    return GAConfig(
        variant=variant,
        mode=mode,
        seed=int(args.ga_seed if args.ga_seed is not None else seed),
        **sizes,
    )


def _job_records(breakdown: ViolationBreakdown, snapshot: Snapshot,
                 phase: str) -> list[dict]:
    records = []
    for jid in sorted(breakdown.per_job):
        v = breakdown.per_job[jid]
        prog = snapshot.progress[jid]
        records.append({
            "schema": "tiersched.job/1",
            "phase": phase,
            "job": jid,
            "tier": prog.tier + 1,
            "status": ("in_service" if jid in snapshot.in_service_ids
                       else "waiting"),
            "alpha": v.alpha,
            "cost": v.cost,
            "waits": list(prog.completed_waits) + [prog.elapsed_wait],
            "expected_rt": snapshot.jobs.job(jid).total_exec + v.wait,
        })
    return records


def _write_jsonl(path: Path, records) -> None:
    with path.open("w", encoding="ascii") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def _write_trace(out_dir: Path, sim: Simulator) -> None:
    (out_dir / "trace.txt").write_text(
        "\n".join(sim.trace_lines()) + "\n", encoding="ascii")


def _improvement(initial: float, enhanced: float) -> float:
    if initial <= 0:
        return 0.0
    return 100.0 * (initial - enhanced) / initial


def _totals(result) -> dict:
    return {
        "violation": result.total_violation,
        "penalty": result.total_cost,
        "signed": result.total_signed,
        "max_violation": result.max_violation,
    }


def _write_run_summary(out_dir: Path, args, arrival: str, state: dict,
                       initial, enhanced, evaluations: int) -> dict:
    """Write ``run``'s ``summary.json``; ``state`` describes what was judged
    (a frozen snapshot, or a drained stream when online)."""
    summary = {
        "schema": "tiersched.run-summary/2",
        "policy": args.policy,
        "mode": args.mode,
        "arrival_policy": arrival,
        "seed": int(args.seed),
        **state,
        "initial": _totals(initial),
        "enhanced": _totals(enhanced),
        "improvement": {
            "violation_pct": _improvement(initial.total_violation,
                                          enhanced.total_violation),
            "penalty_pct": _improvement(initial.total_cost,
                                        enhanced.total_cost),
        },
        "evaluations": evaluations,
    }
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2) + "\n", encoding="ascii")
    return summary


def _frozen(jobs, env, arrival: str, mode: AllowanceMode, config, seed: int,
            keep_trace: bool = False):
    """Dispatch with ``arrival``, freeze once the last job has arrived and
    judge the snapshot; given a config, search it and judge the best.

    Returns ``(sim, snapshot, initial, enhanced, result)``; without a config
    ``enhanced`` is ``initial`` and ``result`` is None.
    """
    sim = Simulator(jobs, env, make_policy(arrival, env, seed=seed),
                    keep_trace=keep_trace)
    sim.run(until_external_arrivals=len(jobs))
    snapshot = sim.snapshot()
    initial = total_penalty(snapshot, mode)
    if config is None:
        return sim, snapshot, initial, initial, None
    result = evolve(snapshot, config)
    enhanced = total_penalty(snapshot, mode, schedule=result.best_schedule)
    return sim, snapshot, initial, enhanced, result


def _snapshot_counts(snapshot: Snapshot) -> dict:
    per_tier = [len([j for j, p in snapshot.progress.items() if p.tier == t])
                for t in range(snapshot.env.num_tiers)]
    return {
        "resident": len(snapshot.progress),
        "waiting": len(snapshot.waiting_ids()),
        "per_tier": per_tier,
    }


def cmd_run(args) -> int:
    # A loaded workload never reaches WorkloadSpec's seed check, and the
    # random policy and the GA seed default still read --seed.
    if args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {args.seed}")
    if args.epoch < 0:
        raise SystemExit2(f"--epoch must be 0 or more, not {args.epoch}")
    unread = (["--epoch"] if args.epoch > 0 else []) + _ga_flags_given(args)
    if unread and args.policy in BASELINES:
        raise SystemExit2(f"{unread[0]} needs a genetic --policy, not "
                          f"{args.policy!r}")
    env = _environment(args)
    jobs = _workload(args, env)
    if jobs.num_tiers != env.num_tiers:  # only a loaded file can differ
        raise ValueError(
            f"--workload {args.workload} has {jobs.num_tiers} "
            f"tier{'s' * (jobs.num_tiers != 1)}, --tiers is {env.num_tiers}")
    # One arrival and one completion per job and tier.
    events = 2 * env.num_tiers * len(jobs)
    if args.epoch > 0 and args.epoch >= events:
        raise SystemExit2(f"--epoch {args.epoch} is not below the run's "
                          f"{events} events, so no rescheduling decision "
                          f"could move a job")
    policy = _policy(args.policy, args.mode)
    config = _ga_config(args, policy, args.seed)
    arrival = (args.initial_policy or "fcfs") if config else args.policy
    out_dir = _out_dir(args)

    if args.epoch > 0:
        return _run_online(args, env, jobs, arrival, config, out_dir)

    sim, snapshot, initial, enhanced, result = _frozen(
        jobs, env, arrival, policy[1], config, int(args.seed), args.trace)
    summary = _write_run_summary(
        out_dir, args, arrival,
        {"snapshot_clock": snapshot.clock,
         "counts": _snapshot_counts(snapshot),
         "decisions": int(result is not None)},
        initial, enhanced, result.evaluations if result else 0)
    _write_jsonl(out_dir / "jobs.jsonl",
                 _job_records(initial, snapshot, "initial")
                 + _job_records(enhanced, snapshot, "enhanced"))
    if result and result.history:
        _write_jsonl(out_dir / "history.jsonl", (
            {"schema": "tiersched.history/1", "generation": h.generation,
             "best": h.best, "mean": h.mean} for h in result.history))
    if args.trace:
        _write_trace(out_dir, sim)

    print(f"policy {args.policy} mode {args.mode} "
          f"({summary['counts']['resident']} resident jobs at "
          f"t={snapshot.clock:.3f})")
    print(f"{'':14}{'violation':>12} {'penalty':>10} {'max':>10}")
    for phase, bd in (("initial", initial), ("enhanced", enhanced)):
        print(f"{phase:<14}{bd.total_violation:>12.3f} "
              f"{bd.total_cost:>10.4f} {bd.max_violation:>10.3f}")
    print(f"{'improvement':<14}"
          f"{summary['improvement']['violation_pct']:>11.2f}% "
          f"{summary['improvement']['penalty_pct']:>9.2f}%")
    print(f"records in {out_dir}")
    return EXIT_OK


def _run_online(args, env, jobs, arrival: str, config: GAConfig,
                out_dir: Path) -> int:
    """Online variant: re-run the genetic search at a fixed event cadence."""
    seed = int(args.seed)

    evaluations: list[int] = []  # each decision's search budget

    def optimizer(snapshot: Snapshot):
        result = evolve(snapshot, config)
        evaluations.append(result.evaluations)
        return result.best_schedule

    baseline = Simulator(jobs, env, make_policy(arrival, env, seed=seed)
                         ).run().report()
    sim = Simulator(jobs, env, make_policy(arrival, env, seed=seed),
                    optimizer=optimizer, reschedule_every=int(args.epoch),
                    keep_trace=args.trace)
    optimized = sim.run().report()

    summary = _write_run_summary(
        out_dir, args, arrival,
        {"online_epoch": int(args.epoch),
         "counts": {"completed": optimized.job_count},
         "decisions": len(evaluations)},
        baseline, optimized, sum(evaluations))
    records = []
    for phase, report in (("initial", baseline), ("enhanced", optimized)):
        for jid in sorted(report.per_job):
            o = report.per_job[jid]
            records.append({
                "schema": "tiersched.job/1", "phase": phase, "job": jid,
                "status": "departed", "alpha": o.alpha, "cost": o.cost,
                "response_time": o.response_time, "total_wait": o.total_wait,
            })
    _write_jsonl(out_dir / "jobs.jsonl", records)
    if args.trace:
        _write_trace(out_dir, sim)
    print(f"online {args.policy}, decisions {len(evaluations)}: violation "
          f"{baseline.total_violation:.3f} -> {optimized.total_violation:.3f} "
          f"({summary['improvement']['violation_pct']:.2f}% better)")
    return EXIT_OK


def cmd_compare(args) -> int:
    if args.seeds and args.seed is not None:
        raise SystemExit2("--seed and --seeds cannot both be given")
    env = _environment(args)
    seeds = args.seeds or [int(args.seed or 0)]
    # Every input is checked before the first row runs or a file is written.
    for seed in seeds:
        if seed < 0:
            raise ValueError(f"{'--seeds' if args.seeds else '--seed'} must "
                             f"be nonnegative, got {seed}")
    specs = [_workload_spec(args, seed) for seed in seeds]
    policies = {token: _policy(token) for token in args.policies}
    # 'ga-virtualized' and 'ga-virtualized:total' name one (variant, mode) row.
    rows = [(policies[token][0] or token, policies[token][1])
            for token in args.policies]
    for flag, values, keys in (("policies", args.policies, rows),
                               ("seeds", seeds, seeds)):
        repeated = sorted({v for v, key in zip(values, keys)
                           if keys.count(key) > 1})
        if repeated:
            raise SystemExit2(f"{flag} given more than once: "
                              f"{', '.join(map(str, repeated))}")
    unread = _ga_flags_given(args)
    if unread and not any(variant for variant, _ in policies.values()):
        raise SystemExit2(f"{unread[0]} needs a genetic --policies entry, "
                          f"not only baselines")
    configs = {(token, spec.seed): _ga_config(args, policy, spec.seed)
               for token, policy in policies.items() for spec in specs}
    out_dir = _out_dir(args)

    run_records = []
    job_records = []
    for spec in specs:
        seed = spec.seed
        jobs = generate(spec, env)
        for token, (_, mode) in policies.items():
            config = configs[token, seed]
            arrival = (args.initial_policy or "fcfs") if config else token
            bd = _frozen(jobs, env, arrival, mode, config, int(seed))[3]
            entry = {
                "schema": "tiersched.compare-run/1",
                "policy": token,
                "seed": int(seed),
                "mode": mode.value,
                "violation_total": bd.total_violation,
                "violation_mean": bd.mean_violation,
                "violation_max": bd.max_violation,
                "penalty_total": bd.total_cost,
                "jobs": bd.job_count,
            }
            run_records.append(entry)
            for jid in sorted(bd.per_job):
                v = bd.per_job[jid]
                job_records.append({
                    "schema": "tiersched.compare-job/1", "policy": token,
                    "seed": int(seed), "job": jid, "alpha": v.alpha,
                    "cost": v.cost,
                })

    _write_jsonl(out_dir / "runs.jsonl", run_records)
    _write_jsonl(out_dir / "jobs.jsonl", job_records)

    header = f"{'policy':<28}{'total':>12}{'mean':>10}{'max':>10}"
    lines = [header, "-" * len(header)]
    for token in args.policies:
        entries = [e for e in run_records if e["policy"] == token]
        total = statistics.median(e["violation_total"] for e in entries)
        mean = statistics.median(e["violation_mean"] for e in entries)
        worst = statistics.median(e["violation_max"] for e in entries)
        lines.append(f"{token:<28}{total:>12.3f}{mean:>10.3f}{worst:>10.3f}")
    table = "\n".join(lines)
    (out_dir / "table.txt").write_text(table + "\n", encoding="ascii")
    print(f"median violation over {len(seeds)} seed(s)")
    print(table)
    print(f"records in {out_dir}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit2 as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (WorkloadFormatError, FileNotFoundError, ValueError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (InvalidScheduleError, AssertionError) as err:
        print(f"internal error: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
