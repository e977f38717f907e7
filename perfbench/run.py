"""tiersched benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload frozen-ga --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run.  Each run
also writes its record (metadata, end-to-end figures, workload details) to
``.bench_out/<workload>-seed<seed>-trace<t>.json``; a traced run adds its
spans in ``.bench_out/<workload>.spans.npz`` and, when the untraced record
of the same workload and seed exists, the tracing overhead against it.
See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(tally, scaled: bool = True) -> dict[str, tuple[float, str]]:
    """The metrics every workload reports, as defined in NOTES.md.

    When ``scaled``, timings are divided by the host's measured slowdown
    and rates multiplied by it (see hostspeed.py): a set-up pass by the
    slowdown around it, the timed loop by the run's mean slowdown.
    """
    slowdown = tally.speed.slowdown if scaled else 1.0
    setup_s = statistics.median(
        s / (d if scaled else 1.0)
        for s, d in zip(tally.setup_s, tally.setup_slowdown))
    return {
        "setup_s": (setup_s, "s"),
        "op_ms_mean": (statistics.fmean(tally.op_s) * 1e3 / slowdown, "ms"),
        "jobs_per_s": (tally.jobs / tally.busy_s * slowdown, "jobs/s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "violation_ratio": (
            tally.violation / tally.reference_violation, "ratio"),
        "penalty_ratio": (tally.penalty / tally.reference_penalty, "ratio"),
    }


def details(name: str, tally) -> dict:
    """Workload-specific figures recorded beside the gated metrics."""
    x = tally.extra
    out = {
        "failed_share": tally.failed / tally.attempted,
        "violation_total": tally.violation,
        "penalty_total": tally.penalty,
        "reference_violation_total": tally.reference_violation,
        "reference_penalty_total": tally.reference_penalty,
        "improvement_pct": _median(x["improvement_pct"]),
        "op_ms_p50": _median(tally.op_s) * 1e3,
        "op_ms_p90": _p90(tally.op_s) * 1e3,
    }
    if name == "frozen-ga":
        out.update({
            "virt_solve_ms_p50": _median(x["virtualized_s"]) * 1e3,
            "seg_solve_ms_p50": _median(x["segmented_s"]) * 1e3,
            "virt_solves": len(x["virtualized_s"]),
            "seg_solves": len(x["segmented_s"]),
            "gap_pct": _median(x["gap_pct"]),
            "gap_pct.virtualized": _median(x["gap_pct.virtualized"]),
            "gap_pct.segmented": _median(x["gap_pct.segmented"]),
            "waiting_min": min(x["waiting"], default=0),
            "waiting_max": max(x["waiting"], default=0),
        })
    elif name == "stream-drain":
        out["drain_jobs_per_s"] = tally.jobs / tally.busy_s
        for kind in ("fcfs", "wlc", "wrr"):
            out[f"drain_ms.{kind}"] = _median(x[f"{kind}_s"]) * 1e3
    elif name == "online-overload":
        out.update({
            "decision_ms_p50": _median(tally.op_s) * 1e3,
            "decision_ms_p90": _p90(tally.op_s) * 1e3,
            "decisions": len(tally.op_s),
            "online_jobs_per_s": tally.jobs / tally.busy_s,
        })
    elif name == "desk-oracle":
        oracle_s = sum(x["oracle_s"])
        out.update({
            "oracle_states_per_s": sum(x["states"]) / oracle_s if oracle_s else 0.0,
            "oracle_states": sum(x["states"]),
            "instances": len(x["states"]),
        })
    return out


def _overhead(record: dict, path: Path) -> dict | None:
    """Traced minus untraced end-to-end figures, as shares of the untraced."""
    try:
        plain = json.loads(path.read_text())["end_to_end"]
    except (OSError, ValueError, KeyError):
        return None
    return {m: record["end_to_end"][m] / plain[m] - 1.0
            for m in plain if plain[m] and m in record["end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="frozen-ga, stream-drain, online-overload or "
                             "desk-oracle (see NOTES.md)")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "tiersched" / "__init__.py").is_file():
        print(f"perfbench: no tiersched sources under {SRC}", file=sys.stderr)
        return 2

    # One thread: the numeric libraries must not start worker pools.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    t0 = perf_counter()
    import tiersched
    first_import_s = perf_counter() - t0
    if not Path(tiersched.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported tiersched from {tiersched.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import numpy

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    bench = workloads.WORKLOADS[args.workload]()
    tracer = tracing.Tracer() if args.trace else None
    with (tracing.instrument(tracer) if tracer else contextlib.nullcontext()):
        tally = workloads.drive(bench, args.seed, args.seconds, tracer)
    slowdown = tally.speed.slowdown

    ok = tally.attempted > 0 and tally.failed == 0 and bool(tally.op_s)
    record = {
        "meta": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "commit": _commit(),
            "rounds": tally.rounds,
            "quality_block": bench.block,
            "operations": len(tally.op_s),
            "attempted": tally.attempted,
            "failed": tally.failed,
            "first_import_s": first_import_s,
            "setup_passes_s": tally.setup_s,
            "setup_import_s": tally.setup_import_s,
            "setup_slowdown": tally.setup_slowdown,
            "host_slowdown": slowdown,
            "speed_samples": tally.speed.samples,
        },
    }
    if ok:
        e2e = end_to_end(tally)
        record["end_to_end"] = {m: v for m, (v, _) in e2e.items()}
        record["raw_end_to_end"] = {
            m: v for m, (v, _) in end_to_end(tally, scaled=False).items()}
        record["details"] = details(args.workload, tally)
        metrics = e2e
        if tracer:
            spans = tracer.arrays()
            metrics = tracing.layer_metrics(tracer, spans, slowdown)
            record["per_layer"] = {m: v for m, (v, _) in metrics.items()}
            record["span_cost_us"] = tracing.span_cost_us()
            record["trace_overhead"] = _overhead(
                record, OUT / f"{args.workload}-seed{args.seed}-trace0.json")
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    if tracer and ok:
        tracer.save(OUT / f"{args.workload}.spans.npz", spans)

    print(f"perfbench {args.workload} seed {args.seed}: {tally.rounds} rounds, "
          f"{len(tally.op_s)} operations, {tally.failed} of "
          f"{tally.attempted} failed")
    print("meta " + json.dumps(record["meta"]))
    if ok:
        print("raw_end_to_end " + json.dumps(record["raw_end_to_end"]))
        print("details " + json.dumps(record["details"]))
        if tracer:
            print("traced end_to_end " + json.dumps(record["end_to_end"]))
            print("trace_overhead " + json.dumps(record["trace_overhead"]))
    print(json.dumps({
        "correct": ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": ({m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}
                    if ok else {}),
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
