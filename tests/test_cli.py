import hashlib
import json

import pytest

from tiersched import (
    EnvironmentConfig,
    WorkloadSpec,
    generate,
    make_policy,
)
from tiersched import cli
from tiersched.cli import main
from tiersched.sim import Simulator


def run_cli(*argv):
    return main(list(argv))


def assert_exit(argv, code, capsys) -> str:
    """Run the CLI and hold it to its contract: the documented exit code and
    no traceback.  Returns stderr."""
    try:
        got = main(list(argv))
    except SystemExit as err:  # argparse rejects before main's handlers
        got = err.code
    err = capsys.readouterr().err
    assert got == code, err
    assert "Traceback" not in err
    return err


GEN = ("--jobs", "30", "--lambda", "2.5")
# Stands for a workload file the contract test generates first.
WORKLOAD = "{workload}"
# Stands for the contract test's temporary directory.
DIRECTORY = "{directory}"
# Stands for a workload file that holds its 3-line header and no job.
HEADER_ONLY = "{header-only}"

# argv -> exit code, and a fragment of the message on stderr.
CONTRACT = {
    "compare-missing-jobs": (
        ("compare", "--lambda", "2.5", "--policies", "fcfs"), 2,
        "usage error: missing required flags: --jobs"),
    "compare-missing-lambda": (
        ("compare", "--jobs", "30", "--policies", "fcfs"), 2,
        "usage error: missing required flags: --lambda"),
    "compare-unknown-policy-after-a-valid-one": (
        ("compare", *GEN, "--policies", "fcfs", "bogus"), 2,
        "unknown policy 'bogus'"),
    "compare-unknown-mode-suffix": (
        ("compare", *GEN, "--policies", "wlc", "ga-virtualized:sideways"), 2,
        "unknown allowance mode 'sideways'"),
    "compare-repeated-policy": (
        ("compare", *GEN, "--policies", "wlc", "ga-virtualized", "wlc"), 2,
        "policies given more than once: wlc"),
    # Both tokens name the virtualized search in total mode.
    "compare-repeated-genetic-row": (
        ("compare", *GEN, "--policies", "ga-virtualized",
         "ga-virtualized:total"), 2,
        "policies given more than once: ga-virtualized, "
        "ga-virtualized:total"),
    "compare-repeated-seed": (
        ("compare", *GEN, "--policies", "wlc", "--seeds", "1", "2", "1"), 2,
        "seeds given more than once: 1"),
    "compare-ga-without-operators": (
        ("compare", *GEN, "--policies", "wlc", "ga-virtualized",
         "--population", "4"), 3, "no crossover and no mutation"),
    "compare-negative-ga-seed": (
        ("compare", "--jobs", "20", "--lambda", "4", "--policies",
         "ga-virtualized", "--generations", "2", "--ga-seed", "-2"), 3,
        "input error: GA seed must be nonnegative, got -2"),
    "compare-negative-workload-seed": (
        ("compare", "--jobs", "20", "--lambda", "4", "--policies", "wlc",
         "--seeds", "1", "-1"), 3,
        "input error: --seeds must be nonnegative, got -1"),
    "compare-negative-seed": (
        ("compare", "--jobs", "20", "--lambda", "4", "--policies", "wlc",
         "--seed", "-1"), 3, "input error: --seed must be nonnegative, got -1"),
    "compare-mode-flag": (
        ("compare", *GEN, "--policies", "ga-virtualized", "--mode",
         "per-tier"), 2, "unrecognized arguments: --mode per-tier"),
    "compare-epoch": (
        ("compare", *GEN, "--policies", "fcfs", "ga-virtualized", "--epoch",
         "50"), 2, "unrecognized arguments: --epoch 50"),
    "compare-negative-allowance": (
        ("compare", *GEN, "--allowance", "-0.1", "--policies", "fcfs"), 3,
        "allowance_fraction must be nonnegative"),
    "run-missing-lambda": (
        ("run", "--jobs", "30"), 2,
        "usage error: missing required flags: --lambda"),
    "run-unknown-policy": (
        ("run", *GEN, "--policy", "bogus"), 2, "invalid choice"),
    "run-ga-without-operators": (
        ("run", *GEN, "--policy", "ga-segmented", "--population", "5"), 3,
        "no crossover and no mutation"),
    "run-online-ga-without-operators": (
        ("run", *GEN, "--policy", "ga-virtualized", "--epoch", "4",
         "--population", "2"), 3, "no crossover and no mutation"),
    "run-epoch-with-baseline-policy": (
        ("run", *GEN, "--policy", "wlc", "--epoch", "5"), 2,
        "--epoch needs a genetic --policy, not 'wlc'"),
    "run-negative-epoch": (
        ("run", *GEN, "--policy", "ga-virtualized", "--epoch", "-5"), 2,
        "--epoch must be 0 or more, not -5"),
    "run-epoch-beyond-events": (
        ("run", *GEN, "--policy", "ga-virtualized", "--epoch", "121"), 2,
        "--epoch 121 is not below the run's 120 events"),
    # 30 jobs through 2 tiers: 120 events.  The only decision would fall on
    # the final departure, with nothing left to move.
    "run-epoch-at-the-event-count": (
        ("run", *GEN, "--policy", "ga-virtualized", "--epoch", "120"), 2,
        "--epoch 120 is not below the run's 120 events"),
    "run-negative-ga-seed": (
        ("run", "--jobs", "20", "--lambda", "4", "--policy", "ga-virtualized",
         "--generations", "2", "--ga-seed", "-3"), 3,
        "input error: GA seed must be nonnegative, got -3"),
    "run-loaded-workload-random-negative-seed": (
        ("run", "--workload", WORKLOAD, "--seed", "-1", "--policy", "random"),
        3, "input error: --seed must be nonnegative, got -1"),
    "run-negative-allowance": (
        ("run", *GEN, "--allowance", "-0.1"), 3,
        "allowance_fraction must be nonnegative"),
    "run-nan-lambda": (
        ("run", "--jobs", "20", "--lambda", "nan"), 3,
        "input error: arrival_rate must be positive and finite"),
    "run-inf-lambda": (
        ("run", "--jobs", "20", "--lambda", "inf"), 3,
        "input error: arrival_rate must be positive and finite"),
    "run-nan-mu": (
        ("run", *GEN, "--mu", "nan"), 3,
        "input error: service_rate must be positive and finite"),
    "run-nan-allowance": (
        ("run", *GEN, "--allowance", "nan"), 3,
        "input error: allowance_fraction must be nonnegative and finite"),
    "run-inf-allowance": (
        ("run", *GEN, "--allowance", "inf"), 3,
        "input error: allowance_fraction must be nonnegative and finite"),
    "run-nan-chi": (
        ("run", *GEN, "--chi", "nan"), 3,
        "input error: cost factor chi must be positive and finite"),
    "run-inf-chi": (
        ("run", *GEN, "--chi", "inf"), 3,
        "input error: cost factor chi must be positive and finite"),
    "run-workload-without-jobs": (
        ("run", "--workload", HEADER_ONLY, "--policy", "fcfs"), 3,
        "input error: {header-only}: no job lines"),
    "run-workload-without-jobs-genetic": (
        ("run", "--workload", HEADER_ONLY, "--policy", "ga-virtualized"), 3,
        "input error: {header-only}: no job lines"),
    "run-workload-without-jobs-online": (
        ("run", "--workload", HEADER_ONLY, "--policy", "ga-virtualized",
         "--epoch", "1"), 3, "input error: {header-only}: no job lines"),
    "run-workload-is-a-directory": (
        ("run", "--workload", DIRECTORY, "--policy", "fcfs"), 3,
        "input error: [Errno 21] Is a directory"),
    "run-out-dir-under-a-file": (
        ("run", *GEN, "--out-dir", f"{WORKLOAD}/out"), 2,
        "usage error: --out-dir"),
    "compare-out-dir-under-a-file": (
        ("compare", *GEN, "--policies", "fcfs", "--out-dir",
         f"{WORKLOAD}/out"), 2, "usage error: --out-dir"),
    "run-resources-not-a-number": (
        ("run", *GEN, "--tiers", "2", "--resources", "abc"), 3,
        "input error: --resources 'abc' must be one positive count or 2 "
        "comma-separated ones"),
    "run-resources-zero-count": (
        ("run", *GEN, "--tiers", "2", "--resources", "2,0"), 3,
        "input error: --resources '2,0' must be one positive count"),
    "compare-resources-one-count-too-many": (
        ("compare", *GEN, "--policies", "fcfs", "--tiers", "2",
         "--resources", "1,2,3"), 3,
        "input error: --resources '1,2,3' must be one positive count"),
    "run-nan-nu": (
        ("run", *GEN, "--nu", "nan"), 3,
        "input error: scaling factor nu must be positive and finite"),
}


@pytest.mark.parametrize("case", sorted(CONTRACT))
def test_exit_code_contract(case, tmp_path, capsys):
    argv, code, message = CONTRACT[case]
    if any(WORKLOAD in a for a in argv):
        path = tmp_path / "w.txt"
        assert run_cli("generate", *GEN, "--out", str(path)) == 0
        argv = tuple(a.replace(WORKLOAD, str(path)) for a in argv)
    if any(HEADER_ONLY in a for a in argv):
        path = tmp_path / "header-only.txt"
        path.write_text("# tiersched-workload 1\n# tiers 2\n# columns id "
                        "arrival exec_1 exec_2 target_completion\n")
        argv = tuple(a.replace(HEADER_ONLY, str(path)) for a in argv)
        message = message.replace(HEADER_ONLY, str(path))
    argv = tuple(a.replace(DIRECTORY, str(tmp_path)) for a in argv)
    out = tmp_path / "out"
    if "--out-dir" not in argv:
        argv = (*argv, "--out-dir", str(out))
    err = assert_exit(argv, code, capsys)
    assert message in err
    # Inputs are checked before anything runs or is written.
    assert not out.exists()


def test_environment_does_not_stand_in_for_flags(tmp_path, capsys,
                                                 monkeypatch):
    monkeypatch.setenv("TIERSCHED_JOBS", "30")
    err = assert_exit(("run", "--lambda", "2.5",
                       "--out-dir", str(tmp_path / "out")), 2, capsys)
    assert "missing required flags: --jobs" in err


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestGenerate:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run_cli("generate", "--jobs", "100", "--lambda", "2.0",
                       "--seed", "7", "--out", str(a)) == 0
        assert run_cli("generate", "--jobs", "100", "--lambda", "2.0",
                       "--seed", "7", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_generated_file_loads_back(self, tmp_path):
        from tiersched import load
        out = tmp_path / "w.txt"
        assert run_cli("generate", "--jobs", "100", "--lambda", "2.0",
                       "--out", str(out)) == 0
        assert len(load(out)) == 100

    def test_missing_jobs_is_usage_error(self, tmp_path, capsys):
        assert_exit(("generate", "--lambda", "2.0",
                     "--out", str(tmp_path / "w.txt")), 2, capsys)

    def test_missing_rate_is_usage_error(self, tmp_path, capsys):
        assert_exit(("generate", "--jobs", "10",
                     "--out", str(tmp_path / "w.txt")), 2, capsys)

    def test_unknown_flag_exits_two(self, capsys):
        assert_exit(("generate", "--frobnicate"), 2, capsys)

    def test_out_path_that_cannot_be_written_is_usage_error(self, tmp_path,
                                                            capsys):
        err = assert_exit(("generate", *GEN, "--out", str(tmp_path)), 2,
                          capsys)
        assert "usage error: --out" in err


class TestRun:
    def test_baseline_initial_equals_enhanced(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("run", "--jobs", "40", "--lambda", "4.0", "--seed", "3",
                       "--policy", "fcfs", "--out-dir", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["initial"] == summary["enhanced"]
        assert summary["improvement"]["violation_pct"] == 0.0

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        dirs = [tmp_path / "r1", tmp_path / "r2"]
        for d in dirs:
            assert run_cli("run", "--jobs", "30", "--lambda", "5.0",
                           "--seed", "4", "--policy", "ga-virtualized",
                           "--generations", "60", "--out-dir", str(d)) == 0
        for name in ("summary.json", "jobs.jsonl", "history.jsonl"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_genetic_run_improves_and_logs_history(self, tmp_path):
        out = tmp_path / "ga"
        assert run_cli("run", "--jobs", "60", "--lambda", "6.0", "--seed", "5",
                       "--policy", "ga-virtualized", "--generations", "200",
                       "--out-dir", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["enhanced"]["violation"] <= summary["initial"]["violation"]
        assert summary["evaluations"] == 10 * 200
        history = read_jsonl(out / "history.jsonl")
        assert len(history) == 200
        bests = [h["best"] for h in history]
        assert all(b <= a + 1e-12 for a, b in zip(bests, bests[1:]))

    def test_summary_rederivable_from_job_records(self, tmp_path):
        out = tmp_path / "derive"
        assert run_cli("run", "--jobs", "50", "--lambda", "5.0", "--seed", "6",
                       "--policy", "ga-segmented", "--generations", "100",
                       "--mode", "per-tier", "--out-dir", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        records = read_jsonl(out / "jobs.jsonl")
        for phase in ("initial", "enhanced"):
            alphas = [r["alpha"] for r in records if r["phase"] == phase]
            costs = [r["cost"] for r in records if r["phase"] == phase]
            assert sum(max(a, 0.0) for a in alphas) == pytest.approx(
                summary[phase]["violation"], abs=1e-9)
            assert sum(costs) == pytest.approx(summary[phase]["penalty"],
                                               abs=1e-9)
            assert max((max(a, 0.0) for a in alphas), default=0.0) == \
                pytest.approx(summary[phase]["max_violation"], abs=1e-9)

    def test_workload_file_input(self, tmp_path):
        wl = tmp_path / "w.txt"
        assert run_cli("generate", "--jobs", "30", "--lambda", "4.0",
                       "--seed", "9", "--out", str(wl)) == 0
        out = tmp_path / "run"
        assert run_cli("run", "--workload", str(wl), "--policy", "wlc",
                       "--out-dir", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["counts"]["resident"] >= 1

    def test_unreadable_workload_is_input_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.txt"
        assert_exit(("run", "--workload", str(missing), "--policy", "fcfs",
                     "--out-dir", str(tmp_path / "x")), 3, capsys)

    def test_malformed_workload_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a workload\n")
        assert_exit(("run", "--workload", str(bad), "--policy", "fcfs",
                     "--out-dir", str(tmp_path / "x")), 3, capsys)

    @pytest.mark.parametrize("row, message", [
        ("2 nan 1.0 1.0 4.0", "arrival and target completion must be finite"),
        ("2 1.0 nan 1.0 4.0", "execution times must be positive and finite"),
    ])
    def test_non_finite_workload_field_is_input_error(self, tmp_path, capsys,
                                                      row, message):
        from tiersched import WorkloadFormatError, load
        bad = tmp_path / "bad.txt"
        bad.write_text("# tiersched-workload 1\n# tiers 2\n"
                       "# columns id arrival exec_1 exec_2 target_completion\n"
                       f"1 0.0 1.0 1.0 3.0\n{row}\n")
        with pytest.raises(WorkloadFormatError, match=f"line 5: job 2: {message}"):
            load(bad)
        out = tmp_path / "x"
        err = assert_exit(("run", "--workload", str(bad), "--policy", "fcfs",
                           "--out-dir", str(out)), 3, capsys)
        assert f"input error: line 5: job 2: {message}" in err
        assert not out.exists()

    def test_online_mode(self, tmp_path, monkeypatch):
        decisions = []
        plain = cli.evolve

        def counted(snapshot, config):
            decisions.append(config)
            return plain(snapshot, config)

        monkeypatch.setattr(cli, "evolve", counted)
        out = tmp_path / "online"
        assert run_cli("run", "--jobs", "25", "--lambda", "4.0", "--seed", "2",
                       "--policy", "ga-virtualized", "--generations", "20",
                       "--epoch", "4", "--out-dir", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["online_epoch"] == 4
        assert summary["counts"]["completed"] == 25
        # The search budget is summed over every rescheduling decision.
        assert len(decisions) > 1
        assert summary["decisions"] == len(decisions)
        assert summary["evaluations"] == len(decisions) * 10 * 20

    @pytest.mark.parametrize("rate, epoch", [("0.2", "7"), ("2.5", "119")],
                             ids=["light-load", "last-decision-idle"])
    def test_online_run_without_a_decision_says_so(self, tmp_path, capsys,
                                                   rate, epoch):
        # At light load no decision finds a waiting job that could move; at
        # epoch 119 of 120 events the one decision finds the stream drained.
        out = tmp_path / "online"
        assert run_cli("run", "--jobs", "30", "--lambda", rate, "--seed", "1",
                       "--policy", "ga-virtualized", "--generations", "5",
                       "--epoch", epoch, "--out-dir", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["schema"] == "tiersched.run-summary/2"
        assert summary["decisions"] == 0
        assert summary["evaluations"] == 0
        assert ", decisions 0: " in capsys.readouterr().out

    def test_online_trace_logs_every_decision(self, tmp_path, monkeypatch):
        decisions = []
        plain = cli.evolve

        def counted(snapshot, config):
            decisions.append(snapshot.clock)
            return plain(snapshot, config)

        monkeypatch.setattr(cli, "evolve", counted)
        out = tmp_path / "online"
        assert run_cli("run", "--jobs", "40", "--lambda", "5.0",
                       "--policy", "ga-virtualized", "--generations", "5",
                       "--epoch", "20", "--trace", "--out-dir", str(out)) == 0
        lines = (out / "trace.txt").read_text(encoding="ascii").splitlines()
        assert lines[0] == "# tiersched-trace 1"
        kinds = [line.split()[1] for line in lines[1:]]
        # 40 jobs through 2 tiers: 160 events, a decision every 20; the 8th
        # falls on the final departure, with nothing to move, and is skipped.
        assert len(decisions) == 7
        assert kinds.count("reschedule") == len(decisions)
        assert kinds.count("depart") == 40

    def test_online_run_honours_seed(self, tmp_path):
        out = tmp_path / "online"
        assert run_cli("run", "--jobs", "40", "--lambda", "5.0", "--seed", "5",
                       "--policy", "ga-virtualized", "--initial-policy",
                       "random", "--generations", "10", "--epoch", "5",
                       "--out-dir", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        env = EnvironmentConfig()
        jobs = generate(WorkloadSpec(arrival_rate=5.0, num_jobs=40, seed=5),
                        env)

        def totals(seed):
            report = Simulator(jobs, env, make_policy("random", env, seed=seed)
                               ).run().report()
            return {"violation": report.total_violation,
                    "penalty": report.total_cost,
                    "signed": report.total_signed,
                    "max_violation": report.max_violation}

        assert summary["initial"] == totals(5)
        assert summary["initial"] != totals(0)


class TestCompare:
    def test_table_shape_and_records(self, tmp_path):
        out = tmp_path / "cmp"
        assert run_cli("compare", "--jobs", "40", "--lambda", "4.0",
                       "--policies", "wrr", "wlc", "ga-virtualized:per-tier",
                       "--seeds", "1", "2", "--generations", "100",
                       "--out-dir", str(out)) == 0
        table = (out / "table.txt").read_text().splitlines()
        assert len(table) == 2 + 3
        runs = read_jsonl(out / "runs.jsonl")
        assert len(runs) == 3 * 2
        modes = {r["policy"]: r["mode"] for r in runs}
        assert modes["ga-virtualized:per-tier"] == "per-tier"
        assert modes["wrr"] == "total"

    def test_single_policy_single_seed_matches_run(self, tmp_path):
        cmp_out = tmp_path / "cmp"
        run_out = tmp_path / "run"
        assert run_cli("compare", "--jobs", "40", "--lambda", "4.0",
                       "--policies", "wlc", "--seeds", "5",
                       "--out-dir", str(cmp_out)) == 0
        assert run_cli("run", "--jobs", "40", "--lambda", "4.0", "--seed", "5",
                       "--policy", "wlc", "--out-dir", str(run_out)) == 0
        row = read_jsonl(cmp_out / "runs.jsonl")[0]
        summary = json.loads((run_out / "summary.json").read_text())
        assert row["violation_total"] == pytest.approx(
            summary["initial"]["violation"], abs=1e-9)
        assert row["violation_max"] == pytest.approx(
            summary["initial"]["max_violation"], abs=1e-9)

    def test_totals_rederivable_from_job_records(self, tmp_path):
        out = tmp_path / "cmp"
        assert run_cli("compare", "--jobs", "40", "--lambda", "5.0",
                       "--policies", "wrr", "ga-segmented", "--seeds", "3", "4",
                       "--generations", "80", "--out-dir", str(out)) == 0
        runs = read_jsonl(out / "runs.jsonl")
        jobs = read_jsonl(out / "jobs.jsonl")
        for row in runs:
            alphas = [r["alpha"] for r in jobs
                      if r["policy"] == row["policy"]
                      and r["seed"] == row["seed"]]
            assert len(alphas) == row["jobs"]
            assert sum(max(a, 0.0) for a in alphas) == pytest.approx(
                row["violation_total"], abs=1e-9)

    def test_unknown_policy_is_usage_error(self, tmp_path, capsys):
        assert_exit(("compare", "--jobs", "10", "--lambda", "2.0",
                     "--policies", "mystery", "--seeds", "1",
                     "--out-dir", str(tmp_path / "x")), 2, capsys)


class TestPinnedJobRecords:
    """``jobs.jsonl`` digests recorded while expected waits still came from a
    per-job queue scan; the evaluator's breakdown must reproduce them byte
    for byte."""

    @pytest.mark.parametrize("argv, digest", [
        (("--policy", "ga-virtualized"),
         "8f65a807772b80ead5222bb1b87cc94d07d9687e3389580dc1ba53127730b19d"),
        (("--policy", "ga-segmented", "--mode", "per-tier"),
         "6a48f098df608d27f781befd98b7326b58c15e90b9bd20d025be3d4635ef461f"),
    ])
    def test_job_records_digest(self, tmp_path, argv, digest):
        out = tmp_path / "run"
        assert run_cli("run", "--jobs", "110", "--lambda", "7", "--seed", "3",
                       "--generations", "50", *argv,
                       "--out-dir", str(out)) == 0
        data = (out / "jobs.jsonl").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest
