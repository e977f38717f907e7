import dataclasses
import hashlib
import json
import warnings

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
    """Run the CLI and hold it to its contract: the documented exit code, no
    traceback and no warning.  Returns stderr."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = main(list(argv))
        except SystemExit as err:  # argparse rejects before main's handlers
            got = err.code
    # pytest records warnings; put them back on stderr, where a plain run
    # prints them.
    err = capsys.readouterr().err + "".join(
        warnings.formatwarning(w.message, w.category, w.filename, w.lineno)
        for w in caught)
    assert got == code, err
    assert "Traceback" not in err
    assert "Warning" not in err
    return err


GEN = ("--jobs", "30", "--lambda", "2.5")
# Stands for a workload file the contract test generates first.
WORKLOAD = "{workload}"
# Stands for the contract test's temporary directory.
DIRECTORY = "{directory}"
# Stands for a workload file that holds its 3-line header and no job.
HEADER_ONLY = "{header-only}"
# Stands for a generated workload file of one tier.
ONE_TIER = "{one-tier}"
# Stands for a workload file whose one job line ends in byte 0xe9.
NON_ASCII = "{non-ascii}"

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
    "compare-initial-policy-without-genetic-row": (
        ("compare", *GEN, "--policies", "fcfs", "wlc", "--initial-policy",
         "random"), 2,
        "--initial-policy needs a genetic --policies entry, not only "
        "baselines"),
    "compare-population-without-genetic-row": (
        ("compare", *GEN, "--policies", "fcfs", "wlc", "--population", "20"),
        2, "--population needs a genetic --policies entry, not only "
        "baselines"),
    "compare-generations-without-genetic-row": (
        ("compare", *GEN, "--policies", "wrr", "--generations", "7"), 2,
        "--generations needs a genetic --policies entry, not only baselines"),
    "compare-ga-seed-without-genetic-row": (
        ("compare", *GEN, "--policies", "random", "--ga-seed", "5"), 2,
        "--ga-seed needs a genetic --policies entry, not only baselines"),
    "compare-seed-with-seeds": (
        ("compare", *GEN, "--policies", "wlc", "--seeds", "1", "2",
         "--seed", "9"), 2, "--seed and --seeds cannot both be given"),
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
    "run-initial-policy-with-baseline-policy": (
        ("run", *GEN, "--policy", "wlc", "--initial-policy", "random"), 2,
        "--initial-policy needs a genetic --policy, not 'wlc'"),
    "run-initial-policy-with-default-policy": (
        ("run", *GEN, "--initial-policy", "fcfs"), 2,
        "--initial-policy needs a genetic --policy, not 'fcfs'"),
    # The value is the default, but given, so still refused.
    "run-population-with-baseline-policy": (
        ("run", *GEN, "--policy", "wlc", "--population", "10"), 2,
        "--population needs a genetic --policy, not 'wlc'"),
    "run-generations-with-baseline-policy": (
        ("run", *GEN, "--policy", "wrr", "--generations", "7"), 2,
        "--generations needs a genetic --policy, not 'wrr'"),
    "run-ga-seed-with-default-policy": (
        ("run", *GEN, "--ga-seed", "5"), 2,
        "--ga-seed needs a genetic --policy, not 'fcfs'"),
    # The first unread flag in help order is named.
    "run-ga-seed-and-generations-with-baseline-policy": (
        ("run", *GEN, "--policy", "wlc", "--ga-seed", "5", "--generations",
         "7"), 2, "--generations needs a genetic --policy, not 'wlc'"),
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
    # The default --tiers is 2; refused before --out-dir is created.
    "run-workload-tier-count-differs": (
        ("run", "--workload", ONE_TIER, "--policy", "fcfs"), 3,
        "input error: --workload {one-tier} has 1 tier, --tiers is 2"),
    "run-workload-tier-count-differs-online": (
        ("run", "--workload", ONE_TIER, "--policy", "ga-virtualized",
         "--epoch", "1"), 3,
        "input error: --workload {one-tier} has 1 tier, --tiers is 2"),
    # Overflowing columns are refused by Job, without a numpy warning.
    "run-overflowing-allowance": (
        ("run", "--jobs", "20", "--lambda", "2", "--allowance", "1e308"), 3,
        "input error: job 1: arrival and target completion must be finite"),
    "run-overflowing-mean-service-time": (
        ("run", "--jobs", "20", "--lambda", "2", "--mu", "1e-308"), 3,
        "input error: job 1: arrival and target completion must be finite"),
    # A loaded workload would not read a generation flag; the first given,
    # in help order, is named.
    "run-workload-with-jobs": (
        ("run", "--workload", WORKLOAD, "--jobs", "500"), 2,
        "usage error: --jobs and --workload cannot both be given"),
    "run-workload-with-lambda": (
        ("run", "--workload", WORKLOAD, "--policy", "ga-virtualized",
         "--lambda", "9"), 2,
        "usage error: --lambda and --workload cannot both be given"),
    "run-workload-with-mu": (
        ("run", "--workload", WORKLOAD, "--allowance", "3", "--mu", "0.5"), 2,
        "usage error: --mu and --workload cannot both be given"),
    "run-workload-with-allowance": (
        ("run", "--workload", WORKLOAD, "--allowance", "0.2"), 2,
        "usage error: --allowance and --workload cannot both be given"),
    # An empty path is a given --workload, not a missing one; it reads as
    # the current directory.
    "run-empty-workload-path-with-jobs": (
        ("run", "--workload", "", *GEN), 2,
        "usage error: --jobs and --workload cannot both be given"),
    "run-empty-workload-path": (
        ("run", "--workload", ""), 3,
        "input error: --workload : Is a directory"),
    # numpy refuses the 7 PiB arrays at once, allocating nothing.
    "run-unallocatable-job-count": (
        ("run", "--jobs", "1000000000000000", "--lambda", "1"), 3,
        "input error: Unable to allocate"),
    "run-non-ascii-workload": (
        ("run", "--workload", NON_ASCII, "--policy", "fcfs"), 3,
        "input error: {non-ascii}: line 4: not ASCII text"),
    "run-workload-is-a-directory": (
        ("run", "--workload", DIRECTORY, "--policy", "fcfs"), 3,
        "input error: --workload {directory}: Is a directory"),
    "run-missing-workload-file": (
        ("run", "--workload", f"{DIRECTORY}/missing.txt"), 3,
        "input error: --workload {directory}/missing.txt: No such file or "
        "directory"),
    # compare generates every seed's stream before --out-dir exists.
    "compare-unallocatable-job-count": (
        ("compare", "--jobs", "1000000000000000", "--lambda", "1",
         "--policies", "fcfs"), 3, "input error: Unable to allocate"),
    "compare-overflowing-allowance": (
        ("compare", "--jobs", "20", "--lambda", "2", "--allowance", "1e308",
         "--policies", "fcfs"), 3,
        "input error: job 1: arrival and target completion must be finite"),
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
    if any(NON_ASCII in a for a in argv):
        path = tmp_path / "non-ascii.txt"
        path.write_bytes(b"# tiersched-workload 1\n# tiers 2\n# columns id "
                         b"arrival exec_1 exec_2 target_completion\n"
                         b"1 0.0 1.0 1.0 2.5\xe9\n")
        argv = tuple(a.replace(NON_ASCII, str(path)) for a in argv)
        message = message.replace(NON_ASCII, str(path))
    if any(ONE_TIER in a for a in argv):
        path = tmp_path / "one-tier.txt"
        assert run_cli("generate", *GEN, "--tiers", "1", "--out",
                       str(path)) == 0
        argv = tuple(a.replace(ONE_TIER, str(path)) for a in argv)
        message = message.replace(ONE_TIER, str(path))
    argv = tuple(a.replace(DIRECTORY, str(tmp_path)) for a in argv)
    message = message.replace(DIRECTORY, str(tmp_path))
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

    def test_unallocatable_job_count_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "w.txt"
        err = assert_exit(("generate", "--jobs", "1000000000000000",
                           "--lambda", "1", "--out", str(out)), 3, capsys)
        assert "input error: Unable to allocate" in err
        assert not out.exists()

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

    def test_one_resource_count_is_broadcast_to_every_tier(self, tmp_path):
        out = tmp_path / "broadcast"
        assert run_cli("run", "--jobs", "40", "--lambda", "6.0", "--tiers",
                       "3", "--resources", "2", "--trace",
                       "--out-dir", str(out)) == 0
        lines = (out / "trace.txt").read_text().splitlines()[1:]
        used = {tuple(map(int, line.split()[3:5])) for line in lines
                if line.split()[1] == "start"}
        assert used == {(t, k) for t in (1, 2, 3) for k in (1, 2)}

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

    def test_invalid_search_result_is_internal_error(self, tmp_path, capsys,
                                                     monkeypatch):
        plain = cli.evolve

        def emptied(snapshot, config):
            # Every waiting job dropped: the waiting sets change.
            result = plain(snapshot, config)
            best = snapshot.schedule.with_waiting(
                [()] * len(snapshot.schedule.flat_waiting()))
            return dataclasses.replace(result, best_schedule=best)

        monkeypatch.setattr(cli, "evolve", emptied)
        err = assert_exit(("run", "--jobs", "40", "--lambda", "6",
                           "--policy", "ga-virtualized", "--generations", "2",
                           "--out-dir", str(tmp_path / "out")), 4, capsys)
        assert err.startswith("internal error: tier 0: waiting job set "
                              "changed")

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


# A small overloaded stream and search budget for the pinned invocations.
# A sweep over ``--seeds`` takes the stream without its ``--seed``.
STREAM = ("--jobs", "40", "--lambda", "5")
SMALL = (*STREAM, "--seed", "3")
GENS = ("--generations", "20")
# The two frozen genetic runs whose ``jobs.jsonl`` was first pinned.
PINNED_110 = ("--jobs", "110", "--lambda", "7", "--seed", "3",
              "--generations", "50")

# argv -> sha256 of every file the invocation writes, and of its stdout
# with the output directory written as ``OUT``.
PINNED = {
    "run-fcfs": (("run", *SMALL, "--policy", "fcfs"), {
        "jobs.jsonl":
            "491cdecf0167ffd3bf2196c66d9f42085c44630e7bb4818711e67aba7fca4fc5",
        "stdout":
            "6b4393f7b1e29ff8cf2f81842d8136b2ca4f8c37d027c9d96e2a7037386940ed",
        "summary.json":
            "854e8cfb004d386435b185ee490048607503369bb68ebc5f1202dbe707d8951c",
    }),
    "run-wrr-trace": (("run", *SMALL, "--policy", "wrr", "--trace"), {
        "jobs.jsonl":
            "b65bb6a4e6491cef82ad8fd21ceee1d3b399523208664eb3633ce676f634fa93",
        "stdout":
            "1a567a8e8f8eb6b33d6ff4c438773352b4c76a02bb4c8f8fa13ff91073807f6b",
        "summary.json":
            "db0c3470e6bf6ebe1eca4cb3fb0837aeee2fd0bb7a59ceb813e1864925d7cdb2",
        "trace.txt":
            "9693a7faf6c2b97df362ce7553c4692f34dae7abaa57f13d76a515c16a59e1a0",
    }),
    "run-random": (("run", *SMALL, "--policy", "random"), {
        "jobs.jsonl":
            "cec20d6946bf18efaffba39a428bb044d7cb45bd2890a791eb9f51365a20076e",
        "stdout":
            "6c8d761225d94b3600b912e1b66e492795abc748a298f517d342052a97c2e95d",
        "summary.json":
            "a66359ce08526b4e86b66c098384992df90780344ff0fb4bf2268fd442712ed6",
    }),
    "run-wlc-per-tier": (
        ("run", *SMALL, "--policy", "wlc", "--mode", "per-tier"), {
        "jobs.jsonl":
            "1d0447c0514b8460fd487cc96dab1606b912528620c15c81fc4bc8663cda53b8",
        "stdout":
            "69b49a15e19c7189016495a5d5d798e8c3b7d6f73aa780f941c034ea74cc10d2",
        "summary.json":
            "be23d5d96a53c314324d2c37f7b73c443b8a354295f96e62f07624eac69d5738",
    }),
    "run-ga-virtualized-trace": (
        ("run", *SMALL, *GENS, "--policy", "ga-virtualized", "--trace"), {
        "history.jsonl":
            "bf040024b570f36e0f283699a1d3335997b169e68dde29735418ba65962c369b",
        "jobs.jsonl":
            "2960b1f3545580b764729e948a8d565a0359332da69db531afa58e82f58dd7e6",
        "stdout":
            "84a058ca1b6f98a10f7679f7782873a5fabc2f3924cb3ca60a73ba29406698d3",
        "summary.json":
            "11b81fbdfe1e0201b54f81c579d3df3fbfc2990da8498185ab00086fea104f01",
        "trace.txt":
            "fbbef499332013c534243ccbaa6d708d3664b0338fd5d3b85eaaadd210ce20ff",
    }),
    "run-ga-segmented-per-tier-from-wlc": (
        ("run", *SMALL, *GENS, "--policy", "ga-segmented", "--mode",
         "per-tier", "--initial-policy", "wlc"), {
        "history.jsonl":
            "d733143d16061455be71fac8799ef649fab63bcab8b7dd49c3e9a569d84644c1",
        "jobs.jsonl":
            "e68cf1aa4efb6e15334ab2c103d8551e3278b3315544a5e6b46fa2ebcfab12d7",
        "stdout":
            "0629af84ca52ed2b896f4c7ad069f09b425d22894e4d0603f11a9a8623f9b193",
        "summary.json":
            "03ec2d2d4abf810207184c9bc93121cca52e21e649a2d4ae0d46b0827423cea3",
    }),
    "run-ga-virtualized-ga-seed-from-random": (
        ("run", *SMALL, *GENS, "--policy", "ga-virtualized", "--ga-seed", "9",
         "--initial-policy", "random"), {
        "history.jsonl":
            "02036eea80fad994a46bb026ce00fde2ff15fed7c20a88947b5bb0bf7dfe5bc5",
        "jobs.jsonl":
            "5fffef4bbedd27aef0aa2c49dfaacfbcc2ab272561e40d0e66e33d0f1692b8d2",
        "stdout":
            "9a0a3f3c5dfe2fe529c555c4495dbf13b8c3dc7c74a5d37a39639404794d9cc0",
        "summary.json":
            "a3c8295f7ab60bc03ed6cb34a9eb8d4b0178816311b415482bd5b9e6f7656fa0",
    }),
    "run-ga-virtualized-110": (
        ("run", *PINNED_110, "--policy", "ga-virtualized"), {
        "history.jsonl":
            "f0fbfcc20ac22f581242bd2103b66c520f930e621e8f0969af6afe21b1cbf20a",
        "jobs.jsonl":
            "8f65a807772b80ead5222bb1b87cc94d07d9687e3389580dc1ba53127730b19d",
        "stdout":
            "cf222c22005ff68392c77e9e278146bdb374a1452331e4e358e8ef78e4b0d3aa",
        "summary.json":
            "5252649a4488384f1d6ac763616394f8224127cfa34d7c511c5136cde4121695",
    }),
    "run-ga-segmented-per-tier-110": (
        ("run", *PINNED_110, "--policy", "ga-segmented", "--mode",
         "per-tier"), {
        "history.jsonl":
            "bd75892d12a9b275e4d1111e5e4f822f4b32ea080197aa3eb88f371dc81a132d",
        "jobs.jsonl":
            "6a48f098df608d27f781befd98b7326b58c15e90b9bd20d025be3d4635ef461f",
        "stdout":
            "0c118b483a7ff4bbe3f42a570da3d1e2ac4e201e457025d4f4a81fe1d5876b40",
        "summary.json":
            "f5870a356dfae834bba8eec9ed65e453295b6d4a690450fe7b774a908a8a7975",
    }),
    "online-ga-virtualized-epoch-7-trace": (
        ("run", *SMALL, *GENS, "--policy", "ga-virtualized", "--epoch", "7",
         "--trace"), {
        "jobs.jsonl":
            "06824e6498257741301ad0c414b1d7a3f0dee749278dd223dbb46885734fdf65",
        "stdout":
            "2704f31ab3b95fb5d96b893e65475c9c23fb11ee4735f0596627778197df116c",
        "summary.json":
            "b6eee964ba01434d5ac27979313acf970d705f41ba98c724e97345245ef66450",
        "trace.txt":
            "77a0196ecbf22e9becf82272a989bd2e8345884127e030dc86b98c88d47d88de",
    }),
    "online-ga-segmented-per-tier-epoch-11-from-wrr": (
        ("run", *SMALL, *GENS, "--policy", "ga-segmented", "--mode",
         "per-tier", "--epoch", "11", "--initial-policy", "wrr"), {
        "jobs.jsonl":
            "a1fc7e74de1a1f9b6975f111410d228c51fc17b51e61c34dabe187bee5b5dc85",
        "stdout":
            "e9019f4644a04a4e2d1841276fdd52df3d9f5294e4cbdf90baf8cf49e5894057",
        "summary.json":
            "218c2b5200beeb6c7e57ae59d918b59fa16d6ebe722843bfd9875d777b5e8de0",
    }),
    "compare-every-policy": (
        ("compare", *STREAM, *GENS, "--seeds", "1", "2", "3", "--policies",
         "fcfs", "wrr", "wlc", "random", "ga-virtualized",
         "ga-virtualized:per-tier", "ga-segmented:total",
         "ga-segmented:per-tier"), {
        "jobs.jsonl":
            "f5be730890ee6bee789c9499d04fe7867b09224e5a4a81a48d7f0afd7a2d9f2b",
        "runs.jsonl":
            "defdb573b821a1b7e3e641a7ec4e7372218de47d784fe8b98059f508b53316d3",
        "stdout":
            "09944270b7f709d11a9241768c58cdb84a03589f8b5c88e5082f1de92f5b3e7d",
        "table.txt":
            "7962019845a617a00704ff281e869509717da3b633c4beacc8264f5356de1d34",
    }),
    "compare-wlc": (("compare", *SMALL, "--policies", "wlc"), {
        "jobs.jsonl":
            "16caa3c202db22b6bd78d1ec10f1ec38a5d93e8b3574c8db35160df82f013076",
        "runs.jsonl":
            "7a66c2fa7bee41e5f8cd4afd18193ff0113f3f34750227afb31d34a7559933b8",
        "stdout":
            "23a4d8de967e7230ac6ae0e3f082ec84d714644c38cf824c2bb867b2681343d1",
        "table.txt":
            "fdf0f9a76525cbd94e3955d1e4237966b5bca20892ce9be908694b10fde52e9d",
    }),
    "compare-segmented-and-wrr-from-random": (
        ("compare", *SMALL, *GENS, "--policies", "ga-segmented", "wrr",
         "--initial-policy", "random", "--ga-seed", "2"), {
        "jobs.jsonl":
            "3a3b120c71f0b2c6eb5b67372c58c3e96b6d80850ea0defb45c4b44b348a5591",
        "runs.jsonl":
            "a4e23b6ab6ad2400bbd97fa819084920a4426e66ff1737ab85a510cdba69b712",
        "stdout":
            "0300b533cafbfc009fb20cea6771de11996a35d5dd963047d242e72bf095bd8d",
        "table.txt":
            "c9a448bc8332307a4b1e789c12517f61074b62ba06640ae67cfb9e38828da707",
    }),
}


class TestPinnedOutputs:
    """Every output of every CLI path (frozen ``run``, online ``run --epoch``
    and ``compare``) pinned byte for byte.  The two ``-110`` cases'
    ``jobs.jsonl`` digests were recorded while expected waits still came
    from a per-job queue scan; the evaluator's breakdown must reproduce
    them."""

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_output_digests(self, case, tmp_path, capsys):
        argv, digests = PINNED[case]
        out = tmp_path / "out"
        assert run_cli(*argv, "--out-dir", str(out)) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in out.iterdir()}
        stdout = captured.out.replace(str(out), "OUT").encode("ascii")
        got["stdout"] = hashlib.sha256(stdout).hexdigest()
        assert got == digests


def test_one_record_shape_per_schema(tmp_path, capsys):
    """Every ``.jsonl`` record the pinned invocations write has the key set
    of its ``schema``: frozen and drained per-job records are two shapes, so
    they are two schema names."""
    shapes: dict[str, set[frozenset[str]]] = {}
    for case, (argv, _) in sorted(PINNED.items()):
        out = tmp_path / case
        assert run_cli(*argv, "--out-dir", str(out)) == 0
        for path in sorted(out.glob("*.jsonl")):
            for record in read_jsonl(path):
                shapes.setdefault(record["schema"], set()).add(
                    frozenset(record))
    capsys.readouterr()
    assert {schema: len(keys) for schema, keys in shapes.items()} == {
        "tiersched.job/1": 1, "tiersched.drained-job/1": 1,
        "tiersched.history/1": 1, "tiersched.compare-run/1": 1,
        "tiersched.compare-job/1": 1}


@pytest.mark.parametrize("argv, searches", [
    (("run", *SMALL, "--policy", "wlc"), []),
    (("run", *SMALL, *GENS, "--policy", "ga-segmented", "--mode", "per-tier",
      "--initial-policy", "wrr"), [("segmented", "per-tier", 3)]),
    (("compare", *STREAM, "--seeds", "1", "2", "--policies", "fcfs", "wlc"),
     []),
    (("compare", *STREAM, *GENS, "--seeds", "1", "2", "--policies", "fcfs",
      "ga-virtualized", "wrr", "ga-segmented:per-tier"),
     [("virtualized", "total", 1), ("segmented", "per-tier", 1),
      ("virtualized", "total", 2), ("segmented", "per-tier", 2)]),
], ids=["run-baseline", "run-genetic", "compare-baselines",
        "compare-mixed"])
def test_one_search_per_genetic_run_and_row(tmp_path, monkeypatch, argv,
                                            searches):
    """A frozen genetic ``run`` searches once, ``compare`` once per genetic
    row and seed, a baseline never; every genetic row of one seed starts
    from the same dispatched schedule."""
    calls = []
    plain = cli.evolve

    def counted(snapshot, config):
        calls.append((config, snapshot.schedule))
        return plain(snapshot, config)

    monkeypatch.setattr(cli, "evolve", counted)
    assert run_cli(*argv, "--out-dir", str(tmp_path / "out")) == 0
    assert [(c.variant, c.mode.value, c.seed) for c, _ in calls] == searches
    starts = {}
    for config, schedule in calls:
        assert starts.setdefault(config.seed, schedule) == schedule
