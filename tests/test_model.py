import dataclasses
import math
import os
import subprocess
import sys
import textwrap
from array import array
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tiersched
from tiersched import (
    AllowanceMode,
    EnvironmentConfig,
    Job,
    JobProgress,
    JobSet,
    Schedule,
    ScheduleEvaluator,
    Snapshot,
    ValidationReport,
    WorkloadSpec,
    generate,
    load,
    make_policy,
    save,
    simulate_to_snapshot,
    validate_schedule,
)
from tiersched.model import Residents
from tiersched.sim import Simulator

from conftest import fresh_snapshot, job, loaded_snapshot
from expected_waits import remaining_wait
from reference_sim import ReferenceSimulator
from reference_snapshot import (
    reference_one_walk_checks,
    reference_progress,
    reference_snapshot_checks,
)
from reference_validate import reference_validate
from reference_workload import reference_job_checks, reference_jobset_checks


class TestEnvironmentConfig:
    def test_resources_are_one_count_per_tier(self):
        # Any iterable of counts is kept as a tuple; only the CLI broadcasts
        # a single count (tests/test_cli.py).
        env = EnvironmentConfig(num_tiers=3, resources_per_tier=[2, 2, 2])
        assert env.resources_per_tier == (2, 2, 2)

    def test_scalar_resources_refused(self):
        with pytest.raises(TypeError):
            EnvironmentConfig(num_tiers=3, resources_per_tier=2)

    @pytest.mark.parametrize("kwargs, field", [
        (dict(num_tiers=2.0), "num_tiers"),
        (dict(resources_per_tier=(2.5, 3)), "resources_per_tier"),
        (dict(resources_per_tier=(3, "3")), "resources_per_tier"),
    ])
    def test_non_integer_counts_refused(self, kwargs, field):
        with pytest.raises(TypeError, match=f"^{field} must be an integer"):
            EnvironmentConfig(**kwargs)

    def test_index_counts_become_ints(self):
        env = EnvironmentConfig(num_tiers=np.int64(2),
                                resources_per_tier=(np.int32(2), 3))
        assert env == EnvironmentConfig(num_tiers=2, resources_per_tier=(2, 3))
        assert type(env.num_tiers) is int
        assert all(type(m) is int for m in env.resources_per_tier)

    @pytest.mark.parametrize("kwargs", [
        dict(num_tiers=0),
        dict(resources_per_tier=(3,)),
        dict(resources_per_tier=(3, 0)),
        dict(chi=0.0),
        dict(nu=-1.0),
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            EnvironmentConfig(**kwargs)


def raised(build, *args):
    """The exception ``build(*args)`` raises, or ``None``."""
    try:
        build(*args)
    except Exception as err:  # compared by type and message
        return err
    return None


#: (id, arrival, exec_times, target_completion) that ``Job`` refuses.
REFUSED_JOBS = {
    "id-zero": (0, 0.0, (1.0,), 5.0),
    "no-tiers": (1, 0.0, (), 5.0),
    "zero-exec": (1, 0.0, (1.0, 0.0), 5.0),
    "negative-exec": (2, 0.0, (-1.0,), 5.0),
    "nan-exec": (3, 0.0, (1.0, math.nan), 5.0),
    "inf-exec": (4, 0.0, (math.inf, 1.0), 5.0),
    "nan-arrival": (5, math.nan, (1.0,), 5.0),
    "inf-arrival": (6, math.inf, (1.0,), 5.0),
    "nan-target": (7, 0.0, (1.0,), math.nan),
    "minus-inf-target": (8, 0.0, (1.0,), -math.inf),
    "deadline-below-total": (9, 1.0, (2.0, 3.0), 5.0),
    "deadline-just-below-tolerance": (10, 0.0, (2.0, 3.0), 5.0 - 2e-9),
    "exec-not-a-number": (11, 0.0, ("x",), 5.0),
}

#: Fields ``Job`` accepts, some of them only after conversion.
ACCEPTED_JOBS = {
    "floats": (1, 2.0, (2.0, 3.0), 9.0),
    "int-fields": (1, 2, (2, 3), 9),
    "list-exec": (2, 0.0, [0.5, 0.25, 0.125], 1.0),
    "numpy-exec": (3, 0.0, tuple(np.array([1.5, 2.5])), 4.0),
    "string-exec": (4, 0.0, ("1.5",), 1.5),
    "deadline-within-tolerance": (5, 0.0, (2.0, 3.0), 5.0 - 0.5e-9),
    "no-allowance": (6, 1e300, (5e-324,), 1e300),
}


#: (id, arrival, tier count) of each job of a job set; ``JobSet`` refuses
#: some of these sets.
JOB_SET_CASES = {
    "gap-in-ids": ((1, 0.0, 1), (3, 1.0, 1)),
    "ids-from-two": ((2, 0.0, 1), (3, 1.0, 1)),
    "repeated-id": ((1, 0.0, 1), (1, 1.0, 1)),
    "arrival-back-beyond-tolerance": ((1, 5.0, 1), (2, 5.0 - 2e-9, 1)),
    "arrival-back-within-tolerance": ((1, 5.0, 1), (2, 5.0 - 0.5e-9, 1)),
    "back-from-an-earlier-latest": (
        (1, 5.0, 1), (2, 5.0 - 0.9e-9, 1), (3, 5.0 - 1.5e-9, 1)),
    "negative-arrivals": ((1, -3.0, 2), (2, -2.0, 2)),
    "more-tiers-later": ((1, 0.0, 1), (2, 1.0, 2)),
    "fewer-tiers-later": ((1, 0.0, 3), (2, 1.0, 3), (3, 2.0, 1)),
    "empty": (),
}


class TestJob:
    @pytest.mark.parametrize("case", sorted(REFUSED_JOBS))
    def test_refusals_match_the_reference(self, case):
        fields = REFUSED_JOBS[case]
        want = raised(reference_job_checks, *fields)
        got = raised(Job, *fields)
        assert want is not None
        assert (type(got), str(got)) == (type(want), str(want))

    @pytest.mark.parametrize("case", sorted(ACCEPTED_JOBS))
    def test_stored_fields_match_the_reference(self, case):
        fields = ACCEPTED_JOBS[case]
        exec_times, total, allowance = reference_job_checks(*fields)
        j = Job(*fields)
        assert type(j.exec_times) is tuple
        assert [(type(e), e.hex()) for e in j.exec_times] == [
            (float, e.hex()) for e in exec_times]
        assert j.total_exec.hex() == total.hex()
        assert j.allowance.hex() == allowance.hex()

    def test_total_adds_left_to_right(self):
        # A compensated sum would give 1e16 + 2.
        j = Job(1, 0.0, (1e16, 1.0, 1.0), 2e16)
        assert j.total_exec == 1e16
        assert j.allowance == 1e16

    def test_slots_and_no_instance_dict(self):
        j = Job(id=1, arrival=2.0, exec_times=(2.0, 3.0), target_completion=9.0)
        assert not hasattr(j, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            j.total_exec = 1.0

    def test_derived_fields(self):
        j = Job(id=1, arrival=2.0, exec_times=(2.0, 3.0), target_completion=9.0)
        assert j.total_exec == 5.0
        assert j.deadline == 7.0
        assert j.allowance == 2.0

    def test_rejects_nonpositive_exec(self):
        with pytest.raises(ValueError, match="positive"):
            Job(id=1, arrival=0.0, exec_times=(1.0, 0.0), target_completion=5.0)

    def test_rejects_deadline_below_total_exec(self):
        with pytest.raises(ValueError, match="deadline"):
            Job(id=1, arrival=0.0, exec_times=(2.0, 3.0), target_completion=4.0)

    @pytest.mark.parametrize("resources", [(3, 3), (2, 3, 1)])
    def test_stored_allowance_is_deadline_less_total_exec(self, resources,
                                                          tmp_path):
        env = EnvironmentConfig(num_tiers=len(resources),
                                resources_per_tier=resources)
        jobs = generate(WorkloadSpec(arrival_rate=3.0, num_jobs=300, seed=4),
                        env)
        path = tmp_path / "w.txt"
        save(jobs, path)
        for job_set in (jobs, load(path)):
            for j in job_set:
                want = (j.target_completion - j.arrival) - sum(j.exec_times)
                assert j.allowance.hex() == want.hex()

    def test_replace_recomputes_the_allowance(self):
        j = Job(id=1, arrival=2.0, exec_times=(2.0, 3.0), target_completion=9.0)
        moved = dataclasses.replace(j, target_completion=12.0)
        assert moved.allowance == 5.0
        assert dataclasses.replace(j, exec_times=(1.0, 1.0)).allowance == 5.0
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(j, allowance=0.0)

    def test_repr_equality_and_hash_ignore_the_allowance(self):
        j = Job(id=1, arrival=2.0, exec_times=(2.0, 3.0), target_completion=9.0)
        assert repr(j) == ("Job(id=1, arrival=2.0, exec_times=(2.0, 3.0), "
                           "target_completion=9.0)")
        assert hash(j) == hash((1, 2.0, (2.0, 3.0), 9.0))
        twin = Job(id=1, arrival=2.0, exec_times=(2, 3), target_completion=9.0)
        assert twin == j and hash(twin) == hash(j)
        assert [f.name for f in dataclasses.fields(j) if f.compare] == [
            "id", "arrival", "exec_times", "target_completion"]

    def test_integer_times_become_floats(self):
        # Stored as floats, as ``exec_times`` are, an int arrival or target
        # reaches no trace line, snapshot record or report.
        j = Job(id=1, arrival=0, exec_times=(1.0,), target_completion=2)
        twin = Job(id=1, arrival=0.0, exec_times=(1.0,), target_completion=2.0)
        assert (type(j.arrival), type(j.target_completion)) == (float, float)
        assert j == twin and hash(j) == hash(twin)
        env = EnvironmentConfig(num_tiers=1, resources_per_tier=(1,))
        sim = Simulator(JobSet((j,)), env, keep_trace=True)
        sim.step()
        assert sim.trace_lines()[1] == "0.0 arrive 1 1 1"
        assert type(sim.snapshot().progress[1].elapsed_wait) is float
        waits = sim.run().report().per_job[1].waits
        assert [type(w) for w in waits] == [float]


class TestJobSet:
    def test_dense_arrival_ordered_ids(self):
        jobs = JobSet((job(1, (1.0,), arrival=0.0), job(2, (1.0,), arrival=1.0)))
        assert len(jobs) == 2
        assert jobs.job(2).arrival == 1.0
        with pytest.raises(KeyError):
            jobs.job(3)

    def test_rejects_gap_in_ids(self):
        with pytest.raises(ValueError, match="dense"):
            JobSet((job(1, (1.0,)), job(3, (1.0,))))

    def test_rejects_out_of_order_arrivals(self):
        with pytest.raises(ValueError, match="arrival"):
            JobSet((job(1, (1.0,), arrival=5.0), job(2, (1.0,), arrival=1.0)))

    @pytest.mark.parametrize("case", sorted(JOB_SET_CASES))
    def test_verdicts_match_the_reference(self, case):
        jobs = tuple(job(jid, (1.0,) * tiers, arrival=arrival)
                     for jid, arrival, tiers in JOB_SET_CASES[case])
        want = raised(reference_jobset_checks, jobs)
        got = raised(JobSet, jobs)
        assert (type(got), str(got)) == (type(want), str(want))
        if want is None:
            assert tuple(JobSet(list(jobs))) == jobs

    @pytest.mark.parametrize("shift", [0.0, 1.0])
    def test_tolerance_runs_from_the_latest_arrival(self, shift):
        # A job may arrive up to TIME_EPS before the latest arrival so far,
        # whether that arrival is 0.0 or not.
        def stream(*arrivals):
            return JobSet(tuple(job(jid, (1.0,), arrival=shift + a)
                                for jid, a in enumerate(arrivals, start=1)))

        assert len(stream(0.0, -0.9e-9, -0.5e-9)) == 3
        with pytest.raises(ValueError, match="job 3 arrives before job 2"):
            stream(0.0, -0.9e-9, -1.8e-9)

    def test_jobs_read_as_the_tuple_of_the_jobs(self):
        want = tuple(job(jid, (1.0, 2.0), arrival=0.5 * jid)
                     for jid in (1, 2, 3))
        jobs = JobSet(want)
        assert repr(jobs) == f"JobSet(jobs={want!r})"
        assert repr(JobSet()) == "JobSet(jobs=())"

    @pytest.mark.parametrize("jid", [0, -1, 4])
    def test_job_outside_the_ids_is_a_key_error(self, jid):
        jobs = JobSet(tuple(job(i, (1.0,), arrival=float(i)) for i in (1, 2, 3)))
        with pytest.raises(KeyError, match=f"unknown job id {jid}"):
            jobs.job(jid)

    def test_every_construction_gives_the_same_set(self, env_2x3, tmp_path):
        jobs = generate(WorkloadSpec(arrival_rate=2.0, num_jobs=200, seed=3),
                        env_2x3)
        save(jobs, tmp_path / "w.txt")
        for other in (load(tmp_path / "w.txt"), JobSet(tuple(jobs)),
                      JobSet(list(jobs))):
            assert other == jobs and hash(other) == hash(jobs)
            for name in ("total_exec", "allowance"):
                assert (getattr(other, name).tobytes()
                        == getattr(jobs, name).tobytes())
        # The columns hold what the jobs hold, bit for bit.
        assert [(j.total_exec.hex(), j.allowance.hex()) for j in jobs] == [
            (t.hex(), a.hex())
            for t, a in zip(jobs.total_exec[1:], jobs.allowance[1:])]

    def test_validating_against_the_snapshots_own_set_compares_no_column(
            self, env_2x3):
        compared = []

        class Watched(array):
            def __eq__(self, other):
                compared.append(len(self))
                return array.__eq__(self, other)

            __hash__ = None

        snap = simulate_to_snapshot(generate(
            WorkloadSpec(arrival_rate=4.0, num_jobs=2_000, seed=1), env_2x3),
            env_2x3)
        object.__setattr__(snap.jobs, "arrival",
                           Watched("d", snap.jobs.arrival))
        assert validate_schedule(snap.schedule, snap.env, snap.jobs, snap).ok
        assert compared == []
        # An equal set that is not the snapshot's own is compared in full.
        assert validate_schedule(snap.schedule, snap.env,
                                 JobSet(tuple(snap.jobs)), snap).ok
        assert compared == [2_001]


class TestSchedule:
    @pytest.mark.parametrize("orders, busy, message", [
        ((((1,),),), (), "busy map must mirror the queue layout"),
        ((((1,), ()),), ((None,),), "busy map must mirror the queue layout"),
        ((((), ()),), ((None, 0.5),), "tier 0 resource 1: busy with an "
                                      "empty queue"),
        ((((1,),),), ((-1.0,),), "tier 0 resource 0: negative residual"),
    ])
    def test_refuses_inconsistent_busy_map(self, orders, busy, message):
        with pytest.raises(ValueError, match=message):
            Schedule(orders=orders, busy=busy)


class TestValidateSchedule:
    def test_ok_is_read_from_the_violations(self):
        assert ValidationReport().ok
        assert not ValidationReport(violations=("x",)).ok

    def test_empty_snapshot_passes(self, env_2x3):
        snap = fresh_snapshot(
            env_2x3, JobSet(),
            tuple(((),) * m for m in env_2x3.resources_per_tier))
        report = validate_schedule(snap.schedule, env_2x3, snap.jobs,
                                   snapshot=snap)
        assert report.ok and report.violations == ()

    def test_foreign_environment_or_jobs_reported(self, env_2x2):
        snap = loaded_snapshot(4.0, 30, seed=7)
        for env, jobs in ((env_2x2, snap.jobs), (snap.env, JobSet())):
            report = validate_schedule(snap.schedule, env, jobs, snapshot=snap)
            assert report.violations == (
                "environment or job set differs from the snapshot's",)

    def test_layout_unlike_the_environment_reported(self, env_2x3):
        snap = loaded_snapshot(4.0, 30, seed=7)
        one_tier = Schedule(orders=snap.schedule.orders[:1],
                            busy=snap.schedule.busy[:1])
        report = validate_schedule(one_tier, env_2x3, snap.jobs,
                                   snapshot=snap)
        assert report.violations == ("layout does not match the environment",)

    def test_simulator_snapshot_is_valid(self, env_2x3):
        snap = loaded_snapshot(4.0, 30, seed=7)
        report = validate_schedule(snap.schedule, env_2x3, snap.jobs,
                                   snapshot=snap)
        assert report.ok, report.violations

    def test_reordered_in_service_job_detected(self):
        env = EnvironmentConfig(num_tiers=1, resources_per_tier=(2,))
        jobs = JobSet((job(1, (4.0,)), job(2, (1.0,), arrival=0.5)))
        sim = Simulator(jobs, env)
        sim.run(until_external_arrivals=2)
        snap = sim.snapshot()
        assert snap.schedule.in_service_id(0, 0) == 1
        moved = Schedule(orders=(((2,), (1,)),),
                         busy=((None, snap.schedule.busy[0][0]),))
        report = validate_schedule(moved, env, jobs, snapshot=snap)
        assert not report.ok
        assert any("in-service" in v for v in report.violations)


class TestSnapshotChecks:
    """A snapshot refuses schedule and progress records that disagree."""

    @pytest.fixture
    def snap(self, env_2x2):
        jobs = JobSet((job(1, (2.0, 1.0)), job(2, (1.0, 1.0), arrival=0.5),
                       job(3, (1.0, 2.0), arrival=0.6)))
        return fresh_snapshot(env_2x2, jobs, (((1, 2), (3,)), ((), ())),
                              busy=((1.5, None), (None, None)))

    @staticmethod
    def rebuilt(snap, progress):
        return Snapshot(env=snap.env, jobs=snap.jobs, clock=snap.clock,
                        schedule=snap.schedule, progress=progress)

    def test_scheduled_job_without_progress(self, snap):
        progress = {jid: p for jid, p in snap.progress.items() if jid != 3}
        with pytest.raises(ValueError, match="cover the same jobs"):
            self.rebuilt(snap, progress)

    def test_progress_for_an_unscheduled_job(self, snap):
        with pytest.raises(ValueError, match="cover the same jobs"):
            self.rebuilt(snap, {**snap.progress, 4: snap.progress[3]})

    def test_job_in_the_wrong_tier(self, snap):
        second_tier = JobProgress(completed_waits=(0.0,), elapsed_wait=0.0)
        with pytest.raises(ValueError, match="scheduled in tier 0 but "
                                             "resides in tier 1"):
            self.rebuilt(snap, {**snap.progress, 3: second_tier})

    @staticmethod
    def with_schedule(snap, orders, busy=None, progress=None):
        schedule = Schedule(orders=orders, busy=busy or snap.schedule.busy)
        return Snapshot(env=snap.env, jobs=snap.jobs, clock=snap.clock,
                        schedule=schedule, progress=progress or snap.progress)

    def test_job_twice_in_a_tier(self, snap):
        with pytest.raises(ValueError, match="job 2 scheduled twice"):
            self.with_schedule(snap, (((1, 2), (3, 2)), ((), ())))

    def test_job_in_two_tiers(self, snap):
        with pytest.raises(ValueError, match="job 2 scheduled twice"):
            self.with_schedule(snap, (((1, 2), (3,)), ((2,), ())))

    @pytest.mark.parametrize("jid", [0, 4])
    def test_unknown_id(self, snap, jid):
        # Its progress record agrees with the queues; only the id is wrong.
        progress = {**snap.progress, jid: snap.progress[3]}
        with pytest.raises(ValueError, match=f"unknown job id {jid} in tier 0"):
            self.with_schedule(snap, (((1, 2), (3, jid)), ((), ())),
                               progress=progress)

    def test_layout_wider_than_the_environment(self, snap):
        with pytest.raises(ValueError, match="layout"):
            self.with_schedule(snap, (((1, 2), (), (3,)), ((), ())),
                               busy=((1.5, None, None), (None, None)))

    def test_jobs_with_another_tier_count(self, snap):
        one_tier = JobSet(tuple(job(j.id, j.exec_times[:1], arrival=j.arrival)
                                for j in snap.jobs))
        with pytest.raises(ValueError, match="job tier count"):
            Snapshot(env=snap.env, jobs=one_tier, clock=snap.clock,
                     schedule=snap.schedule, progress=snap.progress)

    def test_residual_above_the_execution_time(self, snap):
        # Job 1 runs 2.0 in tier 0.
        self.with_schedule(snap, snap.schedule.orders,
                           busy=((2.0, None), (None, None)))
        with pytest.raises(ValueError, match="job 1: residual exceeds"):
            self.with_schedule(snap, snap.schedule.orders,
                               busy=((2.1, None), (None, None)))

    def test_duplicate_id_raises_under_python_O(self):
        # The checks are raise statements, not asserts that -O strips: a
        # job queued twice, columns a row short of the walk and a NaN wait.
        script = textwrap.dedent("""
            import numpy as np
            from tiersched import (EnvironmentConfig, Job, JobProgress,
                                   JobSet, Schedule, Snapshot)
            from tiersched.model import Residents
            env = EnvironmentConfig(num_tiers=1, resources_per_tier=(2,))
            jobs = JobSet((Job(id=1, arrival=0.0, exec_times=(1.0,),
                               target_completion=2.0),))
            print("debug", __debug__)
            cases = (
                (((1,), (1,)), {1: JobProgress((), 0.0)}),
                (((1,), ()), Residents(np.zeros((0, 0)), np.zeros(0))),
                (((1,), ()), {1: JobProgress((), float("nan"))}))
            for orders, progress in cases:
                try:
                    Snapshot(env=env, jobs=jobs, clock=0.0,
                             schedule=Schedule(orders=(orders,),
                                               busy=((None, None),)),
                             progress=progress)
                except ValueError as err:
                    print("raised", err)
                else:
                    print("built silently")
        """)
        src = Path(tiersched.__file__).resolve().parents[1]
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120, check=True)
        assert out.stdout.splitlines() == [
            "debug False", "raised job 1 scheduled twice",
            "raised schedule and progress must cover the same jobs",
            "raised job 1: non-finite wait"]

    @pytest.mark.parametrize("jid, broken, message", [
        (4, lambda p: p[4]._replace(completed_waits=(-0.5,)),
         "job 4: negative completed wait"),
        (2, lambda p: p[2]._replace(elapsed_wait=-0.5),
         "job 2: negative elapsed wait"),
        (4, lambda p: p[4]._replace(completed_waits=(math.nan,)),
         "job 4: non-finite wait"),
        (4, lambda p: p[4]._replace(completed_waits=(math.inf,)),
         "job 4: non-finite wait"),
        (2, lambda p: p[2]._replace(elapsed_wait=math.nan),
         "job 2: non-finite wait"),
        (2, lambda p: p[2]._replace(elapsed_wait=math.inf),
         "job 2: non-finite wait"),
    ], ids=["negative-completed-wait", "negative-elapsed-wait",
            "nan-completed-wait", "infinite-completed-wait",
            "nan-elapsed-wait", "infinite-elapsed-wait"])
    def test_broken_progress_record(self, env_2x2, jid, broken, message):
        jobs = JobSet((job(1, (2.0, 1.0)), job(2, (1.0, 1.0), arrival=0.5),
                       job(3, (1.0, 2.0), arrival=0.6),
                       job(4, (1.0, 1.0), arrival=0.7)))
        snap = fresh_snapshot(env_2x2, jobs, (((1, 2), (3,)), ((4,), ())),
                              busy=((1.5, None), (None, None)))
        with pytest.raises(ValueError, match=message):
            self.rebuilt(snap, {**snap.progress, jid: broken(snap.progress)})

    @pytest.mark.parametrize("columns", [
        lambda waits, elapsed: Residents(waits[:-1], elapsed[:-1]),
        lambda waits, elapsed: Residents(waits, elapsed[:-1]),
        lambda waits, elapsed: Residents(waits[:, :0], elapsed),
    ], ids=["a-row-short", "elapsed-a-row-short", "waits-without-a-column"])
    def test_residents_unlike_the_walk(self, columns):
        # A simulated 2-tier snapshot's columns, one row per row of its
        # schedule's walk and one wait column, are accepted as they are.
        snap = loaded_snapshot(7.0, 40, seed=3)
        waits, elapsed = snap.residents
        assert waits.shape == (len(snap.schedule.walk[0]), 1)
        assert self.rebuilt(snap, Residents(waits, elapsed)).progress == (
            snap.progress)
        with pytest.raises(ValueError, match="cover the same jobs"):
            self.rebuilt(snap, columns(waits, elapsed))


FUZZ_RESOURCES = ((3, 3), (2, 3, 1), (1, 1))
EDITS = ("move", "duplicate", "other-tier", "unknown", "drop", "demote",
         "nudge")


@st.composite
def simulators(draw, cls=Simulator):
    """A simulator of class ``cls`` part-way through a seeded stream."""
    resources = draw(st.sampled_from(FUZZ_RESOURCES))
    env = EnvironmentConfig(num_tiers=len(resources),
                            resources_per_tier=resources)
    jobs = generate(WorkloadSpec(
        arrival_rate=draw(st.sampled_from([2.0, 6.0])),
        num_jobs=draw(st.integers(1, 30)), seed=draw(st.integers(0, 999))),
        env)
    sim = cls(jobs, env, make_policy(
        draw(st.sampled_from(["fcfs", "wlc", "wrr"])), env))
    for _ in range(draw(st.integers(0, 2 * env.num_tiers * len(jobs)))):
        sim.step()
    return sim


def simulator_snapshots():
    """A simulator's snapshot part-way through a seeded stream."""
    return simulators().map(Simulator.snapshot)


def edit(draw, snap, orders, busy, kind):
    """Apply one edit of ``kind`` in place to a candidate's queues; an edit
    with nothing to act on leaves them as they are."""
    env = snap.env

    def first_waiting(t, k):
        return 0 if busy[t][k] is None else 1

    def insert(jid, t):
        k = draw(st.integers(0, env.resources_per_tier[t] - 1))
        queue = orders[t][k]
        queue.insert(draw(st.integers(first_waiting(t, k), len(queue))), jid)

    waiting = [(t, k, pos) for t, k in env.iter_queues()
               for pos in range(first_waiting(t, k), len(orders[t][k]))]
    heads = [(t, k) for t, k in env.iter_queues() if busy[t][k] is not None]
    any_tier = st.integers(0, env.num_tiers - 1)
    if kind in ("move", "other-tier", "drop") and waiting:
        t, k, pos = draw(st.sampled_from(waiting))
        jid = orders[t][k].pop(pos)
        if kind == "move":
            insert(jid, t)
        elif kind == "other-tier":
            insert(jid, draw(any_tier.filter(lambda u: u != t)))
    elif kind == "duplicate" and snap.progress:
        insert(draw(st.sampled_from(sorted(snap.progress))), draw(any_tier))
    elif kind == "unknown":
        insert(draw(st.sampled_from([0, len(snap.jobs) + 1, -3])),
               draw(any_tier))
    elif kind == "demote" and heads:
        t, k = draw(st.sampled_from(heads))
        busy[t][k] = None
    elif kind == "nudge" and heads:
        t, k = draw(st.sampled_from(heads))
        busy[t][k] = max(0.0, busy[t][k] + draw(st.sampled_from(
            [1e-12, -1e-12, 1e-6, -1e-6, 100.0])))


class TestValidateAgainstReference:
    """Checked against a valid snapshot, the candidate-only checks reach the
    verdict of the whole-candidate walk they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(snap=simulator_snapshots(), data=st.data())
    def test_verdicts_agree(self, snap, data):
        orders = [[list(q) for q in row] for row in snap.schedule.orders]
        busy = [list(row) for row in snap.schedule.busy]
        for kind in data.draw(st.lists(st.sampled_from(EDITS), min_size=1,
                                       max_size=3)):
            edit(data.draw, snap, orders, busy, kind)
        candidate = Schedule(orders=orders, busy=busy)
        got = validate_schedule(candidate, snap.env, snap.jobs, snapshot=snap)
        want = reference_validate(candidate, snap.env, snap.jobs,
                                  snapshot=snap)
        assert got.ok == want.ok, (got.violations, want.violations)


PROGRESS_EDITS = ("forget", "extra", "tier", "completed-wait",
                  "elapsed-wait", "non-finite-wait")


def edit_progress(draw, snap, progress, kind):
    """Apply one edit of ``kind`` in place to progress records; an edit with
    nothing to act on leaves them as they are."""
    residents = sorted(progress)
    if kind == "extra":
        jid = draw(st.integers(0, len(snap.jobs) + 1))
        source = progress.get(jid) or next(iter(snap.progress.values()), None)
        if source is not None:
            progress[jid] = source
        return
    if not residents:
        return
    jid = draw(st.sampled_from(residents))
    prog = progress[jid]
    small = st.sampled_from([1e-12, 1e-6, 1.0])
    if kind == "forget":
        del progress[jid]
    elif kind == "tier":
        waits = prog.completed_waits
        progress[jid] = prog._replace(
            completed_waits=waits[:-1] if waits and draw(st.booleans())
            else waits + (0.0,))
    elif kind == "completed-wait" and prog.completed_waits:
        progress[jid] = prog._replace(completed_waits=(
            prog.completed_waits[:-1] + (-draw(small),)))
    elif kind == "elapsed-wait":
        progress[jid] = prog._replace(elapsed_wait=-draw(small))
    elif kind == "non-finite-wait":
        wait = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        if prog.completed_waits and draw(st.booleans()):
            progress[jid] = prog._replace(completed_waits=(
                prog.completed_waits[:-1] + (wait,)))
        else:
            progress[jid] = prog._replace(elapsed_wait=wait)


class TestProgressView:
    """A snapshot's ``progress`` builds each record when read, and reads as
    the dict of records it replaced."""

    def test_reads_as_the_dict(self):
        snap = loaded_snapshot(7.0, 110, seed=2)
        records = {jid: snap.progress[jid] for jid in sorted(snap.progress)}
        assert list(snap.progress) == sorted(records) and len(records) > 50
        assert snap.progress == records and records == snap.progress
        assert repr(snap.progress) == repr(records)
        assert len(snap.progress) == len(snap.schedule.walk[0])
        assert type(records[min(records)]) is JobProgress
        for missing in (0, len(snap.jobs) + 1, "1", 1.5):
            assert missing not in snap.progress
            with pytest.raises(KeyError):
                snap.progress[missing]


class TestOneWalk:
    def test_snapshot_evaluator_and_waiting_ids_walk_once(self, monkeypatch):
        """One ``Simulator.snapshot()``, its check, its evaluators in both
        modes, its progress records and its waiting ids all read the one
        walk of its schedule."""
        walks = []

        def counted(schedule, walk=Schedule.walk.func):
            walks.append(schedule)
            return walk(schedule)

        prop = cached_property(counted)
        prop.__set_name__(Schedule, "walk")
        monkeypatch.setattr(Schedule, "walk", prop)
        env = EnvironmentConfig()
        jobs = generate(WorkloadSpec(arrival_rate=7.0, num_jobs=110, seed=2),
                        env)
        sim = Simulator(jobs, env).run(until_external_arrivals=110)
        snap = sim.snapshot()
        for mode in AllowanceMode:
            evaluator = ScheduleEvaluator(snap, mode)
            evaluator.fitness(snap.schedule.flat_waiting())
            evaluator.breakdown()
        assert len(snap.waiting_by_tier) == env.num_tiers
        assert len(snap.waiting_ids()) > 50 and dict(snap.progress)
        assert walks == [snap.schedule]


class TestSnapshotAgainstReference:
    """The vectorised snapshot check refuses exactly what the two-walk
    reference refuses, with the message of the one-walk reference, and
    gathers the same in-service and waiting ids; a simulator's snapshot,
    derived from its service starts, holds the reference's progress records,
    built from its recorded waits and arrivals, bit for bit in the same
    order."""

    @staticmethod
    def gathered(snap):
        ids, _, serving, _ = snap.schedule.walk
        return frozenset(ids[serving].tolist()), tuple(
            tuple(ids.tolist()) for ids in snap.waiting_by_tier)

    @settings(max_examples=300, deadline=None)
    @given(sim=simulators(ReferenceSimulator), data=st.data())
    def test_refusals_and_records_agree(self, sim, data):
        snap = sim.snapshot()
        want = reference_progress(sim)
        assert repr(list(snap.progress.items())) == repr(list(want.items()))
        assert self.gathered(snap) == reference_snapshot_checks(
            snap.env, snap.jobs, snap.schedule, snap.progress)

        orders = [[list(q) for q in row] for row in snap.schedule.orders]
        busy = [list(row) for row in snap.schedule.busy]
        progress = dict(snap.progress)
        for kind in data.draw(st.lists(
                st.sampled_from(EDITS + PROGRESS_EDITS), max_size=3)):
            if kind in EDITS:
                edit(data.draw, snap, orders, busy, kind)
            else:
                edit_progress(data.draw, snap, progress, kind)
        schedule = Schedule(orders=orders, busy=busy)
        try:
            want = reference_snapshot_checks(snap.env, snap.jobs, schedule,
                                             progress)
        except ValueError:
            want = None
        try:
            message = None
            reference_one_walk_checks(snap.env, snap.jobs, schedule, progress)
        except ValueError as err:
            message = str(err)
        try:
            got = Snapshot(env=snap.env, jobs=snap.jobs, clock=snap.clock,
                           schedule=schedule, progress=progress)
        except ValueError as err:
            assert want is None, err
            assert str(err) == message
        else:
            assert self.gathered(got) == want


class TestRemainingWait:
    def test_head_of_idle_queue(self, env_1x1):
        jobs = JobSet((job(1, (2.0,)),))
        sched = Schedule(orders=(((1,),),), busy=((None,),))
        assert remaining_wait(sched, 1, 0, jobs) == 0.0

    def test_sum_of_predecessors(self, env_1x1):
        jobs = JobSet((job(1, (2.0,)), job(2, (3.5,)), job(3, (1.0,))))
        sched = Schedule(orders=(((1, 2, 3),),), busy=((None,),))
        assert remaining_wait(sched, 3, 0, jobs) == pytest.approx(5.5)

    def test_in_service_residual_counts(self, env_1x1):
        jobs = JobSet((job(1, (2.0,)), job(2, (2.0,)), job(3, (1.0,))))
        sched = Schedule(orders=(((1, 2, 3),),), busy=((1.2,),))
        assert remaining_wait(sched, 3, 0, jobs) == pytest.approx(3.2)
        assert remaining_wait(sched, 1, 0, jobs) == 0.0

    def test_matches_simulated_service_start(self, env_1x1):
        # Event-driven oracle: predicted remaining wait at a mid-service
        # instant must equal the realized service start minus the clock.
        jobs = JobSet((job(1, (2.0,)), job(2, (2.0,), arrival=0.1),
                       job(3, (1.0,), arrival=0.2)))
        sim = Simulator(jobs, env_1x1)
        sim.run(until_external_arrivals=3)
        snap = sim.snapshot()
        predicted = remaining_wait(snap.schedule, 3, 0, jobs)
        sim.run()
        report = sim.report()
        start = report.per_job[3].completion - jobs.job(3).exec_times[0]
        assert predicted == pytest.approx(start - snap.clock, abs=1e-9)

    def test_job_missing_from_tier(self, env_1x1):
        jobs = JobSet((job(1, (2.0,)),))
        sched = Schedule(orders=(((1,),),), busy=((None,),))
        with pytest.raises(LookupError):
            remaining_wait(sched, 99, 0, jobs)

    def test_earlier_position_never_waits_longer(self):
        rng = np.random.default_rng(42)
        env = EnvironmentConfig(num_tiers=1, resources_per_tier=(2,))
        for _ in range(200):
            n = int(rng.integers(2, 8))
            jobs = JobSet(tuple(
                job(i + 1, (float(rng.uniform(0.1, 3.0)),)) for i in range(n)))
            ids = list(rng.permutation(n) + 1)
            cut = int(rng.integers(0, n + 1))
            q0, q1 = ids[:cut], ids[cut:]
            sched = Schedule(orders=((tuple(q0), tuple(q1)),),
                             busy=((None, None),))
            for queue in (q0, q1):
                for pos in range(1, len(queue)):
                    swapped = queue.copy()
                    swapped[pos - 1], swapped[pos] = swapped[pos], swapped[pos - 1]
                    other = q1 if queue is q0 else q0
                    pair = (tuple(swapped), tuple(other)) if queue is q0 \
                        else (tuple(other), tuple(swapped))
                    moved = Schedule(orders=(pair,), busy=((None, None),))
                    jid = queue[pos]
                    assert (remaining_wait(moved, jid, 0, jobs)
                            <= remaining_wait(sched, jid, 0, jobs) + 1e-9)


class TestTierChaining:
    def test_departure_equals_next_arrival_over_full_runs(self, env_2x3):
        jobs = generate(WorkloadSpec(arrival_rate=3.0, num_jobs=40, seed=3),
                        env_2x3)
        sim = Simulator(jobs, env_2x3, keep_trace=True)
        sim.run()
        times = {(ev.kind, ev.job_id, ev.tier): ev.time for ev in sim.trace}
        handoffs = 0
        for jid in range(1, len(jobs) + 1):
            for tier in range(env_2x3.num_tiers - 1):
                assert (times["finish", jid, tier]
                        == times["arrive", jid, tier + 1])
                handoffs += 1
        assert handoffs == len(jobs) * (env_2x3.num_tiers - 1)
        for jid, outcome in sim.report().per_job.items():
            assert len(outcome.waits) == env_2x3.num_tiers

    def test_schedules_from_pipeline_validate(self, env_2x3):
        # Covers simulator output under every baseline across many instances.
        count = 0
        for seed in range(250):
            for policy in ("fcfs", "wrr", "wlc", "random"):
                snap = loaded_snapshot(5.0, 12, seed=seed, policy=policy)
                report = validate_schedule(snap.schedule, snap.env, snap.jobs,
                                           snapshot=snap)
                assert report.ok, report.violations
                count += 1
        assert count == 1000
