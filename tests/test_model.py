import numpy as np
import pytest

from tiersched import (
    EnvironmentConfig,
    Job,
    JobProgress,
    JobSet,
    Schedule,
    Snapshot,
    WorkloadSpec,
    generate,
    simulate_to_snapshot,
    validate_schedule,
)
from tiersched.sim import Simulator

from conftest import fresh_snapshot, job, loaded_snapshot
from expected_waits import remaining_wait


class TestEnvironmentConfig:
    def test_scalar_resources_broadcast(self):
        env = EnvironmentConfig(num_tiers=3, resources_per_tier=2)
        assert env.resources_per_tier == (2, 2, 2)
        assert env.num_queues == 6
        assert env.queue_offset(2) == 4

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


class TestJob:
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


class TestValidateSchedule:
    def test_duplicate_within_tier(self, env_2x2):
        jobs = JobSet(tuple(job(i, (1.0, 1.0)) for i in (1, 2, 3)))
        sched = Schedule(orders=(((3, 1), (3,)), ((), ())),
                         busy=((None, None), (None, None)))
        report = validate_schedule(sched, env_2x2, jobs)
        assert not report.ok
        assert any("duplicate within tier 0" in v for v in report.violations)

    def test_cross_tier_duplicate(self, env_2x2):
        jobs = JobSet(tuple(job(i, (1.0, 1.0)) for i in (1, 2)))
        sched = Schedule(orders=(((1,), ()), ((1,), (2,))),
                         busy=((None, None), (None, None)))
        report = validate_schedule(sched, env_2x2, jobs)
        assert any("tiers 0 and 1" in v for v in report.violations)

    def test_unknown_id(self, env_2x2):
        jobs = JobSet((job(1, (1.0, 1.0)),))
        sched = Schedule(orders=(((9,), ()), ((), ())),
                         busy=((None, None), (None, None)))
        assert not validate_schedule(sched, env_2x2, jobs).ok

    def test_empty_schedule_passes(self, env_2x3):
        empty = Schedule(
            orders=tuple(((),) * m for m in env_2x3.resources_per_tier),
            busy=tuple((None,) * m for m in env_2x3.resources_per_tier))
        report = validate_schedule(empty, env_2x3, JobSet())
        assert report.ok and report.violations == ()

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
        extra = snap.progress[3]._replace(job_id=4)
        with pytest.raises(ValueError, match="cover the same jobs"):
            self.rebuilt(snap, {**snap.progress, 4: extra})

    def test_job_in_the_wrong_tier(self, snap):
        second_tier = JobProgress(job_id=3, tier_arrivals=(0.6, 1.6),
                                  completed_waits=(0.0,), elapsed_wait=0.0)
        with pytest.raises(ValueError, match="scheduled in tier 0 but "
                                             "resides in tier 1"):
            self.rebuilt(snap, {**snap.progress, 3: second_tier})

    @pytest.mark.parametrize("jid, in_service", [(1, False), (2, True),
                                                 (3, True)])
    def test_in_service_flag_mismatch(self, snap, jid, in_service):
        flipped = snap.progress[jid]._replace(in_service=in_service)
        with pytest.raises(ValueError, match=f"job {jid}: in-service flag"):
            self.rebuilt(snap, {**snap.progress, jid: flipped})

    @pytest.mark.parametrize("jid, broken, message", [
        (3, lambda p: p[2], "job 3: progress record of job 2"),
        (3, lambda p: p[3]._replace(tier_arrivals=(0.6, 1.6)),
         "job 3: need one arrival per tier reached"),
        (4, lambda p: p[4]._replace(completed_waits=(-0.5,)),
         "job 4: negative completed wait"),
        (2, lambda p: p[2]._replace(elapsed_wait=-0.5),
         "job 2: negative elapsed wait"),
    ], ids=["another-job", "arrival-count", "negative-completed-wait",
            "negative-elapsed-wait"])
    def test_broken_progress_record(self, env_2x2, jid, broken, message):
        jobs = JobSet((job(1, (2.0, 1.0)), job(2, (1.0, 1.0), arrival=0.5),
                       job(3, (1.0, 2.0), arrival=0.6),
                       job(4, (1.0, 1.0), arrival=0.7)))
        snap = fresh_snapshot(env_2x2, jobs, (((1, 2), (3,)), ((4,), ())),
                              busy=((1.5, None), (None, None)))
        with pytest.raises(ValueError, match=message):
            self.rebuilt(snap, {**snap.progress, jid: broken(snap.progress)})


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
        start = report.outcomes[3].completion - jobs.job(3).exec_times[0]
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
        sim = Simulator(jobs, env_2x3)
        sim.run(until_external_arrivals=len(jobs))
        snap = sim.snapshot()
        handoffs = 0
        for jid, prog in snap.progress.items():
            execs = jobs.job(jid).exec_times
            for j in range(prog.tier):
                start = prog.tier_arrivals[j] + prog.completed_waits[j]
                assert abs(prog.tier_arrivals[j + 1]
                           - (start + execs[j])) <= 1e-9
                handoffs += 1
        assert handoffs > 0
        sim.run()
        for jid, outcome in sim.report().outcomes.items():
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
