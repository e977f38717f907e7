import hashlib
import heapq
import math
import os
import statistics
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import tiersched
from tiersched import (
    AllowanceMode,
    EnvironmentConfig,
    GAConfig,
    InvalidScheduleError,
    Job,
    JobSet,
    Schedule,
    WorkloadSpec,
    evolve,
    generate,
    make_policy,
    simulate_to_snapshot,
    total_penalty,
)
from tiersched.baselines import AssignmentPolicy, PolicyKind
from tiersched.ga import random_chromosome
from tiersched.penalty import JobViolation, ViolationBreakdown, violation_totals
from tiersched.sim import _ARRIVAL, JobOutcome, Simulator

from conftest import job
from reference_queue import erlang_c_wait, erlang_gi_m1_wait, recursion_waits
from reference_sim import ReferenceSimulator, reference_violation_totals
from reference_snapshot import reference_progress


class TestBasicDynamics:
    def test_single_job_empty_system(self, env_2x3):
        jobs = JobSet((job(1, (2.0, 1.5)),))
        report = Simulator(jobs, env_2x3).run().report()
        outcome = report.per_job[1]
        assert outcome.response_time == pytest.approx(3.5)
        assert outcome.waits == (0.0, 0.0)
        assert outcome.total_wait == 0.0

    def test_serial_queue_second_waits_for_first(self, env_1x1):
        jobs = JobSet((job(1, (2.0,)), job(2, (1.0,))))
        report = Simulator(jobs, env_1x1).run().report()
        assert report.per_job[1].waits[0] == 0.0
        assert report.per_job[2].waits[0] == pytest.approx(2.0)

    def test_two_tier_staggered_hand_trace(self):
        env = EnvironmentConfig(num_tiers=2, resources_per_tier=(1, 1))
        jobs = JobSet((job(1, (2.0, 1.0)), job(2, (1.0, 2.0), arrival=0.5)))
        report = Simulator(jobs, env).run().report()
        first, second = report.per_job[1], report.per_job[2]
        assert first.waits == (0.0, 0.0)
        assert first.response_time == pytest.approx(3.0)
        assert second.waits[0] == pytest.approx(1.5)
        assert second.waits[1] == pytest.approx(0.0)
        assert second.response_time == pytest.approx(4.5)
        # Allowance is 20% of total execution: 0.6 for each job here.
        assert first.alpha == pytest.approx(-0.6)
        assert second.alpha == pytest.approx(0.9)

    def test_total_wait_is_sum_of_tier_waits(self, env_2x3):
        jobs = generate(WorkloadSpec(arrival_rate=4.0, num_jobs=30, seed=2),
                        env_2x3)
        report = Simulator(jobs, env_2x3).run().report()
        for outcome in report.per_job.values():
            assert outcome.total_wait == pytest.approx(sum(outcome.waits))
            assert outcome.response_time == pytest.approx(
                outcome.total_exec + outcome.total_wait, abs=1e-9)

    def test_outcome_stores_seven_fields_and_derives_two(self):
        # Left to right, 1e16 + 1.0 rounds back to 1e16 twice; a reversed
        # or compensated sum gives 1e16 + 2.0.
        outcome = JobOutcome(1, 2.0, 9.5, 1.0, (1e16, 1.0, 1.0), 0.0, 0.0)
        assert JobOutcome._fields == ("job_id", "arrival", "completion",
                                      "total_exec", "waits", "alpha", "cost")
        assert outcome.total_wait == 1e16
        assert outcome.response_time == 7.5

    def test_empty_job_set(self, env_2x3):
        report = Simulator(JobSet(), env_2x3).run().report()
        assert report.per_job == {}
        assert report.total_violation == 0.0

    def test_refuses_jobs_with_another_tier_count(self, env_2x3):
        with pytest.raises(ValueError, match="job tier count does not match"):
            Simulator(JobSet((job(1, (1.0,)),)), env_2x3)

    @pytest.mark.parametrize("policy", ["wrr", PolicyKind.WRR])
    def test_refuses_a_policy_name(self, env_2x3, policy):
        # Only make_policy turns a name or a kind into a policy.
        jobs = JobSet((job(1, (1.0, 1.0)),))
        with pytest.raises(TypeError, match="make_policy"):
            Simulator(jobs, env_2x3, policy)
        with pytest.raises(TypeError, match="make_policy"):
            simulate_to_snapshot(jobs, env_2x3, policy)

    def test_report_before_the_drain_skips_unfinished_jobs(self, env_1x1):
        jobs = JobSet((job(1, (2.0,)), job(2, (1.0,), arrival=0.5)))
        sim = Simulator(jobs, env_1x1)
        while not sim.departed:
            sim.step()
        report = sim.report()
        assert sorted(report.per_job) == [1]
        assert report.job_count == 1
        assert report.per_job[1].completion == 2.0

    def test_report_is_a_breakdown_of_outcomes(self, env_2x3):
        jobs = generate(WorkloadSpec(arrival_rate=4.0, num_jobs=30, seed=2),
                        env_2x3)
        report = Simulator(jobs, env_2x3).run().report()
        assert type(report) is ViolationBreakdown
        assert report.job_count == 30
        assert all(type(o) is JobOutcome for o in report.per_job.values())
        assert report.mean_violation == report.total_violation / 30


class TestReportContract:
    """A drain report's ``per_job`` builds each record when read and reads
    like the dict of every completed job's ``JobOutcome``."""

    @pytest.fixture
    def mid_run(self, env_2x3):
        jobs = generate(WorkloadSpec(arrival_rate=4.0, num_jobs=40, seed=5),
                        env_2x3)
        sim = Simulator(jobs, env_2x3, keep_trace=True)
        while sim.departed < 20:
            sim.step()
        return sim, sim.report()

    def test_mid_run_report_does_not_move_with_the_simulator(self, mid_run):
        sim, report = mid_run
        before = repr(report)
        sim.run()
        assert repr(report) == before
        assert report.job_count == 20 < sim.report().job_count

    def test_unknown_and_unfinished_ids_raise_key_error(self, mid_run):
        sim, report = mid_run
        unfinished = next(job.id for job in sim.jobs
                          if job.id not in report.per_job)
        for key in (0, len(sim.jobs) + 1, unfinished, "1", 1.5, None):
            with pytest.raises(KeyError):
                report.per_job[key]
            assert key not in report.per_job

    def test_numpy_integer_ids_find_their_records(self, mid_run):
        _, report = mid_run
        per_job = report.per_job
        as_dict = dict(per_job)
        for jid in per_job:
            for key in (np.int64(jid), np.int32(jid), np.uint16(jid)):
                assert key in per_job
                assert per_job[key] == as_dict[key] == per_job[jid]
        assert np.int64(0) not in per_job and np.float64(1.0) not in per_job

    def test_reads_as_the_dict_of_its_records(self, mid_run):
        sim, report = mid_run
        per_job = report.per_job
        ids = list(per_job)
        assert ids == sorted(ids) and len(ids) == len(per_job) == 20
        assert all(jid in per_job for jid in ids)
        as_dict = {jid: per_job[jid] for jid in ids}
        assert per_job == as_dict and as_dict == per_job
        assert per_job != {**as_dict, 0: as_dict[ids[0]]}
        assert repr(per_job) == repr(as_dict)
        assert list(per_job.items()) == list(as_dict.items())
        departures = {ev.job_id: ev.time for ev in sim.trace
                      if ev.kind == "depart"}
        assert departures.keys() == set(ids)
        for jid, outcome in per_job.items():
            assert type(outcome) is JobOutcome
            assert outcome.job_id == jid
            assert outcome.completion.hex() == departures[jid].hex()

    def test_report_builds_no_records(self, env_2x3):
        """``report()`` peaks well below a report that builds every record:
        the reference's, measured here on the same drain."""
        jobs = generate(WorkloadSpec(arrival_rate=2.5, num_jobs=20_000,
                                     seed=1), env_2x3)
        peaks = []
        for cls in (Simulator, ReferenceSimulator):
            sim = cls(jobs, env_2x3).run()
            tracemalloc.start()
            try:
                report = sim.report()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert report.job_count == len(jobs)
        assert peaks[0] < 0.4 * peaks[1], peaks

    def test_snapshot_builds_no_records(self, env_2x3):
        """``snapshot()`` keeps its residents as columns: it peaks well below
        building their progress records, the reference's, for one state with
        over 400 residents."""
        jobs = generate(WorkloadSpec(arrival_rate=4.0, num_jobs=3000,
                                     seed=9), env_2x3)
        sim = ReferenceSimulator(jobs, env_2x3)
        for _ in range(6000):
            sim.step()
        peaks = []
        for build in (sim.snapshot, lambda: reference_progress(sim)):
            tracemalloc.start()
            try:
                built = build()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert len(built) >= 400
        assert peaks[0] < 0.4 * peaks[1], peaks

    def test_drained_simulator_and_kept_report_are_small(self, env_2x3):
        """One time per job and tier in the simulator, and typed columns in
        the report it leaves behind, measured on a 20,000-job FCFS drain."""
        jobs = generate(WorkloadSpec(arrival_rate=2.5, num_jobs=20_000,
                                     seed=1), env_2x3)
        tracemalloc.start()
        try:
            sim = Simulator(jobs, env_2x3).run()
            drained = tracemalloc.get_traced_memory()[0]
            report = sim.report()
            del sim
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert report.job_count == len(jobs)
        assert drained / len(jobs) < 100, drained
        assert kept / len(jobs) < 80, kept


class TestInvariants:
    @pytest.mark.parametrize("policy", ["fcfs", "wrr", "wlc", "random"])
    def test_conservation_and_work_conservation(self, env_2x3, policy):
        jobs = generate(WorkloadSpec(arrival_rate=5.0, num_jobs=25, seed=13),
                        env_2x3)
        sim = Simulator(jobs, env_2x3, make_policy(policy, env_2x3, seed=13))
        while sim.step():
            sim.assert_invariants()
        assert sim.departed == len(jobs)

    @pytest.mark.parametrize(
        "tamper", ["lost", "duplicated", "external", "external-lost"])
    def test_pending_events_match_busy_and_moving(self, env_2x3, tamper):
        jobs = generate(WorkloadSpec(arrival_rate=5.0, num_jobs=25, seed=13),
                        env_2x3)
        sim = Simulator(jobs, env_2x3)
        sim.run(until_external_arrivals=10)
        sim.assert_invariants()
        # The one pending external arrival (job 11 reaching tier 1).
        external = [e for e in sim._events if e[1] == _ARRIVAL and e[3] == 0]
        assert [e[2] for e in external] == [11]
        if tamper == "lost":
            heapq.heappop(sim._events)
        elif tamper == "duplicated":
            heapq.heappush(sim._events, sim._events[0])
        elif tamper == "external":
            heapq.heappush(sim._events, external[0])
        else:
            sim._events.remove(external[0])
            heapq.heapify(sim._events)
        with pytest.raises(AssertionError, match="pending events"):
            sim.assert_invariants()

    def test_in_service_job_is_the_queue_head(self, env_2x3):
        sim = Simulator(JobSet((job(1, (1.0, 1.0)),)), env_2x3)
        sim.step()
        sim.assert_invariants()
        # Move job 1 away from the resource that is serving it.
        sim._queues[0][1].append(sim._queues[0][0].pop())
        with pytest.raises(AssertionError, match="resource 0: busy with an "
                                                 "empty queue"):
            sim.assert_invariants()

    @staticmethod
    def one_server_backlog():
        """Jobs 1 and 2 reach one resource at 0: 1 in service, 2 waiting."""
        env = EnvironmentConfig(num_tiers=1, resources_per_tier=(1,))
        sim = Simulator(JobSet((job(1, (1.0,)), job(2, (1.0,)))), env)
        sim.step()
        sim.step()
        sim.assert_invariants()
        assert sim.queue(0, 0) == (1, 2)
        return sim

    def test_recorded_start_must_fit_the_busy_end(self):
        sim = self.one_server_backlog()
        sim._start[1] = 0.25  # job 1's tier-0 start; its service ends at 1.0
        with pytest.raises(AssertionError, match=r"^tier 0 resource 0: head 1 "
                                                 r"started at 0.25, ends at "
                                                 r"1.0$"):
            sim.assert_invariants()

    def test_recorded_start_after_the_clock(self):
        sim = self.one_server_backlog()
        sim.step()  # job 1 completes and job 2 starts, at 1.0
        sim.assert_invariants()
        sim._start[1] = 1.5  # job 1's finished tier-0 service
        with pytest.raises(AssertionError,
                           match="^a recorded start lies after 1.0$"):
            sim.assert_invariants()

    def test_event_before_the_clock_is_refused(self, env_2x3):
        jobs = generate(WorkloadSpec(arrival_rate=5.0, num_jobs=25, seed=13),
                        env_2x3)
        sim = Simulator(jobs, env_2x3)
        sim.run(until_external_arrivals=10)
        _, *rest = sim._events[0]
        heapq.heappush(sim._events, (sim.clock - 1.0, *rest))
        with pytest.raises(AssertionError,
                           match="event times must not decrease"):
            sim.step()

    def test_completing_job_must_be_the_queue_head(self):
        sim = self.one_server_backlog()
        # Job 2 jumps ahead of job 1, whose completion is pending.
        sim._queues[0][0].reverse()
        with pytest.raises(AssertionError,
                           match="completing job is not the queue head"):
            sim.step()

    def test_lost_waiting_job_breaks_conservation(self):
        sim = self.one_server_backlog()
        del sim._queues[0][0][1]
        with pytest.raises(AssertionError,
                           match=r"^tier 0: 2 arrived but 1 resident \+ 0 in "
                                 r"flight \+ 0 moved on$"):
            sim.assert_invariants()

    def test_waiting_job_on_an_idle_resource(self):
        env = EnvironmentConfig(num_tiers=1, resources_per_tier=(2,))
        jobs = JobSet((job(1, (1.0,)), job(2, (5.0,)), job(3, (1.0,)),
                       job(4, (1.0,))))
        sim = Simulator(jobs, env, make_policy("wrr", env))
        for _ in range(6):  # four arrivals, then jobs 1 and 3 complete
            sim.step()
        sim.assert_invariants()
        assert (sim.queue(0, 0), sim.queue(0, 1)) == ((), (2, 4))
        # Counts and pending events still agree once job 4 moves.
        sim._queues[0][0].append(sim._queues[0][1].pop())
        with pytest.raises(AssertionError, match="^tier 0 resource 0: idle "
                                                 "with waiting jobs$"):
            sim.assert_invariants()

    def test_determinism_identical_traces(self, env_2x3):
        jobs = generate(WorkloadSpec(arrival_rate=5.0, num_jobs=30, seed=4),
                        env_2x3)
        runs = []
        for _ in range(2):
            sim = Simulator(jobs, env_2x3, keep_trace=True)
            sim.run()
            runs.append(sim.trace_lines())
        assert runs[0] == runs[1]

    def test_snapshot_counts_resident_jobs_only(self, env_2x3):
        jobs = generate(WorkloadSpec(arrival_rate=5.0, num_jobs=20, seed=8),
                        env_2x3)
        sim = Simulator(jobs, env_2x3)
        sim.run(until_external_arrivals=20)
        snap = sim.snapshot()
        scheduled = {jid for tier in snap.schedule.orders
                     for queue in tier for jid in queue}
        assert set(snap.progress) == scheduled


class TestQueueingOracles:
    def test_mm1_mean_wait(self):
        # Closed form for M/M/1: the mean queueing wait is lam/(mu(mu-lam)).
        lam, mu = 0.5, 1.0
        expected = lam / (mu * (mu - lam))
        env = EnvironmentConfig(num_tiers=1, resources_per_tier=(1,))
        jobs = generate(WorkloadSpec(arrival_rate=lam, num_jobs=100_000,
                                     seed=3, service_rate=mu), env)
        report = Simulator(jobs, env).run().report()
        mean = sum(o.waits[0] for o in report.per_job.values()) / len(jobs)
        assert mean == pytest.approx(expected, rel=0.05)

    def test_mmc_mean_wait(self):
        # Erlang-C oracle for M/M/c; least-backlog routing with per-queue
        # FIFO realizes the same start times as one shared FCFS queue.
        lam, mu, c = 2.4, 1.0, 3
        expected = erlang_c_wait(lam, mu, c)
        env = EnvironmentConfig(num_tiers=1, resources_per_tier=(c,))
        jobs = generate(WorkloadSpec(arrival_rate=lam, num_jobs=100_000,
                                     seed=3, service_rate=mu), env)
        report = Simulator(jobs, env).run().report()
        mean = sum(o.waits[0] for o in report.per_job.values()) / len(jobs)
        assert mean == pytest.approx(expected, rel=0.05)


class TestSteadyStateMeans:
    """Batch means of each tier's waits in a long drain against queueing
    theory (``tests/reference_queue.py``): Erlang C for every FCFS tier, and
    E_3/M/1 for round robin's first tier.

    Fixed before the first run: a 2x3 layout at mu = 1, workload seed 1,
    50,000 jobs, the first 10% dropped as warm-up, the rest in id order cut
    into 20 batches, and a bound of 4 standard errors of the batch means.
    Observed z-scores, (mean - theory) / standard error, on that run:

    ====  ======  =====  ==========
    run   lambda  tier   z
    ====  ======  =====  ==========
    fcfs  2.5     1      +0.33
    fcfs  2.5     2      +0.82
    fcfs  1.5     1      +1.09
    fcfs  1.5     2      +0.67
    wrr   2.5     1      +0.39
    ====  ======  =====  ==========
    """

    JOBS, WARM_UP, BATCHES, BOUND = 50_000, 5_000, 20, 4.0

    @classmethod
    def z_scores(cls, policy: str, lam: float, theory: float) -> list[float]:
        """Each tier's (batch mean - theory) / standard error in one drain."""
        env = EnvironmentConfig(num_tiers=2, resources_per_tier=(3, 3))
        jobs = generate(WorkloadSpec(arrival_rate=lam, num_jobs=cls.JOBS,
                                     seed=1), env)
        report = Simulator(jobs, env, make_policy(policy, env)).run().report()
        kept = [report.per_job[jid].waits
                for jid in range(cls.WARM_UP + 1, cls.JOBS + 1)]
        size = len(kept) // cls.BATCHES
        scores = []
        for tier in range(env.num_tiers):
            means = [statistics.fmean(w[tier] for w in kept[i:i + size])
                     for i in range(0, size * cls.BATCHES, size)]
            error = statistics.stdev(means) / math.sqrt(cls.BATCHES)
            scores.append((statistics.fmean(means) - theory) / error)
        return scores

    def test_theory(self):
        assert erlang_c_wait(2.5, 1.0, 3) == pytest.approx(1.4045, abs=1e-4)
        assert erlang_c_wait(1.5, 1.0, 3) == pytest.approx(0.1579, abs=1e-4)
        assert erlang_gi_m1_wait(2.5, 1.0, 3) == pytest.approx(3.1233,
                                                              abs=1e-4)
        # One resource: E_1/M/1 is M/M/1, and so is Erlang C with c = 1.
        assert erlang_gi_m1_wait(0.5, 1.0, 1) == pytest.approx(1.0)
        assert erlang_c_wait(0.5, 1.0, 1) == pytest.approx(1.0)

    @pytest.mark.parametrize("lam", [2.5, 1.5])
    def test_fcfs_tiers_are_erlang_c(self, lam):
        scores = self.z_scores("fcfs", lam, erlang_c_wait(lam, 1.0, 3))
        assert all(abs(z) <= self.BOUND for z in scores), scores

    def test_wrr_first_tier_is_erlang_gi_m1(self):
        # Round robin's second tier has no closed form.
        z = self.z_scores("wrr", 2.5, erlang_gi_m1_wait(2.5, 1.0, 3))[0]
        assert abs(z) <= self.BOUND, z


class TestSamplePath:
    """Every per-tier wait of a plain FCFS drain equals the Kiefer-Wolfowitz
    recursion's (``tests/reference_queue.py``), with ``==``.

    The recursion shares no code with the simulator, so this checks its
    dispatch, its event order and its hand-offs between tiers.  It does not
    apply once an optimizer reorders queues: the recursion serves each tier
    in arrival order.
    """

    @staticmethod
    def assert_waits_equal(resources, rate, seed, num_jobs):
        env = EnvironmentConfig(num_tiers=len(resources),
                                resources_per_tier=resources)
        jobs = generate(WorkloadSpec(arrival_rate=rate, num_jobs=num_jobs,
                                     seed=seed), env)
        report = Simulator(jobs, env).run().report()
        expected = recursion_waits(jobs, resources)
        assert report.per_job.keys() == expected.keys()
        differ = [(jid, o.waits, expected[jid])
                  for jid, o in report.per_job.items()
                  if o.waits != expected[jid]]
        assert differ == []

    # mu = 1, so the tier with the fewest resources runs at rho = load.
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("load", [0.5, 0.83])
    @pytest.mark.parametrize("resources", [(3, 3), (2, 3, 1), (1,), (4, 2)],
                             ids=lambda r: "-".join(map(str, r)))
    def test_fcfs_drain(self, resources, load, seed):
        self.assert_waits_equal(resources, load * min(resources), seed, 5_000)

    def test_long_stream(self):
        self.assert_waits_equal((3, 3), 2.5, 1, 50_000)


class TestRescheduleHook:
    def test_decisions_with_nothing_to_move_are_skipped(self):
        # One resource per tier, a decision due every 3 of 24 events: at
        # t = 1, 3, 4, 5, 20, 22, 23 and 24.  Only those at t = 1 and 20
        # find two jobs waiting in a tier; the others are skipped, and the
        # cadence still counts every event.
        env = EnvironmentConfig(num_tiers=2, resources_per_tier=(1, 1))
        jobs = JobSet((job(1, (2.0, 1.0)), job(2, (1.0, 1.0), arrival=0.5),
                       job(3, (1.0, 1.0), arrival=1.0),
                       *(job(jid, (1.0, 1.0), arrival=20.0)
                         for jid in (4, 5, 6))))
        waiting = []

        def identity(snap):
            waiting.append((snap.clock, snap.waiting_ids()))
            return snap.schedule

        sim = Simulator(jobs, env, optimizer=identity, reschedule_every=3,
                        keep_trace=True).run()
        assert waiting == [(1.0, [2, 3]), (20.0, [5, 6])]
        assert [line.split()[1] for line in sim.trace_lines()[1:]].count(
            "reschedule") == 2

    def test_one_waiting_job_can_move_between_resources(self, env_2x3):
        jobs = JobSet(tuple(job(jid, (5.0, 1.0)) for jid in range(1, 5)))
        calls = []

        def identity(snap):
            calls.append(snap)
            return snap.schedule

        sim = Simulator(jobs, env_2x3, optimizer=identity, reschedule_every=4)
        sim.run(until_external_arrivals=4)
        # Three jobs in service, one waiting, three resources in its tier.
        assert len(calls) == 1 and calls[0].waiting_ids() == [4]

    def test_identity_optimizer_changes_nothing(self, env_2x3):
        jobs = generate(WorkloadSpec(arrival_rate=5.0, num_jobs=25, seed=6),
                        env_2x3)
        plain = Simulator(jobs, env_2x3, keep_trace=True)
        plain.run()
        hooked = Simulator(jobs, env_2x3, keep_trace=True,
                           optimizer=lambda snap: snap.schedule)
        hooked.run()
        scheduled = [ev for ev in hooked.trace if ev.kind != "reschedule"]
        assert scheduled == plain.trace
        assert hooked.report() == plain.report()

    @staticmethod
    def count_snapshots(monkeypatch) -> list:
        calls = []
        plain = Simulator.snapshot

        def counted(sim):
            calls.append(sim.clock)
            return plain(sim)

        monkeypatch.setattr(Simulator, "snapshot", counted)
        return calls

    @pytest.mark.parametrize("cadence", [0, -3, 2.5, 2.0])
    def test_cadence_below_one_rejected(self, env_2x3, cadence):
        jobs = generate(WorkloadSpec(arrival_rate=5.0, num_jobs=5, seed=6),
                        env_2x3)
        # A non-integer cadence is refused, never truncated.
        error = TypeError if isinstance(cadence, float) else ValueError
        with pytest.raises(error, match="^reschedule_every must be"):
            Simulator(jobs, env_2x3, optimizer=lambda snap: snap.schedule,
                      reschedule_every=cadence)

    def test_one_snapshot_per_decision(self, env_2x3, monkeypatch):
        jobs = generate(WorkloadSpec(arrival_rate=5.0, num_jobs=25, seed=6),
                        env_2x3)
        calls = self.count_snapshots(monkeypatch)
        decided = []

        def optimizer(snap):
            decided.append(snap.clock)
            return snap.schedule

        sim = Simulator(jobs, env_2x3, optimizer=optimizer,
                        reschedule_every=3, keep_trace=True)
        sim.run()
        assert len(decided) > 10
        assert calls == decided
        assert [ev.kind for ev in sim.trace].count("reschedule") == len(decided)

    def test_tampered_candidate_rejected_from_the_hook(self, env_2x3,
                                                      monkeypatch):
        jobs = generate(WorkloadSpec(arrival_rate=5.0, num_jobs=25, seed=6),
                        env_2x3)
        plain = Simulator(jobs, env_2x3, keep_trace=True)
        plain.run()
        calls = self.count_snapshots(monkeypatch)

        def tamper(snap):
            # An unknown job id joins the first queue: never valid.
            flat = list(snap.schedule.flat_waiting())
            flat[0] += (len(jobs) + 1,)
            return snap.schedule.with_waiting(flat)

        hooked = Simulator(jobs, env_2x3, optimizer=tamper, keep_trace=True)
        hooked.run()
        kinds = [ev.kind for ev in hooked.trace]
        assert kinds.count("reject") == len(calls) > 0
        assert "reschedule" not in kinds
        assert [ev for ev in hooked.trace if ev.kind != "reject"] == plain.trace

    def test_genetic_hook_never_worsens_expected_violation(self, env_2x3):
        jobs = generate(WorkloadSpec(arrival_rate=6.0, num_jobs=40, seed=9),
                        env_2x3)
        sim = Simulator(jobs, env_2x3)
        sim.run(until_external_arrivals=40)
        snap = sim.snapshot()
        before = total_penalty(snap, AllowanceMode.TOTAL)
        result = evolve(snap, GAConfig(generations=120, seed=1))
        assert sim.install_schedule(result.best_schedule, snap)
        after = total_penalty(sim.snapshot(), AllowanceMode.TOTAL)
        assert after.total_signed <= before.total_signed + 1e-9

    def test_invalid_schedule_rejected_and_logged(self):
        env = EnvironmentConfig(num_tiers=1, resources_per_tier=(2,))
        jobs = JobSet((job(1, (4.0,)), job(2, (3.0,), arrival=0.1),
                       job(3, (2.0,), arrival=0.2)))
        sim = Simulator(jobs, env, keep_trace=True)
        sim.run(until_external_arrivals=3)
        snap = sim.snapshot()
        busy_head = snap.schedule.in_service_id(0, 0)
        assert busy_head is not None
        # Demote the in-service head behind another job.
        tampered = Schedule(
            orders=((tuple(snap.schedule.waiting(0, 0)) + (busy_head,),
                     snap.schedule.orders[0][1]),),
            busy=((None, snap.schedule.busy[0][1]),))
        before = [sim.queue(0, k) for k in range(2)]
        assert not sim.install_schedule(tampered, snap)
        assert [sim.queue(0, k) for k in range(2)] == before
        assert any(ev.kind == "reject" for ev in sim.trace)

    def test_migration_to_idle_resource_starts_service(self):
        env = EnvironmentConfig(num_tiers=1, resources_per_tier=(2,))
        jobs = JobSet((job(1, (4.0,)), job(2, (1.0,), arrival=0.1),
                       job(3, (2.0,), arrival=0.2)))
        # Round robin queues job 3 behind job 1; job 2 then leaves resource
        # 2 idle at t=1.1 while job 3 still waits.
        sim = Simulator(jobs, env, make_policy("wrr", env), keep_trace=True)
        sim.run(until_external_arrivals=3)
        sim.step()
        snap = sim.snapshot()
        assert snap.clock == 1.1
        assert snap.schedule.orders == (((1, 3), ()),)
        assert snap.schedule.busy == ((2.9, None),)
        moved = snap.schedule.with_waiting(((), (3,)))
        assert sim.install_schedule(moved, snap)
        assert [sim.queue(0, k) for k in range(2)] == [(1,), (3,)]
        assert [ev.line() for ev in sim.trace[-2:]] == [
            "1.1 start 3 1 2", "1.1 reschedule - - -"]
        sim.assert_invariants()
        sim.run()
        (wait,) = sim.report().per_job[3].waits
        assert wait == 1.1 - 0.2

    @staticmethod
    def departures(sim):
        return sorted(ev.job_id for ev in sim.trace if ev.kind == "depart")

    def test_snapshot_from_before_events_is_refused(self, env_2x3):
        jobs = generate(WorkloadSpec(arrival_rate=4.0, num_jobs=60, seed=1),
                        env_2x3)
        sim = Simulator(jobs, env_2x3, keep_trace=True)
        sim.run(until_external_arrivals=30)
        snap = sim.snapshot()
        for _ in range(15):
            sim.step()
        assert not sim.install_schedule(snap.schedule, snap)
        assert sim.trace[-1].kind == "reject"
        sim.assert_invariants()
        sim.run()
        assert self.departures(sim) == list(range(1, 61))

    def test_snapshot_is_current_again_once_its_orders_return(self):
        # A, an install from A that moves a job, B, an install from B that
        # moves the queues back to A's orders: no event has happened since
        # A, and the live queues are A's again, so an install from A is
        # accepted.
        env = EnvironmentConfig(num_tiers=1, resources_per_tier=(2,))
        jobs = JobSet((job(1, (4.0,)), job(2, (4.0,), arrival=0.1),
                       job(3, (1.0,), arrival=0.2),
                       job(4, (1.0,), arrival=0.3)))
        sim = Simulator(jobs, env, keep_trace=True)
        sim.run(until_external_arrivals=4)
        a = sim.snapshot()
        assert a.schedule.flat_waiting() == ((3,), (4,))
        assert sim.install_schedule(a.schedule.with_waiting(((3, 4), ())), a)
        b = sim.snapshot()
        assert not sim.install_schedule(a.schedule, a)
        assert sim.install_schedule(
            b.schedule.with_waiting(a.schedule.flat_waiting()), b)
        assert [sim.queue(0, k) for k in range(2)] == [(1, 3), (2, 4)]
        assert sim.install_schedule(a.schedule.with_waiting(((4,), (3,))), a)
        assert not sim.install_schedule(b.schedule, b)
        assert [ev.kind for ev in sim.trace[-5:]] == [
            "reschedule", "reject", "reschedule", "reschedule", "reject"]
        assert [sim.queue(0, k) for k in range(2)] == [(1, 4), (2, 3)]
        sim.assert_invariants()
        sim.run()
        assert self.departures(sim) == [1, 2, 3, 4]

    def test_second_install_from_one_snapshot_is_refused(self):
        # The first install starts job 3 on the idle resource 2; the
        # snapshot still shows job 3 waiting behind job 1.
        env = EnvironmentConfig(num_tiers=1, resources_per_tier=(2,))
        jobs = JobSet((job(1, (4.0,)), job(2, (1.0,), arrival=0.1),
                       job(3, (2.0,), arrival=0.2)))
        sim = Simulator(jobs, env, make_policy("wrr", env), keep_trace=True)
        sim.run(until_external_arrivals=3)
        sim.step()
        snap = sim.snapshot()
        moved = snap.schedule.with_waiting(((), (3,)))
        assert sim.install_schedule(moved, snap)
        assert not sim.install_schedule(moved, snap)
        assert sim.trace[-1].kind == "reject"
        assert [sim.queue(0, k) for k in range(2)] == [(1,), (3,)]
        sim.assert_invariants()
        sim.run()
        assert self.departures(sim) == [1, 2, 3]


class TestInvariantsUnderOptimize:
    def test_broken_state_raises_under_python_O(self):
        # Job 1 is in service after the first step; erasing that record
        # must make its completion fail loudly even with asserts stripped.
        script = textwrap.dedent("""
            from tiersched import EnvironmentConfig, Job, JobSet
            from tiersched.sim import Simulator
            env = EnvironmentConfig(num_tiers=1, resources_per_tier=(1,))
            jobs = JobSet((Job(id=1, arrival=0.0, exec_times=(1.0,),
                               target_completion=2.0),))
            sim = Simulator(jobs, env)
            sim.step()
            sim._busy[0][0] = None
            print("debug", __debug__)
            try:
                sim.step()
            except AssertionError as err:
                print("raised", err)
            else:
                print("completed silently")
        """)
        src = Path(tiersched.__file__).resolve().parents[1]
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120, check=True)
        assert out.stdout.splitlines() == [
            "debug False", "raised completion out of order"]


class TestPolicyContract:
    def test_invalid_placement_halts(self, env_2x3):
        # A tier of three queues: 3 and 99 are out of range, and -1 would
        # otherwise index the last queue.
        for k in (3, 99, -1):
            class BrokenPolicy(AssignmentPolicy):
                def pick(self, sim, job_id, tier, k=k):
                    return k

            jobs = JobSet((job(1, (1.0, 1.0)),))
            sim = Simulator(jobs, env_2x3, BrokenPolicy(env_2x3))
            with pytest.raises(InvalidScheduleError,
                               match=rf"invalid queue {k} for job 1 at tier 0"):
                sim.run()
            assert all(sim.queue(0, q) == () for q in range(3))


class TestTrace:
    def test_versioned_trace_lines(self, env_1x1):
        jobs = JobSet((job(1, (1.0,)),))
        sim = Simulator(jobs, env_1x1, keep_trace=True)
        sim.run()
        lines = sim.trace_lines()
        assert lines[0] == "# tiersched-trace 1"
        kinds = [line.split()[1] for line in lines[1:]]
        assert kinds == ["arrive", "start", "finish", "depart"]
        # time kind job tier resource
        assert all(len(line.split()) == 5 for line in lines[1:])

    def test_records_carry_no_instance_dict(self, env_2x3):
        sim = Simulator(JobSet((job(1, (1.0, 1.0)),)), env_2x3,
                        keep_trace=True)
        sim.run()
        snap = sim.snapshot()
        sim.install_schedule(snap.schedule, snap)
        assert not any(hasattr(ev, "__dict__") for ev in sim.trace)
        assert [ev.line() for ev in sim.trace[-2:]] == [
            "2.0 depart 1 2 1", "2.0 reschedule - - -"]


def outcome_digest(report) -> str:
    """sha256 over each outcome's field values in job-id order (values, not
    the outcome object's repr, so the digest survives a change of type)."""
    h = hashlib.sha256()
    for jid in sorted(report.per_job):
        o = report.per_job[jid]
        h.update(repr((o.job_id, o.arrival, o.completion, o.total_exec,
                       o.waits, o.total_wait, o.response_time, o.alpha,
                       o.cost)).encode())
    return h.hexdigest()


def snapshot_digest(snaps) -> str:
    """sha256 over clock, orders, busy and every resident's id, tier and
    JobProgress fields."""
    h = hashlib.sha256()
    for snap in snaps:
        h.update(repr((snap.clock, snap.schedule.orders,
                       snap.schedule.busy)).encode())
        for jid, p in snap.progress.items():
            h.update(repr((jid, p.tier, p.completed_waits,
                           p.elapsed_wait)).encode())
    return h.hexdigest()


class TestPinnedDrain:
    """Drain results recorded as literals before the simulator's per-job
    state moved into flat id-indexed lists; any change in event order or
    float arithmetic shows up here."""

    PINNED = {
        "fcfs": ("10318.289779208775", "10719.901065388925",
                 "104.79962343630984", "11.75817490871545",
                 "ee44d92a113d4bd9b0e939fb99142675"
                 "f313961c0052a3cd4599d8f48953552f"),
        "wlc": ("12789.739532009062", "13204.199106940318",
                "128.30216942409427", "18.19472327163925",
                "100d0b14cb5f45ed62f34932566b6af3"
                "f52a18fa0faf4f3bc63c86f048e4a243"),
        "wrr": ("23521.48604429939", "23728.452407294637",
                "227.78074244224797", "22.04609289715343",
                "ea146db7991f0ee71ea90ca9a2baa3c5"
                "83be4cbc042f85c9bed58c4fa5a80f3a"),
    }

    @pytest.mark.parametrize("policy", ["fcfs", "wlc", "wrr"])
    def test_drain_totals_and_outcomes(self, env_2x3, policy):
        jobs = generate(WorkloadSpec(arrival_rate=2.5, num_jobs=5000, seed=5),
                        env_2x3)
        report = Simulator(jobs, env_2x3,
                           make_policy(policy, env_2x3)).run().report()
        got = (repr(report.total_signed), repr(report.total_violation),
               repr(report.total_cost), repr(report.max_violation),
               outcome_digest(report))
        assert got == self.PINNED[policy]

    def test_identity_optimizer_snapshots(self, env_2x3):
        jobs = generate(WorkloadSpec(arrival_rate=7.0, num_jobs=300, seed=5),
                        env_2x3)
        snaps = []

        def identity(snap):
            snaps.append(snap)
            return snap.schedule

        Simulator(jobs, env_2x3, optimizer=identity,
                  reschedule_every=25).run()
        # A decision every 25 of 1,200 events; the last one falls after the
        # final departure, with nothing to move, and is skipped.
        assert len(snaps) == 2 * 2 * 300 // 25 - 1
        # Re-recorded over the two remaining JobProgress fields on the code
        # that still held job_id, tier_arrivals and in_service, after
        # checking there that every record's job_id was its key, its
        # arrivals numbered its tier plus one, and in_service marked exactly
        # the pinned heads.
        assert snapshot_digest(snaps) == (
            "92f6d34f5104d23041ac8c4aa3a39352"
            "65ef2bf23ab21e596d083e64d4897e13")


class TestPinnedOnline:
    """Online GA runs shaped like the benchmark's overloaded stream
    (lambda 4, a virtualized 20-generation GA every 50 events), shortened
    to 1,000 jobs.  Every decision's fitness, history and installed orders,
    the trace and the drained totals were recorded before the GA's initial
    population, allowances and offspring scoring were reworked.  The count
    and the digest were re-recorded when decisions with nothing to move
    (here the 80th, after the final departure) began to be skipped; they
    equal the old run's with that decision and its trace line left out."""

    PINNED = {
        1: (79,
            "e7884f75926e3e5ff3756002c8da526a"
            "18b67dd033a8d80f0b9a637e3e1df509",
            "(44320.02845684461, 44321.0424246499, 314.10175957180223, "
            "255.71381518128558)",
            "0e16fd3703db10d3711c9debf979ae86"
            "88f01c7484b604911ce43430dbf97983"),
        2: (79,
            "324f436dba0c3ea4b6cc02a842bcedc7"
            "ca327fd1f699f58dc1b63fa2f654dd5a",
            "(41217.70342688399, 41220.62196881381, 296.8015568377865, "
            "243.02505789668714)",
            "50087a82a29041a22103139189f41c15"
            "ba0d6183bb5197c7aa931d132fc38655"),
    }

    @staticmethod
    def online_run(seed):
        env = EnvironmentConfig()
        jobs = generate(WorkloadSpec(arrival_rate=4.0, num_jobs=1000,
                                     seed=seed), env)
        config = GAConfig(generations=20, mode=AllowanceMode.TOTAL, seed=seed)
        h = hashlib.sha256()
        decisions = 0

        def optimizer(snap):
            nonlocal decisions
            decisions += 1
            result = evolve(snap, config)
            h.update(repr((result.best_fitness, result.initial_fitness,
                           result.evaluations, tuple(result.history),
                           result.best_schedule.orders)).encode())
            return result.best_schedule

        sim = Simulator(jobs, env, make_policy("fcfs", env),
                        optimizer=optimizer, reschedule_every=50,
                        keep_trace=True).run()
        h.update("\n".join(sim.trace_lines()).encode())
        report = sim.report()
        totals = repr((report.total_signed, report.total_violation,
                       report.total_cost, report.max_violation))
        return decisions, h.hexdigest(), totals, outcome_digest(report)

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_decisions_trace_and_totals(self, seed):
        assert self.online_run(seed) == self.PINNED[seed]


EDGE_EXECS = ((1.0, 0.5), (0.5, 1.0), (0.25, 0.25), (1.5, 0.5), (0.5, 0.5),
              (1.0, 1.5), (0.75, 0.25))

# Hand-built arrival streams with dyadic execution times, so completions,
# hand-offs and external arrivals land on exactly the same instants.
EDGE_ARRIVALS = {
    "tied": (0.0, 0.0, 0.0, 0.0, 0.5, 0.5, 1.0, 1.0, 1.0, 1.5, 2.0, 2.0,
             2.0, 2.0, 3.0, 3.0, 3.5, 3.5, 3.5, 4.0),
    # Ids may run backwards in time by less than TIME_EPS.
    "reversed": (0.0, 0.5, 1.0, 1.0 - 5e-10, 1.0 - 8e-10, 1.25, 2.0,
                 2.0 - 3e-10, 2.0, 2.0 - 7e-10, 2.5, 3.0, 3.0 - 9e-10,
                 3.0 - 9e-10, 3.5, 4.0, 4.0 - 1e-10, 4.5),
    # Job 1 finishes tier 1 at 1.0 and hands off as jobs 3 and 4 arrive.
    "coincident": (0.0, 0.0, 1.0, 1.0, 1.5, 1.75, 2.0, 2.0, 2.5, 3.0, 3.0,
                   3.25, 3.5, 4.0, 4.5, 4.5),
}


def edge_jobs(name: str) -> JobSet:
    return JobSet(tuple(
        job(jid, EDGE_EXECS[(jid - 1) % len(EDGE_EXECS)], arrival=arrival)
        for jid, arrival in enumerate(EDGE_ARRIVALS[name], start=1)))


def edge_run(name: str, run: str) -> Simulator:
    env = EnvironmentConfig(num_tiers=2, resources_per_tier=(2, 1))
    if run == "ga-every-7":
        config = GAConfig(population=10, generations=5, seed=3)
        sim = Simulator(edge_jobs(name), env,
                        optimizer=lambda snap: evolve(snap, config).best_schedule,
                        reschedule_every=7, keep_trace=True)
    else:
        sim = Simulator(edge_jobs(name), env, make_policy(run, env),
                        keep_trace=True)
    return sim.run()


class TestPinnedEventOrder:
    """Trace and outcome digests recorded while every external arrival was
    pre-loaded into the event heap; they pin the order of tied, slightly
    reversed and coincident events.  Two ``ga-every-7`` trace digests were
    re-recorded when decisions with nothing to move began to be skipped;
    they equal the old traces without those decisions' ``reschedule``
    lines."""

    PINNED = {
        ("coincident", "fcfs"): (
            "12d12f93b7a253a08974a554103ead10"
            "42abbeba1cbddbdad057961c0dfe5b28",
            "6ec44c33642b1ffca87618c5f20844d8"
            "7f01b558adba6228e57407fc556174a9"),
        ("coincident", "wrr"): (
            "85bf4b53c6a0f9bacbb5201da1bc9c73"
            "e4e1b99050fe5a445f4b43a8aa04492a",
            "b503a11a45073b89ed41ccb04a8bc5ca"
            "b064cc94c2b2d2c99a8920d90b379832"),
        ("coincident", "ga-every-7"): (
            "e68a1321fb223435dee7bf75c53af41b"
            "cdef156dee01c29d863f20e607363abd",
            "13de1f88c29cb9ebca4b42b734996ff6"
            "4291ec09202000249e54ee9e2756da42"),
        ("reversed", "fcfs"): (
            "4d2789467882ffc8037f290268c3d505"
            "f6e78cef0c47e22744573f104b7e7b6f",
            "878fb3d560bbfc2feec8ebc52de889bc"
            "cb61f381ead78abb4f63b9c208891f49"),
        ("reversed", "wrr"): (
            "742bb4ab6001d68a43cba5c54f2e8568"
            "06767cb9af931c2e6ca0b58d64732d35",
            "14019a58b45ccba1ec27eca12185933d"
            "28f0e43568cafab79d7387435c375040"),
        ("reversed", "ga-every-7"): (
            "4ede37fb87a6f02b246d939eaa1169c6"
            "e19ba23f64731211a2aa2d2ba13eee32",
            "263f0f4efc15580f98bf5106adf24831"
            "9ba943c082ed2beeac6c8e27168cc27c"),
        ("tied", "fcfs"): (
            "6c3ab92cf465b41ac518c6d114ad8160"
            "3f812aec1c8e5cb1976912de2f4d1294",
            "f150ad565ec79c42f0607644768d404e"
            "d8f8afbc374680947b6a876c05d09aa0"),
        ("tied", "wrr"): (
            "4f8af5826811d884aa60ab28b685f9f6"
            "43e007deeb084d1f3c64de8ccd593f56",
            "301fca1b89287009c32925b915905f4f"
            "f6a78a992a2765ab25926224afa146f4"),
        ("tied", "ga-every-7"): (
            "cdf5f5d0f717b9fa3ac6dadcc6e0d623"
            "1a3d9ceb7db535ecefe9212b4d7cb8db",
            "a1e5b521444595b73ff3128c8877aba0"
            "4c346c4c2bbd1bdfef4ebf112e06259d"),
    }

    @pytest.mark.parametrize("run", ["fcfs", "wrr", "ga-every-7"])
    @pytest.mark.parametrize("name", sorted(EDGE_ARRIVALS))
    def test_trace_and_outcomes(self, name, run):
        sim = edge_run(name, run)
        trace = hashlib.sha256(
            "\n".join(sim.trace_lines()).encode()).hexdigest()
        assert (trace, outcome_digest(sim.report())) == self.PINNED[name, run]

    def test_coincident_stream_meets_its_edge(self):
        # A completion, the hand-off it causes and an external arrival share
        # the instant 1.0, in that order.
        lines = [line.split() for line in edge_run("coincident", "fcfs")
                 .trace_lines()[1:] if line.startswith("1.0 ")]
        kinds = [(kind, job_id, tier) for _, kind, job_id, tier, _ in lines]
        assert kinds[:3] == [("finish", "1", "1"), ("arrive", "1", "2"),
                             ("arrive", "3", "1")]


class BacklogCheckingPolicy(AssignmentPolicy):
    """Wraps a policy; at every arrival, holds ``backlog`` of each queue of
    the tier to a from-scratch sum over the public schedule view."""

    def __init__(self, inner: AssignmentPolicy):
        self.inner = inner
        self.arrivals = 0

    def assign(self, sim, job_id, tier):
        schedule = sim.snapshot().schedule
        for k in range(sim.env.resources_per_tier[tier]):
            expected = schedule.residual(tier, k)
            for jid in schedule.waiting(tier, k):
                expected += sim.jobs.job(jid).exec_times[tier]
            assert sim.backlog(tier, k) == expected
        self.arrivals += 1
        return self.inner.assign(sim, job_id, tier)


DURATIONS = st.one_of(st.sampled_from([0.5, 1.0, 2.0]),
                      st.floats(0.01, 5.0))


@st.composite
def small_streams(draw):
    resources = tuple(draw(st.lists(st.integers(1, 3), min_size=1,
                                    max_size=3)))
    env = EnvironmentConfig(num_tiers=len(resources),
                            resources_per_tier=resources)
    arrival, jobs = 0.0, []
    for jid in range(1, draw(st.integers(0, 40)) + 1):
        # Gaps from a small grid give simultaneous arrivals and completions.
        arrival += draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                                  st.floats(0.0, 3.0)))
        execs = draw(st.lists(DURATIONS, min_size=len(resources),
                              max_size=len(resources)))
        jobs.append(Job(id=jid, arrival=arrival, exec_times=tuple(execs),
                        target_completion=arrival + 1.2 * sum(execs)))
    policy = draw(st.sampled_from(["fcfs", "wrr", "wlc", "random"]))
    cadence = draw(st.one_of(st.none(), st.integers(1, 7)))
    return env, JobSet(tuple(jobs)), policy, cadence


class TestStreamProperties:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(small_streams(), st.integers(0, 3))
    def test_invariants_backlog_and_residents(self, stream, seed):
        env, jobs, policy, cadence = stream
        checking = BacklogCheckingPolicy(make_policy(policy, env, seed=seed))
        optimizer = None if cadence is None else (lambda snap: snap.schedule)
        sim = Simulator(jobs, env, checking, optimizer=optimizer,
                        reschedule_every=cadence or 1)
        while sim.step():
            sim.assert_invariants()
            # The heap holds the next external arrival, and only it, while
            # external arrivals remain.
            external = [e[2] for e in sim._events
                        if e[1] == _ARRIVAL and e[3] == 0]
            assert len(external) == (sim.arrived[0] < len(jobs))
            queued = sorted(jid for t in range(env.num_tiers)
                            for k in range(env.resources_per_tier[t])
                            for jid in sim.queue(t, k))
            assert list(sim.snapshot().progress) == queued
        assert checking.arrivals == len(jobs) * env.num_tiers
        assert sim.departed == len(jobs) == sim.report().job_count

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(small_streams(), st.lists(st.tuples(
        st.sampled_from(["step", "snapshot", "install"]), st.integers(0, 2)),
        max_size=80), st.integers(0, 40), st.integers(0, 2**32 - 1))
    def test_only_a_snapshot_of_the_current_state_installs(
            self, stream, calls, warmup, seed):
        # A snapshot is current while no event has happened since it was
        # taken and the live queues hold its orders, as install_schedule
        # documents: an install from it is accepted, and every other install
        # refused.  An install that moves a job makes it stale until another
        # install moves the queues back.  The warm-up loads the queues, so
        # that installs move jobs.
        env, jobs, policy, _ = stream
        sim = Simulator(jobs, env, make_policy(policy, env), keep_trace=True)
        if min(warmup, len(jobs)):
            sim.run(until_external_arrivals=min(warmup, len(jobs)))
        rng = np.random.default_rng(seed)

        def live():
            return [sim.queue(t, k) for t, k in env.iter_queues()]

        snaps: list[list] = []  # [snapshot, no event since it was taken]
        for call, back in calls:
            if call == "snapshot":
                snaps.append([sim.snapshot(), True])
            elif call == "step":
                if sim.step():
                    for entry in snaps:
                        entry[1] = False
            elif snaps:
                snap, fresh = snaps[max(len(snaps) - 1 - back, 0)]
                current = fresh and live() == [
                    snap.schedule.orders[t][k] for t, k in env.iter_queues()]
                candidate = snap.schedule.with_waiting(
                    random_chromosome(snap, rng))
                assert sim.install_schedule(candidate, snap) == current
                assert sim.trace[-1].kind == (
                    "reschedule" if current else "reject")
            sim.assert_invariants()
        sim.run()
        assert sorted(ev.job_id for ev in sim.trace if ev.kind == "depart") == (
            list(range(1, len(jobs) + 1)))


def reverse_waiting(snap):
    """Optimizer that reverses every queue's waiting order."""
    return snap.schedule.with_waiting(
        [order[::-1] for order in snap.schedule.flat_waiting()])


# Finite floats, with signed zeros, ties and cancelling magnitudes frequent.
TOTALS_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e16, -1e16]),
    st.floats(allow_nan=False, allow_infinity=False))


def record_totals(records):
    """``violation_totals`` of records' alpha and cost columns, read as
    ``ScheduleEvaluator.breakdown`` passes them."""
    return violation_totals((r.alpha for r in records),
                            (r.cost for r in records))


def hexes(value):
    """``value`` with every float, however nested in tuples, as its
    ``float.hex``: equal results are equal bit for bit."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(map(hexes, value))
    return value


class TestAgainstReference:
    """The one-body step and the times it derives from service starts
    against the handler-per-kind reference in ``reference_sim.py``, which
    records arrivals, waits and completions."""

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(small_streams(), st.integers(0, 3))
    def test_same_states_trace_and_report(self, stream, seed):
        env, jobs, policy, cadence = stream
        optimizer = None if cadence is None else reverse_waiting
        sim, ref = (cls(jobs, env, make_policy(policy, env, seed=seed),
                        optimizer=optimizer, reschedule_every=cadence or 1,
                        keep_trace=True)
                    for cls in (Simulator, ReferenceSimulator))
        while True:
            stepped = sim.step()
            assert stepped == ref.step()
            assert repr(sim.clock) == repr(ref.clock)
            assert sim._queues == ref._queues
            assert repr(sim._busy) == repr(ref._busy)
            # Every derived time is the reference's recorded one.
            assert ([hexes(item) for item in sim.snapshot().progress.items()]
                    == [hexes(item)
                        for item in reference_progress(ref).items()])
            assert ([hexes(item) for item in sim.report().per_job.items()]
                    == [hexes(item) for item in ref.report().per_job.items()])
            if not stepped:
                break
        assert sim.trace_lines() == ref.trace_lines()
        got, want = sim.report(), ref.report()
        assert repr(got.per_job) == repr(want.per_job)
        assert got.per_job.keys() == ref.derived.keys()
        for jid, outcome in got.per_job.items():
            total_wait, response_time = ref.derived[jid]
            assert outcome.total_wait.hex() == total_wait.hex()
            assert outcome.response_time.hex() == response_time.hex()
        assert (repr((got.total_signed, got.total_violation, got.total_cost,
                      got.max_violation))
                == repr((want.total_signed, want.total_violation,
                         want.total_cost, want.max_violation)))

    @pytest.mark.parametrize("alphas", [
        (), (-0.0,), (0.0,), (-0.0, 0.0), (0.0, -0.0), (-1.5, -0.0),
        (-2.0, -3.25), (-0.0, -1.0, 0.0), (2.5, -0.0, -7.0, 0.0, 1e-300),
    ])
    def test_violation_totals_keep_signed_zeros(self, alphas):
        records = [JobViolation(a, max(a, 0.0) / 2, 0.0) for a in alphas]
        assert (repr(record_totals(records))
                == repr(reference_violation_totals(records)))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.builds(JobViolation, TOTALS_FLOATS, TOTALS_FLOATS,
                              TOTALS_FLOATS)))
    @example([])
    @example([JobViolation(a, 0.0, 0.0) for a in (1e16, 1.0, -1e16)])
    @example([JobViolation(a, a, 0.0) for a in (-0.0, 2.0, 0.0, 2.0)])
    @example([JobViolation(a, 0.0, 0.0) for a in (-1.0, -0.0, 0.0)])
    def test_violation_totals_match_the_reference(self, records):
        assert (repr(record_totals(records))
                == repr(reference_violation_totals(records)))

    def test_violation_totals_add_left_to_right(self):
        # A compensated sum (Python 3.12's sum()) gives 1.0 here.
        records = [JobViolation(a, 0.0, 0.0) for a in (1e16, 1.0, -1e16)]
        assert record_totals(records)["total_signed"] == 0.0
