import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiersched import (
    AllowanceMode,
    EnvironmentConfig,
    InvalidScheduleError,
    JobSet,
    Schedule,
    ScheduleEvaluator,
    GAConfig,
    QueueVariant,
    WorkloadSpec,
    differentiated_allowance,
    evolve,
    generate,
    total_penalty,
)
from tiersched.penalty import penalty
from tiersched.sim import Simulator

from conftest import fresh_snapshot, job, loaded_snapshot
from expected_waits import (
    expected_wait_multitier,
    expected_wait_tier,
    resident,
    violation_time,
)


class TestDifferentiatedAllowance:
    def test_proportional_share(self):
        j = job(1, (2.0, 3.0), allowance=10.0)
        assert differentiated_allowance(j, 0) == pytest.approx(4.0)
        assert differentiated_allowance(j, 1) == pytest.approx(6.0)

    def test_zero_allowance(self):
        j = job(1, (2.0, 3.0), allowance=0.0)
        assert differentiated_allowance(j, 0) == 0.0
        assert differentiated_allowance(j, 1) == 0.0

    def test_shares_sum_to_total_allowance(self):
        env = EnvironmentConfig(num_tiers=3, resources_per_tier=(1, 1, 1))
        jobs = generate(WorkloadSpec(arrival_rate=1.0, num_jobs=10_000, seed=9),
                        env)
        for j in jobs:
            shares = sum(differentiated_allowance(j, t) for t in range(3))
            assert abs(shares - j.allowance) <= 1e-9


class TestExpectedWaits:
    def test_fresh_job_at_idle_head(self, env_2x2):
        jobs = JobSet((job(1, (1.0, 1.0)),))
        snap = fresh_snapshot(env_2x2, jobs, (((1,), ()), ((), ())))
        job_1 = resident(snap, 1)
        assert expected_wait_multitier(*job_1, snap.schedule, jobs) == 0.0
        assert expected_wait_tier(*job_1, snap.schedule, 0, jobs) == 0.0

    def test_sum_of_components(self, env_2x2):
        # Job 3 in tier 2 with a finished-tier wait of 3, elapsed 1, and one
        # predecessor worth 2 time units: expected multi-tier wait is 6.
        jobs = JobSet((job(1, (1.0, 2.0)), job(2, (1.0, 1.5)),
                       job(3, (1.0, 1.0))))
        snap = fresh_snapshot(
            env_2x2, jobs, (((), ()), ((1, 3), (2,))),
            completed={1: (0.0,), 2: (0.0,), 3: (3.0,)},
            elapsed={3: 1.0})
        job_3 = resident(snap, 3)
        assert expected_wait_multitier(*job_3, snap.schedule, jobs) == pytest.approx(6.0)
        assert expected_wait_tier(*job_3, snap.schedule, 1, jobs) == pytest.approx(3.0)
        assert expected_wait_tier(*job_3, snap.schedule, 0, jobs) == pytest.approx(3.0)

    def test_tier_ahead_is_undefined(self, env_2x2):
        jobs = JobSet((job(1, (1.0, 1.0)),))
        snap = fresh_snapshot(env_2x2, jobs, (((1,), ()), ((), ())))
        with pytest.raises(LookupError):
            expected_wait_tier(*resident(snap, 1), snap.schedule, 1, jobs)


class TestViolationTime:
    def test_boundary_and_signs(self, env_1x1):
        jobs = JobSet((job(1, (1.0,), allowance=5.0),))
        snap = fresh_snapshot(env_1x1, jobs, (((1,),),), elapsed={1: 5.0})
        assert violation_time(*resident(snap, 1), snap.schedule, jobs,
                              AllowanceMode.TOTAL) == pytest.approx(0.0)
        snap = fresh_snapshot(env_1x1, jobs, (((1,),),), elapsed={1: 8.0})
        assert violation_time(*resident(snap, 1), snap.schedule, jobs,
                              AllowanceMode.TOTAL) == pytest.approx(3.0)

    def test_per_tier_slack_is_negative(self, env_2x2):
        jobs = JobSet((job(1, (1.0, 1.0), allowance=8.0),))
        snap = fresh_snapshot(env_2x2, jobs, (((1,), ()), ((), ())),
                              elapsed={1: 1.0})
        # Tier share is 4; expected tier wait is 1.
        assert violation_time(*resident(snap, 1), snap.schedule, jobs,
                              AllowanceMode.PER_TIER) == pytest.approx(-3.0)


class TestPenaltyCurve:
    def test_zero_at_boundary(self):
        assert penalty(0.0, 1.0, 0.01) == 0.0
        assert penalty(-7.0, 1.0, 0.01) == 0.0

    def test_closed_form_value(self):
        assert penalty(100.0, 1.0, 0.01) == pytest.approx(0.6321205588285577,
                                                          abs=1e-12)

    def test_monotone_and_bounded(self):
        values = [penalty(a, 2.5, 0.05) for a in np.linspace(-5, 200, 400)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert all(0.0 <= v < 2.5 for v in values)

    def test_costs_follow_the_environment_curve(self):
        env = EnvironmentConfig(chi=2.5, nu=0.05)
        jobs = generate(WorkloadSpec(arrival_rate=6.0, num_jobs=40, seed=4),
                        env)
        sim = Simulator(jobs, env)
        sim.run(until_external_arrivals=len(jobs))
        expected = total_penalty(sim.snapshot(), AllowanceMode.TOTAL)
        realized = sim.run().report()
        for records in (expected.per_job, realized.per_job):
            assert any(r.alpha > 0 for r in records.values())
            for r in records.values():
                assert r.cost == penalty(r.alpha, 2.5, 0.05)


class TestTotalPenalty:
    def test_single_uncontended_job_pays_nothing(self, env_1x1):
        jobs = JobSet((job(1, (2.0,)),))
        snap = fresh_snapshot(env_1x1, jobs, (((1,),),))
        breakdown = total_penalty(snap, AllowanceMode.TOTAL)
        assert breakdown.total_cost == 0.0
        assert breakdown.total_violation == 0.0
        assert breakdown.total_signed == pytest.approx(-jobs.job(1).allowance)

    def test_reversal_touches_only_second_position(self, env_1x1):
        jobs = JobSet((job(1, (2.0,)), job(2, (5.0,))))
        snap = fresh_snapshot(env_1x1, jobs, (((1, 2),),))
        forward = total_penalty(snap, AllowanceMode.TOTAL)
        reversed_ = total_penalty(
            snap, AllowanceMode.TOTAL,
            schedule=Schedule(orders=(((2, 1),),), busy=((None,),)))
        # First in line is never violated here; the trailing job absorbs the
        # leader's execution time.
        assert forward.per_job[1].alpha == pytest.approx(-0.4)
        assert forward.per_job[2].alpha == pytest.approx(2.0 - 1.0)
        assert reversed_.per_job[2].alpha == pytest.approx(-1.0)
        assert reversed_.per_job[1].alpha == pytest.approx(5.0 - 0.4)

    def test_totals_match_shuffled_per_job_sums(self, env_2x3):
        snap = loaded_snapshot(5.0, 40, seed=11)
        breakdown = total_penalty(snap, AllowanceMode.TOTAL)
        items = list(breakdown.per_job.values())
        random.Random(0).shuffle(items)
        assert sum(v.alpha for v in items) == pytest.approx(
            breakdown.total_signed, abs=1e-9)
        assert sum(max(v.alpha, 0.0) for v in items) == pytest.approx(
            breakdown.total_violation, abs=1e-9)
        assert sum(v.cost for v in items) == pytest.approx(
            breakdown.total_cost, abs=1e-9)

    def test_per_tier_alpha_matches_reference(self, env_2x3):
        snap = loaded_snapshot(5.0, 40, seed=12)
        breakdown = total_penalty(snap, AllowanceMode.PER_TIER)
        assert breakdown.per_job.keys() == snap.progress.keys()
        for jid, violation in breakdown.per_job.items():
            assert violation.alpha == pytest.approx(violation_time(
                *resident(snap, jid), snap.schedule, snap.jobs,
                AllowanceMode.PER_TIER), abs=1e-9)

    def test_invalid_candidate_rejected(self, env_1x1):
        jobs = JobSet((job(1, (2.0,)), job(2, (5.0,))))
        snap = fresh_snapshot(env_1x1, jobs, (((1, 2),),))
        with pytest.raises(InvalidScheduleError):
            total_penalty(snap, AllowanceMode.TOTAL,
                          schedule=Schedule(orders=(((1, 1),),),
                                            busy=((None,),)))


class TestFrozenConsistency:
    def test_expected_equals_realized_without_rescheduling(self, env_2x3):
        # Freeze after the last arrival; from then on queue orders never
        # change, so today's expected waits must be tomorrow's realized ones.
        jobs = generate(WorkloadSpec(arrival_rate=5.0, num_jobs=35, seed=21),
                        env_2x3)
        sim = Simulator(jobs, env_2x3)
        sim.run(until_external_arrivals=len(jobs))
        snap = sim.snapshot()
        predicted_total = {}
        predicted_tier = {}
        for jid, prog in snap.progress.items():
            predicted_total[jid] = expected_wait_multitier(
                *resident(snap, jid), snap.schedule, jobs)
            predicted_tier[jid] = (prog.tier, expected_wait_tier(
                *resident(snap, jid), snap.schedule, prog.tier, jobs))
        sim.run()
        report = sim.report()
        for jid, expected in predicted_total.items():
            tier = predicted_tier[jid][0]
            realized = sum(report.per_job[jid].waits[:tier + 1])
            assert realized == pytest.approx(expected, abs=1e-9)
        for jid, (tier, expected) in predicted_tier.items():
            assert report.per_job[jid].waits[tier] == pytest.approx(
                expected, abs=1e-9)


class TestScheduleEvaluator:
    def test_fitness_matches_breakdown_signed_total(self, env_2x3):
        snap = loaded_snapshot(6.0, 45, seed=5)
        for mode in AllowanceMode:
            evaluator = ScheduleEvaluator(snap, mode)
            fast = evaluator.fitness(snap.schedule.flat_waiting())
            assert fast == pytest.approx(
                total_penalty(snap, mode).total_signed, abs=1e-9)

    def test_queue_scores_compose(self, env_2x3):
        snap = loaded_snapshot(6.0, 45, seed=6)
        evaluator = ScheduleEvaluator(snap, AllowanceMode.TOTAL)
        orders = snap.schedule.flat_waiting()
        total = evaluator.pinned_total + sum(
            evaluator.queue_score(qi, order) for qi, order in enumerate(orders))
        assert total == pytest.approx(evaluator.fitness(orders), abs=1e-12)


    def test_per_tier_mode_builds_no_job(self, monkeypatch):
        """PER_TIER constants come from the job set's columns, with
        ``differentiated_allowance``'s arithmetic, not from ``Job`` objects."""
        snap = loaded_snapshot(7.0, 110, seed=1)
        read = []
        job = JobSet.job
        monkeypatch.setattr(JobSet, "job",
                            lambda jobs, jid: read.append(jid) or job(jobs, jid))
        evaluator = ScheduleEvaluator(snap, AllowanceMode.PER_TIER)
        assert len(snap.progress) > 50 and evaluator.pinned_total
        assert read == []


class TestOneScoringPath:
    """``breakdown`` is the package's only source of expected waits; each
    one must equal the per-job reference bit for bit, which holds only if
    both add the same terms in the same association."""

    @pytest.mark.parametrize("mode", list(AllowanceMode))
    def test_breakdown_waits_equal_reference(self, env_2x3, mode):
        checked = reordered = 0
        for rate, num_jobs in ((7.0, 110), (2.5, 200), (5.0, 60)):
            for seed in range(1, 11):
                snap = loaded_snapshot(rate, num_jobs, seed=seed)
                best = evolve(snap, GAConfig(
                    generations=20, variant=QueueVariant.VIRTUALIZED,
                    mode=mode, seed=seed)).best_schedule
                reordered += best.orders != snap.schedule.orders
                evaluator = ScheduleEvaluator(snap, mode)
                for schedule in (snap.schedule, best):
                    breakdown = evaluator.breakdown(schedule)
                    assert breakdown.per_job.keys() == snap.progress.keys()
                    for jid, violation in breakdown.per_job.items():
                        job_args = resident(snap, jid)
                        assert violation.wait == expected_wait_multitier(
                            *job_args, schedule, snap.jobs)
                        assert violation.alpha == pytest.approx(
                            violation_time(*job_args, schedule, snap.jobs,
                                           mode),
                            abs=1e-9)
                        checked += 1
        assert checked == 2332 and reordered > 0


def scalar_scores(evaluator, queue_index, orders):
    """``queue_score`` of every prefix of every row, as float bit strings."""
    return [[evaluator.queue_score(queue_index, row[:c]).hex()
             for c in range(len(row) + 1)] for row in orders.tolist()]


class TestPrefixScores:
    """Column c of ``prefix_scores`` is ``queue_score`` of each row's first
    c jobs, bit for bit, on a busy queue and an idle one."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_columns_equal_queue_scores(self, data):
        env = EnvironmentConfig(num_tiers=1, resources_per_tier=(2,))
        odd = st.integers(1, 99_999).map(lambda i: i / 9_973)
        count = data.draw(st.integers(2, 7))
        jobs = JobSet(tuple(
            job(i + 1, (data.draw(odd),),
                fraction=data.draw(st.integers(0, 97)) / 97)
            for i in range(count)))
        residual = jobs.job(1).exec_times[0] * data.draw(
            st.integers(0, 97)) / 97
        waiting = tuple(range(2, count + 1))
        snap = fresh_snapshot(
            env, jobs, (((1,) + waiting, ()),), busy=((residual, None),),
            elapsed={jid: data.draw(odd) for jid in waiting})
        evaluator = ScheduleEvaluator(
            snap, data.draw(st.sampled_from(list(AllowanceMode))))
        width = data.draw(st.integers(0, 6))
        rows = data.draw(st.integers(1, 4))
        orders = np.array(data.draw(st.lists(
            st.lists(st.sampled_from(waiting), min_size=width,
                     max_size=width), min_size=rows, max_size=rows)),
            dtype=np.intp).reshape(rows, width)
        for queue_index in (0, 1):  # busy, then idle
            table = evaluator.prefix_scores(queue_index, orders)
            assert table.shape == (rows, width + 1)
            assert table.dtype == np.float64
            assert [[v.hex() for v in row] for row in table.tolist()] == \
                scalar_scores(evaluator, queue_index, orders)

    def test_width_zero_and_single_row(self, env_2x3):
        snap = loaded_snapshot(6.0, 45, seed=6)
        evaluator = ScheduleEvaluator(snap, AllowanceMode.TOTAL)
        for queue_index, order in enumerate(snap.schedule.flat_waiting()):
            single = np.array([order], dtype=np.intp).reshape(1, len(order))
            table = evaluator.prefix_scores(queue_index, single)
            assert table[0, -1].hex() == \
                evaluator.queue_score(queue_index, order).hex()
            assert [v.hex() for v in table[0].tolist()] == \
                scalar_scores(evaluator, queue_index, single)[0]
            empty = evaluator.prefix_scores(queue_index,
                                            np.empty((3, 0), dtype=np.intp))
            assert empty.shape == (3, 1) and not empty.any()
