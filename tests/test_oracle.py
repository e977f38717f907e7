import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tiersched import (
    AllowanceMode,
    EnvironmentConfig,
    GAConfig,
    InstanceTooLargeError,
    JobSet,
    ScheduleEvaluator,
    WorkloadSpec,
    evolve,
    exhaustive_best,
    generate,
    make_policy,
    simulate_to_snapshot,
)
from tiersched.ga import random_chromosome
from tiersched.oracle import (
    CHUNK_ROWS,
    DEFAULT_MAX_STATES,
    _permutation_rows,
    count_states,
)

from conftest import fresh_snapshot, job, loaded_snapshot
from reference_oracle import reference_best


class TestTinyInstances:
    def test_single_job_only_schedule(self, env_1x1):
        jobs = JobSet((job(1, (2.0,)),))
        snap = fresh_snapshot(env_1x1, jobs, (((1,),),))
        result = exhaustive_best(snap, AllowanceMode.TOTAL)
        assert result.fitness == pytest.approx(-jobs.job(1).allowance)
        assert result.schedule.orders[0][0] == (1,)

    def test_two_jobs_shorter_first(self, env_1x1):
        jobs = JobSet((job(1, (5.0,)), job(2, (2.0,))))
        snap = fresh_snapshot(env_1x1, jobs, (((1, 2),),))
        result = exhaustive_best(snap, AllowanceMode.TOTAL)
        assert result.schedule.orders[0][0] == (2, 1)
        # Hand algebra: leader scores -allowance, the trailer absorbs the
        # leader's execution time.
        expected = (-jobs.job(2).allowance) + (2.0 - jobs.job(1).allowance)
        assert result.fitness == pytest.approx(expected)

    def test_deterministic_lexicographic_tie_break(self, env_1x1):
        jobs = JobSet((job(1, (2.0,)), job(2, (2.0,))))
        snap = fresh_snapshot(env_1x1, jobs, (((1, 2),),))
        result = exhaustive_best(snap, AllowanceMode.TOTAL)
        # Equal execution times tie; the id-ordered schedule wins.
        assert result.schedule.orders[0][0] == (1, 2)


class TestSearchSpace:
    def test_state_count_formula(self, env_2x2):
        snap = loaded_snapshot(5.0, 7, seed=1, env=env_2x2)
        per_tier = []
        for tier in range(2):
            k = len(snap.waiting_ids(tier))
            per_tier.append(math.factorial(k) * math.comb(k + 1, 1))
        assert count_states(snap) == sum(per_tier)
        result = exhaustive_best(snap)
        assert result.states == count_states(snap)

    def test_refuses_oversized_instances(self):
        env = EnvironmentConfig(num_tiers=1, resources_per_tier=(3,))
        jobs = JobSet(tuple(job(i + 1, (1.0,)) for i in range(12)))
        snap = fresh_snapshot(
            env, jobs, ((tuple(range(1, 13)), (), ()),))
        with pytest.raises(InstanceTooLargeError, match="evaluations"):
            exhaustive_best(snap)
        # The refusal comes from the state count alone, which is above
        # DEFAULT_MAX_STATES; nothing is enumerated first.
        assert count_states(snap) == math.factorial(12) * math.comb(14, 2)


class TestCertifiedMinimality:
    def test_no_sampled_schedule_beats_oracle(self, env_2x2):
        rng = np.random.default_rng(8)
        for seed in (2, 3, 4):
            snap = loaded_snapshot(5.0, 8, seed=seed, env=env_2x2)
            result = exhaustive_best(snap, AllowanceMode.TOTAL)
            for _ in range(300):
                chrom = random_chromosome(snap, rng)
                assert (ScheduleEvaluator(snap, AllowanceMode.TOTAL).fitness(
                    chrom) >= result.fitness - 1e-9)

    def test_genetic_search_never_beats_oracle(self, env_2x2):
        for seed in (5, 6, 7):
            snap = loaded_snapshot(5.0, 8, seed=seed, env=env_2x2)
            oracle = exhaustive_best(snap, AllowanceMode.TOTAL)
            ga = evolve(snap, GAConfig(generations=300, seed=seed))
            assert ga.best_fitness >= oracle.fitness - 1e-9

    @pytest.mark.parametrize("mode", list(AllowanceMode))
    def test_oracle_schedule_scores_its_fitness(self, env_2x2, mode):
        snap = loaded_snapshot(5.0, 8, seed=9, env=env_2x2)
        result = exhaustive_best(snap, mode)
        evaluator = ScheduleEvaluator(snap, mode)
        assert evaluator.fitness(result.schedule.flat_waiting()) == \
            pytest.approx(result.fitness, abs=1e-9)


ORACLE_RESOURCES = ((1,), (3,), (1, 1), (2, 2), (2, 3, 1))
#: Most waiting jobs drawn per tier, by its queue count; keeps the
#: state-by-state reference at 720 states per tier or fewer.
MAX_WAITING = {1: 6, 2: 5, 3: 4}
#: Most states of a simulated snapshot the reference is asked to enumerate.
MAX_REFERENCE_STATES = 6_000


@st.composite
def oracle_snapshots(draw):
    """A desk-scale snapshot: built by hand, often tie-prone (equal
    execution times, allowances and residuals, idle sibling queues, empty
    tiers), or taken from a short simulated stream."""
    resources = draw(st.sampled_from(ORACLE_RESOURCES))
    env = EnvironmentConfig(num_tiers=len(resources),
                            resources_per_tier=resources)
    if draw(st.booleans()):
        jobs = generate(WorkloadSpec(
            arrival_rate=draw(st.sampled_from([2.0, 6.0])),
            num_jobs=draw(st.integers(1, 8)), seed=draw(st.integers(0, 999))),
            env)
        snap = simulate_to_snapshot(jobs, env, make_policy("fcfs", env))
        assume(count_states(snap) <= MAX_REFERENCE_STATES)
        return snap

    tie_prone = draw(st.booleans())
    if tie_prone:
        execs = st.sampled_from([1.0, 2.0])
        fractions = st.sampled_from([0.0, 0.5])
        shares = st.sampled_from([0.5, 1.0])
        elapsed_waits = st.just(0.0)
    else:
        # Quotients by primes fill the mantissa, so sums round, and a sum
        # taken in another order than the reference's would show.
        execs = st.integers(1, 99_999).map(lambda i: i / 9_973)
        fractions = st.integers(0, 997).map(lambda i: i / 997)
        shares = fractions
        elapsed_waits = st.integers(0, 49_999).map(lambda i: i / 9_973)
    made = []
    orders, busy, elapsed = [], [], {}
    for tier, m in enumerate(resources):
        queues = [[] for _ in range(m)]
        residuals = [None] * m
        for k in range(m):
            if draw(st.booleans()):
                made.append(tuple(draw(execs) for _ in resources))
                queues[k].append(len(made))
                residuals[k] = made[-1][tier] * draw(shares)
        for _ in range(draw(st.integers(0, MAX_WAITING[m]))):
            made.append(tuple(draw(execs) for _ in resources))
            queues[draw(st.integers(0, m - 1))].append(len(made))
            elapsed[len(made)] = draw(elapsed_waits)
        orders.append(tuple(tuple(q) for q in queues))
        busy.append(tuple(residuals))
    jobs = JobSet(tuple(job(i + 1, e, fraction=draw(fractions))
                        for i, e in enumerate(made)))
    return fresh_snapshot(env, jobs, tuple(orders), busy=tuple(busy),
                          elapsed=elapsed)


class TestAgainstReference:
    """The array scoring forms, scores and breaks ties between the same
    states as the state-by-state reference, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(snap=oracle_snapshots())
    def test_results_agree(self, snap):
        for mode in AllowanceMode:
            got = exhaustive_best(snap, mode)
            want = reference_best(snap, mode)
            assert got.schedule == want.schedule
            assert got.fitness.hex() == want.fitness.hex()
            assert got.states == want.states == count_states(snap)

    def test_idle_siblings_tie_to_the_smaller_schedule(self):
        # Binary-exact times: every deal that starts jobs at 0, 0 and 1
        # scores the same bits, and so does each deal's swap between the
        # idle queues; the lexicographically smallest deal wins.
        env = EnvironmentConfig(num_tiers=1, resources_per_tier=(2,))
        jobs = JobSet((job(1, (1.0,), fraction=0.5),
                       job(2, (1.0,), fraction=0.5),
                       job(3, (2.0,), fraction=0.5)))
        snap = fresh_snapshot(env, jobs, (((1, 2, 3), ()),))
        got = exhaustive_best(snap)
        assert got.schedule.orders == (((1,), (2, 3)),)
        assert got == reference_best(snap)


class TestPermutationRows:
    """Rows derived from the cached table of the permutations of ``n - 1``
    are ``itertools.permutations``' rows, chunk by chunk."""

    @pytest.mark.parametrize("n", range(10))
    def test_rows_match_itertools(self, n):
        rows = math.factorial(n)
        want = np.fromiter(itertools.chain.from_iterable(
            itertools.permutations(range(n))), dtype=np.int8,
            count=rows * n).reshape(rows, n)
        chunks = [_permutation_rows(n, start, min(start + CHUNK_ROWS, rows))
                  for start in range(0, rows, CHUNK_ROWS)]
        assert all(c.dtype == np.int8 for c in chunks)
        assert np.array_equal(np.concatenate(chunks), want)


def traced_peak(snapshot):
    """The oracle's result and the peak of memory it allocated for it."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = exhaustive_best(snapshot)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingMemory:
    """States are scored a chunk of permutations at a time, so the oracle's
    memory stays bounded however many states an instance has."""

    def test_ceiling_instance(self):
        # The largest two-queue tier under DEFAULT_MAX_STATES.
        env = EnvironmentConfig(num_tiers=1, resources_per_tier=(2,))
        jobs = JobSet(tuple(job(i + 1, (1.0 + 0.37 * i,)) for i in range(9)))
        snap = fresh_snapshot(env, jobs, ((tuple(range(1, 10)), ()),))
        result, peak = traced_peak(snap)
        assert result.states == count_states(snap) == 3_628_800
        assert count_states(snap) <= DEFAULT_MAX_STATES
        assert peak < 16 * 2**20

    def test_largest_desk_pool_instance(self, env_2x2):
        # Seven waiting jobs on one 2-queue tier: the most states among the
        # benchmark's desk instances (2x2, lambda=4.0, 9 jobs).
        jobs = generate(WorkloadSpec(arrival_rate=4.0, num_jobs=9,
                                     seed=12284), env_2x2)
        snap = simulate_to_snapshot(jobs, env_2x2,
                                    make_policy("fcfs", env_2x2))
        result, peak = traced_peak(snap)
        assert result.states == count_states(snap) == 40_321
        assert peak < 2**20
