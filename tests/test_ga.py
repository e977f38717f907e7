import os
import statistics
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiersched import (
    AllowanceMode,
    EnvironmentConfig,
    GAConfig,
    JobSet,
    QueueVariant,
    ScheduleEvaluator,
    evolve,
    exhaustive_best,
    total_penalty,
)
from tiersched.ga import (
    crossover,
    mutate,
    mutation_layout,
    random_chromosome,
    roulette_wheel,
    select,
)
from tiersched import ga
from tiersched.ga import _crossover_child

from conftest import fresh_snapshot, genome_valid, job, loaded_snapshot
from reference_crossover import reference_crossover_child
from reference_dealer import reference_chromosome
from reference_ga import reference_run_ga


def tier_genes(genome, env):
    """Each tier's genes in genome order, read through the tier's queue span."""
    spans = np.cumsum((0,) + env.resources_per_tier)
    return {tier: [g for seg in genome[spans[tier]:spans[tier + 1]]
                   for g in seg]
            for tier in range(env.num_tiers)}


def queue_tiers(snap):
    return tuple(t for t, _ in snap.env.iter_queues())


class TestEncodeDecode:
    def test_round_trip_identity(self):
        snap = loaded_snapshot(5.0, 25, seed=3)
        chrom = snap.schedule.flat_waiting()
        assert snap.schedule.with_waiting(chrom) == snap.schedule
        assert genome_valid(chrom, snap)

    def test_empty_segments_preserved(self, env_2x3):
        jobs = JobSet((job(1, (1.0, 1.0)),))
        snap = fresh_snapshot(env_2x3, jobs,
                              (((1,), (), ()), ((), (), ())))
        chrom = snap.schedule.flat_waiting()
        assert chrom == ((1,), (), (), (), (), ())
        assert snap.schedule.with_waiting(chrom) == snap.schedule

    def test_fuzzed_decodes_stay_valid(self):
        rng = np.random.default_rng(7)
        for seed in range(100):
            snap = loaded_snapshot(5.0, 14, seed=seed)
            assert genome_valid(random_chromosome(snap, rng), snap)


@st.composite
def dealt_snapshots(draw):
    """Snapshots whose waiting jobs sit in a random subset of the tiers,
    some of them behind in-service heads; one-resource tiers and the
    3-tier (2, 3, 1) environment included."""
    resources = draw(st.one_of(
        st.just((2, 3, 1)),
        st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple)))
    env = EnvironmentConfig(num_tiers=len(resources),
                            resources_per_tier=resources)
    used = sorted(draw(st.sets(st.integers(0, len(resources) - 1))))
    count = draw(st.integers(0, 40)) if used else 0
    orders = [[[] for _ in range(m)] for m in resources]
    for jid in range(1, count + 1):
        tier = draw(st.sampled_from(used))
        orders[tier][draw(st.integers(0, resources[tier] - 1))].append(jid)
    busy = tuple(tuple(0.5 if queue and draw(st.booleans()) else None
                       for queue in row) for row in orders)
    jobs = JobSet(tuple(job(jid, (1.0,) * len(resources))
                        for jid in range(1, count + 1)))
    return fresh_snapshot(env, jobs,
                          tuple(tuple(map(tuple, row)) for row in orders),
                          busy)


class TestDealer:
    """``random_chromosome`` deals with array operations exactly what the
    gene-by-gene reference deals, from the same draws."""

    @settings(max_examples=200, deadline=None)
    @given(snap=dealt_snapshots(), seed=st.integers(0, 2**64 - 1),
           before=st.integers(0, 5))
    def test_matches_reference_genome_and_generator_state(self, snap, seed,
                                                          before):
        dealt, reference = (np.random.default_rng(seed) for _ in range(2))
        for rng in (dealt, reference):
            # An odd count of small draws leaves a buffered 32-bit half.
            rng.integers(7, size=before)
        for _ in range(3):
            genome = random_chromosome(snap, dealt)
            assert genome == reference_chromosome(snap, reference)
            assert all(type(gene) is int for seg in genome for gene in seg)
            assert genome_valid(genome, snap)
            assert dealt.bit_generator.state == reference.bit_generator.state


def _swap_across_tiers(segs):
    segs[0][0], segs[3][0] = segs[3][0], segs[0][0]


def _duplicate_gene(segs):
    segs[0][1] = segs[0][0]


def _drop_gene(segs):
    segs[4].pop()


def _add_segment(segs):
    segs.append([])


class TestChromosomeValid:
    @staticmethod
    def snapshot(env_2x3):
        jobs = JobSet(tuple(job(i, (1.0, 1.0)) for i in range(1, 7)))
        return fresh_snapshot(env_2x3, jobs,
                              (((1, 2), (3,), ()), ((4,), (5, 6), ())))

    def test_snapshot_order_is_valid(self, env_2x3):
        snap = self.snapshot(env_2x3)
        assert genome_valid(snap.schedule.flat_waiting(), snap)

    @pytest.mark.parametrize("breaks", [
        _swap_across_tiers, _duplicate_gene, _drop_gene, _add_segment],
        ids=["gene-swapped-across-tiers", "duplicated-gene", "missing-gene",
             "wrong-segment-count"])
    def test_broken_genome_rejected(self, env_2x3, breaks):
        snap = self.snapshot(env_2x3)
        segs = [list(s) for s in snap.schedule.flat_waiting()]
        breaks(segs)
        assert not genome_valid(tuple(tuple(s) for s in segs), snap)


class TestFitness:
    def test_single_waiting_job_scores_minus_allowance(self, env_1x1):
        jobs = JobSet((job(1, (2.0,)),))
        snap = fresh_snapshot(env_1x1, jobs, (((1,),),))
        evaluator = ScheduleEvaluator(snap, AllowanceMode.TOTAL)
        assert evaluator.fitness(snap.schedule.flat_waiting()) == pytest.approx(
            -jobs.job(1).allowance)

    def test_two_job_ordering_difference_is_exec_gap(self, env_1x1):
        jobs = JobSet((job(1, (2.0,)), job(2, (5.0,))))
        snap = fresh_snapshot(env_1x1, jobs, (((1, 2),),))
        evaluator = ScheduleEvaluator(snap, AllowanceMode.TOTAL)
        diff = evaluator.fitness(((1, 2),)) - evaluator.fitness(((2, 1),))
        assert diff == pytest.approx(2.0 - 5.0)

    @pytest.mark.parametrize("mode", list(AllowanceMode))
    def test_matches_penalty_engine_signed_total(self, mode):
        rng = np.random.default_rng(11)
        snap = loaded_snapshot(6.0, 40, seed=11)
        for _ in range(10):
            chrom = random_chromosome(snap, rng)
            got = ScheduleEvaluator(snap, mode).fitness(chrom)
            breakdown = total_penalty(
                snap, mode, schedule=snap.schedule.with_waiting(chrom))
            assert got == pytest.approx(breakdown.total_signed, abs=1e-9)

    def test_evaluation_is_pure(self):
        snap = loaded_snapshot(6.0, 30, seed=12)
        chrom = random_chromosome(snap, np.random.default_rng(1))
        first = ScheduleEvaluator(snap, AllowanceMode.TOTAL).fitness(chrom)
        for _ in range(5):
            assert ScheduleEvaluator(snap, AllowanceMode.TOTAL).fitness(
                chrom) == first


class TestCrossover:
    def test_identical_parents_identical_children(self):
        snap = loaded_snapshot(5.0, 20, seed=5)
        chrom = snap.schedule.flat_waiting()
        rng = np.random.default_rng(0)
        a, b = crossover(chrom, chrom, rng)
        assert a == chrom and b == chrom

    def test_cut_at_zero_copies_donor_order(self):
        snap = loaded_snapshot(5.0, 20, seed=6)
        rng = np.random.default_rng(1)
        template = snap.schedule.flat_waiting()
        donor = random_chromosome(snap, rng)
        child = _crossover_child(template, donor, cut=0)
        assert tier_genes(child, snap.env) == tier_genes(donor, snap.env)
        sizes = [len(s) for s in child]
        assert sizes == [len(s) for s in template]

    def test_fuzz_preserves_tier_multisets(self):
        rng = np.random.default_rng(2)
        snap = loaded_snapshot(6.0, 24, seed=9)
        base = snap.schedule.flat_waiting()
        pool = [base] + [random_chromosome(snap, rng) for _ in range(6)]
        for i in range(10_000):
            pa, pb = pool[i % len(pool)], pool[(i * 7 + 1) % len(pool)]
            ca, cb = crossover(pa, pb, rng)
            for child in (ca, cb):
                assert genome_valid(child, snap)
            pool[i % len(pool)] = ca


class TestCrossoverAgainstReference:
    """A crossover child holds what the whole-child reference builds; every
    segment that lies wholly before the cut, and every other segment with
    the template's content, is the template's own object."""

    @settings(max_examples=200, deadline=None)
    @given(snap=dealt_snapshots(), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_children_match_and_keep_the_leading_segments(self, snap, seed,
                                                          data):
        rng = np.random.default_rng(seed)
        template = data.draw(st.sampled_from([
            snap.schedule.flat_waiting(), random_chromosome(snap, rng)]))
        donor = random_chromosome(snap, rng)
        total = sum(map(len, template))
        cut = data.draw(st.integers(0, max(total - 1, 0)))
        child = _crossover_child(template, donor, cut)
        assert child == reference_crossover_child(template, donor, cut)
        end = 0
        for seg, own in zip(child, template):
            end += len(own)
            if end <= cut or seg == own:
                assert seg is own


class TestMutate:
    def test_single_gene_single_queue_tier_unchanged(self, env_1x1):
        jobs = JobSet((job(1, (2.0,)),))
        snap = fresh_snapshot(env_1x1, jobs, (((1,),),))
        chrom = snap.schedule.flat_waiting()
        rng = np.random.default_rng(3)
        layout = mutation_layout(chrom, queue_tiers(snap))
        for _ in range(20):
            assert mutate(chrom, layout, rng) == chrom

    def test_fuzz_preserves_validity(self):
        rng = np.random.default_rng(4)
        snap = loaded_snapshot(6.0, 24, seed=10)
        chrom = snap.schedule.flat_waiting()
        # One layout serves every mutant of the genome it was taken from.
        layout = mutation_layout(chrom, queue_tiers(snap))
        for _ in range(10_000):
            chrom = mutate(chrom, layout, rng)
            assert genome_valid(chrom, snap)

    def test_cross_segment_moves_roughly_match_uniform_slots(self):
        # Three same-tier queues: around 1 - 1/3 of insertions land in a
        # different segment when slots are uniform.
        env = EnvironmentConfig(num_tiers=1, resources_per_tier=(3,))
        jobs = JobSet(tuple(job(i + 1, (1.0,)) for i in range(12)))
        snap = fresh_snapshot(env, jobs,
                              ((tuple(range(1, 5)), tuple(range(5, 9)),
                                tuple(range(9, 13))),))
        chrom = snap.schedule.flat_waiting()
        rng = np.random.default_rng(5)
        layout = mutation_layout(chrom, queue_tiers(snap))
        moved = 0
        trials = 10_000
        for _ in range(trials):
            segment_of = {g: si for si, seg in enumerate(chrom)
                          for g in seg}
            mutant = mutate(chrom, layout, rng)
            new_segment_of = {g: si for si, seg in enumerate(mutant)
                              for g in seg}
            if any(segment_of[g] != new_segment_of[g] for g in segment_of):
                moved += 1
        assert moved / trials == pytest.approx(1 - 1 / 3, abs=0.08)


class TestSelection:
    def test_normalized_weights_sum_to_one(self):
        wheel = roulette_wheel([3.0, 7.0, 11.0, 2.0])
        assert wheel[-1] == 1.0
        shares = [b - a for a, b in zip([0.0] + wheel, wheel)]
        assert sum(shares) == pytest.approx(1.0, abs=1e-9)
        assert all(share > 0 for share in shares)
        assert max(range(4), key=shares.__getitem__) == 3  # lowest raw score

    def test_equal_fitness_is_uniform(self):
        rng = np.random.default_rng(6)
        population = ["a", "b", "c", "d"]
        picks = select(population, roulette_wheel([5.0] * 4), rng,
                       count=100_000)
        for member in population:
            assert picks.count(member) / 100_000 == pytest.approx(0.25,
                                                                  abs=0.01)

    def test_lower_violation_dominates_selection(self):
        rng = np.random.default_rng(7)
        picks = select(["good", "bad"], roulette_wheel([10.0, 30.0]), rng,
                       count=100_000)
        assert picks.count("good") / 100_000 >= 0.999


class TestGAConfig:
    @pytest.mark.parametrize("population", [2, 3, 4, 5])
    def test_population_without_operators_rejected(self, population):
        with pytest.raises(ValueError, match="no crossover and no mutation"):
            GAConfig(population=population)

    def test_smallest_default_population_with_operators(self):
        assert GAConfig(population=6).operator_count == 1

    def test_elite_and_offspring_fit_every_population(self):
        # 1 elite + 2 crossover children and 1 mutant per operator count.
        for population in range(6, 2001):
            config = GAConfig(population=population)
            assert 1 + 3 * config.operator_count <= population

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="GA seed must be nonnegative"):
            GAConfig(seed=-1)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(population=1), "population must hold at least two"),
        (dict(generations=0), "need at least one generation"),
        (dict(variant="hybrid"), "unknown variant 'hybrid'"),
    ])
    def test_bad_size_or_variant_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            GAConfig(**kwargs)

    @pytest.mark.parametrize("name, value", [
        ("population", 10.0), ("generations", 2.5), ("seed", 1.5),
        ("seed", "1")])
    def test_non_integer_count_rejected(self, name, value):
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            GAConfig(**{name: value})

    def test_integer_like_counts_become_ints(self):
        config = GAConfig(population=np.int64(12), generations=np.int32(3),
                          seed=np.uint8(4))
        assert config == GAConfig(population=12, generations=3, seed=4)
        assert all(type(v) is int for v in (
            config.population, config.generations, config.seed))

    def test_elite_is_not_a_setting(self):
        with pytest.raises(TypeError):
            GAConfig(elite=1)


class TestEvolve:
    def test_budget_history_and_monotonicity(self):
        snap = loaded_snapshot(5.0, 20, seed=14)
        config = GAConfig(population=10, generations=200, seed=2)
        result = evolve(snap, config)
        assert result.evaluations == 10 * 200
        assert len(result.history) == 200
        bests = [h.best for h in result.history]
        assert all(b <= a + 1e-12 for a, b in zip(bests, bests[1:]))
        assert result.best_fitness <= result.initial_fitness + 1e-9

    def test_deterministic_for_fixed_seed(self):
        snap = loaded_snapshot(5.0, 20, seed=15)
        config = GAConfig(generations=150, seed=5)
        a = evolve(snap, config)
        b = evolve(snap, config)
        assert a.best_schedule == b.best_schedule
        assert a.history == b.history

    def test_single_job_snapshot_cannot_improve(self, env_1x1):
        jobs = JobSet((job(1, (2.0,)),))
        snap = fresh_snapshot(env_1x1, jobs, (((1,),),))
        result = evolve(snap, GAConfig(generations=50, seed=0))
        assert result.best_fitness == pytest.approx(result.initial_fitness)

    def test_desk_scale_instance_matches_oracle(self, env_2x2):
        hits = 0
        for seed in range(10):
            snap = loaded_snapshot(4.0, 7, seed=seed, env=env_2x2)
            oracle = exhaustive_best(snap, AllowanceMode.TOTAL)
            result = evolve(snap, GAConfig(seed=seed))
            assert result.best_fitness >= oracle.fitness - 1e-9
            tolerance = 0.05 * max(abs(oracle.fitness), 1e-9)
            if result.best_fitness <= oracle.fitness + tolerance:
                hits += 1
        assert hits >= 9

    def test_loaded_instance_improves_violation_time(self):
        # A realistically loaded snapshot must shed at least a fifth of its
        # violation time in most runs.
        snap = loaded_snapshot(6.0, 80, seed=23)
        waiting = len(snap.waiting_ids())
        assert 30 <= waiting <= 70
        initial = total_penalty(snap, AllowanceMode.TOTAL).total_violation
        wins = 0
        for seed in range(10):
            result = evolve(snap, GAConfig(seed=seed))
            enhanced = total_penalty(
                snap, AllowanceMode.TOTAL,
                schedule=result.best_schedule).total_violation
            if enhanced <= 0.8 * initial:
                wins += 1
        assert wins >= 8


class TestEvolveSegmented:
    @staticmethod
    def segmented(snap, **settings):
        return evolve(snap, GAConfig(variant=QueueVariant.SEGMENTED,
                                     **settings))

    def test_single_queue_matches_virtualized_space(self, env_1x1):
        jobs = JobSet(tuple(job(i + 1, (float(e),))
                            for i, e in enumerate((3.0, 1.0, 2.0, 0.5))))
        snap = fresh_snapshot(env_1x1, jobs, ((tuple(range(1, 5)),),))
        oracle = exhaustive_best(snap, AllowanceMode.TOTAL)
        virt = evolve(snap, GAConfig(generations=300, seed=1))
        seg = self.segmented(snap, generations=300, seed=1)
        assert virt.best_fitness == pytest.approx(oracle.fitness, abs=1e-9)
        assert seg.best_fitness == pytest.approx(oracle.fitness, abs=1e-9)

    def test_reorder_only_never_migrates(self):
        snap = loaded_snapshot(6.0, 30, seed=16)
        result = self.segmented(snap, generations=100, seed=3)
        for tier, k in snap.env.iter_queues():
            assert (sorted(result.best_schedule.waiting(tier, k))
                    == sorted(snap.schedule.waiting(tier, k)))

    def test_budget_counts_evolved_queues_only(self):
        snap = loaded_snapshot(6.0, 30, seed=16)
        result = self.segmented(snap, population=10, generations=100, seed=3)
        evolved = sum(1 for order in snap.schedule.flat_waiting()
                      if len(order) >= 2)
        assert result.evaluations == evolved * 10 * 100

    def test_combined_history_matches_final_fitness(self):
        snap = loaded_snapshot(6.0, 30, seed=18)
        result = self.segmented(snap, generations=120, seed=4)
        assert result.history[-1].best == pytest.approx(result.best_fitness,
                                                        abs=1e-9)
        evaluator = ScheduleEvaluator(snap, AllowanceMode.TOTAL)
        assert result.best_fitness == pytest.approx(
            evaluator.fitness(result.best_schedule.flat_waiting()), abs=1e-9)

    def test_per_queue_improvement_nonnegative(self):
        snap = loaded_snapshot(6.0, 30, seed=19)
        evaluator = ScheduleEvaluator(snap, AllowanceMode.TOTAL)
        result = self.segmented(snap, generations=100, seed=5)
        for qi, (before, after) in enumerate(zip(
                snap.schedule.flat_waiting(),
                result.best_schedule.flat_waiting())):
            assert (evaluator.queue_score(qi, after)
                    <= evaluator.queue_score(qi, before) + 1e-9)


class TestScoringWork:
    """Queue scorings inside the GA loop, counted exactly.  Every member
    carries its per-queue scores: the elite, the roulette copies and a
    crossover child of equal parents (the parent itself) are not rescored,
    and a mutant or a child of unequal parents rescores only the segments
    that are not its parent's (for a child, its template's) own objects.  A
    virtualized ``evolve`` takes the incumbent's ``initial_fitness`` from its
    member's score, so it makes no ``fitness`` call.  ``evaluations`` keeps
    the logical budget."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """Per ``_run_ga`` call: ``queue_score`` calls, crossover children of
        unequal and of equal parents, the segments each child of unequal
        parents does not share with its template and each mutant does not
        share with its parent, and ``select`` calls per generation; plus
        ``ScheduleEvaluator.fitness`` calls."""
        runs: list[dict] = []
        fitness_calls = [0]
        plain_run, plain_score = ga._run_ga, ScheduleEvaluator.queue_score
        plain_fitness = ScheduleEvaluator.fitness
        plain_crossover, plain_mutate = ga.crossover, ga.mutate
        plain_wheel, plain_select = ga.roulette_wheel, ga.select

        def fresh(offspring, origin):
            return sum(seg is not old for seg, old in zip(offspring, origin))

        def run(*args, **kwargs):
            runs.append(dict(scorings=0, unequal=0, equal=0, children=[],
                             mutants=[], selects=[]))
            try:
                return plain_run(*args, **kwargs)
            finally:
                runs[-1]["done"] = True

        def queue_score(self, queue_index, order):
            if runs and "done" not in runs[-1]:
                runs[-1]["scorings"] += 1
            return plain_score(self, queue_index, order)

        def crossover(parent_a, parent_b, rng):
            children = plain_crossover(parent_a, parent_b, rng)
            if parent_a == parent_b:
                runs[-1]["equal"] += 2
            else:
                runs[-1]["unequal"] += 2
                runs[-1]["children"] += [
                    fresh(child, template) for child, template
                    in zip(children, (parent_a, parent_b))]
            return children

        def mutate(genome, layout, rng):
            mutant = plain_mutate(genome, layout, rng)
            runs[-1]["mutants"].append(fresh(mutant, genome))
            return mutant

        def fitness(self, flat_orders):
            fitness_calls[0] += 1
            return plain_fitness(self, flat_orders)

        # Every generation but the last builds one wheel before it selects.
        def roulette_wheel(raws):
            runs[-1]["selects"].append(0)
            return plain_wheel(raws)

        def select(population, wheel, rng, count=1):
            runs[-1]["selects"][-1] += 1
            return plain_select(population, wheel, rng, count)

        monkeypatch.setattr(ga, "_run_ga", run)
        monkeypatch.setattr(ScheduleEvaluator, "queue_score", queue_score)
        monkeypatch.setattr(ScheduleEvaluator, "fitness", fitness)
        monkeypatch.setattr(ga, "crossover", crossover)
        monkeypatch.setattr(ga, "mutate", mutate)
        monkeypatch.setattr(ga, "roulette_wheel", roulette_wheel)
        monkeypatch.setattr(ga, "select", select)
        return runs, fitness_calls

    CONFIGS = [dict(), dict(population=30)]

    @staticmethod
    def check_operators(runs, config):
        # Both kinds of crossover occur, so the count tells them apart.
        assert sum(run["unequal"] for run in runs) > 0
        assert sum(run["equal"] for run in runs) > 0
        for run in runs:
            assert run["unequal"] + run["equal"] == (
                2 * (config.generations - 1) * config.operator_count)
            assert len(run["children"]) == run["unequal"]
            assert len(run["mutants"]) == (
                (config.generations - 1) * config.operator_count)
            # Two parents per pair, one per mutant, then one call for the
            # roulette copies.
            assert run["selects"] == (
                [2 * config.operator_count + 1] * (config.generations - 1))

    @pytest.mark.parametrize("extra", CONFIGS)
    def test_virtualized_scores_only_offspring(self, counted, extra):
        runs, fitness_calls = counted
        snap = loaded_snapshot(6.0, 30, seed=16)
        queues = sum(snap.env.resources_per_tier)
        config = GAConfig(generations=60, seed=3, **extra)
        result = evolve(snap, config)
        self.check_operators(runs, config)
        (run,) = runs
        # A mutant reorders one queue or migrates a job between two.
        assert set(run["mutants"]) == {1, 2}
        # A child keeps the segments wholly before its cut and those the
        # repair leaves unchanged, so most children rescore only some.
        assert all(0 <= n <= queues for n in run["children"])
        assert sum(run["children"]) < run["unequal"] * queues
        assert run["scorings"] == (config.population * queues
                                   + sum(run["mutants"])
                                   + sum(run["children"]))
        assert fitness_calls[0] == 0
        assert result.evaluations == config.population * config.generations

    @pytest.mark.parametrize("extra", CONFIGS)
    def test_segmented_scores_only_offspring_per_queue(self, counted,
                                                         extra):
        runs, fitness_calls = counted
        snap = loaded_snapshot(6.0, 30, seed=16)
        config = GAConfig(generations=60, seed=3,
                          variant=QueueVariant.SEGMENTED, **extra)
        result = evolve(snap, config)
        evolved = sum(len(q) >= 2 for q in snap.schedule.flat_waiting())
        assert evolved >= 2
        assert len(runs) == evolved
        self.check_operators(runs, config)
        for run in runs:
            # The one queue of a mutant is always new; a child's is new
            # unless the repair rebuilt its template's order.
            assert set(run["mutants"]) == {1}
            assert all(n in (0, 1) for n in run["children"])
            assert run["scorings"] == (
                config.population
                + (config.generations - 1) * config.operator_count
                + sum(run["children"]))
        # The incumbent's ``initial_fitness`` and the winner's score.
        assert fitness_calls[0] == 2
        assert result.evaluations == (
            config.population * config.generations * evolved)


class TestLoopAgainstReference:
    """``evolve`` through the package's generation loop gives, bit for bit,
    what it gives through the plainer reference loop in ``reference_ga``."""

    @staticmethod
    def check(snap, config):
        got = evolve(snap, config)
        with mock.patch.object(ga, "_run_ga", reference_run_ga):
            want = evolve(snap, config)
        assert got.best_schedule == want.best_schedule
        assert got.best_fitness.hex() == want.best_fitness.hex()
        assert got.initial_fitness.hex() == want.initial_fitness.hex()
        assert [(h.generation, h.best.hex(), h.mean.hex())
                for h in got.history] == [
            (h.generation, h.best.hex(), h.mean.hex()) for h in want.history]
        assert all(type(h) is ga.GenerationStats for h in got.history)
        assert got.evaluations == want.evaluations

    @settings(max_examples=80, deadline=None)
    @given(resources=st.sampled_from([(1,), (2, 3, 1), (3, 3)]),
           rate=st.sampled_from([2.5, 7.0, 12.0]), jobs=st.integers(1, 40),
           stream=st.integers(0, 999),
           population=st.sampled_from([10, 20, 30]),
           generations=st.integers(1, 40),
           variant=st.sampled_from([QueueVariant.VIRTUALIZED,
                                    QueueVariant.SEGMENTED]),
           mode=st.sampled_from(list(AllowanceMode)),
           seed=st.integers(0, 2**32))
    def test_simulated_snapshots(self, resources, rate, jobs, stream,
                                 population, generations, variant, mode,
                                 seed):
        env = EnvironmentConfig(num_tiers=len(resources),
                                resources_per_tier=resources)
        snap = loaded_snapshot(rate, jobs, stream, env)
        self.check(snap, GAConfig(population=population,
                                  generations=generations, variant=variant,
                                  mode=mode, seed=seed))

    @pytest.mark.parametrize("variant", [QueueVariant.VIRTUALIZED,
                                         QueueVariant.SEGMENTED])
    @pytest.mark.parametrize("population", [10, 20, 30])
    @pytest.mark.parametrize("orders", [
        # The middle tier holds no job; the last holds one.
        (((1, 2, 3), (4, 5)), ((), (), ()), ((6,),)),
        # Only the middle tier has jobs waiting.
        (((), ()), ((1, 2), (3,), (4, 5, 6)), ((),)),
        # Nothing waits anywhere.
        (((), ()), ((), (), ()), ((),)),
    ])
    def test_empty_tiers(self, orders, population, variant):
        env = EnvironmentConfig(num_tiers=3, resources_per_tier=(2, 3, 1))
        count = sum(len(q) for row in orders for q in row)
        jobs = JobSet(tuple(job(i + 1, (1.0 + 0.3 * i, 2.0, 0.5 + 0.1 * i))
                            for i in range(max(count, 1))))
        snap = fresh_snapshot(env, jobs, orders)
        self.check(snap, GAConfig(population=population, generations=50,
                                  variant=variant, seed=population))


class TestDraws:
    """``_Draws`` gives a PCG64 Generator's ``random()`` and ``integers(n)``
    draw for draw, from the state a population's construction leaves,
    buffered 32-bit half included."""

    # n = 2**31 + 1 rejects about half of its candidates.
    BOUNDS = st.one_of(
        st.sampled_from([1, 2, 3, 7, 61, 2**31 - 1, 2**31 + 1, 2**32 - 1]),
        st.integers(1, 2**32 - 1))

    @staticmethod
    def pair(seed, perm, k, size):
        """Two generators in the same state: the one ``_Draws`` wraps and a
        twin to check it against."""
        twins = []
        for _ in range(2):
            rng = np.random.default_rng(seed)
            rng.permutation(perm)
            rng.integers(k, size=size)
            twins.append(rng)
        return ga._Draws(twins[0]), twins[1]

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), perm=st.integers(0, 30),
           k=st.integers(1, 9), size=st.integers(0, 7),
           calls=st.lists(st.one_of(st.none(), BOUNDS), max_size=80))
    def test_interleaved_draws_match_generator(self, seed, perm, k, size,
                                               calls):
        draws, real = self.pair(seed, perm, k, size)
        for n in calls:
            if n is None:
                assert draws.random() == real.random()
            else:
                assert draws.integers(n) == real.integers(n)

    def test_long_stream_crosses_word_blocks(self):
        draws, real = self.pair(11, 17, 3, 5)
        pick = np.random.default_rng(0)
        for n in pick.integers(1, 2**32, size=3000).tolist():
            if n % 3 == 0:
                assert draws.random() == real.random()
            else:
                assert draws.integers(n) == real.integers(n)

    @pytest.mark.parametrize("before", [254, 255, 256, 257, 511, 512, 513])
    @pytest.mark.parametrize("half", [False, True])
    def test_block_boundary(self, before, half):
        # The buffer runs dry after 256 words and refills from the next
        # block, whether or not a 32-bit half is pending across the seam.
        draws, real = self.pair(7, 12, 4, 3)
        if half:
            assert draws.integers(5) == real.integers(5)
        for _ in range(before):
            assert draws.random() == real.random()
        for n in (None, 2, None, 2**31 + 1, 3, 1, None, 2**32 - 1):
            if n is None:
                assert draws.random() == real.random()
            else:
                assert draws.integers(n) == real.integers(n)

    @pytest.mark.parametrize("n", [0, -1, 2**32, 2**40])
    def test_unemulated_range_raises(self, n):
        draws = ga._Draws(np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"0 < n < 2\*\*32"):
            draws.integers(n)

    def test_range_check_holds_without_asserts(self):
        # ``python -O`` strips assert statements; the checks must survive:
        # this range check, the count checks of GAConfig and the random
        # policy, the simulator's refusal of a stale snapshot, and FCFS
        # placement's guard, which leaves a near-tie to the exact walk
        # (``near_tie_jobs`` in test_sim.py).
        code = textwrap.dedent("""
            import numpy as np
            from tiersched import (EnvironmentConfig, GAConfig, WorkloadSpec,
                                   ga, generate, make_policy)
            from tiersched.sim import Simulator
            try:
                ga._Draws(np.random.default_rng(0)).integers(2**32)
            except ValueError:
                print('raised')
            for call in (lambda: GAConfig(generations=2.5),
                         lambda: GAConfig(population=10.0),
                         lambda: GAConfig(seed=1.5),
                         lambda: make_policy("random", EnvironmentConfig(),
                                             seed=-1)):
                try:
                    call()
                except (TypeError, ValueError) as err:
                    print(type(err).__name__, err)
            env = EnvironmentConfig()
            sim = Simulator(generate(WorkloadSpec(arrival_rate=4.0,
                                                  num_jobs=60, seed=1), env),
                            env)
            sim.run(until_external_arrivals=30)
            snap = sim.snapshot()
            for _ in range(15):
                sim.step()
            print("installed", sim.install_schedule(snap.schedule, snap))
            from tiersched import Job, JobSet
            walked, backlog = [], Simulator.backlog
            Simulator.backlog = lambda sim, tier, k: (
                walked.append(sim.arrived[0]) or backlog(sim, tier, k))
            jobs = JobSet(tuple(
                Job(id=jid, arrival=10000.0, exec_times=(e,),
                    target_completion=10010.0)
                for jid, e in enumerate((2.0, 2.0, 0.1, 0.3, 0.2, 1.0), 1)))
            one = EnvironmentConfig(num_tiers=1, resources_per_tier=(2,))
            sim = Simulator(jobs, one).run(until_external_arrivals=6)
            print("walked", walked.count(6), sim.queue(0, 0), sim.queue(0, 1))
        """)
        src = str(Path(ga.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-O", "-c", code],
                             env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True)
        assert out.stdout.splitlines() == [
            "raised",
            "TypeError generations must be an integer, not 2.5",
            "TypeError population must be an integer, not 10.0",
            "TypeError seed must be an integer, not 1.5",
            "ValueError random policy seed must be nonnegative, got -1",
            "installed False",
            "walked 2 (1, 3, 5, 6) (2, 4)"]

    def test_other_bit_generators_rejected(self):
        with pytest.raises(TypeError, match="PCG64"):
            ga._Draws(np.random.Generator(np.random.MT19937(0)))


#: Runs both GA variants and the oracle on small instances and prints a
#: digest of every result's schedule, float bits, history and count.
DIGEST_SCRIPT = """
import hashlib
from tiersched import (EnvironmentConfig, GAConfig, QueueVariant,
                       WorkloadSpec, evolve, exhaustive_best, generate,
                       make_policy, simulate_to_snapshot)

def frozen(env, rate, jobs, seed):
    stream = generate(WorkloadSpec(arrival_rate=rate, num_jobs=jobs,
                                   seed=seed), env)
    return simulate_to_snapshot(stream, env, make_policy("fcfs", env))

digest = hashlib.sha256()
snap = frozen(EnvironmentConfig(), 7.0, 60, 3)
for variant in (QueueVariant.VIRTUALIZED, QueueVariant.SEGMENTED):
    result = evolve(snap, GAConfig(generations=60, seed=5, variant=variant))
    digest.update(repr((result.best_schedule.flat_waiting(),
                        result.best_fitness.hex(),
                        result.initial_fitness.hex(),
                        [(h.best.hex(), h.mean.hex())
                         for h in result.history],
                        result.evaluations)).encode())
desk = frozen(EnvironmentConfig(num_tiers=2, resources_per_tier=(2, 2)),
              4.0, 9, 12284)
result = exhaustive_best(desk)
digest.update(repr((result.schedule.flat_waiting(), result.fitness.hex(),
                    result.states)).encode())
print(__debug__, digest.hexdigest())
"""


class TestWithoutAsserts:
    """``python -O`` strips assert statements; the GA and the oracle give
    the same results without them."""

    def test_results_match_under_optimize_flag(self, capsys):
        exec(compile(DIGEST_SCRIPT, "<digest>", "exec"), {})
        here = capsys.readouterr().out.strip()
        src = str(Path(ga.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-O", "-c", DIGEST_SCRIPT],
                             env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True)
        assert here.startswith("True ")
        assert out.stdout.strip() == here.replace("True", "False", 1)


class TestPinnedStream:
    """Full-size runs (lambda 7, 110 jobs, default config unless a test says
    otherwise) pinned to the values the search has always produced, so a
    change to the order of random draws or to the operators shows up
    here."""

    def test_virtualized_seed_3(self):
        snap = loaded_snapshot(7.0, 110, seed=3)
        assert len(snap.waiting_ids()) == 61
        result = evolve(snap, GAConfig(seed=3))
        assert result.best_fitness == 532.7401782838413
        assert result.history[-1] == ga.GenerationStats(
            generation=999, best=532.7401782838413, mean=532.8845123800496)
        assert result.best_schedule.flat_waiting() == (
            (57, 74, 50, 87, 65, 56, 107, 64, 55, 104, 101, 52, 76, 91, 70,
             86, 94, 82, 62, 90, 97),
            (51, 96, 93, 67, 95, 102, 61, 89, 83, 85, 80, 75, 108, 54, 72,
             88, 63, 79, 109, 110),
            (103, 106, 92, 98, 59, 73, 100, 53, 66, 69, 60, 58, 99, 78, 68,
             81, 84, 105, 71, 77),
            (), (), ())

    def test_segmented_seed_4(self):
        snap = loaded_snapshot(7.0, 110, seed=4)
        assert len(snap.waiting_ids()) == 73
        result = evolve(snap, GAConfig(seed=4, variant=QueueVariant.SEGMENTED))
        assert result.best_fitness == 862.1365407580395
        assert result.history[-1] == ga.GenerationStats(
            generation=999, best=862.1365407580395, mean=862.2165699452703)
        assert result.best_schedule.flat_waiting() == (
            (89, 64, 66, 54, 110, 43, 84, 97, 90, 68, 45, 87, 47, 105, 52,
             100, 50, 38, 91, 55, 70),
            (107, 106, 85, 73, 77, 72, 108, 86, 74, 75, 46, 42, 44, 48, 78,
             104, 81, 58, 109, 67, 95, 39, 94, 76, 60, 88, 49),
            (82, 98, 99, 61, 101, 40, 62, 63, 79, 96, 102, 69, 80, 56, 92,
             53, 65, 57, 59, 51, 93, 103, 83, 71, 41),
            (), (), ())

    def test_virtualized_population_30(self):
        # Three crossover pairs and three mutants per generation.
        snap = loaded_snapshot(7.0, 110, seed=5)
        assert len(snap.waiting_ids()) == 74
        config = GAConfig(seed=5, population=30)
        assert config.operator_count == 3
        result = evolve(snap, config)
        assert result.initial_fitness == 1048.7273893624133
        assert result.best_fitness == 821.3174692025884
        assert result.evaluations == 30_000
        assert result.history[500] == ga.GenerationStats(
            generation=500, best=831.4062273743821, mean=835.1358212140705)
        assert result.history[-1] == ga.GenerationStats(
            generation=999, best=821.3174692025884, mean=821.9344479579557)
        assert result.best_schedule.flat_waiting() == (
            (102, 76, 59, 58, 80, 77, 89, 99, 105, 86, 78, 65, 94, 87, 109,
             69, 62),
            (88, 51, 71, 64, 61, 96, 93, 54, 91, 68, 57, 81, 84, 108, 82, 70,
             66, 75, 72, 98),
            (104, 90, 53, 74, 63, 56, 79, 60, 95, 103, 85, 100, 67, 106, 92,
             52, 83, 107, 110, 73, 55, 97, 101),
            (45, 42, 44, 36, 40, 39), (33, 41, 37, 48), (47, 38, 43, 35))

    def test_segmented_population_20(self):
        snap = loaded_snapshot(7.0, 110, seed=6)
        assert len(snap.waiting_ids()) == 64
        result = evolve(snap, GAConfig(seed=6, population=20,
                                       variant=QueueVariant.SEGMENTED))
        assert result.initial_fitness == 1016.8082391577911
        assert result.best_fitness == 695.3570565057518
        assert result.evaluations == 60_000
        assert result.history[500] == ga.GenerationStats(
            generation=500, best=695.3831171235448, mean=696.0095851686685)
        assert result.history[-1] == ga.GenerationStats(
            generation=999, best=695.3570565057518, mean=695.6950601552566)
        assert result.best_schedule.flat_waiting() == (
            (88, 87, 62, 71, 51, 67, 63, 60, 77, 100, 86, 84, 89, 72, 79, 101,
             52, 92),
            (75, 68, 110, 65, 102, 73, 103, 66, 64, 81, 56, 96, 106, 74, 78,
             93, 76, 49, 58, 107, 69, 53, 97, 83),
            (104, 94, 57, 105, 90, 98, 80, 108, 95, 55, 59, 109, 82, 61, 50,
             54, 48, 91, 85, 99, 70),
            (), (), (44,))

    def test_virtualized_per_tier_seed_7(self):
        snap = loaded_snapshot(7.0, 110, seed=7)
        assert len(snap.waiting_ids()) == 48
        result = evolve(snap, GAConfig(seed=7, mode=AllowanceMode.PER_TIER))
        assert result.initial_fitness == 337.87203441158846
        assert result.best_fitness == 270.63397904498316
        assert result.history[500] == ga.GenerationStats(
            generation=500, best=275.4354967030822, mean=275.8512841477699)
        assert result.history[-1] == ga.GenerationStats(
            generation=999, best=270.63397904498316, mean=270.97990427490737)
        assert result.best_schedule.flat_waiting() == (
            (90, 82, 100, 75, 87, 105, 91, 98, 103, 109, 110),
            (83, 94, 104, 77, 70, 102, 107, 76, 72, 95, 74, 73, 79, 108, 78,
             99, 92, 93, 80, 84, 97, 106),
            (81, 88, 86, 71, 85, 89, 96, 101),
            (63,), (), (65, 62, 64, 59, 67, 60))

    def test_virtualized_policy_comparison_instance(self):
        # lambda 2.5, 200 jobs: the acceptance suite's small snapshots.
        snap = loaded_snapshot(2.5, 200, seed=2)
        assert len(snap.waiting_ids()) == 9
        result = evolve(snap, GAConfig(seed=2))
        assert result.initial_fitness == 11.820063744548202
        assert result.best_fitness == 9.94210449955833
        assert result.history[500] == ga.GenerationStats(
            generation=500, best=9.94210449955833, mean=10.010390262982169)
        assert result.history[-1] == ga.GenerationStats(
            generation=999, best=9.94210449955833, mean=10.031803073544294)
        assert result.best_schedule.flat_waiting() == (
            (197, 199), (198, 200, 196), (), (194, 191), (), (192, 190))
