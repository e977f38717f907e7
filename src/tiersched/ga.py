"""Permutation genetic search over frozen queue snapshots.

The genome is each tier's waiting orders, concatenated: exactly
:meth:`Schedule.flat_waiting`, one tuple of job ids per queue (a segment),
which :meth:`Schedule.with_waiting` turns back into a schedule.  A job has a
gene only for the tier it waits in, so nothing places a future-tier task or
keeps a dependency: this is not the paper's task-level chromosome.  Genes
never cross tier boundaries, and in-service jobs are pinned in the snapshot,
not encoded, so every operator maps valid genomes to valid genomes.  Moving a
gene within its segment reorders a queue; moving it to another segment of
the same tier migrates the job to a sibling resource.

Two search variants share the same machinery: the virtualized variant evolves
the whole cascade at once (reorder + migrate), the segmented variant evolves
each queue's permutation independently (reorder only).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, islice
from typing import NamedTuple

import numpy as np

from .model import Schedule, Snapshot, count, ordered_sum
from .penalty import AllowanceMode, ScheduleEvaluator

#: One waiting order per queue, tier-major, as ``Schedule.flat_waiting()``.
Genome = tuple[tuple[int, ...], ...]


class QueueVariant:
    VIRTUALIZED = "virtualized"
    SEGMENTED = "segmented"


@dataclass(frozen=True)
class GAConfig:
    """Search parameters.

    Each generation makes :attr:`operator_count` crossover pairs and as many
    insert mutations: one tenth of the population, rounded, so the default
    population of 10 gets one of each.  The rest of the next population is
    the best-so-far genome (elitism) plus roulette-selected copies.
    """

    population: int = 10
    generations: int = 1000
    variant: str = QueueVariant.VIRTUALIZED
    mode: AllowanceMode = AllowanceMode.TOTAL
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("population", "generations", "seed"):
            object.__setattr__(self, name, count(name, getattr(self, name)))
        if self.population < 2:
            raise ValueError("population must hold at least two chromosomes")
        if self.generations < 1:
            raise ValueError("need at least one generation")
        if self.seed < 0:
            raise ValueError(f"GA seed must be nonnegative, got {self.seed}")
        if self.variant not in (QueueVariant.VIRTUALIZED, QueueVariant.SEGMENTED):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.operator_count == 0:
            raise ValueError(
                f"population {self.population} gets no crossover and no "
                f"mutation; every generation would only copy the incumbent")

    @property
    def operator_count(self) -> int:
        """Crossover pairs, and also insert mutations, per generation.

        The elite plus ``3 * operator_count`` offspring never exceed the
        population, whatever its size.
        """
        return round(0.1 * self.population)


class _Draws:
    """Draw-for-draw stand-in for a PCG64 ``Generator``'s ``random()`` and
    ``integers(n)``, read from blocks of raw 64-bit words as Python ints.

    ``random()`` is numpy's ``(w >> 11) * 2**-53``.  ``integers(n)`` is its
    Lemire bounded draw over 32-bit halves, low half first, with the
    generator's buffered half carried in; only ``n < 2**32`` is emulated.
    The words are read ahead, so the wrapped generator must not be drawn
    from again.
    """

    _BLOCK = 256

    def __init__(self, rng: np.random.Generator) -> None:
        state = rng.bit_generator.state
        if state["bit_generator"] != "PCG64":
            raise TypeError(
                f"_Draws emulates PCG64, not {state['bit_generator']}")
        self._raw = rng.bit_generator.random_raw
        # The unread words of the current block, the next one last.
        self._words: list[int] = []
        self._half = state["uinteger"] if state["has_uint32"] else None

    def _refill(self) -> None:
        self._words += self._raw(self._BLOCK)[::-1].tolist()

    def random(self) -> float:
        words = self._words
        if not words:
            self._refill()
        return (words.pop() >> 11) * 2.0 ** -53

    def integers(self, n: int) -> int:
        if not 0 < n < 2 ** 32:
            raise ValueError(
                f"_Draws draws integers(n) for 0 < n < 2**32 only, got {n}")
        if n == 1:
            return 0
        threshold = None
        while True:
            # A 32-bit candidate: the buffered high half, else the low half
            # of a new word (its high half is buffered).
            half = self._half
            if half is None:
                words = self._words
                if not words:
                    self._refill()
                word = words.pop()
                self._half = word >> 32
                half = word & 0xFFFFFFFF
            else:
                self._half = None
            m = half * n
            low = m & 0xFFFFFFFF
            # ``threshold`` is below ``n``, so ``low >= n`` accepts at once.
            if low >= n:
                return m >> 32
            if threshold is None:
                threshold = (2 ** 32 - n) % n
            if low >= threshold:
                return m >> 32


def roulette_wheel(raws) -> list[float]:
    """Cumulative roulette shares of a generation's raw scores.

    Raw scores measure violation, so selection inverts them: weight grows as
    the score falls below the generation's worst.  A tiny epsilon keeps
    degenerate (all-equal) populations on a uniform wheel.  The last entry is
    pinned to 1 so rounding never leaves a draw past the end.  The weights
    are totalled by ``ordered_sum``, so the wheel is the same on every
    Python version.
    """
    worst = max(raws)
    # max(1, worst, -min) is max(1, max |r|) without a pass over abs().
    eps = 1e-12 * max(1.0, worst, -min(raws))
    weights = [(worst - r) + eps for r in raws]
    total = ordered_sum(weights)
    # Running sums of the shares, added as ``accumulate`` adds them.
    wheel = []
    share = 0.0
    for w in weights:
        share += w / total
        wheel.append(share)
    wheel[-1] = 1.0
    return wheel


def select(population, wheel, rng: np.random.Generator | _Draws,
           count: int = 1) -> list:
    """Roulette-wheel draw of ``count`` members (with replacement).

    Like the other operators, it draws from a ``Generator`` or from
    ``_run_ga``'s :class:`_Draws`.
    """
    # The GA's parents come one or two at a time.
    if count == 1:
        return [population[bisect_right(wheel, rng.random())]]
    if count == 2:
        return [population[bisect_right(wheel, rng.random())],
                population[bisect_right(wheel, rng.random())]]
    return [population[bisect_right(wheel, rng.random())]
            for _ in range(count)]


def crossover(parent_a: Genome, parent_b: Genome,
              rng: np.random.Generator | _Draws) -> tuple[Genome, Genome]:
    """Single-point crossover with order-preserving repair.

    One cut point is drawn over the gene positions.  A child keeps its
    template parent's segment sizes, copies that parent's genes before the
    cut, and fills the rest in the other parent's relative order, skipping
    ids already placed.  Equal parents have children equal to themselves,
    so the parent objects are returned (the cut is still drawn).
    """
    total = sum(map(len, parent_a))
    if total == 0:
        return parent_a, parent_b
    cut = int(rng.integers(total))
    if parent_a == parent_b:
        return parent_a, parent_b
    return (_crossover_child(parent_a, parent_b, cut),
            _crossover_child(parent_b, parent_a, cut))


def _crossover_child(template: Genome, donor: Genome, cut: int) -> Genome:
    """The child of ``template`` and ``donor`` at ``cut``: the template's
    genes before the cut, then the donor's other genes in its order, split
    into the template's segment sizes.  Every segment that lies wholly
    before the cut, and every later one rebuilt with the template's
    content, is the template's own object, so a scorer that compares
    segments by identity rescores only the segments the crossover
    changed."""
    child: list[tuple[int, ...]] = []
    start = 0
    for seg in template:
        if start + len(seg) > cut:
            break
        child.append(seg)
        start += len(seg)
    # Job ids are unique across tiers and a tier owns the same span of flat
    # positions in both parents.  So the donor genes left after the skip are
    # the rest of the cut's tier followed by every later tier, in place: the
    # repair never moves a gene across tiers.
    head = list(islice(chain.from_iterable(template), cut))
    kept = set(head)
    flat = head[start:] + [g for g in chain.from_iterable(donor)
                           if g not in kept]
    pos = 0
    for seg in template[len(child):]:
        rebuilt = tuple(flat[pos:pos + len(seg)])
        child.append(seg if rebuilt == seg else rebuilt)
        pos += len(seg)
    return tuple(child)


def mutation_layout(genome: Genome, tiers: tuple[int, ...]):
    """What an insert mutation needs to know of ``genome``, whose segment
    ``s`` belongs to tier ``tiers[s]``, and of every mutant of it:
    ``(genes, siblings, slots)``, its gene count and, per segment, the
    segments of its tier (itself included, in order) and the insert slots
    the tier offers once one gene is pulled (its other genes plus one per
    segment)."""
    siblings = tuple(tuple(i for i, t in enumerate(tiers) if t == tier)
                     for tier in tiers)
    slots = tuple(sum(len(genome[i]) + 1 for i in sibs) - 1
                  for sibs in siblings)
    return sum(map(len, genome)), siblings, slots


def mutate(genome: Genome, layout: tuple,
           rng: np.random.Generator | _Draws) -> Genome:
    """Insert mutation: pull one gene and reinsert it within its tier.

    ``layout`` is :func:`mutation_layout` of the genome or of any genome it
    was mutated from.  Reinsertion into the same segment reorders that
    queue; reinsertion into a sibling segment migrates the job to another
    resource of the tier.  Only the one or two segments touched are copied.
    """
    genes, siblings, slots = layout
    if genes == 0:
        return genome
    gene_idx = int(rng.integers(genes))
    src = 0
    seg = genome[0]
    while gene_idx >= len(seg):
        gene_idx -= len(seg)
        src += 1
        seg = genome[src]
    source = list(seg)
    gene = source.pop(gene_idx)

    slot = int(rng.integers(slots[src]))
    for dst in siblings[src]:
        size = len(source) if dst == src else len(genome[dst])
        if slot <= size:
            break
        slot -= size + 1
    segments = list(genome)
    if dst == src:
        source.insert(slot, gene)
    else:
        target = list(genome[dst])
        target.insert(slot, gene)
        segments[dst] = tuple(target)
    segments[src] = tuple(source)
    return tuple(segments)


def random_chromosome(snapshot: Snapshot, rng: np.random.Generator) -> Genome:
    """Uniformly random valid genome: per tier, a random permutation of the
    waiting jobs dealt to uniformly random queues.

    A tier with ``n`` waiting jobs draws ``rng.permutation(n)`` and then
    ``rng.integers(count, size=n)`` for its ``count`` queues; a tier with
    none draws nothing.  Each queue gets the permuted ids dealt to it, in
    permutation order, as Python ints.  The ids come from the snapshot's
    ``waiting_by_tier``, built once per snapshot; a stable sort by queue
    deals them all at once.
    """
    genome: list[tuple[int, ...]] = []
    for ids, count in zip(snapshot.waiting_by_tier,
                          snapshot.env.resources_per_tier):
        n = len(ids)
        if not n:
            genome += [()] * count
            continue
        perm = rng.permutation(n)
        picks = rng.integers(count, size=n)
        dealt = ids[perm[np.argsort(picks, kind="stable")]].tolist()
        start = 0
        for size in np.bincount(picks, minlength=count).tolist():
            genome.append(tuple(dealt[start:start + size]))
            start += size
    return tuple(genome)


class GenerationStats(NamedTuple):
    """History record: best-so-far and population mean of one generation."""

    generation: int
    best: float
    mean: float


@dataclass(frozen=True)
class EvolveResult:
    """Outcome of one genetic run."""

    best_schedule: Schedule
    best_fitness: float
    initial_fitness: float
    history: tuple[GenerationStats, ...]
    evaluations: int


def _run_ga(seeded: Genome, queues: tuple[int, ...], sample_random,
            evaluator: ScheduleEvaluator, base: float, config: GAConfig,
            rng: np.random.Generator):
    """Shared evolution loop; returns (best, best_score, seeded_score,
    history, evals).

    Segment ``s`` of the genomes is the evaluator's queue ``queues[s]``.  A
    member of the population is a genome, its score and its per-segment
    queue scores; a one-segment member (every run of the segmented variant)
    is only its genome and score.  The score is ``base`` plus the queue
    scores summed in segment order, the arithmetic of
    :meth:`ScheduleEvaluator.fitness`, so ``seeded_score`` (the score of
    ``seeded``) is what ``fitness`` gives it.
    ``evals`` is the logical budget, population x generations: every member
    of every generation has a score.  Scores are pure, so the elite, the
    roulette copies and a crossover child of equal parents (which is its
    parent) carry their member's scores.  A mutant and the other crossover
    children rescore only the segments that are not their parent's (for a
    child, its template's) own objects, compared by identity: a child keeps
    every segment that lies wholly before the cut or comes out of the
    repair unchanged.  The best-ever member is carried unmodified into each
    next generation (elitism), which makes the best-so-far history
    nonincreasing.

    ``rng`` builds the initial population; the operators then draw the same
    stream through :class:`_Draws`.  The mutation layout is taken once per
    run: every genome of a run has the seeded genome's tier gene counts.
    """
    n = config.population
    ops = config.operator_count
    score = evaluator.queue_score
    queue_tiers = [t for t, _ in evaluator.snapshot.env.iter_queues()]
    layout = mutation_layout(seeded, tuple(queue_tiers[q] for q in queues))

    if len(queues) == 1:
        (queue,) = queues

        def member(genome: Genome, parent=None):
            # ``parent`` is the member the genome was made from: its score
            # stays if the genome holds the very same segment object.
            seg = genome[0]
            if parent is not None and seg is parent[0][0]:
                return genome, parent[1]
            return genome, base + score(queue, seg)
    else:
        def member(genome: Genome, parent=None):
            # As above, segment by segment.
            total = base
            parts = []
            if parent is None:
                for q, seg in zip(queues, genome):
                    part = score(q, seg)
                    parts.append(part)
                    total += part
            else:
                old, _, old_parts = parent
                for q, seg, was, part in zip(queues, genome, old, old_parts):
                    if seg is not was:
                        part = score(q, seg)
                    parts.append(part)
                    total += part
            return genome, total, parts

    genomes = [seeded] + [sample_random(rng) for _ in range(n - 1)]
    population = [member(c) for c in genomes]
    seeded_score = population[0][1]
    draws = _Draws(rng)
    # Parents and copies are drawn as members, so they carry their scores.
    best = None
    best_f = float("inf")
    history: list[GenerationStats] = []
    # The named tuple's own ``__new__`` is a Python-level call.
    stats = tuple.__new__
    last = config.generations - 1
    for gen in range(config.generations):
        fits = [m[1] for m in population]
        # The first member with the lowest score, as a scan would find it.
        low = min(fits)
        if low < best_f:
            best, best_f = population[fits.index(low)], low
        history.append(
            stats(GenerationStats, (gen, best_f, ordered_sum(fits) / n)))
        if gen == last:
            break
        wheel = roulette_wheel(fits)
        nxt = [best]
        for _ in range(ops):
            a, b = select(population, wheel, draws, 2)
            ca, cb = crossover(a[0], b[0], draws)
            nxt += (a if ca is a[0] else member(ca, a),
                    b if cb is b[0] else member(cb, b))
        for _ in range(ops):
            (parent,) = select(population, wheel, draws)
            nxt.append(member(mutate(parent[0], layout, draws), parent))
        nxt += select(population, wheel, draws, n - len(nxt))
        population = nxt
    return best[0], best_f, seeded_score, history, n * config.generations


def evolve(snapshot: Snapshot, config: GAConfig | None = None) -> EvolveResult:
    """Run the genetic search on a frozen snapshot.

    Dispatches on ``config.variant``; the initial population always contains
    the snapshot's own schedule, so the result can never be worse than the
    incumbent.  Deterministic for a fixed seed.
    """
    config = config or GAConfig()
    evaluator = ScheduleEvaluator(snapshot, config.mode)
    seeded = snapshot.schedule.flat_waiting()
    if config.variant == QueueVariant.SEGMENTED:
        run = _evolve_segmented(seeded, evaluator, config)
    else:
        run = _run_ga(seeded, tuple(range(len(seeded))),
                      lambda r: random_chromosome(snapshot, r), evaluator,
                      evaluator.pinned_total, config,
                      np.random.default_rng(config.seed))
    best, best_f, initial, history, evaluations = run
    return EvolveResult(snapshot.schedule.with_waiting(best), best_f, initial,
                        tuple(history), evaluations)


def _evolve_segmented(seeded: Genome, evaluator: ScheduleEvaluator,
                      config: GAConfig):
    """Independent genetic search per resource queue (reorder only).

    Each queue with at least two waiting jobs gets its own full run over its
    permutations; queues with fewer stay as they are.  Queue scores are
    independent, so the per-queue winners make up the best genome and the
    per-generation histories add up.  Returns :func:`_run_ga`'s tuple.
    """
    initial = evaluator.fitness(seeded)
    best: list[tuple[int, ...]] = []
    fixed_total = evaluator.pinned_total
    histories: list[list[GenerationStats]] = []
    evaluations = 0
    for qi, order in enumerate(seeded):
        if len(order) < 2:
            best.append(order)
            fixed_total += evaluator.queue_score(qi, order)
            continue

        def sample(r: np.random.Generator, order=order) -> Genome:
            return (tuple(order[int(i)] for i in r.permutation(len(order))),)

        best_c, _, _, history, evals = _run_ga(
            (order,), (qi,), sample, evaluator, 0.0, config,
            np.random.default_rng((config.seed, qi)))
        best.append(best_c[0])
        histories.append(history)
        evaluations += evals

    combined = [GenerationStats(
        gen, fixed_total + ordered_sum(h[gen].best for h in histories),
        fixed_total + ordered_sum(h[gen].mean for h in histories))
        for gen in range(config.generations)]
    return (tuple(best), evaluator.fitness(best), initial, combined,
            evaluations)
