"""Generation-loop reference for ``tiersched.ga``.

``reference_run_ga`` is the GA's evolution loop in its plainer form: every
member carries a list of per-segment queue scores, whatever its segment
count; each generation builds its record through the named tuple; the
operators draw from a word iterator and recompute the genome's gene count,
tier siblings and insert slots on every call.  It takes the arguments of
``tiersched.ga._run_ga`` and returns the same tuple, so a test can put it in
that function's place and compare the two ``evolve`` results bit for bit.
Crossover is the package's own.

Float sums are written as left-to-right loops, which is what the builtin
``sum()`` does for floats before Python 3.12 (it compensates from 3.12 on).
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate

from tiersched.ga import GenerationStats, crossover


def left_sum(values) -> float:
    total = 0.0
    for value in values:
        total += value
    return total


class ReferenceDraws:
    """PCG64 ``random()`` and ``integers(n)`` read from raw 64-bit words."""

    _BLOCK = 256

    def __init__(self, rng) -> None:
        state = rng.bit_generator.state
        if state["bit_generator"] != "PCG64":
            raise TypeError(state["bit_generator"])
        self._raw = rng.bit_generator.random_raw
        self._words = iter(())
        self._half = state["uinteger"] if state["has_uint32"] else None

    def _word(self) -> int:
        word = next(self._words, None)
        if word is None:
            self._words = iter(self._raw(self._BLOCK).tolist())
            word = next(self._words)
        return word

    def random(self) -> float:
        return (self._word() >> 11) * 2.0 ** -53

    def integers(self, n: int) -> int:
        if not 0 < n < 2 ** 32:
            raise ValueError(n)
        if n == 1:
            return 0
        m = self._uint32() * n
        if m & 0xFFFFFFFF < n:
            threshold = (2 ** 32 - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._uint32() * n
        return m >> 32

    def _uint32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._word()
        self._half = word >> 32
        return word & 0xFFFFFFFF


def reference_roulette_wheel(raws) -> list[float]:
    worst = max(raws)
    eps = 1e-12 * max(1.0, worst, -min(raws))
    weights = [(worst - r) + eps for r in raws]
    total = left_sum(weights)
    wheel = list(accumulate([w / total for w in weights]))
    wheel[-1] = 1.0
    return wheel


def reference_select(population, wheel, rng, count: int = 1) -> list:
    return [population[bisect_right(wheel, rng.random())]
            for _ in range(count)]


def reference_mutate(genome, tiers, rng):
    """Insert mutation with the tier's slots counted on every call."""
    total = sum(map(len, genome))
    if total == 0:
        return genome
    gene_idx = int(rng.integers(total))
    src = 0
    while gene_idx >= len(genome[src]):
        gene_idx -= len(genome[src])
        src += 1
    segments = list(genome)
    source = list(genome[src])
    gene = source.pop(gene_idx)
    segments[src] = source

    tier_segs = [i for i, t in enumerate(tiers) if t == tiers[src]]
    slots = sum(len(segments[i]) + 1 for i in tier_segs)
    slot = int(rng.integers(slots))
    for dst in tier_segs:
        if slot <= len(segments[dst]):
            break
        slot -= len(segments[dst]) + 1
    target = source if dst == src else list(segments[dst])
    target.insert(slot, gene)
    segments[src] = tuple(source)
    segments[dst] = tuple(target)
    return tuple(segments)


def reference_run_ga(seeded, queues, sample_random, evaluator, base, config,
                     rng):
    n = config.population
    ops = config.operator_count
    score = evaluator.queue_score
    queue_tiers = [t for t, _ in evaluator.snapshot.env.iter_queues()]
    tiers = tuple(queue_tiers[q] for q in queues)

    def member(genome, parent=None):
        if parent is None:
            parts = [score(q, seg) for q, seg in zip(queues, genome)]
        else:
            old, _, parts = parent
            parts = parts.copy()
            for s, seg in enumerate(genome):
                if seg is not old[s]:
                    parts[s] = score(queues[s], seg)
        total = base
        for part in parts:
            total += part
        return genome, total, parts

    genomes = [seeded] + [sample_random(rng) for _ in range(n - 1)]
    population = [member(c) for c in genomes]
    seeded_score = population[0][1]
    draws = ReferenceDraws(rng)
    best = None
    best_f = float("inf")
    history = []
    for gen in range(config.generations):
        fits = [m[1] for m in population]
        low = min(fits)
        if low < best_f:
            best, best_f = population[fits.index(low)], low
        history.append(GenerationStats(gen, best_f, left_sum(fits) / n))
        if gen == config.generations - 1:
            break
        wheel = reference_roulette_wheel(fits)
        nxt = [best]
        for _ in range(ops):
            a, b = reference_select(population, wheel, draws, 2)
            ca, cb = crossover(a[0], b[0], draws)
            nxt += (a if ca is a[0] else member(ca, a),
                    b if cb is b[0] else member(cb, b))
        for _ in range(ops):
            (parent,) = reference_select(population, wheel, draws)
            nxt.append(member(reference_mutate(parent[0], tiers, draws),
                              parent))
        nxt += reference_select(population, wheel, draws, n - len(nxt))
        population = nxt
    return best[0], best_f, seeded_score, history, n * config.generations
