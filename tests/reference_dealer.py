"""Gene-by-gene reference for the GA's random initial genome.

``reference_chromosome`` deals one waiting job at a time into per-queue
lists, with the same draws as ``tiersched.ga.random_chromosome`` (per tier
with waiting jobs, a permutation and then one queue pick per job).  The
package deals with array operations; the tests hold the two to each other,
genome and generator state alike.
"""

from __future__ import annotations

import numpy as np

from tiersched import Snapshot


def reference_chromosome(snapshot: Snapshot,
                         rng: np.random.Generator) -> tuple:
    """Uniformly random valid genome: per tier, a random permutation of the
    waiting jobs dealt to uniformly random queues."""
    env = snapshot.env
    per_queue: dict[tuple[int, int], list[int]] = {
        (t, k): [] for t, k in env.iter_queues()}
    for tier in range(env.num_tiers):
        ids = snapshot.waiting_ids(tier)
        if not ids:
            continue
        order = [ids[int(i)] for i in rng.permutation(len(ids))]
        picks = rng.integers(env.resources_per_tier[tier], size=len(order))
        for jid, k in zip(order, picks):
            per_queue[(tier, int(k))].append(jid)
    return tuple(tuple(per_queue[(t, k)]) for t, k in env.iter_queues())
