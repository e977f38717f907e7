"""Whole-child reference for the GA's crossover repair.

``reference_crossover_child`` rebuilds every segment of the child from its
flat order.  The package returns the template's own segment objects for the
segments that lie wholly before the cut; the tests hold the two children to
each other, segment by segment.
"""

from __future__ import annotations

from itertools import chain


def reference_crossover_child(template: tuple, donor: tuple, cut: int) -> tuple:
    """The template's genes before ``cut``, then the donor's other genes in
    the donor's order, split into the template's segment sizes."""
    head = list(chain.from_iterable(template))[:cut]
    kept = set(head)
    flat = head + [g for g in chain.from_iterable(donor) if g not in kept]
    child: list[tuple[int, ...]] = []
    start = 0
    for seg in template:
        child.append(tuple(flat[start:start + len(seg)]))
        start += len(seg)
    return tuple(child)
