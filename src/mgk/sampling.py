"""Seeded random generators for words, ring elements and grope trees.

All functions take an explicit random.Random so sweeps are reproducible.
"""

from __future__ import annotations

import random

from .gropes import LEAF, ClosedGropeTree, GropeTree
from .ring import Ring, RingElement
from .words import Word

__all__ = [
    "random_word", "random_ring_element", "random_grope_tree",
    "random_closed_tree",
]


def random_word(rng: random.Random, alphabet, max_len=12) -> Word:
    n = rng.randint(0, max_len)
    return Word(tuple((rng.choice(alphabet), rng.choice((1, -1)))
                      for _ in range(n)))


def random_ring_element(rng: random.Random, ring: Ring) -> RingElement:
    """Up to 4 terms of any degree, coefficients in +-1..3."""
    terms = {}
    for _ in range(rng.randint(0, 4)):
        mono = tuple(rng.sample(ring.variables, rng.randint(0, len(ring.variables))))
        coeff = rng.choice((-3, -2, -1, 1, 2, 3))
        terms[mono] = terms.get(mono, 0) + coeff
    return ring.element(terms)


def random_grope_tree(rng: random.Random, k: int, max_genus=2,
                      max_tips=8) -> GropeTree:
    """A tree of class exactly k with at most max_tips leaves.

    Candidates grow as nested pair tuples with their leaf counts; only the
    accepted one becomes a `GropeTree`."""
    for attempt in range(64):
        genus_cap = max_genus if attempt < 32 else 1
        shape, leaves = _grow(rng, k, genus_cap)
        if leaves <= max_tips:
            return _build(shape)
    return _build(_grow(rng, k, 1)[0])  # genus-1 tower: exactly k tips


def _grow(rng: random.Random, k: int, max_genus: int):
    """(shape, leaf count) of a random tree of class k: a shape is the
    tuple of its pairs of shapes, () for a leaf."""
    if k <= 1:
        return (), 1
    pairs, leaves = [], 0
    genus = rng.randint(1, max_genus)
    exact_at = rng.randrange(genus)
    for i in range(genus):
        total = k if i == exact_at else k + rng.randint(0, 1)
        p = rng.randint(1, total - 1)
        left, right = _grow(rng, p, max_genus), _grow(rng, total - p, max_genus)
        pairs.append((left[0], right[0]))
        leaves += left[1] + right[1]
    return tuple(pairs), leaves


def _build(shape) -> GropeTree:
    if not shape:
        return LEAF
    return GropeTree(tuple((_build(left), _build(right)) for left, right in shape))


def random_closed_tree(rng: random.Random, k: int, max_genus=2,
                       max_tips=8) -> ClosedGropeTree:
    k = max(k, 2)  # a closed grope has a bottom surface
    return ClosedGropeTree(random_grope_tree(rng, k, max_genus, max_tips))
