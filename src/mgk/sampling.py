"""Seeded random generators for words, ring elements and grope trees.

All functions take an explicit random.Random so sweeps are reproducible.
"""

from __future__ import annotations

import random

from .errors import MgkError
from .gropes import LEAF, GropeTree
from .ring import Ring, RingElement
from .words import Word

__all__ = ["random_word", "random_ring_element", "random_grope_tree"]


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

    A class-k tree has at least k leaves, exactly k if every Surface has
    genus 1: k outside 1..max_tips is refused, and after 32 candidates,
    each dropped at its first leaf past max_tips, the genus-1 one fits."""
    if not 1 <= k <= max_tips:
        raise MgkError("no tree of class %d has at most %d tips" % (k, max_tips))
    for _ in range(32):
        tree = _grow(rng, k, max_genus, max_tips)
        if tree is not None:
            return tree
    return _grow(rng, k, 1, max_tips)


def _grow(rng: random.Random, k: int, max_genus: int, max_tips: int):
    """A random tree of class k, or None at its first leaf past max_tips."""
    if k <= 1:
        return LEAF if max_tips > 0 else None
    pairs = []
    genus = rng.randint(1, max_genus)
    exact_at = rng.randrange(genus)
    for i in range(genus):
        total = k if i == exact_at else k + rng.randint(0, 1)
        p = rng.randint(1, total - 1)
        left = _grow(rng, p, max_genus, max_tips)
        if left is None:
            return None
        right = _grow(rng, total - p, max_genus, max_tips - left.leaf_count)
        if right is None:
            return None
        max_tips -= left.leaf_count + right.leaf_count
        pairs.append((left, right))
    return GropeTree(tuple(pairs))
