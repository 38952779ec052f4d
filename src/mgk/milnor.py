"""Free Milnor groups: Magnus expansion, normal forms, and the kernel maps.

The free Milnor group M(F) on an ordered alphabet m1 < ... < ms is the
quotient of the free group by all relations [mi, mi^h].  Setting the last
generator to 1 gives a split short exact sequence

    1 --> (R on s-1 variables, +) --r--> M(F on s) --> M(F on s-1) --> 1

whose kernel map r sends a basis monomial to the left-iterated commutator
of the corresponding generators with the last one.  The quotient acts on
the kernel through the Magnus expansion (mi acts by left multiplication
with 1 + yi), which is why the expansion shows up as a homomorphism into
the units of the squarefree ring.

Iterating the splitting expresses every group element uniquely as a tower
of ring components plus one integer exponent, which makes the word problem
for M(F) exact.  `magnus` and `normal_form` read the word through the one
ring kernel, `ring.scan`, on packed-integer monomials, once each.

The tower is a projection of the Magnus expansion: the component for m_j
is the part of M(w) on monomials mono*y_j with mono over y_1..y_{j-1},
the final y_j stripped, and the exponent is the coefficient of y_1.  With
the uniqueness of the tower this makes the Magnus expansion injective on
M(F) (Milnor, *Link groups*, Ann. of Math. 59, 1954; Habegger-Lin, JAMS 3,
1990).  So one kernel coefficient is one chain scan, `magnus_coefficient`,
and `r_inverse` is the top level's scan alone: the word is in the kernel iff
the scan's expansion without the last generator is 1, and rho is the answer.
`normal_form` is that scan too: rho is the top component, and the
expansion without the last generator projects to every lower one, which
`ring.tower` reads off it.
`magnus` and `lcs_degree` with a cap k scan in R/(degree > k): the
monomials of degree above k span a two-sided ideal, so that quotient is
a ring map, and its image of M(w) is exactly M(w)'s terms of degree
<= k, read without forming a term of higher degree.

The tower holds s prefix rings, about s^2/2 names in all, so the command
line refuses an alphabet of more than `MAX_GENERATORS` generators (the
alphabet budget) with `BudgetExceeded` before it builds one.  The catalog
refuses `unlink(n)` over the same budget, though its triviality tests
build no tower and no ring, only one scan per longitude: there the budget
bounds the model, 2n names and n longitudes, and so the n scans.
`default_alphabet` itself is unbounded: it names the tips of deep grope
trees, whose boundary words the letter budget already bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BudgetExceeded, MgkError, NotInKernelError, UnknownGeneratorError
from .ring import Ring, RingElement, basis_rank, format_ring_element, scan, tower
from .words import IDENTITY, Word, _check_length, _check_names, _inverse

__all__ = [
    "magnus", "magnus_coefficient", "normal_form", "words_equal", "MilnorElement",
    "r_map", "r_inverse", "conjugation_action", "lcs_degree", "basis_rank",
    "default_alphabet", "MAX_GENERATORS",
]

MAX_GENERATORS = 4096  # the alphabet budget


def default_alphabet(s: int, prefix: str = "m") -> tuple[str, ...]:
    if s < 0:
        raise MgkError("generator count must be >= 0")
    return tuple("%s%d" % (prefix, i + 1) for i in range(s))


def _check_alphabet_size(s):
    """Refuse an alphabet of s generators if s is over the alphabet budget."""
    if s > MAX_GENERATORS:
        raise BudgetExceeded("alphabet larger than the generator limit of %d "
                             "generators" % MAX_GENERATORS)


def _positions(word: Word, alphabet) -> list:
    """The word's letters as (variable position, exponent) pairs; an
    alphabet that repeats a generator raises MgkError, and the first
    generator, in word order, that is not in the alphabet raises."""
    pos = {g: i for i, g in enumerate(alphabet)}
    if len(pos) != len(alphabet):
        raise MgkError("the alphabet %r repeats a generator" % (tuple(alphabet),))
    try:
        return [(pos[g], e) for g, e in word.letters]
    except KeyError as exc:
        raise UnknownGeneratorError("generator %r is not in the alphabet %r"
                                    % (exc.args[0], tuple(alphabet))) from None


def magnus(word: Word, alphabet, cap=None) -> RingElement:
    """Magnus expansion: mi -> 1 + yi, mi' -> 1 - yi, multiplicatively.

    Returns a unit of R on the alphabet's variables with constant term 1.
    Factors through M(F), so Milnor-equal words expand identically.
    A cap >= 1 keeps exactly the terms of degree <= cap (see `scan`).
    """
    if cap is not None and cap < 1:
        raise MgkError("degree cap must be >= 1")
    letters = _positions(word, alphabet)
    ring = Ring(alphabet)
    return RingElement(ring, scan(letters, len(ring.variables), cap)[0])


def magnus_coefficient(word: Word, seq) -> int:
    """Coefficient of y_i1 ... y_ik in the Magnus expansion of the word,
    for pairwise-distinct generators seq = (i1, ..., ik).

    Along distinct indices that coefficient is one entry of a product of
    unipotent triangular matrices, so a chain scan of one row v suffices:
    a letter (i_p, e) adds e*v[p-1] to v[p], and letters outside seq only
    contribute their constant term.  O(|w|) time, no ring.
    """
    position = {g: p for p, g in enumerate(seq, 1)}
    if len(position) != len(seq):
        raise MgkError("the generators %r are not pairwise distinct" % (seq,))
    v = [1] + [0] * len(position)
    for g, e in word.letters:
        if g in position:
            v[position[g]] += e * v[position[g] - 1]
    return v[-1]


@dataclass(frozen=True)
class MilnorElement:
    """Canonical form of an element of M(F) on a fixed alphabet.

    components[j] is the kernel coordinate extracted when scrubbing
    generator alphabet[-1-j]; it lives in R on the earlier generators.
    exponent is the surviving power of the first generator.
    """

    alphabet: tuple[str, ...]
    components: tuple[RingElement, ...]
    exponent: int

    @property
    def is_identity(self) -> bool:
        return self.exponent == 0 and not any(c.terms for c in self.components)

    def describe(self) -> list[str]:
        lines = []
        for j, comp in enumerate(self.components):
            lines.append("%s-part: %s" % (self.alphabet[-1 - j],
                                          format_ring_element(comp)))
        if self.alphabet:
            lines.append("%s-exponent: %d" % (self.alphabet[0], self.exponent))
        return lines


def normal_form(word: Word, alphabet) -> MilnorElement:
    """Normal form in M(F) on the alphabet, via the split-extension tower.

    One scan of the whole word: the top generator's letters add
    +-(expansion of the preceding prefix) to the top coordinate, and the
    other letters build the expansion without the top generator, which
    holds every lower level (see the module docstring): the m_j component
    is its terms whose last variable y_j is their largest, y_j stripped,
    and the exponent is the coefficient of y_1.  Each level evaluates a
    homomorphism, so words equal in M(F) get identical forms; the
    splitting makes the form unique.  One scan keeps the work linear in
    the word, where a scan per level re-reads the lower letters per level.
    """
    full = tuple(alphabet)
    n = max(len(full) - 1, 0)  # the top position; no alphabet, no letters
    running, rho = scan(_positions(word, full), n)
    levels = tower(running, n) + [rho]  # level t: R on full[:t]
    components = tuple(RingElement(Ring(full[:t]), levels[t]) for t in range(n, 0, -1))
    return MilnorElement(full, components, levels[0].get(0, 0))


def words_equal(u: Word, v: Word, alphabet) -> bool:
    """Equality in M(F): compare normal forms of u and v."""
    return normal_form(u * ~v, alphabet).is_identity


def r_map(rho: RingElement, alphabet) -> Word:
    """Kernel inclusion: basis monomials to left-iterated commutators.

    The monomial of variables j1..jk maps to the word
    [m_j1, [m_j2, ..., [m_jk, m_last]...]]; terms concatenate in
    degree-then-position order, a negative coefficient inverting the
    word.  r(0) is the empty word and r(1) the distinguished generator.
    Any concatenation order yields the same group element because the
    kernel is abelian.
    """
    alphabet = tuple(alphabet)
    if not alphabet:
        raise MgkError("alphabet must contain the distinguished generator")
    _positions(IDENTITY, alphabet)  # refuses a repeated generator
    _check_names(alphabet)  # the letters below are built unchecked
    last = alphabet[-1]
    extra = sorted(set(rho.ring.variables) - set(alphabet[:-1]))
    if extra:
        raise UnknownGeneratorError(
            "ring variables %s exceed the non-distinguished alphabet" % extra)
    ring = rho.ring
    letters = []
    for mono in rho.support():
        positions, c = ring.positions(mono), rho.terms[mono]
        # the sum's budget, before building: a weight-k term has 3*2^k - 2 letters
        _check_length(len(letters) + abs(c) * (3 * 2 ** len(positions) - 2))
        w = [(last, 1)]
        for v in reversed(positions):  # w -> [m_v, w] = m_v w m_v' w'
            g = ring.variables[v]
            w = [(g, 1), *w, (g, -1), *_inverse(w)]
        letters += w * c if c > 0 else _inverse(w) * -c
    return Word._trusted(tuple(letters))


def r_inverse(word: Word, alphabet) -> RingElement:
    """Kernel coordinate of a word in the kernel of deleting the last
    generator, read by one top-level scan (see the module docstring);
    raises NotInKernelError otherwise."""
    alphabet = tuple(alphabet)
    letters = _positions(word, alphabet)
    if not alphabet:
        raise MgkError("empty alphabet has no kernel component")
    running, rho = scan(letters, len(alphabet) - 1)
    if running != {0: 1}:
        raise NotInKernelError(
            "deleting %r does not trivialize the word" % alphabet[-1])
    return RingElement(Ring(alphabet[:-1]), rho)


def conjugation_action(g: Word, rho: RingElement, alphabet) -> RingElement:
    """Action of the quotient group on the kernel: Magnus(g) * rho.

    Satisfies r_inverse(g * r_map(rho) * g') == conjugation_action(g, rho)
    over the alphabet extended by the distinguished generator.
    """
    expansion = magnus(g, alphabet)
    return expansion * rho.embed(expansion.ring)


def lcs_degree(word: Word, alphabet, cap=None):
    """Minimal degree of a nonconstant term of the Magnus expansion.

    Returns math.inf when the expansion is 1.  A product of weight-k
    iterated commutators always has degree >= k, so this bounds the
    lower-central-series filtration from below.  A cap >= 1 scans in
    R/(degree > cap), a ring map as the higher degrees span an ideal: a
    degree up to the cap is exact, and one above it reads math.inf.
    """
    expansion = magnus(word, alphabet, cap)
    # keys sort by degree first; the key 0 is the constant term's
    least = min(filter(None, expansion.terms), default=0)
    return expansion.ring.degree(least) if least else math.inf
