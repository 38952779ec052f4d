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
expansion without the last generator projects to every lower one.

The tower holds s prefix rings, about s^2/2 names in all, so the command
line and the catalog refuse an alphabet of more than `MAX_GENERATORS`
generators (the alphabet budget) with `BudgetExceeded` before they build
one.  `default_alphabet` itself is unbounded: it names the tips of deep
grope trees, whose boundary words the letter budget already bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BudgetExceeded, MgkError, NotInKernelError, UnknownGeneratorError
from .ring import Ring, RingElement, basis_rank, format_ring_element, scan
from .words import IDENTITY, Word, _check_length, commutator

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


def magnus(word: Word, alphabet) -> RingElement:
    """Magnus expansion: mi -> 1 + yi, mi' -> 1 - yi, multiplicatively.

    Returns a unit of R on the alphabet's variables with constant term 1.
    Factors through M(F), so Milnor-equal words expand identically.
    """
    letters = _positions(word, alphabet)
    ring = Ring(alphabet)
    return RingElement(ring, scan(letters, len(ring.variables))[0])


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
    splitting makes the form unique.
    """
    full = tuple(alphabet)
    letters = _positions(word, full)
    n = max(len(full) - 1, 0)  # the top position; no alphabet, no letters
    running, rho = scan(letters, n)
    rings = [Ring(full[:t]) for t in range(n + 1)]  # level t: R on full[:t]
    levels = [{} for _ in range(n)] + [rho]
    big = rings[n]
    width, low, full_mask = big.width, (1 << big.width) - 1, (1 << n) - 1
    for mono, c in running.items():
        used = mono & full_mask
        t = used.bit_length() - 1  # the largest variable
        digits = mono >> n
        if t < 0 or digits & low != t + 1:  # the constant, or y_t not last
            continue
        if rings[t].width == width:  # strip y_t: drop its digit and its bit
            key = digits >> width << t | used ^ 1 << t
        else:  # and repack the digits to the level's narrower width
            key = rings[t].pack(big.positions(mono)[:-1])
        levels[t][key] = c
    components = tuple(RingElement(rings[t], levels[t]) for t in range(n, 0, -1))
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
    last = alphabet[-1]
    extra = sorted(set(rho.ring.variables) - set(alphabet[:-1]))
    if extra:
        raise UnknownGeneratorError(
            "ring variables %s exceed the non-distinguished alphabet" % extra)
    ring = rho.ring
    letters = []
    for mono in rho.support():
        w = Word.gen(last)
        for v in reversed(ring.positions(mono)):
            w = commutator(Word.gen(ring.variables[v]), w)
        c = rho.terms[mono]
        _check_length(len(letters) + abs(c) * len(w.letters))  # the sum's budget
        letters += (w ** c).letters
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


def lcs_degree(word: Word, alphabet):
    """Minimal degree of a nonconstant term of the Magnus expansion.

    Returns math.inf when the expansion is 1.  A product of weight-k
    iterated commutators always has degree >= k, so this bounds the
    lower-central-series filtration from below.
    """
    expansion = magnus(word, alphabet)
    # keys sort by degree first; the key 0 is the constant term's
    least = min(filter(None, expansion.terms), default=0)
    return expansion.ring.degree(least) if least else math.inf
