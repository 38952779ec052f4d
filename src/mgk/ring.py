"""The squarefree ring R on named variables.

R is the quotient of the free associative ring on a finite set of
variables by the ideal spanned by all monomials in which some variable
occurs at least twice.  Its additive group is free abelian on the
monomials with pairwise-distinct variables, so elements are stored as
sparse maps from monomials to exact Python ints.

A monomial of `Ring(variables)` is one int, `digits << n | mask`: the
variable positions plus one as `Ring.width`-bit digits, first variable
highest, above an n-bit mask of the variables used.  Digits are >= 1 and
fix the mask, so numeric order is degree-then-position order, "contains
y_g" is one `&` and `Ring.degree` is the mask's popcount.  `Ring.pack` and
`Ring.positions` encode and decode; names appear only in `Ring.gen`,
`Ring.monomial`, `Ring.element`, `RingElement.coefficient`,
`RingElement.embed`, which maps positions through `ring.variables.index`,
and `format_ring_element`.  Words enter the ring through one in-place
kernel on bare term dicts, `scan`.

>>> R = Ring(("m1", "m2"))
>>> y1, y2 = R.gen("m1"), R.gen("m2")
>>> str((1 + y2) * (1 - y2)), str(y1 * y2 + y2 * y1)
('1', 'y1*y2 + y2*y1')
>>> R.width, R.pack((1, 0)) == 0b10_01_11, R.positions(0b10_01_11)
(2, True, (1, 0))
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left

from .errors import MgkError, UniverseMismatchError


def basis_rank(s: int) -> int:
    """Number of basis monomials of R on s variables: sum of s!/(s-k)!."""
    if s < 0:
        raise MgkError("variable count must be >= 0")
    return sum(math.perm(s, k) for k in range(s + 1))


_M_NAME = re.compile(r"m(\d+)\Z")


def variable_display(name: str) -> str:
    """Display name of a variable: the meridian mK expands to yK."""
    m = _M_NAME.match(name)
    return "y" + m.group(1) if m else name


class Ring:
    """R over an ordered tuple of named variables."""

    __slots__ = ("variables", "width", "_mask")

    def __init__(self, variables):
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise MgkError("duplicate ring variables: %r" % (self.variables,))
        self.width = len(self.variables).bit_length()
        self._mask = (1 << len(self.variables)) - 1

    def __repr__(self):
        return "Ring(%s)" % ", ".join(self.variables)

    def __eq__(self, other):
        return isinstance(other, Ring) and self.variables == other.variables

    def __hash__(self):
        return hash(self.variables)

    @property
    def zero(self) -> RingElement:
        return RingElement(self, {})

    @property
    def one(self) -> RingElement:
        return RingElement(self, {0: 1})

    def gen(self, name: str) -> RingElement:
        return RingElement(self, {self.monomial((name,)): 1})

    def pack(self, positions) -> int:
        """The monomial of a sequence of pairwise-distinct positions."""
        digits = mask = 0
        for i in positions:
            digits = digits << self.width | i + 1
            mask |= 1 << i
        return digits << len(self.variables) | mask

    def degree(self, mono: int) -> int:
        """The number of variables of a monomial: its mask's popcount."""
        return (mono & self._mask).bit_count()

    def positions(self, mono: int) -> tuple[int, ...]:
        """The variable positions of a monomial, in order."""
        w, digits = self.width, mono >> len(self.variables)
        return tuple((digits >> w * k) % (1 << w) - 1
                     for k in reversed(range(self.degree(mono))))

    def monomial(self, names) -> int:
        """The monomial of a sequence of variable names."""
        names = tuple(names)
        if len(set(names)) != len(names):
            raise MgkError("monomial repeats a variable: %r" % (names,))
        for v in names:
            if v not in self.variables:
                raise UniverseMismatchError("%r is not a variable of %r" % (v, self))
        return self.pack(map(self.variables.index, names))

    def element(self, terms) -> RingElement:
        """Build an element from a {names: coefficient} mapping."""
        packed = {self.monomial(names): c for names, c in terms.items()}
        return RingElement(self, {m: c for m, c in packed.items() if c})


class RingElement:
    """A sparse integer combination of squarefree monomials.

    Values are immutable by convention: arithmetic always allocates.
    Plain ints coerce to constants, so ``1 + y2`` works and a constant
    equals, and hashes as, its int, whatever its ring.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict):
        self.ring = ring
        self.terms = terms

    def _coerce(self, other):
        if isinstance(other, int):
            return RingElement(self.ring, {0: other} if other else {})
        if isinstance(other, RingElement):
            if other.ring != self.ring:
                raise UniverseMismatchError(
                    "mixed universes: %r vs %r" % (self.ring, other.ring))
            return other
        return None

    def coefficient(self, names) -> int:
        """Coefficient of the monomial of these variable names (0 if a name
        is repeated or is not a variable of the ring)."""
        try:
            return self.terms.get(self.ring.monomial(names), 0)
        except MgkError:
            return 0

    @property
    def constant_term(self) -> int:
        return self.terms.get(0, 0)

    def support(self):
        """Monomials with nonzero coefficient, in degree-then-position
        order, which is numeric order."""
        return sorted(self.terms)

    def embed(self, ring: Ring) -> RingElement:
        """The same element in a ring whose variables contain ours."""
        missing = set(self.ring.variables) - set(ring.variables)
        if missing:
            raise UniverseMismatchError(
                "cannot embed: variables %s missing from %r" % (sorted(missing), ring))
        to = tuple(map(ring.variables.index, self.ring.variables)).__getitem__
        return RingElement(ring, {ring.pack(map(to, self.ring.positions(m))): c
                                  for m, c in self.terms.items()})

    def __eq__(self, other):
        if isinstance(other, int):
            return self.terms == ({0: other} if other else {})
        if isinstance(other, RingElement):  # a constant is its int in any ring
            return self.terms == other.terms and (self.ring == other.ring
                                                  or self.terms.keys() <= {0})
        return NotImplemented

    def __hash__(self):
        if self.terms.keys() <= {0}:  # a constant hashes as its int, as == asks
            return hash(self.constant_term)
        return hash((self.ring, frozenset(self.terms.items())))

    def __neg__(self):
        return RingElement(self.ring, {m: -c for m, c in self.terms.items()})

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        add_scaled(out, other.terms, 1)
        return RingElement(self.ring, out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        full, w = self.ring._mask, self.ring.width
        # m1 * m2: m1's digits move up past m2's, and the masks join
        right = [(m2, c2, m2 & full, w * self.ring.degree(m2))
                 for m2, c2 in other.terms.items()]
        out = {}
        for m1, c1 in self.terms.items():
            used = m1 & full
            high = m1 ^ used
            for m2, c2, vars2, shift in right:
                if used & vars2:
                    continue  # repeated variable: the monomial dies in R
                mono = high << shift | m2 | used
                c = out.get(mono, 0) + c1 * c2
                if c:
                    out[mono] = c
                else:
                    del out[mono]
        return RingElement(self.ring, out)

    __rmul__ = __mul__  # only for int * element, and integers are central

    def __str__(self):
        return format_ring_element(self)

    def __repr__(self):
        return "<RingElement %s>" % format_ring_element(self)


def add_scaled(terms: dict, other: dict, e: int) -> None:
    """terms += e * other, in place on {monomial: coeff} dicts; drops zeros."""
    for mono, coeff in other.items():
        c = terms.get(mono, 0) + e * coeff
        if c:
            terms[mono] = c
        else:
            terms.pop(mono, None)


def scan(letters, n: int):
    """Read (position, exponent) letters into R on n variables.

    Returns term dicts (running, rho).  The kernel letter is position n,
    the generator after the ring's variables: a letter (g, e) with g < n
    multiplies running by 1 + e*y_g, and a letter at n adds e*running to
    rho; with no letter at n, running is the Magnus expansion.
    Adjacent letters of one position first fold into one letter with the
    summed exponent, on a stack, so cancellations nest and zero sums drop.
    That is exact: (1 + a*y_g)(1 + b*y_g) = 1 + (a+b)*y_g as y_g*y_g = 0,
    and two adjacent kernel letters add a*running, then b*running, to rho
    with running unchanged in between.
    Only keys without g gain a term and the new keys all contain g, so a
    snapshot of the keys lacking g reads each coefficient before it moves."""
    folded = []
    for let in letters:
        if folded and folded[-1][0] == let[0]:
            g, e = folded.pop()
            if e + let[1]:
                folded.append((g, e + let[1]))
        else:
            folded.append(let)
    w, full = n.bit_length(), (1 << n) - 1
    running, rho = {0: 1}, {}
    for g, e in folded:
        if g == n:
            add_scaled(rho, running, e)
            continue
        bit = 1 << g
        new = (g + 1) << n | bit  # y_g's digit above the mask, and its bit
        get = running.get
        for mono in [m for m in running if not m & bit]:
            used = mono & full
            key = (mono ^ used) << w | used | new
            c = get(key, 0) + e * running[mono]
            if c:
                running[key] = c
            else:
                del running[key]
    return running, rho


class _Signs(dict):
    """One call's sign-and-coefficient texts, " + 3*" for 3; keeps 256."""

    def __missing__(self, coeff):
        text = (" - " if coeff < 0 else " + ") + (
            "" if coeff in (1, -1) else "%d*" % abs(coeff))
        if len(self) < 256:
            self[coeff] = text
        return text


def format_ring_element(elem: RingElement) -> str:
    """Serialize as a signed monomial sum, e.g. ``1 + y2*y3 - y3*y2``.

    Keys sort in print order, so a term shares its prefix (one digit
    fewer) with the term before it.  A stack keeps, by degree, the prefix
    used last and its text; it starts at 0, the empty prefix, which no
    longer prefix equals.  A new prefix rebuilds the levels above the
    longest kept one.  Bisection cuts the keys into one slice (one chunk)
    per degree; a term is one f-string of its sign-and-coefficient text,
    which `map` looks up in a `_Signs` table, prefix text and last name."""
    if not elem.terms:
        return "0"
    ring, terms = elem.ring, elem.terms
    n, w = len(ring.variables), ring.width
    name = [""] + [variable_display(v) for v in ring.variables]  # by digit
    named, low = [v + "*" for v in name], (1 << w) - 1
    keys, texts = [0] * (n + 1), [""] * (n + 1)  # the stack
    mons, signs = sorted(terms), _Signs()
    chunks, lo = ([str(terms[0])], 1) if not mons[0] else ([], 0)
    for d in range(1, n + 1):
        hi = bisect_left(mons, 1 << w * d + n, lo)
        if hi == lo:  # no term of degree d
            continue
        span, parts = mons[lo:hi], []
        append = parts.append
        for mono, sign in zip(span, map(signs.__getitem__,
                                        map(terms.__getitem__, span))):
            digits = mono >> n
            prefix = digits >> w
            if keys[d] != prefix:
                head = prefix >> w
                if keys[d - 1] != head:
                    j = d - 2
                    while keys[j] != head >> w * (d - 1 - j):
                        j -= 1
                    for i in range(j + 1, d):
                        keys[i] = key = head >> w * (d - 1 - i)
                        texts[i] = texts[i - 1] + named[key & low]
                keys[d] = prefix
                texts[d] = texts[d - 1] + named[prefix & low]
            append(f"{sign}{texts[d]}{name[digits & low]}")
        if not chunks:  # the leading sign
            parts[0] = ("" if parts[0][1] == "+" else "-") + parts[0][3:]
        chunks.append("".join(parts))
        lo = hi
    return "".join(chunks)
