"""The squarefree ring R on named variables.

R is the quotient of the free associative ring on a finite set of
variables by the ideal spanned by all monomials in which some variable
occurs at least twice.  Its additive group is free abelian on the
monomials with pairwise-distinct variables, so elements are stored as
sparse integer maps keyed by monomials.  A monomial is a tuple of variable
positions (indices into `Ring.variables`), so tuples compare, sort and
hash as plain ints; names appear only at the boundary, where `Ring.gen`,
`Ring.monomial`, `Ring.element` and `RingElement.coefficient` take them
and `format_ring_element` prints them.  Coefficients are exact Python
ints of unbounded magnitude.  Scans of words work on bare term dicts in
place (`mul_linear`, `add_scaled`) and wrap the result in a `RingElement`
once.

>>> R = Ring(("m1", "m2"))
>>> y1, y2 = R.gen("m1"), R.gen("m2")
>>> str((1 + y2) * (1 - y2))
'1'
>>> str(y1 * y2 + y2 * y1)
'y1*y2 + y2*y1'
"""

from __future__ import annotations

import math
import re

from .errors import UniverseMismatchError

# variable positions, e.g. (1, 0) is y2*y1 in Ring(("m1", "m2"))
Monomial = tuple[int, ...]


def basis_rank(s: int) -> int:
    """Number of basis monomials of R on s variables: sum of s!/(s-k)!."""
    if s < 0:
        raise ValueError("variable count must be >= 0")
    return sum(math.perm(s, k) for k in range(s + 1))


_M_NAME = re.compile(r"m(\d+)\Z")


def variable_display(name: str) -> str:
    """Display name of a variable: the meridian mK expands to yK."""
    m = _M_NAME.match(name)
    return "y" + m.group(1) if m else name


class Ring:
    """R over an ordered tuple of named variables."""

    __slots__ = ("variables", "_pos")

    def __init__(self, variables):
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate ring variables: %r" % (self.variables,))
        self._pos = {v: i for i, v in enumerate(self.variables)}

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
        return RingElement(self, {(): 1})

    def gen(self, name: str) -> RingElement:
        return RingElement(self, {self.monomial((name,)): 1})

    def monomial(self, names) -> Monomial:
        """The monomial of a sequence of variable names."""
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("monomial repeats a variable: %r" % (names,))
        for v in names:
            if v not in self._pos:
                raise UniverseMismatchError("%r is not a variable of %r" % (v, self))
        return tuple(map(self._pos.__getitem__, names))

    def element(self, terms) -> RingElement:
        """Build an element from a {names: coefficient} mapping."""
        clean = {}
        for mono, coeff in terms.items():
            mono = self.monomial(mono)
            if coeff:
                clean[mono] = clean.get(mono, 0) + coeff
        return RingElement(self, {m: c for m, c in clean.items() if c})


class RingElement:
    """A sparse integer combination of squarefree monomials.

    Values are immutable by convention: arithmetic always allocates.
    Plain ints coerce to constants, so ``1 + y2`` works.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict):
        self.ring = ring
        self.terms = terms

    def _coerce(self, other):
        if isinstance(other, int):
            return RingElement(self.ring, {(): other} if other else {})
        if isinstance(other, RingElement):
            if other.ring != self.ring:
                raise UniverseMismatchError(
                    "mixed universes: %r vs %r" % (self.ring, other.ring))
            return other
        return None

    def coefficient(self, names) -> int:
        """Coefficient of the monomial of these variable names (0 if a name
        is not a variable of the ring)."""
        pos = self.ring._pos
        # -1 stands for a name outside the ring and matches no monomial
        return self.terms.get(tuple(pos.get(v, -1) for v in names), 0)

    @property
    def constant_term(self) -> int:
        return self.terms.get((), 0)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def support(self):
        """Monomials with nonzero coefficient, in degree-then-position
        order."""
        return sorted(sorted(self.terms), key=len)

    def min_positive_degree(self):
        """Smallest degree of a nonzero nonconstant term, else None."""
        degs = [len(m) for m in self.terms if m]
        return min(degs) if degs else None

    def embed(self, ring: Ring) -> RingElement:
        """The same element in a ring whose variables contain ours."""
        missing = set(self.ring.variables) - set(ring.variables)
        if missing:
            raise UniverseMismatchError(
                "cannot embed: variables %s missing from %r" % (sorted(missing), ring))
        to = tuple(map(ring._pos.__getitem__, self.ring.variables))
        return RingElement(ring, {tuple(map(to.__getitem__, m)): c
                                  for m, c in self.terms.items()})

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
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
        if isinstance(other, int):
            if not other:
                return self.ring.zero
            return RingElement(self.ring, {m: c * other for m, c in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = {}
        right = [(m2, c2, _mask(m2)) for m2, c2 in other.terms.items()]
        for m1, c1 in self.terms.items():
            used = _mask(m1)
            for m2, c2, vars2 in right:
                if used & vars2:
                    continue  # repeated variable: the monomial dies in R
                mono = m1 + m2
                c = out.get(mono, 0) + c1 * c2
                if c:
                    out[mono] = c
                else:
                    del out[mono]
        return RingElement(self.ring, out)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __str__(self):
        return format_ring_element(self)

    def __repr__(self):
        return "<RingElement %s>" % format_ring_element(self)


def _mask(mono: Monomial) -> int:
    """The set of a monomial's variables as a bitmask over positions."""
    mask = 0
    for i in mono:
        mask |= 1 << i
    return mask


def add_scaled(terms: dict, other: dict, e: int) -> None:
    """terms += e * other, in place on {monomial: coeff} dicts; drops zeros."""
    for mono, coeff in other.items():
        c = terms.get(mono, 0) + e * coeff
        if c:
            terms[mono] = c
        else:
            terms.pop(mono, None)


def mul_linear(terms: dict, g: int, e: int) -> None:
    """terms *= 1 + e*y_g, in place on a {monomial: coeff} dict, where g is
    a variable position.

    Only monomials without g gain a term (m * y_g dies in R when m has g),
    and the new keys all contain g, so iterating over a snapshot of the
    keys that lack g reads each coefficient before anything changes it.
    """
    for mono in [m for m in terms if g not in m]:
        key = mono + (g,)
        c = terms.get(key, 0) + e * terms[mono]
        if c:
            terms[key] = c
        else:
            del terms[key]


def format_ring_element(elem: RingElement, display=variable_display) -> str:
    """Serialize as a signed monomial sum, e.g. ``1 + y2*y3 - y3*y2``."""
    if not elem.terms:
        return "0"
    name = [display(v) for v in elem.ring.variables].__getitem__
    parts = []
    for mono in elem.support():
        coeff = elem.terms[mono]
        body = "*".join(map(name, mono)) if mono else "1"
        mag = abs(coeff)
        if mag != 1 or not mono:
            body = str(mag) if not mono else "%d*%s" % (mag, body)
        if not parts:
            parts.append(body if coeff > 0 else "-" + body)
        else:
            parts.append((" + " if coeff > 0 else " - ") + body)
    return "".join(parts)
