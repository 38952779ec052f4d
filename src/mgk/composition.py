"""Link composition at the word level, the sigma ring map, and the
essentiality certificate.

Composing a pattern Q into a link replaces the target component: every
occurrence of the target's meridian in the remaining longitudes becomes
the wedge word, and every core-symbol letter in Q's longitudes becomes
the target's own longitude, which never holds the target's meridian.  The
embedding is 0-framed, so no correction letters are inserted.

Lemma: composition is a ring map on Magnus expansions.  If every two
nonconstant terms of M(wedge) share a variable, the sigma of R that sends
the target's y_t to M(wedge) - 1 and fixes every other variable is a ring
map, and M(composed longitude) = sigma(M(ambient longitude)) off the
target.  Proof: M turns the substitution into y_t -> M(wedge) - 1 on power
series; a monomial repeating a variable goes to terms that repeat it or
hold two terms of M(wedge) - 1, so all die in R.  On kernel coordinates
sigma multiplies by r^{-1}(wedge) on the right, exactly in the Milnor
group for a kernel wedge: what `verify_sigma` sweeps and c = a*b rests on.

The certificate reads a, b and c as three top mu-bar coefficients: a
kernel coordinate of the tower is the projection of the Magnus expansion
(see `mgk.milnor`), so each is one chain scan.  It composes no link: the
one composed word c needs is the first ambient longitude with the target
meridian replaced by the wedge word.  No kernel refusal is left to make:
once the ambient link and the pattern with its wedge are almost trivial,
deleting the distinguished meridian trivializes the first ambient
longitude, the wedge word and hence the composed longitude in the Milnor
group, because the Magnus expansion is injective on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple

from .errors import CompositionError
from .links import LinkModel, SolidTorusLink, is_almost_trivial
from .milnor import magnus_coefficient, r_inverse, r_map
from .ring import Ring, RingElement, format_ring_element
from .sampling import random_ring_element

__all__ = [
    "CompositionSpec", "compose", "wedge_ring_element", "verify_sigma",
    "essentiality_certificate", "Certificate",
]


@dataclass(frozen=True)
class CompositionSpec:
    """Ambient link with k+1 components, a pattern with m components, and
    the target component to replace (default: the last one)."""

    lhat: LinkModel
    q: SolidTorusLink
    target: int | None = None

    def __post_init__(self):
        if isinstance(self.lhat, SolidTorusLink):
            raise CompositionError(
                "the ambient link cannot be a solid-torus pattern")
        if not isinstance(self.q, SolidTorusLink):
            raise CompositionError("the pattern must carry a wedge word")
        t = self.target_index
        if not 0 <= t < self.lhat.n:
            raise CompositionError("target component out of range")
        clash = set(self.lhat.meridians) & set(self.q.meridians)
        if clash:
            raise CompositionError(
                "meridian alphabets collide: %s" % sorted(clash))
        if set(self.lhat.components) & set(self.q.components):
            raise CompositionError("component names collide")
        if self.q.core_symbol in self.lhat.meridians:
            raise CompositionError("core symbol clashes with the ambient link")

    @property
    def target_index(self) -> int:
        return (self.lhat.n - 1) if self.target is None else self.target - 1


def compose(spec: CompositionSpec) -> LinkModel:
    """The composed link: ambient components keep their names, with the
    target meridian replaced by the wedge word; pattern components follow,
    with the core symbol replaced by the target's longitude."""
    lhat, q = spec.lhat, spec.q
    t = spec.target_index
    mer_t, around = lhat.meridians[t], lhat.longitudes[t]
    keep = [i for i in range(lhat.n) if i != t]
    components = tuple(lhat.components[i] for i in keep) + q.components
    meridians = tuple(lhat.meridians[i] for i in keep) + q.meridians
    longitudes = tuple(lhat.longitudes[i].substitute(mer_t, q.wedge) for i in keep)
    longitudes += tuple(w.substitute(q.core_symbol, around) for w in q.longitudes)
    return LinkModel(components, meridians, longitudes)


def wedge_ring_element(q: SolidTorusLink) -> RingElement:
    """r^{-1} of the wedge word over z2..zm, z1: the kernel generator is
    always last, and here it is component 1's meridian.  Raises
    NotInKernelError when deleting z1 does not trivialize the wedge word
    (it does when the pattern-with-wedge minus component 1 is trivial).
    """
    return r_inverse(q.wedge, q.meridians[1:] + q.meridians[:1])


def _sigma_alphabets(spec: CompositionSpec):
    """Alphabets with ambient component 1 deleted throughout: the y-side
    meridians, the kernel alphabet upstairs and downstairs, and the
    pattern's z-side split."""
    lhat, q = spec.lhat, spec.q
    t = spec.target_index
    if t == 0:
        raise CompositionError("component 1 is deleted throughout; "
                               "it cannot be the target")
    ys = tuple(lhat.meridians[i] for i in range(1, lhat.n) if i != t)
    bar_alphabet = ys + (lhat.meridians[t],)
    zs_rest = q.meridians[1:]
    big_alphabet = ys + zs_rest + (q.meridians[0],)
    return ys, bar_alphabet, zs_rest, big_alphabet


def verify_sigma(spec: CompositionSpec, trials=100, seed=0) -> dict:
    """Sweep the multiplication law: over the composed alphabets (ambient
    component 1 deleted, pattern component 1's meridian distinguished),
    r^{-1}(lc(r(rho))) must equal rho * r^{-1}(wedge) for every generator
    monomial and for random ring elements rho.  Returns a report dict.
    """
    q = spec.q
    ys, bar_alphabet, zs_rest, big_alphabet = _sigma_alphabets(spec)
    y_ring = Ring(ys)
    big_ring = Ring(ys + zs_rest)
    wedge_elem = wedge_ring_element(q).embed(big_ring)

    rng = random.Random(seed)
    samples = [y_ring.gen(y) for y in ys]
    samples += [random_ring_element(rng, y_ring) for _ in range(trials)]

    cases = []
    for i, rho in enumerate(samples):
        lifted = r_map(rho, bar_alphabet).substitute(bar_alphabet[-1], q.wedge)
        got = r_inverse(lifted, big_alphabet)
        want = rho.embed(big_ring) * wedge_elem
        ok = got == want
        if not ok or i < len(ys):
            cases.append({
                "input": format_ring_element(rho),
                "expected": format_ring_element(want),
                "actual": format_ring_element(got),
                "status": "pass" if ok else "fail",
            })
    failures = sum(c["status"] == "fail" for c in cases)  # all are listed
    return {
        "command": "verify sigma",
        "config": {"seed": seed, "trials": trials,
                   "wedge": str(q.wedge),
                   "wedge_element": format_ring_element(wedge_elem)},
        "cases": cases,
        "summary": {"total": len(samples), "passed": len(samples) - failures,
                    "failed": failures,
                    "status": "pass" if failures == 0 else "fail"},
    }


class Certificate(NamedTuple):
    a: int
    b: int
    c: int


def essentiality_certificate(spec: CompositionSpec) -> Certificate:
    """Bottom-degree certificate for essentiality of the composed link:
    three top mu-bar coefficients, each one chain scan
    (`magnus_coefficient`), with ambient component 1 deleted throughout.

    a: coefficient of ys*y_t in the Magnus expansion of the first ambient
       component's longitude (y_t the target's meridian);
    b: coefficient of zs_rest*z_1 in that of the wedge word;
    c: coefficient of ys*zs_rest*z_1 in that of the composed first
       longitude, the first ambient longitude with y_t replaced by the wedge.
    The contract c = a*b holds exactly; both almost-triviality
    preconditions are checked and failure refuses the certificate.
    """
    lhat, q = spec.lhat, spec.q
    if lhat.n < 2:
        raise CompositionError(
            "certificate refused: the ambient link needs a deleted "
            "component besides the target")
    if not is_almost_trivial(lhat):
        raise CompositionError(
            "certificate refused: the ambient link is not almost "
            "homotopically trivial")
    if not is_almost_trivial(q):
        raise CompositionError(
            "certificate refused: the pattern with its wedge is not almost "
            "homotopically trivial")
    _, bar_alphabet, zs_rest, big_alphabet = _sigma_alphabets(spec)
    composed = lhat.longitudes[0].substitute(bar_alphabet[-1], q.wedge)
    return Certificate(a=magnus_coefficient(lhat.longitudes[0], bar_alphabet),
                       b=magnus_coefficient(q.wedge, zs_rest + q.meridians[:1]),
                       c=magnus_coefficient(composed, big_alphabet))
