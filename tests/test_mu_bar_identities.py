"""Milnor's identities among the mu-bar invariants, as oracles at scale.

On the composed iterated Bing doubles of `helpers.iterated_bing_specs`
(depth d = 1..10, so 4 to 13 components) every mu-bar of length below the
component count n vanishes, and the first non-vanishing ones, of length n,
satisfy two classical identities (Milnor, *Isotopy of links*, 1957):
cyclic symmetry and the shuffle relations.  Each identity ties the chain
scans of `mu_bar` on one longitude to those on the others, so a wrong
substitution in `compose` breaks them.  The same numbers are read two
more ways, as `r_inverse` kernel coordinates and as the certificate's c.
These identities hold for models of real links only, so every link here
is composed from the catalog.
"""

import itertools
import random

import pytest

from helpers import iterated_bing_specs
from mgk.composition import compose, essentiality_certificate
from mgk.links import mu_bar
from mgk.milnor import default_alphabet, magnus_coefficient, r_inverse
from mgk.sampling import random_word

DEPTHS = range(1, 11)


@pytest.fixture(scope="module")
def composed():
    """(spec, composed link) for each depth in DEPTHS."""
    return [(spec, compose(spec))
            for spec in iterated_bing_specs(max(DEPTHS))]


def shuffles(first, second):
    """Every interleaving of two sequences, each keeping its own order."""
    n = len(first) + len(second)
    for spots in itertools.combinations(range(n), len(first)):
        a, b = iter(first), iter(second)
        yield tuple(next(a) if k in spots else next(b) for k in range(n))


def test_the_doubles_have_the_expected_sizes(composed):
    assert [link.n for _, link in composed] == [d + 3 for d in DEPTHS]
    assert max(len(w) for w in composed[-1][1].longitudes) == 6142


def test_top_mu_bar_is_invariant_under_rotation(composed):
    # the n rotations of one order run through every longitude
    rng = random.Random(1957)
    for _, link in composed:
        n = link.n
        orders = [list(range(1, n + 1))]
        orders += [rng.sample(range(1, n + 1), n) for _ in range(5)]
        for order in orders:
            values = {mu_bar(link, order[r:] + order[:r]) for r in range(n)}
            assert len(values) == 1, (n, order, values)
        assert abs(mu_bar(link, orders[0])) == 1


def test_shuffle_relations_on_the_doubles(composed):
    # sum over H in Sh(I, J) of mu(H j) = mu(I j) * mu(J j); both sides
    # vanish here, since every mu-bar shorter than n does
    rng = random.Random(1990)
    checked = 0
    for _, link in composed:
        n = link.n
        if n > 7:
            continue
        for j in range(1, n + 1):
            rest = [i for i in range(1, n + 1) if i != j]
            for _ in range(12):
                seq = rng.sample(rest, rng.randint(2, n - 1))
                cut = rng.randint(1, len(seq) - 1)
                first, second = seq[:cut], seq[cut:]
                total = sum(mu_bar(link, h + (j,))
                            for h in shuffles(first, second))
                product = mu_bar(link, first + [j]) * mu_bar(link, second + [j])
                assert total == product == 0, (n, first, second, j)
                checked += 1
    assert checked == 12 * (4 + 5 + 6 + 7)


def test_shuffle_relations_hold_for_any_word():
    # the Magnus expansion of a group element is group-like, so its
    # coefficients multiply by the shuffle product
    rng = random.Random(1954)
    alphabet = default_alphabet(6)
    nonzero = 0
    for _ in range(300):
        word = random_word(rng, alphabet, max_len=30)
        seq = rng.sample(alphabet, rng.randint(2, 6))
        cut = rng.randint(1, len(seq) - 1)
        first, second = seq[:cut], seq[cut:]
        product = (magnus_coefficient(word, first)
                   * magnus_coefficient(word, second))
        assert sum(magnus_coefficient(word, h)
                   for h in shuffles(first, second)) == product, (word, seq)
        nonzero += product != 0
    assert nonzero > 50


def test_kernel_coordinates_are_the_top_mu_bars(composed):
    # deleting meridian k, longitude j's coordinate is
    # sum over orders i_1..i_(n-2) of the rest of mu(i_1..i_(n-2) k j) y_i1..
    for _, link in composed[:5]:
        names = link.meridians
        for j, k in itertools.permutations(range(link.n), 2):
            rest = [names[i] for i in range(link.n) if i not in (j, k)]
            rho = r_inverse(link.longitudes[j], rest + [names[k]])
            want = {order: magnus_coefficient(link.longitudes[j],
                                              order + (names[k],))
                    for order in itertools.permutations(rest)}
            assert rho == rho.ring.element(want), (link.n, j, k)
            assert any(want.values())


def test_certificate_c_is_a_top_mu_bar_of_the_composed_link(composed):
    # c reads the first longitude along the ambient meridians left after
    # deleting component 1 and the target, then the pattern's, z_1 last
    for spec, link in composed:
        kept = link.components[1:spec.lhat.n - 1]
        pattern = spec.q.components
        order = kept + pattern[1:] + pattern[:1] + link.components[:1]
        assert len(order) == link.n
        assert essentiality_certificate(spec).c == mu_bar(link, order) == -1
