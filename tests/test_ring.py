import math
import random
import sys
import tracemalloc
from itertools import chain, islice, permutations

import pytest
from hypothesis import given, strategies as st

from mgk.errors import UniverseMismatchError
from mgk.milnor import default_alphabet, magnus, normal_form
from mgk.ring import (Ring, RingElement, basis_rank, format_ring_element,
                      scan, variable_display)
from mgk.words import Word

from helpers import (decode_monomial, format_named_terms, free_mul,
                     named_terms, reference_format_ring_element,
                     reference_monomial_key, reference_mul, squarefree)

VARS = ("m1", "m2", "m3", "m4")
R = Ring(VARS)


def elements(ring=R, max_coeff=4):
    monos = st.lists(st.sampled_from(ring.variables), unique=True,
                     max_size=len(ring.variables)).map(tuple)
    return st.dictionaries(monos, st.integers(-max_coeff, max_coeff),
                           max_size=5).map(ring.element)


def test_additive_inverse():
    y1 = R.gen("m1")
    assert y1 + (-y1) == R.zero
    assert not (y1 - y1).terms


def test_distinct_order_monomials_both_kept():
    y1, y2 = R.gen("m1"), R.gen("m2")
    s = y1 * y2 + y2 * y1
    assert s.coefficient(("m1", "m2")) == 1
    assert s.coefficient(("m2", "m1")) == 1


def test_unit():
    assert R.one + R.zero == R.one
    assert R.one * R.one == R.one


def test_square_kills():
    y1 = R.gen("m1")
    assert not (y1 * y1).terms
    y2 = R.gen("m2")
    assert (1 + y2) * (1 - y2) == R.one


def test_four_factor_product_matches_free_ring_oracle():
    # (1+y2)(1+y3)(1-y2)(1-y3), expanded independently in the free ring
    oracle = squarefree(free_mul([
        {(): 1, ("m2",): 1}, {(): 1, ("m3",): 1},
        {(): 1, ("m2",): -1}, {(): 1, ("m3",): -1}]))
    y2, y3 = R.gen("m2"), R.gen("m3")
    got = (1 + y2) * (1 + y3) * (1 - y2) * (1 - y3)
    assert named_terms(got) == oracle
    assert got == 1 + y2 * y3 - y3 * y2


@given(elements(), elements(), elements())
def test_ring_axioms(u, v, w):
    assert (u * v) * w == u * (v * w)
    assert u * (v + w) == u * v + u * w
    assert (u + v) * w == u * w + v * w
    assert u + v == v + u
    assert u * 1 == u and 1 * u == u


@given(elements(), elements())
def test_products_stay_squarefree(u, v):
    for mono in named_terms(u * v):
        assert len(set(mono)) == len(mono)


def _unchecked_mul(u, v):
    """u * v with the repeated-variable test left out: a monomial with a
    variable twice keeps both digits, and the masks join."""
    if isinstance(v, int):
        return RingElement(u.ring, {m: c * v for m, c in u.terms.items() if c * v})
    n, w = len(u.ring.variables), u.ring.width
    out = {}
    for m1, c1 in u.terms.items():
        for m2, c2 in v.terms.items():
            digits2 = m2 >> n
            count2 = -(-digits2.bit_length() // w) if digits2 else 0
            mono = ((m1 >> n) << w * count2 | digits2) << n | (m1 | m2) & (1 << n) - 1
            out[mono] = out.get(mono, 0) + c1 * c2
    return RingElement(u.ring, {m: c for m, c in out.items() if c})


def test_ring_axiom_check_rejects_a_repeated_digit(monkeypatch):
    from mgk import verify
    y1, y2 = R.gen("m1"), R.gen("m2")
    repeated = ((1 << R.width | 1) << len(VARS)) | 1  # y1, y1 over y1's mask
    assert R.positions(repeated) == (0,)  # reads as squarefree when decoded
    u, v, w = y1 + 1, y1 - y2, y2
    assert verify._ring_axioms_hold(u, v, w)
    monkeypatch.setattr(RingElement, "__mul__", _unchecked_mul)
    assert repeated in (u * v).terms
    # the identities still hold, so only the squarefree test can fail
    assert (u * v) * w == u * (v * w) and u * (v + w) == u * v + u * w
    assert (u + v) * w == u * w + v * w and u * 1 == u and 1 * u == u
    assert not verify._ring_axioms_hold(u, v, w)


@given(elements(), elements())
def test_product_matches_free_ring_oracle(u, v):
    oracle = squarefree(free_mul([named_terms(u), named_terms(v)])) \
        if u.terms and v.terms else {}
    assert named_terms(u * v) == oracle


# Alphabets whose name order differs from position order: by name, m10
# sorts before m2, and a before c.
M12 = Ring(default_alphabet(12))
CAB = Ring(("c", "a", "b"))


def named_pairs(ring, max_degree=5):
    """Two elements of the ring, built from name-keyed term dicts."""
    monos = st.lists(st.sampled_from(ring.variables), unique=True,
                     max_size=max_degree).map(tuple)
    terms = st.dictionaries(monos, st.integers(-4, 4), max_size=6)
    return st.tuples(terms, terms).map(
        lambda p: tuple(ring.element(t) for t in p))


@given(st.sampled_from([M12, CAB]).flatmap(named_pairs))
def test_position_keyed_ring_matches_name_keyed_reference(pair):
    u, v = pair
    variables = u.ring.variables
    nu, nv = named_terms(u), named_terms(v)
    assert named_terms(u * v) == reference_mul(nu, nv)
    total = dict(nu)
    for mono, c in nv.items():
        total[mono] = total.get(mono, 0) + c
    assert named_terms(u + v) == {m: c for m, c in total.items() if c}
    for elem in (u, v, u * v, u - v):
        assert format_ring_element(elem) == format_named_terms(
            variables, named_terms(elem))
    names = [decode_monomial(variables, m) for m in u.support()]
    assert names == sorted(nu, key=lambda m: reference_monomial_key(variables, m))
    for mono, c in nu.items():
        assert u.coefficient(mono) == c
    assert u.coefficient(("zz",)) == 0
    assert u.coefficient((variables[0], "zz")) == 0


@given(named_pairs(CAB))
def test_embed_into_reordered_ring_keeps_names(pair):
    u, v = pair
    big = Ring(("a", "x", "m3", "b", "c"))
    eu, ev = u.embed(big), v.embed(big)
    assert named_terms(eu) == named_terms(u)
    assert named_terms(eu * ev) == named_terms(u * v)
    assert format_ring_element(eu) == format_named_terms(
        big.variables, named_terms(u))
    assert eu.coefficient(("x",)) == 0 and eu.coefficient(("a", "b")) == \
        u.coefficient(("a", "b"))


def packed_rings():
    """A ring of 0..17 variables, and up to 12 of its monomials as
    position tuples."""
    def monomials(ring):
        n = len(ring.variables)
        mono = st.lists(st.integers(0, n - 1), unique=True, max_size=n)
        return st.tuples(st.just(ring), st.lists(mono.map(tuple), max_size=12)
                         if n else st.just([()]))
    return st.integers(0, 17).map(
        lambda n: Ring("v%d" % i for i in range(n))).flatmap(monomials)


@given(packed_rings())
def test_packed_monomials_round_trip_sort_and_count_degree(case):
    ring, monos = case
    n = len(ring.variables)
    keys = [ring.pack(p) for p in monos]
    for p, key in zip(monos, keys):
        assert ring.positions(key) == p
        names = tuple(ring.variables[i] for i in p)
        assert decode_monomial(ring.variables, key) == names
        assert ring.monomial(names) == key
        assert (key & (1 << n) - 1).bit_count() == len(p)  # the degree
        assert ring.degree(key) == len(p)
    assert len(set(keys)) == len(set(monos))
    elem = ring.element({decode_monomial(ring.variables, k): 1 for k in keys})
    assert [decode_monomial(ring.variables, k) for k in sorted(elem.terms)] \
        == sorted(named_terms(elem), key=lambda m: reference_monomial_key(
            ring.variables, m))


@given(elements())
def test_coefficient_of_a_repeated_or_unknown_name_is_zero(u):
    u = u + 1 + R.gen("m1")  # most draws now have the terms 1 and y1
    for names in (("m1", "m1"), ("m1", "m2", "m1"), ("zz",), ("m1", "zz"),
                  ("zz", "zz")):
        assert u.coefficient(names) == 0
    assert u.coefficient(("m1",)) == named_terms(u).get(("m1",), 0)


def test_universe_mismatch():
    other = Ring(("z1",))
    with pytest.raises(UniverseMismatchError):
        R.one + other.one
    with pytest.raises(UniverseMismatchError):
        R.gen("z1")


def test_non_ring_operands_are_not_implemented():
    y1 = R.gen("m1")
    for op in (lambda: y1 + "a", lambda: y1 - "a", lambda: y1 * "a"):
        with pytest.raises(TypeError):
            op()
    assert y1.__eq__("a") is NotImplemented
    assert not y1 == "a" and y1 != "a"


@given(elements(), elements())
def test_equal_elements_hash_alike(u, v):
    w = u + v - v  # equal to u, built apart
    assert w is not u and w == u and hash(w) == hash(u)
    assert len({u, w, v}) == (1 if u == v else 2)


def test_a_constant_hashes_as_its_int():
    assert len({R.one, 1}) == 1 and {R.one: "a"}.get(1) == "a"
    assert hash(R.zero) == hash(0) and hash(R.one - 3) == hash(-2)


def test_elements_of_two_rings_are_unequal():
    other = Ring(("z1",))
    assert other.gen("z1") != R.gen("m1") and not other.gen("z1") == R.gen("m1")
    assert other.one + other.gen("z1") != R.one + R.gen("m1")
    assert len({R.gen("m1"), other.gen("z1")}) == 2


def test_a_constant_equals_its_int_in_every_ring():
    # so == is transitive: a set's size does not depend on insertion order
    other = Ring(("z1",))
    assert len({R.one, other.one, 1}) == 1 and len({1, R.one, other.one}) == 1
    assert R.zero == other.zero and R.one - 3 == other.one * -2


def test_repr_names_the_element():
    y1, y2 = R.gen("m1"), R.gen("m2")
    assert repr(1 + y1 * y2 - 2 * y2) == "<RingElement 1 - 2*y2 + y1*y2>"
    assert repr(R.zero) == "<RingElement 0>"


def test_embed():
    small = Ring(("m2",))
    big = Ring(("m1", "m2", "m3"))
    assert small.gen("m2").embed(big) == big.gen("m2")
    with pytest.raises(UniverseMismatchError):
        big.gen("m1").embed(small)


def test_basis_rank():
    assert basis_rank(0) == 1
    assert basis_rank(2) == 5
    assert basis_rank(3) == 16
    with pytest.raises(ValueError, match="^variable count must be >= 0$"):
        basis_rank(-1)


def test_ring_variables_are_distinct():
    with pytest.raises(ValueError,
                       match=r"^duplicate ring variables: \('m1', 'm1'\)$"):
        Ring(("m1", "m1"))


def test_formatting():
    y1, y2 = R.gen("m1"), R.gen("m2")
    assert format_ring_element(R.zero) == "0"
    assert format_ring_element(R.one) == "1"
    assert format_ring_element(1 + y1 * y2 - y2 * y1) == "1 + y1*y2 - y2*y1"
    assert format_ring_element(-2 * y1) == "-2*y1"
    assert variable_display("m12") == "y12"
    assert variable_display("z2") == "z2"
    assert variable_display("lambda") == "lambda"


def test_formatting_frozen_s5_expansion():
    e = magnus(Word.parse("[m5^2 m1, m3] m4^2 [m2,m4]"), default_alphabet(5))
    assert format_ring_element(e) == (
        "1 + 2*y4 + y1*y3 + y2*y4 - y3*y1 - 2*y3*y5 - y4*y2 + 2*y5*y3"
        " + 2*y1*y3*y4 - 2*y1*y3*y5 - 2*y3*y1*y4 + 2*y3*y1*y5 - 4*y3*y5*y4"
        " + 2*y5*y1*y3 - 2*y5*y3*y1 + 4*y5*y3*y4 + y1*y3*y2*y4 - y1*y3*y4*y2"
        " - 4*y1*y3*y5*y4 - y3*y1*y2*y4 + y3*y1*y4*y2 + 4*y3*y1*y5*y4"
        " - 2*y3*y5*y2*y4 + 2*y3*y5*y4*y2 + 4*y5*y1*y3*y4 - 4*y5*y3*y1*y4"
        " + 2*y5*y3*y2*y4 - 2*y5*y3*y4*y2 - 2*y1*y3*y5*y2*y4"
        " + 2*y1*y3*y5*y4*y2 + 2*y3*y1*y5*y2*y4 - 2*y3*y1*y5*y4*y2"
        " + 2*y5*y1*y3*y2*y4 - 2*y5*y1*y3*y4*y2 - 2*y5*y3*y1*y2*y4"
        " + 2*y5*y3*y1*y4*y2")


def test_formatting_other_variable_names():
    ring = Ring(("z1", "w", "m2"))
    z, w, y = ring.gen("z1"), ring.gen("w"), ring.gen("m2")
    assert format_ring_element((1 + z) * (1 - w) * (1 + 2 * y)) == (
        "1 + z1 - w + 2*y2 - z1*w + 2*z1*y2 - 2*w*y2 - 2*z1*w*y2")
    assert format_ring_element(w * z - 3 * y * w) == "w*z1 - 3*y2*w"


@pytest.mark.parametrize("s", range(1, 10))
def test_a_capped_scan_is_the_full_scan_up_to_the_cap(s):
    # R -> R/(degree > cap) is a ring map, so the capped (running, rho) is
    # the full scan's terms of degree <= cap, with kernel letters (at
    # position s) or without, and no monomial of higher degree is formed
    rng = random.Random("scan/cap/%d" % s)
    degree = Ring(default_alphabet(s)).degree
    for kernel in (0, 1):
        for _ in range(3):
            letters = [(rng.randrange(s + kernel), rng.choice((-2, -1, 1, 1, 2)))
                       for _ in range(rng.randint(s, 3 * s))]
            full = scan(letters, s)
            for cap in range(1, s + 1):
                running, rho = scan(letters, s, cap)
                assert (running, rho) == tuple(
                    {m: c for m, c in terms.items() if degree(m) <= cap}
                    for terms in full), (letters, cap)
                assert len(running) <= sum(math.perm(s, j) for j in range(cap + 1))
            for cap in (s + 1, sys.maxsize + 1):  # past s, a cap caps nothing
                assert scan(letters, s, cap) == full


def block_word(rng, s, r):
    """r blocks, each all s generators in a shuffled order with random
    signs: the shapes of the benchmark's expand workload."""
    letters = []
    for _ in range(r):
        gens = ["m%d" % (g + 1) for g in range(s)]
        rng.shuffle(gens)
        letters += [(g, rng.choice((1, -1))) for g in gens]
    return Word(tuple(letters))


def seeded_elements(ring, rng):
    """The edge cases of the formatter, then random sparse elements."""
    n, pack = len(ring.variables), ring.pack
    cases = [ring.zero, ring.one, 3 * ring.one, -2 * ring.one,
             -5 * ring.one, RingElement(ring, {0: -10 ** 31})]
    if n >= 1:  # negative leading terms of degree 1; 30+ digit coefficients
        cases += [RingElement(ring, {pack((n - 1,)): -1, pack((0,)): 5}),
                  RingElement(ring, {pack((0,)): -1}),
                  RingElement(ring, {pack((0,)): -4, pack((n - 1,)): 1}),
                  RingElement(ring, {0: 10 ** 30 + 7, pack((0,)): -3 ** 70,
                                     pack((n - 1,)): 2 ** 111})]
    if n >= 2:  # no term of degree 0 or 1, a negative leading term
        cases.append(RingElement(ring, {pack((1, 0)): -4, pack((0, 1)): 7,
                                        pack((n - 1, 0)): -1}))
    if n >= 3:  # degree 2 skipped, and a prefix (2, 1) that is no term
        cases.append(RingElement(ring, {0: -1, pack((1,)): 1,
                                        pack((2, 1, 0)): -7}))
    if n >= 5:  # 300 distinct coefficients, then repeats, past the 256 kept
        monos = islice(chain.from_iterable(
            permutations(range(n), k) for k in range(n + 1)), 400)
        cases.append(RingElement(ring, {
            pack(p): (i % 300 + 2) * (-1) ** i for i, p in enumerate(monos)}))
    for _ in range(30):
        terms = {}
        for _ in range(rng.randint(1, 40)):
            mono = pack(rng.sample(range(n), rng.randint(0, min(n, 6))))
            terms[mono] = rng.choice((-3, -2, -1, 1, 1, 1, 2, 5))
        cases.append(RingElement(ring, terms))
    return cases


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 33, 100])
def test_formatter_matches_the_two_dict_formatter(n):
    rng = random.Random("format/%d" % n)
    others = ("z2", "lambda") + tuple("m%d" % (i + 5) for i in range(n))
    for names in (default_alphabet(n), others[:n]):
        ring = Ring(names)
        assert ring.width == n.bit_length()
        for elem in seeded_elements(ring, rng):
            assert format_ring_element(elem) == \
                reference_format_ring_element(elem)


@pytest.mark.parametrize("s", [6, 7, 8])
def test_formatter_matches_the_two_dict_formatter_on_block_words(s):
    rng = random.Random("format/blocks/%d" % s)
    for r in (2, 3, 4):
        word = block_word(rng, s, r)
        alphabet = default_alphabet(s)
        elems = [magnus(word, alphabet)]
        elems += normal_form(word, alphabet).components
        for elem in elems:
            assert format_ring_element(elem) == \
                reference_format_ring_element(elem)


@pytest.mark.parametrize("s, distinct", [(7, False), (8, False), (8, True)],
                         ids=["7", "8", "8-distinct"])
def test_formatter_peak_memory_is_a_small_multiple_of_its_text(s, distinct):
    # the expand workload's first 4-block shape for s; the two-dict
    # formatter peaked at 9.4 and 8.0 times its text here.  With every
    # coefficient distinct, a coefficient-text table without its cap
    # peaked at 6.3 times
    word = block_word(random.Random("expand/%d/%d/4" % ((38, 49)[s - 7], s)),
                      s, 4)
    elem = magnus(word, default_alphabet(s))
    if distinct:
        elem = RingElement(elem.ring, {
            mono: (i + 2) * (-1) ** i for i, mono in enumerate(elem.terms)})
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        text = format_ring_element(elem)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 4 * len(text), (peak, len(text))
