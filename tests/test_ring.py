import pytest
from hypothesis import given, strategies as st

from mgk.errors import UniverseMismatchError
from mgk.milnor import default_alphabet, magnus
from mgk.ring import Ring, basis_rank, format_ring_element, variable_display
from mgk.words import Word

from helpers import free_mul, squarefree

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
    assert (y1 - y1).is_zero


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
    assert (y1 * y1).is_zero
    y2 = R.gen("m2")
    assert (1 + y2) * (1 - y2) == R.one


def test_four_factor_product_matches_free_ring_oracle():
    # (1+y2)(1+y3)(1-y2)(1-y3), expanded independently in the free ring
    oracle = squarefree(free_mul([
        {(): 1, ("m2",): 1}, {(): 1, ("m3",): 1},
        {(): 1, ("m2",): -1}, {(): 1, ("m3",): -1}]))
    y2, y3 = R.gen("m2"), R.gen("m3")
    got = (1 + y2) * (1 + y3) * (1 - y2) * (1 - y3)
    assert got.terms == oracle
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
    for mono in (u * v).terms:
        assert len(set(mono)) == len(mono)


@given(elements(), elements())
def test_product_matches_free_ring_oracle(u, v):
    oracle = squarefree(free_mul([u.terms or {}, v.terms or {}])) \
        if u.terms and v.terms else {}
    assert (u * v).terms == oracle


def test_universe_mismatch():
    other = Ring(("z1",))
    with pytest.raises(UniverseMismatchError):
        R.one + other.one
    with pytest.raises(UniverseMismatchError):
        R.gen("z1")


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
    assert Ring(("a", "b", "c")).rank == 16
    assert len(Ring(("a", "b", "c")).basis()) == 16


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
    assert format_ring_element(w * z - 3 * y * w, display=str.upper) == (
        "W*Z1 - 3*M2*W")


def test_min_positive_degree():
    y1, y2 = R.gen("m1"), R.gen("m2")
    assert R.one.min_positive_degree() is None
    assert (1 + y1 * y2).min_positive_degree() == 2
    assert (y1 + y1 * y2).min_positive_degree() == 1
