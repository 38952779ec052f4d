import random

import pytest
from hypothesis import given, strategies as st

from mgk.errors import WordSyntaxError
from mgk.words import IDENTITY, Word, commutator

from helpers import reference_parse

NAMES = ("m1", "m2", "m3", "z1", "lambda")


def words():
    letters = st.tuples(st.sampled_from(NAMES), st.sampled_from((1, -1)))
    return st.lists(letters, max_size=12).map(Word)


def test_parse_basics():
    assert Word.parse("m2").letters == (("m2", 1),)
    assert Word.parse("m2'").letters == (("m2", -1),)
    assert Word.parse("m1 m2") == Word.gen("m1") * Word.gen("m2")
    assert Word.parse("") == IDENTITY
    assert Word.parse("1") == IDENTITY
    assert Word.parse("lambda'").letters == (("lambda", -1),)


def test_parse_is_linear_in_the_factor_count(monkeypatch):
    rng = random.Random(20000)
    letters = [(rng.choice(NAMES), rng.choice((1, -1))) for _ in range(20000)]
    text = str(Word(letters))
    products = []
    original = Word.__mul__
    monkeypatch.setattr(Word, "__mul__",
                        lambda u, v: products.append(1) or original(u, v))
    assert Word.parse(text) == Word(letters)
    assert not products  # no word product per factor: that copy is quadratic


def test_parse_sugar():
    assert Word.parse("[m2,m3]").letters == (
        ("m2", 1), ("m3", 1), ("m2", -1), ("m3", -1))
    assert Word.parse("[m2, m3' m2 m3]") == commutator(
        Word.gen("m2"), Word.parse("m3' m2 m3"))
    assert Word.parse("(m1 m2)'") == ~Word.parse("m1 m2")
    assert Word.parse("m1^3").letters == (("m1", 1),) * 3
    assert Word.parse("m1^-2").letters == (("m1", -1),) * 2
    assert Word.parse("m1^0") == IDENTITY
    assert Word.parse("[m1,m2]'^2") == (~Word.parse("[m1,m2]")) ** 2


def test_parse_errors_carry_positions():
    for text in ("[m1,m2", "m1)", "(m1", "m1^x", "m1 @", "[,m2]'^"):
        with pytest.raises(WordSyntaxError):
            Word.parse(text)
    # a bad character after whitespace is named, not the space before it
    for text, position in (("m1 @", 3), ("m1@", 2), ("  \t@ m1", 3)):
        with pytest.raises(WordSyntaxError) as exc:
            Word.parse(text)
        assert str(exc.value) == \
            "unexpected character '@' (at position %d)" % position
        assert exc.value.position == position


_PIECES = ("m1", "m2", "z", "1", "2", "(", ")", "[", "]", ",", "'", "^",
           "-", " ", "@", "m1m2", "^-", "^2", "^-3", "[m1,m2]", "")


def _parse_outcome(parse, text):
    try:
        return "word", parse(text).letters
    except WordSyntaxError as exc:
        return "error", type(exc), str(exc), exc.position


def test_parser_agrees_with_the_bounds_checked_reference():
    # words, error types, messages and positions, on mostly malformed text
    rng = random.Random(20261018)
    outcomes = {"word": 0, "error": 0}
    for _ in range(20000):
        text = ""
        for _ in range(rng.randint(0, 10)):
            piece = rng.choice(_PIECES)
            # a space ends a digit run, so no power has a huge exponent
            text += piece + (" " if piece[-1:].isdigit() else rng.choice(("", " ")))
        got = _parse_outcome(Word.parse, text)
        assert got == _parse_outcome(reference_parse, text), text
        outcomes[got[0]] += 1
    assert outcomes["word"] > 2000 and outcomes["error"] > 10000


def test_juxtaposed_names_are_one_token():
    # names are greedy: "m2m3" is a single (unknown) generator
    assert Word.parse("m2m3").letters == (("m2m3", 1),)


@given(words())
def test_print_parse_round_trip(w):
    assert Word.parse(str(w)) == w


@given(words())
def test_inverse_reduces_to_identity(w):
    assert (w * ~w).free_reduce() == IDENTITY


@given(words(), words())
def test_product_length(u, v):
    assert len(u * v) == len(u) + len(v)


def test_constructor_validates_exponents():
    for bad in ((("m1", 2),), (("m1", 1), ("m2", 0))):
        with pytest.raises(ValueError):
            Word(bad)


@given(words(), words())
def test_operator_results_equal_validated_words(u, v):
    for got in (~u, u * v, u ** -3, u ** 2, u.erase("m1"), u.free_reduce(),
                u.substitute("m2", v)):
        assert got.letters == Word(got.letters).letters
        assert type(got.letters) is tuple
        assert all(type(let) is tuple for let in got.letters)
    assert (~u).letters == tuple((g, -e) for g, e in reversed(u.letters))
    assert (u * v).letters == u.letters + v.letters
    assert (u ** -3).letters == (~u).letters * 3
    assert u.erase("m1").letters == tuple(let for let in u.letters if let[0] != "m1")


def test_free_reduce_is_lazy():
    w = Word.parse("m1 m1'")
    assert w != IDENTITY  # stored unreduced
    assert w.free_reduce() == IDENTITY


def test_substitute_and_erase():
    w = Word.parse("[m2,m3]")
    assert w.substitute("m3", Word.parse("z1 z2")) == Word.parse("m2 z1 z2 m2' z2' z1'")
    assert w.erase("m3") == Word.parse("m2 m2'")

