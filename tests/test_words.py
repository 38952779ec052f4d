import os
import random
import re
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, strategies as st

import mgk.words
from mgk.errors import BudgetExceeded, WordSyntaxError
from mgk.words import IDENTITY, MAX_LETTERS, Word, commutator

from helpers import recursive_reference_parse, reference_parse

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
        assert got == _parse_outcome(recursive_reference_parse, text), text
        outcomes[got[0]] += 1
    assert outcomes["word"] > 2000 and outcomes["error"] > 10000


# names with primes attached (no space after) or detached, powers, digits,
# brackets, commas, whitespace and one character no token takes
_PRIME_PIECES = ("m1", "m2", "z", "lambda", "m1'", "m2''", "z'''", "'", "''",
                 "^", "^-", "^2", "^-3", "0", "1", "2", "(", ")", "[", "]",
                 ",", " ", "\t", "@")


def _letters_outcome(parse, text):
    """parse(text) gives letters: ("word", letters), or the error raised."""
    try:
        return "word", parse(text)
    except (WordSyntaxError, BudgetExceeded) as exc:
        return "error", type(exc), str(exc), getattr(exc, "position", None)


def test_parser_agrees_with_the_one_token_per_prime_reference():
    # the old parser read every prime as a token of its own; a name's
    # attached primes are now part of its token, and nothing else moves:
    # the same letters, or the same error type, message and position
    rng = random.Random(20261019)
    outcomes = {"word": 0, "error": 0}
    attached = 0
    for _ in range(100000):
        text = "".join(rng.choice(_PRIME_PIECES) + rng.choice(("", "", " "))
                       for _ in range(rng.randint(0, 8)))
        got = _letters_outcome(lambda t: Word.parse(t).letters, text)
        assert got == _letters_outcome(reference_parse, text), text
        outcomes[got[0]] += 1
        attached += bool(re.search(r"[A-Za-z][A-Za-z0-9]*'", text))
    assert min(outcomes.values()) > 15000 and attached > 30000


def _nested_text(rng, depth):
    """A well-formed word text nested depth brackets deep, and its length:
    commutators and powers only wrap factors of at most 48 letters."""
    if depth == 0:
        return rng.choice((("m1", 1), ("m2'", 1), ("z1", 1), ("1", 0),
                           ("lambda", 1)))
    text, n = _nested_text(rng, depth - 1)
    kind = rng.randrange(4)
    if kind == 0 and n <= 48:
        other, k = _nested_text(rng, rng.randint(0, 2))
        text, n = "[%s,%s]" % ((text, other) if rng.random() < 0.5
                               else (other, text)), 2 * (n + k)
    else:
        if kind == 1:
            left, k = _nested_text(rng, 0)
            text, n = left + rng.choice((" ", "  ", "\n")) + text, n + k
        text = "(%s)" % text
    while rng.random() < 0.4:
        if n <= 48 and rng.random() < 0.5:
            power = rng.randint(-3, 3)
            text, n = text + "^%d" % power, n * abs(power)
        else:
            text += "'"
    return text, n


def test_parser_agrees_with_the_reference_on_deeply_nested_words():
    rng = random.Random(40)
    depths = []
    for _ in range(3000):
        text, n = _nested_text(rng, rng.randint(0, 40))
        letters = Word.parse(text).letters
        assert len(letters) == n, text
        assert letters == recursive_reference_parse(text).letters, text
        depths.append(text.count("(") + text.count("["))
    assert max(depths) >= 40


def test_deep_nesting_needs_no_recursion():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        assert Word.parse("(" * 100000 + "m1" + ")" * 100000) == Word.gen("m1")
        assert Word.parse("(" * 10000 + "1" + ")'^2" * 10000) == IDENTITY
        assert Word.parse("((m1)'^2 " * 10000 + "1" + ")" * 10000) == \
            Word.parse("m1'") ** 20000
    finally:
        sys.setrecursionlimit(limit)


def test_letter_budget_boundary(monkeypatch):
    assert len(Word.parse("m1^%d" % MAX_LETTERS)) == MAX_LETTERS
    assert len(Word.parse("m1^-%d" % MAX_LETTERS)) == MAX_LETTERS
    assert len(Word.gen("m1") ** -MAX_LETTERS) == MAX_LETTERS
    for text in ("m1^%d" % (MAX_LETTERS + 1), "m1 m1^%d" % MAX_LETTERS,
                 "(m1 m2)^%d" % (MAX_LETTERS // 2 + 1),
                 "[m1^%d,m2]" % (MAX_LETTERS // 2)):
        with pytest.raises(BudgetExceeded, match="letter limit of %d " % MAX_LETTERS):
            Word.parse(text)
    for n in (MAX_LETTERS + 1, -MAX_LETTERS - 1):
        with pytest.raises(BudgetExceeded):
            Word.gen("m1") ** n
    with pytest.raises(BudgetExceeded):
        Word.parse("m1 m2") ** (MAX_LETTERS // 2 + 1)
    # [u,v] has 2|u| + 2|v| letters, counted with the letters around it
    monkeypatch.setattr(mgk.words, "MAX_LETTERS", 20)
    assert len(Word.parse("[m1^4,m2 m3 m1^4]")) == 20
    assert len(Word.parse("m3 m3 [m1^4,m2 m3 m1^3]")) == 20
    for text in ("[m1^4,m2 m3 m1^4 m2]", "m3 [m1^4,m2 m3 m1^4]",
                 "m3 m3 m3 [m1^4,m2 m3 m1^3]", "m1^21", "m1 " * 21):
        with pytest.raises(BudgetExceeded):
            Word.parse(text)


@pytest.mark.parametrize("text", [
    "m1^1000 " * 100, "(m1^1000 m2)" * 100, "[m1^500,m2] " * 100,
    "(m2 [m1^300,m2^199]^-2)' m1^1000", "(" * 50 + "m1^1000" + ")" * 50 + " m1"],
    ids=["powers", "groups", "commutators", "commutator-power", "last-letter"])
def test_budget_refuses_before_building(monkeypatch, text):
    # each text is refused as soon as it would hold over 1000 letters;
    # checked only as a whole, the first three would build 10^5 letters
    monkeypatch.setattr(mgk.words, "MAX_LETTERS", 1000)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            Word.parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100000 + 2 * len(text)


def test_products_and_substitutions_are_in_the_letter_budget(monkeypatch):
    half = Word.parse("m1^2097153")  # two of them are 4 letters over budget
    with pytest.raises(BudgetExceeded, match="letter limit of %d " % MAX_LETTERS):
        half * half
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):  # 5,040,000 letters
            Word.parse("m2^2100").substitute("m2", Word.parse("[z1,z2]^600"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100000  # refused before any letter is copied
    monkeypatch.setattr(mgk.words, "MAX_LETTERS", 20)
    assert len(Word.parse("m1^9") * Word.parse("m2^11")) == 20
    with pytest.raises(BudgetExceeded):
        Word.parse("m1^10") * Word.parse("m2^11")
    w = Word.parse("m1 m2 m1'")
    assert len(w.substitute("m1", Word.parse("z1^9"))) == 19
    assert len(w.substitute("m3", Word.parse("z1^20"))) == 3  # no occurrence
    assert len(Word.parse("m1^20").substitute("m1", IDENTITY)) == 0
    with pytest.raises(BudgetExceeded):
        w.substitute("m1", Word.parse("z1^10"))


def test_empty_powers_allocate_nothing():
    assert Word.parse("1^99999999999999999999 ()^-99999999999999999999") == IDENTITY
    assert IDENTITY ** 10 ** 30 == IDENTITY


def test_long_exponents_are_never_converted_whole():
    # int() of a str refuses more than 4300 digits; the parser strips
    # leading zeros, and a longer exponent of a non-empty factor is over
    # the letter budget whatever its digits
    zeros, nines = "0" * 5000, "9" * 5000
    assert Word.parse("m1^%s1" % zeros) == Word.gen("m1")
    assert Word.parse("m1^-%s2 m2^%s" % (zeros, zeros)) == Word.parse("m1'^2")
    assert Word.parse("1^%s ()^-%s" % (nines, nines)) == IDENTITY
    assert len(Word.parse("m1^%s%d" % (zeros, MAX_LETTERS))) == MAX_LETTERS
    for text in ("m1^" + nines, "[m1,m2]^" + nines,
                 "m1^%s%d" % (zeros, MAX_LETTERS + 1)):
        with pytest.raises(BudgetExceeded, match="letter limit"):
            Word.parse(text)


@pytest.mark.parametrize("digits, cap, value", [
    ("0", 5, 0), ("", 5, 0), ("0007", 10, 7), ("11", 10, 10),
    ("9" * 5000, 10, 10), ("0" * 5000 + "3", 10, 3),
    ("\u0663\u0660", 100, 30), ("\u0660" * 50 + "\u0661", 5, 1),
], ids=["zero", "empty", "leading-zeros", "over-cap", "long-over-cap",
        "long-zeros", "arabic-indic", "arabic-indic-zeros"])
def test_bounded_int(digits, cap, value):
    assert mgk.words.bounded_int(digits, cap) == value


def test_juxtaposed_names_are_one_token():
    # names are greedy: "m2m3" is a single (unknown) generator
    assert Word.parse("m2m3").letters == (("m2m3", 1),)


@given(words())
def test_print_parse_round_trip(w):
    assert Word.parse(str(w)) == w


def test_repr_holds_the_word_text():
    assert repr(Word.parse("m1 [m2, z1]^-1")) == "Word.parse(\"m1 z1 m2 z1' m2'\")"
    assert repr(IDENTITY) == "Word.parse('1')"


@given(words())
def test_repr_evaluates_back_to_the_word(w):
    assert eval(repr(w), {"Word": Word}).letters == w.letters


@given(words())
def test_inverse_reduces_to_identity(w):
    assert (w * ~w).free_reduce() == IDENTITY


@given(words(), words())
def test_product_length(u, v):
    assert len(u * v) == len(u) + len(v)


def test_constructor_validates_exponents():
    for bad in ((("m1", 2),), (("m1", 1), ("m2", 0)), (("m1", 1.0),),
                (("m1", 1), ("m2", True)), (("m1", -1.0),)):
        with pytest.raises(ValueError, match="the int 1 or -1"):
            Word(bad)


def test_constructor_validates_names():
    for bad in ("a b", "", "1", "m1'", "[m1,m2]", 7, None):
        with pytest.raises(ValueError, match="not a generator name"):
            Word([("m1", 1), (bad, -1)])
        with pytest.raises(ValueError, match="not a generator name"):
            Word.gen(bad)
    assert str(Word([("lambda", 1), ("Z09", -1)])) == "lambda Z09'"


def test_the_first_bad_name_in_word_order_is_named_under_any_hash_seed():
    code = ('from mgk.words import Word\ntry:\n    Word([("m1", 1), ("9x", 1), '
            '("m2", 1), ("8y", 1), ("7z", 1)])\nexcept ValueError as e:\n'
            '    print(e)')
    src = os.path.dirname(os.path.dirname(mgk.words.__file__))
    messages = {subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)).stdout
        for seed in ("0", "1", "2", "3")}
    assert messages == {"'9x' is not a generator name\n"}


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

