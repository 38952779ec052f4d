import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import mgk.words
from mgk.errors import (BudgetExceeded, MgkError, NotInKernelError,
                        UnknownGeneratorError)
from mgk.milnor import (basis_rank, conjugation_action, default_alphabet,
                        lcs_degree, magnus, magnus_coefficient, normal_form,
                        r_inverse, r_map, words_equal)
from mgk.ring import Ring
from mgk.words import Word, commutator

from helpers import (milnor_rewrites, naive_magnus, named_terms,
                     random_ring_element_of_degree, random_words,
                     reference_magnus, reference_normal_form, reference_r_inverse,
                     reference_r_map)

A3 = default_alphabet(3)
A4 = default_alphabet(4)


def words(alphabet=A3, max_len=10):
    letters = st.tuples(st.sampled_from(alphabet), st.sampled_from((1, -1)))
    return st.lists(letters, max_size=max_len).map(Word)


# -- Magnus expansion ----------------------------------------------------------

def test_magnus_generators():
    e = magnus(Word.gen("m2"), A3)
    assert e.coefficient(()) == 1 and e.coefficient(("m2",)) == 1
    inv = magnus(~Word.gen("m2"), A3)
    assert e * inv == 1


def test_magnus_commutator_frozen_value():
    # independently expanded in the free ring (see helpers.naive_magnus)
    w = Word.parse("[m2,m3]")
    assert naive_magnus(w) == {(): 1, ("m2", "m3"): 1, ("m3", "m2"): -1}
    assert named_terms(magnus(w, A3)) == naive_magnus(w)


def test_magnus_unknown_generator():
    with pytest.raises(UnknownGeneratorError):
        magnus(Word.gen("q7"), A3)


@pytest.mark.parametrize("function", [magnus, normal_form, lcs_degree, r_inverse])
def test_unknown_generator_message_names_the_first_in_word_order(function):
    # both q7 and a2 are unknown; the message names the one read first
    with pytest.raises(UnknownGeneratorError) as err:
        function(Word.parse("m1 q7' m2 a2 q7"), A3)
    assert str(err.value) == \
        "generator 'q7' is not in the alphabet ('m1', 'm2', 'm3')"


@given(words(), words())
def test_magnus_is_homomorphism(u, v):
    assert magnus(u * v, A3) == magnus(u, A3) * magnus(v, A3)
    assert magnus(u, A3) * magnus(~u, A3) == 1
    assert magnus(u, A3).constant_term == 1


@given(words())
def test_magnus_matches_free_ring_oracle(w):
    assert named_terms(magnus(w, A3)) == naive_magnus(w)


def sized_words():
    """(alphabet, word) pairs at s = 4..6, long enough to reach top degree."""
    return st.integers(4, 6).map(default_alphabet).flatmap(
        lambda a: st.tuples(st.just(a), words(a, max_len=24)))


def assert_normal_forms_agree(word, alphabet):
    got, want = normal_form(word, alphabet), reference_normal_form(word, alphabet)
    assert len(got.components) == len(want.components) == max(len(alphabet) - 1, 0)
    for g, r in zip(got.components, want.components):
        assert g.ring == r.ring and g.terms == r.terms, (word, alphabet)
    assert got.exponent == want.exponent, (word, alphabet)


@settings(max_examples=60)
@given(sized_words())
def test_in_place_scans_match_ring_products(pair):
    alphabet, w = pair
    assert magnus(w, alphabet).terms == reference_magnus(w, alphabet).terms
    assert_normal_forms_agree(w, alphabet)


def test_normal_form_matches_the_tower_oracle_at_every_size():
    # one scan reads every level: the letters after the last m_s letter
    # reach the lower components only through it, so half the words put
    # that letter early; from s = 3 on, a level whose digit width is
    # narrower than the top's repacks its terms
    rng = random.Random(131)
    for s in range(1, 11):
        alphabet = default_alphabet(s)
        for word in random_words(rng, alphabet, 30, max_len=12):
            assert_normal_forms_agree(word, alphabet)
            if s > 1:
                head = Word(((alphabet[-1], rng.choice((1, -1))),))
                tail, = random_words(rng, alphabet[:-1], 1, max_len=12)
                assert_normal_forms_agree(word * head * tail, alphabet)
    assert_normal_forms_agree(Word(), ())


def test_normal_form_matches_the_tower_oracle_on_sparse_words_at_s17():
    # digit width 5 on top, 4 and less below: every lower level repacks
    rng = random.Random(17)
    alphabet = default_alphabet(17)
    for _ in range(40):
        used = rng.sample(alphabet[:-1], rng.randint(1, 5))
        tail, = random_words(rng, used, 1, max_len=10)
        word, = random_words(rng, used + [alphabet[-1]], 1, max_len=10)
        assert_normal_forms_agree(word * Word.gen(alphabet[-1]) * tail, alphabet)


@settings(max_examples=60)
@given(sized_words())
def test_in_place_cancellation_leaves_no_zero_terms(pair):
    alphabet, w = pair
    assert named_terms(magnus(w * ~w, alphabet)) == {(): 1}
    assert all(named_terms(c) == {}
               for c in normal_form(w * ~w, alphabet).components)


# -- normal forms ---------------------------------------------------------------

def test_default_alphabet_refuses_a_negative_count():
    assert default_alphabet(0) == ()
    with pytest.raises(ValueError):
        default_alphabet(-1)


def test_identity_normal_form():
    nf = normal_form(Word(), A3)
    assert nf.is_identity
    assert not any(c.terms for c in nf.components) and nf.exponent == 0


def test_two_conjugates_of_same_meridian_commute():
    w = commutator(Word.parse("m1 m2 m1'"), Word.parse("m3 m2 m3'"))
    assert normal_form(w, A3).is_identity


def test_free_identities_share_normal_forms():
    a = Word.parse("[m1,[m2,m3]]")
    b = Word.parse("(m1 [m2,m3]) ([m2,m3] m1)'")  # same element, rebracketed
    assert normal_form(a, A3) == normal_form(b, A3)
    assert words_equal(a, b, A3)


def test_rewriting_closure_oracle():
    rng = random.Random(20250810)
    for base in random_words(rng, A3, 12, max_len=8):
        nf = normal_form(base, A3)
        for variant in milnor_rewrites(rng, base, A3):
            assert normal_form(variant, A3) == nf


def test_distinct_elements_distinct_forms():
    assert normal_form(Word.gen("m1"), A3) != normal_form(Word.gen("m2"), A3)
    assert not normal_form(Word.parse("[m2,m3]"), A3).is_identity
    assert not words_equal(Word.gen("m1"), Word.parse("m1 m1"), A3)


def test_nilpotency_small():
    # weight s+1 commutators die in M(F_s)
    rng = random.Random(7)
    for s in (1, 2, 3, 4):
        alphabet = default_alphabet(s)
        for _ in range(5):
            w = random_words(rng, alphabet, 1, max_len=3)[0]
            for _ in range(s):
                w = commutator(random_words(rng, alphabet, 1, max_len=3)[0], w)
            assert normal_form(w, alphabet).is_identity


# -- kernel maps ----------------------------------------------------------------

def test_r_map_base_cases():
    ring = Ring(A3[:-1])
    assert r_map(ring.zero, A3) == Word()
    assert r_map(ring.one, A3) == Word.gen("m3")
    assert r_map(ring.gen("m2"), A3) == Word.parse("[m2,m3]")


def test_r_map_refuses_a_word_over_the_letter_budget(monkeypatch):
    # each term's power fits the budget; their concatenation must fit too
    rho = Ring(A3[:-1]).element({("m1",): 20, ("m2",): 20})
    monkeypatch.setattr(mgk.words, "MAX_LETTERS", 160)
    assert r_map(rho, A3) == Word.parse("[m1,m3]^20 [m2,m3]^20")
    monkeypatch.setattr(mgk.words, "MAX_LETTERS", 159)
    with pytest.raises(BudgetExceeded, match="letter limit of 159 letters"):
        r_map(rho, A3)


def test_r_map_rejects_distinguished_variable():
    with pytest.raises(UnknownGeneratorError):
        r_map(Ring(A3).gen("m3"), A3)


def test_a_repeated_generator_is_refused():
    # the prefix rings of the tower and the kernel generator never see the
    # whole alphabet, so each function refuses it before it reads a letter
    aba = ("a", "b", "a")
    message = r"^the alphabet \('a', 'b', 'a'\) repeats a generator$"
    word = Word.parse("a b a' b'")
    for call in (lambda: magnus(word, aba), lambda: normal_form(word, aba),
                 lambda: words_equal(word, word, aba),
                 lambda: r_inverse(word, aba), lambda: lcs_degree(word, aba),
                 lambda: r_map(Ring(("a", "b")).gen("b"), aba),
                 lambda: conjugation_action(Word.parse("a"), Ring(("a",)).gen("a"),
                                            aba)):
        with pytest.raises(ValueError, match=message):
            call()
    # repeats that only the kernel generator sees
    with pytest.raises(ValueError, match="repeats a generator"):
        normal_form(Word.parse("a"), ("a", "a"))
    with pytest.raises(ValueError, match="repeats a generator"):
        r_map(Ring(("a",)).gen("a"), ("a", "a"))


def test_r_map_needs_the_distinguished_generator():
    with pytest.raises(ValueError,
                       match="^alphabet must contain the distinguished generator$"):
        r_map(Ring(()).one, ())


def test_r_inverse_examples():
    assert r_inverse(Word.gen("m3"), A3) == 1
    assert r_inverse(Word.parse("[m2,m3]"), A3) == Ring(A3[:-1]).gen("m2")
    conj = Word.parse("m1 m3 m1'")
    assert r_inverse(conj, A3) == 1 + Ring(A3[:-1]).gen("m1")


def test_r_inverse_not_in_kernel():
    with pytest.raises(NotInKernelError):
        r_inverse(Word.parse("m1 m3"), A3)


def _r_inverse_outcome(function, word, alphabet):
    try:
        elem = function(word, alphabet)
    except MgkError as exc:
        return type(exc), str(exc)
    return elem.ring, elem.terms


def test_r_inverse_agrees_with_the_tower_oracle():
    # answers, refusals and their messages; an unknown generator is named
    # before the empty alphabet is refused
    rng = random.Random(20261018)
    answers = refusals = 0
    for s in range(1, 9):
        alphabet = default_alphabet(s)
        ring = Ring(alphabet[:-1])
        cases = random_words(rng, alphabet, 30, max_len=10)
        for _ in range(30):
            g = random_words(rng, alphabet, 1, max_len=4)[0]
            rho = random_ring_element_of_degree(rng, ring, 3)
            cases.append(g * r_map(rho, alphabet) * ~g)
        cases += [Word.parse("m1 m9'"), Word.gen("m%d" % (s + 1))]
        for word in cases:
            got = _r_inverse_outcome(r_inverse, word, alphabet)
            assert got == _r_inverse_outcome(reference_r_inverse, word, alphabet)
            answers += got[0] == ring
            refusals += got[0] is NotInKernelError
    assert answers >= 300 and refusals >= 150
    for word, error in ((Word(), MgkError), (Word.gen("m1"), UnknownGeneratorError)):
        got = _r_inverse_outcome(r_inverse, word, ())
        assert got[0] is error
        assert got == _r_inverse_outcome(reference_r_inverse, word, ())


def _folding_word(rng, alphabet, depth=2):
    """Runs of one generator, the kernel letter (the last one) among them,
    nested cancellations u w w' u' and conjugates u w u': the letters the
    kernel scan folds before it reads them."""
    word = Word()
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(3)
        if kind == 0:
            g = alphabet[-1] if rng.random() < 0.5 else rng.choice(alphabet)
            word *= Word.gen(g) ** rng.choice((-3, -2, -1, 1, 2, 3))
        elif depth:
            u, = random_words(rng, alphabet, 1, max_len=3)
            inner = _folding_word(rng, alphabet, depth - 1)
            word *= u * inner * ~inner * ~u if kind == 1 else u * inner * ~u
    return word


def test_scans_fold_runs_and_nested_cancellations():
    # a fold to exponent 0 uncovers the letter before it, which may fold
    # in turn; every scan must still match the unfolded ring products and
    # leave no zero coefficient
    rng = random.Random(24)
    answers = refusals = 0
    for s in range(1, 9):
        alphabet = default_alphabet(s)
        cases = [_folding_word(rng, alphabet) for _ in range(40)]
        cases += [Word.parse("m%d m%d'^2 m%d^3" % (s, s, s)),
                  Word.parse("m1 m%d m%d' m1'" % (s, s))]
        if s >= 3:
            cases.append(Word.parse("m1 m2 m2' m1' m1^3 [m2,m3]^-2"))
        for word in cases:
            expansion = magnus(word, alphabet).terms
            assert expansion == reference_magnus(word, alphabet).terms, word
            assert_normal_forms_agree(word, alphabet)
            got = _r_inverse_outcome(r_inverse, word, alphabet)
            assert got == _r_inverse_outcome(reference_r_inverse, word, alphabet)
            forms = [c.terms for c in normal_form(word, alphabet).components]
            if got[0] == Ring(alphabet[:-1]):
                answers += 1
                forms.append(got[1])
            refusals += got[0] is NotInKernelError
            for terms in [expansion] + forms:
                assert 0 not in terms.values(), word
    assert answers >= 100 and refusals >= 100


def test_single_generator_alphabet_kernel():
    elem = r_inverse(Word.parse("m1^5"), ("m1",))
    assert elem.coefficient(()) == 5 and elem.ring.variables == ()


@settings(max_examples=40)
@given(st.integers(0, 2 ** 30))
def test_split_round_trip(seed):
    rng = random.Random(seed)
    s = rng.randint(1, 3)
    alphabet = default_alphabet(s + 1)
    ring = Ring(alphabet[:-1])
    terms = {}
    for _ in range(rng.randint(0, 3)):
        mono = tuple(rng.sample(ring.variables, rng.randint(0, s)))
        terms[mono] = rng.randint(-3, 3)
    rho = ring.element(terms)
    rho2 = ring.element({(v,): 1 for v in ring.variables})
    assert r_inverse(r_map(rho, alphabet), alphabet) == rho
    assert normal_form(
        r_map(rho, alphabet) * r_map(rho2, alphabet)
        * ~r_map(rho + rho2, alphabet), alphabet).is_identity


def test_r_map_of_a_thousand_terms_matches_reference_and_inverts():
    rng = random.Random(1000)
    alphabet = default_alphabet(8)
    ring = Ring(alphabet[:-1])
    terms = {}
    while len(terms) < 1000:
        mono = tuple(rng.sample(ring.variables, rng.randint(0, 4)))
        terms[mono] = rng.choice((-2, -1, 1, 2))
    rho = ring.element(terms)
    assert len(rho.terms) == 1000
    word = r_map(rho, alphabet)
    assert word == reference_r_map(rho, alphabet)
    assert r_inverse(word, alphabet) == rho


def test_kernel_elements_commute():
    ring = Ring(A4[:-1])
    r1 = r_map(ring.gen("m1") + 2 * ring.gen("m2") * ring.gen("m3"), A4)
    r2 = r_map(ring.one - ring.gen("m3"), A4)
    assert normal_form(commutator(r1, r2), A4).is_identity


def test_conjugation_action_matches_group():
    ring = Ring(A4[:-1])
    rho = ring.gen("m2") * ring.gen("m3")
    g = Word.parse("m1 m2'")
    conj = g * r_map(rho, A4) * ~g
    assert r_inverse(conj, A4) == conjugation_action(g, rho, A4[:-1])


def test_conjugation_action_frozen_value():
    # (m2 m3, y4) -> (1+y2)(1+y3) * y4, expanded by the free-ring oracle
    ring = Ring(("m1", "m2", "m3", "m4"))
    got = conjugation_action(Word.parse("m2 m3"), ring.gen("m4"),
                             ("m1", "m2", "m3", "m4"))
    from helpers import free_mul, squarefree
    oracle = squarefree(free_mul([
        {(): 1, ("m2",): 1}, {(): 1, ("m3",): 1}, {("m4",): 1}]))
    assert named_terms(got) == oracle
    assert got == (ring.gen("m4") + ring.gen("m2") * ring.gen("m4")
                   + ring.gen("m3") * ring.gen("m4")
                   + ring.gen("m2") * ring.gen("m3") * ring.gen("m4"))


def test_identity_acts_trivially():
    ring = Ring(A3[:-1])
    rho = ring.gen("m1") - 2
    assert conjugation_action(Word(), rho, A3[:-1]) == rho


# -- degrees --------------------------------------------------------------------

def test_lcs_degree():
    assert lcs_degree(Word.gen("m1"), A3) == 1
    assert lcs_degree(Word.parse("[m2,m3]"), A3) == 2
    assert lcs_degree(Word.parse("m1 m1'"), A3) == math.inf
    assert lcs_degree(Word.parse("[m1,[m2,m3]]"), A3) == 3


def test_lcs_degree_commutator_lower_bound():
    rng = random.Random(99)
    alphabet = default_alphabet(5)
    for k in (2, 3):
        for _ in range(10):
            w = random_words(rng, alphabet, 1, max_len=4)[0]
            for _ in range(k - 1):
                w = commutator(random_words(rng, alphabet, 1, max_len=4)[0], w)
            assert lcs_degree(w, alphabet) >= k


def test_basis_rank_reexport():
    assert basis_rank(4) == 1 + 4 + 12 + 24 + 24


# -- the tower is the projection of the Magnus expansion -----------------------

def test_normal_form_is_the_projection_of_magnus():
    # component j: the terms of M(w) on mono*y_j, mono over y_1..y_{j-1},
    # with the final y_j stripped; the exponent: the coefficient of y_1
    rng = random.Random(20261018)
    nonzero = 0
    for s in range(1, 9):
        alphabet = default_alphabet(s)
        for word in random_words(rng, alphabet, 20, max_len=5 * s):
            nf = normal_form(word, alphabet)
            expansion = named_terms(magnus(word, alphabet))
            for j in range(1, s):
                comp = nf.components[s - 1 - j]
                nonzero += len(comp.terms) > 1
                assert comp.ring.variables == alphabet[:j]
                assert named_terms(comp) == {
                    mono[:-1]: c for mono, c in expansion.items()
                    if mono and mono[-1] == alphabet[j]
                    and set(mono[:-1]) <= set(alphabet[:j])
                }, (word, s, j)
            assert nf.exponent == expansion.get(alphabet[:1], 0)
    assert nonzero > 100


def test_magnus_coefficient_is_one_coefficient_of_magnus():
    rng = random.Random(7)
    for s in range(1, 7):
        alphabet = default_alphabet(s)
        for word in random_words(rng, alphabet, 10, max_len=4 * s):
            expansion = magnus(word, alphabet)
            for k in range(s + 1):
                seq = tuple(rng.sample(alphabet, k))
                assert magnus_coefficient(word, seq) == \
                    expansion.coefficient(seq), (word, seq)
    # letters outside the sequence only contribute their constant term
    word = Word.parse("[m1,m2] m3^5 [m2,m1]^2")
    assert magnus_coefficient(word, ("m1", "m2")) == -1
    assert magnus_coefficient(word, ("m2", "m1")) == 1
    assert magnus_coefficient(word, ()) == 1
    with pytest.raises(ValueError):
        magnus_coefficient(word, ("m1", "m2", "m1"))


def test_the_tower_costs_memory_linear_in_the_alphabet():
    # the s prefix rings hold s^2/2 names in all; a name table per ring
    # would add as many dict entries (a 110 MB peak); the tuples take 16 MB
    alphabet = default_alphabet(2000)
    tracemalloc.start()
    try:
        lines = normal_form(Word.parse("m2000"), alphabet).describe()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20
    assert len(lines) == 2000
    assert lines[0] == "m2000-part: 1"
    assert lines[1:-1] == ["m%d-part: 0" % j for j in range(1999, 1, -1)]
    assert lines[-1] == "m1-exponent: 0"
