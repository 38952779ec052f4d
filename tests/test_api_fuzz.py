"""Fuzz the public API in-process.

Every function and class that `mgk` exports, and the methods that take
user values, is called with arguments of the Python types its signature
documents but with bad values: empty or repeated alphabets, names that
are not generator names, negative counts, out-of-range tips, component
indices and targets, ints past `sys.maxsize`, malformed word, tree and
tip texts, and link dicts and files whose words name unknown generators.
The only allowed outcomes are an answer or an `MgkError`; any other
exception fails the test.  Wrong Python types (`Word.parse(None)`,
`Ring(5)`) are outside that contract and raise Python's own errors.

Sizes are bounded so that the file runs in a few seconds: counts are at
most 12 (`default_alphabet` and `basis_rank` are unbounded by design),
`verify` runs at most 3 trials, and words, trees and links are small.
"""

import json
import operator
import os
import sys
import tempfile
import types

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import mgk
from mgk import (LEAF, BudgetExceeded, Certificate, ClosedGropeTree,
                 CompositionError, CompositionSpec, GropeTree,
                 LinkFormatError, LinkModel, MgkError, MilnorElement,
                 NotInKernelError, ParseError, Ring, RingElement, RunConfig,
                 SolidTorusLink, TreeSyntaxError, UniverseMismatchError,
                 UnknownGeneratorError, Word, WordSyntaxError, basis_rank,
                 boundary_expression, boundary_word, canonical, catalog,
                 catalog_names, commutator, compose, conjugation_action,
                 default_alphabet, delete_component, dual_class, dual_tree,
                 essentiality_certificate, export_dot, format_ring_element,
                 format_tip_path, grope_class, is_almost_trivial,
                 is_homotopically_trivial, is_isomorphic, lcs_degree,
                 leaf_paths, link_from_dict, link_to_dict, load_link, magnus,
                 mu_bar, normal_form, parse_closed_tree, parse_tip_path,
                 parse_tree, r_inverse, r_map, rerooted, run_all, save_link,
                 tip_duals, tree_text, variable_display, verify_sigma,
                 wedge_ring_element, words_equal)

import test_cli_fuzz as cli_fuzz

GOOD_NAMES = ["m1", "m2", "m3", "m4", "z1", "lambda", "x9"]
NAMES = st.sampled_from(GOOD_NAMES + ["", "1", "m 1", "m1'", "é", "2x",
                                      "m1,m2"])
DISTINCT = st.lists(st.sampled_from(GOOD_NAMES), max_size=5, unique=True)
ALPHABETS = DISTINCT | st.lists(NAMES, max_size=5)  # may be empty or repeat
HUGE = st.sampled_from([sys.maxsize, sys.maxsize + 1, 2 ** 64, 10 ** 30,
                        -sys.maxsize - 2])
INTS = st.integers(-3, 6) | HUGE  # indices, tips, exponents, targets
COUNTS = st.integers(max_value=12)
TRIALS = st.integers(max_value=3)

WORD_TEXTS = cli_fuzz.words(GOOD_NAMES) | st.sampled_from([
    "m1^%d" % (sys.maxsize + 1), "(m1 m2)^-" + "9" * 30, "[m1,m2]^99999999",
    "m1^0" + "0" * 5000 + "1", "m1 m 1", "m1^", "[m1 m2]"])
TREE_TEXTS = cli_fuzz.TREES | st.sampled_from(["", "*", "({* *}", "({*})",
                                               "(*)"])
TIP_TEXTS = cli_fuzz.TIPS | st.sampled_from(["0L/%dR" % (sys.maxsize + 1),
                                             "9" * 30 + "L", "0X", "/",
                                             "0L//1R"])
TIP_TUPLES = st.lists(st.tuples(INTS, st.integers(-1, 2) | HUGE),
                      max_size=4).map(tuple)
CATALOG_TEXTS = st.sampled_from([
    "hopf", "borromean", "core", " hopf ", "unlink(0)", "unlink(12)",
    "unlink(4097)", "unlink(%d)" % (sys.maxsize + 1), "unlink(-1)",
    "unlink()", "nope"]) | st.text(max_size=6)
WHICH = INTS | st.sampled_from(["l1", "l2", "l3", "q1", "wedge", "nope", ""])


def words_over(names, max_size=12):
    if not names:
        return st.just(Word())
    letters = st.tuples(st.sampled_from(names), st.sampled_from([1, -1]))
    return st.lists(letters, max_size=max_size).map(Word)


WORDS = words_over(GOOD_NAMES, 16)
LETTERS = st.lists(st.tuples(NAMES, st.sampled_from([1, -1, 0, 2]) | HUGE),
                   max_size=4)
TREES = st.recursive(st.just(LEAF), lambda inner: st.lists(
    st.tuples(inner, inner), min_size=1, max_size=2).map(
        lambda pairs: GropeTree(tuple(pairs))), max_leaves=6)
CLOSED = st.lists(st.tuples(TREES, TREES), min_size=1, max_size=2).map(
    lambda pairs: ClosedGropeTree(GropeTree(tuple(pairs))))
RINGS = DISTINCT.map(Ring)


@st.composite
def ring_elements(draw):
    ring = draw(RINGS)
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        names = draw(st.lists(st.sampled_from(ring.variables), unique=True)
                     if ring.variables else st.just([]))
        terms[tuple(names)] = draw(INTS)
    return ring.element(terms)


ELEMENTS = ring_elements()


@st.composite
def link_models(draw, pattern=False):
    """A valid link, or a valid pattern with core symbol "lambda"."""
    n = draw(st.integers(1, 4))
    meridians = default_alphabet(n, "z" if pattern else "m")
    extra = ["lambda"] if pattern else []
    longitudes = tuple(
        draw(words_over([m for m in meridians if m != own] + extra))
        for own in meridians)
    components = default_alphabet(n, "q" if pattern else "l")
    if pattern:
        return SolidTorusLink(components, meridians, longitudes,
                              wedge=draw(words_over(meridians)))
    return LinkModel(components, meridians, longitudes)


LINKS = st.sampled_from(["hopf", "borromean", "whitehead_pattern",
                         "unlink(3)"]).map(catalog) | link_models()
PATTERNS = st.sampled_from(["core", "bing_double"]).map(catalog) \
    | link_models(pattern=True)
MODELS = LINKS | PATTERNS


@st.composite
def link_dicts(draw):
    """A link or pattern dict whose words may name unknown generators."""
    components = ["l%d" % (i + 1) for i in range(draw(st.integers(1, 4)))]
    data = {"components": components,
            "longitudes": {c: draw(WORD_TEXTS) for c in components}}
    if draw(st.booleans()):
        data["meridians"] = draw(ALPHABETS)
    if draw(st.booleans()):
        data["wedge"] = draw(WORD_TEXTS)
        if draw(st.booleans()):
            data["core_symbol"] = draw(NAMES)
    return data


LINK_DICTS = link_dicts()
FILE_BYTES = st.one_of(
    LINK_DICTS.map(json.dumps), cli_fuzz.JSON_VALUES.map(json.dumps),
    st.text(max_size=12)).map(str.encode) | st.binary(max_size=12) \
    | st.sampled_from([b"{", b"\xff\xfe", b"[" + b"9" * 5000 + b"]"])


@st.composite
def trees_and_names(draw):
    tree = draw(TREES)
    k = tree.leaf_count
    names = draw(st.just(default_alphabet(k))
                 | st.lists(NAMES, min_size=max(k - 1, 0), max_size=k + 1))
    return tree, names


@st.composite
def closed_and_tips(draw):
    closed = draw(CLOSED)
    return closed, draw(st.sampled_from(leaf_paths(closed.body)) | TIP_TUPLES)


def loaded(data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "link.json")
        with open(path, "wb") as fh:
            fh.write(data)
        return load_link(path)


def saved(link):
    with tempfile.TemporaryDirectory() as tmp:
        save_link(link, os.path.join(tmp, "link.json"))


def on_spec(function):
    """function(CompositionSpec(lhat, q, target), *rest)."""
    return lambda lhat, q, target, *rest: function(
        CompositionSpec(lhat, q, target), *rest)


def call(function, *arguments):
    return st.tuples(st.just(function), *arguments)


def call_with(function, pairs):
    return pairs.map(lambda args: (function,) + tuple(args))


LINK_FIELDS = (ALPHABETS.map(tuple), ALPHABETS.map(tuple),
               st.lists(WORDS, max_size=4).map(tuple))
SPEC_ARGS = (MODELS, MODELS, st.none() | INTS)

CALLS = {
    # words
    "Word": call(Word, LETTERS),
    "Word.gen": call(Word.gen, NAMES),
    "Word.parse": call(Word.parse, WORD_TEXTS),
    "Word.__pow__": call(operator.pow, WORDS, INTS),
    "Word.substitute": call(Word.substitute, WORDS, NAMES, WORDS),
    "Word.erase": call(Word.erase, WORDS, NAMES),
    "commutator": call(commutator, WORDS, WORDS),
    # the ring
    "Ring": call(Ring, ALPHABETS),
    "Ring.gen": call(Ring.gen, RINGS, NAMES),
    "Ring.monomial": call(Ring.monomial, RINGS, st.lists(NAMES, max_size=4)),
    "Ring.element": call(Ring.element, RINGS, st.dictionaries(
        st.lists(NAMES, max_size=3).map(tuple), INTS, max_size=3)),
    "RingElement": call(RingElement, RINGS,
                        st.dictionaries(INTS, INTS, max_size=3)),
    "RingElement.coefficient": call(RingElement.coefficient, ELEMENTS,
                                    st.lists(NAMES, max_size=4)),
    "RingElement.embed": call(RingElement.embed, ELEMENTS, RINGS),
    "RingElement.__mul__": call(operator.mul, ELEMENTS, ELEMENTS | INTS),
    "format_ring_element": call(format_ring_element, ELEMENTS),
    "variable_display": call(variable_display, NAMES | st.text(max_size=6)),
    "basis_rank": call(basis_rank, COUNTS),
    # Milnor groups
    "default_alphabet": call(default_alphabet, COUNTS, NAMES),
    "magnus": call(magnus, WORDS, ALPHABETS, st.none() | INTS),  # the cap
    "normal_form": call(normal_form, WORDS, ALPHABETS),
    "words_equal": call(words_equal, WORDS, WORDS, ALPHABETS),
    "lcs_degree": call(lcs_degree, WORDS, ALPHABETS, st.none() | INTS),  # the cap
    "r_map": call(r_map, ELEMENTS, ALPHABETS),
    "r_inverse": call(r_inverse, WORDS, ALPHABETS),
    "conjugation_action": call(conjugation_action, WORDS, ELEMENTS, ALPHABETS),
    "MilnorElement": call(MilnorElement, ALPHABETS.map(tuple),
                          st.lists(ELEMENTS, max_size=3).map(tuple), INTS),
    # grope trees
    "GropeTree": call(GropeTree, st.lists(st.tuples(TREES, TREES),
                                          max_size=2).map(tuple)),
    "ClosedGropeTree": call(ClosedGropeTree, TREES),
    "parse_tree": call(parse_tree, TREE_TEXTS),
    "parse_closed_tree": call(parse_closed_tree, TREE_TEXTS),
    "parse_tip_path": call(parse_tip_path, TIP_TEXTS),
    "format_tip_path": call(format_tip_path, TIP_TUPLES),
    "tree_text": call(tree_text, TREES),
    "grope_class": call(grope_class, TREES),
    "leaf_paths": call(leaf_paths, TREES),
    "canonical": call(canonical, TREES),
    "is_isomorphic": call(is_isomorphic, TREES | CLOSED, TREES | CLOSED),
    "export_dot": call(export_dot, TREES | CLOSED),
    "boundary_word": call_with(boundary_word, trees_and_names()),
    "boundary_expression": call_with(boundary_expression, trees_and_names()),
    "dual_tree": call_with(dual_tree, closed_and_tips()),
    "dual_class": call_with(dual_class, closed_and_tips()),
    "rerooted": call_with(rerooted, closed_and_tips()),
    "tip_duals": call(tip_duals, CLOSED),
    # links
    "LinkModel": call(LinkModel, *LINK_FIELDS),
    "SolidTorusLink": call(SolidTorusLink, *LINK_FIELDS, WORDS, NAMES),
    "LinkModel.index_of": call(LinkModel.index_of, MODELS, WHICH),
    "SolidTorusLink.ambient_model": call(SolidTorusLink.ambient_model,
                                         PATTERNS),
    "catalog": call(catalog, CATALOG_TEXTS),
    "catalog_names": call(catalog_names),
    "mu_bar": call(mu_bar, LINKS, st.lists(WHICH, max_size=5)),
    "delete_component": call(delete_component, MODELS, WHICH),
    "is_homotopically_trivial": call(is_homotopically_trivial, MODELS),
    "is_almost_trivial": call(is_almost_trivial, MODELS),
    "link_from_dict": call(link_from_dict, LINK_DICTS | cli_fuzz.JSON_VALUES),
    "link_to_dict": call(link_to_dict, MODELS),
    "load_link": call(loaded, FILE_BYTES),
    "save_link": call(saved, MODELS),
    # composition
    "CompositionSpec": call(CompositionSpec, *SPEC_ARGS),
    "compose": call(on_spec(compose), *SPEC_ARGS),
    "wedge_ring_element": call(wedge_ring_element, PATTERNS),
    "verify_sigma": call(on_spec(verify_sigma), *SPEC_ARGS, TRIALS, INTS),
    "essentiality_certificate": call(on_spec(essentiality_certificate),
                                     *SPEC_ARGS),
    "Certificate": call(Certificate, INTS, INTS, INTS),
    # verify
    "RunConfig": call(RunConfig, INTS, TRIALS, INTS),
    "run_all": call(lambda *config: run_all(RunConfig(*config)),
                    INTS, TRIALS, INTS),
}
for error in (MgkError, BudgetExceeded, UnknownGeneratorError,
              UniverseMismatchError, NotInKernelError, LinkFormatError,
              CompositionError):
    CALLS[error.__name__] = call(error, st.text(max_size=8))
for error in (ParseError, WordSyntaxError, TreeSyntaxError):
    CALLS[error.__name__] = call(error, st.text(max_size=8), st.none() | INTS)


def test_every_exported_callable_is_fuzzed():
    exported = {name for name, value in vars(mgk).items()
                if callable(value) and not name.startswith("_")}
    assert exported <= set(CALLS)


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_call_answers_or_refuses_with_an_mgk_error(name, data):
    function, *arguments = data.draw(CALLS[name], label=name)
    try:
        answer = function(*arguments)
        if isinstance(answer, types.GeneratorType):  # tip_duals is lazy
            list(answer)
    except MgkError:
        pass


def test_every_refusal_is_a_value_error():
    assert issubclass(MgkError, ValueError)
    with pytest.raises(MgkError, match="^generator count must be >= 0$"):
        default_alphabet(-1)


@pytest.mark.parametrize("function, argument", [
    (Word.parse, None), (Ring, 5), (catalog, 3)])
def test_a_wrong_python_type_is_outside_the_contract(function, argument):
    with pytest.raises((TypeError, AttributeError)) as info:
        function(argument)
    assert not isinstance(info.value, MgkError)
