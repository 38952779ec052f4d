"""The fault matrix: every `mgk verify` section can fail.

Each row plants one fault in a layer that a section claims to check,
patched where that section's code reads it, runs that section alone at
seed 1 and 40 trials, and asserts that the section fails.  Most faults
are mutants: the library function compiled from its own source with one
snippet replaced, so a row breaks when the code it mutates changes.

The strict xfails are the known gaps, faults that the fixed draws of
`verify` cannot see; each reason names the Tier-1 test that catches the
fault instead, or says that none does.
"""

import __future__
import inspect
import textwrap

import pytest

from mgk import composition, gropes, links, milnor, verify
from mgk.gropes import GropeTree
from mgk.ring import RingElement
from mgk.verify import RunConfig
from mgk.words import Word

CONFIG = RunConfig(seed=1, trials=40)
# the sections' labels, in the order of verify._SECTIONS
LABELS = [case["input"] for case in verify.run_all(RunConfig(seed=1, trials=1))["cases"]]


def _section(prefix):
    """The one verify section whose label starts with prefix."""
    [index] = [i for i, label in enumerate(LABELS) if label.startswith(prefix)]
    return verify._SECTIONS[index]


def mutant(func, old, new):
    """func compiled from its source with the one `old` replaced by `new`,
    reading the globals of func's module."""
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(old) == 1, "%s no longer reads %r" % (func.__qualname__, old)
    code = compile(source.replace(old, new), inspect.getsourcefile(func), "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    namespace = {}
    exec(code, func.__globals__, namespace)
    return namespace[func.__name__]


def swap(old, new):
    return lambda func: mutant(func, old, new)


def gap(reason):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


# (section label prefix, owner, attribute the section reads, fault from the
# original); `milnor` and `links` import `scan` by name, so it is patched there
ROWS = [
    pytest.param("ring axioms", RingElement, "__mul__",
                 swap("if used & vars2:", "if False:"),
                 id="ring product keeps repeated variables"),
    pytest.param("Magnus expansion", milnor, "scan",
                 swap("folded.append((g, e + let[1]))", "folded.append((g, e))"),
                 id="scan fold drops the second letter"),
    # the mutant of a property's getter, decorator included, is a property
    pytest.param("Magnus expansion", milnor.MilnorElement, "is_identity",
                 lambda prop: mutant(prop.fget, "== 0 and not", "== 0 or not"),
                 id="is_identity asks the exponent or the components"),
    pytest.param("Milnor relations", milnor, "normal_form",
                 swap("levels[0].get(0, 0)", "running.get(0, 0)"),
                 id="normal_form exponent read from the expansion"),
    pytest.param("Magnus expansion", milnor, "normal_form",
                 swap("RingElement(Ring(full[:t]), levels[t])",
                      "-RingElement(Ring(full[:t]), levels[t])"),
                 id="normal_form components negated"),
    pytest.param("split exact", milnor, "r_map",
                 swap("for v in reversed(positions):", "for v in positions:"),
                 id="r_map nests commutators the wrong way"),
    pytest.param("split exact", milnor, "r_inverse",
                 swap("RingElement(Ring(alphabet[:-1]), rho)",
                      "RingElement(Ring(alphabet[:-1]), {m: c for m, c in rho.items() if m})"),
                 id="r_inverse drops the constant term"),
    pytest.param("conjugation", milnor, "conjugation_action",
                 swap("expansion * rho.embed(expansion.ring)",
                      "rho.embed(expansion.ring) * expansion"),
                 id="conjugation_action multiplies on the right"),
    pytest.param("boundary word", milnor, "lcs_degree",
                 lambda lcs: lambda word, alphabet, cap=None: min(
                     lcs(word, alphabet, cap), 6),
                 id="lcs_degree capped at 6", marks=gap(
                     "grope_degree draws class k <= 6; caught by the classes 7 and 8 "
                     "of test_gropes.py::test_boundary_degree_is_the_class_past_8_tips, "
                     "by test_dual_boundary_degree_is_the_dual_class_past_8_tips "
                     "and by test_composition.py::"
                     "test_grope_tree_links_bound_their_boundary_words")),
    # grope_class reads tree_class, which GropeTree computes
    pytest.param("duals", GropeTree, "__init__",
                 swap("k < tree_class", "k > tree_class"),
                 id="grope_class takes the largest pair"),
    # each partner goes in under the chain, at the old root edge's Leaf
    # that its text starts with, so the partners end up tip to root
    pytest.param("duals", gropes, "dual_tree",
                 swap("chain = GropeTree(((chain, pairs[i][1 - side]),))",
                      "chain = parse_tree(tree_text(chain).replace("
                      "'*', '({* %s})' % tree_text(pairs[i][1 - side]), 1))"),
                 id="dual_tree reverses the partners"),
    pytest.param("duals", gropes, "tip_duals",
                 swap('"}) ".join(partner_texts)', '"}) ".join(partner_texts[::-1])'),
                 id="tip_duals reverses the partners"),
    # tip_duals reads the class sums of _tip_walk, whose root entry holds 1
    pytest.param("duals", gropes, "_tip_walk",
                 swap("None, None, 1)]", "None, None, 2)]"),
                 id="tip_duals' class is off by one"),
    pytest.param("duals", gropes, "is_isomorphic",
                 lambda is_isomorphic: lambda a, b: True,
                 id="is_isomorphic is always True"),
    pytest.param("duals", gropes, "is_isomorphic",
                 lambda is_isomorphic: lambda a, b: False,
                 id="is_isomorphic is always False"),
    # a closed tree whose members the canonical form swaps is no longer
    # isomorphic to its canonical form
    pytest.param("duals", gropes, "is_isomorphic",
                 swap("(a, b) if a <= b else (b, a)", "(a, b)"),
                 id="is_isomorphic keys members unsorted"),
    pytest.param("catalog invariants", links, "mu_bar",
                 swap("link.longitudes[idx[-1]]", "link.longitudes[idx[0]]"),
                 id="mu_bar reads the first index's longitude"),
    pytest.param("catalog invariants", links, "is_homotopically_trivial",
                 lambda trivial: lambda link: link.n != 2 or trivial(link),
                 id="is_homotopically_trivial is True unless n = 2"),
    pytest.param("catalog invariants", links, "is_almost_trivial",
                 lambda almost: lambda link: True,
                 id="is_almost_trivial is always True"),
    pytest.param("essentiality certificate", composition, "essentiality_certificate",
                 swap("substitute(bar_alphabet[-1], q.wedge)",
                      "substitute(bar_alphabet[0], q.wedge)"),
                 id="certificate substitutes the wrong generator"),
    pytest.param("sigma is right multiplication by the wedge element (pattern: bing",
                 Word, "substitute",
                 swap("replacement.letters if e > 0 else inverse",
                      "inverse if e > 0 else replacement.letters"),
                 id="sigma substitutes the inverse"),
    pytest.param("parse/print", Word, "__str__",
                 swap("\"'\" if e < 0", "\"'\" if e > 0"),
                 id="print inverts every letter"),
]


def test_every_section_passes_without_a_fault():
    assert {section(CONFIG)["status"] for section in verify._SECTIONS} == {"pass"}


@pytest.mark.parametrize("prefix, owner, name, fault", ROWS)
def test_a_planted_fault_fails_its_section(prefix, owner, name, fault, monkeypatch):
    section = _section(prefix)
    monkeypatch.setattr(owner, name, fault(getattr(owner, name)))
    assert section(CONFIG)["status"] == "fail"
