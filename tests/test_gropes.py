import json
import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import mgk.words
from mgk import gropes
from mgk.errors import BudgetExceeded, MgkError, TreeSyntaxError
from mgk.gropes import (LEAF, ClosedGropeTree, GropeTree, boundary_expression,
                        boundary_word, canonical, dual_class, dual_tree, export_dot, format_tip_path, grope_class,
                        is_isomorphic, leaf_paths, parse_closed_tree,
                        parse_tip_path, parse_tree, rerooted, tip_duals,
                        tree_text)
from mgk.milnor import default_alphabet, lcs_degree
from mgk.sampling import _grow, random_grope_tree
from mgk.words import Word

from helpers import (_reference_grow, reference_all_genus_one,
                     reference_boundary_word, reference_canonical,
                     reference_dual_class, reference_grope_class,
                     reference_is_isomorphic, reference_leaf_paths,
                     reference_parse_tree, reference_random_grope_tree,
                     reference_tree_text, reroot_oracle, shuffled_chain)

TORUS = "({* *})"
TOWER2 = "({({* *}) *})"
# pairs that tie on class at genus 2 and 3, least pairs that are not the
# first, and members that tie on (class, text)
TIES = ["({* ({* *})} {({* *}) *})", "({({* *}) ({* *})} {* ({({* *}) *})})",
        "({* ({* *} {* *})} {({* *}) *} {* *})", "({* *} {* *} {* *})",
        "({({* *}) *} {* *})", "({({* *}) ({* *})})"]


def genus1_tower(depth):
    t = LEAF
    for _ in range(depth):
        t = GropeTree(((t, LEAF),))
    return t


# -- parsing -------------------------------------------------------------------

def test_parse_examples():
    assert parse_tree("*") is LEAF
    t = parse_tree(TORUS)
    assert len(t.pairs) == 1 and t.pairs[0] == (LEAF, LEAF)
    t2 = parse_tree(TOWER2)
    assert len(t2.pairs[0][0].pairs) == 1 and t2.pairs[0][1] is LEAF


def test_parse_whitespace_insensitive():
    assert parse_tree(" ( { *  * } ) ") == parse_tree(TORUS)


def test_parse_errors():
    for text, pos in (("()", 1), ("({* *}", 6), ("{* *}", 0), ("", 0),
                      ("({* *}) junk", 8), ("({*})", 3)):
        with pytest.raises(TreeSyntaxError) as err:
            parse_tree(text)
        assert err.value.position == pos
    with pytest.raises(TreeSyntaxError, match=r"^expected '\}' \(at position 6\)$"):
        parse_tree("({* * *})")


def _parsed(parse, text):
    """The parsed tree's text, or the error's type, message and position."""
    try:
        return tree_text(parse(text))
    except TreeSyntaxError as err:
        return type(err), str(err), err.position


@pytest.mark.parametrize("text, message", [
    ("(", "a Surface needs at least one pair"),
    ("({", "unexpected end of input"),
    ("({*", "unexpected end of input"),
    ("({* *", "expected '}'"),
    ("({* *}", "expected ')'"),
    ("({* *} {", "unexpected end of input"),
])
def test_parse_errors_at_the_end_of_input(text, message):
    expected = (TreeSyntaxError, "%s (at position %d)" % (message, len(text)),
                len(text))
    assert _parsed(parse_tree, text) == _parsed(reference_parse_tree, text) == expected


def test_parse_agrees_with_the_slice_parser():
    """The tie trees, then texts joined from the pieces, half of them at
    random and half from a tree's text with a few characters swapped for
    pieces and its end cut."""
    rng = random.Random(1997)
    pieces = ["(", ")", "{", "}", "*", " ", "x", ""]
    for text in TIES:
        assert _parsed(parse_tree, text) == _parsed(reference_parse_tree, text) == text
    outcomes = set()
    for _ in range(4000):
        if rng.random() < 0.5:
            chosen = [rng.choice(pieces) for _ in range(rng.randint(0, 14))]
        else:
            chosen = list(tree_text(random_grope_tree(rng, rng.randint(1, 4))))
            for _ in range(rng.randint(0, 2)):
                chosen[rng.randrange(len(chosen))] = rng.choice(pieces)
            del chosen[rng.randint(0, len(chosen)):]
        text = "".join(chosen)
        got = _parsed(parse_tree, text)
        assert got == _parsed(reference_parse_tree, text), text
        outcomes.add(got[1].split(" (at")[0] if type(got) is tuple else "tree")
    assert outcomes == {"tree", "trailing input", "unexpected end of input",
                        "a Surface needs at least one pair", "expected '*' or '('",
                        "expected '}'", "expected ')'"}


def test_closed_rejects_leaf_body():
    with pytest.raises(TreeSyntaxError):
        parse_closed_tree("*")
    with pytest.raises(ValueError):
        ClosedGropeTree(LEAF)


def test_round_trip():
    for text in ("*", TORUS, TOWER2, "({({* *}) ({* *})} {* *})"):
        assert tree_text(parse_tree(text)) == text


@settings(max_examples=60)
@given(st.integers(0, 2 ** 30))
def test_round_trip_random(seed):
    rng = random.Random(seed)
    tree = random_grope_tree(rng, rng.randint(1, 6), max_tips=12)
    assert parse_tree(tree_text(tree)) == tree


def test_grow_keeps_exactly_the_reference_candidates_within_the_budget():
    # a candidate stops at its first leaf past the budget; one within it
    # is the tree the whole reference candidate is, with the same draws
    margins = set()  # reference leaves minus the budget
    for seed in range(4):
        for k in range(1, 9):
            for max_genus in (1, 2, 3):
                for max_tips in range(1, 13):
                    rng = random.Random("%d/%d/%d/%d" % (seed, k, max_genus, max_tips))
                    ref = random.Random()
                    ref.setstate(rng.getstate())
                    tree = _grow(rng, k, max_genus, max_tips)
                    want = _reference_grow(ref, k, max_genus)
                    margins.add(want.leaf_count - max_tips)
                    if want.leaf_count > max_tips:
                        assert tree is None
                        continue
                    assert tree == want and tree_text(tree) == tree_text(want)
                    assert rng.getstate() == ref.getstate()
    assert {-1, 0, 1} <= margins  # candidates at and next to the budget


def test_sampler_draws_the_reference_trees():
    # a class-k tree has at least k leaves, and exactly k when every Surface
    # has genus 1: the sampler refuses k outside 1..max_tips, drawing
    # nothing, and otherwise draws as the reference does, tree for tree
    refused = set()
    for seed in range(4):
        for k in range(-1, 10):
            for max_genus in (1, 2):
                for max_tips in range(0, 13):
                    rng = random.Random("%d/%d/%d/%d" % (seed, k, max_genus, max_tips))
                    ref = random.Random()
                    ref.setstate(rng.getstate())
                    refuse = not 1 <= k <= max_tips
                    refused.add(refuse)
                    if refuse:
                        with pytest.raises(MgkError, match="no tree of class"):
                            random_grope_tree(rng, k, max_genus, max_tips)
                        with pytest.raises(MgkError):
                            reference_random_grope_tree(ref, k, max_genus, max_tips)
                    else:
                        tree = random_grope_tree(rng, k, max_genus, max_tips)
                        want = reference_random_grope_tree(ref, k, max_genus, max_tips)
                        assert tree == want and tree_text(tree) == tree_text(want)
                        assert tree.tree_class == k and tree.leaf_count <= max_tips
                    assert rng.getstate() == ref.getstate()
    assert refused == {True, False}


# -- class ----------------------------------------------------------------------

def test_class_examples():
    assert grope_class(parse_tree(TORUS)) == 2
    assert grope_class(parse_tree(TOWER2)) == 3
    assert grope_class(parse_tree("({({* *}) ({* *})} {* *})")) == 2
    assert grope_class(LEAF) == 1


def test_class_invariant_under_symmetries():
    t = parse_tree("({({* *}) *} {* ({* *})})")
    swapped = GropeTree(tuple((r, l) for l, r in t.pairs))
    permuted = GropeTree(tuple(reversed(t.pairs)))
    assert grope_class(t) == grope_class(swapped) == grope_class(permuted)
    assert is_isomorphic(t, swapped) and is_isomorphic(t, permuted)


# -- tips and boundary ------------------------------------------------------------

def test_free_tips_counts():
    assert len(leaf_paths(parse_closed_tree(TORUS).body)) == 2
    assert len(leaf_paths(parse_closed_tree(TOWER2).body)) == 3
    assert len(leaf_paths(parse_closed_tree("({({* *}) ({* *})})").body)) == 4


def test_tip_paths_resolve():
    closed = parse_closed_tree(TOWER2)
    tips = leaf_paths(closed.body)
    assert [format_tip_path(t) for t in tips] == ["0L/0L", "0L/0R", "0R"]
    for tip in tips:
        assert parse_tip_path(format_tip_path(tip)) == tip
        assert dual_class(closed, tip) == reference_dual_class(closed, tip)
    assert parse_tip_path("0L/0R") == ((0, 0), (0, 1))
    assert parse_tip_path("0" * 5000 + "L/00R") == ((0, 0), (0, 1))
    huge = "9" * 5000 + "R"
    with pytest.raises(ValueError, match="^tip path 0L/%s leaves the tree$" % huge):
        parse_tip_path("0L/" + huge)
    for bad in (((0, 0),), ((0, 0), (0, 0), (0, 0)), ((1, 0),), ((-1, 1),),
                ((0, 2),)):
        with pytest.raises(ValueError):  # stops at a Surface or leaves the tree
            dual_tree(closed, bad)
        with pytest.raises(ValueError):
            rerooted(closed, bad)


def test_boundary_words():
    assert boundary_word(parse_tree(TORUS), ["a", "b"]) == Word.parse("[a,b]")
    assert boundary_expression(parse_tree(TOWER2), ["a", "b", "c"]) == "[[a,b],c]"
    assert boundary_expression(parse_tree("({* *} {* *})"),
                               ["a", "b", "c", "d"]) == "[a,b][c,d]"
    assert Word.parse("[a,b][c,d]") == boundary_word(
        parse_tree("({* *} {* *})"), "abcd")


def test_boundary_name_errors():
    t = parse_tree(TORUS)
    with pytest.raises(ValueError):
        boundary_word(t, ["a"])
    with pytest.raises(ValueError):
        boundary_word(t, ["a", "a"])


def test_boundary_word_of_a_deep_chain_is_refused(monkeypatch):
    # a genus-1 chain of depth d has a boundary word of 3 * 2^d - 2 letters
    monkeypatch.setattr(mgk.words, "MAX_LETTERS", 4096)
    names = ["m%d" % i for i in range(1, 13)]
    assert len(boundary_word(shuffled_chain(random.Random(10), 10), names[:11])) == 3070
    with pytest.raises(BudgetExceeded, match="letter limit of 4096 letters"):
        boundary_word(shuffled_chain(random.Random(11), 11), names)


@pytest.mark.parametrize("names", [["1", "m2"], ["a b", "c"], ["a", "m2'"],
                                   ["a", ""], ["a", "[b,c]"], ["a", 7]])
def test_boundary_rejects_names_that_are_not_generators(names):
    tree = parse_tree(TORUS)
    for boundary in (boundary_word, boundary_expression):
        with pytest.raises(ValueError, match="not a generator name"):
            boundary(tree, names)


def random_name(rng):
    first = rng.choice("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
    return first + "".join(rng.choice("abz019XY") for _ in range(rng.randint(0, 3)))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_boundary_expression_parses_to_the_boundary_word(seed):
    rng = random.Random(seed)
    tree = random_grope_tree(rng, rng.randint(1, 5), max_genus=3, max_tips=12)
    names = []
    while len(names) < tree.leaf_count:
        name = random_name(rng)
        if name not in names:
            names.append(name)
    word = reference_boundary_word(tree, names)
    assert boundary_word(tree, names) == word
    assert Word.parse(boundary_expression(tree, names)) == word


def test_boundary_degree_equals_class():
    for text in ("*", TORUS, TOWER2, "({({* *}) ({* *})} {* *})"):
        tree = parse_tree(text)
        names = ["g%d" % i for i in range(len(leaf_paths(tree)))]
        assert lcs_degree(boundary_word(tree, names), tuple(names)) \
            == grope_class(tree)


# -- the paper's two lemmas past 8 tips ----------------------------------------------
# The boundary of a class-k grope lies in the k-th term of the lower central
# series, and the dual at a tip has class dual_class >= k (Krushkal-Teichner).
# verify's grope_degree sweep draws k <= 6 and at most 8 tips; these trees
# have 9 to 16, and lcs_degree(..., cap=d) == d says "degree exactly d".

def trees_past_8_tips(k, max_tips, count):
    """count seeded trees of class k and genus <= 2 with 9..max_tips tips."""
    rng = random.Random("gropes/past-8-tips/%d/%d" % (k, max_tips))
    trees = []
    while len(trees) < count:
        tree = random_grope_tree(rng, k, max_genus=2, max_tips=max_tips)
        if tree.leaf_count >= 9:
            trees.append(tree)
    return trees


@pytest.mark.parametrize("k", range(2, 9))
def test_boundary_degree_is_the_class_past_8_tips(k):
    for tree in trees_past_8_tips(k, 16, 4):
        names = default_alphabet(tree.leaf_count)
        assert grope_class(tree) == k
        assert lcs_degree(boundary_word(tree, names), names, cap=k) == k, \
            tree_text(tree)


@pytest.mark.parametrize("k", range(2, 9))
def test_dual_boundary_degree_is_the_dual_class_past_8_tips(k):
    for tree in trees_past_8_tips(k, 12, 3):
        closed = ClosedGropeTree(tree)
        for tip in leaf_paths(tree):
            body = dual_tree(closed, tip).body
            names = default_alphabet(body.leaf_count)
            d = dual_class(closed, tip)
            assert lcs_degree(boundary_word(body, names), names, cap=d) == d, \
                (tree_text(tree), format_tip_path(tip))


# -- duality -----------------------------------------------------------------------

def test_torus_self_dual():
    closed = parse_closed_tree(TORUS)
    for tip in leaf_paths(closed.body):
        assert tree_text(dual_tree(closed, tip).body) == TORUS
        assert dual_class(closed, tip) == 2


def test_tower_dual_class():
    for depth in range(1, 6):
        closed = ClosedGropeTree(genus1_tower(depth))
        deepest = leaf_paths(closed.body)[0]
        assert dual_class(closed, deepest) == depth + 1
        assert grope_class(dual_tree(closed, deepest).body) == depth + 1


def test_dual_erases_sibling_pairs():
    closed = parse_closed_tree("({* *} {* *})")
    dual = dual_tree(closed, parse_tip_path("0L"))
    assert tree_text(dual.body) == TORUS  # the second pair is gone
    assert dual_class(closed, parse_tip_path("0L")) == 2


def test_class5_tree_dual_bound():
    # a class-5 tree with branching at several stages; every dual has
    # class at least 5, and the formula matches the constructed tree
    text = "({({({* *}) *} {* ({* *} {* *})}) ({* *})})"
    closed = parse_closed_tree(text)
    assert grope_class(closed.body) == 5
    for tip in leaf_paths(closed.body):
        dual = dual_tree(closed, tip)
        assert dual_class(closed, tip) >= 5
        assert grope_class(dual.body) == dual_class(closed, tip)
        # every path vertex of the dual is genus 1 with the path first
        node = dual.body
        while node.pairs:
            assert len(node.pairs) == 1
            node = node.pairs[0][0]


def test_dual_count_is_rank():
    rng = random.Random(5)
    for _ in range(25):
        closed = ClosedGropeTree(random_grope_tree(rng, rng.randint(2, 7)))
        tips = leaf_paths(closed.body)
        duals = [dual_tree(closed, tip) for tip in tips]
        assert len(duals) == len(tips)
        k = grope_class(closed.body)
        assert all(dual_class(closed, tip) >= k for tip in tips)


def test_genus1_dual_is_rerooting():
    rng = random.Random(11)
    for _ in range(30):
        closed = ClosedGropeTree(
            random_grope_tree(rng, rng.randint(2, 7), max_genus=1))
        for tip in leaf_paths(closed.body):
            dual = dual_tree(closed, tip)
            assert tree_text(rerooted(closed, tip).body) == tree_text(dual.body)
            assert is_isomorphic(dual, reroot_oracle(closed, tip))


def pooled_tree(rng, max_genus, stages):
    """A tree built through the API from a pool of shared subtree objects:
    each stage pairs up pool members, so one object sits at many places."""
    pool = [LEAF, GropeTree(), GropeTree(((LEAF, LEAF),))]
    for _ in range(stages):
        pool.append(GropeTree(tuple(
            (rng.choice(pool[-6:]), rng.choice(pool))
            for _ in range(rng.randint(1, max_genus)))))
    return pool[-1]


def dual_text_oracle(closed, tip):
    """The dual tree's text at tip, and the class the recursive reference
    reads off the tip's path."""
    return (tree_text(dual_tree(closed, tip).body),
            reference_dual_class(closed, tip))


def test_dual_texts_agree_with_the_dual_trees():
    rng = random.Random(12)
    shared = 0
    for trial in range(2000):
        genus = 1 + trial % 3
        if trial % 2:
            tree = pooled_tree(rng, genus, rng.randint(1, 7))
        else:
            tree = random_grope_tree(rng, rng.randint(2, 7), max_genus=genus,
                                     max_tips=24)
        closed = ClosedGropeTree(tree)
        tips = leaf_paths(closed.body)
        assert tips == reference_leaf_paths(tree)
        # every tip from one walk, with its path text and dual class
        assert list(tip_duals(closed)) == \
            [(tip, format_tip_path(tip)) + dual_text_oracle(closed, tip)
             for tip in tips]
        nodes = [tree]
        for node in nodes:
            nodes += [m for pair in node.pairs for m in pair if m.pairs]
        shared += len({id(n) for n in nodes}) < len(nodes)
    assert shared > 500  # the pooled trees repeat subtree objects


@pytest.mark.parametrize("depth", [1, 2, 40, 300, 1000])
def test_dual_texts_of_deep_chains(depth):
    rng = random.Random(depth)
    partners = [None, parse_tree("({* *} {({* *}) *})")]
    for partner in partners[:1 if depth > 300 else 2]:  # 5x the tips
        closed = ClosedGropeTree(shuffled_chain(rng, depth, partner, LEAF))
        tips = leaf_paths(closed.body)
        if depth <= 300:  # the reference recurses and copies each path
            assert tips == reference_leaf_paths(closed.body)
        walk = list(tip_duals(closed))
        assert [dual[:2] for dual in walk] == \
            [(tip, format_tip_path(tip)) for tip in tips]
        picked = range(len(tips))
        if depth > 40:  # the oracle renders every dual node by node
            picked = [0, len(tips) - 1] + rng.sample(picked, 20)
        for i in picked:
            if depth <= 300:
                assert walk[i][2:] == dual_text_oracle(closed, tips[i])
            else:  # the reference class recurses down the rest of the chain
                dual = dual_tree(closed, tips[i]).body
                assert walk[i][2:] == (tree_text(dual), dual.tree_class)
    # one tip, as `mgk grope duals --tip` renders it: the deepest tip of a
    # chain of Leaves has every Leaf but its own as a partner
    closed = ClosedGropeTree(shuffled_chain(rng, depth))
    tip = max(leaf_paths(closed.body), key=len)
    text = tree_text(dual_tree(closed, tip).body)
    assert text == "({" * depth + "* " + "}) ".join("*" * depth) + "})"
    assert (tip, format_tip_path(tip), text, depth + 1) in tip_duals(closed)


def dual_tree_rows(closed, tips):
    """tip_duals' rows at tips as dual_tree builds them, one tip at a time."""
    rows = []
    for tip in tips:
        dual = dual_tree(closed, tip).body
        rows.append((tip, format_tip_path(tip), tree_text(dual), dual.tree_class))
    return rows


def test_tip_walk_rows_are_the_dual_trees_rows():
    # seeded trees, API-built trees that share subtrees by identity, and
    # shuffled chains, some carrying one shared partner object at every stage
    rng = random.Random(41)
    trees = []
    while len(trees) < 600:
        genus = 1 + len(trees) % 3
        trees.append(random_grope_tree(rng, rng.randint(2, 14), max_genus=genus,
                                       max_tips=14))
        pooled = pooled_tree(rng, genus, rng.randint(1, 6))
        if pooled.pairs and pooled.leaf_count <= 14:
            trees.append(pooled)
    shared = pooled_tree(rng, 2, 3)
    for depth in (1, 2, 3, rng.randint(4, 100), 500):
        trees += [shuffled_chain(rng, depth),
                  shuffled_chain(rng, min(depth, 30), shared, shared)]
    for tree in trees:
        closed = ClosedGropeTree(tree)
        tips = leaf_paths(tree)
        assert tips == reference_leaf_paths(tree)
        rows = list(tip_duals(closed))
        assert rows == dual_tree_rows(closed, tips)
        # a parsed copy shares no subtree but LEAF, and gets the same rows
        assert rows == list(tip_duals(parse_closed_tree(tree_text(tree))))


def test_tip_duals_is_linear_in_the_node_count(monkeypatch):
    # the rows are quadratic in the depth, so no timing ratio can tell the
    # walk's own work: count the class reads, O(nodes) against O(tips * depth)
    # when each tip sums its partners' classes again
    depth = 2000
    closed = ClosedGropeTree(shuffled_chain(random.Random(depth), depth))
    reads, slot = [], GropeTree.__dict__["tree_class"]
    monkeypatch.setattr(GropeTree, "tree_class", property(
        lambda tree: reads.append(1) or slot.__get__(tree), slot.__set__))
    rows = 0
    for _, _, _, dual_class in tip_duals(closed):
        rows += 1
    assert rows == depth + 1 and dual_class == depth + 1
    assert len(reads) <= 2 * (2 * depth + 1)  # the chain's nodes, twice


def test_rerooted_rejects_higher_genus():
    closed = parse_closed_tree("({* *} {* *})")
    with pytest.raises(ValueError):
        rerooted(closed, parse_tip_path("0L"))


def test_rerooted_reports_a_bad_path_before_the_genus():
    closed = parse_closed_tree("({* *} {* *})")
    for bad in ("2L", "0L/0L", ""):
        with pytest.raises(ValueError, match="leaves the tree|does not reach"):
            rerooted(closed, parse_tip_path(bad))


def test_bad_tip_paths():
    closed = parse_closed_tree(TORUS)
    with pytest.raises(ValueError):
        dual_tree(closed, parse_tip_path("3L"))
    with pytest.raises(ValueError):
        dual_tree(closed, ())


def lowered_class(real):
    """dual_tree whose duals keep their texts and have their classes one
    less; the chain's top Surface is built afresh on each call, so no
    other tree sees the change."""
    def dual_tree(closed, tip):
        dual = real(closed, tip)
        dual.body.tree_class -= 1
        return dual
    return dual_tree


def partners_tip_to_root(real):
    """dual_tree stringing the path's partners on its chain tip to root."""
    def dual_tree(closed, tip):
        chain, partners = real(closed, tip).body, []
        while chain.pairs:  # the partners, tip to root, down to the Leaf
            (chain, partner), = chain.pairs
            partners.append(partner)
        for partner in partners:
            chain = GropeTree(((chain, partner),))
        return ClosedGropeTree(chain)
    return dual_tree


def traversed_children(real):
    """_tip_walk handing each tip the texts and class sums of the traversed
    children, not of the partners."""
    def walk(tree, texts):
        for steps, step_texts, _, _ in real(tree, texts):
            node, children, total = tree, [], 1
            for i, side in steps:
                node = node.pairs[i][side]
                children.append(texts.get(id(node)))
                total += node.tree_class
            yield steps, step_texts, children, total
    return walk


@pytest.mark.parametrize("name, broken", [
    ("dual_tree", lowered_class),
    # dual_tree walks the tip's path, tip_duals reads _tip_walk, and the
    # case compares the two walks' duals
    ("dual_tree", partners_tip_to_root),
    ("_tip_walk", traversed_children),
], ids=["dual-class", "partners-tip-to-root", "traversed-children"])
def test_grope_duality_check_can_fail(capsys, monkeypatch, name, broken):
    import mgk.gropes
    from mgk.cli import main

    def failed_cases():
        code = main(["verify", "all", "--json", "--seed", "1"])
        report = json.loads(capsys.readouterr().out)
        return code, [c for c in report["cases"] if c["status"] == "fail"]

    assert failed_cases() == (0, [])
    monkeypatch.setattr(mgk.gropes, name, broken(getattr(mgk.gropes, name)))
    code, failed = failed_cases()
    assert code == 1 and [c["input"][:6] for c in failed] == ["duals:"]
    # the witness is a failing sample, the closed tree's text alone
    assert parse_closed_tree(failed[0]["actual"]["witness"])


# -- canonical form -----------------------------------------------------------------

def test_canonical_sorts():
    a = parse_tree("({* ({* *})})")
    b = parse_tree("({({* *}) *})")
    assert canonical(a) == canonical(b)
    assert is_isomorphic(a, b)
    assert not is_isomorphic(a, parse_tree(TORUS))


def _raise(*args, **kwargs):
    raise AssertionError("not called on this path")


def test_canonical_parses_no_text_and_is_isomorphic_writes_none(monkeypatch):
    tree = parse_tree("({({* *}) *} {* ({* *} {* *})})")
    copy, other = parse_tree("({({* *} {* *}) *} {* ({* *})})"), parse_tree(TOWER2)
    text = tree_text(canonical(tree))
    monkeypatch.setattr(gropes, "parse_tree", _raise)
    assert tree_text(canonical(tree)) == text
    monkeypatch.setattr(gropes, "_subtree_texts", _raise)
    monkeypatch.setattr(gropes, "_render", _raise)
    assert is_isomorphic(tree, copy) and not is_isomorphic(tree, other)


# -- DOT export ----------------------------------------------------------------------

def test_dot_counts():
    assert export_dot(LEAF).count(";") >= 1
    dot = export_dot(parse_tree(TORUS))
    assert dot.count("->") == 2 and dot.count("n0") >= 1
    closed_dot = export_dot(parse_closed_tree(TORUS))
    assert closed_dot.count("->") == 3  # extra root edge
    assert "pair=0" in dot and dot.startswith("digraph")


def test_dot_node_count_matches_vertices():
    import re
    tree = parse_tree("({({* *}) *} {* *})")
    decls = re.findall(r"^\s*n\d+;$", export_dot(tree), re.MULTILINE)
    assert len(decls) == 7  # root surface, 4 members, 2 inner leaves


# -- agreement with the recursive references -----------------------------------

def shared_subtree_tree(rng):
    """A tree assembled from a few subtree objects, each used many times."""
    pool = [random_grope_tree(rng, rng.randint(1, 3), max_tips=4)
            for _ in range(3)]
    for _ in range(rng.randint(1, 3)):
        pool.append(GropeTree(tuple((rng.choice(pool), rng.choice(pool))
                                    for _ in range(rng.randint(1, 2)))))
    return pool[-1]


TREE_KINDS = {
    "random": lambda rng: random_grope_tree(rng, rng.randint(1, 7),
                                            max_genus=3, max_tips=16),
    "shared": shared_subtree_tree,
    "chain": lambda rng: shuffled_chain(
        rng, rng.randint(1, 60),
        partner=random_grope_tree(rng, rng.randint(1, 3), max_genus=1)),
}


def _on_ties(*rest):
    """Explicit examples (text, 0, *rest) of a (kind, seed, ...) test for
    every tie tree."""
    def decorate(test):
        for text in TIES:
            test = example(text, 0, *rest)(test)
        return test
    return decorate


@settings(max_examples=90, deadline=None)
@given(st.sampled_from(sorted(TREE_KINDS)), st.integers(0, 2 ** 30))
@_on_ties()
def test_walks_agree_with_recursive_references(kind, seed):
    tree = parse_tree(kind) if kind in TIES else TREE_KINDS[kind](random.Random(seed))
    text = tree_text(tree)
    assert text == reference_tree_text(tree)
    assert grope_class(tree) == reference_grope_class(tree)
    paths = leaf_paths(tree)
    assert paths == reference_leaf_paths(tree)
    assert tree.leaf_count == len(paths)
    assert tree_text(canonical(tree)) == reference_tree_text(
        reference_canonical(tree))
    if tree.pairs:
        closed = ClosedGropeTree(tree)
        classes = [reference_dual_class(closed, tip) for tip in paths]
        assert [dual_class(closed, tip) for tip in paths] == classes
        assert [dual[3] for dual in tip_duals(closed)] == classes
    copy = parse_tree(text)
    assert copy == tree and hash(copy) == hash(tree)


def shuffled(rng, tree):
    """A copy with every pair's members and every Surface's pairs shuffled."""
    pairs = [tuple(rng.sample([shuffled(rng, l), shuffled(rng, r)], 2))
             for l, r in tree.pairs]
    rng.shuffle(pairs)
    return GropeTree(tuple(pairs))


def edited(tree, path, edit):
    """A copy with the subtree at the (pair, side) steps of path replaced
    by edit(subtree)."""
    if not path:
        return edit(tree)
    (i, side), rest = path[0], path[1:]
    pair = list(tree.pairs[i])
    pair[side] = edited(pair[side], rest, edit)
    return GropeTree(tree.pairs[:i] + (tuple(pair),) + tree.pairs[i + 1:])


@settings(max_examples=90, deadline=None)
@given(st.sampled_from(sorted(TREE_KINDS)), st.integers(0, 2 ** 30), st.booleans())
@_on_ties(False)
@_on_ties(True)
def test_is_isomorphic_agrees_with_the_canonical_texts(kind, seed, closed):
    rng = random.Random(seed)
    tree = parse_tree(kind) if kind in TIES else TREE_KINDS[kind](rng)
    tips = leaf_paths(tree)
    copies = [(shuffled(rng, tree), True),
              (edited(tree, rng.choice(tips), lambda leaf: parse_tree(TORUS)), False)]
    if tree.pairs:  # drop one pair of the Surface at a proper prefix of a tip
        tip = rng.choice(tips)
        def drop(surface):
            i = rng.randrange(len(surface.pairs))
            return GropeTree(surface.pairs[:i] + surface.pairs[i + 1:])
        copies.append((edited(tree, tip[:rng.randrange(len(tip))], drop), False))
    for copy, iso in copies:
        a, b = tree, copy
        if closed and a.pairs:
            a = ClosedGropeTree(a)
        if not closed and b.pairs:
            b = ClosedGropeTree(b)
        assert is_isomorphic(a, b) == reference_is_isomorphic(a, b) == iso


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(TREE_KINDS)), st.integers(0, 2 ** 30))
def test_rerooted_accepts_exactly_the_all_genus_1_trees(kind, seed):
    tree = TREE_KINDS[kind](random.Random(seed))
    if not tree.pairs:
        return
    closed = ClosedGropeTree(tree)
    tip = leaf_paths(tree)[-1]
    if reference_all_genus_one(tree):
        assert rerooted(closed, tip) == dual_tree(closed, tip)
    else:
        with pytest.raises(ValueError, match="all-genus-1"):
            rerooted(closed, tip)


def test_trees_built_apart_compare_by_structure():
    for seed in range(20):
        a, b = (shared_subtree_tree(random.Random(seed)) for _ in range(2))
        assert a is not b and a == b and hash(a) == hash(b)
        a, b = (shuffled_chain(random.Random(seed), 200) for _ in range(2))
        assert a is not b and a == b and hash(a) == hash(b)
        torus = parse_tree(TORUS)
        c = shuffled_chain(random.Random(seed), 200, bottom=torus)
        assert a != c and not a == c  # only the deepest Leaf differs


def test_a_tree_is_unequal_to_a_non_tree_and_reprs_to_itself():
    tree = parse_tree(TOWER2)
    assert tree.__eq__(TOWER2) is NotImplemented
    assert tree != TOWER2 and not tree == tree.pairs
    assert repr(tree) == "parse_tree('({({* *}) *})')"
    for t in (tree, LEAF):
        copy = eval(repr(t), {"parse_tree": parse_tree})
        assert copy == t and hash(copy) == hash(t)


# -- depth far beyond the recursion limit -------------------------------------

@pytest.fixture
def default_recursion_limit():
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(saved)


DEEP = 5000


def test_depth_5000_chain(default_recursion_limit):
    chain = shuffled_chain(random.Random(DEEP), DEEP)
    copy = shuffled_chain(random.Random(DEEP + 1), DEEP)
    text = tree_text(chain)
    assert parse_tree(text) == chain and tree_text(parse_tree(text)) == text
    assert grope_class(chain) == DEEP + 1
    assert tree_text(canonical(chain)) == (
        "({* " * (DEEP - 1) + "({* *})" + "})" * (DEEP - 1))
    assert canonical(copy) == canonical(chain)
    assert is_isomorphic(chain, copy)

    closed = ClosedGropeTree(chain)
    deepest, node = [], chain
    while node.pairs:
        side = 0 if node.pairs[0][0].pairs else 1
        deepest.append((0, side))
        node = node.pairs[0][side]
    assert len(deepest) == DEEP
    dual = dual_tree(closed, deepest)
    assert dual_class(closed, deepest) == grope_class(dual.body) == DEEP + 1
    assert rerooted(closed, deepest) == dual

    names = ["m%d" % (i + 1) for i in range(DEEP + 1)]
    expression = boundary_expression(chain, names)
    assert expression.count("[") == expression.count(",") == DEEP
    dot = export_dot(closed)
    assert dot.count("->") == 2 * DEEP + 1
