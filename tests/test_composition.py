import random

import pytest

from mgk.composition import (Certificate, CompositionSpec, compose,
                             essentiality_certificate, verify_sigma,
                             wedge_ring_element)
from mgk.errors import BudgetExceeded, CompositionError, NotInKernelError
from mgk.gropes import (LEAF, LEFT, ClosedGropeTree, GropeTree, boundary_word,
                        dual_tree, grope_class, leaf_paths)
from mgk.links import (LinkModel, SolidTorusLink, catalog, is_almost_trivial,
                       is_homotopically_trivial, mu_bar)
from mgk.milnor import lcs_degree, magnus, r_inverse, r_map
from mgk.ring import Ring
from mgk.sampling import random_grope_tree, random_ring_element
from mgk.words import Word

from helpers import (grope_tree_link, grope_tree_specs, iterated_bing_specs,
                     named_terms, reference_essentiality_certificate,
                     substituted_expansions)
from test_links import random_link


def hopf_in_a_ball():
    """Pattern contained in a ball: essential pair, empty wedge word."""
    return SolidTorusLink(("q1", "q2"), ("z1", "z2"),
                          (Word.parse("z2"), Word.parse("z1")),
                          wedge=Word())


# -- compose -----------------------------------------------------------------------

def test_compose_core_is_identity_up_to_renaming():
    for name in ("hopf", "borromean"):
        lhat = catalog(name)
        composed = compose(CompositionSpec(lhat, catalog("core")))
        assert composed.n == lhat.n
        renaming = dict(zip(lhat.meridians, composed.meridians))
        for old, new in zip(lhat.longitudes, composed.longitudes):
            assert Word(tuple((renaming[g], e) for g, e in old.letters)) == new


def test_compose_hopf_in_ball_splits():
    composed = compose(CompositionSpec(catalog("unlink(1)"), hopf_in_a_ball()))
    assert composed.components == ("q1", "q2")
    assert [str(w) for w in composed.longitudes] == ["z2", "z1"]
    assert not is_homotopically_trivial(composed)


def test_compose_figure_six():
    composed = compose(CompositionSpec(catalog("borromean"),
                                       catalog("bing_double")))
    assert composed.components == ("l1", "l2", "q1", "q2")
    assert composed.longitude("l1") == Word.parse("[m2, [z1,z2]]")
    assert composed.longitude("l2") == Word.parse("[[z1,z2], m1]")
    assert composed.longitude("q1") == Word.parse("[z2, [m1,m2]]")
    assert composed.longitude("q2") == Word.parse("[[m1,m2], z1]")
    assert not is_homotopically_trivial(composed)
    assert abs(mu_bar(composed, (2, 3, 4, 1))) == 1


def test_compose_errors():
    lhat = catalog("hopf")
    with pytest.raises(CompositionError):
        CompositionSpec(lhat, catalog("hopf"))  # no wedge word
    clash = SolidTorusLink(("q1",), ("m1",), (Word(),), wedge=Word())
    with pytest.raises(CompositionError):
        CompositionSpec(lhat, clash)
    with pytest.raises(CompositionError):
        CompositionSpec(lhat, catalog("core"), target=5)
    with pytest.raises(CompositionError,
                       match="the ambient link cannot be a solid-torus pattern"):
        CompositionSpec(catalog("bing_double"), catalog("core"))
    same_name = SolidTorusLink(("l1",), ("z1",), (Word(),), wedge=Word())
    with pytest.raises(CompositionError, match="^component names collide$"):
        CompositionSpec(lhat, same_name)
    core_m1 = SolidTorusLink(("q1",), ("z1",), (Word(),), wedge=Word(),
                             core_symbol="m1")
    with pytest.raises(CompositionError,
                       match="^core symbol clashes with the ambient link$"):
        CompositionSpec(lhat, core_m1)


def over_budget_composition():
    """Two inputs within the letter budget whose composition is not: the
    first longitude, m2^2100 with each m2 a 2400-letter wedge word, would
    have 5,040,000 letters."""
    lhat = LinkModel(("l1", "l2"), ("m1", "m2"),
                     (Word.parse("m2^2100"), Word.parse("m1^2100")))
    bing = catalog("bing_double")
    q = SolidTorusLink(bing.components, bing.meridians, bing.longitudes,
                       wedge=Word.parse("[z1,z2]^600"))
    return lhat, q


def test_compose_is_in_the_letter_budget():
    with pytest.raises(BudgetExceeded, match="letter limit of 4194304 letters"):
        compose(CompositionSpec(*over_budget_composition()))


def test_compose_target_choice():
    borr = catalog("borromean")
    composed = compose(CompositionSpec(borr, catalog("core"), target=2))
    assert composed.components == ("l1", "l3", "q1")
    assert composed.longitude("q1") == Word.parse("[m3,m1]")


def test_substitution_is_a_homomorphism():
    rng = random.Random(3)
    wedge = catalog("bing_double").wedge
    for _ in range(20):
        letters = [("m%d" % rng.randint(1, 3), rng.choice((1, -1)))
                   for _ in range(rng.randint(0, 8))]
        cut = rng.randint(0, len(letters))
        w1, w2 = Word(letters[:cut]), Word(letters[cut:])
        assert (w1 * w2).substitute("m3", wedge) \
            == w1.substitute("m3", wedge) * w2.substitute("m3", wedge)


# -- wedge element -----------------------------------------------------------------

def test_wedge_element_examples():
    assert wedge_ring_element(catalog("core")) == 1
    bing = wedge_ring_element(catalog("bing_double"))
    assert bing == -Ring(("z2",)).gen("z2")
    empty = SolidTorusLink(("q1", "q2"), ("z1", "z2"),
                           (Word(), Word()), wedge=Word())
    assert wedge_ring_element(empty) == 0


def test_wedge_element_not_in_kernel():
    bad = SolidTorusLink(("q1", "q2"), ("z1", "z2"),
                         (Word(), Word()), wedge=Word.parse("z2"))
    with pytest.raises(NotInKernelError):
        wedge_ring_element(bad)


def test_wedge_element_delete_choice():
    # the wedge element deletes component 1: its meridian goes last
    bing = catalog("bing_double")
    assert wedge_ring_element(bing) == r_inverse(bing.wedge, ("z2", "z1"))
    assert r_inverse(bing.wedge, ("z1", "z2")) == Ring(("z1",)).gen("z1")


# -- sigma -------------------------------------------------------------------------

def test_sigma_reports_pass_for_catalog_patterns():
    lhat = catalog("borromean")
    for name in ("core", "bing_double"):
        report = verify_sigma(CompositionSpec(lhat, catalog(name)),
                              trials=40, seed=11)
        assert report["summary"]["status"] == "pass"
        assert report["summary"]["failed"] == 0


def test_sigma_core_is_identity_map():
    report = verify_sigma(CompositionSpec(catalog("borromean"),
                                          catalog("core")), trials=5, seed=0)
    assert report["config"]["wedge_element"] == "1"


def test_sigma_matches_manual_computation():
    # generator y2 with the Bing-double pattern: lc(r(y2)) = r(y2 * wedge)
    lhat, q = catalog("borromean"), catalog("bing_double")
    bar = ("m2", "m3")
    big = ("m2", "z2", "z1")
    rho = Ring(("m2",)).gen("m2")
    lifted = r_map(rho, bar).substitute("m3", q.wedge)
    got = r_inverse(lifted, big)
    ring = Ring(("m2", "z2"))
    assert got == ring.gen("m2") * (-ring.gen("z2"))


def test_sigma_exactness_random():
    lhat, q = catalog("borromean"), catalog("bing_double")
    bar = ("m2", "m3")
    big = ("m2", "z2", "z1")
    big_ring = Ring(("m2", "z2"))
    wedge_elem = wedge_ring_element(q).embed(big_ring)
    rng = random.Random(123)
    y_ring = Ring(("m2",))
    for _ in range(30):
        rho = random_ring_element(rng, y_ring)
        lifted = r_map(rho, bar).substitute("m3", q.wedge)
        assert r_inverse(lifted, big) == rho.embed(big_ring) * wedge_elem


def test_sigma_target_must_not_be_the_deleted_component():
    with pytest.raises(CompositionError):
        verify_sigma(CompositionSpec(catalog("hopf"), catalog("core"),
                                     target=1), trials=1, seed=0)


# -- certificate --------------------------------------------------------------------

def test_certificate_figure_six():
    cert = essentiality_certificate(
        CompositionSpec(catalog("borromean"), catalog("bing_double")))
    assert abs(cert.a) == 1 and abs(cert.b) == 1
    assert cert.c == cert.a * cert.b != 0


def test_certificate_hopf_core_degenerate():
    cert = essentiality_certificate(
        CompositionSpec(catalog("hopf"), catalog("core")))
    assert cert == Certificate(1, 1, 1)


def test_certificate_trivial_first_longitude():
    lhat = LinkModel(("l1", "l2", "l3"), ("m1", "m2", "m3"),
                     (Word(), Word(), Word()))
    cert = essentiality_certificate(
        CompositionSpec(lhat, catalog("bing_double")))
    assert cert.a == 0 and cert.c == 0
    assert cert.c == cert.a * cert.b


def test_certificate_shadow_direction():
    # c != 0 forces both a and b nonzero
    cert = essentiality_certificate(
        CompositionSpec(catalog("borromean"), catalog("bing_double")))
    assert cert.c != 0 and cert.a != 0 and cert.b != 0


def test_certificate_refusals():
    with pytest.raises(CompositionError):
        essentiality_certificate(
            CompositionSpec(catalog("unlink(1)"), hopf_in_a_ball()))
    hopf_hat = LinkModel(("l1", "l2", "l3"), ("m1", "m2", "m3"),
                         (Word.parse("m2"), Word.parse("m1"), Word()))
    with pytest.raises(CompositionError):
        essentiality_certificate(
            CompositionSpec(hopf_hat, catalog("bing_double")))


def test_certificate_matches_tower_oracle_on_catalog_pairs():
    for lhat, q, target in (("borromean", "bing_double", None),
                            ("borromean", "bing_double", 2),
                            ("borromean", "core", None), ("hopf", "core", None)):
        spec = CompositionSpec(catalog(lhat), catalog(q), target=target)
        assert essentiality_certificate(spec) == \
            reference_essentiality_certificate(spec)


def test_certificate_matches_tower_oracle_on_iterated_bing_doubles():
    for depth, spec in enumerate(iterated_bing_specs(7), 1):
        assert spec.lhat.n == depth + 2
        cert = essentiality_certificate(spec)
        assert cert == reference_essentiality_certificate(spec) == (1, -1, -1)


def test_certificate_preconditions_leave_no_kernel_refusal():
    # once both links are almost trivial, the tower oracle never meets a
    # word outside the kernel, so the certificate needs no such refusal
    rng = random.Random(1997)
    patterns = (catalog("core"), catalog("bing_double"), hopf_in_a_ball())
    checked = refused = nonzero = 0
    for _ in range(120):
        lhat = random_link(rng)
        for q in patterns:
            for target in range(2, lhat.n + 1):
                spec = CompositionSpec(lhat, q, target=target)
                try:
                    want = reference_essentiality_certificate(spec)
                except CompositionError as exc:
                    assert "not almost" in str(exc), exc
                    with pytest.raises(CompositionError, match=str(exc)):
                        essentiality_certificate(spec)
                    refused += 1
                    continue
                assert essentiality_certificate(spec) == want, spec
                checked += 1
                nonzero += want.c != 0
    assert checked > 100 and refused > 20 and nonzero > 10


def test_certificate_builds_no_tower(monkeypatch):
    import mgk.composition
    import mgk.milnor
    calls = []
    for module, name in ((mgk.milnor, "normal_form"), (mgk.milnor, "r_inverse"),
                         (mgk.composition, "r_inverse"),
                         (mgk.composition, "compose")):
        def counting(*args, _real=getattr(module, name), _name=name):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(module, name, counting)
    specs = [CompositionSpec(catalog("borromean"), catalog("bing_double")),
             CompositionSpec(catalog("hopf"), catalog("core"))]
    specs += list(iterated_bing_specs(3))
    for spec in specs:
        essentiality_certificate(spec)
    assert calls == []
    mgk.composition.wedge_ring_element(catalog("bing_double"))
    assert calls == ["r_inverse"]  # the counters do count; no tower is built


def test_certificate_reads_only_the_composed_first_longitude():
    # the composed second longitude, [m3,m1]^1000 with each m3 a
    # 2400-letter wedge word, is over the letter budget; the first is not
    borromean = catalog("borromean")
    lhat = LinkModel(borromean.components, borromean.meridians,
                     (borromean.longitudes[0], Word.parse("[m3,m1]^1000"),
                      borromean.longitudes[2]))
    _, q = over_budget_composition()
    spec = CompositionSpec(lhat, q)
    with pytest.raises(BudgetExceeded, match="letter limit of 4194304 letters"):
        compose(spec)
    assert essentiality_certificate(spec) == (1, -600, -600)
    # the over-budget longitude is the first one: still refused
    with pytest.raises(BudgetExceeded, match="letter limit of 4194304 letters"):
        essentiality_certificate(CompositionSpec(*over_budget_composition()))


def test_remark_configuration():
    # essential composition with a trivial single-component ambient link
    ambient = catalog("unlink(1)")
    composed = compose(CompositionSpec(ambient, hopf_in_a_ball()))
    assert is_homotopically_trivial(ambient)
    assert not is_homotopically_trivial(composed)


def test_composed_normal_forms_agree_with_kernel_product():
    # r^{-1}(composed l1) = r^{-1}(l1) * wedge element, exactly
    lhat, q = catalog("borromean"), catalog("bing_double")
    spec = CompositionSpec(lhat, q)
    composed = compose(spec)
    big = ("m2", "z2", "z1")
    lhs = r_inverse(composed.longitude("l1"), big)
    a_elem = r_inverse(lhat.longitudes[0], ("m2", "m3"))
    big_ring = Ring(("m2", "z2"))
    assert lhs == a_elem.embed(big_ring) * wedge_ring_element(q).embed(big_ring)


def composed_expansions(spec):
    """The name-keyed Magnus expansions of the composed link's ambient
    longitudes, each over its link's other meridians."""
    link = compose(spec)
    return [named_terms(magnus(w, link.meridians[:i] + link.meridians[i + 1:]))
            for i, w in enumerate(link.longitudes[:spec.lhat.n - 1])]


def test_composition_is_a_ring_map_on_magnus_expansions():
    # the lemma of mgk.composition: every wedge here has nonconstant terms
    # that pairwise share a variable (bing_double's, core's and the empty one)
    specs = list(iterated_bing_specs(6))
    rng = random.Random(12)
    for _ in range(70):
        specs += grope_tree_specs(
            random_grope_tree(rng, rng.randint(2, 6), max_genus=1))[0]
    specs += [CompositionSpec(catalog(lhat), q, target=target)
              for lhat, q, target in (
                  ("borromean", catalog("bing_double"), None),
                  ("borromean", catalog("bing_double"), 2),
                  ("hopf", catalog("bing_double"), None),
                  ("whitehead_pattern", catalog("bing_double"), None),
                  ("borromean", catalog("core"), None),
                  ("hopf", catalog("core"), None),
                  ("borromean", hopf_in_a_ball(), None))]
    assert len(specs) >= 200
    for spec in specs:
        assert substituted_expansions(spec) == composed_expansions(spec), spec


def test_composition_is_no_ring_map_when_wedge_terms_share_no_variable():
    # M(z1 z2) - 1 = z1 + z2 + z1*z2, whose square keeps z1*z2 + z2*z1 in R
    # while y_t*y_t is 0 there: the substitution does not descend to R
    q = catalog("bing_double")
    q = SolidTorusLink(q.components, q.meridians, q.longitudes,
                       wedge=Word.parse("z1 z2"))
    spec = CompositionSpec(catalog("borromean"), q)
    assert substituted_expansions(spec) != composed_expansions(spec)


# -- links from grope trees ---------------------------------------------------------

def balanced_tree(depth):
    tree = LEAF
    for _ in range(depth):
        tree = GropeTree(((tree, tree),))
    return tree


def test_grope_tree_links_bound_their_boundary_words():
    """The link that `compose` builds from a genus-1 tree realizes the
    tree and its Alexander duals.

    The root longitude is the tree's boundary word in the tip meridians,
    of lower central series degree the tree's class; the link is almost
    trivial, with top mu-bar +1 along the tips in depth-first order.  Each
    tip t's longitude has the Magnus expansion of the boundary word of
    `dual_tree(closed, t)`, over m1 and then each partner's tip meridians
    in depth-first order, root side first, or of that word's inverse when
    t's path has an odd number of L steps.

    The sign rule, from the catalog's `bing_double`: composed into the
    component standing for a Surface with longitude lam, it gives the left
    member the longitude [z2, lam] and the right member [lam, z1], z1 and
    z2 the members' meridians, which later compositions replace by their
    boundary words.  So t's longitude is L_k along its path, from
    L_0 = m1 (hopf's l2) by L_j = [L_(j-1), B_j] at an R step and
    [B_j, L_(j-1)] = [L_(j-1), B_j]^-1 at an L step, B_j the boundary
    word of the j-th partner; the dual's boundary word is D_k, from
    D_0 = m1 by D_j = [D_(j-1), B_j].  The two sides of each commutator
    use disjoint generators, so each word expands as 1 + x, x homogeneous
    of degree the number of its generators (a longer term repeats a
    variable and is 0 in R); then X^-1 expands as 1 - x, [X, B] as 1 + xb - bx, and
    [X^-1, B] as [X, B]^-1.  By induction L_k expands as D_k or D_k^-1,
    by the parity of the L steps.  Over all of `names` no conjugation
    changes 1 + x, so basepoints do not matter.
    """
    rng = random.Random(7)
    trees = [random_grope_tree(rng, rng.randint(2, 8), max_genus=1)
             for _ in range(200)]
    trees += [balanced_tree(2), balanced_tree(3)]
    rng = random.Random(11)
    trees += [random_grope_tree(rng, k, max_genus=1, max_tips=10)
              for k in (9, 10) for _ in range(5)]
    for tree in trees:
        link, tips = grope_tree_link(tree)
        assert link.n == tree.leaf_count + 1
        assert set(tips) == set(link.meridians[1:])
        root = link.longitudes[0]
        assert root == boundary_word(tree, tips), tree
        assert lcs_degree(root, link.meridians[1:]) == grope_class(tree), tree
        assert is_almost_trivial(link), tree
        order = tuple(link.components[link.meridians.index(t)] for t in tips)
        assert mu_bar(link, order + ("l1",)) == 1, tree
        closed = ClosedGropeTree(tree)
        meridian = dict(zip(leaf_paths(tree), tips))  # depth-first order
        for path, t in meridian.items():
            names = (link.meridians[0],)
            for j, (i, side) in enumerate(path):
                partner = path[:j] + ((i, 1 - side),)
                names += tuple(m for p, m in meridian.items()
                               if p[:j + 1] == partner)
            dual = boundary_word(dual_tree(closed, path).body, names)
            if sum(side == LEFT for _, side in path) % 2:
                dual = ~dual
            longitude = link.longitudes[link.meridians.index(t)]
            assert magnus(longitude, names) == magnus(dual, names), (tree, path)
    assert {tree.leaf_count for tree in trees} == set(range(2, 11))
