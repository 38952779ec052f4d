import random

import pytest

from mgk.composition import (Certificate, CompositionSpec, compose,
                             essentiality_certificate, verify_sigma,
                             wedge_ring_element)
from mgk.errors import BudgetExceeded, CompositionError, NotInKernelError
from mgk.links import (LinkModel, SolidTorusLink, catalog,
                       is_homotopically_trivial, mu_bar)
from mgk.milnor import r_inverse, r_map
from mgk.ring import Ring
from mgk.sampling import random_ring_element
from mgk.words import Word

from helpers import iterated_bing_specs, reference_essentiality_certificate
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
                         (mgk.composition, "r_inverse")):
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
