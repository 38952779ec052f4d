import itertools
import json
import os
import random

import pytest

from mgk.composition import compose
from mgk.errors import LinkFormatError, UnknownGeneratorError
from mgk.links import (LinkModel, SolidTorusLink, _coordinates, catalog,
                       catalog_names, delete_component, is_almost_trivial,
                       is_homotopically_trivial, link_from_dict, link_to_dict,
                       load_link, mu_bar, save_link)
from mgk.ring import Ring
from mgk.words import IDENTITY, Word

from helpers import (conjugated_relator, coordinates_oracle, free_reduce,
                     iterated_bing_specs, reference_is_almost_trivial,
                     reference_is_homotopically_trivial, reference_mu_bar,
                     reference_solid_torus_check)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures",
                        "catalog_longitudes.json")


def fixture_data():
    with open(FIXTURES) as fh:
        return json.load(fh)


def test_committed_fixtures_match_fresh_oracle_run(tmp_path):
    import subprocess
    import sys
    script = os.path.join(os.path.dirname(__file__), "oracles",
                          "wirtinger_oracle.py")
    out = tmp_path / "fresh.json"
    proc = subprocess.run([sys.executable, script, str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text()) == fixture_data()


# -- catalog matches the committed oracle output --------------------------------

def test_catalog_matches_wirtinger_fixtures():
    data = fixture_data()
    for name in ("hopf", "borromean", "whitehead_pattern"):
        model = catalog(name)
        fx = data[name]
        assert list(model.components) == fx["components"]
        assert list(model.meridians) == fx["meridians"]
        for word, text in zip(model.longitudes, fx["longitudes"]):
            assert word == Word.parse(text)


def test_bing_double_matches_fixture():
    fx = fixture_data()["bing_double"]
    q = catalog("bing_double")
    assert list(q.meridians) == fx["meridians"]
    assert q.wedge == Word.parse(fx["wedge"])
    for word, text in zip(q.longitudes, fx["longitudes"]):
        assert word == Word.parse(text)


def test_fixture_mu_values():
    data = fixture_data()
    assert abs(data["hopf"]["mu"]["2,1"]) == 1
    assert abs(data["borromean"]["mu"]["2,3,1"]) == 1
    assert mu_bar(catalog("hopf"), (2, 1)) == data["hopf"]["mu"]["2,1"]
    assert mu_bar(catalog("borromean"), (2, 3, 1)) \
        == data["borromean"]["mu"]["2,3,1"]


def test_catalog_names():
    assert catalog_names() == ("unlink(n)", "hopf", "borromean",
                               "whitehead_pattern", "core", "bing_double")
    for name in catalog_names()[1:]:
        assert catalog(name) is catalog(name)  # one table, built once
    assert catalog("unlink(3)") is not catalog("unlink(3)")
    assert catalog("unlink(3)").meridians == ("m1", "m2", "m3")
    assert catalog("unlink(3)").n == 3
    assert isinstance(catalog("core"), SolidTorusLink)
    assert isinstance(catalog("bing_double"), LinkModel)
    assert catalog("bing_double").longitude("q2") == Word.parse("[lambda,z1]")
    with pytest.raises(LinkFormatError):
        catalog("granny")
    with pytest.raises(LinkFormatError, match="^unknown component 'l4'$"):
        catalog("borromean").index_of("l4")
    with pytest.raises(LinkFormatError):
        catalog("unlink(0)")


def test_core_pattern():
    core = catalog("core")
    assert str(core.longitudes[0]) == "lambda"
    assert str(core.wedge) == "z1"


# -- mu-bar -----------------------------------------------------------------------

def test_mu_trivial_link_vanishes():
    unlink = catalog("unlink(3)")
    for idx in ((1, 2), (2, 1), (1, 2, 3), (3, 1, 2)):
        assert mu_bar(unlink, idx) == 0


def test_mu_examples():
    assert mu_bar(catalog("hopf"), (2, 1)) == 1
    assert mu_bar(catalog("hopf"), (1, 2)) == 1
    assert mu_bar(catalog("borromean"), (2, 3, 1)) == 1
    assert mu_bar(catalog("borromean"), (3, 2, 1)) == -1


def test_mu_accepts_names():
    assert mu_bar(catalog("hopf"), ("l2", "l1")) == 1


def test_mu_errors():
    hopf = catalog("hopf")
    with pytest.raises(LinkFormatError):
        mu_bar(hopf, (1, 1))
    with pytest.raises(LinkFormatError):
        mu_bar(hopf, (3, 1))
    with pytest.raises(LinkFormatError):
        mu_bar(hopf, (1,))


def test_mu_conjugation_preserves_bottom_degree():
    base = catalog("borromean")
    conj = LinkModel(base.components, base.meridians,
                     (Word.parse("m2 [m2,m3] m2'"),) + base.longitudes[1:])
    assert mu_bar(conj, (2, 3, 1)) == mu_bar(base, (2, 3, 1))


# -- triviality --------------------------------------------------------------------

def test_triviality_examples():
    assert is_homotopically_trivial(catalog("unlink(4)"))
    assert not is_homotopically_trivial(catalog("hopf"))
    assert is_homotopically_trivial(catalog("whitehead_pattern"))


def test_whitehead_longitude_is_milnor_relation():
    from mgk.milnor import normal_form
    wh = catalog("whitehead_pattern")
    assert free_reduce(wh.longitudes[0]) != IDENTITY
    assert normal_form(wh.longitudes[0], ("m2", "m3")).is_identity


def test_almost_trivial():
    assert is_almost_trivial(catalog("borromean"))
    assert is_almost_trivial(catalog("hopf"))  # n = 2: sublinks are knots
    essential3 = LinkModel(("l1", "l2", "l3"), ("m1", "m2", "m3"),
                           (Word.parse("m2"), Word.parse("m1"), Word()))
    assert not is_almost_trivial(essential3)  # contains a Hopf pair
    with pytest.raises(LinkFormatError):
        is_almost_trivial(catalog("unlink(1)"))


def test_triviality_is_monotone():
    wh = catalog("whitehead_pattern")
    for i in (1, 2, 3):
        assert is_homotopically_trivial(delete_component(wh, i))


def iterated_commutator(gens):
    """[...[[g1, g2], g3], ...]: its expansion is 1 plus terms of degree
    len(gens)."""
    word = Word.gen(gens[0])
    for g in gens[1:]:
        b = Word.gen(g)
        word = word * b * ~word * ~b
    return word


def random_link(rng, n=None):
    """An n-component link (default: 2-5, drawn) whose longitudes are
    products of conjugated Milnor relators, plus for "top" links an
    iterated commutator of all other meridians (almost trivial) or for
    "letters" links a few random letters (usually not almost trivial)."""
    n = rng.randint(2, 5) if n is None else n
    mers = tuple("m%d" % (i + 1) for i in range(n))
    kind = rng.choice(("relators", "top", "letters"))
    longitudes = []
    for k in range(n):
        others = mers[:k] + mers[k + 1:]
        parts = [conjugated_relator(rng, others)
                 for _ in range(rng.randint(0, 3))]
        if kind == "top" and rng.random() < 0.6:
            extra = iterated_commutator(rng.sample(others, len(others)))
        elif kind == "letters" and rng.random() < 0.6:
            extra = Word(tuple((rng.choice(others), rng.choice((1, -1)))
                               for _ in range(rng.randint(1, 2))))
        else:
            extra = Word()
        parts.insert(rng.randint(0, len(parts)), extra)
        word = Word()
        for part in parts:
            word = word * part
        longitudes.append(word)
    return LinkModel(tuple("l%d" % (i + 1) for i in range(n)), mers,
                     tuple(longitudes))


def test_invariants_agree_with_sublink_recursion_oracles():
    rng = random.Random(20261017)
    seen = set()
    sequences = nonzero = 0
    for _ in range(150):
        link = random_link(rng)
        trivial = is_homotopically_trivial(link)
        almost = is_almost_trivial(link)
        assert trivial == reference_is_homotopically_trivial(link), link
        assert almost == reference_is_almost_trivial(link), link
        seen.add((trivial, almost))
        for k in range(2, link.n + 1):
            for idx in itertools.permutations(range(1, link.n + 1), k):
                mu = mu_bar(link, idx)
                assert mu == reference_mu_bar(link, idx), (link, idx)
                sequences += 1
                nonzero += mu != 0
    # trivial, almost trivial but not trivial, and not almost trivial
    assert seen == {(True, True), (False, True), (False, False)}
    assert 0 < nonzero < sequences


def test_invariants_expand_each_longitude_at_most_once(monkeypatch):
    # one kernel scan per longitude read, stopping at the first failure;
    # no full expansion, no normal-form tower and no ring per component
    import mgk.links
    import mgk.milnor
    calls = []
    for module, name in ((mgk.links, "scan"), (mgk.milnor, "scan"),
                         (mgk.milnor, "magnus"), (mgk.milnor, "normal_form")):
        def counting(*args, _real=getattr(module, name), _name=name):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(module, name, counting)
    assert is_homotopically_trivial(catalog("unlink(8)"))
    assert calls == ["scan"] * 8
    mers = tuple("m%d" % (i + 1) for i in range(5))
    five = LinkModel(tuple("l%d" % (i + 1) for i in range(5)), mers, tuple(
        iterated_commutator(mers[:k] + mers[k + 1:]) for k in range(5)))
    calls.clear()
    assert is_almost_trivial(five)
    assert len(calls) <= 5 and set(calls) == {"scan"}
    calls.clear()
    assert not is_homotopically_trivial(five)
    assert calls == ["scan"]
    calls.clear()
    assert mu_bar(five, (2, 3, 4, 5, 1)) == 1
    assert mu_bar(catalog("borromean"), (3, 2, 1)) == -1
    assert calls == []
    mgk.milnor.r_inverse(Word.parse("m2 [m1,m3] m2'"), ("m1", "m2", "m3"))
    assert calls == ["scan"]  # r_inverse itself: one scan, no tower
    rings = []
    real_init = Ring.__init__

    def counting_init(self, variables):
        rings.append(len(variables))
        real_init(self, variables)

    monkeypatch.setattr(Ring, "__init__", counting_init)
    big = catalog("unlink(64)")
    assert is_homotopically_trivial(big) and is_almost_trivial(big)
    assert rings == []


def oracle_answers(n, coords):
    """Both triviality answers of an n-component link from its coordinates
    by the per-component `r_inverse` oracle, degrees read by `Ring.degree`."""
    degree = Ring(tuple("x%d" % i for i in range(n - 2))).degree
    return (n == 1 or all(rho == {} for rho in coords),
            all(rho is not None and all(degree(m) == n - 2 for m in rho)
                for rho in coords))


def test_coordinates_agree_with_the_per_component_r_inverse_oracle():
    rng = random.Random(20261019)
    links = [random_link(rng, rng.randint(2, 9)) for _ in range(1000)]
    links += [compose(spec) for spec in iterated_bing_specs(5)]
    fixtures = os.path.join(os.path.dirname(__file__), "fixtures", "links")
    links += [load_link(os.path.join(fixtures, name))
              for name in sorted(os.listdir(fixtures))]
    seen = {"outside": 0, "zero": 0, "nonzero": 0}
    answers = set()
    for link in links:
        coords = list(coordinates_oracle(link))
        assert list(_coordinates(link)) == coords, link
        answer = (is_homotopically_trivial(link), is_almost_trivial(link))
        assert answer == oracle_answers(link.n, coords), link
        answers.add(answer)
        for rho in coords:
            seen["outside" if rho is None else "nonzero" if rho else "zero"] += 1
    assert min(seen.values()) > 100, seen
    assert answers == {(True, True), (False, True), (False, False)}


def test_triviality_tests_on_a_pattern_name_its_core_symbol():
    pattern = catalog("bing_double")
    for test in (is_homotopically_trivial, is_almost_trivial):
        with pytest.raises(UnknownGeneratorError, match="'lambda'"):
            test(pattern)
    assert mu_bar(pattern, (1, 2)) == mu_bar(pattern, (2, 1)) == 0


def test_triviality_tests_agree_with_oracles_on_bing_doubles_and_large_links():
    for spec in iterated_bing_specs(5):
        link = compose(spec)
        assert not is_homotopically_trivial(link)
        assert not reference_is_homotopically_trivial(link)
        assert is_almost_trivial(link) and reference_is_almost_trivial(link)
    rng = random.Random(20261018)
    seen = set()
    for n in (6, 6, 6, 6, 7, 7, 7):
        link = random_link(rng, n)
        trivial, almost = is_homotopically_trivial(link), is_almost_trivial(link)
        assert trivial == reference_is_homotopically_trivial(link), link
        assert almost == reference_is_almost_trivial(link), link
        seen.add((trivial, almost))
    assert seen == {(True, True), (False, True), (False, False)}
    # in the kernel of deleting m4, but with the coordinate y2 of degree 1
    low = LinkModel(("l1", "l2", "l3", "l4"), ("m1", "m2", "m3", "m4"),
                    (Word.parse("[m2,m4]"), Word(), Word(), Word()))
    assert not is_almost_trivial(low) and not reference_is_almost_trivial(low)


def test_triviality_edge_cases_one_and_two_components():
    knot = catalog("unlink(1)")
    assert is_homotopically_trivial(knot) and reference_is_homotopically_trivial(knot)
    with pytest.raises(LinkFormatError):
        is_almost_trivial(knot)
    for longitudes in (("m2", "m1"), ("m2^-3", "1"), ("m2 m2'", "m1^2 m1'^2"),
                       ("1", "1")):
        link = LinkModel(("l1", "l2"), ("m1", "m2"),
                         tuple(map(Word.parse, longitudes)))
        assert is_almost_trivial(link) and reference_is_almost_trivial(link)
        assert is_homotopically_trivial(link) == (longitudes[0] in ("1", "m2 m2'")) \
            == reference_is_homotopically_trivial(link)


# -- deletion -----------------------------------------------------------------------

def test_delete_examples():
    hopf = catalog("hopf")
    sub = delete_component(hopf, 2)
    assert sub.components == ("l1",)
    assert free_reduce(sub.longitudes[0]) == IDENTITY

    borr = catalog("borromean")
    sub = delete_component(borr, 3)
    assert [free_reduce(w) for w in sub.longitudes] == [IDENTITY, IDENTITY]
    assert is_homotopically_trivial(sub)

    unlink = catalog("unlink(3)")
    assert delete_component(unlink, 1).n == 2


def test_delete_commutes_with_mu():
    borr = catalog("borromean")
    sub = delete_component(borr, "l1")
    assert mu_bar(sub, ("l2", "l3")) == mu_bar(borr, ("l2", "l3"))
    assert mu_bar(sub, ("l3", "l2")) == mu_bar(borr, ("l3", "l2"))


def test_delete_last_component_rejected():
    with pytest.raises(LinkFormatError):
        delete_component(catalog("unlink(1)"), 1)


# -- validation and JSON -------------------------------------------------------------

def test_model_validation():
    with pytest.raises(LinkFormatError):
        LinkModel(("a",), ("m1",), (Word.parse("m1"),))  # own meridian
    with pytest.raises(LinkFormatError):
        LinkModel(("a", "b"), ("m1", "m2"), (Word.parse("q9"), Word()))
    with pytest.raises(LinkFormatError):
        LinkModel(("a", "a"), ("m1", "m2"), (Word(), Word()))


# (components, meridians, longitudes, wedge) with one fault, and the message
PATTERN_FAULTS = [
    ((), (), (), "", "a link needs at least one component"),
    (("q1", "q1"), ("z1", "z2"), ("", ""), "",
     "component names must be distinct"),
    (("q1", "q2"), ("z1", "z1"), ("", ""), "", "meridian names must be distinct"),
    (("q1", "q2"), ("z1",), ("", ""), "",
     "components, meridians and longitudes must align"),
    (("q1",), ("z1",), ("lambda z1",), "",
     "longitude of 'q1' contains its own meridian 'z1'"),
    (("q1",), ("z1",), ("lambda q9",), "",
     "longitude of 'q1' uses unknown generator 'q9'"),
    (("q1",), ("lambda",), ("",), "", "core symbol clashes with a meridian"),
    (("q1",), ("z1",), ("lambda",), "z1 lambda",
     "the wedge word cannot use the core symbol"),
    (("q1",), ("z1",), ("lambda",), "z9", "bad letter 'z9' in the wedge word"),
]


def test_solid_torus_validation():
    for components, meridians, longitudes, wedge, message in PATTERN_FAULTS:
        with pytest.raises(LinkFormatError) as exc:
            SolidTorusLink(components, meridians,
                           tuple(map(Word.parse, longitudes)), Word.parse(wedge))
        assert str(exc.value) == message


def random_pattern_kwargs(rng):
    """SolidTorusLink arguments, well formed or with one random fault."""
    n = rng.randint(1, 3)
    core = rng.choice(("lambda", "t"))
    components = ["q%d" % (i + 1) for i in range(n)]
    meridians = ["z%d" % (i + 1) for i in range(n)]

    def word(letters):
        return Word((rng.choice(letters), rng.choice((1, -1)))
                    for _ in range(rng.randint(0, 4)))

    longitudes = [word([g for g in meridians if g != mer] + [core])
                  for mer in meridians]
    wedge = word(meridians)
    fault = rng.randrange(10)
    k = rng.randrange(n)
    if fault == 1:
        components, meridians, longitudes = [], [], []
    elif fault == 2:
        components[k] = components[k - 1]
    elif fault == 3:
        meridians[k] = meridians[k - 1]
    elif fault == 4:
        rng.choice((components, meridians, longitudes)).append(
            rng.choice(("q9", "z9", Word())))
    elif fault == 5:
        longitudes[k] *= Word.gen(rng.choice((meridians[k], "q9", "lambda")))
    elif fault == 6:
        core = rng.choice(meridians)
    elif fault == 7:
        wedge *= Word.gen(rng.choice((core, "z9", "lambda")))
    return {"components": tuple(components), "meridians": tuple(meridians),
            "longitudes": tuple(longitudes), "wedge": wedge,
            "core_symbol": core}


def _accepts(check, kwargs):
    try:
        check(**kwargs)
    except LinkFormatError:
        return False
    return True


def test_pattern_validation_agrees_with_the_pattern_only_reference():
    rng = random.Random(20261018)
    decisions = {True: 0, False: 0}
    for _ in range(5000):
        kwargs = random_pattern_kwargs(rng)
        accepted = _accepts(SolidTorusLink, kwargs)
        assert accepted == _accepts(reference_solid_torus_check, kwargs), kwargs
        decisions[accepted] += 1
    assert decisions[True] > 1500 and decisions[False] > 1500


def test_ambient_model_of_bing_double_is_borromean_shaped():
    qhat = catalog("bing_double").ambient_model()
    assert qhat.components == ("q1", "q2", "wedge")
    assert str(qhat.longitudes[0]) == "z2 w z2' w'"
    assert str(qhat.longitudes[2]) == "z1 z2 z1' z2'"
    assert is_almost_trivial(qhat)
    assert not is_homotopically_trivial(qhat)
    assert qhat.meridians == ("z1", "z2", "w")
    for names, meridians in ((("q1", "wedge"), ("z1", "z2")),
                             (("q1", "q2"), ("z1", "w"))):
        pattern = SolidTorusLink(names, meridians, (Word(), Word()), wedge=Word())
        with pytest.raises(LinkFormatError, match="wedge names clash"):
            pattern.ambient_model()


def test_json_round_trip(tmp_path):
    for name in ("hopf", "borromean", "bing_double", "core"):
        model = catalog(name)
        data = link_to_dict(model)
        again = link_from_dict(json.loads(json.dumps(data)))
        assert again == model
        path = tmp_path / (name + ".json")
        save_link(model, str(path))
        assert load_link(str(path)) == model


def test_json_defaults():
    model = link_from_dict({"components": ["a", "b"],
                            "longitudes": {"a": "m2", "b": "m1"}})
    assert model.meridians == ("m1", "m2")
    pattern = link_from_dict({"components": ["a"],
                              "longitudes": {"a": "lambda"},
                              "wedge": "z1"})
    assert isinstance(pattern, SolidTorusLink)
    assert pattern.meridians == ("z1",)


def test_json_meridians_and_pattern_keys_are_read_when_present():
    # a present "meridians" key is read, empty or not, so [] does not align
    for meridians in ([], None, ["m1"]):
        with pytest.raises(LinkFormatError):
            link_from_dict({"components": ["a", "b"], "meridians": meridians,
                            "longitudes": {"a": "m2", "b": "1"}})
    model = link_from_dict({"components": ["a", "b"], "meridians": ["x", "y"],
                            "longitudes": {"a": "y", "b": "1"}})
    assert model.meridians == ("x", "y")
    # a core symbol without a wedge is a pattern with its wedge key lost
    with pytest.raises(LinkFormatError, match="'core_symbol' but no 'wedge'"):
        link_from_dict({"components": ["a"], "longitudes": {"a": "1"},
                        "core_symbol": "t"})
    pattern = link_from_dict({"components": ["a"], "longitudes": {"a": "t"},
                              "wedge": "z1", "core_symbol": "t"})
    assert isinstance(pattern, SolidTorusLink) and pattern.core_symbol == "t"


def test_json_errors():
    with pytest.raises(LinkFormatError):
        link_from_dict({"components": ["a"]})
    with pytest.raises(LinkFormatError):
        link_from_dict({"components": ["a"], "longitudes": {}})
    # a longitude key that names no component is refused, not dropped
    with pytest.raises(LinkFormatError, match="no component: 'c', 'l2'$"):
        link_from_dict({"components": ["a"],
                        "longitudes": {"a": "1", "l2": "m1", "c": "1"}})


BAD_LINK_JSON = [
    {"components": ["a", "b"], "longitudes": {"a": 5, "b": "m1"}},
    {"components": ["a", "b"], "longitudes": {"a": None, "b": "m1"}},
    {"components": ["a", "b"], "longitudes": ["m2", "m1"]},
    {"components": "ab", "longitudes": {"a": "m2", "b": "m1"}},
    {"components": [["a"], "b"], "longitudes": {"b": "m1"}},
    {"components": ["a", "b"], "meridians": "xy",
     "longitudes": {"a": "y", "b": "x"}},
    {"components": ["a"], "longitudes": {"a": "lambda"}, "wedge": 1},
    {"components": ["a"], "longitudes": {"a": "lambda"}, "wedge": "z1",
     "core_symbol": ["lambda"]},
    ["a", "b"],
    "borromean",
    {"components": ["a", "b"], "meridians": [],
     "longitudes": {"a": "m2", "b": "1"}},
    {"components": ["a"], "longitudes": {"a": "1"}, "core_symbol": "t"},
    {"components": ["a"], "longitudes": {"a": "1", "b": "m1"}},
]


@pytest.mark.parametrize("data", BAD_LINK_JSON)
def test_json_schema_errors(data):
    with pytest.raises(LinkFormatError):
        link_from_dict(data)
