"""Acceptance suite: one test per criterion, exact integer checks.

Run with `pytest tests/test_acceptance.py -s` to see one pass/fail line
per criterion.
"""

import itertools
import json
import random
import subprocess
import sys

from mgk.composition import CompositionSpec, compose, essentiality_certificate
from mgk.errors import CompositionError
from mgk.gropes import (dual_class, dual_tree, grope_class, is_isomorphic,
                        leaf_paths)
from mgk.gropes import boundary_word
from mgk.links import (SolidTorusLink, catalog, is_homotopically_trivial,
                       mu_bar)
from mgk.milnor import (conjugation_action, default_alphabet, lcs_degree,
                        magnus, normal_form, r_inverse, r_map)
from mgk.ring import Ring
from mgk.sampling import (random_closed_tree, random_grope_tree,
                          random_ring_element, random_word)
from mgk.words import Word, commutator

from helpers import reroot_oracle


def report(num, description, ok):
    print("criterion %2d [%s] %s" % (num, "PASS" if ok else "FAIL", description))
    assert ok, "criterion %d failed: %s" % (num, description)


def test_criterion_01_ring_and_magnus_axioms():
    rng = random.Random(101)
    ok = True
    for _ in range(500):
        s = rng.randint(1, 5)
        alphabet = default_alphabet(s)
        ring = Ring(alphabet)
        u, v, w = (random_ring_element(rng, ring) for _ in range(3))
        ok = ok and (u * v) * w == u * (v * w)
        ok = ok and u * (v + w) == u * v + u * w
        ok = ok and (u + v) * w == u * w + v * w
        ok = ok and u * 1 == u and 1 * u == u
        w1 = random_word(rng, alphabet, max_len=12)
        w2 = random_word(rng, alphabet, max_len=12)
        e1 = magnus(w1, alphabet)
        ok = ok and magnus(w1 * w2, alphabet) == e1 * magnus(w2, alphabet)
        ok = ok and e1 * magnus(~w1, alphabet) == 1
        if not ok:
            break
    report(1, "ring axioms and Magnus multiplicativity (500 trials, s <= 5)", ok)


def test_criterion_02_milnor_relations():
    rng = random.Random(102)
    ok = True
    for _ in range(300):
        s = rng.randint(1, 5)
        alphabet = default_alphabet(s)
        u = random_word(rng, alphabet, max_len=6)
        v = random_word(rng, alphabet, max_len=6)
        mi = Word.gen(rng.choice(alphabet))
        rel = commutator(u * mi * ~u, v * mi * ~v)
        if not normal_form(rel, alphabet).is_identity:
            ok = False
            break
    report(2, "Milnor relations normalize to the identity (300 trials)", ok)


def test_criterion_03_nilpotency():
    rng = random.Random(103)
    ok = True
    for _ in range(100):
        s = rng.randint(1, 5)
        alphabet = default_alphabet(s)
        w = random_word(rng, alphabet, max_len=3)
        for _ in range(s):  # weight s+1 in total
            w = commutator(random_word(rng, alphabet, max_len=3), w)
        if not normal_form(w, alphabet).is_identity:
            ok = False
            break
    report(3, "weight-(s+1) commutators die in M(F_s) (100 trials, s <= 5)", ok)


def test_criterion_04_split_exact_sequence():
    rng = random.Random(104)
    ok = True
    for _ in range(200):
        s = rng.randint(1, 4)
        alphabet = default_alphabet(s + 1)
        ring = Ring(alphabet[:-1])
        rho1 = random_ring_element(rng, ring)
        rho2 = random_ring_element(rng, ring)
        ok = ok and r_inverse(r_map(rho1, alphabet), alphabet) == rho1
        sum_word = r_map(rho1, alphabet) * r_map(rho2, alphabet)
        ok = ok and normal_form(sum_word * ~r_map(rho1 + rho2, alphabet),
                                alphabet).is_identity
        g = random_word(rng, alphabet[:-1], max_len=6)
        conj = g * r_map(rho1, alphabet) * ~g
        ok = ok and r_inverse(conj, alphabet) \
            == conjugation_action(g, rho1, alphabet[:-1])
        if not ok:
            break
    report(4, "split exact sequence round trips (200 trials, s <= 4)", ok)


def test_criterion_05_boundary_degree():
    rng = random.Random(105)
    ok = True
    for _ in range(200):
        k = rng.randint(1, 6)
        tree = random_grope_tree(rng, k, max_tips=8)
        names = tuple("g%d" % i for i in range(len(leaf_paths(tree))))
        if lcs_degree(boundary_word(tree, names), names) != k:
            ok = False
            break
    report(5, "boundary word degree equals the class (200 trees, k <= 6)", ok)


def test_criterion_06_grope_duality():
    rng = random.Random(106)
    ok = True
    for _ in range(300):
        k = rng.randint(2, 8)
        genus1 = rng.random() < 0.5
        closed = random_closed_tree(rng, k, max_genus=1 if genus1 else 2,
                                    max_tips=10)
        k_actual = grope_class(closed.body)
        tips = leaf_paths(closed.body)
        duals = [dual_tree(closed, tip) for tip in tips]
        ok = ok and len(duals) == len(tips)
        for tip, dual in zip(tips, duals):
            ok = ok and dual_class(closed, tip) >= k_actual
            ok = ok and dual_class(closed, tip) == grope_class(dual.body)
            if genus1:
                ok = ok and is_isomorphic(dual, reroot_oracle(closed, tip))
        if not ok:
            break
    report(6, "dual classes bound the class; genus-1 duals re-root "
              "(300 trees, k <= 8)", ok)


def test_criterion_07_sigma_multiplication():
    ok = True
    lhat = catalog("borromean")
    bar = ("m2", "m3")
    y_ring = Ring(("m2",))
    for name in ("core", "bing_double"):
        q = catalog(name)
        big_alphabet = ("m2",) + q.meridians[1:] + (q.meridians[0],)
        big_ring = Ring(("m2",) + q.meridians[1:])
        wedge_alphabet = q.meridians[1:] + (q.meridians[0],)
        wedge_elem = r_inverse(q.wedge, wedge_alphabet).embed(big_ring)
        rng = random.Random(107)
        for _ in range(100):
            rho = random_ring_element(rng, y_ring)
            lifted = r_map(rho, bar).substitute("m3", q.wedge)
            got = r_inverse(lifted, big_alphabet)
            if got != rho.embed(big_ring) * wedge_elem:
                ok = False
                break
    report(7, "composition multiplies kernel coordinates by the wedge "
              "element (100 trials each for core, bing_double)", ok)


def test_criterion_08_certificate():
    cert = essentiality_certificate(
        CompositionSpec(catalog("borromean"), catalog("bing_double")))
    ok = abs(cert.a) == 1 and abs(cert.b) == 1
    ok = ok and cert.c == cert.a * cert.b and cert.c != 0

    ambient = catalog("unlink(1)")
    ball_pattern = SolidTorusLink(("q1", "q2"), ("z1", "z2"),
                                  (Word.parse("z2"), Word.parse("z1")),
                                  wedge=Word())
    spec = CompositionSpec(ambient, ball_pattern)
    composed = compose(spec)
    ok = ok and not is_homotopically_trivial(composed)
    ok = ok and is_homotopically_trivial(ambient)
    try:
        essentiality_certificate(spec)
        ok = False  # must refuse without the almost-triviality setup
    except CompositionError:
        pass
    report(8, "certificate: |a| = |b| = 1, c = a*b != 0 on the catalog "
              "pair; in-a-ball configuration essential yet refused", ok)


def test_criterion_09_link_invariants():
    ok = abs(mu_bar(catalog("hopf"), (2, 1))) == 1
    ok = ok and abs(mu_bar(catalog("borromean"), (2, 3, 1))) == 1
    unlink = catalog("unlink(4)")
    for k in (2, 3, 4):
        for idx in itertools.permutations(range(1, 5), k):
            ok = ok and mu_bar(unlink, idx) == 0
    ok = ok and is_homotopically_trivial(catalog("whitehead_pattern"))
    report(9, "mu-bar fixtures (|mu| = 1), unlink vanishing, "
              "whitehead pattern trivial", ok)


def test_criterion_10_determinism(capsys):
    from mgk.cli import main
    args = ["verify", "all", "--trials", "60", "--seed", "7", "--json"]
    code1 = main(args)
    out1 = capsys.readouterr().out
    code2 = main(args)
    out2 = capsys.readouterr().out
    proc = subprocess.run([sys.executable, "-m", "mgk.cli"] + args,
                          capture_output=True, text=True)
    ok = code1 == code2 == proc.returncode == 0
    ok = ok and out1 == out2 == proc.stdout
    ok = ok and json.loads(out1)["summary"]["status"] == "pass"
    with capsys.disabled():
        print()
        report(10, "verify all --seed 7 reports are byte-identical "
                   "across runs and processes", ok)
