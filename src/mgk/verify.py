"""Randomized property sweeps with reproducible reports.

Every sweep draws from a random.Random seeded by the run seed and the
section name, so identical configurations produce byte-identical JSON
reports.  The generator guard keeps ring ranks bounded (the rank grows
superexponentially in the number of variables).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

from . import composition, gropes, links, milnor
from .ring import Ring
from .sampling import (random_closed_tree, random_grope_tree,
                       random_ring_element, random_word)
from .words import Word, commutator

__all__ = ["RunConfig", "run_all", "GUARD_ENV", "generator_guard"]

GUARD_ENV = "MGK_MAX_GENERATORS"


def generator_guard() -> int:
    try:
        return max(1, int(os.environ.get(GUARD_ENV, "8")))
    except ValueError:
        return 8


@dataclass
class RunConfig:
    seed: int = 0
    trials: int = 200
    max_generators: int = 6

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.max_generators < 1:
            raise ValueError("max_generators must be >= 1")
        self.max_generators = min(self.max_generators, generator_guard())

    def rng(self, section: str) -> random.Random:
        return random.Random("%d/%s" % (self.seed, section))

    def as_dict(self) -> dict:
        return {"seed": self.seed, "trials": self.trials,
                "max_generators": self.max_generators}


def _case(name, trials, failures, witness=None):
    return {
        "input": name,
        "expected": {"failures": 0},
        "actual": {"trials": trials, "failures": failures,
                   "witness": witness},
        "status": "pass" if failures == 0 else "fail",
    }


def _sweep(name, samples, check):
    failures = 0
    witness = None
    total = 0
    for sample in samples:
        total += 1
        if not check(*sample):
            failures += 1
            if witness is None:
                witness = ", ".join(str(x) for x in sample)
    return _case(name, total, failures, witness)


def check_ring_axioms(config: RunConfig):
    rng = config.rng("ring_axioms")
    s_cap = min(5, config.max_generators)

    def samples():
        for _ in range(config.trials):
            ring = Ring(milnor.default_alphabet(rng.randint(1, s_cap)))
            yield tuple(random_ring_element(rng, ring) for _ in range(3))

    def check(u, v, w):
        return ((u * v) * w == u * (v * w)
                and u * (v + w) == u * v + u * w
                and (u + v) * w == u * w + v * w
                and u * 1 == u and 1 * u == u
                and all(len(set(m)) == len(m) for m in (u * v).terms))

    return _sweep("ring axioms (associative, distributive, unital, squarefree)",
                  samples(), check)


def check_magnus(config: RunConfig):
    rng = config.rng("magnus")
    s_cap = min(5, config.max_generators)

    def samples():
        for _ in range(config.trials):
            alphabet = milnor.default_alphabet(rng.randint(1, s_cap))
            yield (alphabet, random_word(rng, alphabet), random_word(rng, alphabet))

    def check(alphabet, w1, w2):
        e1, e2 = milnor.magnus(w1, alphabet), milnor.magnus(w2, alphabet)
        return (milnor.magnus(w1 * w2, alphabet) == e1 * e2
                and e1 * milnor.magnus(~w1, alphabet) == 1
                and e1.constant_term == 1)

    return _sweep("Magnus expansion is a monoid homomorphism into the units",
                  samples(), check)


def check_milnor_relations(config: RunConfig):
    rng = config.rng("milnor_relations")
    s_cap = min(5, config.max_generators)

    def samples():
        for _ in range(config.trials):
            alphabet = milnor.default_alphabet(rng.randint(1, s_cap))
            u = random_word(rng, alphabet, max_len=6)
            v = random_word(rng, alphabet, max_len=6)
            mi = Word.gen(rng.choice(alphabet))
            yield (alphabet, commutator(u * mi * ~u, v * mi * ~v))

    def check(alphabet, word):
        return milnor.normal_form(word, alphabet).is_identity

    return _sweep("Milnor relations [g m g', h m h'] normalize to the identity",
                  samples(), check)


def check_nilpotency(config: RunConfig):
    rng = config.rng("nilpotency")
    s_cap = min(5, config.max_generators)

    def samples():
        for _ in range(max(1, config.trials // 2)):
            s = rng.randint(1, s_cap)
            alphabet = milnor.default_alphabet(s)
            word = random_word(rng, alphabet, max_len=3)
            for _ in range(s):
                word = commutator(random_word(rng, alphabet, max_len=3), word)
            yield (alphabet, word)

    def check(alphabet, word):
        return milnor.normal_form(word, alphabet).is_identity

    return _sweep("lower-central weight s+1 dies in M(F_s)", samples(), check)


def check_split_exact(config: RunConfig):
    rng = config.rng("split_exact")
    s_cap = min(4, config.max_generators)

    def samples():
        for _ in range(config.trials):
            s = rng.randint(1, s_cap)
            alphabet = milnor.default_alphabet(s + 1)
            ring = Ring(alphabet[:-1])
            yield (alphabet, ring,
                   random_ring_element(rng, ring),
                   random_ring_element(rng, ring))

    def check(alphabet, ring, rho1, rho2):
        w1, w2 = milnor.r_map(rho1, alphabet), milnor.r_map(rho2, alphabet)
        scrubbed = Word(tuple(l for l in w1.letters if l[0] != alphabet[-1]))
        return (milnor.r_inverse(w1, alphabet) == rho1
                and milnor.normal_form(
                    w1 * w2 * ~milnor.r_map(rho1 + rho2, alphabet),
                    alphabet).is_identity
                and milnor.normal_form(commutator(w1, w2), alphabet).is_identity
                and milnor.normal_form(scrubbed, alphabet[:-1]).is_identity)

    return _sweep("split exact sequence: r round-trips, is additive, has "
                  "abelian image, scrubs to 1", samples(), check)


def check_conjugation(config: RunConfig):
    rng = config.rng("conjugation")
    s_cap = min(4, config.max_generators)

    def samples():
        for _ in range(config.trials):
            s = rng.randint(1, s_cap)
            alphabet = milnor.default_alphabet(s + 1)
            ring = Ring(alphabet[:-1])
            yield (alphabet, random_word(rng, alphabet[:-1], max_len=6),
                   random_ring_element(rng, ring))

    def check(alphabet, g, rho):
        conj = g * milnor.r_map(rho, alphabet) * ~g
        return (milnor.r_inverse(conj, alphabet)
                == milnor.conjugation_action(g, rho, alphabet[:-1]))

    return _sweep("conjugation acts by left Magnus multiplication",
                  samples(), check)


def check_grope_degree(config: RunConfig):
    rng = config.rng("grope_degree")
    tips_cap = max(2, min(8, config.max_generators + 2))

    def samples():
        for _ in range(config.trials):
            k = rng.randint(1, 6)
            tree = random_grope_tree(rng, k, max_tips=tips_cap)
            yield (tree, k)

    def check(tree, k):
        names = ["m%d" % (i + 1) for i in range(tree.leaf_count)]
        word = gropes.boundary_word(tree, names)
        return milnor.lcs_degree(word, tuple(names)) == k

    return _sweep("boundary word of a class-k tree has Magnus degree exactly k",
                  samples(), check)


def check_grope_duality(config: RunConfig):
    rng = config.rng("grope_duality")

    def samples():
        for _ in range(config.trials):
            k = rng.randint(2, 8)
            genus1 = rng.random() < 0.5
            yield (random_closed_tree(rng, k, max_genus=1 if genus1 else 2,
                                      max_tips=10), genus1)

    def check(closed, genus1):
        k = gropes.grope_class(closed.body)
        tips = gropes.free_tips(closed)
        duals = [gropes.dual_tree(closed, tip) for tip in tips]
        if len(duals) != len(tips):
            return False
        for tip, dual in zip(tips, duals):
            dc = gropes.dual_class(closed, tip)
            if dc < k or dc != gropes.grope_class(dual.body):
                return False
            if genus1 and not gropes.is_isomorphic(
                    dual, gropes.rerooted(closed, tip)):
                return False
        return True

    return _sweep("duals: one per tip, class bound holds, genus-1 duals "
                  "re-root", samples(), check)


def check_roundtrip(config: RunConfig):
    rng = config.rng("roundtrip")
    s_cap = min(5, config.max_generators)

    def samples():
        for _ in range(config.trials):
            tree = random_grope_tree(rng, rng.randint(1, 5), max_tips=12)
            word = random_word(rng, milnor.default_alphabet(s_cap))
            yield (tree, word)

    def check(tree, word):
        text = gropes.tree_text(tree)
        return (gropes.tree_text(gropes.parse_tree(text)) == text
                and Word.parse(str(word)) == word)

    return _sweep("parse/print round trips on trees and words",
                  samples(), check)


def check_sigma(config: RunConfig, pattern_name: str):
    lhat = links.catalog("borromean")
    q = links.catalog(pattern_name)
    report = composition.verify_sigma(
        composition.CompositionSpec(lhat, q),
        trials=config.trials, seed=config.seed)
    failed = report["summary"]["failed"]
    witness = None
    if failed:
        bad = [c for c in report["cases"] if c["status"] == "fail"]
        witness = bad[0]["input"]
    return _case("sigma is right multiplication by the wedge element "
                 "(pattern: %s)" % pattern_name,
                 report["summary"]["total"], failed, witness)


def check_certificate(config: RunConfig):
    failures = 0
    witness = None
    cert = composition.essentiality_certificate(
        composition.CompositionSpec(links.catalog("borromean"),
                                    links.catalog("bing_double")))
    if not (abs(cert.a) == 1 and abs(cert.b) == 1
            and cert.c == cert.a * cert.b and cert.c != 0):
        failures += 1
        witness = repr(cert)
    cert2 = composition.essentiality_certificate(
        composition.CompositionSpec(links.catalog("hopf"),
                                    links.catalog("core")))
    if not (abs(cert2.a) == 1 and cert2.a == cert2.b == cert2.c):
        failures += 1
        witness = witness or repr(cert2)
    for spec in (composition.CompositionSpec(links.catalog("borromean"),
                                             links.catalog("core")),
                 composition.CompositionSpec(links.catalog("borromean"),
                                             links.catalog("bing_double"),
                                             target=2)):
        cert3 = composition.essentiality_certificate(spec)
        if cert3.c != cert3.a * cert3.b:
            failures += 1
            witness = witness or repr(cert3)
    return _case("essentiality certificate: c = a*b, unit coefficients on "
                 "the catalog pair", 4, failures, witness)


def check_links(config: RunConfig):
    rng = config.rng("links")
    failures = 0
    witness = None

    def expect(cond, label):
        nonlocal failures, witness
        if not cond:
            failures += 1
            witness = witness or label

    expect(abs(links.mu_bar(links.catalog("hopf"), (2, 1))) == 1, "hopf mu(2,1)")
    expect(abs(links.mu_bar(links.catalog("borromean"), (2, 3, 1))) == 1,
           "borromean mu(2,3,1)")
    expect(links.is_homotopically_trivial(links.catalog("whitehead_pattern")),
           "whitehead_pattern trivial")
    expect(not links.is_homotopically_trivial(links.catalog("hopf")),
           "hopf essential")
    expect(links.is_almost_trivial(links.catalog("borromean")),
           "borromean almost trivial")
    unlink = links.catalog("unlink(4)")
    checks = 5
    for _ in range(min(config.trials, 50)):
        k = rng.randint(2, 4)
        idx = rng.sample(range(1, 5), k)
        expect(links.mu_bar(unlink, idx) == 0, "unlink mu%r" % (idx,))
        checks += 1
    return _case("catalog invariants: mu-bar fixtures, triviality calls",
                 checks, failures, witness)


_SECTIONS = (
    check_ring_axioms,
    check_magnus,
    check_milnor_relations,
    check_nilpotency,
    check_split_exact,
    check_conjugation,
    check_grope_degree,
    check_grope_duality,
    check_roundtrip,
    lambda cfg: check_sigma(cfg, "core"),
    lambda cfg: check_sigma(cfg, "bing_double"),
    check_certificate,
    check_links,
)


def run_all(config: RunConfig) -> dict:
    cases = []
    for index, section in enumerate(_SECTIONS):
        case = section(config)
        case["index"] = index
        cases.append(case)
    failed = sum(c["status"] == "fail" for c in cases)
    return {
        "command": "verify all",
        "config": config.as_dict(),
        "cases": cases,
        "summary": {"total": len(cases), "passed": len(cases) - failed,
                    "failed": failed,
                    "status": "pass" if failed == 0 else "fail"},
    }
