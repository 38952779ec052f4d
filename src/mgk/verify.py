"""Randomized property sweeps with reproducible reports.

Every sweep draws from a random.Random seeded by the run seed and the
section name, so identical configurations produce byte-identical JSON
reports.  Each draw bounds its own alphabet, since the ring rank grows
superexponentially in the number of variables.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from functools import partial

from . import composition, gropes, links, milnor
from .errors import MgkError
from .ring import Ring, tower
from .sampling import random_grope_tree, random_ring_element, random_word
from .words import Word, commutator

__all__ = ["RunConfig", "run_all", "report"]


@dataclass
class RunConfig:
    seed: int = 0
    trials: int = 200
    max_generators: int = 6

    def __post_init__(self):
        if self.trials < 1:
            raise MgkError("trials must be >= 1")
        if self.max_generators < 1:
            raise MgkError("max_generators must be >= 1")

    def rng(self, section: str) -> random.Random:
        return random.Random("%d/%s" % (self.seed, section))


def _case(name, trials, failed):
    """A report case; `failed` lists the failing trials' witnesses."""
    return {
        "input": name,
        "expected": {"failures": 0},
        "actual": {"trials": trials, "failures": len(failed),
                   "witness": failed[0] if failed else None},
        "status": "fail" if failed else "pass",
    }


def _alphabet(rng, config: RunConfig, cap: int, extra=0):
    """m1..ms with s drawn from 1..min(cap, max_generators), plus `extra`."""
    return milnor.default_alphabet(
        rng.randint(1, min(cap, config.max_generators)) + extra)


# -- draws: one sample from a section's RNG ------------------------------------

def _draw_ring_triple(rng, config):
    ring = Ring(_alphabet(rng, config, 5))
    return tuple(random_ring_element(rng, ring) for _ in range(3))


def _draw_word_pair(rng, config):
    alphabet = _alphabet(rng, config, 5)
    return (alphabet, random_word(rng, alphabet), random_word(rng, alphabet))


def _draw_relator(rng, config):
    alphabet = _alphabet(rng, config, 5)
    u = random_word(rng, alphabet, max_len=6)
    v = random_word(rng, alphabet, max_len=6)
    mi = Word.gen(rng.choice(alphabet))
    return (alphabet, commutator(u * mi * ~u, v * mi * ~v))


def _draw_long_commutator(rng, config):
    alphabet = _alphabet(rng, config, 5)
    word = random_word(rng, alphabet, max_len=3)
    for _ in alphabet:
        word = commutator(random_word(rng, alphabet, max_len=3), word)
    return (alphabet, word)


def _draw_kernel_pair(rng, config):
    alphabet = _alphabet(rng, config, 4, extra=1)
    ring = Ring(alphabet[:-1])
    return (alphabet, random_ring_element(rng, ring),
            random_ring_element(rng, ring))


def _draw_conjugate(rng, config):
    alphabet = _alphabet(rng, config, 4, extra=1)
    ring = Ring(alphabet[:-1])
    return (alphabet, random_word(rng, alphabet[:-1], max_len=6),
            random_ring_element(rng, ring))


def _draw_class_tree(rng, config):
    tips_cap = min(8, config.max_generators + 2)
    k = rng.randint(1, min(6, tips_cap))
    return (random_grope_tree(rng, k, max_tips=tips_cap), k)


def _draw_closed_tree(rng, config):
    k = rng.randint(2, 8)
    genus1 = rng.random() < 0.5
    return (gropes.ClosedGropeTree(random_grope_tree(
        rng, k, max_genus=1 if genus1 else 2, max_tips=10)),)


def _draw_tree_and_word(rng, config):
    tree = random_grope_tree(rng, rng.randint(1, 5), max_tips=12)
    alphabet = milnor.default_alphabet(min(5, config.max_generators))
    return (tree, random_word(rng, alphabet))


# -- checks: the property one sample must have ---------------------------------

def _ring_axioms_hold(u, v, w):
    return ((u * v) * w == u * (v * w)
            and u * (v + w) == u * v + u * w
            and (u + v) * w == u * w + v * w
            and u * 1 == u and 1 * u == u
            and all(u.ring.pack(u.ring.positions(m)) == m  # round trip: no extra digit
                    for m in (u * v).terms))


def _magnus_is_homomorphism(alphabet, w1, w2):
    e1, e2 = milnor.magnus(w1, alphabet), milnor.magnus(w2, alphabet)
    nf, levels = milnor.normal_form(w1, alphabet), tower(e1.terms, len(alphabet))
    return (milnor.magnus(w1 * w2, alphabet) == e1 * e2
            and e1 * milnor.magnus(~w1, alphabet) == 1
            and e1.constant_term == 1
            and milnor.words_equal(w1, w2, alphabet) == (e1 == e2)  # M is injective
            # the normal form is the tower of the expansion, level by level
            and nf.exponent == levels[0].get(0, 0)
            and [c.terms for c in nf.components] == levels[:0:-1])


def _is_identity(alphabet, word):
    return milnor.normal_form(word, alphabet).is_identity


def _split_exact_holds(alphabet, rho1, rho2):
    w1, w2 = milnor.r_map(rho1, alphabet), milnor.r_map(rho2, alphabet)
    return (milnor.r_inverse(w1, alphabet) == rho1
            and milnor.normal_form(
                w1 * w2 * ~milnor.r_map(rho1 + rho2, alphabet),
                alphabet).is_identity
            and milnor.normal_form(commutator(w1, w2), alphabet).is_identity
            and milnor.normal_form(w1.erase(alphabet[-1]), alphabet[:-1]).is_identity)


def _conjugation_acts(alphabet, g, rho):
    conj = g * milnor.r_map(rho, alphabet) * ~g
    return (milnor.r_inverse(conj, alphabet)
            == milnor.conjugation_action(g, rho, alphabet[:-1]))


def _boundary_has_degree(tree, k):
    names = milnor.default_alphabet(tree.leaf_count)  # no degree above k decides
    return milnor.lcs_degree(gropes.boundary_word(tree, names), names, cap=k) == k


def _duals_hold(closed):
    # tip_duals' walk and dual_tree's path walk derive each dual apart; as
    # controls, a closed tree (it has a pair) is not isomorphic to LEAF but
    # is to its canonical form, which may swap members and pairs
    body = closed.body
    if (gropes.is_isomorphic(body, gropes.LEAF)
            or not gropes.is_isomorphic(body, gropes.canonical(body))):
        return False
    for tip, _, text, dual_class in gropes.tip_duals(closed):
        dual = gropes.dual_tree(closed, tip).body
        if (gropes.tree_text(dual) != text or dual.tree_class != dual_class
                or dual_class < body.tree_class):
            return False
    return True


def _round_trips(tree, word):
    text = gropes.tree_text(tree)
    return (gropes.tree_text(gropes.parse_tree(text)) == text
            and Word.parse(str(word)) == word)


# (RNG section, label, draw, check, trials divisor): each sweep draws its
# samples in turn from config.rng(section), which fixes the draw order
_SWEEPS = (
    ("ring_axioms",
     "ring axioms (associative, distributive, unital, squarefree)",
     _draw_ring_triple, _ring_axioms_hold, 1),
    ("magnus", "Magnus expansion is a monoid homomorphism into the units",
     _draw_word_pair, _magnus_is_homomorphism, 1),
    ("milnor_relations",
     "Milnor relations [g m g', h m h'] normalize to the identity",
     _draw_relator, _is_identity, 1),
    ("nilpotency", "lower-central weight s+1 dies in M(F_s)",
     _draw_long_commutator, _is_identity, 2),
    ("split_exact", "split exact sequence: r round-trips, is additive, has "
     "abelian image, scrubs to 1", _draw_kernel_pair, _split_exact_holds, 1),
    ("conjugation", "conjugation acts by left Magnus multiplication",
     _draw_conjugate, _conjugation_acts, 1),
    ("grope_degree",
     "boundary word of a class-k tree has Magnus degree exactly k",
     _draw_class_tree, _boundary_has_degree, 1),
    ("grope_duality", "duals: one per tip, class bound holds",
     _draw_closed_tree, _duals_hold, 1),
    ("roundtrip", "parse/print round trips on trees and words",
     _draw_tree_and_word, _round_trips, 1),
)


def _sweep(section, label, draw, check, divisor, config: RunConfig):
    """Check config.trials // divisor samples; the first failing one is
    the witness."""
    rng = config.rng(section)
    trials = max(1, config.trials // divisor)
    samples = (draw(rng, config) for _ in range(trials))
    return _case(label, trials, [", ".join(map(str, sample))
                                 for sample in samples if not check(*sample)])


def check_sigma(config: RunConfig, pattern_name: str):
    lhat = links.catalog("borromean")
    q = links.catalog(pattern_name)
    sigma = composition.verify_sigma(
        composition.CompositionSpec(lhat, q),
        trials=config.trials, seed=config.seed)
    return _case("sigma is right multiplication by the wedge element "
                 "(pattern: %s)" % pattern_name, sigma["summary"]["total"],
                 [c["input"] for c in sigma["cases"] if c["status"] == "fail"])


# (ambient, pattern, target, what the certificate must satisfy)
_CERTIFICATES = (
    ("borromean", "bing_double", None,
     lambda a, b, c: abs(a) == 1 and abs(b) == 1 and c == a * b and c != 0),
    ("hopf", "core", None, lambda a, b, c: abs(a) == 1 and a == b == c),
    ("borromean", "core", None, lambda a, b, c: c == a * b),
    ("borromean", "bing_double", 2, lambda a, b, c: c == a * b),
)


def check_certificate(config: RunConfig):
    failed = []
    for lhat, q, target, holds in _CERTIFICATES:
        cert = composition.essentiality_certificate(composition.CompositionSpec(
            links.catalog(lhat), links.catalog(q), target=target))
        if not holds(*cert):
            failed.append(repr(cert))
    return _case("essentiality certificate: c = a*b, unit coefficients on "
                 "the catalog pair", len(_CERTIFICATES), failed)


def check_links(config: RunConfig):
    rng = config.rng("links")
    hopf, borromean = links.catalog("hopf"), links.catalog("borromean")
    split = links._link("m2", "m1", "1")  # hopf plus a split unknot
    checks = [
        (abs(links.mu_bar(hopf, (2, 1))) == 1, "hopf mu(2,1)"),
        (abs(links.mu_bar(borromean, (2, 3, 1))) == 1, "borromean mu(2,3,1)"),
        (links.is_homotopically_trivial(links.catalog("whitehead_pattern")),
         "whitehead_pattern trivial"),
        (not links.is_homotopically_trivial(hopf)
         and not links.is_homotopically_trivial(borromean), "hopf essential"),
        (links.is_almost_trivial(borromean) and not links.is_almost_trivial(split),
         "borromean almost trivial"),
    ]
    unlink = links.catalog("unlink(4)")
    for _ in range(min(config.trials, 50)):
        idx = rng.sample(range(1, 5), rng.randint(2, 4))
        checks.append((links.mu_bar(unlink, idx) == 0, "unlink mu%r" % (idx,)))
    return _case("catalog invariants: mu-bar fixtures, triviality calls",
                 len(checks), [label for ok, label in checks if not ok])


_SECTIONS = tuple(partial(_sweep, *row) for row in _SWEEPS) + (
    lambda cfg: check_sigma(cfg, "core"),
    lambda cfg: check_sigma(cfg, "bing_double"),
    check_certificate,
    check_links,
)


def report(command: str, config: RunConfig, sections) -> dict:
    """The report of running each section under one config."""
    cases = []
    for index, section in enumerate(sections):
        case = section(config)
        case["index"] = index
        cases.append(case)
    failed = sum(c["status"] == "fail" for c in cases)
    return {
        "command": command,
        "config": asdict(config),
        "cases": cases,
        "summary": {"total": len(cases), "passed": len(cases) - failed,
                    "failed": failed,
                    "status": "pass" if failed == 0 else "fail"},
    }


def run_all(config: RunConfig) -> dict:
    return report("verify all", config, _SECTIONS)
