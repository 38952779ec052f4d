"""Links presented by longitude words; mu-bar invariants with distinct
indices; homotopy triviality tests; the built-in catalog.

A link model is nothing but its presentation: named components, one
meridian generator per component, and one longitude word per component
over the other components' meridians.  Invariants are computed verbatim
from the words; geometric realizability and the indeterminacy of the
invariants for general links are out of scope.  Deleting a component sets
its meridian to 1 by erasing its letters from the remaining longitudes.
Triviality tests index the meridians once, then scan each longitude once.

A solid-torus pattern is a link model plus a wedge word, the word of the
solid torus' meridian circle, and a core symbol ("lambda" in the catalog)
that its longitudes use for traversals of the S1 direction.  Every
invariant reads a pattern one way, with its wedge circle: `mu_bar` and the
triviality tests see `ambient_model()`, whose last component "wedge" has
the meridian "w" that replaces the core symbol.

The catalog entries come from the committed Wirtinger-oracle fixtures
(tests/oracles, tests/fixtures).
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass

from .errors import LinkFormatError
from .milnor import _check_alphabet_size, default_alphabet, magnus_coefficient
from .ring import scan
from .words import Word, bounded_int

__all__ = [
    "LinkModel", "SolidTorusLink", "mu_bar", "is_homotopically_trivial",
    "is_almost_trivial", "delete_component", "catalog", "catalog_names",
    "link_to_dict", "link_from_dict", "load_link", "save_link",
]


@dataclass(frozen=True)
class LinkModel:
    """A link as named components with meridians and longitude words."""

    components: tuple[str, ...]
    meridians: tuple[str, ...]
    longitudes: tuple[Word, ...]

    def __post_init__(self):
        self._check(set(self.meridians))

    def _check(self, known):
        """The link checks; a longitude may use only the letters in known."""
        n = len(self.components)
        if n < 1:
            raise LinkFormatError("a link needs at least one component")
        if len(self.meridians) != n or len(self.longitudes) != n:
            raise LinkFormatError("components, meridians and longitudes must align")
        if len(set(self.components)) != n:
            raise LinkFormatError("component names must be distinct")
        if len(set(self.meridians)) != n:
            raise LinkFormatError("meridian names must be distinct")
        for name, mer, word in zip(self.components, self.meridians, self.longitudes):
            for g, _ in word.letters:
                if g == mer:
                    raise LinkFormatError(
                        "longitude of %r contains its own meridian %r" % (name, mer))
                if g not in known:
                    raise LinkFormatError(
                        "longitude of %r uses unknown generator %r" % (name, g))

    @property
    def n(self) -> int:
        return len(self.components)

    def index_of(self, which) -> int:
        """Resolve a component given by 1-based position or by name."""
        if isinstance(which, int):
            if not 1 <= which <= self.n:
                raise LinkFormatError("component index %d out of range" % which)
            return which - 1
        if which in self.components:
            return self.components.index(which)
        raise LinkFormatError("unknown component %r" % (which,))

    def longitude(self, which) -> Word:
        return self.longitudes[self.index_of(which)]


@dataclass(frozen=True)
class SolidTorusLink(LinkModel):
    """A link in the solid torus: meridians z_i, a wedge word (the word of
    the solid torus' own meridian circle in the pattern complement), and
    longitudes that may use the core symbol for S1-direction traversals.
    """

    wedge: Word
    core_symbol: str = "lambda"

    def __post_init__(self):
        if self.core_symbol in self.meridians:
            raise LinkFormatError("core symbol clashes with a meridian")
        self._check(set(self.meridians) | {self.core_symbol})
        for g, _ in self.wedge.letters:
            if g == self.core_symbol:
                raise LinkFormatError("the wedge word cannot use the core symbol")
            if g not in self.meridians:
                raise LinkFormatError("bad letter %r in the wedge word" % (g,))

    def ambient_model(self) -> LinkModel:
        """The pattern together with its wedge circle, component "wedge"
        with meridian "w", as a link model (the standard embedding of the
        solid torus): the boundary S1 direction is a meridian of the wedge
        circle, so the core symbol becomes the new component's meridian.
        """
        if "w" in self.meridians or "wedge" in self.components:
            raise LinkFormatError("wedge names clash with the pattern")
        longs = tuple(w.substitute(self.core_symbol, Word.gen("w"))
                      for w in self.longitudes)
        return LinkModel(self.components + ("wedge",), self.meridians + ("w",),
                         longs + (self.wedge,))


# -- invariants ---------------------------------------------------------------

def _in_s3(link: LinkModel) -> LinkModel:
    """The link an invariant reads: a pattern with its wedge circle."""
    return link.ambient_model() if isinstance(link, SolidTorusLink) else link


def mu_bar(link: LinkModel, indices) -> int:
    """mu-bar with distinct indices (i1, ..., ik, j): the coefficient of
    y_i1 ... y_ik in the Magnus expansion of component j's longitude, read
    by one chain scan (`magnus_coefficient`)."""
    link = _in_s3(link)
    idx = [link.index_of(i) for i in indices]
    if len(idx) < 2:
        raise LinkFormatError("need at least two indices (i1, ..., ik, j)")
    if len(set(idx)) != len(idx):
        raise LinkFormatError("mu-bar indices must be pairwise distinct")
    return magnus_coefficient(link.longitudes[idx[-1]],
                              [link.meridians[i] for i in idx[:-1]])


def delete_component(link: LinkModel, which) -> LinkModel:
    """Remove a component and erase its meridian from the other longitudes
    (the quotient setting that meridian to 1); a pattern is read in S^3."""
    link = _in_s3(link)
    i = link.index_of(which)
    if link.n == 1:
        raise LinkFormatError("cannot delete the last component")
    mer = link.meridians[i]
    keep = [k for k in range(link.n) if k != i]
    return LinkModel(
        tuple(link.components[k] for k in keep),
        tuple(link.meridians[k] for k in keep),
        tuple(link.longitudes[k].erase(mer) for k in keep))


def _coordinates(link: LinkModel):
    """Each longitude's kernel coordinate over the other meridians, a term
    dict or None outside the kernel of deleting the last; one scan each."""
    index = {g: i for i, g in enumerate(link.meridians)}
    for k, word in enumerate(link.longitudes):
        # past k, positions move down one: the last is the kernel letter
        letters = [(index[g] - (index[g] > k), e) for g, e in word.letters]
        running, rho = scan(letters, link.n - 2)
        yield rho if running == {0: 1} else None


def is_homotopically_trivial(link: LinkModel) -> bool:
    """True iff every longitude is in the kernel with coordinate 0, i.e. is
    1 in the Milnor group of the other meridians.  Sublinks then are trivial
    too: deleting m_k fixes 1.  Knots are always trivial."""
    link = _in_s3(link)
    return link.n == 1 or all(rho == {} for rho in _coordinates(link))


def is_almost_trivial(link: LinkModel) -> bool:
    """True iff removing any one component leaves a homotopically trivial
    link (n >= 2): every longitude w = r(rho) is in the kernel with rho of
    full degree n - 2, so M(w) is 1 plus terms in all n - 1 variables (rho
    is M(w) on monomials ending in the last one).  Always True for n = 2."""
    link = _in_s3(link)
    if link.n < 2:
        raise LinkFormatError("almost-triviality needs at least 2 components")
    full = (1 << link.n - 2) - 1  # degree n - 2 on n - 2 variables: a full mask
    return all(rho is not None and all(m & full == full for m in rho)
               for rho in _coordinates(link))


# -- catalog ------------------------------------------------------------------

_UNLINK = re.compile(r"unlink\((\d+)\)\Z")


def _link(*longitudes):
    """The link l1..ln with meridians m1..mn and these longitude texts."""
    n = len(longitudes)
    return LinkModel(default_alphabet(n, "l"), default_alphabet(n),
                     tuple(map(Word.parse, longitudes)))


# built once: models are frozen and words immutable by convention
_CATALOG = {
    "hopf": _link("m2", "m1"),
    "borromean": _link("[m2,m3]", "[m3,m1]", "[m1,m2]"),
    # clasp through two channels: the longitude is a Milnor relation
    "whitehead_pattern": _link("[m2, m3' m2 m3]", "1", "1"),
    "core": SolidTorusLink(("q1",), ("z1",), (Word.gen("lambda"),),
                           wedge=Word.gen("z1")),
    "bing_double": SolidTorusLink(
        ("q1", "q2"), ("z1", "z2"),
        (Word.parse("[z2,lambda]"), Word.parse("[lambda,z1]")),
        wedge=Word.parse("[z1,z2]")),
}


def catalog_names():
    return ("unlink(n)",) + tuple(_CATALOG)


def catalog(name: str):
    """Built-in models; longitudes match the committed oracle fixtures."""
    name = name.strip()
    m = _UNLINK.match(name)
    if m:
        n = bounded_int(m.group(1), sys.maxsize)
        if n < 1:
            raise LinkFormatError("unlink needs at least one component")
        _check_alphabet_size(n)
        return _link(*("1",) * n)
    if name in _CATALOG:
        return _CATALOG[name]
    raise LinkFormatError("unknown catalog name %r (try one of %s)"
                          % (name, ", ".join(catalog_names())))


# -- JSON interchange ----------------------------------------------------------

def link_to_dict(link) -> dict:
    out = {
        "components": list(link.components),
        "meridians": list(link.meridians),
        "longitudes": {c: str(w) for c, w in zip(link.components, link.longitudes)},
    }
    if isinstance(link, SolidTorusLink):
        out["wedge"] = str(link.wedge)
        out["core_symbol"] = link.core_symbol
    return out


def _names(data: dict, key: str) -> tuple:
    value = data[key]
    if not isinstance(value, (list, tuple)) or \
            not all(isinstance(v, str) for v in value):
        raise LinkFormatError("link JSON %r must be a list of names" % key)
    return tuple(value)


def _text(value, what: str) -> str:
    if not isinstance(value, str):
        raise LinkFormatError("%s must be a string, not %r" % (what, value))
    return value


def link_from_dict(data: dict):
    if not isinstance(data, dict) or "components" not in data \
            or "longitudes" not in data:
        raise LinkFormatError("link JSON needs 'components' and 'longitudes'")
    if "core_symbol" in data and "wedge" not in data:
        raise LinkFormatError("link JSON has the pattern key 'core_symbol' "
                              "but no 'wedge'")
    components = _names(data, "components")
    raw = data["longitudes"]
    if not isinstance(raw, dict):
        raise LinkFormatError("link JSON 'longitudes' must map components to words")
    stray = sorted(set(raw).difference(components), key=str)
    if stray:
        raise LinkFormatError("link JSON 'longitudes' names no component: %s"
                              % ", ".join(map(repr, stray)))
    meridians = _names(data, "meridians") if "meridians" in data else \
        default_alphabet(len(components), "z" if "wedge" in data else "m")
    try:
        longitudes = tuple(
            Word.parse(_text(raw[c], "longitude of %r" % c)) for c in components)
    except KeyError as exc:
        raise LinkFormatError("missing longitude for component %s" % exc) from exc
    if "wedge" in data:
        return SolidTorusLink(
            components, meridians, longitudes,
            wedge=Word.parse(_text(data["wedge"], "the wedge word")),
            core_symbol=_text(data.get("core_symbol", "lambda"), "the core symbol"))
    return LinkModel(components, meridians, longitudes)


def load_link(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # malformed JSON or undecodable bytes
            raise LinkFormatError(str(exc)) from None
        except RecursionError as exc:  # the CLI's resource-error text
            raise LinkFormatError(
                "input too large or too deeply nested (%s)" % exc) from None
    return link_from_dict(data)


def save_link(link, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(link_to_dict(link), fh, indent=2, sort_keys=True)
        fh.write("\n")
