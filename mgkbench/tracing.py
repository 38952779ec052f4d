"""Per-layer tracing from outside the program.

`Tracer.install` wraps the public functions of each `mgk` layer and
rebinds every name that refers to them in every `mgk.*` namespace (for
example `links.magnus` is `milnor.magnus`, and `composition` imports
`r_inverse` and `is_almost_trivial`).  Ring and word operators are
patched on their classes.

Each wrapped layer call keeps one span in memory: name, start, end,
parent span, op id and self time (its duration minus the time of the
spans and operators it called).  Ring and word operators run hundreds of
thousands of times, so they get no spans: their calls and time are
summed per parent span instead.

`verify._SECTIONS` holds direct references to the sweep sections, so
per-section time is out of reach from here; `verify.run_all` is one span.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter, defaultdict

# (metric name, unit, better) in the order BENCHMARK.json lists them
LAYER_METRICS = [
    ("ring.mul.calls", "count", "lower"),
    ("ring.mul.self_s", "s", "lower"),
    ("ring.mul.pair_yield", "ratio", "higher"),
    ("ring.add.calls", "count", "lower"),
    ("ring.add.self_s", "s", "lower"),
    ("ring.format.self_s", "s", "lower"),
    ("ring.peak_terms", "count", "lower"),
    ("words.parse.self_s", "s", "lower"),
    ("words.substitute.self_s", "s", "lower"),
    ("words.ops.calls", "count", "lower"),
    ("words.ops.self_s", "s", "lower"),
    ("words.peak_letters", "count", "lower"),
    ("milnor.magnus.calls", "count", "lower"),
    ("milnor.magnus.self_s", "s", "lower"),
    ("milnor.magnus.letters", "count", "lower"),
    ("milnor.normal_form.calls", "count", "lower"),
    ("milnor.normal_form.self_s", "s", "lower"),
    ("milnor.r_map.self_s", "s", "lower"),
    ("milnor.r_inverse.self_s", "s", "lower"),
    ("milnor.conjugation_action.self_s", "s", "lower"),
    ("links.is_homotopically_trivial.calls", "count", "lower"),
    ("links.is_homotopically_trivial.self_s", "s", "lower"),
    ("links.is_almost_trivial.self_s", "s", "lower"),
    ("links.mu_bar.calls", "count", "lower"),
    ("links.mu_bar.self_s", "s", "lower"),
    ("links.delete_component.calls", "count", "lower"),
    ("links.expansions", "count", "lower"),
    ("links.expansions_per_component", "ratio", "higher"),
    ("links.io.self_s", "s", "lower"),
    ("composition.compose.self_s", "s", "lower"),
    ("composition.essentiality_certificate.self_s", "s", "lower"),
    ("composition.verify_sigma.self_s", "s", "lower"),
    ("gropes.tree_text.calls", "count", "lower"),
    ("gropes.tree_text.self_s", "s", "lower"),
    ("gropes.grope_class.calls", "count", "lower"),
    ("gropes.grope_class.self_s", "s", "lower"),
    ("gropes.canonical.calls", "count", "lower"),
    ("gropes.canonical.self_s", "s", "lower"),
    ("gropes.duals.self_s", "s", "lower"),
    ("gropes.rerooted.self_s", "s", "lower"),
    ("gropes.parse_tree.self_s", "s", "lower"),
    ("gropes.boundary_word.self_s", "s", "lower"),
    ("verify.run_all.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# span name -> (module, attribute) pairs wrapped under that name
_SPANS = {
    "cli.main": [("cli", "main")],
    "verify.run_all": [("verify", "run_all")],
    "milnor.magnus": [("milnor", "magnus")],
    "milnor.normal_form": [("milnor", "normal_form")],
    "milnor.r_map": [("milnor", "r_map")],
    "milnor.r_inverse": [("milnor", "r_inverse")],
    "milnor.conjugation_action": [("milnor", "conjugation_action")],
    "links.is_homotopically_trivial": [("links", "is_homotopically_trivial")],
    "links.is_almost_trivial": [("links", "is_almost_trivial")],
    "links.mu_bar": [("links", "mu_bar")],
    "links.delete_component": [("links", "delete_component")],
    "links.io": [("links", "load_link"), ("links", "save_link"),
                 ("links", "link_from_dict"), ("links", "link_to_dict")],
    "composition.compose": [("composition", "compose")],
    "composition.essentiality_certificate":
        [("composition", "essentiality_certificate")],
    "composition.verify_sigma": [("composition", "verify_sigma")],
    "gropes.tree_text": [("gropes", "tree_text")],
    "gropes.grope_class": [("gropes", "grope_class")],
    "gropes.canonical": [("gropes", "canonical")],
    "gropes.duals": [("gropes", "dual_tree"), ("gropes", "dual_class")],
    "gropes.rerooted": [("gropes", "rerooted")],
    "gropes.parse_tree": [("gropes", "parse_tree")],
    "gropes.boundary_word": [("gropes", "boundary_word"),
                             ("gropes", "boundary_expression")],
}
# span name -> (class, attribute) methods wrapped as spans
_METHOD_SPANS = {
    "words.parse": ("Word", "parse"),
    "words.substitute": ("Word", "substitute"),
}
# aggregated kind -> (module or class, attribute) operators without spans
_AGGREGATED = {
    "ring.mul": [("RingElement", "__mul__")],
    "ring.add": [("RingElement", "__add__"), ("RingElement", "__radd__")],
    "ring.format": [("ring", "format_ring_element")],
    "words.ops": [("Word", "__mul__"), ("Word", "__invert__"),
                  ("Word", "erase")],
}
# queries that count useful expansions; see _before_link_query
_LINK_QUERIES = ("links.is_homotopically_trivial", "links.is_almost_trivial",
                 "links.mu_bar")

# Each wrapped recursive call adds a frame; deep grope chains need room.
TRACED_RECURSION_LIMIT = 10000


class Tracer:
    def __init__(self):
        self.spans = []     # (name, start, end, parent, op, self_s)
        self.stack = []     # [span index, name, child seconds]
        self.agg = {}       # (parent span, kind) -> [calls, seconds]
        self.op = -1
        self.counts = Counter()
        self.peaks = Counter()

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, before=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if before is not None:
                before(args, parent[1] if parent else "")
            frame = [len(spans), name, 0.0]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[frame[0]] = (name, start, end,
                                   parent[0] if parent else -1, self.op,
                                   end - start - frame[2])
                if parent is not None:
                    parent[2] += end - start

        wrapper.__wrapped__ = fn
        return wrapper

    def _aggregated(self, kind, fn, after=None):
        agg, stack, clock = self.agg, self.stack, time.perf_counter

        def wrapper(*args):
            start = clock()
            result = fn(*args)
            seconds = clock() - start
            parent = stack[-1] if stack else None
            key = (parent[0] if parent else -1, kind)
            slot = agg.get(key)
            if slot is None:
                slot = agg[key] = [0, 0.0]
            slot[0] += 1
            slot[1] += seconds
            if parent is not None:
                parent[2] += seconds
            if after is not None and result is not NotImplemented:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters at the layer boundaries ---------------------------------------

    def _peak(self, key, value):
        if value > self.peaks[key]:
            self.peaks[key] = value

    def _after_mul(self, args, result):
        left, right = args
        terms = getattr(right, "terms", None)
        self.counts["ring.mul.pairs"] += len(left.terms) * (
            len(terms) if terms is not None else 1)
        self.counts["ring.mul.terms_out"] += len(result.terms)
        self._peak("ring.peak_terms", len(result.terms))

    def _after_add(self, args, result):
        self._peak("ring.peak_terms", len(result.terms))

    def _after_word(self, args, result):
        self._peak("words.peak_letters", len(result.letters))

    def _before_expansion(self, args, parent):
        self.counts["milnor.magnus.letters"] += len(args[0].letters)
        self._peak("words.peak_letters", len(args[0].letters))
        if parent.startswith("links."):
            self.counts["links.expansions"] += 1

    def _before_normal_form(self, args, parent):
        self._peak("words.peak_letters", len(args[0].letters))

    def _before_link_query(self, name):
        def before(args, parent):
            # a query made by a user, not by the recursion over sublinks:
            # it needs one expansion per component (mu-bar needs one)
            if not parent.startswith("links."):
                self.counts["links.useful"] += (
                    1 if name == "links.mu_bar" else args[0].n)
        return before

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap the layer functions and rebind every reference to them."""
        from mgk import (cli, composition, gropes, links, milnor, ring,
                         verify, words)
        modules = {"cli": cli, "composition": composition, "gropes": gropes,
                   "links": links, "milnor": milnor, "ring": ring,
                   "verify": verify, "words": words}
        classes = {"RingElement": ring.RingElement, "Word": words.Word}
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "mgk" or n.startswith("mgk.")]
        before = {"milnor.magnus": self._before_expansion,
                  "milnor.normal_form": self._before_normal_form}
        before.update((q, self._before_link_query(q)) for q in _LINK_QUERIES)
        replaced = {}
        for name, targets in _SPANS.items():
            for mod, attr in targets:
                original = getattr(modules[mod], attr)
                replaced[id(original)] = (original, self._span(
                    name, original, before.get(name)))
        for name, (cls, attr) in _METHOD_SPANS.items():
            raw = vars(classes[cls])[attr]
            if isinstance(raw, classmethod):
                wrapped = self._span(name, raw.__func__)
                setattr(classes[cls], attr, classmethod(wrapped))
            else:
                setattr(classes[cls], attr, self._span(name, raw))
        after = {"ring.mul": self._after_mul, "ring.add": self._after_add,
                 "words.ops": self._after_word}
        for kind, targets in _AGGREGATED.items():
            for owner, attr in targets:
                if owner in classes:
                    raw = vars(classes[owner])[attr]
                    setattr(classes[owner], attr,
                            self._aggregated(kind, raw, after.get(kind)))
                else:
                    original = getattr(modules[owner], attr)
                    replaced[id(original)] = (original, self._aggregated(
                        kind, original, after.get(kind)))
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(ns, key, hit[1])
        for original, _ in replaced.values():
            for ns in namespaces:
                if any(v is original for v in vars(ns).values()):
                    raise RuntimeError("a reference to %r escaped the tracer"
                                       % original)
        sys.setrecursionlimit(max(sys.getrecursionlimit(),
                                  TRACED_RECURSION_LIMIT))

    # -- results --------------------------------------------------------------

    def metrics(self, output_bytes: int) -> dict:
        """Per-layer totals of this pass (trace.overhead_s excluded)."""
        calls, self_s = Counter(), defaultdict(float)
        for name, _, _, _, _, own in self.spans:
            calls[name] += 1
            self_s[name] += own
        for (_, kind), (n, seconds) in self.agg.items():
            calls[kind] += n
            self_s[kind] += seconds
        counts = self.counts
        values = {
            "ring.mul.pair_yield": _ratio(counts["ring.mul.terms_out"],
                                          counts["ring.mul.pairs"]),
            "ring.peak_terms": self.peaks["ring.peak_terms"],
            "words.peak_letters": self.peaks["words.peak_letters"],
            "milnor.magnus.letters": counts["milnor.magnus.letters"],
            "links.expansions": counts["links.expansions"],
            "links.expansions_per_component": _ratio(
                counts["links.useful"], counts["links.expansions"]),
            "cli.output_bytes": output_bytes,
        }
        out = {}
        for metric, _, _ in LAYER_METRICS:
            if metric in values:
                out[metric] = values[metric]
            elif metric.endswith(".calls"):
                out[metric] = calls[metric[:-len(".calls")]]
            elif metric.endswith(".self_s"):
                out[metric] = self_s[metric[:-len(".self_s")]]
        return out

    def dump(self, path: str) -> None:
        """Write the spans and the per-parent operator totals, one JSON
        array per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(["span", *span]) + "\n")
            for (parent, kind), (n, seconds) in sorted(self.agg.items()):
                fh.write(json.dumps(["ops", parent, kind, n, seconds]) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0


def median_metrics(passes):
    """Per-metric median over traced passes."""
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
