"""Command-line front end.

Exit codes: 0 all checks pass, 1 check failure, 2 usage or parse error.

Every handler computes its answer once, as a JSON payload plus, where the
command has one, a text form, hands both to `_write` and returns the exit
code.  `_write` is the only place that prints: the payload as JSON under
`--json` or when the command has no text form (`link show`, `compose`),
the text otherwise, to the `--out` file on the subcommands that have that
flag and to stdout elsewhere.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import composition, gropes, links, milnor, verify
from .errors import LinkFormatError, MgkError, ParseError
from .ring import format_ring_element
from .words import Word, bounded_int


def _write(args, payload, text=None):
    if text is None or getattr(args, "json", False):
        text = json.dumps(payload, indent=2, sort_keys=True)
    out = getattr(args, "out", None)
    if out:
        try:
            fh = open(out, "w")
        except ValueError as exc:  # a NUL byte in the path
            raise MgkError(str(exc)) from None
        with fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text, flush=True)  # a closed pipe raises here, not at exit


def _report_text(report):
    lines = []
    for case in report["cases"]:
        actual = case["actual"]
        if isinstance(actual, dict) and "failures" in actual:
            detail = "%d/%d failed" % (actual["failures"], actual["trials"])
            if actual.get("witness"):
                detail += " (witness: %s)" % actual["witness"]
        else:
            detail = str(actual)
        lines.append("[%s] %s: %s" % (case["status"].upper(), case["input"], detail))
    summary = report["summary"]
    lines.append("summary: %s (%d/%d passed)"
                 % (summary["status"], summary["passed"], summary["total"]))
    return "\n".join(lines)


def _model(arg):
    """A model argument is a catalog name or a JSON file path."""
    try:
        return links.catalog(arg)
    except MgkError:
        if os.path.exists(arg):
            return links.load_link(arg)
        raise


def _component(text):
    """A component named by its 1-based position or by its name."""
    if not text.isdecimal():  # isdigit() takes '²', which int() refuses
        return text
    index = bounded_int(text, sys.maxsize)
    if index == sys.maxsize:  # no link has that many components
        raise LinkFormatError("component index %s out of range" % text)
    return index


def _alphabet_for(words, gens):
    """m1..mK for K = gens, or else the largest K named as mK (m02 is not m2,
    so a zero-padded index sizes nothing); K is checked against the
    alphabet budget before any name is built."""
    if gens is None:
        gens = 1
        for word in words:
            for g, _ in word.letters:
                if g.startswith("m") and g[1:].isdigit() and g[1] != "0":
                    index = bounded_int(g[1:], sys.maxsize)
                    if index == sys.maxsize:  # no alphabet has that many generators
                        raise MgkError("generator %s out of range" % g)
                    gens = max(gens, index)
    milnor._check_alphabet_size(gens)
    return milnor.default_alphabet(gens)


def _refuse_unread(args, action, readers):
    """Refuse each set option whose (option, actions) pair omits action."""
    for option, actions in readers:
        value = getattr(args, option)
        if value is not None and value is not False and action not in actions.split():
            raise MgkError("--%s is read only by %s %s" % (
                option.replace("_", "-"), args.command,
                (" and %s " % args.command).join(actions.split())))


# -- subcommand handlers -------------------------------------------------------

def cmd_grope(args):
    _refuse_unread(args, args.action,
                   (("names", "boundary"), ("tip", "duals"), ("closed", "dot")))
    if args.action == "duals":
        closed = gropes.parse_closed_tree(args.tree)
        k = gropes.grope_class(closed.body)
        if args.tip is None:
            # the benchmark tracer times the duals layer only through dual_tree
            # and dual_class, so the class keeps its own path walk (ROADMAP item 3)
            duals = [(path, text, gropes.dual_class(closed, tip))
                     for tip, path, text in gropes.tip_duals(closed)]
        else:  # '' parses to the root, which dual_tree refuses as no tip
            tip = gropes.parse_tip_path(args.tip)
            dual = gropes.dual_tree(closed, tip).body
            duals = [(gropes.format_tip_path(tip), gropes.tree_text(dual),
                      dual.tree_class)]
        rows = [{"tip": path, "dual": text, "class": dc,
                 "bound": "%d >= %d %s" % (dc, k, "ok" if dc >= k else "VIOLATED")}
                for path, text, dc in duals]
        lines = ["class %d, rank %d" % (k, closed.body.leaf_count)]
        lines += ["tip %-10s class %-3d %-12s %s"
                  % (r["tip"], r["class"], r["bound"], r["dual"]) for r in rows]
        _write(args, {"command": "grope duals", "input": args.tree, "class": k,
                      "rank": closed.body.leaf_count, "duals": rows}, "\n".join(lines))
        return 0 if all(r["class"] >= k for r in rows) else 1
    tree = (gropes.parse_closed_tree(args.tree) if args.closed
            else gropes.parse_tree(args.tree))
    if args.action == "class":
        result = gropes.grope_class(tree)
    elif args.action == "boundary":
        names = milnor.default_alphabet(tree.leaf_count) if args.names is None \
            else [n.strip() for n in args.names.split(",")]
        result = gropes.boundary_expression(tree, names)
    else:
        result = gropes.export_dot(tree)
    _write(args, {"command": "grope " + args.action, "input": args.tree,
                  "result": result}, str(result))
    return 0


def cmd_milnor(args):
    want = 2 if args.action == "equal" else 1
    if len(args.words) != want:
        raise MgkError("milnor %s takes %s, got %d" % (
            args.action, "two words" if want == 2 else "one word", len(args.words)))
    words = [Word.parse(t) for t in args.words]
    alphabet = _alphabet_for(words, args.gens)
    code = 0
    if args.action == "expand":
        result = text = format_ring_element(milnor.magnus(words[0], alphabet))
    elif args.action == "nf":
        lines = milnor.normal_form(words[0], alphabet).describe()
        result = dict(line.split(": ", 1) for line in lines)
        text = "\n".join(lines)
    elif args.action == "equal":
        code = 0 if milnor.words_equal(words[0], words[1], alphabet) else 1
        result = text = "not equal" if code else "equal"
    elif args.action == "lcs-degree":
        deg = milnor.lcs_degree(words[0], alphabet)
        result = "inf" if deg == float("inf") else deg
        text = str(result)
    else:
        result = text = format_ring_element(milnor.r_inverse(words[0], alphabet))
    _write(args, {"command": "milnor %s" % args.action, "input": args.words,
                  "alphabet": list(alphabet), "result": result}, text)
    return code


def cmd_link(args):
    _refuse_unread(args, args.action, (("index", "mu"),))
    model = _model(args.model)
    if args.action == "show":
        _write(args, links.link_to_dict(model))
        return 0
    if isinstance(model, links.SolidTorusLink):
        model = model.ambient_model()
    if args.action == "mu":
        if not args.index:
            raise MgkError("link mu needs --index i1,...,ik,j")
        key, value = "mu", links.mu_bar(
            model, [_component(p.strip()) for p in args.index.split(",")])
    elif args.action == "trivial":
        key, value = "trivial", links.is_homotopically_trivial(model)
    else:
        key, value = "almost_trivial", links.is_almost_trivial(model)
    text = str(value).lower() if isinstance(value, bool) else str(value)
    _write(args, {"command": "link %s" % args.action, "input": args.model,
                  key: value}, text)
    return 0


def _composition_spec(args):
    return composition.CompositionSpec(_model(args.lhat), _model(args.q),
                                       target=args.target)


def cmd_compose(args):
    _write(args, links.link_to_dict(composition.compose(_composition_spec(args))))
    return 0


def cmd_certificate(args):
    cert = composition.essentiality_certificate(_composition_spec(args))
    ok = cert.c == cert.a * cert.b
    _write(args, {"a": cert.a, "b": cert.b, "c": cert.c, "c_equals_ab": ok},
           "a = %d, b = %d, c = %d; c == a*b: %s"
           % (cert.a, cert.b, cert.c, str(ok).lower()))
    return 0 if ok else 1


def cmd_verify(args):
    _refuse_unread(args, args.what, (("lhat", "sigma"), ("q", "sigma"),
                                     ("target", "sigma"), ("trials", "all sigma"),
                                     ("seed", "all sigma"), ("max_generators", "all")))
    config = verify.RunConfig(**{option: getattr(args, option) for option in
                                 ("seed", "trials", "max_generators")
                                 if getattr(args, option) is not None})
    if args.what == "sigma":
        spec = composition.CompositionSpec(
            _model("borromean" if args.lhat is None else args.lhat),
            _model("bing_double" if args.q is None else args.q), target=args.target)
        report = composition.verify_sigma(spec, trials=config.trials, seed=config.seed)
    elif args.what == "all":
        report = verify.run_all(config)
    else:
        report = verify.report("verify certificate", config,
                               [verify.check_certificate])
    _write(args, report, _report_text(report))
    return 0 if report["summary"]["status"] == "pass" else 1


# -- argument parsing ----------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="mgk",
        description="Exact computations with grope trees, free Milnor "
                    "groups, link invariants and link composition.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("grope", help="grope tree operations")
    g.add_argument("action", choices=["class", "duals", "boundary", "dot"])
    g.add_argument("tree", help="tree text, e.g. \"({* *})\"")
    g.add_argument("--names", help="comma-separated tip generator names")
    g.add_argument("--tip", help="tip path like 0L/1R (duals only)")
    g.add_argument("--closed", action="store_true",
                   help="treat the tree as closed (dot only)")
    g.add_argument("--json", action="store_true")
    g.add_argument("--out")
    g.set_defaults(func=cmd_grope)

    m = sub.add_parser("milnor", help="Milnor-group and ring operations")
    m.add_argument("action",
                   choices=["expand", "nf", "equal", "lcs-degree", "rinv"])
    m.add_argument("words", nargs="+", help="word text, e.g. \"[m2,m3]\"")
    m.add_argument("--gens", type=int,
                   help="alphabet size (default: largest mK in the input)")
    m.add_argument("--json", action="store_true")
    m.set_defaults(func=cmd_milnor)

    l = sub.add_parser("link", help="link models and invariants")
    l.add_argument("action", choices=["mu", "trivial", "almost-trivial", "show"])
    l.add_argument("model", help="catalog name or JSON file")
    l.add_argument("--index", help="mu-bar indices, e.g. 2,3,1")
    l.add_argument("--json", action="store_true")
    l.set_defaults(func=cmd_link)

    c = sub.add_parser("compose", help="compose a pattern into a link")
    c.add_argument("lhat", help="ambient link (catalog name or JSON file)")
    c.add_argument("q", help="solid-torus pattern (catalog name or JSON file)")
    c.add_argument("--target", type=int, help="1-based target component")
    c.add_argument("--out")
    c.set_defaults(func=cmd_compose)

    e = sub.add_parser("certificate", help="essentiality certificate (a, b, c)")
    e.add_argument("lhat")
    e.add_argument("q")
    e.add_argument("--target", type=int)
    e.add_argument("--json", action="store_true")
    e.set_defaults(func=cmd_certificate)

    v = sub.add_parser("verify", help="randomized property sweeps")
    v.add_argument("what", choices=["sigma", "certificate", "all"])
    v.add_argument("--lhat")
    v.add_argument("--q")
    v.add_argument("--target", type=int)
    v.add_argument("--trials", type=int)
    v.add_argument("--seed", type=int)
    v.add_argument("--max-generators", type=int)
    v.add_argument("--json", action="store_true")
    v.add_argument("--out")
    v.set_defaults(func=cmd_verify)

    return parser


_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:  # built on first use, not at import
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # the reader took all it wanted; quiet the exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    except (MgkError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (RecursionError, MemoryError, OverflowError) as exc:
        # exit 1 means "a check failed", so resource exhaustion is an error
        print("error: input too large or too deeply nested (%s)"
              % (str(exc) or type(exc).__name__), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
