"""Grope trees: rooted paired trees, classes, boundary words, duals.

A grope is built from surface stages; its branching is captured by a
rooted tree whose vertices above the root come in pairs, one pair per
symplectic basis pair of a stage.  Here a tree is either a Leaf (a bare
circle, class 1) or a Surface with an ordered list of pairs of subtrees
(one pair per genus).  The class of a Surface is the minimum over its
pairs of the sum of the two members' classes.

A `GropeTree` is a plain value with three slots, like a `Word`: its
pairs, and the class and leaf count that `__init__` fixes from its
children's in O(1) work per pair, as a running minimum and sum.  A tree
is its text: `tree_text` round-trips, so `==` and `hash` read the
texts.  One post-order pass, `_subtree_texts`, writes every subtree's
text for `tip_duals`, or sorts members and pairs on (class, text) as it
builds `canonical`'s tree; `is_isomorphic` writes no text and compares
integer shape ids.  Both sort a Surface's pairs only at genus 2 or more,
so a one-pair Surface sorts nothing and builds no list of classes.  The
module keeps no cache, and every walk uses an explicit stack, so trees
of any depth work under the default recursion limit.  `boundary_word`
parses the text that `boundary_expression` renders; its word at least
doubles in length per stage, so a deep tree's boundary word is refused
with `BudgetExceeded` once it passes the budget `mgk.words.MAX_LETTERS`.

Text grammar (whitespace-insensitive):

    GROPE := "*" | "(" PAIR+ ")"
    PAIR  := "{" GROPE GROPE "}"

A closed (sphere-like) grope is encoded by the same tree plus one extra
edge at the root standing for the deleted 2-cell; `ClosedGropeTree` wraps
a Surface body and supplies that convention.  The leaves of the body are
the free tips, `leaf_paths(closed.body)`; their count is the rank of the
first homology of the closed grope.

The dual-tree algorithm: fix a free tip and walk from it down to the
root.  At each surface vertex on the way, erase every branch except the
edge just traversed and the partner of the traversed child inside its
pair, then re-root at the chosen tip.  The result is a chain of genus-1
surfaces (the path) carrying the retained partner subtrees, ending at the
leaf that used to be the extra root edge.  Its class is 1 plus the sum of
the partner classes, hence at least the class of the original tree.
Every dual comes from one of two walks.  `dual_tree` walks one tip's path
from the root, checking each step as it strings the partner on the chain,
and `dual_class` reads its class; `tip_duals` lists every tip's dual text
and class from one walk that builds no dual tree and keeps the current
path's steps, step texts and partners on live stacks, the walk that
`leaf_paths` reads.  On an all-genus-1 tree the dual is the tree re-rooted
at the tip, which is all `rerooted` returns.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from itertools import repeat

from .errors import MgkError, TreeSyntaxError
from .words import NAME, Word, bounded_int

__all__ = [
    "GropeTree", "ClosedGropeTree", "LEAF", "parse_tree", "parse_closed_tree",
    "tree_text", "grope_class", "leaf_paths", "boundary_word",
    "boundary_expression", "dual_tree", "dual_class", "tip_duals", "canonical",
    "is_isomorphic", "rerooted", "format_tip_path", "parse_tip_path", "export_dot",
]

LEFT, RIGHT = 0, 1


class GropeTree:
    """Leaf when `pairs` is empty, Surface of genus len(pairs) otherwise.

    `tree_class` and `leaf_count` are the class and the number of Leaves.
    A tree is immutable by convention, like a `Word`: no slot is reassigned.
    """

    __slots__ = ("pairs", "tree_class", "leaf_count")

    def __init__(self, pairs: tuple[tuple["GropeTree", "GropeTree"], ...] = ()):
        self.pairs = pairs
        tree_class = leaf_count = 0  # no pair sums to 0: 0 is "no pair yet"
        for left, right in pairs:
            k = left.tree_class + right.tree_class
            if not tree_class or k < tree_class:
                tree_class = k
            leaf_count += left.leaf_count + right.leaf_count
        self.tree_class, self.leaf_count = tree_class or 1, leaf_count or 1

    def __eq__(self, other):
        if not isinstance(other, GropeTree):
            return NotImplemented
        # tree_text round-trips, so equal trees are exactly equal texts
        return self is other or tree_text(self) == tree_text(other)

    def __hash__(self):
        return hash(tree_text(self))

    def __repr__(self):
        return "parse_tree(%r)" % tree_text(self)

    def __str__(self):
        return tree_text(self)


LEAF = GropeTree()
_LEAF_KEY = (1, "*", LEAF)  # a Leaf's (class, text, subtree) in `_subtree_texts`


@dataclass(frozen=True)
class ClosedGropeTree:
    """A grope tree with the extra root edge of a sphere-like grope.

    The body must be a Surface: a closed grope has a bottom stage.
    """

    body: GropeTree

    def __post_init__(self):
        if not self.body.pairs:
            raise TreeSyntaxError("a closed grope tree needs a Surface body")

    def __str__(self):
        return tree_text(self.body)


# -- text form --------------------------------------------------------------

def parse_tree(text: str) -> GropeTree:
    chars = "".join(text.split())  # positions are mapped back on error
    n = len(chars)
    open_members = []  # one list of finished pair members per open Surface
    k = 0
    while True:
        # read one GROPE at k
        if k >= n:
            raise _syntax_error("unexpected end of input", text, k)
        ch = chars[k]
        if ch == "(":
            if k + 1 == n or chars[k + 1] != "{":
                raise _syntax_error("a Surface needs at least one pair", text, k + 1)
            open_members.append([])
            k += 2
            continue
        if ch != "*":
            raise _syntax_error("expected '*' or '('", text, k)
        node = LEAF
        k += 1
        # hand the finished GROPE to its Surface, closing Surfaces that end
        while True:
            if not open_members:
                if k != n:
                    raise _syntax_error("trailing input", text, k)
                return node
            members = open_members[-1]
            members.append(node)
            if len(members) % 2:
                break  # the right member follows
            if k == n or chars[k] != "}":
                raise _syntax_error("expected '}'", text, k)
            k += 1
            if k < n and chars[k] == "{":
                k += 1
                break  # the next pair's left member follows
            if k == n or chars[k] != ")":
                raise _syntax_error("expected ')'", text, k)
            open_members.pop()
            node = GropeTree(tuple(zip(*[iter(members)] * 2)))
            k += 1


def _syntax_error(message, text, k):
    """The error at the k-th non-space character of text (or at its end)."""
    for pos, ch in enumerate(text):
        if not ch.isspace():
            if not k:
                return TreeSyntaxError(message, pos)
            k -= 1
    return TreeSyntaxError(message, len(text))


def parse_closed_tree(text: str) -> ClosedGropeTree:
    return ClosedGropeTree(parse_tree(text))


def _render(tree: GropeTree, leaves, marks) -> str:
    """Text of a tree: the next of `leaves` for each Leaf, and for a Surface
    opening L middle R (separator L middle R)... closing, from `marks`."""
    opening, middle, separator, closing = marks
    parts = []
    stack = [tree]  # trees to write and the text between them, last first
    while stack:
        item = stack.pop()
        if type(item) is str:
            parts.append(item)
        elif not item.pairs:
            parts.append(next(leaves))
        else:
            stack.append(closing)
            for left, right in reversed(item.pairs):
                stack += (right, middle, left, separator)
            stack[-1] = opening  # the first pair opens the Surface
    return "".join(parts)


def tree_text(tree: GropeTree) -> str:
    """Canonical text; round-trips through parse_tree character-for-character."""
    return _render(tree, repeat("*"), ("({", " ", "} {", "})"))


def _subtree_texts(tree: GropeTree, sort=False):
    """(subtree, text) for every subtree in post-order, from one pass that
    keeps the keys of the finished subtrees whose parent is still open;
    with sort, canonical subtrees: members and pairs sorted on (class, text)."""
    done = []  # (class, text, subtree) of those, in depth-first order
    stack = [tree]  # trees to walk, and (Surface,) once its members are done
    while stack:
        node = stack.pop()
        if type(node) is tuple:
            node, = node
            cut = len(done) - 2 * len(node.pairs)
            pairs = zip(done[cut::2], done[cut + 1::2])
            if sort:
                pairs = [(a, b) if a[:2] <= b[:2] else (b, a) for a, b in pairs]
                if len(pairs) > 1:
                    # a tie on (class, text) is two equal trees: sorts read no more
                    pairs.sort(key=lambda pair: (pair[0][:2], pair[1][:2]))
                node = GropeTree(tuple([(a[2], b[2]) for a, b in pairs]))
            text = "(%s)" % " ".join(["{%s %s}" % (a[1], b[1]) for a, b in pairs])
            del done[cut:]
            done.append((node.tree_class, text, node))
            yield node, text
        elif not node.pairs:
            done.append(_LEAF_KEY)
            yield node, "*"
        else:
            stack.append((node,))  # members finish in order
            stack += [m for pair in node.pairs for m in pair][::-1]


# -- class and tips ----------------------------------------------------------

def grope_class(tree: GropeTree) -> int:
    """Leaf -> 1; Surface -> min over pairs of class(left) + class(right)."""
    return tree.tree_class


def _tip_walk(tree: GropeTree):
    """At each Leaf, in depth-first order, the live stacks of the path to
    it: its (pair, side) steps, their texts ("0L") and the partner of the
    traversed child at each step.  The lists change as the walk goes on."""
    steps, step_texts, partners = [], [], []
    stack = [(tree, 0, None, None, None)]  # (node, depth, step, text, partner)
    while stack:
        node, depth, step, text, partner = stack.pop()
        if depth:  # leave the previous path at this node's parent
            del steps[depth - 1:], step_texts[depth - 1:], partners[depth - 1:]
            steps.append(step)
            step_texts.append(text)
            partners.append(partner)
        if not node.pairs:
            yield steps, step_texts, partners
            continue
        for i in range(len(node.pairs) - 1, -1, -1):
            left, right = node.pairs[i]
            stack.append((right, depth + 1, (i, RIGHT), "%dR" % i, left))
            stack.append((left, depth + 1, (i, LEFT), "%dL" % i, right))


def leaf_paths(tree: GropeTree):
    """Every Leaf position in depth-first order, as (pair, side) steps."""
    return tuple(tuple(steps) for steps, _, _ in _tip_walk(tree))


def format_tip_path(tip) -> str:
    return "/".join("%d%s" % (i, "L" if side == LEFT else "R") for i, side in tip)


_STEP = re.compile(r"(\d+)([LR])\Z")


def parse_tip_path(text: str):
    text = text.strip()
    if not text:
        return ()
    steps = []
    for part in text.split("/"):
        m = _STEP.match(part.strip())
        if not m:
            raise TreeSyntaxError("bad tip step %r; want e.g. 0L/1R" % part)
        index = bounded_int(m.group(1), sys.maxsize)
        if index == sys.maxsize:  # no tree has that many pairs
            raise MgkError("tip path %s leaves the tree" % text)
        steps.append((index, LEFT if m.group(2) == "L" else RIGHT))
    return tuple(steps)


# -- boundary words ----------------------------------------------------------

def _assign_names(tree: GropeTree, names):
    names = tuple(names)
    if len(names) != tree.leaf_count:
        raise MgkError("need %d tip names, got %d" % (tree.leaf_count, len(names)))
    if len(set(names)) != len(names):
        raise MgkError("tip names must be distinct")
    for name in names:
        if not (isinstance(name, str) and NAME.fullmatch(name)):
            raise MgkError("tip name %r is not a generator name" % (name,))
    return names


def boundary_word(tree: GropeTree, names) -> Word:
    """Boundary of the bottom stage: the product of pair commutators,
    recursively, with Leaves mapped to their assigned generators; the
    parsed `boundary_expression`."""
    return Word.parse(boundary_expression(tree, names))


def boundary_expression(tree: GropeTree, names) -> str:
    """The boundary word in commutator-sugar text, e.g. "[[a,b],c]"."""
    return _render(tree, iter(_assign_names(tree, names)), ("[", ",", "][", "]"))


# -- duality -----------------------------------------------------------------

def dual_tree(closed: ClosedGropeTree, tip) -> ClosedGropeTree:
    """Alexander-dual tree at a free tip.

    Walking from the tip down to the root, each path vertex keeps only the
    traversed edge and the partner of the traversed child; the result is
    re-rooted at the tip.  Encoded bottom-up: a chain of genus-1 surfaces
    whose first pair member continues the path (ending in the leaf that
    was the old root edge) and whose second member is the retained
    partner, deepest partner carried by the new bottom stage.
    """
    chain, node = LEAF, closed.body  # the old root edge, now an ordinary leaf
    for i, side in tip:
        pairs = node.pairs
        if not 0 <= i < len(pairs) or side not in (0, 1):  # (LEFT, RIGHT)
            raise MgkError("tip path %s leaves the tree" % format_tip_path(tip))
        chain = GropeTree(((chain, pairs[i][1 - side]),))
        node = pairs[i][side]
    if node.pairs:
        raise MgkError("tip path %s does not reach a Leaf" % format_tip_path(tip))
    return ClosedGropeTree(chain)


def dual_class(closed: ClosedGropeTree, tip) -> int:
    """The class of `dual_tree`'s chain: 1 plus the path's partner classes."""
    return dual_tree(closed, tip).body.tree_class


def tip_duals(closed: ClosedGropeTree):
    """(tip, format_tip_path(tip), text, class) of the dual at every free
    tip, in the order of `leaf_paths(closed.body)`, from one depth-first
    walk that builds no dual tree; text and class are those of dual_tree.

    Every subtree below the root is some tip's partner, so `_subtree_texts`
    passes over the root's pair members give each its text, not the root's.
    A dual strings its partners p1..pk, root to tip, on a chain, "({" * k +
    "* " + text(p1) + "}) " + ... + text(pk) + "})", and its class is 1 plus
    theirs, so a tip costs its output.
    """
    texts = {id(node): text for pair in closed.body.pairs for member in pair
             for node, text in _subtree_texts(member)}
    for steps, step_texts, partners in _tip_walk(closed.body):
        yield (tuple(steps), "/".join(step_texts), "({" * len(partners) + "* "
               + "}) ".join([texts[id(p)] for p in partners]) + "})",
               1 + sum(p.tree_class for p in partners))


# -- isomorphism and re-rooting ----------------------------------------------

def canonical(tree: GropeTree) -> GropeTree:
    """Representative modulo pair swaps and pair permutations: members and
    pairs sorted on (class, text), bottom-up; the last tree of the sorted
    `_subtree_texts` pass."""
    for node, _ in _subtree_texts(tree, sort=True):
        pass
    return node


def is_isomorphic(a, b) -> bool:
    """Equality modulo pair swaps and pair permutations, by shape ids: one
    post-order walk per tree gives each subtree an int id from a dict that
    both trees share, 0 for a Leaf, and for a Surface the id of its key, the
    sorted tuple of its members' id pairs, each pair sorted."""
    ids, roots = {}, []
    for tree in (a, b):
        done = []  # ids of the finished subtrees whose parent is still open
        # trees to walk, and a Surface's genus once its members are done
        stack = [tree.body if isinstance(tree, ClosedGropeTree) else tree]
        while stack:
            node = stack.pop()
            if type(node) is int:
                cut = len(done) - 2 * node
                key = [(a, b) if a <= b else (b, a)
                       for a, b in zip(done[cut::2], done[cut + 1::2])]
                if node > 1:
                    key.sort()
                del done[cut:]
                done.append(ids.setdefault(tuple(key), len(ids) + 1))
            elif not node.pairs:
                done.append(0)
            else:
                stack.append(len(node.pairs))  # members finish in order
                stack += [m for pair in node.pairs for m in pair][::-1]
        roots += done
    return roots[0] == roots[1]


def rerooted(closed: ClosedGropeTree, tip) -> ClosedGropeTree:
    """`dual_tree` of an all-genus-1 tree, which is the tree re-rooted at
    the tip: every vertex has degree at most 3, so the pairing of children
    after re-rooting is forced.  A bad tip is refused before the genus is."""
    dual = dual_tree(closed, tip)
    # class <= leaf count, with equality exactly when every Surface has genus
    # 1: the class takes a minimum over pairs, and a second pair adds leaves
    if closed.body.tree_class != closed.body.leaf_count:
        raise MgkError("re-rooting needs an all-genus-1 tree")
    return dual


# -- DOT export ---------------------------------------------------------------

_PALETTE = ("#1b9e77", "#d95f02", "#7570b3", "#e7298a", "#66a61e", "#e6ab02")


def export_dot(tree) -> str:
    """DOT digraph; the two edges of a pair share a color and pair index."""
    closed = isinstance(tree, ClosedGropeTree)
    body = tree.body if closed else tree
    lines = ["digraph grope {", '  node [shape=point, width=0.12];']
    count, edge = 0, None
    if closed:
        lines.append("  n0;")
        count, edge = 1, '  n0 -> %s [style=dashed, label="root edge"];'
    # an entry is a line to write, or a vertex with the format of its parent
    # edge, which is written after the vertex's whole subtree
    stack = [(body, edge)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            lines.append(item)
            continue
        node, edge = item
        nid = "n%d" % count
        count += 1
        lines.append("  %s;" % nid)
        if edge:
            stack.append(edge % nid)
        for i in range(len(node.pairs) - 1, -1, -1):
            color = _PALETTE[i % len(_PALETTE)]
            for side, child in zip("RL", reversed(node.pairs[i])):
                stack.append((child, '  %s -> %%s [color="%s", pair=%d, side=%s];'
                              % (nid, color, i, side)))
    lines.append("}")
    return "\n".join(lines) + "\n"
