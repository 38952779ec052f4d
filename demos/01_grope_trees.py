"""Grope trees: classes, tips, boundary words, and dual trees.

A grope is a 2-complex built from surface stages.  Its branching pattern
is a rooted paired tree: a Leaf "*" is a bare circle (class 1), and a
Surface "({A B} {C D} ...)" carries one pair of subtrees per genus.  The
class of a surface is the best pair: min over pairs of the two members'
classes added together.
"""

from mgk import (boundary_expression, boundary_word, dual_class, dual_tree,
                 export_dot, format_tip_path, grope_class, is_isomorphic,
                 lcs_degree, leaf_paths, parse_closed_tree, parse_tree,
                 rerooted, tree_text)

print("== classes " + "=" * 50)
for text in ("*", "({* *})", "({({* *}) *})", "({({* *}) ({* *})} {* *})"):
    print("%-28s class %d" % (text, grope_class(parse_tree(text))))

print()
print("== boundary words " + "=" * 43)
# The bottom stage's boundary is the product of pair commutators.  With
# distinct tip generators its Magnus expansion starts exactly in the
# degree given by the class: gropes measure the lower central series.
for text in ("({* *})", "({({* *}) *})", "({* *} {* *})"):
    tree = parse_tree(text)
    names = ["g%d" % i for i in range(len(leaf_paths(tree)))]
    word = boundary_word(tree, names)
    print("%-18s boundary %-16s degree %s (class %d)"
          % (text, boundary_expression(tree, names),
             lcs_degree(word, tuple(names)), grope_class(tree)))

print()
print("== dual trees " + "=" * 47)
# A closed grope tree carries an extra root edge (the deleted 2-cell).
# For each free tip, the dual tree erases all side branches along the
# path to the root except each traversed child's partner, then re-roots
# at the tip.  The dual class is 1 + the sum of the partner classes, so
# it is never below the original class.
closed = parse_closed_tree("({({* *}) ({* *})})")
k = grope_class(closed.body)
print("tree %s, class %d, rank %d" % (closed, k, len(leaf_paths(closed.body))))
for tip in leaf_paths(closed.body):
    dual = dual_tree(closed, tip)
    print("  tip %-8s dual %-24s class %d >= %d"
          % (format_tip_path(tip), tree_text(dual.body),
             dual_class(closed, tip), k))

print()
print("== genus-1 trees: duality is re-rooting " + "=" * 21)
tower = parse_closed_tree("({({({* *}) *}) *})")
for tip in leaf_paths(tower.body):
    dual = dual_tree(tower, tip)
    same = is_isomorphic(dual, rerooted(tower, tip))
    print("  tip %-10s dual %-22s re-rooted tree identical: %s"
          % (format_tip_path(tip), tree_text(dual.body), same))

print()
print("== DOT export (paste into graphviz) " + "=" * 25)
print(export_dot(parse_closed_tree("({({* *}) *})")))
