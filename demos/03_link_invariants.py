"""Link models and their mu-bar invariants with distinct indices.

A link model is a presentation: component names, a meridian per
component, and one longitude word per component over the other meridians.
mu-bar(i1..ik, j) reads off the coefficient of y_i1...y_ik in the Magnus
expansion of component j's longitude.  The catalog words were derived by
the committed Wirtinger oracle from actual diagrams.
"""

from mgk import (catalog, delete_component, is_almost_trivial,
                 is_homotopically_trivial, link_to_dict, mu_bar)

print("== catalog " + "=" * 50)
for name in ("unlink(3)", "hopf", "borromean", "whitehead_pattern"):
    model = catalog(name)
    longs = link_to_dict(model)["longitudes"]
    print("%-18s %s" % (name, longs))

print()
print("== mu-bar " + "=" * 51)
print("hopf       mu(2,1)   =", mu_bar(catalog("hopf"), (2, 1)))
print("borromean  mu(2,3,1) =", mu_bar(catalog("borromean"), (2, 3, 1)))
print("borromean  mu(3,2,1) =", mu_bar(catalog("borromean"), (3, 2, 1)))
print("unlink(3)  mu(2,3,1) =", mu_bar(catalog("unlink(3)"), (2, 3, 1)))

print()
print("== homotopy triviality " + "=" * 38)
for name in ("unlink(3)", "hopf", "borromean", "whitehead_pattern"):
    model = catalog(name)
    print("%-18s trivial: %-5s almost trivial: %s"
          % (name, is_homotopically_trivial(model),
             is_almost_trivial(model) if model.n >= 2 else "n/a"))

print()
print("== sublinks " + "=" * 49)
# Deleting a component sets its meridian to 1 (letters erased), and the
# longitudes print as stored, unreduced.  The Borromean rings collapse:
# each longitude left is a meridian times its inverse, so every 2-component
# sublink is an unlink.
borr = catalog("borromean")
for i in (1, 2, 3):
    sub = delete_component(borr, i)
    print("delete %d -> longitudes %s, trivial: %s"
          % (i, [str(w) for w in sub.longitudes],
             is_homotopically_trivial(sub)))

print()
print("== invariance under sublink deletion " + "=" * 24)
sub = delete_component(borr, "l1")
print("mu(l2,l3) before: %d, after deleting l1: %d"
      % (mu_bar(borr, ("l2", "l3")), mu_bar(sub, ("l2", "l3"))))
