"""mgk: exact computations around gropes, Milnor groups and link homotopy.

The package has four layers:

* `gropes`      -- grope trees, classes, boundary words, dual trees;
* `ring`, `words`, `milnor`
                -- the squarefree ring R, formal words, the Magnus
                   expansion and exact normal forms in free Milnor groups;
* `links`       -- link models, mu-bar invariants, triviality tests and
                   the built-in catalog;
* `composition` -- word-level link composition, the sigma ring map and
                   the essentiality certificate.

`verify` runs seeded property sweeps; `cli` exposes everything as the
`mgk` command.  All values are immutable after construction and all
operations are pure, so everything is safe to share between threads.
"""

from .composition import (Certificate, CompositionSpec, compose,
                          essentiality_certificate, verify_sigma,
                          wedge_ring_element)
from .errors import (BudgetExceeded, CompositionError, LinkFormatError,
                     MgkError, NotInKernelError, ParseError, TreeSyntaxError,
                     UniverseMismatchError, UnknownGeneratorError,
                     WordSyntaxError)
from .gropes import (LEAF, ClosedGropeTree, GropeTree, boundary_expression,
                     boundary_word, canonical, dual_class, dual_tree,
                     export_dot, format_tip_path, grope_class, is_isomorphic,
                     leaf_paths, parse_closed_tree, parse_tip_path,
                     parse_tree, rerooted, tip_duals, tree_text)
from .links import (LinkModel, SolidTorusLink, catalog, catalog_names,
                    delete_component, is_almost_trivial,
                    is_homotopically_trivial, link_from_dict, link_to_dict,
                    load_link, mu_bar, save_link)
from .milnor import (MilnorElement, basis_rank, conjugation_action,
                     default_alphabet, lcs_degree, magnus, normal_form,
                     r_inverse, r_map, words_equal)
from .ring import Ring, RingElement, format_ring_element, variable_display
from .verify import RunConfig, run_all
from .words import IDENTITY, Word, commutator

__version__ = "0.1.0"
