"""No module of `mgk` reads the environment.

Every cap in `mgk` is a module constant or an explicit argument (the
letter budget `mgk.words.MAX_LETTERS`, each verify draw's own alphabet
bound), so the same command gives the same answer in every shell.  This
test reads the source of every module under `src/mgk` and fails on any
use of `environ`, `environb`, `getenv` or `getenvb`, so a cap cannot come
back as an environment knob.
"""

import ast
import os

import pytest

import mgk

SOURCE = os.path.dirname(mgk.__file__)
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(tree):
    """(line, name) of each mention of an environment reader in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT:
            yield node.lineno, node.attr
        elif isinstance(node, ast.Name) and node.id in ENVIRONMENT:
            yield node.lineno, node.id
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in ENVIRONMENT:
                    yield node.lineno, alias.name


@pytest.mark.parametrize("name", sorted(
    f for f in os.listdir(SOURCE) if f.endswith(".py")))
def test_module_reads_no_environment(name):
    with open(os.path.join(SOURCE, name)) as fh:
        tree = ast.parse(fh.read(), name)
    assert list(environment_reads(tree)) == [], name


def test_the_check_sees_each_kind_of_read():
    text = ("import os\nfrom os import getenv\nos.environ.get('X')\n"
            "os.getenvb(b'X')\nenviron['X']\n")
    assert sorted(environment_reads(ast.parse(text))) == [
        (2, "getenv"), (3, "environ"), (4, "getenvb"), (5, "environ")]
