"""No module of `mgk` reads the environment.

Every cap in `mgk` is a module constant or an explicit argument (the
letter budget `mgk.words.MAX_LETTERS`, each verify draw's own alphabet
bound), so the same command gives the same answer in every shell.  This
test reads the source of every module under `src/mgk` and fails on any
use of `environ`, `environb`, `getenv` or `getenvb`, so a cap cannot come
back as an environment knob.  Nor does a file's text depend on the locale:
every `open` of a text file names its encoding, UTF-8, so a link file
reads alike under `LC_ALL=C` and under a UTF-8 locale.
"""

import ast
import os
import subprocess
import sys

import pytest

import mgk

SOURCE = os.path.dirname(mgk.__file__)
MODULES = sorted(f for f in os.listdir(SOURCE) if f.endswith(".py"))
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


def locale_opens(tree):
    """Line of each call of the builtin open that reads or writes text in the
    locale's encoding: no encoding argument and no binary mode."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "open":
            keywords = {k.arg: k.value for k in node.keywords}
            mode = node.args[1] if len(node.args) > 1 else keywords.get("mode")
            binary = isinstance(mode, ast.Constant) and "b" in str(mode.value)
            if not binary and len(node.args) < 4 and "encoding" not in keywords:
                yield node.lineno


def parsed(name):
    with open(os.path.join(SOURCE, name), encoding="utf-8") as fh:
        return ast.parse(fh.read(), name)


@pytest.mark.parametrize("name", MODULES)
def test_module_reads_no_environment(name):
    assert list(environment_reads(parsed(name))) == [], name


@pytest.mark.parametrize("name", MODULES)
def test_module_opens_text_files_as_utf8(name):
    assert list(locale_opens(parsed(name))) == [], name


def test_the_check_sees_each_kind_of_read():
    text = ("import os\nfrom os import getenv\nos.environ.get('X')\n"
            "os.getenvb(b'X')\nenviron['X']\n")
    assert sorted(environment_reads(ast.parse(text))) == [
        (2, "getenv"), (3, "environ"), (4, "getenvb"), (5, "environ")]


def test_the_check_sees_each_kind_of_open():
    text = ("open(p)\nopen(p, 'w')\nopen(p, 'rb')\nopen(p, mode='wb')\n"
            "open(p, encoding='utf-8')\nopen(p, 'w', encoding='utf-8')\n"
            "os.open(p, os.O_WRONLY)\nopen(p, mode=m)\n"
            "open(p, 'r', -1, 'utf-8')\n")
    assert list(locale_opens(ast.parse(text))) == [1, 2, 8]


def test_a_link_file_reads_alike_in_the_c_locale(tmp_path):
    path = tmp_path / "lambda.json"
    path.write_bytes('{"components": ["\u03bb1", "\u03bb2"], "longitudes": '
                     '{"\u03bb1": "m2", "\u03bb2": "m1"}}\n'.encode("utf-8"))
    outputs = []
    for env in ({"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
                {"LC_ALL": "C.UTF-8", "PYTHONUTF8": "1"}):
        proc = subprocess.run(
            [sys.executable, "-m", "mgk.cli", "link", "show", str(path)],
            capture_output=True, env=dict(os.environ, **env), timeout=120)
        assert (proc.returncode, proc.stderr) == (0, b""), env
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] and b'"\\u03bb1"' in outputs[0]
