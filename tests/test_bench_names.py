"""The names the benchmark tracer rebinds exist in `mgk`.

`mgkbench/tracing.py` wraps `mgk` functions and methods that it looks up
by name, with no default, so renaming or removing one breaks every traced
benchmark run.  This test loads the tracer by file path (it imports only
the standard library at module level) and checks each listed target, so
such a rename fails here first.
"""

import importlib
import importlib.util
import os

import pytest

from mgk.ring import RingElement
from mgk.words import Word

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "mgkbench",
                       "tracing.py")
CLASSES = {"RingElement": RingElement, "Word": Word}


def _tracing():
    spec = importlib.util.spec_from_file_location("mgkbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def targets():
    tracing = _tracing()
    out = [pair for pairs in tracing._SPANS.values() for pair in pairs]
    out += list(tracing._METHOD_SPANS.values())
    out += [pair for pairs in tracing._AGGREGATED.values() for pair in pairs]
    return out


TARGETS = targets()


def test_the_tracer_lists_targets():
    assert len(TARGETS) >= 30


@pytest.mark.parametrize("owner, attr", TARGETS,
                         ids=[".".join(t) for t in TARGETS])
def test_traced_name_exists(owner, attr):
    if owner in CLASSES:
        # the tracer reads the class dict, so an inherited method would not do
        assert attr in vars(CLASSES[owner]), (owner, attr)
    else:
        module = importlib.import_module("mgk." + owner)
        assert callable(getattr(module, attr, None)), (owner, attr)
