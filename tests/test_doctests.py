"""The examples in the `mgk` module docstrings run and print what they show."""

import doctest
import importlib
import pkgutil

import pytest

import mgk

MODULES = sorted(info.name for info in pkgutil.iter_modules(mgk.__path__, "mgk."))


def test_every_module_is_listed():
    assert "mgk.ring" in MODULES and len(MODULES) > 5


@pytest.mark.parametrize("name", ["mgk"] + MODULES)
def test_module_doctests_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, name


def test_ring_packed_layout_example_runs():
    assert doctest.testmod(importlib.import_module("mgk.ring")).attempted > 0
