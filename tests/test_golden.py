"""Recorded command outputs stay byte-identical (see tests/golden.py)."""

import json
import os
import sys

import pytest

from golden import WIDE, digest

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "golden_outputs.json")

with open(FIXTURE) as fh:
    RECORD = json.load(fh)


def mismatches(cases):
    return [case["argv"] for case in cases
            if digest(case["argv"]) != case["sha256"]]


def test_outputs_match_recorded_digests():
    assert mismatches(RECORD["outputs"]) == []


def test_help_and_usage_errors_match_recorded_digests():
    if "%d.%d" % sys.version_info[:2] != RECORD["python"]:
        pytest.skip("argparse wording is recorded for Python %s"
                    % RECORD["python"])
    assert mismatches(RECORD["argparse"]) == []


def test_wide_cases_are_recorded_for_the_current_list():
    # runs no command: the wide digests are checked by re-recording
    assert [case["argv"] for case in RECORD["wide"]] == WIDE
