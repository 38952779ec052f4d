"""Each demo runs under `python -W error` with PYTHONPATH=src, exits 0
with nothing on stderr, and prints exactly its recorded output in
tests/fixtures/demos/<name>.out."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(name[:-3] for name in os.listdir(os.path.join(ROOT, "demos"))
               if name.endswith(".py"))


def test_every_demo_has_a_recorded_output():
    recorded = os.listdir(os.path.join(ROOT, "tests", "fixtures", "demos"))
    assert DEMOS
    assert sorted(name[:-4] for name in recorded) == DEMOS


@pytest.mark.parametrize("name", DEMOS)
def test_demo_output_matches_fixture(name):
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-W", "error", os.path.join("demos", name + ".py")],
        cwd=ROOT, env=env, stdin=subprocess.DEVNULL, capture_output=True)
    assert (proc.returncode, proc.stderr) == (0, b"")
    with open(os.path.join(ROOT, "tests", "fixtures", "demos", name + ".out"),
              "rb") as fh:
        assert proc.stdout == fh.read()
