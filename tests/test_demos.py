"""The five demos print the bytes recorded for them: each runs as its own
interpreter, as a reader runs it, and the sha256 of its stdout is pinned.
The README's CLI examples run too, each as ``python -m affweyl``."""

import hashlib
import os
import shlex
import subprocess
import sys

import pytest

from conftest import child_env

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")

DIGESTS = {
    "01_root_data_and_weyl_groups.py":
        "ffd6578fde281c887802b549e744dc887e9e6482ce6b1a862afe0d4937f76a5e",
    "02_folding_and_coinvariants.py":
        "db7f5ad21eed41fd7578d7ab0f8416afc6a37ab743622aeee15b18cdebc949e1",
    "03_iwahori_weyl_geometry.py":
        "7ced22943eba5cb0d6306fe3e77f2de8295f0c5f69e042e17d7ba2ece9995bb8",
    "04_admissible_sets_and_speciality.py":
        "bacbb94965a128bb000733125b939eeaf511ece17e7ea15d3d7c8d6564b4e6ea",
    "05_highest_weights_and_branching.py":
        "3625cb7d108e8f4398d06cd39e48d18178f4d64880c9f75a904702e50b5a3a90",
}


def test_every_demo_is_pinned():
    assert sorted(f for f in os.listdir(DEMOS) if f.endswith(".py")) == sorted(DIGESTS)


@pytest.mark.parametrize("demo", sorted(DIGESTS))
def test_demo_prints_its_recorded_bytes(demo):
    run = subprocess.run([sys.executable, os.path.join(DEMOS, demo)],
                         capture_output=True, env=child_env())
    assert run.returncode == 0, run.stderr.decode()
    assert hashlib.sha256(run.stdout).hexdigest() == DIGESTS[demo]


def readme_cli_examples():
    """The lines of the ``sh`` block under the README's "## CLI" heading."""
    with open(os.path.join(ROOT, "README.md")) as f:
        text = f.read()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.strip()]


def test_readme_cli_examples_exit_zero():
    examples = readme_cli_examples()
    assert len(examples) >= 10 and all(e.startswith("affweyl ") for e in examples)
    for line in examples:
        argv = shlex.split(line)[1:]
        run = subprocess.run([sys.executable, "-m", "affweyl", *argv],
                             capture_output=True, env=child_env())
        assert run.returncode == 0, (line, run.stderr.decode())
