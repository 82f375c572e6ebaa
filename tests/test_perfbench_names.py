"""The names the benchmark harness reads from the package stay in place.

``perfbench/tracer.py`` wraps functions and methods of the imported
``affweyl`` modules by name, ``perfbench/checks.py`` asks a group for the
predicted maxima of a class or a cocharacter, and ``perfbench/child.py``
builds groups and folds.  A name that moves, or one bound only by a lazy
import, makes every traced command fail.  The harness runs in a child
interpreter, so the tracer never wraps this test process.
"""

import os
import subprocess
import sys

from conftest import child_env

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")

SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import affweyl.cli
from tracer import Tracer
tracer = Tracer()
tracer.install()
import checks, child
oracle = checks.Oracle()
print(oracle.predicted_maxima_count("d3", (1, 1, 0), ()))
print(oracle.predicted_maxima_count("folded-a3", (1, 0, 0), (1, 2)))
child.build([["group", "a2-sc"], ["fold", "d3", "swap"]])
print(sorted({name for name, _ in tracer.agg}))
"""


def test_the_harness_traces_checks_and_builds():
    r = subprocess.run([sys.executable, "-c", SCRIPT, PERFBENCH], capture_output=True,
                       text=True, env=child_env(), timeout=120)
    assert r.returncode == 0, r.stderr
    d3_count, folded_count, traced = r.stdout.splitlines()
    # class coordinates on d3 at the alcove: the 12 translations of the orbit;
    # rank-many coordinates on folded-a3 go through project_cocharacter
    assert (d3_count, folded_count) == ("12", "1")
    for name in ("facets.predicted_maxima", "folding.fold", "iwahori.group_build",
                 "presets.load_group", "presets.load_action"):
        assert name in traced
