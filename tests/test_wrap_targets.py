"""Every name perfbench/tracer.py wraps is still bound in the package, and
the per-layer metrics a traced exhaustive scan reads stay live.

A target the tracer cannot find drops the per-layer metrics it feeds, and
a target the package no longer calls leaves them at zero; only a traced
benchmark run would show either. The checks run in fresh interpreters, so
the tracer's wrappers reach no other test.
"""

import json
import os
import subprocess
import sys

from conftest import REPO_ROOT, nash_exhaustive_doc

INSTALL = """
import json
import sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer, install
tracer = Tracer()
install(tracer)
print(json.dumps(tracer.missing))
"""


def test_every_tracer_wrap_target_is_bound():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", INSTALL, str(REPO_ROOT / "perfbench")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


TRACED_SCAN = """
import json
import sys
sys.path.insert(0, sys.argv[1])
from tracer import ROOT_SPAN, Tracer, install, layer_metrics
tracer = Tracer()
install(tracer)
import hetassoc.cli
span = tracer.open(ROOT_SPAN)
code = hetassoc.cli.main(["nash", "--config", sys.argv[2], "--mode", "exhaustive",
                          "--out", sys.argv[3]])
tracer.close(span)
print(code, json.dumps(sorted(name for name, value in layer_metrics(tracer).items() if value)))
"""

# the metrics a traced `nash --mode exhaustive` on the nash-exhaustive
# instance reads as nonzero; the others read zero, since the evaluation
# core no longer calls what the tracer wraps for them
LIVE_ON_EXHAUSTIVE_SCAN = [
    "ctmc.tables_s", "game.search_s", "output.bytes", "output.write_s",
    "states.enumerate_s", "states.num_states", "trace.layer_coverage",
    "transient.tagged_matrix_s", "transient.tagged_solve_s",
]


def test_traced_exhaustive_scan_keeps_its_live_metrics(tmp_path):
    """perfbench's nash-exhaustive instance (the shipped instance with
    system 1's thresholds at 0.5, 0.5, at 5 Erlangs), scanned exhaustively
    by the CLI under the installed tracer: every metric in
    LIVE_ON_EXHAUSTIVE_SCAN reads nonzero."""
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps(nash_exhaustive_doc()))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", TRACED_SCAN, str(REPO_ROOT / "perfbench"),
                           str(instance), str(tmp_path / "out")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    code, live = proc.stdout.splitlines()[-1].split(" ", 1)
    assert code == "0"
    assert set(LIVE_ON_EXHAUSTIVE_SCAN) <= set(json.loads(live))
