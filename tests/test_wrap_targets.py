"""Every name perfbench/tracer.py wraps is still bound in the package.

A target the tracer cannot find drops the per-layer metrics it feeds, and
only a traced benchmark run would show it. The check runs in a fresh
interpreter, so the tracer's wrappers reach no other test.
"""

import json
import os
import subprocess
import sys

from conftest import REPO_ROOT

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
