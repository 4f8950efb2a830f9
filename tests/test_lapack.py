"""hetassoc.lapack loads dgbsv and dgbmv from scipy's own extension files,
without importing a scipy package, and they are the functions
scipy.linalg hands out. Each check runs in a fresh interpreter, since what
matters is what a cold import loads and in which order."""

import json
import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT, nash_exhaustive_doc

# the digest of every pi and tagged volume of the nash-exhaustive instance
# (the config document in the last argument), and whether the routines came
# from the fallback
SOLVES = """
import hashlib
import json
import sys
import numpy as np
from hetassoc import (Policy, PolicyGameSolver, PolicyRule, build_generator, enumerate_states,
                      evaluate_policy, lapack, load_instance, solve_steady_state)
config, scheme = load_instance(sys.argv[-1])
space = enumerate_states(config)
solver = PolicyGameSolver(space, scheme)
digest = hashlib.sha256()
# the chunked path, 256 fibres in chunks of 38
for ev in solver.evaluate_many(list(solver.representatives())):
    digest.update(ev.pi.tobytes() + ev.volumes.tobytes())
# a chunk of one, factored in place, and the public stationary solve
rng = np.random.default_rng(4)
for _ in range(3):
    policy = Policy(tuple(tuple(int(s) for s in rng.integers(config.num_systems,
                                                             size=scheme.label_count))
                          for _ in range(config.num_classes)))
    ev = evaluate_policy(space, scheme, policy)
    steady = solve_steady_state(build_generator(space, PolicyRule(policy, scheme)))
    digest.update(ev.pi.tobytes() + ev.volumes.tobytes() + steady.pi.tobytes())
print(json.dumps([lapack.ORIGIN == "fallback", digest.hexdigest()]))
"""

NO_EXTENSION_FILES = """
import importlib.util
find_spec = importlib.util.find_spec
importlib.util.find_spec = lambda name, *args: None if name == "scipy" else find_spec(name, *args)
"""


def run_python(script: str, *args: str) -> list[str]:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_fallback_gives_the_same_bits():
    """Where the extension files are not found, the routines come from
    get_lapack_funcs and get_blas_funcs, and every pi and tagged volume
    keeps its bits."""
    doc = json.dumps(nash_exhaustive_doc())
    direct = json.loads(run_python(SOLVES, doc)[-1])
    fallback = json.loads(run_python(NO_EXTENSION_FILES + SOLVES, doc)[-1])
    assert direct[0] is False and fallback[0] is True
    assert direct[1] == fallback[1]


ORDERED = """
import json
import sys
import numpy as np
if sys.argv[1] == "before":
    import scipy.linalg
import hetassoc.cli
from hetassoc import lapack
import scipy.linalg
from scipy.linalg import get_blas_funcs, get_lapack_funcs
a = np.array([[4.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 4.0]])
banded = np.array([[0.0, 1.0, 1.0], [4.0, 4.0, 4.0], [1.0, 1.0, 0.0]])
x = scipy.linalg.solve_banded((1, 1), banded, np.ones(3))
print(json.dumps([
    get_lapack_funcs("gbsv", dtype=np.float64) is lapack.gbsv,
    get_blas_funcs("gbmv", dtype=np.float64) is lapack.gbmv,
    sys.modules["scipy.linalg._flapack"].dgbsv is lapack.gbsv,
    lapack.ORIGIN != "fallback",
    bool(np.allclose(a @ x, 1.0)),
    bool(np.allclose(scipy.linalg.solve(a, np.ones(3)), x)),
]))
""" + SOLVES


@pytest.mark.parametrize("order", ["before", "after"])
def test_scipy_linalg_imported_before_or_after_shares_the_routines(order):
    """Importing scipy.linalg before hetassoc, or after it, leaves both
    working: scipy.linalg's gbsv and gbmv are the very objects hetassoc
    loaded, and the solves keep their bits either way."""
    doc = json.dumps(nash_exhaustive_doc())
    lines = run_python(ORDERED, order, doc)
    assert json.loads(lines[0]) == [True] * 6
    assert json.loads(lines[-1]) == json.loads(run_python(SOLVES, doc)[-1])
