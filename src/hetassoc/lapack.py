"""The two banded routines the chain engine calls: LAPACK's dgbsv (banded
LU solve) and BLAS's dgbmv (banded matrix-vector product), as scipy wraps
them.

They live in scipy's f2py extensions scipy/linalg/_flapack and
scipy/linalg/_fblas. Reaching them through scipy.linalg runs scipy's
package __init__s, which cost several times what a short command computes,
so this module loads the two extension files themselves with
ExtensionFileLoader, under scipy's own module names. A later
`import scipy.linalg` then finds them in sys.modules and reuses the same
module objects, and the functions are scipy's own, so every bit is
scipy's. Where either file is not where scipy keeps it, the functions come
from scipy.linalg's get_lapack_funcs and get_blas_funcs instead.

ORIGIN says where they came from: the two extension paths, or "fallback".
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys


def _extension_path(name: str) -> str | None:
    """Path of scipy's linalg extension `name` (such as "_flapack") for
    this interpreter, or None if it is not there."""
    spec = importlib.util.find_spec("scipy")
    for root in (spec and spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", name + suffix)
            if os.path.isfile(path):
                return path
    return None


def _load(name: str, path: str):
    """The module scipy.linalg.<name>, loaded from path unless it is already
    in sys.modules."""
    fullname = f"scipy.linalg.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        loader = importlib.machinery.ExtensionFileLoader(fullname, path)
        spec = importlib.util.spec_from_file_location(fullname, path, loader=loader)
        module = importlib.util.module_from_spec(spec)
        loader.exec_module(module)
        sys.modules[fullname] = module
    return module


def _routines():
    paths = _extension_path("_flapack"), _extension_path("_fblas")
    if None not in paths:
        return _load("_flapack", paths[0]).dgbsv, _load("_fblas", paths[1]).dgbmv, paths
    import numpy as np
    from scipy.linalg import get_blas_funcs, get_lapack_funcs
    return (get_lapack_funcs("gbsv", dtype=np.float64),
            get_blas_funcs("gbmv", dtype=np.float64), "fallback")


gbsv, gbmv, ORIGIN = _routines()
