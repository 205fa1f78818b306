"""Load one compiled module of ``scipy.optimize`` without importing the package.

``import scipy.optimize`` loads every optimizer scipy ships, about half a
second, and numpy with it, while the solver needs one extension module: the
HiGHS binding (``_highspy._core``), which loads no numpy until an array
crosses it.  :func:`load` executes only the named module from scipy's
directory and registers it in ``sys.modules`` under its canonical name, so
a later ``import scipy.optimize`` reuses the same module object; one
imported before is returned as it is.

The module is registered only in ``sys.modules``: no attribute is set on its
parent package, and a later ``import scipy.optimize`` does not set one
either, because it finds the module already loaded.  So ``_core`` is then
no attribute of ``scipy.optimize._highspy``, while ``import
scipy.optimize._highspy._core as m`` and ``scipy.optimize.linprog`` work as
usual.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from types import ModuleType


def load(name: str) -> ModuleType:
    """The module ``scipy.optimize.<name>``, e.g. ``load("_highspy._core")``."""
    full = f"scipy.optimize.{name}"
    if full in sys.modules:
        return sys.modules[full]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        raise ImportError("scipy is not installed", name=full)
    package = name.split(".")[:-1]
    where = os.path.join(scipy.submodule_search_locations[0], "optimize", *package)
    spec = importlib.machinery.PathFinder.find_spec(full, [where])
    if spec is None or spec.loader is None:
        raise ImportError(f"no module {full} in {where}", name=full, path=where)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[full]
        raise
    return module
