"""The solve path loads two compiled scipy modules and never scipy.optimize.

Each check runs in a fresh interpreter, because which modules a process has
imported depends on everything imported before.
"""

import json
import os
import subprocess
import sys

import pytest

import nswlp
from nswlp import _scipy_ext, jsonio, make_instance

SRC = os.path.dirname(os.path.dirname(os.path.abspath(nswlp.__file__)))


def run_python(code: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, timeout=120, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_solve_imports_no_scipy_optimize_or_sparse(tmp_path):
    inst = tmp_path / "i.json"
    jsonio.save_instance(str(inst), make_instance(["1/2", "1/2"], [[4, 1, 2], [1, 3, 2]]))
    out = run_python(
        "import json, sys\n"
        "from nswlp import cli\n"
        "code = cli.main(['solve', sys.argv[1], '-o', sys.argv[2], '--report', sys.argv[3]])\n"
        "print(json.dumps([code, sorted(k for k in sys.modules if k.startswith('scipy'))]))\n",
        str(inst), str(tmp_path / "a.json"), str(tmp_path / "r.json"),
    )
    code, loaded = json.loads(out)
    assert code == 0
    assert "scipy.optimize" not in loaded
    assert not [k for k in loaded if k == "scipy.sparse" or k.startswith("scipy.sparse.")]
    assert "scipy.optimize._highspy._core" in loaded
    assert "scipy.optimize._lsap" in loaded


SAME_MODULES = """
import scipy.optimize._highspy._core as core
import scipy.optimize._lsap as lsap
from nswlp import configlp, reference
assert configlp._Highs is core._Highs
assert configlp.HighsModelStatus is core.HighsModelStatus
assert reference.linear_sum_assignment is scipy.optimize.linear_sum_assignment
assert lsap.linear_sum_assignment is reference.linear_sum_assignment
res = scipy.optimize.linprog([1, 1], A_ub=[[-1, -1]], b_ub=[-1], method="highs")
assert res.status == 0, res.message
print("ok")
"""


@pytest.mark.parametrize("first", ["nswlp", "scipy.optimize"])
def test_scipy_optimize_reuses_the_loaded_modules(first):
    other = "scipy.optimize" if first == "nswlp" else "nswlp"
    code = f"import {first}\nimport {other}\nimport scipy.optimize\n" + SAME_MODULES
    assert run_python(code).strip() == "ok"


def test_missing_module_names_the_path():
    with pytest.raises(ImportError, match="scipy.optimize._no_such_module in .*optimize"):
        _scipy_ext.load("_no_such_module")
