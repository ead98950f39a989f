"""reliakit.special loads scipy's ndtr, ndtri and betaincinv without running
scipy.special's __init__, and leaves one scipy.special module behind: a
later import of scipy.special or scipy.stats in the same process gets the
complete package, whose ufuncs are the objects the package calls. Each case
runs in a fresh interpreter, since the import order is what is tested."""

import json
import os
import subprocess
import sys
from pathlib import Path

import reliakit

SRC = Path(reliakit.__file__).resolve().parents[1]

# what a user of scipy.special sees of it
PROBE = """
import json
import scipy.special, scipy.stats
star = {}
exec("from scipy.special import *", star)
print(json.dumps({
    "file": scipy.special.__file__,
    "star": sorted(star),
    "dir": dir(scipy.special),
    "ufuncs_cxx": "_ufuncs_cxx" in vars(scipy.special),
    "f_ppf": float(scipy.stats.f.ppf(0.975, 3, 40)).hex(),
}))
"""

SAME_UFUNCS = """
import reliakit.bootstrap, reliakit.estimators
print(json.dumps([
    scipy.special.ndtr is reliakit.bootstrap.ndtr,
    scipy.special.ndtri is reliakit.bootstrap.ndtri,
    scipy.special.betaincinv is reliakit.estimators.betaincinv,
]))
"""


def run_python(code):
    # under SCIPY_ARRAY_API=1 scipy.special wraps its ufuncs, so the
    # identity checks below would compare a wrapper with the ufunc
    env = {key: value for key, value in os.environ.items() if key != "SCIPY_ARRAY_API"}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_scipy_special_imported_after_the_package_is_complete_and_shares_its_ufuncs():
    (fresh,) = run_python(PROBE)
    seen, same = run_python("import reliakit\n" + PROBE + SAME_UFUNCS)
    assert Path(seen["file"]).name == "__init__.py"
    assert Path(seen["file"]).parent.name == "special"
    assert seen == fresh
    assert seen["ufuncs_cxx"]
    assert same == [True, True, True]


def test_package_imported_after_scipy_special_takes_its_ufuncs():
    same, hooks = run_python(
        "import json, scipy.special\n"
        "import reliakit\n"
        + SAME_UFUNCS
        + 'print(json.dumps(sorted({"__getattr__", "__dir__"} & set(vars(scipy.special)))))\n'
    )
    assert same == [True, True, True]
    assert hooks == []


def test_ufuncs_load_before_the_rest_of_the_package():
    """scipy's ufunc extension starts an OpenBLAS worker that busy-waits for
    about 0.13 s after the load; the rest of the package import is what
    keeps most of that wait out of the first command."""
    (order,) = run_python(
        "import json, sys\n"
        "import reliakit.cli\n"
        "print(json.dumps(list(sys.modules)))\n"
    )
    # sys.modules keeps modules in the order their import finished
    first = min(i for i, name in enumerate(order) if name.startswith("reliakit."))
    assert first > order.index("scipy.special._ufuncs")


def test_failed_completion_drops_the_partial_package_and_a_retry_runs_it_again():
    (state,) = run_python(
        "import json, sys\n"
        "import scipy, reliakit\n"
        "deferred = sys.modules['scipy.special']\n"
        "sys.modules['scipy.special._basic'] = None  # its __init__ now fails\n"
        "try:\n"
        "    deferred.gamma\n"
        "except ImportError as exc:\n"
        "    raised = type(exc).__name__\n"
        "dropped = ['scipy.special' not in sys.modules, 'special' not in vars(scipy)]\n"
        "del sys.modules['scipy.special._basic']\n"
        "import scipy.special\n"
        "retried = [\n"
        "    scipy.special is not deferred,\n"
        "    bool(scipy.special.gamma(5.0) == 24.0),\n"
        "    scipy.special.ndtr is reliakit.bootstrap.ndtr,\n"
        "]\n"
        "print(json.dumps([raised, dropped, retried]))\n"
    )
    assert state == ["ModuleNotFoundError", [True, True], [True, True, True]]
