"""The package imports and runs with numpy alone; SciPy is a test extra.

The subprocess shadows ``scipy`` (``sys.modules["scipy"] = None`` makes every
``import scipy...`` raise ``ImportError``), imports the CLI, runs ``fig7``
(numpy binomial tails) and one ``wear_swap`` leveling point (the integer
gathers of permutation-form span composition), and prints the payloads.
They must equal the same runs in this process, where SciPy may be installed.

A second subprocess pins the import surface: ``import repro.cli`` loads no
SciPy module.
"""

import json
import os
import subprocess
import sys

import repro
from repro.orchestration.runner import run_experiment
from repro.utils.serialization import canonical_json

LEVELING_PARAMS = {"network": "custom_mnist", "leveling": "wear_swap",
                   "weight_memory_kb": 8, "fifo_depth_tiles": 4,
                   "num_inferences": 4, "leveling_period": 2}

NUMPY_ONLY_SUBPROCESS = """
import json, sys
sys.modules["scipy"] = None
import repro.cli
from repro.orchestration.runner import run_experiment
from repro.utils.serialization import canonical_json
fig7 = run_experiment("fig7").payload
leveling = run_experiment("leveling", json.loads(sys.argv[1])).payload
assert not any(name.startswith("scipy.") for name in sys.modules)
print(json.dumps({"fig7": canonical_json(fig7), "leveling": canonical_json(leveling)}))
"""


def _run_python(*args):
    """Run ``python *args`` in a fresh interpreter that imports this ``repro``."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, check=True)


def test_numpy_only_run_matches_in_process_run():
    remote = _run_python("-c", NUMPY_ONLY_SUBPROCESS, json.dumps(LEVELING_PARAMS))
    numpy_only = json.loads(remote.stdout)
    assert numpy_only["leveling"] == canonical_json(
        run_experiment("leveling", LEVELING_PARAMS).payload)
    assert numpy_only["fig7"] == canonical_json(run_experiment("fig7").payload)


def test_cli_import_loads_no_scipy():
    remote = _run_python(
        "-c", "import sys, repro.cli; print(sorted(name for name in sys.modules "
              "if name == 'scipy' or name.startswith('scipy.')))")
    assert remote.stdout.strip() == "[]"
