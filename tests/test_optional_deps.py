"""SciPy is optional: the package imports and runs with numpy alone.

The subprocess shadows ``scipy`` (``sys.modules["scipy"] = None`` makes every
``import scipy...`` raise ``ImportError``), imports the CLI, runs ``fig7``
(numpy binomial tails) and one ``wear_swap`` leveling point (the numpy
gather fallback of span composition), and prints the payloads.  They must
equal the same runs in this process, where SciPy may be installed.
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
from repro.core import span_compose
from repro.orchestration.runner import run_experiment
from repro.utils.serialization import canonical_json
assert span_compose._CSR_MATVECS is None
fig7 = run_experiment("fig7").payload
leveling = run_experiment("leveling", json.loads(sys.argv[1])).payload
assert not any(name.startswith("scipy.") for name in sys.modules)
print(json.dumps({"fig7": canonical_json(fig7), "leveling": canonical_json(leveling)}))
"""


def test_numpy_only_run_matches_in_process_run():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    remote = subprocess.run(
        [sys.executable, "-c", NUMPY_ONLY_SUBPROCESS, json.dumps(LEVELING_PARAMS)],
        capture_output=True, text=True, env=env, check=True)
    numpy_only = json.loads(remote.stdout)
    assert numpy_only["leveling"] == canonical_json(
        run_experiment("leveling", LEVELING_PARAMS).payload)
    assert numpy_only["fig7"] == canonical_json(run_experiment("fig7").payload)
