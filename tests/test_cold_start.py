"""A process that never talks to a live endpoint never loads the HTTP stack.

The check runs in a fresh interpreter: the pytest process itself has
``requests`` loaded as soon as a test that uses it is collected.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import daedisc

SRC = Path(daedisc.__file__).resolve().parent.parent

COLD_RUN = r"""
import json
import sys
from pathlib import Path

HTTP = ("requests", "urllib3")


def loaded():
    return sorted(name for name in HTTP if name in sys.modules)


import daedisc
import daedisc.cli

seen = {"import": loaded()}
root = Path(sys.argv[1])
kick = {"kind": "state_kick", "magnitude": 1.0, "offsets": {"delta": 0.4, "omega": 0.002}}
scenario = {"total_time": 2.0, "dt": 0.01, "noise_sigma": 0.0, "disturbance": kick}
(root / "scen.json").write_text(json.dumps({"train": dict(scenario, seed=1),
                                            "test": dict(scenario, seed=2)}))
swing = ("ddelta/dt = p0*(omega - 1)\n"
         "domega/dt = (p1 - p2*sin(delta) - p3*(omega - 1))/p4")
(root / "script.json").write_text(json.dumps([[f"```equations\n{swing}\n```"]]))
(root / "run.json").write_text(json.dumps({
    "benchmark": "swing2", "islands": 1, "n_b": 1,
    "de_max_iterations": 1, "ae_max_iterations": 1,
    "fit": {"steps": 20, "restarts": 1},
    "generator": {"kind": "mock", "script": "script.json"}}))
data = str(root / "data")
for args in (
        ["gen-data", "--model", "swing2", "--scenario", str(root / "scen.json"), "--out", data],
        ["discover", "--config", str(root / "run.json"), "--data", data,
         "--out", str(root / "run")],
        ["baseline", "--variant", "accurate", "--data", data, "--out", str(root / "sindy")],
        ["evaluate", "--model", str(root / "run" / "model.json"), "--data", data,
         "--out", str(root / "report.json")]):
    daedisc.cli.main(args, standalone_mode=False)
    seen[args[0]] = loaded()
print(json.dumps(seen))
"""


def test_offline_commands_never_import_the_http_client(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", COLD_RUN, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert list(seen) == ["import", "gen-data", "discover", "baseline", "evaluate"]
    assert all(modules == [] for modules in seen.values()), seen
    assert (tmp_path / "report.json").exists()
