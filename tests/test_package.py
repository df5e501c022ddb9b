import json
import os
import subprocess
import sys
from pathlib import Path

import rabinovich


def test_public_names_resolve():
    for name in rabinovich.__all__:
        assert hasattr(rabinovich, name), name
    assert len(set(rabinovich.__all__)) == len(rabinovich.__all__)
    removed = ("integrate", "FieldFn", "ReportSettings", "vector_field",
               "rk4_step", "check_state", "activation_gate", "control_term")
    for module in (rabinovich, rabinovich.integrator, rabinovich.control):
        for name in removed:
            assert not hasattr(module, name), (module.__name__, name)


# Runs the CLI command after command in a fresh interpreter and records, after
# each, whether the module of a trajectory row's text has been imported.
LOADS = """
import json, sys
import rabinovich
from rabinovich.cli import cli_dispatch

loaded = {"import": "rabinovich._decimals" in sys.modules}
for name, argv in [
    ("sweep", ["sweep", "--config", "short.cfg", "--K=-0.6,-0.3", "--epsilon", "0.1,5"]),
    ("gain-check", ["gain-check"]),
    ("equilibria", ["equilibria"]),
    ("simulate", ["simulate", "--config", "short.cfg"]),
]:
    assert cli_dispatch(argv) == 0, name
    loaded[name] = "rabinovich._decimals" in sys.modules
with open("loaded.json", "w") as fh:
    json.dump(loaded, fh)
"""


def test_row_text_module_is_not_loaded_until_a_trajectory_is_written(tmp_path):
    (tmp_path / "short.cfg").write_text("t_end = 10\ntail = 5\nt_on = 2\n")
    src = str(Path(rabinovich.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", LOADS], cwd=tmp_path, env=env, check=True,
                   capture_output=True)
    assert json.loads((tmp_path / "loaded.json").read_text()) == {
        "import": False, "sweep": False, "gain-check": False, "equilibria": False,
        "simulate": True,
    }
