import json
import os
import subprocess
import sys
from pathlib import Path

import rabinovich
from pins import PINS


def test_public_names_resolve():
    for name in rabinovich.__all__:
        assert hasattr(rabinovich, name), name
    assert len(set(rabinovich.__all__)) == len(rabinovich.__all__)
    removed = ("integrate", "FieldFn", "ReportSettings", "vector_field",
               "rk4_step", "check_state", "activation_gate", "control_term",
               "SINGULAR_DET_TOL", "closed_loop_check", "StabilityVerdict", "gate_samples",
               "eigen3", "GainInterval")
    for module in (rabinovich, rabinovich.integrator, rabinovich.control):
        for name in removed:
            assert not hasattr(module, name), (module.__name__, name)


# Runs the CLI command after command in a fresh interpreter and records, after
# each, whether the module of a trajectory row's text has been imported, and
# after the import whether csv has been.
LOADS = """
import json, sys
import rabinovich
from rabinovich.cli import cli_dispatch

loaded = {"import": "rabinovich._decimals" in sys.modules, "csv": "csv" in sys.modules}
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
        "import": False, "csv": False, "sweep": False, "gain-check": False, "equilibria": False,
        "simulate": True,
    }


def test_pin_values_are_written_only_in_the_pin_table():
    # a re-issued pin then leaves no stale copy behind in a test or in CI
    root = Path(__file__).resolve().parents[1]
    table = (root / "tests" / "pins.py").read_text(encoding="utf-8")
    values = {pin.sha256 for pin in PINS.values()}
    assert all(table.count(value) == 1 for value in values)
    others = [path for path in [*(root / "tests").glob("*.py"),
                                *(root / ".github" / "workflows").glob("*.yml")]
              if path.name != "pins.py"]
    copies = [(path.name, value) for path in others for value in values
              if value in path.read_text(encoding="utf-8")]
    assert copies == []
