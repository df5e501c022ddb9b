"""Every pinned output of the toolkit, stated once.

Each entry names an output, the command that makes it and the first 16 hex
digits of the output's sha256.  The command runs in an empty working
directory.  A name ending in ``.stdout`` pins what the command prints; any
other name is a file the command writes into that directory.  An entry with a
config has it written to ``pin.cfg`` there first, and its command reads it.

``tests/test_acceptance.py`` runs every entry through ``cli_dispatch``, and CI
runs them through the installed console script, reading this file as

    python tests/pins.py               the names, one a line
    python tests/pins.py NAME          NAME's sha256 prefix
    python tests/pins.py NAME command  NAME's command, one argument a line,
                                       after writing its config to pin.cfg

A pin moves only when its output is meant to change.  Re-issuing one means
editing its entry here and saying why in CHANGES.md: no other test or CI file
holds a pin value, and ``tests/test_package.py`` checks that.
"""

import hashlib
import sys
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Pin:
    argv: tuple[str, ...]
    sha256: str
    config: Optional[str] = None


# fig4's and fig5's gates never open at epsilon = 0.1, so both write the one
# free run's bytes.
_FREE_RUN_CSV = "9b151002c085c517"
# The defaults but for mode, K and epsilon: dt = 0.1 over [0, 200], t_on = 40.
_CAPTURED_ARGV = ("simulate", "--config", "pin.cfg", "--out-csv", "captured.csv",
                  "--out-report", "captured.txt")
_CAPTURED_CONFIG = "mode = euler\nK = 1.5\nepsilon = 5\n"

PINS = {
    "fig4_trajectory.csv": Pin(("reproduce", "all"), _FREE_RUN_CSV),
    "fig5_trajectory.csv": Pin(("reproduce", "all"), _FREE_RUN_CSV),
    "fig4_report.txt": Pin(("reproduce", "all"), "973cd22ee1406c49"),
    "fig5_report.txt": Pin(("reproduce", "all"), "118b7cad984915a6"),
    # the acceptance sweep
    "sweep.csv": Pin(
        ("sweep", "--K=-0.9,-0.6,-0.3,-0.1", "--epsilon", "0.1,0.5",
         "--modes", "literal,euler", "--out", "sweep.csv"),
        "1fb2ebabedd06794",
    ),
    # four literal cells fail, at steps 550-639
    "diverging_sweep.csv": Pin(
        ("sweep", "--config", "pin.cfg", "--K=-1.4,-1.35,-0.95,-0.55",
         "--epsilon", "0.9,5", "--modes", "literal,euler", "--out", "diverging_sweep.csv"),
        "7749bf42d2cff451",
        config="t_end = 100\ndt = 0.1\n",
    ),
    # 20001 rows, the gate open on 41% of them
    "gated_long.csv": Pin(
        ("simulate", "--config", "pin.cfg",
         "--out-csv", "gated_long.csv", "--out-report", "gated_long.txt"),
        "d8099540abb858a0",
        config="t_end = 200\ndt = 0.01\nmode = euler\nK = -0.3\nepsilon = 5\n",
    ),
    "gain-check.stdout": Pin(("gain-check",), "cbc12bd4b4859309"),
    # the controller captures the run: the gate opens at t = 40.1, on 1557
    # samples, and the tail settles at positive-x
    "captured.csv": Pin(_CAPTURED_ARGV, "81464ab53a2c5079", config=_CAPTURED_CONFIG),
    "captured.txt": Pin(_CAPTURED_ARGV, "73c51f30686d27c3", config=_CAPTURED_CONFIG),
}


def digest(data: bytes) -> str:
    """The sha256 prefix a pin compares with."""
    return hashlib.sha256(data).hexdigest()[:16]


def command(name: str) -> list[str]:
    """NAME's command, after writing its config, if any, to the working directory."""
    pin = PINS[name]
    if pin.config is not None:
        with open("pin.cfg", "w", encoding="utf-8") as fh:
            fh.write(pin.config)
    return list(pin.argv)


if __name__ == "__main__":
    if len(sys.argv) == 1:
        print("\n".join(PINS))
    elif len(sys.argv) == 2:
        print(PINS[sys.argv[1]].sha256)
    elif sys.argv[2:] == ["command"]:
        print("\n".join(command(sys.argv[1])))
    else:
        sys.exit(f"usage: {sys.argv[0]} [NAME [command]]")
