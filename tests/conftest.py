"""Run the suite from a plain checkout: ``src`` goes first on ``sys.path``
for this process and on ``PYTHONPATH`` for the CLI subprocesses the tests
start, so ``python -m pytest`` needs no install and no environment."""

import os
import pathlib
import sys

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")

if SRC not in sys.path:
    sys.path.insert(0, SRC)
_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *_paths])
