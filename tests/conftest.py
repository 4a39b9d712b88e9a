"""Run the suite from a plain checkout: ``src`` goes first on ``sys.path``
for this process and on ``PYTHONPATH`` for the CLI subprocesses the tests
start, so ``python -m pytest`` needs no install and no environment.  The
tests directory goes on ``sys.path`` too, so the test modules import their
shared reference operators (``oracles``) under any pytest import mode."""

import os
import pathlib
import sys

TESTS = str(pathlib.Path(__file__).resolve().parent)
SRC = str(pathlib.Path(TESTS).parent / "src")

for path in (TESTS, SRC):
    if path not in sys.path:
        sys.path.insert(0, path)
_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *_paths])
