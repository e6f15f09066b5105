"""Put src/ on PYTHONPATH too, so the tests that run `python -m ratsurf.cli`
in a subprocess import the same package as the test process does."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
