"""The package is imported from this checkout's ``src`` (pyproject's
``pythonpath``); the CLI processes some tests start get it on PYTHONPATH."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
