"""Child interpreters that the tests start (the demos, `python -m jrlab.cli`)
import jrlab from this checkout's src/, as the tests themselves do through
the `pythonpath` setting in pyproject.toml."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
