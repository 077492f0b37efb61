"""Child interpreters that the tests start (the demos, `python -m jrlab.cli`)
import jrlab from this checkout's src/, as the tests themselves do through
the `pythonpath` setting in pyproject.toml.

Every `@given` test draws the same examples in every run: the default
Hypothesis profile is derandomized (its seed comes from the test itself)
and keeps no example database, so a verdict depends only on the commit.
Random exploration is a separate run on Hypothesis' own default profile:
`pytest --hypothesis-profile=default --hypothesis-seed=N`."""

import os
from pathlib import Path

from hypothesis import settings

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
