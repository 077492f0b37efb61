"""Print the executable lines of each `src/jrlab` module that a pytest run
never reaches, so that dead code can be reported as a number.

Run from the repository root, with any pytest arguments:

    python3 tools/unrun_lines.py            # the whole suite
    python3 tools/unrun_lines.py tests/test_cones.py -x

The tests run in this interpreter under `sys.settrace`.  The interpreters
they start (the demos and the `python -m jrlab.cli` tests) are traced too:
a `sitecustomize` placed first on their PYTHONPATH starts the same tracer
and writes its hits to a temporary directory when the child exits.  A
child that is killed, or that ends through `os._exit`, leaves no hits, and
a `sitecustomize` of the environment is shadowed in the children.

The tracer slows the tests several times over, so the tests that assert a
wall-clock budget may fail; the count does not depend on it.  pytest gets
`-rf` ahead of the given arguments, so its summary names every failed
test.  The exit code is pytest's.  This is a tool, not part of Tier-1.
"""

from __future__ import annotations

import atexit
import dis
import json
import os
import sys
import tempfile
import threading
import types
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "jrlab")
HITS_DIR = "UNRUN_LINES_HITS"       # environment: where children write hits

_hits = defaultdict(set)
_ours = {}                           # co_filename -> absolute path or None


def _path(co_filename):
    if co_filename not in _ours:
        path = os.path.abspath(co_filename)
        _ours[co_filename] = path if path.startswith(SRC + os.sep) else None
    return _ours[co_filename]


def _local(frame, event, arg):
    if event == "line":
        _hits[_path(frame.f_code.co_filename)].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    path = _path(frame.f_code.co_filename)
    if path is None:
        return None                  # no line events outside src/jrlab
    _hits[path].add(frame.f_lineno)
    return _local


def start():
    threading.settrace(_global)
    sys.settrace(_global)


def start_child():
    """The tracer of a child interpreter: its hits go to one file in the
    directory that the parent named, when the child exits."""
    out = os.environ[HITS_DIR]

    def dump():
        sys.settrace(None)
        fd, name = tempfile.mkstemp(suffix=".json", dir=out)
        with os.fdopen(fd, "w") as fh:
            json.dump({p: sorted(ls) for p, ls in _hits.items() if p}, fh)

    atexit.register(dump)
    start()


def executable_lines(path):
    """The line numbers at which the compiled module has an instruction
    start, in every code object nested in it."""
    with open(path) as fh:
        code = compile(fh.read(), path, "exec")
    lines, stack = set(), [code]
    while stack:
        co = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(co) if line)
        stack.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv):
    with tempfile.TemporaryDirectory() as tmp:
        hits_dir = os.path.join(tmp, "hits")
        os.mkdir(hits_dir)
        with open(os.path.join(tmp, "sitecustomize.py"), "w") as fh:
            fh.write(f"import sys\nsys.path.insert(0, {os.path.dirname(__file__)!r})\n"
                     "import unrun_lines\nunrun_lines.start_child()\n")
        os.environ[HITS_DIR] = hits_dir
        os.environ["PYTHONPATH"] = os.pathsep.join(
            [tmp, os.path.join(ROOT, "src")]
            + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
        sys.path.insert(0, os.path.join(ROOT, "src"))

        import pytest
        start()
        try:
            code = pytest.main(["-rf", *argv])
        finally:
            sys.settrace(None)
            threading.settrace(None)
        for name in os.listdir(hits_dir):
            with open(os.path.join(hits_dir, name)) as fh:
                for path, lines in json.load(fh).items():
                    _hits[path].update(lines)

    total = unrun = 0
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        lines = executable_lines(path)
        missed = sorted(lines - _hits.get(path, set()))
        total += len(lines)
        unrun += len(missed)
        print(f"{name}: {len(missed)} of {len(lines)} executable lines never ran"
              + (": " + ", ".join(map(str, missed)) if missed else ""))
    print(f"src/jrlab: {unrun} of {total} executable lines never ran")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
