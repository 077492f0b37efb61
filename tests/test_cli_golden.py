"""Fixed-seed command-line output, pinned byte for byte.

Each case runs one `jrlab` command in process through `cli.main` and pins
its exit code and the SHA-256 of its stdout, with every "wall_time" value
blanked.  A change that claims to keep the output must leave every pin as
it is.  After an intended output change, regenerate the pins with

    PYTHONPATH=src python -m tests.test_cli_golden

from the repository root, and paste the printed GOLDEN table over the one
below.
"""

import contextlib
import hashlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest

from jrlab import cli, serialize as ser
from jrlab.fields import PLocalContext
from jrlab.hermitian import (HermitianForm, cayley_gl, cayley_u, extend_form,
                             standard_cayley_params)


def _match_payload():
    """Two group elements with matching invariants (as in test_cli_match)."""
    ctx = PLocalContext(3)
    params = standard_cayley_params(ctx, t=1, s=1)
    form = extend_form(HermitianForm([[ctx.embed(1)]], ctx))
    x1 = cayley_gl([[1, 0], [0, 2]], params)
    x2 = cayley_u([[ctx.embed(1), ctx.embed(0)], [ctx.embed(0), ctx.embed(2)]],
                  form, params)
    return {"Y1": [[ser.escalar_to_json(v) for v in row] for row in x1],
            "Y2": [[ser.escalar_to_json(v) for v in row] for row in x2],
            "form": ser.form_to_json(form)}


# id -> (argv, JSON input or None); the input file is passed as the last argument
CASES = {
    "cayley": (["cayley"], {"Y": [["1", "2"], ["3", "1/2"]]}),
    "cayley-p5": (["cayley", "--p", "5"],
                  {"Y": [["0", "1", "0"], ["0", "0", "1"], ["2", "-1", "1/3"]]}),
    "cayley-pole": (["cayley"], {"Y": [["0", "2"], ["1", "0"]]}),
    "invariants": (["invariants"],
                   {"A": [["0", "1"], ["0", "0"]], "b": ["0", "1"], "c": ["1", "0"]}),
    "jordan": (["jordan"], {"A": [["4", "1"], ["0", "4"]], "b": ["2", "1"], "c": ["0", "1"]}),
    "match": (["match"], _match_payload),
    "fl-n1": (["fl", "--n", "1", "--budget-valuation", "3", "--seed", "5"], None),
    "fl-n2": (["fl", "--n", "2", "--budget-valuation", "2", "--instances", "4",
               "--seed", "1"], None),
    "toy": (["toy", "--p", "5", "--budget-valuation", "4"], None),
    "chambers-m3": (["chambers", "--m", "3", "--instances", "20", "--seed", "1"], None),
    "cones-n2": (["cones", "--n", "2", "--grid", "200", "--instances", "16",
                  "--seed", "1"], None),
    # a known kernel-expansion failure at n = 3, pinned with its exit code 1
    "cones-n3": (["cones", "--n", "3", "--grid", "200", "--instances", "16",
                  "--seed", "2"], None),
}

# id -> (exit code, SHA-256 of stdout with the wall times blanked)
GOLDEN = {
    'cayley': (0, '2f050b6f690cf41333797da4e389998b5a1b32e6e5e13216b7935cebaeeafbf1'),
    'cayley-p5': (0, 'caa3f0825037b673383f25ed124423be36f1c39693c14c5c547c88aaec5c7646'),
    'cayley-pole': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'invariants': (0, '4a46d5baee096d13bb6d0ed55fc903059e72e32b1222dfb01e3a08c7da3ea56e'),
    'jordan': (0, '8f6e8ecc343564c3cb3299fe2b85d96518f8f1a6ed051047a825b7da13af2a4a'),
    'match': (0, '4d78e764ef6cd4a6b87e1f699bb23f375418120debd50e0422398042c7978546'),
    'fl-n1': (0, '403da1bdb98206e86a0af3e98fdea07b6bd6fd1f4579d774612036025f141455'),
    'fl-n2': (0, 'a1880d00f20dc25bc3f470e6c716d18c97c4bfd4c5d1d7c94c9742224efcd7a5'),
    'toy': (0, 'f27c91c0df74e4980221cf302542eb423aa27d350b85b756cbf852ffb8da9ef8'),
    'chambers-m3': (0, 'dfa1a1187ad46bd1be645d985718c47e2e622d756a0c3007ea490ffe1695d411'),
    'cones-n2': (0, '0219af4d9a8f9dc2862302974f2d7f392c31f449472ba6688b2d9b3055a01911'),
    'cones-n3': (1, '86eaf94a649ed58f43d334e282f39663b8e63cddb4083f6ac20d6ca889bebd8f'),
}


def run_case(name, workdir):
    argv, inp = CASES[name]
    argv = list(argv)
    if inp is not None:
        path = Path(workdir) / f"{name}.json"
        path.write_text(json.dumps(inp() if callable(inp) else inp))
        argv.append(str(path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
    text = re.sub(r'"wall_time": [-0-9.e]+', '"wall_time": _', out.getvalue())
    return exc.value.code, hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", list(CASES))
def test_cli_output_is_pinned(name, tmp_path):
    assert run_case(name, tmp_path) == GOLDEN[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        print("GOLDEN = {")
        for name in CASES:
            print(f"    {name!r}: {run_case(name, d)!r},")
        print("}")
