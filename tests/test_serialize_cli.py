import json
import subprocess
import sys
from fractions import Fraction as F

import pytest

from jrlab import cli, serialize as ser
from jrlab.chambers import Chamber
from jrlab.cones import ParabolicSubspace, enumerate_parabolic_subspaces
from jrlab.fields import EScalar, InfiniteValuation, PLocalContext
from jrlab.gltilde import InvariantPoint, Triple
from jrlab.hermitian import HermitianForm, HermitianPair

CTX = PLocalContext(3)


def test_scalar_wire_format():
    assert ser.frac_to_str(F(3, 4)) == "3/4"
    assert ser.frac_to_str(F(5)) == "5"
    assert ser.frac_from_str("3/4") == F(3, 4)
    z = EScalar(F(1, 2), F(-3), CTX)
    j = ser.escalar_to_json(z)
    assert j == {"x": "1/2", "y": "-3", "kind": "inert"}
    assert ser.escalar_from_json(j, CTX) == z


def test_triple_and_point_roundtrip():
    X = Triple([[F(0), F(1)], [F(1, 2), F(0)]], [F(1), F(0)], [F(0), F(3)])
    assert ser.triple_from_json(ser.triple_to_json(X)) == X
    a = InvariantPoint((F(1), F(2)), (F(3), F(4)))
    assert ser.point_from_json(ser.point_to_json(a)) == a


def test_form_pair_roundtrip():
    one, zero = CTX.embed(1), CTX.embed(0)
    form = HermitianForm([[one, zero], [zero, CTX.embed(3)]], CTX)
    X = HermitianPair([[CTX.embed(2), zero], [zero, one]],
                      [one, zero], form)
    back = ser.pair_from_json(ser.pair_to_json(X), CTX)
    assert back.A == X.A and back.b == X.b and back.form.gram == form.gram


def test_parabolic_chamber_roundtrip():
    for n in (1, 2):
        for P in enumerate_parabolic_subspaces(n):
            assert ser.parabolic_from_json(ser.parabolic_to_json(P), n) == P
    C = Chamber((3, 1, 2))
    assert ser.chamber_from_json(ser.chamber_to_json(C)) == C


def run_cli(args, inp=None, tmp_path=None):
    files = []
    if inp is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(inp))
        files = [str(path)]
    proc = subprocess.run([sys.executable, "-m", "jrlab.cli"] + args + files,
                          capture_output=True, text=True)
    return proc


def test_cli_invariants(tmp_path):
    proc = run_cli(["invariants"], {"A": [["0", "1"], ["0", "0"]],
                                    "b": ["0", "1"], "c": ["1", "0"]}, tmp_path)
    assert proc.returncode == 0
    rec = json.loads(proc.stdout.splitlines()[0])
    assert rec == {"a": ["0", "0"], "b": ["0", "1"], "stratum": 2,
                   "d": ["1", "0", "-1"]}
    assert "stratum 2" in proc.stdout.splitlines()[-1]


def test_cli_invariants_zero(tmp_path):
    proc = run_cli(["invariants"], {"A": [["0"]], "b": ["0"], "c": ["0"]}, tmp_path)
    rec = json.loads(proc.stdout.splitlines()[0])
    assert rec["a"] == ["0"] and rec["b"] == ["0"] and rec["stratum"] == 0


def test_cli_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json{")
    proc = subprocess.run([sys.executable, "-m", "jrlab.cli", "invariants",
                           str(path)], capture_output=True, text=True)
    assert proc.returncode == 2


def test_cli_jordan_roundtrip(tmp_path):
    triple = {"A": [["4"]], "b": ["2"], "c": ["0"]}
    proc = run_cli(["jordan"], triple, tmp_path)
    assert proc.returncode == 0
    rec = json.loads(proc.stdout.splitlines()[0])
    Xs = ser.triple_from_json(rec["semisimple"])
    Xn = ser.triple_from_json(rec["nilpotent"])
    assert Xs.A == ((F(4),),) and Xn.b == (F(2),)


def test_cli_cayley_pole(tmp_path):
    proc = run_cli(["cayley"], {"Y": [["0", "2"], ["1", "0"]]}, tmp_path)
    assert proc.returncode == 3
    assert "kappa pole" in proc.stderr


@pytest.mark.parametrize("argv", [["fl", "--n", "3"], ["cones", "--n", "4"],
                                  ["fl", "--budget-valuation", "9"]],
                         ids=["fl-n", "cones-n", "fl-valuation"])
def test_cli_budget(argv):
    proc = subprocess.run([sys.executable, "-m", "jrlab.cli"] + argv,
                          capture_output=True, text=True)
    assert proc.returncode == 4 and proc.stderr == "budget exceeded\n"


def test_cli_budget_chambers_rank():
    proc = subprocess.run([sys.executable, "-m", "jrlab.cli", "chambers", "--m", "6"],
                          capture_output=True, text=True)
    assert proc.returncode == 4 and "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [["chambers", "--m", "1"], ["chambers", "--m", "0"],
                                  ["cones", "--n", "-1"],
                                  ["fl", "--n", "1", "--budget-valuation", "-1"],
                                  ["fl", "--n", "2", "--instances", "0"],
                                  ["toy", "--budget-valuation", "-3"],
                                  ["chambers", "--m", "3", "--instances", "0"]])
def test_cli_rejects_small_sizes(argv):
    proc = subprocess.run([sys.executable, "-m", "jrlab.cli"] + argv,
                          capture_output=True, text=True)
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("parse error")


def test_cli_unwritable_out_is_an_internal_error(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "jrlab.cli", "toy", "--out",
                           str(tmp_path / "missing" / "x.json")],
                          capture_output=True, text=True)
    assert proc.returncode == 5 and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("internal error: FileNotFoundError")


@pytest.mark.parametrize("error,code,err", [
    (RuntimeError("boom"), 5, "internal error: RuntimeError: boom\n"),
    (InfiniteValuation("valuation of 0"), 3, "domain error: valuation of 0\n"),
], ids=["internal", "infinite-valuation"])
def test_cli_command_exception_exit_code(error, code, err, monkeypatch, capsys):
    def crash(args):
        raise error
    monkeypatch.setattr(cli, "cmd_toy", crash)
    with pytest.raises(SystemExit) as exc:
        cli.main(["toy"])
    assert exc.value.code == code
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("argv", [["fl", "--n", "0"], ["fl", "--p", "4"], ["fl", "--p", "9"],
                                  ["toy", "--p", "4"], ["cayley", "--p", "9", "in.json"],
                                  ["cones", "--grid", "0"], ["invariants"], ["toy", "x.json"]])
def test_cli_rejects_bad_flags(argv, tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"Y": [["1", "2"], ["3", "1/2"]]}))
    argv = [str(path) if a == "in.json" else a for a in argv]
    proc = subprocess.run([sys.executable, "-m", "jrlab.cli"] + argv,
                          capture_output=True, text=True)
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("parse error")


ONE_J, ZERO_J = {"x": "1", "y": "0"}, {"x": "0", "y": "0"}


@pytest.mark.parametrize("command,inp,code", [
    ("jordan", {"A": [["1/0"]], "b": ["1"], "c": ["1"]}, 2),
    ("invariants", [1, 2], 2),
    ("jordan", [1, 2], 2),
    ("cayley", {"Y": [["1", "2"], ["3"]]}, 2),
    ("cayley", {"Y": [["1", "2"]]}, 2),
    ("invariants", {"A": [[1.5]], "b": ["1"], "c": ["1"]}, 2),
    ("invariants", {"A": [[True]], "b": ["1"], "c": ["1"]}, 2),
    ("invariants", {"A": [], "b": [], "c": []}, 2),
    ("jordan", {"A": [], "b": [], "c": []}, 2),
    ("match", {"Y1": [["1"]], "Y2": [], "form": {}}, 2),
    ("match", {"Y1": [[ONE_J, ZERO_J], [ZERO_J]], "Y2": [[ONE_J, ZERO_J], [ZERO_J, ONE_J]],
               "form": {"gram": [[ONE_J, ZERO_J], [ZERO_J, ONE_J]]}}, 2),
    ("match", {"Y1": [[ONE_J]], "Y2": [[{"x": "1", "y": "0", "kind": "split"}]],
               "form": {"gram": [[ONE_J]]}}, 2),
    ("match", {"Y1": [[ONE_J]], "Y2": [[ONE_J, ZERO_J], [ZERO_J, ONE_J]],
               "form": {"gram": [[ONE_J, ZERO_J], [ZERO_J, ONE_J]]}}, 3),
], ids=["zero-denominator", "list-invariants", "list-jordan", "ragged-cayley",
        "nonsquare-cayley", "float", "bool", "n0-invariants", "n0-jordan", "match-shape",
        "ragged-match", "split-kind-match", "size-mismatch-match"])
def test_cli_rejects_bad_input(command, inp, code, tmp_path):
    proc = run_cli([command], inp, tmp_path)
    assert proc.returncode == code and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("parse error" if code == 2 else "domain error")


FL_ARGV = ["fl", "--n", "1", "--p", "3", "--budget-valuation", "3", "--seed", "5", "--json-only"]


@pytest.mark.parametrize("argvs", [
    [FL_ARGV, FL_ARGV],
    [["--p", "5", "cayley", "in.json"], ["cayley", "--p", "5", "in.json"],
     ["cayley", "in.json", "--p", "5"]],
], ids=["fl-determinism", "cayley-flag-order"])
def test_cli_prints_the_same_bytes(argvs, tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"Y": [["1", "2"], ["3", "1/2"]]}))
    procs = [subprocess.run([sys.executable, "-m", "jrlab.cli"]
                            + [str(path) if a == "in.json" else a for a in argv],
                            capture_output=True, text=True) for argv in argvs]
    assert procs[0].returncode == 0 and procs[0].stdout
    assert all(p.stdout == procs[0].stdout for p in procs)


def test_cli_toy_summary():
    proc = subprocess.run([sys.executable, "-m", "jrlab.cli", "toy", "--p", "5",
                           "--budget-valuation", "4"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip().splitlines()[-1].startswith("PASS")


def test_cli_out_file(tmp_path):
    out = tmp_path / "report.jsonl"
    proc = subprocess.run([sys.executable, "-m", "jrlab.cli", "toy",
                           "--budget-valuation", "2", "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert out.exists() and out.read_text().strip()


def test_cli_match(tmp_path):
    one = CTX.embed(1)
    from jrlab.hermitian import (cayley_gl, cayley_u, extend_form,
                                 standard_cayley_params)
    params = standard_cayley_params(CTX, t=1, s=1)
    formV = HermitianForm([[one]], CTX)
    form_ext = extend_form(formV)
    Y = [[F(1), F(0)], [F(0), F(2)]]
    x1 = cayley_gl(Y, params)
    x2 = cayley_u([[CTX.embed(1), CTX.embed(0)], [CTX.embed(0), CTX.embed(2)]],
                  form_ext, params)
    payload = {
        "Y1": [[ser.escalar_to_json(v) for v in row] for row in x1],
        "Y2": [[ser.escalar_to_json(v) for v in row] for row in x2],
        "form": ser.form_to_json(form_ext),
    }
    proc = run_cli(["match"], payload, tmp_path)
    assert proc.returncode == 0
    rec = json.loads(proc.stdout.splitlines()[0])
    assert rec["matched"] is True
