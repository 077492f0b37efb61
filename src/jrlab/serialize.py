"""JSON wire formats for the exact types.

Scalars travel as "num/den" strings; extension scalars as {"x","y","kind"},
where "kind" is always "inert" (the one extension the lab computes in);
triples as {"A","b","c"}; invariant points as {"a","b"}; hermitian data as
{"gram"}/{"gram","A","b"}; parabolic subspaces as {"flag","i","j"};
chambers as {"perm"}.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import INERT, EScalar, PLocalContext
from .gltilde import InvariantPoint, Triple
from .hermitian import HermitianForm, HermitianPair
from .cones import ParabolicSubspace
from .chambers import Chamber


def frac_to_str(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def frac_from_str(s) -> Fraction:
    """An exact scalar from a "num/den" string or an integer; floats (and
    booleans) are refused, as they carry no exact value."""
    if isinstance(s, (float, bool)):
        raise ValueError(f"scalar {s!r} is not exact: write it as a \"num/den\" string")
    return Fraction(s)


def escalar_to_json(z: EScalar) -> dict:
    return {"x": frac_to_str(z.x), "y": frac_to_str(z.y), "kind": INERT}


def escalar_from_json(obj, ctx: PLocalContext) -> EScalar:
    if obj.get("kind", INERT) != INERT:
        raise ValueError("extension kind mismatch")
    return EScalar(frac_from_str(obj["x"]), frac_from_str(obj["y"]), ctx)


def triple_to_json(X: Triple) -> dict:
    return {"A": [[frac_to_str(x) for x in row] for row in X.A],
            "b": [frac_to_str(x) for x in X.b],
            "c": [frac_to_str(x) for x in X.c]}


def triple_from_json(obj) -> Triple:
    if not obj["b"]:
        raise ValueError("a triple needs dimension n >= 1")
    return Triple([[frac_from_str(x) for x in row] for row in obj["A"]],
                  [frac_from_str(x) for x in obj["b"]],
                  [frac_from_str(x) for x in obj["c"]])


def square_from_json(rows, scalar=frac_from_str) -> list:
    """A non-empty square matrix of scalars read by scalar(x)."""
    M = [[scalar(x) for x in row] for row in rows]
    if not M or any(len(row) != len(M) for row in M):
        raise ValueError("matrix must be square and non-empty")
    return M


def point_to_json(a: InvariantPoint) -> dict:
    return {"a": [frac_to_str(x) for x in a.a],
            "b": [frac_to_str(x) for x in a.b]}


def point_from_json(obj) -> InvariantPoint:
    return InvariantPoint(tuple(frac_from_str(x) for x in obj["a"]),
                          tuple(frac_from_str(x) for x in obj["b"]))


def form_to_json(form: HermitianForm) -> dict:
    return {"gram": [[escalar_to_json(x) for x in row] for row in form.gram]}


def form_from_json(obj, ctx: PLocalContext) -> HermitianForm:
    return HermitianForm([[escalar_from_json(x, ctx) for x in row]
                          for row in obj["gram"]], ctx)


def pair_to_json(X: HermitianPair) -> dict:
    out = form_to_json(X.form)
    out["A"] = [[escalar_to_json(x) for x in row] for row in X.A]
    out["b"] = [escalar_to_json(x) for x in X.b]
    return out


def pair_from_json(obj, ctx: PLocalContext) -> HermitianPair:
    form = form_from_json(obj, ctx)
    return HermitianPair([[escalar_from_json(x, ctx) for x in row] for row in obj["A"]],
                         [escalar_from_json(x, ctx) for x in obj["b"]], form)


def parabolic_to_json(P: ParabolicSubspace) -> dict:
    ws, i, j = P.vflag_ij()
    return {"flag": [sorted(w) for w in ws[1:]], "i": i, "j": j}


def parabolic_from_json(obj, n: int) -> ParabolicSubspace:
    ws = [frozenset()] + [frozenset(w) for w in obj["flag"]]
    return ParabolicSubspace.from_vflag(ws, obj["i"], obj["j"], n)


def chamber_to_json(C: Chamber) -> dict:
    return {"perm": list(C.perm)}


def chamber_from_json(obj) -> Chamber:
    return Chamber(tuple(obj["perm"]))
