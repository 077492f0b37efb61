"""Golden outputs of the p-adic layer and of the invariant theory on both
sides, at fixed inputs and seeds.

Every value is reduced to a canonical string (rationals as "num/den",
extension scalars as "(x,y)", sequences as "[...]", exceptions as
"raises TypeName") and pinned, so any change in which lattices come back,
in their order, in the strata, moment determinants, Jordan parts, group
moments, sign factors or orbit representatives shows up here.  Long strings
are pinned by their SHA-256 digest.
"""

import hashlib
import random
from fractions import Fraction as F

import pytest

from jrlab import linalg as la
from jrlab.fields import EScalar, PLocalContext
from jrlab.gltilde import (InvariantPoint, Triple, act, d_r, direct_sum, jordan,
                           stratum)
from jrlab.hermitian import (HermitianForm, HermitianPair, cayley_gl, cayley_u,
                             eta_tilde_end, extend_form, group_moments,
                             hankel_pair_for_point, matched_endomorphism_pair,
                             omega_factor, orbit_inventory, random_unitary,
                             standard_cayley_params, u_d_r, u_jordan, u_stratum,
                             unitary_act)
from jrlab.orbital import (admissible_lattices_gl, gl_representative_of_point,
                           selfdual_admissible_lattices)
from jrlab.suites import fl_check
from jrlab.poly import Polynomial

CTX = PLocalContext(3)
ZERO, ONE = CTX.embed(0), CTX.embed(1)


def canon(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, int):
        return str(x)
    if isinstance(x, F):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, EScalar):
        return f"({canon(x.x)},{canon(x.y)})"
    if isinstance(x, Triple):
        return f"T{canon([x.A, x.b, x.c])}"
    if isinstance(x, HermitianPair):
        return f"H{canon([x.A, x.b, x.form.gram])}"
    if isinstance(x, dict):
        return "{" + ",".join(f"{canon(k)}:{canon(v)}" for k, v in sorted(x.items())) + "}"
    if hasattr(x, "basis"):                              # a Lattice
        return f"L{canon(x.basis)}"
    return "[" + ",".join(canon(v) for v in x) + "]"


def pin(fn) -> str:
    try:
        s = canon(fn())
    except Exception as e:                               # noqa: BLE001
        s = f"raises {type(e).__name__}"
    return s if len(s) <= 160 else "sha256:" + hashlib.sha256(s.encode()).hexdigest()


def _points(n, budget, **kw):
    rep = fl_check(n, CTX, budget, **kw)
    return [InvariantPoint([F(x) for x in e["a"]["a"]], [F(x) for x in e["a"]["b"]])
            for e in rep["results"]]


def _lattice_outputs(points):
    gl = [pin(lambda: admissible_lattices_gl(gl_representative_of_point(a), CTX))
          for a in points]
    u = [pin(lambda: selfdual_admissible_lattices(hankel_pair_for_point(a, CTX), CTX))
         for a in points]
    return {"points": len(points), "gl": pin(lambda: gl), "u": pin(lambda: u)}


def _triples():
    """One n = 3 triple per stratum 0..3: a regular block on the plus part,
    a block with zero vector and covector on the minus part (non-semisimple
    where it has room), moved out of standard position."""
    g = [[F(1), F(2), F(0)], [F(0), F(1), F(-1)], [F(1), F(0), F(1)]]
    nil2 = Triple([[F(2), F(1)], [F(0), F(2)]], [F(0)] * 2, [F(0)] * 2)
    line = Triple([[F(-1)]], [F(0)], [F(0)])
    plus = {1: Triple([[F(3)]], [F(1)], [F(2)]),
            2: Triple([[F(0), F(-2)], [F(1), F(1)]], [F(1), F(0)], [F(1), F(1)]),
            3: Triple([[F(0), F(0), F(1)], [F(1), F(0), F(-1)], [F(0), F(1), F(2)]],
                      [F(1), F(0), F(0)], [F(1), F(-1), F(2)])}
    blocks = {0: [nil2, line], 1: [plus[1], nil2], 2: [plus[2], line], 3: [plus[3]]}
    return {r: act(g, direct_sum(parts)) for r, parts in blocks.items()}


def _pairs():
    """One n = 3 hermitian pair per stratum 0..3, built the same way and
    moved by a seeded unitary."""
    rng = random.Random(5)
    hyp = HermitianForm([[ZERO, ONE], [ONE, ZERO]], CTX)
    nil2 = HermitianPair([[CTX.embed(2), ONE], [ZERO, CTX.embed(2)]], [ZERO] * 2, hyp)
    line = HermitianPair([[CTX.embed(-1)]], [ZERO], HermitianForm([[CTX.embed(3)]], CTX))
    plus = {r: hankel_pair_for_point(a, CTX) for r, a in
            ((1, InvariantPoint((F(-3),), (F(2),))),
             (2, InvariantPoint((F(-1), F(2)), (F(1), F(1)))),
             (3, InvariantPoint((F(1), F(0), F(-2)), (F(1), F(-1), F(3)))))}
    blocks = {0: [nil2, line], 1: [plus[1], nil2], 2: [plus[2], line], 3: [plus[3]]}
    out = {}
    for r, parts in blocks.items():
        form = HermitianForm(la.block_diag([p.form.gram for p in parts], ZERO), CTX)
        X = HermitianPair(la.block_diag([p.A for p in parts], ZERO),
                          [x for p in parts for x in p.b], form)
        out[r] = unitary_act(random_unitary(form, rng), X)
    return out


def _group_side():
    params = standard_cayley_params(CTX, t=1, s=1)
    out = {}
    s = CTX.sqrt_eps()
    grams = {1: [[CTX.embed(2)]], 2: [[CTX.embed(2), ONE + s], [ONE - s, ONE]]}
    for seed, n in ((1, 1), (3, 1), (3, 2), (4, 2)):
        form_ext = extend_form(HermitianForm(grams[n], CTX))
        Ygl, Yu = matched_endomorphism_pair(random.Random(seed), n, form_ext)
        YglE = [[CTX.embed(x) for x in row] for row in Ygl]
        x = cayley_gl(Ygl, params)
        out[f"n{n}_seed{seed}"] = {
            "twisted_Y": pin(lambda: group_moments(YglE, n, n)),
            "unitary_Y": pin(lambda: group_moments(Yu, n, n, form_ext)),
            "twisted_x": pin(lambda: group_moments(x, n, n)),
            "unitary_x": pin(lambda: group_moments(cayley_u(Yu, form_ext, params), n, n,
                                                   form_ext)),
            "twisted_Y0": pin(lambda: group_moments(YglE, 0, n)),
            "unitary_Y0": pin(lambda: group_moments(Yu, 0, n, form_ext)),
            "omega": pin(lambda: omega_factor(x, CTX)),
            "eta_tilde": pin(lambda: eta_tilde_end(Ygl, CTX)),
        }
    for k, Y in enumerate(([[F(0), F(3)], [F(1), F(0)]],
                           [[F(1), F(2), F(0)], [F(0), F(1), F(9)], [F(1), F(0), F(1, 3)]])):
        out[f"fixed{k}"] = {"omega": pin(lambda: omega_factor(cayley_gl(Y, params), CTX)),
                            "eta_tilde": pin(lambda: eta_tilde_end(Y, CTX))}
    return out


def _inventories():
    t = Polynomial([F(0), F(1)])
    cases = {
        "inert_linear": (InvariantPoint((F(0),), (F(0),)), [(t, 1, "inert")]),
        "inert_quadratic": (InvariantPoint((F(0), F(-3)), (F(0), F(0))),
                            [(Polynomial([F(-3), F(0), F(1)]), 1, "inert")]),
        "split": (InvariantPoint((F(0), F(-2)), (F(0), F(0))),
                  [(Polynomial([F(-2), F(0), F(1)]), 1, "split")]),
        "mixed": (InvariantPoint((F(-1), F(-1), F(0)), (F(1), F(2), F(3))),
                  [(t, 1, "inert")]),
    }
    out = {}
    for name, (a, factored) in cases.items():
        classes = orbit_inventory(a, factored, CTX)
        out[name] = [pin(lambda: [c["labels"], c["form"].gram, c["pair"].A, c["pair"].b])
                     for c in classes]
    return out


def _lattice_errors():
    """Non-regular input and non-integral moment data on both sides."""
    a = InvariantPoint((F(0),), (F(1, 3),))
    return {"gl_stratum2": pin(lambda: admissible_lattices_gl(_triples()[2], CTX)),
            "u_stratum2": pin(lambda: selfdual_admissible_lattices(_pairs()[2], CTX)),
            "gl_nonintegral": pin(lambda: admissible_lattices_gl(
                gl_representative_of_point(a), CTX)),
            "u_nonintegral": pin(lambda: selfdual_admissible_lattices(
                hankel_pair_for_point(a, CTX), CTX))}


GOLDEN = {
    "lattice_errors": _lattice_errors,
    "lattices_n1": lambda: _lattice_outputs(_points(1, 6)),
    "lattices_n2": lambda: _lattice_outputs(_points(2, 2, seed=110, samples=20)),
    "triples": lambda: {r: {"stratum": pin(lambda: stratum(X)),
                            "d": pin(lambda: [d_r(X, k) for k in range(X.n + 2)]),
                            "jordan": pin(lambda: jordan(X))}
                        for r, X in _triples().items()},
    "pairs": lambda: {r: {"stratum": pin(lambda: u_stratum(X)),
                          "d": pin(lambda: [u_d_r(X, k) for k in range(X.n + 2)]),
                          "jordan": pin(lambda: u_jordan(X))}
                      for r, X in _pairs().items()},
    "group_side": _group_side,
    "inventories": _inventories,
}

PINNED = {'group_side': {'fixed0': {'eta_tilde': '-1', 'omega': '-1'},
                'fixed1': {'eta_tilde': '1', 'omega': '1'},
                'n1_seed1': {'eta_tilde': '1',
                             'omega': '1',
                             'twisted_Y': '[(2/1,0/1)]',
                             'twisted_Y0': '[(-2/1,0/1)]',
                             'twisted_x': '[(-85/19,-58/19)]',
                             'unitary_Y': '[(2/1,0/1)]',
                             'unitary_Y0': '[(-4/1,0/1)]',
                             'unitary_x': '[(-85/19,-58/19)]'},
                'n1_seed3': {'eta_tilde': '1',
                             'omega': '-1',
                             'twisted_Y': '[(2/1,0/1)]',
                             'twisted_Y0': '[(-2/1,0/1)]',
                             'twisted_x': '[(5/3,4/3)]',
                             'unitary_Y': '[(2/1,0/1)]',
                             'unitary_Y0': '[(-4/1,0/1)]',
                             'unitary_x': '[(5/3,4/3)]'},
                'n2_seed3': {'eta_tilde': '1',
                             'omega': '1',
                             'twisted_Y': '[(2/1,0/1),(32/3,0/1)]',
                             'twisted_Y0': '[(-2/1,0/1),(-62/3,0/1)]',
                             'twisted_x': '[(889/713,2458/713),(-6285711/508369,-6831300/508369)]',
                             'unitary_Y': '[(2/1,0/1),(32/3,0/1)]',
                             'unitary_Y0': '[(6/1,0/1),(-350/3,0/1)]',
                             'unitary_x': '[(889/713,2458/713),(-6285711/508369,-6831300/508369)]'},
                'n2_seed4': {'eta_tilde': '1',
                             'omega': '1',
                             'twisted_Y': '[(0/1,0/1),(52/3,0/1)]',
                             'twisted_Y0': '[(0/1,0/1),(-33/1,0/1)]',
                             'twisted_x': '[(17/147,370/147),(-36077/7203,-58196/7203)]',
                             'unitary_Y': '[(0/1,0/1),(52/3,0/1)]',
                             'unitary_Y0': '[(-16/1,0/1),(-8/3,0/1)]',
                             'unitary_x': '[(17/147,370/147),(-36077/7203,-58196/7203)]'}},
 'inventories': {'inert_linear': ['[{0:{disc_is_norm:True}},[[(1/1,0/1)]],[[(0/1,0/1)]],[(0/1,0/1)]]',
                                  '[{0:{disc_is_norm:False}},[[(3/1,0/1)]],[[(0/1,0/1)]],[(0/1,0/1)]]'],
                 'inert_quadratic': ['[{0:{disc_is_norm:True}},[[(2/1,0/1),(0/1,0/1)],[(0/1,0/1),(6/1,0/1)]],[[(0/1,0/1),(3/1,0/1)],[(1/1,0/1),(0/1,0/1)]],[(0/1,0/1),(0/1,0/1)]]',
                                     '[{0:{disc_is_norm:False}},[[(6/1,0/1),(0/1,0/1)],[(0/1,0/1),(18/1,0/1)]],[[(0/1,0/1),(3/1,0/1)],[(1/1,0/1),(0/1,0/1)]],[(0/1,0/1),(0/1,0/1)]]'],
                 'mixed': ['sha256:380b8f70ad46be49ccbebb1e261b6e9a9cf65f601e6ac486c65fd081dbf6d61a',
                           'sha256:3406e524b4b5fb20269943ecd2a6f2975a6a9545edb65f0b0f19da56cce609cf'],
                 'split': ['[{},[[(2/1,0/1),(0/1,0/1)],[(0/1,0/1),(4/1,0/1)]],[[(0/1,0/1),(2/1,0/1)],[(1/1,0/1),(0/1,0/1)]],[(0/1,0/1),(0/1,0/1)]]']},
 'lattice_errors': {'gl_nonintegral': '[]',
                    'gl_stratum2': 'raises ValueError',
                    'u_nonintegral': '[]',
                    'u_stratum2': 'raises ValueError'},
 'lattices_n1': {'gl': 'sha256:813d4b34e1b1490e7fc2cfe76eb430800ecda610d7ca16c9564b9c892d737f92',
                 'points': 42,
                 'u': 'sha256:692c5418166b1dec338b26512c8de4a9aa5cdc16318e43718944b04065b3cf95'},
 'lattices_n2': {'gl': 'sha256:8d3457d005503f10d2a943cfa6701d07090065a783b7bec54f4f838b41000189',
                 'points': 20,
                 'u': 'sha256:f914838b0973eda2eef509c60d85d9ef4c889c21cfd6199a3f2e24591cee6085'},
 'pairs': {0: {'d': '[1/1,0/1,0/1,0/1,0/1]',
               'jordan': 'sha256:e8adbd4fe06b19b524344424323fe14be892d4b62e4e7cfbf68490007f3f776c',
               'stratum': '0'},
           1: {'d': '[1/1,2/1,0/1,0/1,0/1]',
               'jordan': 'sha256:7d2442a4be5a020f39c331664332de0c68ed04f07c5cf224f1f752414d5d4d76',
               'stratum': '1'},
           2: {'d': '[1/1,1/1,-2/1,0/1,0/1]',
               'jordan': 'sha256:dae5323cc27456713044ff3ef9f76ba5f29f1cdd2ba8d495e8f467db501fa6b7',
               'stratum': '2'},
           3: {'d': '[1/1,1/1,2/1,-24/1,0/1]',
               'jordan': 'sha256:2190f3e18f4f11f129b2f40608b972951e3777a271f61dbc1bbc720c80883582',
               'stratum': '3'}},
 'triples': {0: {'d': '[1/1,0/1,0/1,0/1,0/1]',
                 'jordan': '[T[[[2/1,0/1,0/1],[3/1,-4/1,-3/1],[-3/1,6/1,5/1]],[0/1,0/1,0/1],[0/1,0/1,0/1]],T[[[1/1,-1/1,-1/1],[0/1,0/1,0/1],[1/1,-1/1,-1/1]],[0/1,0/1,0/1],[0/1,0/1,0/1]]]',
                 'stratum': '0'},
             1: {'d': '[1/1,2/1,0/1,0/1,0/1]',
                 'jordan': '[T[[[1/1,2/1,2/1],[0/1,2/1,0/1],[-1/1,2/1,4/1]],[1/1,0/1,1/1],[-2/1,4/1,4/1]],T[[[2/1,-4/1,-2/1],[1/1,-2/1,-1/1],[0/1,0/1,0/1]],[0/1,0/1,0/1],[0/1,0/1,0/1]]]',
                 'stratum': '1'},
             2: {'d': '[1/1,1/1,-2/1,0/1,0/1]',
                 'jordan': '[T[[[-2/1,4/1,4/1],[1/1,-1/1,0/1],[-3/1,4/1,3/1]],[1/1,0/1,1/1],[0/1,1/1,1/1]],T[[[0/1,0/1,0/1],[0/1,0/1,0/1],[0/1,0/1,0/1]],[0/1,0/1,0/1],[0/1,0/1,0/1]]]',
                 'stratum': '2'},
             3: {'d': '[1/1,1/1,1/1,-59/1,0/1]',
                 'jordan': '[T[[[-3/1,6/1,5/1],[-5/1,9/1,6/1],[4/1,-7/1,-4/1]],[1/1,0/1,1/1],[0/1,-1/1,1/1]],T[[[0/1,0/1,0/1],[0/1,0/1,0/1],[0/1,0/1,0/1]],[0/1,0/1,0/1],[0/1,0/1,0/1]]]',
                 'stratum': '3'}}}


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_side_outputs_are_pinned(key):
    assert GOLDEN[key]() == PINNED[key]
