"""The three workloads: set-up (program objects from generated data), one
unit (program calls plus the identity checks on their results), and the
canonical exact output that goes into the digest.

Program functions are always reached through their module (`G.jordan`, not
a name bound at import), so the tracer's wrappers see every call.  `jrlab`
is imported when a `State` is built, which is what the benchmark's set-up
time measures.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction as F

import gen


class CheckFailed(AssertionError):
    """A unit's result broke an identity it must satisfy."""


def check(ok, what):
    if not ok:
        raise CheckFailed(what)


def canon(x):
    """Canonical text of an exact output: Fractions as num/den, extension
    scalars as (x, y), containers recursively."""
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(canon(v) for v in x) + "]"
    if isinstance(x, dict):
        return "{" + ",".join(f"{k}:{canon(x[k])}" for k in sorted(x)) + "}"
    if isinstance(x, (bool, int, str)) or x is None:
        return str(x)
    if isinstance(x, F):
        return f"{x.numerator}/{x.denominator}"
    if hasattr(x, "x") and hasattr(x, "y"):
        return f"({canon(x.x)},{canon(x.y)})"
    raise TypeError(f"no canonical form for {type(x).__name__}")


class State:
    """Program modules and the objects built from one battery."""

    def __init__(self, workload, units):
        import jrlab
        from jrlab import cli, fields, gltilde, hermitian, orbital
        self.jrlab = jrlab
        self.cli, self.fields, self.G, self.H, self.O = cli, fields, gltilde, hermitian, orbital
        build = getattr(self, f"_build_{workload}")
        self.objects = [build(u) for u in units]

    # -- set-up ------------------------------------------------------------

    def _build_algebra(self, u):
        if not hasattr(self, "ctx"):
            self.ctx = self.fields.PLocalContext(gen.ALGEBRA_P)
            self.params = self.H.standard_cayley_params(self.ctx, t=1, s=1)
        kind = u["kind"]
        if kind == "gl":
            return self.G.Triple(u["A"], u["b"], u["c"])
        if kind == "u":
            return self._pair(u["G"], u["A"], u["b"])
        if kind == "slice":
            return [self.G.Triple(A, b, c) for A, b, c in u["parts"]]
        form = self.H.HermitianForm(self._emat(u["G"]), self.ctx)
        return u["Y"], form, self._emat(u["A"])

    def _e(self, z):
        return self.fields.EScalar(z.x, z.y, self.ctx)

    def _emat(self, M):
        return [[self._e(z) for z in row] for row in M]

    def _pair(self, G, A, b):
        form = self.H.HermitianForm(self._emat(G), self.ctx)
        return self.H.HermitianPair(self._emat(A), [self._e(z) for z in b], form)

    def _build_lattice(self, u):
        if not hasattr(self, "ctxs"):
            self.ctxs = {}
        if u["p"] not in self.ctxs:
            self.ctxs[u["p"]] = self.fields.PLocalContext(u["p"])
        return self.G.InvariantPoint(u["a"], u["b"])

    def _build_combinatorics(self, u):
        return list(u["argv"])

    # -- units -------------------------------------------------------------

    def run(self, i, u):
        """Take unit i through its entry points and check the result;
        returns the canonical output and the number of verified instances."""
        return getattr(self, f"_run_{u['kind']}")(self.objects[i], u)

    def _run_gl(self, X, u):
        G, n, r = self.G, u["n"], u["r"]
        check(G.stratum(X) == r, "stratum differs from the built one")
        a = G.invariants(X)
        Xs, Xn = G.jordan(X)
        check((Xs + Xn) == X, "X_s + X_n != X")
        check(G.invariants(Xs) == a, "Jordan part moved the invariants")
        check(G.invariants(Xn).is_nilpotent(), "nilpotent part has invariants")
        check(G.is_semisimple(Xs), "X_s not semisimple")
        ss = G.is_semisimple(X)
        check(ss or r < n, "regular triple reported non-semisimple")
        out = [a.a, a.b, Xs.A, Xs.b, Xs.c, ss]
        if 0 < r < n:
            g, Xstd, _ = G.conjugate_to_slice(X)
            Xp, Y = G.iota_inverse(Xstd, r)
            Z = G.iota(Xp, Y)
            check(Z == Xstd, "iota(iota^-1(X)) != X in slice position")
            check(G.stratum(Z) == r, "slice element changed stratum")
        return out, 1

    def _run_u(self, X, u):
        H, n, r = self.H, u["n"], u["r"]
        check(H.u_stratum(X) == r, "u-stratum differs from the built one")
        a = H.u_invariants(X)
        Xs, Xn = H.u_jordan(X)
        check([[x + y for x, y in zip(rs, rn)] for rs, rn in zip(Xs.A, Xn.A)]
              == [list(row) for row in X.A], "A_s + A_n != A")
        check([x + y for x, y in zip(Xs.b, Xn.b)] == list(X.b), "b_s + b_n != b")
        check(H.u_invariants(Xs) == a, "Jordan part moved the invariants")
        check(H.u_invariants(Xn).is_nilpotent(), "nilpotent part has invariants")
        check(H.u_is_semisimple(Xs), "X_s not semisimple")
        ss = H.u_is_semisimple(X)
        check(ss or r < n, "regular pair reported non-semisimple")
        return [a.a, a.b, Xs.A, ss], 1

    def _run_slice(self, parts, u):
        rep = self.G.slice_compatibility_check(parts)
        check(rep["ratio"] in (1, -1), "slice ratio is not a sign")
        return [rep["lhs"], rep["rhs"], rep["ratio"]], 1

    def _run_cayley(self, obj, u):
        H, ctx, params = self.H, self.ctx, self.params
        Y, form, A = obj
        x = H.cayley_gl(Y, params)
        check(H.cayley_inverse(x, params) == [[ctx.embed(v) for v in row] for row in Y],
              "GL Cayley round trip")
        xu = H.cayley_u(A, form, params)
        check(H.cayley_inverse(xu, params) == A, "unitary Cayley round trip")
        return [x, xu], 1

    def _run_point(self, a, u):
        O, H = self.O, self.H
        ctx = self.ctxs[u["p"]]
        g = O.orbital_gl(O.gl_representative_of_point(a), ctx)
        Xu = H.hankel_pair_for_point(a, ctx)
        un = O.orbital_u(Xu, ctx)
        norm = H.classify_form_local(Xu.form, ctx)["disc_is_norm"]
        check(g.a == a and un.a == a, "a side lost the invariant point")
        if norm:
            check(g.value == un.value, "gl != u on the norm class")
        else:
            check(g.value == 0 and un.value == 0, "nonzero off the norm class")
        if u["v"] % 2:
            check(g.value == 0, "nonzero at odd valuation")
        return [g.value, g.lattice_count, un.value, un.lattice_count, norm], 1

    def _run_cli(self, argv, u):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                self.cli.main(argv)
                rc = 0
            except SystemExit as e:
                rc = e.code
        check(rc == 0, f"exit code {rc}")
        records = [json.loads(line) for line in buf.getvalue().splitlines() if line]
        check(records and all(r["failures"] == [] and r["instances"] > 0 for r in records),
              "suite reported failures")
        for r in records:
            del r["wall_time"]
        return json.dumps(records, sort_keys=True), sum(r["instances"] for r in records)

    _run_cones = _run_chambers = _run_cli


def oracle(u, out):
    """Independent check of a unit's output from the generated data alone,
    run outside the timed region.  Returns a failure message or None."""
    kind = u["kind"]
    if kind == "gl":
        n = u["n"]
        A, b, c = u["A"], u["b"], u["c"]
        if list(out[1]) != gen.gl_moments(A, b, c, n):
            return "moments differ from c A^k b"
        if out[0][0] != -sum(A[i][i] for i in range(n)):
            return "a_1 differs from -trace(A)"
    elif kind == "u":
        n = u["n"]
        if list(out[1]) != gen.u_moments(u["G"], u["A"], u["b"], n):
            return "moments differ from Phi(b, A^k b)"
    elif kind == "point":
        if out[4] != (u["v"] % 2 == 0):
            return "norm class differs from the parity of v(d_n)"
    return None
