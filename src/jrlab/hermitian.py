"""The hermitian side: nondegenerate sigma-hermitian forms, pairs (A, b)
with A self-adjoint, their invariants and Jordan decomposition, the local
classification of forms, orbit inventories over an invariant point, Cayley
transforms on both sides, and the sign factors entering the comparison.

Forms are sigma-linear in the first variable: Phi(v, w) = sigma(v)^T Gram w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import product

from . import linalg as la
from .fields import (EScalar, PLocalContext, eta, eta_ext, is_norm, one_like,
                     valuation)
from .gltilde import (InvariantPoint, Triple, d_r_of_point, extend_moments,
                      hankel_d, invariants, is_semisimple, jordan, moments,
                      pairing, stratum, stratum_of_point)
from .poly import Polynomial, discriminant, is_squarefree, monic_coeffs


# ---------------------------------------------------------------------------
# forms and pairs


@dataclass(frozen=True)
class HermitianForm:
    gram: tuple          # n x n over EScalar, sigma-conjugate-transpose symmetric
    ctx: PLocalContext

    def __post_init__(self):
        g = tuple(tuple(r) for r in self.gram)
        object.__setattr__(self, "gram", g)
        n = len(g)
        if any(len(r) != n for r in g):
            raise ValueError("Gram matrix must be square")
        if la.conj_transpose(g) != [list(r) for r in g]:
            raise ValueError("Gram matrix is not sigma-hermitian")
        if not la.det(g):
            raise ValueError("degenerate form")

    @property
    def n(self) -> int:
        return len(self.gram)

    def det(self) -> Fraction:
        return la.det(self.gram).as_fraction()


@dataclass(frozen=True)
class HermitianPair:
    """(A, b) with A self-adjoint for the carried form.  Its invariant theory
    is that of the linear triple (A, b, sigma(b)^T Gram) over the extension:
    the moments Phi(b, A^k b) are c A^k b for that covector c."""

    A: tuple
    b: tuple
    form: HermitianForm

    def __post_init__(self):
        object.__setattr__(self, "A", tuple(tuple(r) for r in self.A))
        object.__setattr__(self, "b", tuple(self.b))
        if len(self.A) != self.form.n or len(self.b) != self.form.n:
            raise ValueError("dimension mismatch with the form")
        if not is_selfadjoint(self.A, self.form):
            raise ValueError("A is not self-adjoint for the form")

    @property
    def n(self) -> int:
        return len(self.b)

    @cached_property
    def triple(self) -> Triple:
        return Triple(self.A, self.b, la.vec_mat([x.conj() for x in self.b], self.form.gram))


def is_selfadjoint(A, form: HermitianForm) -> bool:
    """sigma(A)^T Gram == Gram A; as Gram is hermitian, the left side is
    sigma(Gram A)^T, so Gram A must be hermitian."""
    if len(A) != form.n:
        raise ValueError("dimension mismatch")
    GA = la.mat_mul(form.gram, A)
    return la.conj_transpose(GA) == GA


def adjoint(M, form: HermitianForm):
    """Phi-adjoint: Gram^{-1} sigma(M)^T Gram."""
    G = form.gram
    return la.mat_mul(la.inverse(G), la.mat_mul(la.conj_transpose(M), G))


def _derived(A, b, form: HermitianForm) -> HermitianPair:
    """A pair derived from a checked one, built without `HermitianPair`'s checks."""
    X = object.__new__(HermitianPair)
    X.__dict__.update(A=tuple(map(tuple, A)), b=tuple(b), form=form)
    return X


def unitary_act(g, X: HermitianPair) -> HermitianPair:
    gi = la.inverse(g)
    return _derived(la.mat_mul(g, la.mat_mul(X.A, gi)), la.mat_vec(g, X.b), X.form)


def is_unitary(g, form: HermitianForm) -> bool:
    return (la.mat_mul(la.conj_transpose(g), la.mat_mul(form.gram, g))
            == [list(r) for r in form.gram])


def _mobius(M, a, b, c):
    """c (M + a)(M + b)^{-1} for scalars a, b, c: every Cayley-type
    transform here.  A pole, det(M + b) = 0, raises ZeroDivisionError."""
    def shift(s):
        return [[x + s if i == j else x for j, x in enumerate(row)]
                for i, row in enumerate(M)]
    den = la.inverse(shift(b))
    return la.mat_scale(la.mat_mul(shift(a), den), c)


def random_unitary(form: HermitianForm, rng, bound: int = 2):
    """Cayley transform (1 - S)(1 + S)^{-1} of a random Phi-skew-adjoint S,
    redrawn at a pole."""
    n = form.n
    ctx = form.ctx
    one = ctx.embed(1)
    for _ in range(200):
        M = [[EScalar(Fraction(rng.randint(-bound, bound)),
                      Fraction(rng.randint(-bound, bound)), ctx)
              for _ in range(n)] for _ in range(n)]
        try:
            g = _mobius(la.mat_sub(M, adjoint(M, form)), -one, one, -one)
        except ZeroDivisionError:
            continue
        assert is_unitary(g, form)
        return g
    raise RuntimeError("failed to sample a unitary element")


# ---------------------------------------------------------------------------
# invariants, stratification, Jordan


def _in_base_field(values, what) -> tuple:
    """The F-coordinates of E-values that must lie in the base field."""
    out = []
    for z in values:
        if not z.is_rational():
            raise ValueError(f"{what} left the base field")
        out.append(z.as_fraction())
    return tuple(out)


def u_invariants(X: HermitianPair) -> InvariantPoint:
    a = invariants(X.triple)
    return InvariantPoint(_in_base_field(a.a, "characteristic polynomial"),
                          _in_base_field(a.b, "moment"))


def u_d_r(X: HermitianPair, r: int):
    """The Hankel determinant d_r of the moments Phi(b, A^k b), over F."""
    return hankel_d(_in_base_field(moments(X.triple, 2 * X.n - 1), "moment"), X.n, r)


def u_stratum(X: HermitianPair) -> int:
    return stratum(X.triple)


def u_jordan(X: HermitianPair) -> tuple[HermitianPair, HermitianPair]:
    """X = X_s + X_n on the hermitian side; the sum is taken componentwise
    on (A, b), the form being common."""
    Xs, Xn = jordan(X.triple)
    return _derived(Xs.A, Xs.b, X.form), _derived(Xn.A, Xn.b, X.form)


def u_is_semisimple(X: HermitianPair) -> bool:
    return is_semisimple(X.triple)


def u_pairing(X: HermitianPair, Y: HermitianPair):
    """trace(A_X A_Y) + Phi(b_X, b_Y) + Phi(b_Y, b_X), an element of F."""
    return _in_base_field([pairing(X.triple, Y.triple)], "pairing")[0]


# ---------------------------------------------------------------------------
# classification of forms and orbit inventory


def extend_form(form: HermitianForm) -> HermitianForm:
    """Append the distinguished line: block-diagonal Gram + (1)."""
    ctx = form.ctx
    return HermitianForm(la.block_diag([form.gram, [[ctx.embed(1)]]], ctx.embed(0)), ctx)


def classify_form_local(form: HermitianForm, ctx: PLocalContext) -> dict:
    """At an odd inert unramified place the two classes are separated by
    whether the discriminant is a norm (equivalently: a self-dual lattice
    exists)."""
    norm = is_norm(form.det(), ctx)
    return {"disc_is_norm": norm, "class": "norm" if norm else "nonnorm"}


def hankel_pair_for_point(a: InvariantPoint, ctx: PLocalContext):
    """The companion/Hankel model over the extension: a pair with the given
    regular invariant point, self-adjoint for the Hankel Gram of the extended
    moment sequence.  Needs d_n(a) != 0."""
    n = a.n
    if d_r_of_point(a, n) == 0:
        raise ValueError("invariant point is not regular semisimple")
    h = extend_moments(a, 2 * n - 1)
    gram_f = [[h[i + j] for j in range(n)] for i in range(n)]
    gram = [[ctx.embed(x) for x in row] for row in gram_f]
    comp = companion_matrix(list(a.a))
    A = [[ctx.embed(x) for x in row] for row in comp]
    b = [ctx.embed(1)] + [ctx.embed(0)] * (n - 1)
    form = HermitianForm(gram, ctx)
    return HermitianPair(A, b, form)


def companion_matrix(a_coeffs):
    """Companion matrix of t^n + a1 t^{n-1} + ... + an sending e_i to e_{i+1};
    the Krylov basis of e_1 is the standard basis."""
    n = len(a_coeffs)
    C = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n - 1):
        C[i + 1][i] = Fraction(1)
    for i in range(n):
        C[i][n - 1] = -Fraction(a_coeffs[n - 1 - i])
    return C


def splits_over_ext(P_i: Polynomial, ctx: PLocalContext) -> bool:
    """Whether a monic irreducible quadratic splits over the inert quadratic
    extension F(sqrt(eps)): disc / eps must be a rational square."""
    if P_i.degree == 1:
        return False
    if P_i.degree != 2:
        raise ValueError("only degree <= 2 supported")
    return _is_rational_square(Fraction(discriminant(P_i)) / ctx.eps)


def _is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def _is_rational_square(q: Fraction) -> bool:
    return q >= 0 and _is_square(q.numerator) and _is_square(q.denominator)


def _irreducible_deg_le2(P: Polynomial) -> bool:
    if P.degree == 1:
        return True
    if P.degree == 2:
        return not _is_rational_square(Fraction(discriminant(P)))
    return False


def _slot(P_i: Polynomial, u: Fraction, ctx: PLocalContext):
    """Gram and multiplication-by-t matrices (over E) of one copy of
    E[t]/P_i, P_i monic of degree <= 2, under <x, y> = tr(u sigma(x) y).
    In degree 2 the basis is (1, alpha), alpha the class of t, and the Gram
    entries are tr(u alpha^{i+j}) with alpha^2 = -s alpha - q."""
    if P_i.degree == 1:
        return [[ctx.embed(u)]], [[ctx.embed(-Fraction(P_i.coeffs[0]))]]
    s, q = (Fraction(c) for c in (P_i.coeffs[1], P_i.coeffs[0]))
    gram = [[2 * u, -u * s], [-u * s, u * (s * s - 2 * q)]]
    mult = [[0, -q], [1, -s]]
    return ([[ctx.embed(x) for x in row] for row in gram],
            [[ctx.embed(x) for x in row] for row in mult])


def orbit_inventory(a: InvariantPoint, factored, ctx: PLocalContext) -> list[dict]:
    """Inventory of semisimple orbits above an invariant point.

    `factored` lists (P_i, n_i, flag) with flag "inert" (irreducible over the
    extension) or "split" (factors over it); the product of the P_i^{n_i},
    each P_i made monic, must be the minus-part characteristic polynomial.
    Returns one entry per class: the class labels per inert factor and an
    explicit representative pair.
    """
    zero = ctx.embed(0)
    n = a.n
    r = stratum_of_point(a)
    factored = [(P_i.monic(), n_i, flag) for P_i, n_i, flag in factored]
    chi = Polynomial([Fraction(x) for x in
                      list(reversed((1,) + tuple(a.a)))])
    # verify the factorization against the minus part
    prod = Polynomial([Fraction(1)])
    for (P_i, n_i, flag) in factored:
        for _ in range(n_i):
            prod = prod * P_i
    aplus_poly, rem = chi.divmod(prod)
    if not rem.is_zero():
        raise ValueError("factorization mismatch: product does not divide chi")
    if prod.degree != n - r:
        raise ValueError("factorization mismatch: wrong total degree")
    for (P_i, n_i, flag) in factored:
        if flag not in ("inert", "split"):
            raise ValueError(f"unknown flag {flag!r}: expected 'inert' or 'split'")
        if not _irreducible_deg_le2(P_i):
            raise ValueError("factor fails the irreducibility certificate")
        if not is_squarefree(P_i):
            raise ValueError("factor is not squarefree")
        split = splits_over_ext(P_i, ctx)
        if flag == "inert" and split:
            raise ValueError("unverifiable flags: factor splits over the extension")
        if flag == "split" and not split:
            raise ValueError("unverifiable flags: factor stays irreducible")
        # other quadratic shapes split locally or make the extension by sigma
        # split, so the two-class labeling would be wrong for them
        if flag == "inert" and P_i.degree == 2 and valuation(discriminant(P_i), ctx) % 2 == 0:
            raise ValueError(
                "unverifiable flags: degree-2 inert factor must be p-ramified "
                "(v_p(disc) odd) for the two-class labeling to apply")
    # the plus part of the invariant point takes its Hankel model
    plus_slot, b = [], [zero] * (n - r)
    if r:
        plus = hankel_pair_for_point(
            InvariantPoint(tuple(monic_coeffs(aplus_poly)), tuple(a.b[:r])), ctx)
        plus_slot, b = [(plus.form.gram, plus.A)], list(plus.b) + b
    inert_idx = [k for k, (_, _, fl) in enumerate(factored) if fl == "inert"]
    classes = []
    for labels in product((True, False), repeat=len(inert_idx)):
        label_map = dict(zip(inert_idx, labels))
        slots = list(plus_slot)
        # a split factor has degree 2 (splits_over_ext is False in degree 1)
        for k, (P_i, n_i, flag) in enumerate(factored):
            unit = Fraction(1) if flag == "split" or label_map[k] else Fraction(ctx.p)
            slots += [_slot(P_i, unit if c == 0 else Fraction(1), ctx) for c in range(n_i)]
        grams, mults = zip(*slots)
        form = HermitianForm(la.block_diag(grams, zero), ctx)
        rep = HermitianPair(la.block_diag(mults, zero), b, form)
        if u_invariants(rep) != a:
            raise AssertionError("representative does not reproduce the invariant point")
        classes.append({
            "labels": {k: {"disc_is_norm": label_map[k]} for k in inert_idx},
            "form": form,
            "pair": rep,
        })
    return classes


# ---------------------------------------------------------------------------
# Cayley transforms and comparison factors


@dataclass(frozen=True)
class CayleyParams:
    """tau with sigma(tau) = -tau (nonzero) and xi with xi sigma(xi) = 1."""

    tau: EScalar
    xi: EScalar

    def __post_init__(self):
        if not self.tau or self.tau.conj() != -self.tau:
            raise ValueError("tau must be nonzero and sigma-antisymmetric")
        if self.xi * self.xi.conj() != self.tau.ctx.embed(1):
            raise ValueError("xi must have norm 1")


def standard_cayley_params(ctx: PLocalContext, t=1, s=0) -> CayleyParams:
    """tau = t*sqrt(eps); xi from the rational norm-1 parametrization
    (1+s sqrt(eps))/(1-s sqrt(eps))."""
    tau = ctx.sqrt_eps() * ctx.embed(t)
    one = ctx.embed(1)
    u = one + ctx.sqrt_eps() * ctx.embed(s)
    xi = u / u.conj()
    return CayleyParams(tau, xi)


def cayley(Y, params: CayleyParams):
    """kappa(Y) = xi (Y + tau)(Y - tau)^{-1}, which is
    -xi (1 + tau^{-1} Y)(1 - tau^{-1} Y)^{-1}; Y is a square matrix over the
    base field or the extension.  A pole raises ZeroDivisionError."""
    ctx = params.tau.ctx
    Ye = [[x if isinstance(x, EScalar) else ctx.embed(x) for x in row] for row in Y]
    return _mobius(Ye, params.tau, -params.tau, params.xi)


def cayley_gl(Y, params: CayleyParams):
    """Cayley transform of a base-field endomorphism; checks the twisted
    involution identity r sigma(r) = 1 on the result."""
    r = cayley(Y, params)
    if not in_twisted_space(r):
        raise AssertionError("Cayley image fails r sigma(r) = 1")
    return r


def cayley_u(Y, form: HermitianForm, params: CayleyParams):
    """Cayley transform of a Phi-self-adjoint endomorphism; the image is
    Phi-unitary."""
    if not is_selfadjoint([list(r) for r in Y], form):
        raise ValueError("input must be self-adjoint for the form")
    r = cayley(Y, params)
    if not is_unitary(r, form):
        raise AssertionError("Cayley image fails unitarity")
    return r


def cayley_inverse(r, params: CayleyParams):
    """Y = tau (w - 1)(w + 1)^{-1} with w = -xi^{-1} r, which is
    tau (r + xi)(r - xi)^{-1}.  A pole raises ZeroDivisionError."""
    return _mobius(r, params.xi, -params.xi, params.tau)


def in_twisted_space(g) -> bool:
    """g sigma(g) = 1."""
    n = len(g)
    prod = la.mat_mul(g, la.conj_matrix(g))
    one = g[0][0].ctx.embed(1)
    return prod == la.identity(n, one)


def group_moments(Y, e0_index: int, count: int, form: HermitianForm | None = None):
    """e0^* Y^i e0 (form None) or Phi(e0, Y^i e0), i = 1..count: the moments
    c Y^i e0 of the triple (Y, e0, c) with c = e0^T or sigma(e0)^T Gram,
    the Gram row of e0 (e0 is rational)."""
    e0 = la.identity(len(Y), Y[0][0].ctx.embed(1))[e0_index]
    c = e0 if form is None else form.gram[e0_index]
    return moments(Triple(Y, e0, c), count + 1)[1:]


def match_invariants_group(Y1, Y2, form_ext: HermitianForm) -> bool:
    """Same characteristic polynomial and the same distinguished moments
    e0* Y1^i e0 = Phi~(e0, Y2^i e0) for i = 1..n (dimension n+1)."""
    N = len(Y1)
    if len(Y2) != N or form_ext.n != N:
        raise ValueError("dimension mismatch")
    if la.charpoly(Y1) != la.charpoly(Y2):
        return False
    m1 = group_moments(Y1, N - 1, N - 1)
    m2 = group_moments(Y2, N - 1, N - 1, form_ext)
    return m1 == m2


def matched_endomorphism_pair(rng, n: int, form_ext: HermitianForm, bound: int = 2):
    """A self-adjoint endomorphism of the extended hermitian space together
    with a rational endomorphism carrying the same invariant data
    (characteristic polynomial and distinguished moments), built by
    transporting the companion model so that the distinguished vector and
    covector sit in standard position.  Retries until the moment matrix is
    invertible."""
    ctx = form_ext.ctx
    N = n + 1
    if form_ext.n != N:
        raise ValueError("extended form must have dimension n + 1")
    while True:
        M = [[EScalar(Fraction(rng.randint(-bound, bound)),
                      Fraction(rng.randint(-bound, bound)), ctx)
              for _ in range(N)] for _ in range(N)]
        Yu = la.mat_add(M, adjoint(M, form_ext))
        chi = la.charpoly(Yu)
        try:
            coeffs = [c.as_fraction() for c in monic_coeffs(chi)]
            mom = [m.as_fraction() for m in group_moments(Yu, N - 1, n, form_ext)]
        except ValueError:
            continue
        a = InvariantPoint(coeffs, [Fraction(1)] + mom)
        if d_r_of_point(a, N) == 0:
            continue
        C = companion_matrix(coeffs)
        P = la.identity(N)[1:] + [list(a.b)]
        Ygl = la.mat_mul(P, la.mat_mul(C, la.inverse(P)))
        return Ygl, Yu


def _moment_basis_det(x, e0_index: int):
    """det(e0, x e0, ..., x^n e0) in the scalar domain of x."""
    e0 = la.identity(len(x), one_like(x[0][0]))[e0_index]
    return la.det(la.krylov(x, e0, len(x)))          # rows: det is transpose-invariant


def omega_factor(x, ctx: PLocalContext) -> int:
    """eta'(det(x)^{-floor((n+1)/2)} det(e0, x e0, ..., x^n e0)) with the
    unramified eta' = (-1)^{v_E}; x is (n+1)x(n+1) in the twisted space, e0
    the last basis vector."""
    N = len(x)
    n = N - 1
    D = _moment_basis_det(x, N - 1)
    if not D:
        raise ValueError("non-regular element: moment basis is degenerate")
    dx = la.det(x)
    val = dx.inverse() ** ((n + 1) // 2) * D
    return eta_ext(val, ctx)


def omega_group(g, gt, ctx: PLocalContext) -> int:
    """Group version on pairs (g, g~): through nu(h) = (g^{-1} g~) sigma(g^{-1} g~)^{-1},
    with the extra determinant twist for odd n."""
    N = len(gt)
    n = N - 1
    g_big = la.block_diag([g, [[gt[0][0].ctx.embed(1)]]], gt[0][0] * 0)
    q = la.mat_mul(la.inverse(g_big), gt)
    x = la.mat_mul(q, la.inverse(la.conj_matrix(q)))
    base = omega_factor(x, ctx)
    if n % 2 == 1:
        base *= eta_ext(la.det(q), ctx)
    return base


def eta_tilde_end(Y, ctx: PLocalContext) -> int:
    """Transfer factor on endomorphisms of the extended space:
    eta((-1)^n det(e0, Y e0, ..., Y^n e0)), e0 the last basis vector."""
    N = len(Y)
    n = N - 1
    D = _moment_basis_det(Y, N - 1)
    if D == 0:
        raise ValueError("non-regular element")
    return eta((-1) ** n * D, ctx)


def factor_compat_check(samples, params: CayleyParams, ctx: PLocalContext) -> dict:
    """Ratio of the group-side sign to the infinitesimal-side sign across
    samples of regular rational endomorphisms; the ratio must be constant
    (it only depends on tau, xi and the parity branch)."""
    ratios = []
    for Y in samples:
        N = len(Y)
        n = N - 1
        x = cayley_gl(Y, params)
        om = omega_factor(x, ctx)
        et = eta_tilde_end(Y, ctx)
        if n % 2 == 1:
            ctxE = params.tau.ctx
            Ye = [[ctxE.embed(v) for v in row] for row in Y]
            shift = la.mat_sub(Ye, la.mat_scale(la.identity(N, ctxE.embed(1)), params.tau))
            et *= eta_ext(la.det(shift), ctx)
        ratios.append(om * et)           # om/et == om*et for signs
    constant = all(r == ratios[0] for r in ratios)
    return {"ratio": ratios[0] if ratios else None, "constant": constant,
            "samples": len(ratios)}
