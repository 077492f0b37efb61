"""The linear side: the space of triples (A, b, c) = endomorphism + vector +
covector, with its GL(V)-action, invariants, stratification, slice maps,
relative Jordan decomposition, pairing and the sign-valued transfer factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg as la
from .fields import PLocalContext, eta, one_like, zero_like
from .poly import squarefree_part, monic_coeffs


@dataclass(frozen=True)
class Triple:
    """An element X = (A, b, c): square matrix, column vector, row covector,
    all of the same dimension n >= 1 (lists/tuples of exact scalars)."""

    A: tuple
    b: tuple
    c: tuple

    def __post_init__(self):
        n = len(self.b)
        object.__setattr__(self, "A", tuple(tuple(r) for r in self.A))
        object.__setattr__(self, "b", tuple(self.b))
        object.__setattr__(self, "c", tuple(self.c))
        if len(self.A) != n or any(len(r) != n for r in self.A) or len(self.c) != n:
            raise ValueError("components of a triple must share one dimension")

    @property
    def n(self) -> int:
        return len(self.b)

    def __add__(self, other: "Triple") -> "Triple":
        return Triple(la.mat_add(self.A, other.A),
                      la.vec_add(self.b, other.b),
                      la.vec_add(self.c, other.c))

    def __sub__(self, other: "Triple") -> "Triple":
        return Triple(la.mat_sub(self.A, other.A),
                      la.vec_sub(self.b, other.b),
                      la.vec_sub(self.c, other.c))

    def is_zero(self) -> bool:
        return (la.is_zero_matrix(self.A)
                and all(x == 0 for x in self.b)
                and all(x == 0 for x in self.c))


@dataclass(frozen=True)
class InvariantPoint:
    """Point of the categorical quotient: characteristic-polynomial
    coefficients a = (a1..an) and moments b = (b1..bn), bi = c A^{i-1} b."""

    a: tuple
    b: tuple

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(self.a))
        object.__setattr__(self, "b", tuple(self.b))
        if len(self.a) != len(self.b):
            raise ValueError("invariant point needs equal-length a and b")

    @property
    def n(self) -> int:
        return len(self.a)

    def is_nilpotent(self) -> bool:
        return all(x == 0 for x in self.a) and all(x == 0 for x in self.b)


@dataclass(frozen=True)
class Decomposition:
    """The canonical direct sum attached to X: a basis of the span of
    (b, Ab, ..., A^{r-1}b) and a basis of the annihilator of (c, ..., cA^{r-1})."""

    basis_plus: tuple
    basis_minus: tuple

    @property
    def r(self) -> int:
        return len(self.basis_plus)


def act(g, X: Triple) -> Triple:
    """g . X = (g A g^{-1}, g b, c g^{-1})."""
    return _conjugate(g, la.inverse(g), X)


def _conjugate(g, gi, X: Triple) -> Triple:
    """g . X for a g whose inverse gi is already known."""
    return Triple(la.mat_mul(la.mat_mul(g, X.A), gi), la.mat_vec(g, X.b), la.vec_mat(X.c, gi))


def moments(X: Triple, count: int) -> list:
    """[c b, c A b, ..., c A^{count-1} b]."""
    return la.moment_sequence(X.c, X.A, X.b, count)


def invariants(X: Triple) -> InvariantPoint:
    chi = la.charpoly(X.A)
    return InvariantPoint(tuple(monic_coeffs(chi)), tuple(moments(X, X.n)))


def hankel_d(ms, n: int, r: int):
    """Determinant of the r x r Hankel matrix (m_{i+j}) of the moment list
    ms = [m_0, ..., m_{2n-2}] in dimension n; d_0 = 1, and 0 for r > n."""
    if r < 0:
        raise ValueError("d_r needs r >= 0")
    if r == 0:
        return Fraction(1)
    if r > n:
        return Fraction(0)
    return la.det([[ms[i + j] for j in range(r)] for i in range(r)])


def d_r(X: Triple, r: int):
    """Determinant of the r x r moment matrix (c A^{i+j} b)."""
    return hankel_d(moments(X, 2 * X.n - 1), X.n, r)


def d_r_of_point(a: InvariantPoint, r: int):
    """d_r read off an invariant point (Hankel determinant of the moment
    sequence extended through the characteristic-polynomial recursion)."""
    return hankel_d(extend_moments(a, 2 * a.n - 1), a.n, r)


def extend_moments(a: InvariantPoint, count: int) -> list:
    """Moments c A^k b for k = 0..count-1; beyond the stored ones they follow
    the recursion imposed by the characteristic polynomial."""
    ms = list(a.b[:count])
    while len(ms) < count:
        nxt = 0
        for i, ai in enumerate(a.a):
            nxt = nxt - ai * ms[len(ms) - 1 - i]
        ms.append(nxt)
    return ms


def _top_stratum(ms, n: int) -> int:
    """The largest r in 1..n whose leading Hankel minor of the moment list
    ms = [m_0, ..., m_{2n-2}] is non-zero, else 0."""
    return next((r for r in range(n, 0, -1) if hankel_d(ms, n, r)), 0)


def stratum(X: Triple) -> int:
    """The unique r with d_r != 0 and d_i = 0 for all i > r."""
    return _top_stratum(moments(X, 2 * X.n - 1), X.n)


def stratum_of_point(a: InvariantPoint) -> int:
    return _top_stratum(extend_moments(a, 2 * a.n - 1), a.n)


def krylov_columns(X: Triple, r: int) -> list:
    """Columns b, Ab, ..., A^{r-1}b."""
    return la.krylov(X.A, X.b, r)


def dual_krylov_rows(X: Triple, r: int) -> list:
    """Rows c, cA, ..., cA^{r-1}."""
    return la.krylov(list(zip(*X.A)), X.c, r)


def canonical_decomposition(X: Triple) -> Decomposition:
    plus, minus = _summands(X, stratum(X))
    T = [list(col) for col in zip(*(plus + minus))]
    if len(plus) + len(minus) != X.n or la.det(T) == 0:
        raise AssertionError("canonical summands do not give a direct sum")
    return Decomposition(tuple(tuple(v) for v in plus), tuple(tuple(v) for v in minus))


def _summands(X: Triple, r: int) -> tuple:
    """Plus basis b, ..., A^{r-1}b and minus basis ker(c, ..., cA^{r-1}) of X of stratum r."""
    minus = la.nullspace(dual_krylov_rows(X, r)) if r else la.identity(X.n, one_like(X.A[0][0]))
    return krylov_columns(X, r), minus


def iota(Xp: Triple | None, Y: Triple) -> Triple:
    """Assemble the slice element from a regular triple on the plus summand
    and an arbitrary triple on the minus summand (block form, with the
    off-diagonal blocks forced by the normalized vectors b', c')."""
    if Xp is None or Xp.n == 0:
        return Y
    r = Xp.n
    if stratum(Xp) != r:
        raise ValueError("plus component must be regular on its space")
    zero, one = zero_like(Xp.A[0][0]), one_like(Xp.A[0][0])
    # c' A^i b = delta_{i,r-1}  and  c A^i b' = delta_{i,r-1}
    e_last = [zero] * (r - 1) + [one]
    c_prime = la.solve(krylov_columns(Xp, r), e_last)       # K^T x = e_r
    b_prime = la.solve(dual_krylov_rows(Xp, r), e_last)
    m = Y.n
    top = [list(Xp.A[i]) + [b_prime[i] * Y.c[j] for j in range(m)] for i in range(r)]
    bot = [[Y.b[i] * c_prime[j] for j in range(r)] + list(Y.A[i]) for i in range(m)]
    return Triple(top + bot, list(Xp.b) + [zero] * m, list(Xp.c) + [zero] * m)


def in_slice(X: Triple, r: int) -> bool:
    """Membership in the slice for the standard split (first r coordinates
    against the rest): the Krylov span is the plus summand and the dual
    Krylov annihilator is the minus summand."""
    n = X.n
    if r == 0:
        return True
    cols = krylov_columns(X, r)
    # span(b..A^{r-1}b) = first r coordinates
    top = [[v[i] for v in cols] for i in range(r)]
    if la.det(top) == 0:
        return False
    if any(v[i] for v in cols for i in range(r, n)):
        return False
    rows = dual_krylov_rows(X, r)
    if any(w[i] for w in rows for i in range(r, n)):
        return False
    if la.det([w[:r] for w in rows]) == 0:
        return False
    return True


def iota_inverse(X: Triple, r: int) -> tuple[Triple | None, Triple]:
    """Invert the slice map for the standard split; returns (plus, minus),
    with no plus component at r = 0."""
    if r == 0:
        return None, X
    if not in_slice(X, r):
        raise ValueError("triple does not lie in the slice for this split")
    n = X.n
    Ap = [list(X.A[i][:r]) for i in range(r)]
    Lp = [list(X.A[i][r:]) for i in range(r)]          # r x m
    Lm = [list(X.A[i][:r]) for i in range(r, n)]       # m x r
    Am = [list(X.A[i][r:]) for i in range(r, n)]
    bp = list(X.b[:r])
    cp = list(X.c[:r])
    Xp = Triple(Ap, bp, cp)
    v = la.mat_vec(Lm, krylov_columns(Xp, r)[-1])
    w = la.vec_mat(dual_krylov_rows(Xp, r)[-1], Lp)
    return Xp, Triple(Am, v, w)


def conjugate_to_slice(X: Triple) -> tuple:
    """Change of basis putting X into the standard slice position; returns
    (g, g.X, r) with g the basis-change matrix inverse."""
    r = stratum(X)
    return (*_to_slice(X, r)[1:], r)


def _to_slice(X: Triple, r: int) -> tuple:
    """(T, g, g.X) for X of stratum r, T its canonical basis and g = T^{-1}."""
    T = [list(col) for col in zip(*sum(_summands(X, r), []))]
    try:
        g = la.inverse(T)
    except ZeroDivisionError:
        raise AssertionError("canonical summands do not give a direct sum") from None
    return T, g, _conjugate(g, T, X)


def jordan(X: Triple) -> tuple[Triple, Triple]:
    """Relative Jordan decomposition X = X_s + X_n (semisimple invariant-
    preserving part plus nilpotent-invariant part)."""
    n = X.n
    r = stratum(X)
    if r == n:
        return X, X - X
    # in slice position X_s is the plus block beside the semisimple part of
    # the minus block, with the vector and covector of the plus block
    T, g, Y = _to_slice(X, r)
    zero = zero_like(X.A[0][0])
    As = la.block_diag([[row[:r] for row in Y.A[:r]],
                        la.semisimple_part([row[r:] for row in Y.A[r:]])], zero)
    pad = [zero] * (n - r)
    Xs = _conjugate(T, g, Triple(As, list(Y.b[:r]) + pad, list(Y.c[:r]) + pad))
    return Xs, X - Xs


def is_semisimple(X: Triple) -> bool:
    """Both canonical summands A-stable and A semisimple on the minus one,
    read from Krylov data in X's own basis.  At r = 0, b and c must vanish.
    For 0 < r < n, b is in the plus summand and c kills the minus one, and
    the summands are stable exactly when A^r b = sum alpha_i A^i b and
    c A^r = sum alpha_i c A^i, alpha solving (c A^{i+j} b) alpha = (c A^{r+j} b)."""
    n, ms = X.n, moments(X, 2 * X.n - 1)
    r, Am = _top_stratum(ms, n), X.A
    if r == n:
        return True
    if not r and (any(X.b) or any(X.c)):
        return False
    if r:
        alpha = la.solve([ms[i:i + r] for i in range(r)], ms[r:2 * r])
        cols, rows = krylov_columns(X, r + 1), dual_krylov_rows(X, r + 1)
        if la.vec_mat(alpha, cols[:r]) != cols[r] or la.vec_mat(alpha, rows[:r]) != rows[r]:
            return False
        # the minus block sends a basis vector v to A v read at the free columns:
        # v's own is its last non-zero entry, and the other basis vectors are 0 there
        minus = la.nullspace(rows[:r])
        free = [max(j for j, x in enumerate(v) if x) for v in minus]
        Am = la.mat_mul([X.A[f] for f in free], list(zip(*minus)))
    return la.is_zero_matrix(la.poly_apply(squarefree_part(la.charpoly(Am)), Am))


def pairing(X: Triple, Y: Triple):
    """trace(A_X A_Y) + c_X b_Y + c_Y b_X (the invariant symmetric form)."""
    if X.n != Y.n:
        raise ValueError("dimension mismatch")
    P = la.mat_mul(X.A, Y.A)
    tr = sum((P[i][i] for i in range(1, X.n)), P[0][0])
    return tr + la.dot(X.c, Y.b) + la.dot(Y.c, X.b)


def basis_matrix(X: Triple):
    """The matrix (b, Ab, ..., A^{n-1}b); invertible exactly on the open
    stratum."""
    return [list(row) for row in zip(*krylov_columns(X, X.n))]


def transfer_factor_eta(X: Triple, ctx: PLocalContext) -> int:
    """eta(det(b, Ab, ..., A^{n-1}b))^{-1} for a regular triple."""
    if stratum(X) != X.n:
        raise ValueError("transfer factor needs a regular semisimple triple")
    d = la.det(basis_matrix(X))
    return eta(d, ctx)                                  # a sign equals its inverse


def direct_sum(parts: list[Triple]) -> Triple:
    """Block-diagonal assembly of triples (the transverse-section embedding
    for identical base fields)."""
    return Triple(la.block_diag([p.A for p in parts], zero_like(parts[0].A[0][0])),
                  [x for p in parts for x in p.b], [x for p in parts for x in p.c])


def slice_compatibility_check(parts: list[Triple]) -> dict:
    """Compare the full moment determinant of a block-diagonal assembly with
    the discriminant-weighted product of the blocks' moment determinants.
    The two agree up to a sign; the ratio is reported and asserted to be a
    sign."""
    from .poly import discriminant

    X = direct_sum(parts)
    n = X.n
    lhs = d_r(X, n)
    chi = la.charpoly(X.A)
    disc_total = discriminant(chi) if n >= 1 else Fraction(1)
    if disc_total == 0:
        raise ZeroDivisionError("disc=0: blocks share an eigenvalue")
    rhs = disc_total
    for p in parts:
        chi_i = la.charpoly(p.A)
        disc_i = discriminant(chi_i) if p.n >= 1 else Fraction(1)
        if disc_i == 0:
            raise ZeroDivisionError("disc=0: a block is not regular semisimple")
        rhs = rhs * d_r(p, p.n) / disc_i
    if rhs == 0 or lhs == 0:
        raise ZeroDivisionError("degenerate block data (vanishing moment matrix)")
    ratio = lhs / rhs
    if ratio not in (1, -1):
        raise AssertionError(f"slice compatibility ratio {ratio} is not a sign")
    return {"lhs": lhs, "rhs": rhs, "ratio": ratio}
