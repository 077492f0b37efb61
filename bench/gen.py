"""Seeded input generation and independent oracles for the benchmark.

Everything here is plain Python on `fractions.Fraction`: the generator calls
none of the program's samplers and imports nothing from `jrlab`, so the
inputs (and the oracle answers they are checked against) stay fixed when the
program's arithmetic is rewritten.  Extension scalars use the small `E`
class below, converted to the program's own type only at set-up.

Each workload's battery is a list of buckets; a bucket names the stratum,
dimension, prime and valuation its inputs must have, and how many it needs.
The generator builds candidates aimed at the bucket, measures what it got
with the oracles, and counts requested against achieved.  A bucket that
falls short raises `ShortBucket`, which fails the run.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

ALGEBRA_P = 3
EPS = 2          # smallest quadratic non-residue mod ALGEBRA_P


class ShortBucket(RuntimeError):
    """A bucket could not be filled within its attempt budget."""


# ---------------------------------------------------------------------------
# exact arithmetic for the oracles: Q(sqrt(eps)) as pairs of Fractions


class E:
    """x + y*sqrt(EPS), with conjugation y -> -y."""

    __slots__ = ("x", "y")

    def __init__(self, x, y=0):
        self.x, self.y = F(x), F(y)

    @staticmethod
    def _lift(o):
        return o if isinstance(o, E) else E(o)

    def __add__(self, o):
        o = self._lift(o)
        return E(self.x + o.x, self.y + o.y)

    __radd__ = __add__

    def __sub__(self, o):
        o = self._lift(o)
        return E(self.x - o.x, self.y - o.y)

    def __rsub__(self, o):
        return self._lift(o) - self

    def __neg__(self):
        return E(-self.x, -self.y)

    def __mul__(self, o):
        o = self._lift(o)
        return E(self.x * o.x + EPS * self.y * o.y, self.x * o.y + self.y * o.x)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = self._lift(o)
        n = o.x * o.x - EPS * o.y * o.y
        return self * E(o.x / n, -o.y / n)

    def __eq__(self, o):
        o = self._lift(o)
        return self.x == o.x and self.y == o.y

    __hash__ = None

    def __bool__(self):
        return bool(self.x) or bool(self.y)

    def conj(self):
        return E(self.x, -self.y)


def conj(z):
    return z.conj() if isinstance(z, E) else z


def mat_mul(A, B):
    return [[sum((a * b for a, b in zip(row, col)), F(0)) for col in zip(*B)]
            for row in A]


def mat_vec(A, v):
    return [sum((a * x for a, x in zip(row, v)), F(0)) for row in A]


def vec_dot(u, v):
    return sum((a * b for a, b in zip(u, v)), F(0))


def conj_t(A):
    return [[conj(a) for a in col] for col in zip(*A)]


def det(M):
    """Determinant by Gaussian elimination over Q or E."""
    M = [list(r) for r in M]
    n = len(M)
    d = F(1)
    for j in range(n):
        piv = next((i for i in range(j, n) if M[i][j]), None)
        if piv is None:
            return F(0)
        if piv != j:
            M[j], M[piv] = M[piv], M[j]
            d = -d
        d = d * M[j][j]
        for i in range(j + 1, n):
            if M[i][j]:
                f = M[i][j] / M[j][j]
                M[i] = [a - f * b for a, b in zip(M[i], M[j])]
    return d


def hankel_det(ms, r):
    return det([[ms[i + j] for j in range(r)] for i in range(r)]) if r else F(1)


def stratum_of_moments(ms, n):
    """Largest r <= n with a nonzero r x r Hankel determinant of the moments
    (ms holds at least 2n - 1 of them)."""
    for r in range(n, 0, -1):
        if hankel_det(ms, r) != 0:
            return r
    return 0


def gl_moments(A, b, c, count):
    """c A^k b for k < count, by plain matrix-vector powers."""
    out, v = [], list(b)
    for _ in range(count):
        out.append(vec_dot(c, v))
        v = mat_vec(A, v)
    return out


def u_moments(G, A, b, count):
    """Phi(b, A^k b) = sigma(b)^T G A^k b for k < count (rational values)."""
    out, v = [], list(b)
    bg = [sum((conj(x) * g for x, g in zip(b, col)), F(0)) for col in zip(*G)]
    for _ in range(count):
        m = vec_dot(bg, v)
        if m.y != 0:
            raise ArithmeticError("hermitian moment left the base field")
        out.append(m.x)
        v = mat_vec(A, v)
    return out


def valuation(x: F, p: int) -> int:
    x = F(x)
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


# ---------------------------------------------------------------------------
# random building blocks


def _rq(rng, lo=-2, hi=2):
    return F(rng.randint(lo, hi))


def _re(rng, lo=-1, hi=1):
    return E(rng.randint(lo, hi), rng.randint(lo, hi))


def unimodular(rng, n, scalar):
    """A product of elementary row operations with its inverse; `scalar`
    draws the multipliers."""
    g = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    gi = [row[:] for row in g]
    for _ in range(n + 1 if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        k = scalar(rng)
        if not k:
            continue
        g[i] = [a + k * b for a, b in zip(g[i], g[j])]
        for row in gi:
            row[j] = row[j] - row[i] * k
    return g, gi


def _nonzero_unit(rng, p):
    while True:
        u = rng.randint(-4, 4)
        if u % p:
            return u


# ---------------------------------------------------------------------------
# algebra: triples, hermitian pairs, slice block sums, Cayley round trips


def gl_triple(rng, n, r):
    """(A, b, c) of dimension n and stratum r.

    r = n: dense random.  0 < r < n: a regular r-block carrying b and c,
    a lower-left coupling into an (n - r)-block that alternates between a
    random block and a non-semisimple one (lambda*I plus a strictly upper
    part, which sends the Jordan decomposition through Newton's iteration),
    all conjugated by a unimodular matrix.  r = 0: the vector vanishes.
    """
    if r == n:
        A = [[_rq(rng) for _ in range(n)] for _ in range(n)]
        return A, [_rq(rng) for _ in range(n)], [_rq(rng) for _ in range(n)]
    m = n - r
    Ap = [[_rq(rng) for _ in range(r)] for _ in range(r)]
    if rng.random() < 0.5:
        lam = _rq(rng)
        Am = [[lam if i == j else (_rq(rng, -1, 1) if j > i else F(0))
               for j in range(m)] for i in range(m)]
    else:
        Am = [[_rq(rng) for _ in range(m)] for _ in range(m)]
    A = [[Ap[i][j] if i < r and j < r else
          (Am[i - r][j - r] if i >= r and j >= r else
           (_rq(rng, -1, 1) if i >= r else F(0)))
          for j in range(n)] for i in range(n)]
    b = [_rq(rng) if i < r else F(0) for i in range(n)]
    c = [_rq(rng) if i < r else F(0) for i in range(n)]
    if r == 0:
        c = [_rq(rng) for _ in range(n)]
    g, gi = unimodular(rng, n, lambda rg: rg.choice((-1, 1)))
    return (mat_mul(mat_mul(g, A), gi), mat_vec(g, b),
            [vec_dot(c, col) for col in zip(*gi)])


def gl_stratum(A, b, c):
    n = len(A)
    return stratum_of_moments(gl_moments(A, b, c, 2 * n - 1), n)


def _selfadjoint_block(rng, diag):
    """A matrix self-adjoint for the diagonal form diag (rational entries)."""
    m = len(diag)
    A = [[E(0) for _ in range(m)] for _ in range(m)]
    for i in range(m):
        A[i][i] = E(_rq(rng))
        for j in range(i + 1, m):
            z = _re(rng)
            A[i][j] = z
            A[j][i] = z.conj() * (diag[i] / diag[j])
    return A


def u_pair(rng, n, r):
    """(G, A, b) over E: a hermitian form, a self-adjoint A and a vector with
    u-stratum r.  Built on a diagonal form in block shape (the minus block
    is non-semisimple half the time when it has room for an isotropic
    plane), then moved by a change of basis P of determinant 1:
    G = P^* G0 P, A = P^{-1} A0 P, b = P^{-1} b0."""
    m = n - r
    nonss = m >= 2 and rng.random() < 0.5
    diag = [F(rng.choice((1, -1, 2, 3))) for _ in range(r)]
    if nonss:
        diag += [F(1), F(-1)] + [F(rng.choice((1, -1, 2, 3))) for _ in range(m - 2)]
    else:
        diag += [F(rng.choice((1, -1, 2, 3))) for _ in range(m)]
    Ap = _selfadjoint_block(rng, diag[:r])
    if nonss:
        lam = _rq(rng)
        Am = [[E(0) for _ in range(m)] for _ in range(m)]
        Am[0][0], Am[0][1], Am[1][0], Am[1][1] = E(lam + 1), E(1), E(-1), E(lam - 1)
        for i in range(2, m):
            Am[i][i] = E(_rq(rng))
    else:
        Am = _selfadjoint_block(rng, diag[r:])
    A0 = [[Ap[i][j] if i < r and j < r else
           (Am[i - r][j - r] if i >= r and j >= r else E(0))
           for j in range(n)] for i in range(n)]
    b0 = [_re(rng) if i < r else E(0) for i in range(n)]
    if r == n:
        b0 = [_re(rng) for _ in range(n)]
    G0 = [[E(diag[i]) if i == j else E(0) for j in range(n)] for i in range(n)]
    P, Pi = _basis_change(rng, n)
    G = mat_mul(conj_t(P), mat_mul(G0, P))
    return G, mat_mul(Pi, mat_mul(A0, P)), mat_vec(Pi, b0)


def _basis_change(rng, n):
    g, gi = unimodular(rng, n, _re)
    lift = lambda M: [[x if isinstance(x, E) else E(x) for x in row] for row in M]
    return lift(g), lift(gi)


def u_stratum(G, A, b):
    n = len(A)
    return stratum_of_moments(u_moments(G, A, b, 2 * n - 1), n)


def slice_parts(rng, k):
    """k blocks of size 1 or 2 with pairwise distinct integer eigenvalues
    (so the total discriminant is nonzero) and nonzero top moment
    determinants; None when a block finds no such moments."""
    eig = rng.sample(range(-6, 7), 2 * k)
    parts = []
    for i in range(k):
        size = rng.choice((1, 2))
        for _ in range(100):
            if size == 1:
                A = [[F(eig[2 * i])]]
            else:
                T = [[F(eig[2 * i]), _rq(rng, -1, 1)], [F(0), F(eig[2 * i + 1])]]
                g, gi = unimodular(rng, 2, lambda rg: rg.choice((-1, 1)))
                A = mat_mul(mat_mul(g, T), gi)
            b = [_rq(rng) for _ in range(size)]
            c = [_rq(rng) for _ in range(size)]
            if gl_stratum(A, b, c) == size:
                parts.append((A, b, c))
                break
        else:
            return None
    return parts


def cayley_input(rng, N):
    """A rational N x N matrix Y and a self-adjoint pair on an N-dimensional
    form, or None when either has a Cayley pole (sqrt(eps) is an
    eigenvalue)."""
    tau = E(0, 1)
    Y = [[_rq(rng, -3, 3) for _ in range(N)] for _ in range(N)]
    G, A, _ = u_pair(rng, N, N)
    if _no_pole(Y, tau) and _no_pole(A, tau):
        return Y, G, A
    return None


def _no_pole(Y, tau):
    n = len(Y)
    ti = E(1) / tau
    return bool(det([[E(int(i == j)) - ti * Y[i][j] for j in range(n)] for i in range(n)]))


# ---------------------------------------------------------------------------
# lattice: invariant points with a target valuation of the top moment
# determinant


def point_for_valuation(rng, p, n, v):
    """Integral (a, b) with v_p(d_n) = v, built directly.

    n = 1: b1 = unit * p^v.  n = 2: with d_2 = -a2 b1^2 - a1 b1 b2 - b2^2,
    take b1 = unit * p^k, b2 in p^(k+1) Z and a2 = unit * p^(v mod 2), where
    k = v // 2; for odd v also a1 in pZ, so the first term alone sets v.
    """
    if n == 1:
        return (F(rng.randint(-p, p)),), (F(_nonzero_unit(rng, p) * p ** v),)
    k, odd = divmod(v, 2)
    a1 = p * rng.randint(-1, 1) if odd else rng.randint(-2, 2)
    a2 = _nonzero_unit(rng, p) * p ** odd
    b1 = _nonzero_unit(rng, p) * p ** k
    b2 = rng.randint(-1, 1) * p ** (k + 1)
    return (F(a1), F(a2)), (F(b1), F(b2))


def extend_moments(a, b, count):
    ms = list(b)
    while len(ms) < count:
        ms.append(-sum(ai * ms[-1 - i] for i, ai in enumerate(a)))
    return ms


def point_valuation(a, b, p):
    n = len(a)
    d = hankel_det(extend_moments(a, b, 2 * n - 1), n)
    return None if d == 0 else valuation(d, p)


# ---------------------------------------------------------------------------
# batteries


# (kind, n, r): units per pass.  GL triples n = 1..6 and hermitian pairs
# n = 1..5 at p = 3; one third of each is non-regular (r < n), a smaller
# share are slice block sums and Cayley round trips.
ALGEBRA = (
    [("gl", n, n, 4) for n in range(1, 7)]
    + [("gl", n, r, 1) for n in range(2, 7) for r in sorted({n - 1, n // 2})]
    + [("gl", n, 0, 1) for n in (2, 4)]
    + [("u", n, n, 3) for n in range(1, 6)]
    + [("u", n, r, 1) for n in range(2, 6) for r in sorted({n - 1, n // 2})]
    + [("u", n, 0, 1) for n in (2, 3)]
    + [("slice", k, None, 2) for k in (2, 3)]
    + [("cayley", N, None, 2) for N in (2, 3)]
)

# (p, n, v): units per pass.  n = 1 at p in {3, 5, 7} with v <= 8; n = 2
# with v(d_2) in 0..4 at p = 3 and 0..2 at p = 5.  p = 5 at v = 4 costs
# minutes per point and is left out.
LATTICE = (
    [(p, 1, v, 2) for p in (3, 5, 7) for v in range(9)]
    + [(3, 2, v, c) for v, c in ((0, 6), (1, 6), (2, 6), (3, 4), (4, 1))]
    + [(5, 2, v, c) for v, c in ((0, 4), (1, 4), (2, 2))]
)

# (subcommand, argv template, calls per pass): the two kinds are sized to
# cost about the same per call; thirty calls put ten beyond the 66th
# percentile, and two passes fit in a 30 s run.
COMBINATORICS = (
    ("cones", ["cones", "--n", "2", "--grid", "60", "--instances", "64"], 15),
    ("chambers", ["chambers", "--m", "4", "--instances", "2"], 15),
)

TINY = {
    "algebra": [("gl", 2, 2, 1), ("gl", 3, 1, 1), ("u", 2, 2, 1), ("u", 3, 1, 1),
                ("slice", 2, None, 1), ("cayley", 2, None, 1)],
    "lattice": [(3, 1, 2, 1), (3, 2, 1, 1), (3, 2, 2, 1)],
    "combinatorics": [("cones", ["cones", "--n", "2", "--grid", "1", "--instances", "8"], 1),
                      ("chambers", ["chambers", "--m", "3", "--instances", "1"], 1)],
}


def battery(workload, seed, tiny=False):
    """The workload's units for one pass, in a seeded order, with the
    requested/achieved count of every bucket.  Units are plain dicts of
    oracle-checked raw data."""
    rng = random.Random(f"{workload}:{seed}")
    spec = TINY[workload] if tiny else {"algebra": ALGEBRA, "lattice": LATTICE,
                                        "combinatorics": COMBINATORICS}[workload]
    make = {"algebra": _algebra_bucket, "lattice": _lattice_bucket,
            "combinatorics": _combinatorics_bucket}[workload]
    units, buckets = [], []
    for entry in spec:
        *key, count = entry
        got = make(rng, *key, count)
        buckets.append({"bucket": _bucket_name(workload, key), "requested": count,
                        "achieved": len(got)})
        if len(got) < count:
            raise ShortBucket(f"{workload} bucket {key}: {len(got)}/{count}")
        units += got
    rng.shuffle(units)
    return units, buckets


def _bucket_name(workload, key):
    if workload == "algebra":
        kind, n, r = key
        return f"{kind}:n={n}" + (f":r={r}" if r is not None else "")
    if workload == "lattice":
        p, n, v = key
        return f"p={p}:n={n}:v={v}"
    return key[0]


def _algebra_bucket(rng, kind, n, r, count, tries=40):
    out = []
    for _ in range(tries * count):
        if len(out) == count:
            break
        if kind == "gl":
            A, b, c = gl_triple(rng, n, r)
            if gl_stratum(A, b, c) == r:
                out.append({"kind": "gl", "n": n, "r": r, "A": A, "b": b, "c": c})
        elif kind == "u":
            G, A, b = u_pair(rng, n, r)
            if det(G) and u_stratum(G, A, b) == r:
                out.append({"kind": "u", "n": n, "r": r, "G": G, "A": A, "b": b})
        elif kind == "slice":
            parts = slice_parts(rng, n)
            if parts:
                out.append({"kind": "slice", "n": n, "parts": parts})
        else:
            got = cayley_input(rng, n)
            if got:
                Y, G, A = got
                out.append({"kind": "cayley", "n": n, "Y": Y, "G": G, "A": A})
    return out


def _lattice_bucket(rng, p, n, v, count, tries=40):
    out = []
    for _ in range(tries * count):
        if len(out) == count:
            break
        a, b = point_for_valuation(rng, p, n, v)
        if point_valuation(a, b, p) == v:
            out.append({"kind": "point", "p": p, "n": n, "v": v, "a": a, "b": b})
    return out


def _combinatorics_bucket(rng, kind, argv, count):
    return [{"kind": kind, "argv": argv + ["--seed", str(rng.randint(0, 10 ** 6)),
                                           "--json-only"]}
            for _ in range(count)]
