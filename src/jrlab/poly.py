"""Univariate polynomials over an exact field (Fraction or EScalar).

Coefficients are stored in ascending order; the degree is the index of the
last nonzero coefficient.  The zero polynomial has degree -1.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import scalar_inverse


class Polynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- basic structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self):
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        if len(self.coeffs) != len(other.coeffs):
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    # -- arithmetic ----------------------------------------------------------

    def __mul__(self, other: "Polynomial"):
        if self.is_zero() or other.is_zero():
            return Polynomial([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Polynomial(out)

    def divmod(self, other: "Polynomial"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [0] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.degree
        inv_lead = scalar_inverse(other.lead)
        while len(rem) - 1 >= d and rem:
            while rem and not rem[-1]:
                rem.pop()
            if len(rem) - 1 < d or not rem:
                break
            k = len(rem) - 1 - d
            c = rem[-1] * inv_lead
            q[k] = c
            for i, b in enumerate(other.coeffs):
                rem[k + i] = rem[k + i] - c * b
            rem.pop()
        return Polynomial(q), Polynomial(rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        inv = scalar_inverse(self.lead)
        return Polynomial([c * inv for c in self.coeffs])

    def derivative(self) -> "Polynomial":
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        """Horner evaluation; x may be a scalar."""
        out = None
        for c in reversed(self.coeffs):
            out = c if out is None else out * x + c
        if out is None:
            return 0 * x
        return out


def monic_coeffs(p: Polynomial):
    """Return (a1, ..., an) with p = t^n + a1 t^{n-1} + ... + an (p monic)."""
    cs = list(reversed(p.coeffs))
    if not cs or cs[0] != 1:
        raise ValueError("polynomial is not monic")
    return cs[1:]


def gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd by the Euclidean algorithm."""
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.monic()


def squarefree_part(p: Polynomial) -> Polynomial:
    """p / gcd(p, p'); in characteristic 0 this is the radical of p."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    g = gcd(p, p.derivative())
    if g.degree <= 0:
        return p.monic()
    return (p // g).monic()


def is_squarefree(p: Polynomial) -> bool:
    return gcd(p, p.derivative()).degree <= 0


def sylvester_matrix(p: Polynomial, q: Polynomial):
    """Sylvester matrix of p and q (rows of p-coefficients then q-coefficients,
    descending order)."""
    m, n = p.degree, q.degree
    if m < 0 or n < 0:
        raise ValueError("resultant of the zero polynomial")
    size = m + n
    pc = list(reversed(p.coeffs))
    qc = list(reversed(q.coeffs))
    rows = []
    for i in range(n):
        rows.append([0] * i + pc + [0] * (size - i - len(pc)))
    for i in range(m):
        rows.append([0] * i + qc + [0] * (size - i - len(qc)))
    return rows

def resultant(p: Polynomial, q: Polynomial):
    """Resultant via the Sylvester determinant."""
    from .linalg import det

    m, n = p.degree, q.degree
    if m < 0 or n < 0:
        raise ValueError("resultant of the zero polynomial")
    if m + n == 0:
        return Fraction(1)
    return det(sylvester_matrix(p, q))


def discriminant(p: Polynomial):
    """disc(p) = (-1)^{d(d-1)/2} Res(p, p') / lead(p)."""
    d = p.degree
    if d <= 0:
        raise ValueError("discriminant needs degree >= 1")
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    r = resultant(p, p.derivative())
    return sign * r * scalar_inverse(p.lead)
