"""Exact scalar arithmetic: rationals with p-adic valuations, the
unramified inert quadratic extension with its Galois action, and quadratic
characters.

All scalars are exact.  A "p-local" number is an ordinary rational carried
together with a fixed odd prime p; valuations and residues are read off the
factorization of numerator and denominator, so there is no precision to
manage anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


# the extension's name on the wire (see serialize)
INERT = "inert"


class InfiniteValuation(ArithmeticError):
    """Raised when the valuation of 0 is requested."""


def smallest_nonresidue(p: int) -> int:
    """Smallest positive integer that is not a square modulo p (p odd)."""
    for a in range(2, p):
        if pow(a, (p - 1) // 2, p) != 1:
            return a
    raise ValueError(f"no quadratic non-residue below {p}; is {p} prime?")


def _is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class PLocalContext:
    """An odd residue characteristic p together with the unramified inert
    quadratic extension E of Q_p.

    E is generated by sqrt(eps) with eps the smallest positive non-residue
    mod p; eps is a unit, so the extension is unramified.
    """

    p: int

    def __post_init__(self):
        if not _is_odd_prime(self.p):
            raise ValueError(f"p must be an odd prime, got {self.p}")
        object.__setattr__(self, "eps", smallest_nonresidue(self.p))

    def embed(self, x) -> "EScalar":
        """Embed a rational into the quadratic extension."""
        return EScalar(Fraction(x), Fraction(0), self)

    def sqrt_eps(self) -> "EScalar":
        return EScalar(Fraction(0), Fraction(1), self)


def valuation(x, ctx: PLocalContext) -> int:
    """p-adic valuation of a nonzero rational, normalized by v(p) = 1."""
    x = Fraction(x)
    if x == 0:
        raise InfiniteValuation("valuation of 0 is infinite")
    p = ctx.p
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def residue(x, ctx: PLocalContext, k: int = 1) -> int:
    """Canonical representative of a p-integral rational mod p^k, in [0, p^k)."""
    x = Fraction(x)
    m = ctx.p ** k
    if x.denominator % ctx.p == 0:
        raise ValueError("not p-integral")
    return x.numerator * pow(x.denominator, -1, m) % m


def eta(x, ctx: PLocalContext) -> int:
    """The unramified quadratic character of the inert extension: (-1)^v(x)."""
    if Fraction(x) == 0:
        raise InfiniteValuation("eta undefined at 0")
    return -1 if valuation(x, ctx) % 2 else 1


def is_norm(x, ctx: PLocalContext) -> bool:
    """Whether x lies in the norm group of the quadratic extension.

    The extension is unramified and inert, so the norms are exactly the
    elements of even valuation.
    """
    if Fraction(x) == 0:
        raise ValueError("is_norm undefined at 0")
    return valuation(x, ctx) % 2 == 0


class EScalar:
    """Element of the quadratic extension attached to a PLocalContext.

    x + y*sqrt(eps) with x, y rational and conjugation
    sigma(x + y sqrt(eps)) = x - y sqrt(eps).
    """

    __slots__ = ("x", "y", "ctx")

    def __init__(self, x, y, ctx: PLocalContext):
        self.x = x if type(x) is Fraction else Fraction(x)
        self.y = y if type(y) is Fraction else Fraction(y)
        self.ctx = ctx

    # -- helpers -----------------------------------------------------------

    def _coerce(self, other):
        """The other operand as an element of this extension, or None when
        it is not a scalar; elements of different extensions (another p)
        never mix."""
        if isinstance(other, EScalar):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise ValueError(f"mixed contexts: {self.ctx} and {other.ctx}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.embed(other)
        return None

    def conj(self) -> "EScalar":
        return EScalar(self.x, -self.y, self.ctx)

    def norm(self) -> Fraction:
        """x * sigma(x), an element of F."""
        return self.x * self.x - self.ctx.eps * self.y * self.y

    def is_rational(self) -> bool:
        """Whether the element is fixed by sigma (lies in F)."""
        return self.y == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not in the base field")
        return self.x

    # -- ring/field structure ---------------------------------------------

    def __bool__(self):
        return self.x != 0 or self.y != 0

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.x == o.x and self.y == o.y

    def __hash__(self):
        # base-field elements equal their Fraction, so they hash like it
        if self.is_rational():
            return hash(self.x)
        return hash((self.x, self.y))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return EScalar(self.x + o.x, self.y + o.y, self.ctx)

    __radd__ = __add__

    def __neg__(self):
        return EScalar(-self.x, -self.y, self.ctx)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return EScalar(self.x - o.x, self.y - o.y, self.ctx)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return EScalar(o.x - self.x, o.y - self.y, self.ctx)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return EScalar(self.x * o.x + self.y * o.y * self.ctx.eps,
                       self.x * o.y + self.y * o.x, self.ctx)

    __rmul__ = __mul__

    def inverse(self) -> "EScalar":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of 0")
        return EScalar(self.x / n, -self.y / n, self.ctx)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.ctx.embed(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __repr__(self):
        return f"({self.x}+{self.y}*sqrt({self.ctx.eps}))"


# The scalar domain: int or Fraction entries live in Q, EScalar entries in
# their context's extension; `not x` tests zero in both.


def one_like(x):
    """1 in the scalar domain of x."""
    return x.ctx.embed(1) if isinstance(x, EScalar) else Fraction(1)


def zero_like(x):
    """0 in the scalar domain of x."""
    return x.ctx.embed(0) if isinstance(x, EScalar) else Fraction(0)


def scalar_inverse(x):
    """1 / x in the scalar domain of x."""
    return x.inverse() if isinstance(x, EScalar) else Fraction(1) / Fraction(x)


def valuation_ext(z: EScalar, ctx: PLocalContext) -> int:
    """Valuation on the inert quadratic extension, normalized by v(p) = 1.

    Unramified, so v extends v_p without index: v(z) = v_p(N(z)) / 2.
    """
    if not z:
        raise InfiniteValuation("valuation of 0 is infinite")
    vn = valuation(z.norm(), ctx)
    assert vn % 2 == 0, "norm valuation is always even at an inert place"
    return vn // 2


def eta_ext(z: EScalar, ctx: PLocalContext) -> int:
    """The unramified extension of eta to the quadratic extension:
    (-1)^v_E(z)."""
    return -1 if valuation_ext(z, ctx) % 2 else 1


def is_integral(x, ctx: PLocalContext) -> bool:
    """p-integrality; for EScalar at an inert place both coordinates must be
    p-integral (1, sqrt(eps) is an integral basis since eps is a unit)."""
    if isinstance(x, EScalar):
        return is_integral(x.x, ctx) and is_integral(x.y, ctx)
    return x.denominator % ctx.p != 0
