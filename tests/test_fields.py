import random
from fractions import Fraction as F

import pytest

from jrlab.fields import (EScalar, InfiniteValuation, PLocalContext, eta,
                          is_integral, is_norm, residue, smallest_nonresidue,
                          valuation, valuation_ext)
from jrlab.poly import (Polynomial, discriminant, gcd, is_squarefree,
                        resultant, squarefree_part)


CTX3 = PLocalContext(3)
CTX5 = PLocalContext(5)


def test_valuation_examples():
    assert valuation(1, CTX3) == 0
    assert valuation(F(9, 2), CTX3) == 2
    assert valuation(F(1, 27), CTX3) == -3
    with pytest.raises(InfiniteValuation):
        valuation(0, CTX3)


def test_valuation_multiplicative():
    rng = random.Random(0)
    for _ in range(200):
        x = F(rng.randint(1, 200), rng.randint(1, 200)) * F(3) ** rng.randint(-3, 3)
        y = F(rng.randint(1, 200), rng.randint(1, 200)) * F(3) ** rng.randint(-3, 3)
        assert valuation(x * y, CTX3) == valuation(x, CTX3) + valuation(y, CTX3)


def test_eta_examples_and_multiplicativity():
    assert eta(3, CTX3) == -1
    assert eta(2, CTX3) == 1
    assert eta(9, CTX3) == 1
    assert eta(5, CTX5) == -1
    assert eta(F(3, 25), CTX5) == 1
    rng = random.Random(1)
    for _ in range(200):
        x = F(rng.choice([1, 2, 4, 5])) * F(3) ** rng.randint(-4, 4)
        y = F(rng.choice([1, 2, 7])) * F(3) ** rng.randint(-4, 4)
        assert eta(x * y, CTX3) == eta(x, CTX3) * eta(y, CTX3)


def test_nonresidue_choice():
    assert smallest_nonresidue(3) == 2
    assert smallest_nonresidue(5) == 2
    assert smallest_nonresidue(7) == 3


def test_conjugation_involution_and_norm():
    rng = random.Random(2)
    for ctx in (CTX3, CTX5):
        for _ in range(100):
            z = EScalar(F(rng.randint(-9, 9)), F(rng.randint(-9, 9)), ctx)
            assert z.conj().conj() == z
            w = EScalar(F(rng.randint(-9, 9)), F(rng.randint(-9, 9)), ctx)
            assert (z * w).norm() == z.norm() * w.norm()


def test_norm_trace_examples():
    se = CTX3.sqrt_eps()
    assert se.norm() == F(-2) and se + se.conj() == 0
    assert CTX3.embed(1).norm() == F(1)
    z = EScalar(F(4), F(7), CTX5)
    assert z.norm() == F(16 - 2 * 49) and z + z.conj() == 8


def brute_norm_values_mod(ctx, k):
    """Independent oracle: all values of the norm map on residue classes
    mod p^k, for units and p-multiples separately."""
    p = ctx.p
    eps = ctx.eps
    vals = set()
    m = p ** k
    for x in range(m):
        for y in range(m):
            vals.add((x * x - eps * y * y) % m)
    return vals


def test_is_norm_against_enumeration():
    # norms of the unramified extension are exactly the even-valuation
    # elements: verified by enumerating N(x) mod p^3 over residue classes
    for ctx in (CTX3, CTX5):
        p = ctx.p
        vals = brute_norm_values_mod(ctx, 3)
        units_hit = {v % p for v in vals if v % p != 0}
        assert units_hit == set(range(1, p)), "every unit class is a norm"
        # an exact-p valuation-1 element is never a norm: N(p^a u) has even v
        assert not is_norm(p, ctx)
        assert is_norm(p * p * 2, ctx)
        assert is_norm(F(1, 2), ctx)


def test_norm_parity_arithmetic():
    rng = random.Random(3)
    for _ in range(200):
        x = F(rng.choice([1, 2, 4])) * F(3) ** rng.randint(-3, 3)
        y = F(rng.choice([1, 5, 7])) * F(3) ** rng.randint(-3, 3)
        assert is_norm(x * y, CTX3) == (is_norm(x, CTX3) == is_norm(y, CTX3))


def test_extension_valuation():
    z = EScalar(F(3), F(6), CTX3)
    assert valuation_ext(z, CTX3) == 1
    assert valuation_ext(CTX3.embed(9), CTX3) == 2
    assert valuation_ext(CTX3.sqrt_eps(), CTX3) == 0


def test_inverse_and_zero_divisor():
    z = EScalar(F(2), F(5), CTX5)
    assert z * z.inverse() == CTX5.embed(1)
    with pytest.raises(ZeroDivisionError):
        CTX5.embed(0).inverse()


def test_residue_and_integrality():
    assert residue(F(7, 2), CTX3, 2) == 8
    assert is_integral(F(1, 2), CTX3)
    assert not is_integral(F(1, 3), CTX3)
    assert is_integral(EScalar(F(1), F(2), CTX3), CTX3)
    assert not is_integral(EScalar(F(1, 3), F(0), CTX3), CTX3)


# -- polynomial utilities ----------------------------------------------------


def sylvester_resultant_oracle(p_desc, q_desc):
    """Independent determinant expansion over fractions (cofactor)."""
    from jrlab.poly import sylvester_matrix
    P = Polynomial(list(reversed(p_desc)))
    Q = Polynomial(list(reversed(q_desc)))
    M = sylvester_matrix(P, Q)

    def det(m):
        if len(m) == 1:
            return m[0][0]
        out = F(0)
        for j, x in enumerate(m[0]):
            if x == 0:
                continue
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            out += (-1) ** j * F(x) * det(minor)
        return out

    return det([[F(x) for x in row] for row in M])


def test_resultant_examples():
    # Res(t-1, t-2) frozen from the 2x2 Sylvester determinant: -1
    P = Polynomial([F(-1), F(1)])
    Q = Polynomial([F(-2), F(1)])
    assert resultant(P, Q) == -1
    assert sylvester_resultant_oracle([1, -1], [1, -2]) == -1


def test_discriminant_example():
    # disc(t^2-1) = -Res(t^2-1, 2t) = 4
    P = Polynomial([F(-1), F(0), F(1)])
    assert discriminant(P) == 4
    assert -sylvester_resultant_oracle([1, 0, -1], [2, 0]) == 4


def test_resultant_swap_sign_and_gcd():
    rng = random.Random(4)
    for _ in range(60):
        dp = rng.randint(1, 3)
        dq = rng.randint(1, 3)
        P = Polynomial([F(rng.randint(-4, 4)) for _ in range(dp)] + [F(1)])
        Q = Polynomial([F(rng.randint(-4, 4)) for _ in range(dq)] + [F(1)])
        r1 = resultant(P, Q)
        r2 = resultant(Q, P)
        assert r1 == (-1) ** (P.degree * Q.degree) * r2
        assert (r1 == 0) == (gcd(P, Q).degree > 0)


def test_resultant_vanishes_iff_common_factor():
    rng = random.Random(5)
    for _ in range(60):
        root = F(rng.randint(-4, 4))
        lin = Polynomial([-root, F(1)])
        A = lin * Polynomial([F(rng.randint(-3, 3)), F(1)])
        B = lin * Polynomial([F(rng.randint(-3, 3)), F(1)])
        assert resultant(A, B) == 0
    P = Polynomial([F(1), F(1)])
    Q = Polynomial([F(2), F(1)])
    assert resultant(P, Q) != 0


def test_squarefree_part():
    t = Polynomial([F(0), F(1)])
    P = (t * t) * Polynomial([F(-1), F(1)])
    sf = squarefree_part(P)
    assert sf == (t * Polynomial([F(-1), F(1)])).monic()
    assert is_squarefree(sf)


def test_escalar_refuses_mixed_contexts():
    a, b = CTX3.embed(2) + CTX3.sqrt_eps(), CTX5.embed(3)
    for op in (lambda: a * b, lambda: a + b, lambda: a - b, lambda: a / b,
               lambda: a == b, lambda: b * a, lambda: b + a, lambda: b - a,
               lambda: b == a):
        with pytest.raises(ValueError):
            op()
    # an equal context built separately is the same extension
    assert a * PLocalContext(3).embed(2) == a + a


@pytest.mark.parametrize("ctx", [CTX3, CTX5], ids=["p3", "p5"])
def test_escalar_base_field_hashes_like_fraction(ctx):
    assert ctx.embed(3) == 3 and hash(ctx.embed(3)) == hash(3)
    assert hash(ctx.embed(F(1, 2))) == hash(F(1, 2))
    assert len({ctx.embed(3), 3}) == 1
    with pytest.raises(TypeError):
        ctx.embed(1) * 1.5
    # an int or Fraction operand is embedded, anything else refused
    a = ctx.embed(3) + 2 * ctx.sqrt_eps()
    for got, want in ((a + 2, a + ctx.embed(2)), (a - 2, a - ctx.embed(2)),
                      (a * F(1, 2), a * ctx.embed(F(1, 2))), (a / 3, a / ctx.embed(3))):
        assert type(got) is EScalar and (got.x, got.y) == (want.x, want.y)
    for bad in (1.5, "1"):
        with pytest.raises(TypeError):
            a + bad
        with pytest.raises(TypeError):
            a - bad
