"""`linalg.dot`, and the kernels that scale each operand once (`mat_mul`,
`mat_vec`, `vec_mat`, `krylov`, `moment_sequence`), against term-by-term
loops on int, Fraction and EScalar entries and their mixes: equal values of
the same type (and context), and no silent mixing of contexts there or in
the elimination kernels.  `inverse` against the reduced form of [A | I]."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from jrlab import linalg as la
from jrlab.fields import EScalar, PLocalContext, one_like

CTXS = {3: PLocalContext(3), 5: PLocalContext(5)}


def ref_dot(u, v):
    """The loop `dot` ran before its integer kernel: one Fraction (or
    EScalar) normalisation per term."""
    it = iter(zip(u, v))
    a, b = next(it)
    s = a * b
    for a, b in it:
        s = s + a * b
    return s


def ref_mat_mul(A, B):
    return [[ref_dot(row, col) for col in zip(*B)] for row in A]


def ref_mat_vec(A, v):
    return [ref_dot(row, v) for row in A]


def ref_vec_mat(v, A):
    return [ref_dot(v, col) for col in zip(*A)]


def ref_krylov(A, v, count):
    out = [list(v)] if count else []
    while len(out) < count:
        out.append(ref_mat_vec(A, out[-1]))
    return out


def ref_moment_sequence(c, A, b, count):
    return [ref_dot(c, w) for w in ref_krylov(A, b, count)]


def _same(x, y):
    if type(x) is list:
        assert type(y) is list and len(x) == len(y)
        for a, b in zip(x, y):
            _same(a, b)
        return
    assert x == y and type(x) is type(y)
    if isinstance(x, EScalar):
        assert x.ctx is y.ctx and type(x.x) is type(y.x) is F and type(x.y) is type(y.y) is F


# small and large denominators, and plenty of zeros
_den = st.sampled_from([1, 1, 2, 3, 9, 10 ** 12 + 39, 3 ** 30])
_frac = st.one_of(st.just(F(0)), st.builds(F, st.integers(-10 ** 6, 10 ** 6), _den))
_int_or_frac = st.one_of(st.integers(-50, 50), _frac)


def _pairs(elem, max_size=6):
    return st.integers(1, max_size).flatmap(
        lambda n: st.tuples(st.lists(elem, min_size=n, max_size=n),
                            st.lists(elem, min_size=n, max_size=n)))


@settings(max_examples=300, deadline=None)
@given(_pairs(_frac))
def test_dot_over_q_matches_the_loop(uv):
    _same(la.dot(*uv), ref_dot(*uv))


@settings(max_examples=200, deadline=None)
@given(_pairs(_int_or_frac))
def test_dot_over_mixed_int_and_fraction_matches_the_loop(uv):
    _same(la.dot(*uv), ref_dot(*uv))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(CTXS)), st.data())
def test_dot_over_the_inert_extension_matches_the_loop(p, data):
    ctx = CTXS[p]
    u, v = data.draw(_pairs(st.builds(EScalar, _frac, _frac, st.just(ctx))))
    _same(la.dot(u, v), ref_dot(u, v))


@pytest.mark.parametrize("rational", [st.integers(-50, 50), _frac], ids=["int", "Fraction"])
@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from(sorted(CTXS)), data=st.data())
def test_dot_over_rationals_mixed_with_the_extension_matches_the_loop(rational, p, data):
    ctx = CTXS[p]
    u, v = data.draw(_pairs(st.one_of(rational, st.builds(EScalar, _frac, _frac, st.just(ctx)))))
    _same(la.dot(u, v), ref_dot(u, v))


def test_dot_edge_cases():
    ctx = CTXS[3]
    _same(la.dot([F(3, 7)], [F(-7, 3)]), F(-1))
    _same(la.dot([F(0)] * 3, [F(1, 2)] * 3), F(0))
    z = ctx.embed(0)
    _same(la.dot([z, z], [EScalar(1, 2, ctx)] * 2), ref_dot([z, z], [EScalar(1, 2, ctx)] * 2))
    _same(la.dot([3, 4], [5, 6]), 39)
    big = F(1, 3 ** 40)
    _same(la.dot([big, big], [big, -big]), F(0))


def test_mixed_contexts_still_raise():
    a, b = EScalar(1, 1, CTXS[3]), EScalar(1, 1, CTXS[5])
    with pytest.raises(ValueError):
        la.dot([a, b], [a, a])
    with pytest.raises(ValueError):
        la.dot([a, a], [a, b])
    with pytest.raises(ValueError):
        la.mat_mul([[a, a]], [[a], [b]])
    with pytest.raises(ValueError):
        la.mat_mul([[a, b]], [[a], [a]])
    with pytest.raises(ValueError):
        la.dot([F(1), a], [b, 2])
    for f in (la.det, la.inverse, la.rref, la.charpoly):
        with pytest.raises(ValueError):
            f([[a, a], [b, a]])
    # equal contexts that are distinct objects mix, as they always did
    twin = EScalar(2, 1, PLocalContext(3))
    _same(la.dot([a, twin], [a, a]), ref_dot([a, twin], [a, a]))


# equal to CTXS[3] but a distinct object
TWIN = PLocalContext(3)
_small = st.builds(F, st.integers(-9, 9), st.sampled_from([1, 2, 3, 10 ** 6 + 3]))


def _escalar(*ctxs):
    return st.builds(EScalar, _small, _small, st.sampled_from(ctxs))


# entry strategies, each with the one for the left operand of a product: with
# twin contexts a sum takes the context of its first term's EScalar and the
# kernels that of the left operand's first EScalar, which agree when the left
# operand has EScalars only
KERNEL_DOMAINS = {
    "Q-int": (st.integers(-9, 9),) * 2,
    "Q-Fraction": (_small,) * 2,
    "Q-mixed": (st.one_of(st.integers(-9, 9), _small),) * 2,
    "E": (_escalar(CTXS[3]),) * 2,
    "E-with-ints": (st.one_of(st.integers(-9, 9), _escalar(CTXS[3])),) * 2,
    "E-with-rationals": (st.one_of(st.integers(-9, 9), _small, _escalar(CTXS[3])),) * 2,
    "E-twins": (_escalar(CTXS[3], TWIN),
                st.one_of(st.integers(-9, 9), _escalar(CTXS[3], TWIN))),
}


def _kernel_inputs(left, right):
    """A square matrix whose rows use the left entries, a matrix and vectors
    of the right entries, a left vector and a count, at n = 1..6."""
    return st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.lists(st.lists(left, min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(st.lists(right, min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(left, min_size=n, max_size=n),
        st.lists(right, min_size=n, max_size=n),
        st.integers(0, 2 * n)))


@pytest.mark.parametrize("domain", sorted(KERNEL_DOMAINS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_products_and_krylov_data_match_the_loops(domain, data):
    A, B, c, v, count = data.draw(_kernel_inputs(*KERNEL_DOMAINS[domain]))
    _same(la.mat_mul(A, B), ref_mat_mul(A, B))
    _same(la.mat_vec(A, v), ref_mat_vec(A, v))
    _same(la.vec_mat(c, B), ref_vec_mat(c, B))
    _same(la.krylov(A, v, count), ref_krylov(A, v, count))
    _same(la.moment_sequence(c, A, v, count), ref_moment_sequence(c, A, v, count))


def test_krylov_keeps_each_rows_type():
    """Rows of ints, of Fractions and over E give entries of their own type
    (the context of each row's first EScalar), as one product per entry
    does."""
    e, t = EScalar(1, 1, CTXS[3]), EScalar(0, 2, TWIN)
    A = [[1, 2, 0], [F(1, 2), 0, 1], [t, 1, e]]
    for v in ([1, 0, 2], [F(1, 3), 0, 1], [1, e, 0]):
        got, want = la.krylov(A, v, 4), ref_krylov(A, v, 4)
        _same(got, want)
        assert got[1][2].ctx is TWIN
        _same(la.moment_sequence([e, 1, 0], A, v, 4), ref_moment_sequence([e, 1, 0], A, v, 4))
    # a row without EScalars takes the context of the vector's first one,
    # which after a step is that of row 0
    A, v = [[t, 1, 0], [1, 2, 0], [0, 1, 1]], [1, e, 0]
    got = la.krylov(A, v, 3)
    _same(got, ref_krylov(A, v, 3))
    assert got[1][1].ctx is CTXS[3] and got[2][1].ctx is TWIN
    _same(la.moment_sequence([1, 0, 1], A, v, 3), ref_moment_sequence([1, 0, 1], A, v, 3))
    _same(la.krylov([[2]], [3], 3), [[3], [6], [12]])
    _same(la.moment_sequence([1], [[F(2)]], [3], 3), [3, F(6), F(12)])
    assert la.krylov(A, [1, 0, 2], 0) == la.moment_sequence([1, 1, 1], A, [1, 0, 2], 0) == []


def test_new_kernels_refuse_mixed_contexts():
    a, b = EScalar(1, 1, CTXS[3]), EScalar(1, 1, CTXS[5])
    A = [[a, a], [a, a]]
    for f, args in ((la.mat_vec, (A, [a, b])), (la.mat_vec, (A, [b, 1])),
                    (la.vec_mat, ([b, 1], A)), (la.vec_mat, ([a, b], [[1, 0], [0, 1]])),
                    (la.krylov, (A, [b, 1], 2)), (la.krylov, ([[a, 1], [b, 1]], [1, 1], 2)),
                    (la.moment_sequence, ([b, 1], A, [a, a], 1)),
                    (la.moment_sequence, ([a, 1], A, [b, 1], 2))):
        with pytest.raises(ValueError):
            f(*args)


def ref_inverse(A):
    """The right half of the reduced form of [A | I], as `inverse` was."""
    n = len(A)
    R, pivots = la.rref([list(row) + e for row, e in zip(A, la.identity(n, one_like(A[0][0])))])
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    return [row[n:] for row in R[:n]]


@pytest.mark.parametrize("n", range(1, 6))
def test_inverse_matches_the_reduced_form_of_the_augmented_matrix(n):
    """Rows over different denominators (a wrong row scale on the identity
    block would pass on integer rows), over Q, over E and on ints: the same
    values of the same type and context as `ref_inverse`, A A^{-1} = I, and
    ZeroDivisionError on a singular matrix."""
    rng = random.Random(760 + n)
    ctx = CTXS[3]
    domains = {"Q": (lambda d: F(rng.randint(-20, 20), d), F(1)),
               "E": (lambda d: EScalar(F(rng.randint(-20, 20), d), F(rng.randint(-20, 20), d), ctx),
                     ctx.embed(1)),
               "int": (lambda d: rng.randint(-9, 9), F(1))}
    singular = 0
    for entry, one in domains.values():
        I = la.identity(n, one)
        for k in range(12):
            A = [[entry(d) for _ in range(n)]
                 for d in rng.sample([1, 2, 3, 5, 7, 9, 11, 10 ** 6 + 3], n)]
            if k % 4 == 3:      # the last row a multiple of the first, 0 at n = 1
                A[-1] = [a * (F(-2, 7) if n > 1 else 0) for a in A[0]]
            if la.det(A):
                inv = la.inverse(A)
                _same(inv, ref_inverse(A))
                assert la.mat_mul(A, inv) == I
            else:
                singular += 1
                for f in (la.inverse, ref_inverse):
                    with pytest.raises(ZeroDivisionError):
                        f(A)
    assert singular >= 9
