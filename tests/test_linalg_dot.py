"""`linalg._dot` against the term-by-term loop it replaces on int, Fraction
and EScalar vectors and their mixes: equal values of the same type (and
context), and no silent mixing of contexts there or in the elimination
kernels."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from jrlab import linalg as la
from jrlab.fields import EScalar, PLocalContext

CTXS = {3: PLocalContext(3), 5: PLocalContext(5)}


def ref_dot(u, v):
    """The loop `_dot` ran before its integer kernel: one Fraction (or
    EScalar) normalisation per term."""
    it = iter(zip(u, v))
    a, b = next(it)
    s = a * b
    for a, b in it:
        s = s + a * b
    return s


def _same(x, y):
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
    _same(la._dot(*uv), ref_dot(*uv))


@settings(max_examples=200, deadline=None)
@given(_pairs(_int_or_frac))
def test_dot_over_mixed_int_and_fraction_matches_the_loop(uv):
    _same(la._dot(*uv), ref_dot(*uv))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(CTXS)), st.data())
def test_dot_over_the_inert_extension_matches_the_loop(p, data):
    ctx = CTXS[p]
    u, v = data.draw(_pairs(st.builds(EScalar, _frac, _frac, st.just(ctx))))
    _same(la._dot(u, v), ref_dot(u, v))
    _same(la.dot(u, v), ref_dot(u, v))


@pytest.mark.parametrize("rational", [st.integers(-50, 50), _frac], ids=["int", "Fraction"])
@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from(sorted(CTXS)), data=st.data())
def test_dot_over_rationals_mixed_with_the_extension_matches_the_loop(rational, p, data):
    ctx = CTXS[p]
    u, v = data.draw(_pairs(st.one_of(rational, st.builds(EScalar, _frac, _frac, st.just(ctx)))))
    _same(la._dot(u, v), ref_dot(u, v))


def test_dot_edge_cases():
    ctx = CTXS[3]
    _same(la._dot([F(3, 7)], [F(-7, 3)]), F(-1))
    _same(la._dot([F(0)] * 3, [F(1, 2)] * 3), F(0))
    z = ctx.embed(0)
    _same(la._dot([z, z], [EScalar(1, 2, ctx)] * 2), ref_dot([z, z], [EScalar(1, 2, ctx)] * 2))
    _same(la._dot([3, 4], [5, 6]), 39)
    big = F(1, 3 ** 40)
    _same(la._dot([big, big], [big, -big]), F(0))


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
