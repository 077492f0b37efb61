"""Golden reports of the three polyhedral suites at fixed seeds.

The whole report dict is pinned (instance counts, failures and their
reproduction data), with only the wall time dropped, so any change to the
samplers, the wall filters or the indicators shows up here.
"""

import pytest

from jrlab import chambers, cones, suites
from jrlab.suites import chambers_suite, cones_suite, descent_suite

GOLDEN = [
    (lambda: cones_suite(2, points=60, seed=7),
     {"suite": "cones", "instances": 168, "failures": [], "seed": 7, "n": 2}),
    (lambda: descent_suite(2, seed=1, samples=8),
     {"suite": "descent", "instances": 1184, "failures": [], "seed": 1, "n": 2}),
    (lambda: descent_suite(3, seed=1, samples=4),
     {"suite": "descent", "instances": 12868, "failures": [], "seed": 1, "n": 3}),
    (lambda: chambers_suite(3, seed=1, families=50),
     {"suite": "chambers", "instances": 300, "failures": [], "seed": 1, "m": 3}),
]


def run_golden(k):
    rep = GOLDEN[k][0]()
    rep.pop("wall_time")
    return rep


@pytest.mark.parametrize("k", range(len(GOLDEN)), ids=["cones", "descent", "descent-n3", "chambers"])
def test_suite_report_is_pinned(k):
    assert run_golden(k) == GOLDEN[k][1]


def test_sign_tests_see_integer_covectors_and_exact_points(monkeypatch):
    """Every covector reaching a sign test is an integer vector, and every
    point coordinate is an int: the suites scale their rational points to
    integers where they are built (a Fraction would come from an unscaled
    nullspace span, a float from a division such as sum(...) / len(...))."""
    calls = []

    def check(covs, points):
        calls.append(1)
        for cov in covs:
            assert all(type(c) is int for c in cov), cov
        for H in points:
            assert all(type(x) is int for x in H), H

    all_pos, nonzero, count = cones._all_pos, cones._nonzero, cones.signed_count

    def checked_all_pos(covs, H):
        check(covs, [H])
        return all_pos(covs, H)

    def checked_nonzero(covs, points):
        check(covs, points)
        return nonzero(covs, points)

    def checked_signed_count(terms, point):
        for _, covs in terms:
            check(covs, [point])
        return count(terms, point)

    for mod in (cones, suites, chambers):
        for name, fn in (("_all_pos", checked_all_pos), ("_nonzero", checked_nonzero),
                         ("signed_count", checked_signed_count)):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, fn)
    for k in range(len(GOLDEN)):
        calls.clear()
        assert run_golden(k) == GOLDEN[k][1]
        assert calls
