"""Every identity check of the cones, descent and chambers suites can fail.

Each case monkeypatches one term of one identity.  The suite's report must
then carry that check's failure record with its keys, the record must pass
`json.dumps` as it is, and the command that runs the suite must exit 1.

A cached term builder is wrapped, so its cached values stay as they are;
every other patch replaces an uncached evaluation point (indicators,
kernels, sums and helpers that no cached builder calls).  So no poisoned
cache entry outlives a case.
"""

import contextlib
import io
import json

import pytest

from jrlab import chambers, cli, suites
from jrlab.cones import DescentEngine, GTilde
from jrlab.suites import chambers_suite, cones_suite, descent_suite

# suite -> check -> keys of its failure record
KEYS = {
    "descent": {
        "family-resummation": {"check", "datum", "R", "H"},
        "family-splitting": {"check", "datum", "R", "H"},
        "fiber-inversion": {"check", "datum", "R", "P", "X", "domain", "got", "expect"},
        "closure-family": {"check", "datum", "R", "H"},
        "fiber-family": {"check", "datum", "R", "H"},
        "family-structure": {"check", "datum", "R", "note"},
    },
    "chambers": {
        "gallery-walls": {"check", "P1", "P2"},
        "gallery-count": {"check", "P1", "P2", "count", "listed"},
        "distance-step": {"check", "P", "P1", "P2"},
        "psi-equality": {"check", "S", "H"},
        "distance": {"check", "P1", "P2"},
        "halfspace-convex": {"check", "alpha"},
        "family-consistency": {"check"},
        "representative": {"check", "error"},
        "psi-trichotomy": {"check", "S", "H"},
    },
    "cones": {
        "dual-bases": {"check", "pair"},
        "exchange-hat": {"check", "pair", "H"},
        "exchange": {"check", "pair", "H"},
        "alternating-sum": {"check", "pair", "H"},
        "kernel-expansion": {"check", "P", "H", "X"},
        "truncation-kernels": {"check", "P", "H", "T"},
    },
}
CASES = [(suite, check) for suite, checks in KEYS.items() for check in checks]

# suite -> (the suite at a small size, the command that runs it)
RUNS = {
    "cones": (lambda: cones_suite(2, points=20, seed=1),
              ["cones", "--n", "2", "--grid", "20", "--instances", "32", "--seed", "1"]),
    "descent": (lambda: descent_suite(2, seed=1, samples=4),
                ["cones", "--n", "2", "--grid", "20", "--instances", "32", "--seed", "1"]),
    "chambers": (lambda: chambers_suite(3, seed=1, families=4),
                 ["chambers", "--m", "3", "--instances", "4", "--seed", "1"]),
}


def _extra_term(index):
    """A builder of term lists with one more term in its index-th list: a
    term reading no covector, counting +1 at every point."""
    def breaker(build):
        def faulty(*args):
            parts = list(build(*args))
            parts[index] = (*parts[index], (1, ()))
            return tuple(parts)
        return faulty
    return breaker


def _plus(k):
    """A function's value moved by k."""
    return lambda fn: lambda *args: fn(*args) + k


def _lhs_plus_one(fn):
    """The first of the two sides that fn returns moved by one."""
    def faulty(*args):
        lhs, rhs = fn(*args)
        return lhs + 1, rhs
    return faulty


def _constant(value):
    return lambda fn: lambda *args: value


# check -> (owner, attribute, breaker): the attribute is replaced by
# breaker(its original)
PATCHES = {
    "family-resummation": (DescentEngine, "family_plan", _extra_term(2)),
    "family-splitting": (DescentEngine, "family_plan", _extra_term(4)),
    # every X counts as lying in span(z_P)
    "fiber-inversion": (suites, "in_z_span", _constant(True)),
    # the right-hand sides moved by one
    "closure-family": (DescentEngine, "family_sums", _extra_term(1)),
    "fiber-family": (DescentEngine, "family_sums", _extra_term(3)),
    # no closure member finds a rigid member below it
    "family-structure": (chambers, "project_family", _constant(None)),
    # every step crosses the reversed root, outside Sigma(P2|P1)
    "gallery-walls": (chambers, "wall", lambda wall: lambda P1, P2: wall(P1, P2)[::-1]),
    # the listing drops a gallery
    "gallery-count": (chambers, "minimal_galleries", lambda fn: lambda P1, P2: fn(P1, P2)[1:]),
    "distance-step": (chambers, "keycoxeter_step", lambda step: lambda *args: -step(*args)),
    "psi-equality": (chambers, "psi_geometric", _plus(1)),
    "distance": (chambers, "distance", _plus(1)),
    "halfspace-convex": (chambers, "is_convex", _constant(False)),
    "family-consistency": (chambers, "check_orthogonal_positive", _constant(False)),
    # a representative outside the family
    "representative": (chambers, "langlands_type_rep", _constant(None)),
    # psi outside {0, 1}
    "psi-trichotomy": (chambers, "psi_geometric", _plus(2)),
    # negated weights pair to -1 with the roots
    "dual-bases": (suites, "pi_hat",
                   lambda fn: lambda P, Q: tuple(tuple(-x for x in v) for v in fn(P, Q))),
    "exchange-hat": (GTilde, "sigma_hat_full", _plus(1)),
    "exchange": (GTilde, "tau", _plus(1)),
    "alternating-sum": (GTilde, "langlands_sum", _plus(1)),
    "kernel-expansion": (GTilde, "sigma_hat_expansion", _lhs_plus_one),
    "truncation-kernels": (GTilde, "gamma_prime", _plus(1)),
}


def _exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), pytest.raises(SystemExit) as e:
        cli.main(argv + ["--json-only"])
    return e.value.code


@pytest.mark.parametrize("suite, check", CASES, ids=[check for _, check in CASES])
def test_a_broken_term_fails_its_check(monkeypatch, suite, check):
    owner, attr, breaker = PATCHES[check]
    monkeypatch.setattr(owner, attr, breaker(getattr(owner, attr)))
    run, argv = RUNS[suite]
    records = [r for r in run()["failures"] if r["check"] == check]
    assert records
    for r in records:
        assert set(r) == KEYS[suite][check]
        json.dumps(r)    # raises on any value JSON cannot carry
    assert _exit_code(argv) == 1
