"""Every identity check that the integer-point rewrite of the descent and
chamber suites touches can fail.

Each case monkeypatches one term of one identity.  The suite's report must
then carry that check's failure record with its keys, the record must pass
`json.dumps` as it is, and the command that runs the suite must exit 1.
"""

import contextlib
import io
import json

import pytest

from jrlab import chambers, cli
from jrlab.cones import DescentEngine
from jrlab.suites import chambers_suite, descent_suite

# check -> keys of its failure record
KEYS = {
    "family-resummation": {"check", "datum", "R", "H"},
    "family-splitting": {"check", "datum", "R", "H"},
    "fiber-inversion": {"check", "datum", "R", "P", "X", "domain", "got", "expect"},
    "gallery-walls": {"check", "P1", "P2"},
    "distance-step": {"check", "P", "P1", "P2"},
    "psi-equality": {"check", "S", "H"},
}


def _extra_term(index):
    """family_plan with one more term, counting +1 everywhere, in the
    index-th term list."""
    plan = DescentEngine.family_plan

    def faulty(self, R, points):
        parts = list(plan(self, R, points))
        parts[index] = parts[index] + [(1, [], [], [0] * self.g.N)]
        return tuple(parts)
    return faulty


def _patch(monkeypatch, check):
    if check == "family-resummation":
        monkeypatch.setattr(DescentEngine, "family_plan", _extra_term(2))
    elif check == "family-splitting":
        monkeypatch.setattr(DescentEngine, "family_plan", _extra_term(4))
    elif check == "fiber-inversion":
        # no normal covector: every X counts as lying in span(z_P)
        monkeypatch.setattr(DescentEngine, "z_normals_ambient", lambda self, P: [])
    elif check == "gallery-walls":
        walls = chambers.gallery_walls
        monkeypatch.setattr(chambers, "gallery_walls",
                            lambda gal: [(b, a) for a, b in walls(gal)])
    elif check == "distance-step":
        step = chambers.keycoxeter_step
        monkeypatch.setattr(chambers, "keycoxeter_step", lambda P, P1, P2: -step(P, P1, P2))
    else:
        psi = chambers.psi_geometric
        monkeypatch.setattr(chambers, "psi_geometric", lambda proj, H, m: psi(proj, H, m) + 1)


def _exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), pytest.raises(SystemExit) as e:
        cli.main(argv + ["--json-only"])
    return e.value.code


@pytest.mark.parametrize("check", KEYS)
def test_a_broken_term_fails_its_check(monkeypatch, check):
    _patch(monkeypatch, check)
    if check in ("gallery-walls", "distance-step", "psi-equality"):
        rep = chambers_suite(3, seed=1, families=4)
        argv = ["chambers", "--m", "3", "--instances", "4", "--seed", "1"]
    else:
        rep = descent_suite(2, seed=1, samples=4)
        argv = ["cones", "--n", "2", "--grid", "20", "--instances", "32", "--seed", "1"]
    records = [r for r in rep["failures"] if r["check"] == check]
    assert records
    for r in records:
        assert set(r) == KEYS[check]
        json.dumps(r)    # raises on any value JSON cannot carry
    assert _exit_code(argv) == 1
