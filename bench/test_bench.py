"""Tests of the benchmark itself, at tiny sizes.

The interaction table says which layer does work on which workload; a
traced pass must show exactly that pattern of non-zero and zero metrics.
Run: PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

# metric-name prefixes that must be non-zero on each workload
NONZERO = {
    "algebra": ["fields.escalar_ops.", "poly.", "linalg.det.", "linalg.charpoly.",
                "linalg.rref.", "linalg.inverse.", "linalg.mat_mul.",
                "linalg.semisimple_part.", "linalg.dot.", "gltilde.",
                "hermitian.u_", "hermitian.cayley."],
    "lattice": ["fields.", "linalg.inverse.", "linalg.mat_mul.", "orbital.",
                "hermitian.hankel_pair_for_point.", "gltilde.invariants.",
                "hermitian.u_invariants."],
    "combinatorics": ["linalg.dot.", "linalg.rref.Q.", "cones.", "chambers.",
                      "suites.", "cli."],
}
# ... and prefixes of layers that do no work there
ZERO = {
    "algebra": ["orbital.", "cones.", "chambers.", "suites.", "cli.",
                "hermitian.hankel_pair_for_point."],
    "lattice": ["cones.", "chambers.", "suites.", "cli.", "poly.",
                "linalg.semisimple_part.", "gltilde.jordan.", "hermitian.u_jordan.",
                "hermitian.cayley."],
    "combinatorics": ["fields.", "orbital.", "poly.", "linalg.charpoly.",
                      "linalg.det.", "linalg.inverse.", "linalg.mat_mul.",
                      "gltilde.", "hermitian."],
}


@pytest.fixture(scope="module")
def traced():
    return {wl: run.measure(wl, seed=0, seconds=0, trace=1, tiny=True)
            for wl in run.WORKLOADS}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_is_correct(traced, workload):
    res = traced[workload]
    assert res["correct"], res["errors"]
    assert res["failed"] == 0 and res["attempted"] >= 2
    names = [m for m, _, _ in tracing.per_layer_metrics()]
    assert list(res["values"]) == names


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_interaction_table(traced, workload):
    values = traced[workload]["values"]
    for prefix in NONZERO[workload]:
        hits = [k for k in values if k.startswith(prefix)
                and not k.endswith("_ratio") and k != "trace.overhead_s"]
        assert hits, prefix
        assert all(values[k] > 0 for k in hits), [k for k in hits if not values[k]]
    for prefix in ZERO[workload]:
        assert all(values[k] == 0 for k in values if k.startswith(prefix)), prefix


def test_lattice_enumeration_counts(traced):
    values = traced["lattice"]["values"]
    for enum in tracing.CANDIDATES:
        assert values[f"{enum}.candidates"] > 0
    assert 0 < values["orbital.gl_accept_ratio"] <= 1
    assert 0 < values["orbital.u_accept_ratio"] <= 1


def test_tracer_restores_the_program():
    import jrlab.gltilde
    import jrlab.orbital
    from jrlab.fields import EScalar
    before = (jrlab.gltilde.stratum, jrlab.orbital.stratum, EScalar.__mul__)
    t = tracing.Tracer()
    t.install()
    try:
        assert jrlab.orbital.stratum is jrlab.gltilde.stratum is not before[0]
    finally:
        t.uninstall()
    assert (jrlab.gltilde.stratum, jrlab.orbital.stratum, EScalar.__mul__) == before


def test_short_bucket_fails_the_run(monkeypatch):
    monkeypatch.setattr(gen, "point_valuation", lambda a, b, p: None)
    with pytest.raises(gen.ShortBucket):
        gen.battery("lattice", 0, tiny=True)


def test_battery_is_seeded():
    a, _ = gen.battery("lattice", 5, tiny=True)
    b, _ = gen.battery("lattice", 5, tiny=True)
    c, _ = gen.battery("lattice", 6, tiny=True)
    assert a == b and a != c


def test_generated_points_hit_their_valuation():
    rng = random.Random(1)
    for p, n, v in ((3, 2, 3), (3, 2, 4), (5, 2, 1), (7, 1, 8)):
        a, b = gen.point_for_valuation(rng, p, n, v)
        assert gen.point_valuation(a, b, p) == v


def test_tail_percentile_leaves_ten_beyond():
    for n, q in ((30, 66), (67, 85), (87, 88), (1000, 99)):
        assert run.tail_percentile(n) == q
        xs = list(range(n))
        assert len([x for x in xs if x > run.percentile(xs, q)]) >= 10
    assert run.tail_percentile(10) is None
