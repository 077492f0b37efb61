#!/usr/bin/env python3
"""The jrlab benchmark: how long a fixed battery of exact checks takes.

    python3 bench/run.py                                  # every workload
    python3 bench/run.py --workload lattice --seed 3 --seconds 30 --trace 0

Each workload runs in its own single-threaded process.  A run generates its
battery from --seed, then repeats passes over it for as many as fit in
--seconds (at least one), checking every unit and hashing its exact output.  With --trace 0
the last line of stdout is a JSON object with the end-to-end metrics; with
--trace 1 the first half of the time is untraced and the second half traced,
and the object carries the per-layer metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
EXPECTED = BENCH / "expected.json"
sys.path[:0] = [str(SRC), str(BENCH)]

import gen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("algebra", "lattice", "combinatorics")
DEFAULT_SEED = 0
SETUP_PROBES = 7
# Best time of pace_probe() on the machine the benchmark was defined on (a
# 2-core Intel Xeon VM, CPython 3.11): unit times are reported at this pace.
PACE_NOMINAL_S = 0.0027
_PACE_MATRIX = [[gen.F((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 4) for j in range(6)]
                for i in range(6)]
END_TO_END = (("wall_s", "s"), ("instances_per_s", "1/s"), ("unit_p50_ms", "ms"),
              ("unit_tail_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))


def tail_percentile(n):
    """Highest whole percentile of n samples with at least ten beyond it
    (nearest rank)."""
    return max((q for q in range(1, 100) if n - math.ceil(q * n / 100) >= 10), default=None)


def percentile(xs, q):
    s = sorted(xs)
    return s[max(1, math.ceil(q * len(s) / 100)) - 1]


def unit_hash(out):
    return hashlib.sha256(workloads.canon(out).encode()).hexdigest()[:16]


def digest(hashes):
    return hashlib.sha256(",".join(hashes).encode()).hexdigest()


# ---------------------------------------------------------------------------
# measurement


def pace_probe():
    """Time of a fixed piece of exact arithmetic written in the benchmark:
    eight 6 x 6 Fraction determinants."""
    t0 = time.perf_counter()
    for _ in range(8):
        gen.det(_PACE_MATRIX)
    return time.perf_counter() - t0


def unit_pace(probes, start, end):
    """Median probe time over a window around a unit: the unit's own length
    on either side of it, and at least 10 ms.  Probes run only between
    units, so a long unit needs probes from seconds around it."""
    margin = max(end - start, 0.01)
    return statistics.median(d for mid, d in probes
                             if start - margin <= mid <= end + margin)


def run_pass(state, units, pass_no, tracer=None):
    """One pass over the battery.  Only the program calls and the identity
    checks are timed; the oracle (first pass) and hashing are not.  A pace
    probe runs before every unit and after the last."""
    lat, spans, probes, hashes, errors, instances = [], [], [], [], [], 0
    perf = time.perf_counter

    def probe():
        t0 = perf()
        d = pace_probe()
        probes.append((t0 + d / 2, d))

    probe()
    for i, u in enumerate(units):
        if tracer:
            tracer.unit = (pass_no, i)
        t0 = perf()
        try:
            out, inst = state.run(i, u)
            err = None
        except Exception as e:  # a unit that raises is a failed unit
            out, inst, err = None, 0, f"{type(e).__name__}: {e}"
        t1 = perf()
        lat.append(t1 - t0)
        spans.append((t0, t1))
        probe()
        if err is None and pass_no == 0:
            err = workloads.oracle(u, out)
        if err is None:
            instances += inst
            hashes.append(unit_hash(out))
        else:
            hashes.append("failed")
            errors.append(f"pass {pass_no} unit {i} ({u['kind']}): {err}")
    pace = [unit_pace(probes, t0, t1) for t0, t1 in spans]
    return {"lat": lat, "pace": pace, "hashes": hashes, "errors": errors,
            "instances": instances}


def run_passes(state, units, t_end, first_pass, tracer=None, passes=None, last=0.0):
    """Passes while the next one, taking as long as the last (`last` s), is
    expected to end by the clock time t_end; at least one pass."""
    passes = passes or []
    perf = time.perf_counter
    while not passes or perf() + last <= t_end:
        t0 = perf()
        passes.append(run_pass(state, units, first_pass + len(passes), tracer))
        last = perf() - t0
    return passes


def best_times(passes):
    """Each unit's fastest execution over the passes, as measured."""
    return [min(ts) for ts in zip(*(p["lat"] for p in passes))]


def paced_times(passes):
    """Each unit's median time over the passes, every execution scaled from
    the pace measured around it to the nominal pace.  The host's speed
    drifts by up to 2x over seconds; the ratio of a unit's time to the
    probe's time around it does not."""
    return [statistics.median(t * PACE_NOMINAL_S / pc for t, pc in zip(ts, pcs))
            for ts, pcs in zip(zip(*(p["lat"] for p in passes)),
                               zip(*(p["pace"] for p in passes)))]


def count_failures(passes, reference):
    """Unit executions that raised, failed a check, or whose exact output
    hash differs from the reference."""
    failed, errors = 0, []
    for p in passes:
        errors += p["errors"]
        for i, (h, ref) in enumerate(zip(p["hashes"], reference)):
            if h == "failed":
                failed += 1
            elif h != ref:
                failed += 1
                errors.append(f"unit {i}: output hash {h} != {ref}")
    return failed, errors


def setup_times(workload, seed, units):
    """Set-up time (import jrlab, contexts and program objects for the
    battery) measured in fresh interpreters.  The probes load the generated
    battery before their clock starts."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"battery-{workload}-{seed}.pickle"
    path.write_bytes(pickle.dumps(units))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--setup-probe", str(path)]
    try:
        out = []
        for _ in range(SETUP_PROBES):
            r = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
            out.append(float(r.stdout.strip().splitlines()[-1]))
        return out
    finally:
        path.unlink()


def setup_probe(workload, path):
    """Set-up time in this interpreter, scaled to the nominal pace."""
    units = pickle.loads(Path(path).read_bytes())
    pace_probe()
    before = pace_probe()
    t0 = time.perf_counter()
    workloads.State(workload, units)
    t = time.perf_counter() - t0
    return t * PACE_NOMINAL_S / ((before + pace_probe()) / 2)


def commit():
    """HEAD of the checkout when it is a git work tree, read from .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def measure(wl, seed, seconds, trace, tiny=False):
    """One run of one workload; returns the result with its run record.
    Raises gen.ShortBucket when the generator cannot fill a bucket."""
    os.environ["JRLAB_THREADS"] = "1"
    units, buckets = gen.battery(wl, seed, tiny)
    setups = [] if trace else setup_times(wl, seed, units)
    state = workloads.State(wl, units)
    if not Path(state.jrlab.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"jrlab was imported from {state.jrlab.__file__}, not {SRC}")
    expected = None
    if not tiny and seed == DEFAULT_SEED and EXPECTED.exists():
        expected = json.loads(EXPECTED.read_text()).get(wl)
    budget = seconds / 2 if trace else seconds

    t0 = time.perf_counter()
    first = run_pass(state, units, 0)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    plain = run_passes(state, units, t0 + budget, 0, passes=[first],
                       last=time.perf_counter() - t0)
    failed, errors = count_failures(plain, expected["units"] if expected else first["hashes"])
    attempted = sum(len(p["lat"]) for p in plain)
    dig = digest(first["hashes"])
    digest_ok = expected is None or dig == expected["digest"]
    if not digest_ok:
        errors.append(f"digest {dig} != stored {expected['digest']}")
    times = paced_times(plain)
    q = tail_percentile(len(units))
    record = {
        "workload": wl, "seed": seed, "trace": trace, "seconds": seconds,
        "nproc": os.cpu_count(), "cpu": cpu_model(),
        "python": sys.version.split()[0], "commit": commit(),
        "buckets": buckets, "units_per_pass": len(units), "passes": len(plain),
        "tail_percentile": q, "tail_samples": len(units),
        "digest": dig, "digest_checked": expected is not None,
    }
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_passes(state, units, time.perf_counter() + budget, len(plain),
                                tracer)
        finally:
            tracer.uninstall()
        f2, e2 = count_failures(traced, first["hashes"])
        failed += f2
        errors += e2
        attempted += sum(len(p["lat"]) for p in traced)
        values = tracing.median_metrics(
            [tracer.pass_metrics(len(plain) + k, [PACE_NOMINAL_S / pc for pc in p["pace"]])
             for k, p in enumerate(traced)])
        values["trace.overhead_s"] = sum(paced_times(traced)) - sum(times)
        units_of = {name: unit for name, unit, _ in tracing.per_layer_metrics()}
        record["traced_passes"] = len(traced)
        write_out(f"spans-{wl}-{seed}.json", tracer.span_records())
    else:
        values = {
            "wall_s": sum(times),
            "instances_per_s": first["instances"] / sum(times),
            "unit_p50_ms": statistics.median(times) * 1000,
            "unit_tail_ms": percentile(times, q or 100) * 1000,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss_mb,
        }
        units_of = dict(END_TO_END)
        record["setup_samples_s"] = setups
    record.update(failed=failed, attempted=attempted,
                  measured_best_wall_s=sum(best_times(plain)),
                  latencies_s=[p["lat"] for p in plain], paces_s=[p["pace"] for p in plain])
    write_out(f"record-{wl}-{seed}-trace{trace}.json", record)
    return {"correct": failed == 0 and digest_ok, "attempted": attempted,
            "failed": failed, "values": values, "units": units_of,
            "errors": errors, "record": record}


def write_out(name, obj):
    OUT.mkdir(exist_ok=True)
    (OUT / name).write_text(json.dumps(obj, indent=1) + "\n")


def run_workload(args):
    if not (SRC / "jrlab" / "__init__.py").exists():
        print(f"no program to benchmark: {SRC / 'jrlab'} is missing", file=sys.stderr)
        return 2
    try:
        res = measure(args.workload, args.seed, args.seconds, args.trace)
    except gen.ShortBucket as e:
        print(f"input generator fell short: {e}", file=sys.stderr)
        return 2
    rec = res["record"]
    for e in res["errors"][:20]:
        print(f"FAILED {e}", file=sys.stderr)
    print(f"{rec['workload']}: seed {rec['seed']}, {rec['units_per_pass']} units per pass, "
          f"{rec['passes']} passes" + (f" + {rec['traced_passes']} traced" if args.trace else ""))
    for name, v in res["values"].items():
        print(f"  {name:<44} {v:>14.6g} {res['units'][name]}")
    print(f"  failed_ratio {res['failed']}/{res['attempted']}; unit_tail_ms is "
          f"p{rec['tail_percentile']} of {rec['tail_samples']} unit times; "
          f"digest {rec['digest'][:16]}"
          + (" matches the stored one" if rec["digest_checked"] and res["correct"] else ""))
    print("record " + json.dumps({k: v for k, v in rec.items()
                                  if k not in ("latencies_s", "paces_s")}))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": {k: {"value": v, "unit": res["units"][k]}
                                  for k, v in res["values"].items()}}))
    return 0 if res["correct"] else 1


def write_expected(workload):
    """Store the per-unit output hashes and digest of the default seed."""
    units, _ = gen.battery(workload, DEFAULT_SEED)
    p = run_pass(workloads.State(workload, units), units, 0)
    if p["errors"]:
        raise SystemExit("\n".join(p["errors"]))
    data = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    data[workload] = {"seed": DEFAULT_SEED, "digest": digest(p["hashes"]),
                      "units": p["hashes"]}
    EXPECTED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def run_all(args):
    """Every workload in its own process, one after another."""
    results, ok = {}, True
    for wl in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        r = subprocess.run(cmd, capture_output=True, text=True)
        lines = r.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(r.stderr)
        try:
            results[wl] = json.loads(lines[-1])
        except (IndexError, ValueError):
            results[wl] = {"correct": False, "exit": r.returncode}
        ok = ok and r.returncode == 0 and results[wl]["correct"]
    print(json.dumps({"correct": ok, "workloads": results}))
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="BATTERY", help=argparse.SUPPRESS)
    ap.add_argument("--write-expected", action="store_true",
                    help="store the default seed's output hashes in bench/expected.json")
    args = ap.parse_args(argv)
    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.setup_probe)))
        return 0
    if args.write_expected:
        for wl in (WORKLOADS if args.workload == "all" else (args.workload,)):
            write_expected(wl)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
