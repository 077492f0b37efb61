"""Per-layer tracing from outside the program.

`Tracer.install()` replaces each listed public function of `jrlab` with a
timing wrapper in every module namespace that binds it (modules import
names such as `stratum` or `hankel_pair_for_point` directly, so patching
the defining module alone would miss those calls), and replaces the listed
methods on their classes.  `uninstall()` puts the originals back.

A span is one wrapped call.  Spans are kept in memory aggregated by
(pass, unit, name, parent span name): calls, total time and self time,
where self time is the span's duration minus the durations of the wrapped
calls made inside it.  Fraction arithmetic cannot be wrapped, so it lands
in the self time of its caller.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
from collections import defaultdict

# span name -> (module, attribute) pairs; names ending in ".Q/E" are split
# by whether the first argument's entries are extension scalars.
FUNCTIONS = {
    "fields.valuation": ("jrlab.fields", "valuation"),
    "fields.is_integral": ("jrlab.fields", "is_integral"),
    "poly.squarefree_part": ("jrlab.poly", "squarefree_part"),
    "poly.gcd": ("jrlab.poly", "gcd"),
    "poly.resultant": ("jrlab.poly", "resultant"),
    "linalg.det.Q/E": ("jrlab.linalg", "det"),
    "linalg.charpoly.Q/E": ("jrlab.linalg", "charpoly"),
    "linalg.rref.Q/E": ("jrlab.linalg", "rref"),
    "linalg.inverse.Q/E": ("jrlab.linalg", "inverse"),
    "linalg.mat_mul": ("jrlab.linalg", "mat_mul"),
    "linalg.semisimple_part": ("jrlab.linalg", "semisimple_part"),
    "linalg.dot": ("jrlab.linalg", "dot"),
    "gltilde.invariants": ("jrlab.gltilde", "invariants"),
    "gltilde.stratum": ("jrlab.gltilde", "stratum"),
    "gltilde.jordan": ("jrlab.gltilde", "jordan"),
    "gltilde.is_semisimple": ("jrlab.gltilde", "is_semisimple"),
    "hermitian.u_invariants": ("jrlab.hermitian", "u_invariants"),
    "hermitian.u_stratum": ("jrlab.hermitian", "u_stratum"),
    "hermitian.u_jordan": ("jrlab.hermitian", "u_jordan"),
    "hermitian.u_is_semisimple": ("jrlab.hermitian", "u_is_semisimple"),
    "hermitian.hankel_pair_for_point": ("jrlab.hermitian", "hankel_pair_for_point"),
    "hermitian.cayley": ("jrlab.hermitian", "cayley"),
    "orbital.intermediate_lattices": ("jrlab.orbital", "intermediate_lattices"),
    "orbital.intermediate_lattices_ext": ("jrlab.orbital", "intermediate_lattices_ext"),
    "orbital.admissible_lattices_gl": ("jrlab.orbital", "admissible_lattices_gl"),
    "orbital.selfdual_admissible_lattices": ("jrlab.orbital", "selfdual_admissible_lattices"),
    "orbital.hermite_normalize": ("jrlab.orbital", "hermite_normalize"),
    "cones.parabolic_minus": ("jrlab.cones", "parabolic_minus"),
    "cones.projections": ("jrlab.cones", "projections"),
    "chambers.minimal_galleries": ("jrlab.chambers", "minimal_galleries"),
    "chambers.distance": ("jrlab.chambers", "distance"),
    "chambers.is_convex": ("jrlab.chambers", "is_convex"),
    "chambers.psi_geometric": ("jrlab.chambers", "psi_geometric"),
    "chambers.psi_analytic": ("jrlab.chambers", "psi_analytic"),
    "chambers.family_projection": ("jrlab.chambers", "family_projection"),
    "suites.cones_suite": ("jrlab.suites", "cones_suite"),
    "suites.descent_suite": ("jrlab.suites", "descent_suite"),
    "suites.chambers_suite": ("jrlab.suites", "chambers_suite"),
    "cli.main": ("jrlab.cli", "main"),
}

# span name -> (module, class, methods); None means every function defined
# on the class.
METHODS = {
    "fields.escalar_ops": ("jrlab.fields", "EScalar",
                           ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                            "__rmul__", "__neg__", "__truediv__", "__rtruediv__",
                            "__pow__", "inverse", "conj")),
    "cones.indicator": ("jrlab.cones", "GTilde",
                        ("tau", "tau_hat", "sigma", "sigma_hat", "sigma_hat_full",
                         "sigma_full")),
    "cones.wall_covectors": ("jrlab.cones", "GTilde", ("wall_covectors",)),
    "cones.langlands_sum": ("jrlab.cones", "GTilde", ("langlands_sum",)),
    "cones.sigma_hat_expansion": ("jrlab.cones", "GTilde", ("sigma_hat_expansion",)),
    "cones.descent_engine": ("jrlab.cones", "DescentEngine", None),
}

# lattice enumerators: a candidate is one leaf of the enumeration, which
# inverts its basis exactly once.
CANDIDATES = {
    "orbital.intermediate_lattices": "linalg.inverse.Q",
    "orbital.intermediate_lattices_ext": "linalg.inverse.E",
}
ACCEPTED = ("orbital.admissible_lattices_gl", "orbital.selfdual_admissible_lattices")


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [("fields.escalar_ops.calls", "count", "lower"),
           ("fields.escalar_ops.self_s", "s", "lower"),
           ("fields.valuation.calls", "count", "lower"),
           ("fields.is_integral.calls", "count", "lower")]
    both = lambda name: [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    self_only = lambda name: [(f"{name}.self_s", "s", "lower")]
    for f in ("squarefree_part", "gcd", "resultant"):
        out += both(f"poly.{f}")
    for f in ("det", "charpoly", "rref", "inverse"):
        for dom in ("Q", "E"):
            out += both(f"linalg.{f}.{dom}")
    for f in ("mat_mul", "semisimple_part", "dot"):
        out += both(f"linalg.{f}")
    for f in ("invariants", "stratum", "jordan", "is_semisimple"):
        out += both(f"gltilde.{f}")
    for f in ("u_invariants", "u_stratum", "u_jordan", "u_is_semisimple",
              "hankel_pair_for_point", "cayley"):
        out += both(f"hermitian.{f}")
    for f in CANDIDATES:
        out += both(f) + [(f"{f}.candidates", "count", "lower")]
    out += [(f"{f}.accepted", "count", "higher") for f in ACCEPTED]
    out += [("orbital.gl_accept_ratio", "1", "higher"),
            ("orbital.u_accept_ratio", "1", "higher")]
    out += self_only("orbital.hermite_normalize")
    out += both("cones.indicator") + [("cones.wall_covectors.calls", "count", "lower")]
    for f in ("langlands_sum", "sigma_hat_expansion", "parabolic_minus"):
        out += self_only(f"cones.{f}")
    out += [("cones.projections.calls", "count", "lower")]
    out += self_only("cones.descent_engine")
    for f in ("minimal_galleries", "distance"):
        out += both(f"chambers.{f}")
    for f in ("is_convex", "psi_geometric", "psi_analytic", "family_projection"):
        out += self_only(f"chambers.{f}")
    for f in ("cones_suite", "descent_suite", "chambers_suite"):
        out += self_only(f"suites.{f}")
    out += both("cli.main")
    out += [("trace.overhead_s", "s", "lower")]
    return out


class Tracer:
    def __init__(self):
        self.unit = None                 # (pass, unit index) of the running unit
        self.spans = {}                  # (unit, name, parent) -> [calls, total, self]
        self.accepted = defaultdict(int)  # (pass, name) -> lattices returned
        self._stack = []                 # open spans: [name, time in child spans]
        self._patches = []               # (namespace, attribute, original)

    # -- installation --------------------------------------------------------

    def install(self):
        import jrlab.cli  # noqa: F401  (loads every module the targets live in)
        from jrlab.fields import EScalar
        self._escalar = EScalar
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "jrlab" or k.startswith("jrlab.")) and m is not None]
        for name, (mod, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[mod], attr)
            wrapper = self._wrap(original, name)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is original:
                        self._patch(m, key, wrapper)
        for name, (mod, cls_name, methods) in METHODS.items():
            cls = getattr(sys.modules[mod], cls_name)
            if methods is None:
                methods = [k for k, v in vars(cls).items() if inspect.isfunction(v)]
            for meth in methods:
                self._patch(cls, meth, self._wrap(vars(cls)[meth], name))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, name):
        stack, spans, perf = self._stack, self.spans, time.perf_counter
        tracer = self
        split = name.endswith(".Q/E")
        base = name[:-4]
        count_result = name in ACCEPTED

        def wrapper(*args, **kwargs):
            if split:
                A = args[0]
                nm = base + (".E" if A and A[0] and isinstance(A[0][0], tracer._escalar)
                             else ".Q")
            else:
                nm = name
            parent = stack[-1][0] if stack else "unit"
            frame = [nm, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                key = (tracer.unit, nm, parent)
                rec = spans.get(key)
                if rec is None:
                    spans[key] = [1, dt, dt - frame[1]]
                else:
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += dt - frame[1]
            if count_result:
                tracer.accepted[(tracer.unit[0], nm)] += len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- reports -------------------------------------------------------------

    def pass_metrics(self, pass_no, scale):
        """Per-layer metrics of one traced pass (trace.overhead_s excluded);
        the self time of unit i is multiplied by scale[i]."""
        calls, self_s, cand = defaultdict(int), defaultdict(float), defaultdict(int)
        for (unit, name, parent), (c, _, s) in self.spans.items():
            if unit[0] != pass_no:
                continue
            calls[name] += c
            self_s[name] += s * scale[unit[1]]
            if CANDIDATES.get(parent) == name:
                cand[parent] += c
        accepted = {name: self.accepted[(pass_no, name)] for name in ACCEPTED}
        ratios = {f"orbital.{side}_accept_ratio": accepted[acc] / cand[enum] if cand[enum] else 0.0
                  for side, enum, acc in (("gl", "orbital.intermediate_lattices", ACCEPTED[0]),
                                          ("u", "orbital.intermediate_lattices_ext", ACCEPTED[1]))}
        fields = {"calls": calls, "self_s": self_s, "candidates": cand, "accepted": accepted}
        out = {}
        for metric, _, _ in per_layer_metrics():
            if metric in ratios:
                out[metric] = ratios[metric]
            elif metric != "trace.overhead_s":
                base, _, field = metric.rpartition(".")
                out[metric] = fields[field][base]
        return out

    def span_records(self):
        return [{"pass": u[0], "unit": u[1], "name": name, "parent": parent,
                 "calls": c, "total_s": t, "self_s": s}
                for (u, name, parent), (c, t, s) in self.spans.items()]


def median_metrics(per_pass):
    """Median of each metric over traced passes."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
