"""Walkthrough: local orbital integrals as exact lattice counts, the
one-dimensional torus matching with its regularized value at zero, and the
unit-function comparison between the linear and hermitian sides.

Run: python3 demos/demo_fundamental_lemma.py
"""

from fractions import Fraction as F

from jrlab.fields import PLocalContext
from jrlab.gltilde import InvariantPoint, Triple
from jrlab.hermitian import classify_form_local, hankel_pair_for_point
from jrlab.orbital import (admissible_lattices_gl,
                           gl_representative_of_point, orbital_gl, orbital_u,
                           toy_gl_orbital, toy_transfer_check, toy_u_orbital)
from jrlab.suites import fl_check

ctx = PLocalContext(3)
print("place: p =", ctx.p, ", quadratic extension by sqrt(", ctx.eps, ")")

# One-dimensional example: the alternating count against the norm-fiber
# count, including the regularized value at 0.
print("\ntorus example:")
for a in (F(9), F(3), F(1), F(0)):
    print(f"  a = {a}:  linear side {toy_gl_orbital(a, ctx)}   "
          f"hermitian side {toy_u_orbital(a, 'norm', ctx)}")
rep = toy_transfer_check(ctx, [F(0)] + [F(3) ** w for w in range(-8, 9)])
print("  sweep failures:", len(rep["failures"]))

# The lattice model: the unit integral is a signed count of stable lattices
# squeezed between the Krylov span and its polar.
X = Triple([[F(1)]], [F(1)], [F(9)])
lats = admissible_lattices_gl(X, ctx)
print("\nlattices for a depth-two covector:",
      [str(l.basis[0][0]) for l in lats])
print("signed count:", orbital_gl(X, ctx).value)

# Matched pair at base dimension two: same invariant point on both sides.
a = InvariantPoint((F(0), F(-1)), (F(1), F(3)))
Xgl = gl_representative_of_point(a)
Xu = hankel_pair_for_point(a, ctx)
print("\nmatched invariant point:", a)
print("form class:", classify_form_local(Xu.form, ctx)["class"])
print("linear side   :", orbital_gl(Xgl, ctx).value)
print("hermitian side:", orbital_u(Xu, ctx).value)

# The systematic comparison.
rep = fl_check(1, ctx, budget=6)
print("\nexhaustive comparison at n=1:", rep["pass"])
rep = fl_check(2, ctx, budget=2, seed=0, samples=10)
print("sampled comparison at n=2  :", rep["pass"])
