"""Walkthrough: parabolic subspaces of the extended linear group, their
weight sets, the cone characteristic functions, and one Langlands-type
alternating sum evaluated exactly.

Run: python3 demos/demo_cones.py
"""

import random
from fractions import Fraction as F

from jrlab.cones import (GTilde, between, enumerate_parabolic_subspaces,
                         epsilon_sign, full_group, pi_hat_raw, projections)

n = 2
g = GTilde(n)
subspaces = enumerate_parabolic_subspaces(n)
print(f"parabolic subspaces for base dimension {n}: {len(subspaces)}")
for P in subspaces[:5]:
    ws, i, j = P.vflag_ij()
    print("  flag:", [sorted(w) for w in ws[1:]], " (i,j) =", (i, j))
print("  ...")

# The flag weights: one per flag member, prefix sums and negated suffix sums.
B = subspaces[-1]
print("\na maximal-chain member:", [sorted(m) for m in B.chain])
print("flag weights:", [[str(x) for x in v] for v in pi_hat_raw(B)])

# The two families of cone indicators exchange through the two oblique
# projections of the ambient space.
H = [F(4), F(-7), F(2)]
r1, r2, r1h, r2h = projections(H)
G = full_group(n)
print("\nH =", [str(x) for x in H])
print("tau(H)        :", g.tau(B, G, H))
print("sigma(r1 H)   :", g.sigma(B, G, r1))
print("sigma_hat(H)  :", g.sigma_hat(B, G, H))
print("tau_hat(r1^ H):", g.tau_hat(B, G, r1h))

# The alternating sum over intermediate members collapses to the diagonal.
rng = random.Random(0)
P = subspaces[3]
for Q in subspaces:
    if not Q.le(P) or Q == P:
        continue
    vals = set()
    for _ in range(200):
        H = [rng.randint(-30, 30) for _ in range(n + 1)]
        vals.add(g.langlands_sum(Q, P, H))
    print(f"\nalternating sum over [{len(between(Q, P))} members] "
          f"between nested pair: values seen {sorted(vals)} (expected 0 off the diagonal)")
    break
vals = {g.langlands_sum(P, P, [rng.randint(-30, 30) for _ in range(n + 1)])
        for _ in range(200)}
print(f"diagonal case: values seen {sorted(vals)} (expected 1)")
