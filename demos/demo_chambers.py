"""Walkthrough: the chamber complex of the diagonal torus, galleries and
distances, convex families, and the two equal sum formulas attached to an
orthogonal-positive assignment of points.

Run: python3 demos/demo_chambers.py
"""

import random
from fractions import Fraction as F

from jrlab.chambers import (Chamber, all_chambers, distance, family_projection,
                            gallery_walls, h_plus, is_convex, minimal_galleries,
                            pairwise_orthogonal_positive, parabolics_above,
                            psi_analytic, psi_geometric, sigma_set,
                            in_positive_dual_cone)

m = 3
P = Chamber((1, 2, 3))
Q = P.opposite()
print(f"chambers of rank {m}: {len(all_chambers(m))}")
print("distance to the opposite chamber:", distance(Q, P))
print("separating roots:", sorted(sigma_set(Q, P)))

print("\nminimal galleries to the opposite chamber:")
for gal in minimal_galleries(P, Q):
    print("  ", " -> ".join(str(c.perm) for c in gal),
          "  walls:", gallery_walls(gal))

S = h_plus((1, 2), m)
print("\nthe half-space family of a root:", [c.perm for c in S])
print("convex:", is_convex(S))
print("a two-element antipodal set is not:",
      is_convex([P, Q]))

# psi sums: the geometric sum over parabolic supports equals the analytic
# sum over the family, for any functional in the dual cone of a member.
rng = random.Random(1)
fam = pairwise_orthogonal_positive(m, rng)
H = [F(3), F(-5), F(1)]
Lam = [F(0)] * m
for pos, a in enumerate(S[0].perm):
    Lam[a - 1] = F([30, 20, 10][pos])
assert in_positive_dual_cone(Lam, S[0])
# the geometric sum reads the family's projections Y_Q onto the parabolics
# above a member, scaled by lcm(1..m) to integer vectors
proj = {Q: family_projection(fam, Q) for Q in parabolics_above(S)}
print("\npsi (geometric):", psi_geometric(proj, H))
print("psi (analytic) :", psi_analytic(S, Lam, H, fam))
