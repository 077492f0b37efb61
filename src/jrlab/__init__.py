"""Exact-arithmetic invariant theory, Cayley matching, cone and chamber
combinatorics, and p-adic orbital integrals for the comparison between the
linear pair GL(n) x GL(n+1) and its unitary counterpart."""

from .fields import (EScalar, INERT, PLocalContext, eta, eta_ext, is_norm,
                     valuation, valuation_ext)
from .gltilde import (Decomposition, InvariantPoint, Triple,
                      canonical_decomposition, d_r, invariants, iota,
                      iota_inverse, is_semisimple, jordan, pairing, stratum,
                      slice_compatibility_check, transfer_factor_eta)
from .hermitian import (CayleyParams, HermitianForm, HermitianPair,
                        cayley_gl, cayley_inverse, cayley_u,
                        classify_form_local, extend_form, is_selfadjoint,
                        match_invariants_group, matched_endomorphism_pair,
                        omega_factor, omega_group,
                        orbit_inventory, u_d_r, u_invariants,
                        u_is_semisimple, u_jordan, u_pairing, u_stratum)
from .cones import (DescentDatum, DescentEngine, GTilde, ParabolicSubspace,
                    enumerate_parabolic_subspaces, parabolic_minus, projections)
from .chambers import (Chamber, all_chambers, distance, h_plus, is_convex,
                       langlands_type_rep, minimal_galleries, psi_analytic,
                       psi_geometric, sigma_set)
from .orbital import (Lattice, OrbitalReport, admissible_lattices_gl,
                      fl_check, is_instable, orbital_gl, orbital_u,
                      toy_gl_orbital, toy_transfer_check, toy_u_orbital)

__version__ = "0.1.0"
