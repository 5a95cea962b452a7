#!/usr/bin/env python3
# Rediscovering symmetry generators: the condition ad_L^p(Q) = zeta L is
# linear in the coefficients of Q and zeta, so a bounded-degree ansatz turns
# it into a null-space problem.

import numpy as np

from commsym import (
    AnsatzSpec,
    apply_probe_null_dimension,
    build_determining_system,
    flow,
    solve_null_space,
    structure_constants,
    LinDiffOp,
)
from commsym.scenarios import boost_generator, h1_generator, wave_operator

box = wave_operator()

# affine ansatz, two-fold bracket: the full 20-parameter linear group appears
spec = AnsatzSpec(degree=1, p=2, zeta_degree=0)
system = build_determining_system(box, spec)
print("unknowns:", len(system.unknowns), " equations:", len(system.row_codes))

basis = solve_null_space(system)
print("null-space dimension:", basis.dimension)

# second count: apply the residual operators (the matrix columns) to random
# exponential probes at random points and count the rank
oracle = apply_probe_null_dimension(system, np.random.default_rng(0))
print("apply-route oracle dimension:", oracle)

# solve_null_space re-verified the null vectors through the operator
# algebra, without the matrix: one ad_power of L on a random combination of
# them; show that residual and one null vector decoded into a generator
print("re-verification residual:", basis.reverify_residual)
cand = system.decode(basis.vectors[0])
print("sample generator:", cand.Q, " zeta:", cand.zeta)

# structure constants of a hand-picked closed subalgebra {d0, d1, x0 d1}
C, closure = structure_constants([LinDiffOp.partial(0), LinDiffOp.partial(1), h1_generator()])
print("C[x0 d1, d0] =", C[2, 0], " closure residual:", closure)

# flows: the shear integrates to a Galilei boost, the hyperbolic generator
# to a Lorentz boost
shear_map = flow(h1_generator(), 0.3)
print("shear flow of (1, 0, 0, 0):", shear_map((1.0, 0.0, 0.0, 0.0)))
boost_map = flow(boost_generator(), 0.3)
print("boost flow matrix block:\n", boost_map.A[:2, :2])
print("cosh/sinh(0.3) =", np.cosh(0.3), np.sinh(0.3))
