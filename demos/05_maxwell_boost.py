#!/usr/bin/env python3
# The free Maxwell system under a Galilei boost: an 8x6 first-order operator,
# a field-mixing transform, quadratic invariants, and the two-boost
# composition laws.

from commsym import DalembertParams, MaxwellTransform, run_maxwell
from commsym.scenarios import (
    check_composition,
    compose_d_parameters,
    maxwell_operator,
    maxwell_primed_operator,
    plane_fields,
    polarization,
    transform_fields,
)

p = DalembertParams(beta=0.3, n=(0.0, 1.0, 0.0))
t = MaxwellTransform.from_params(p)
# eq29: e32 = -e23, h32 = e23 and h23 = -e23; e23 is the d of the
# composition law below
print(f"transform parameters: kappa = {t.kappa:.6f}, d = e23 = {t.e23:.6f}, "
      f"h23 = {t.h23:.6f}")

# a transverse plane wave solves all eight rows
l, m = polarization(p)
fields = plane_fields(p, l, m)
rows = maxwell_operator().apply(fields)
print("unprimed rows max residual:", max(r.max_coeff() for r in rows))

# the boosted system (time rows with (d0 + beta d1)/lambda) annihilates the
# transformed fields
primed = transform_fields(fields, t)
rows = maxwell_primed_operator(p).apply(primed)
print("boosted rows max residual:", max(r.max_coeff() for r in rows))

# E'.H' and E'^2 - H'^2 stay exactly zero on shell
report = run_maxwell(p)
print("E'.H' residual:", report.check("eq28_invariant_e_dot_h").residual)
print("E'^2-H'^2 residual:", report.check("eq28_invariant_e2_minus_h2").residual)
print("maxwell suite overall:", "PASS" if report.passed else "FAIL")

# composing two boosts: the weight multiplies, the mixing parameter obeys
# d'' = (d' + d)/(1 + d'd) and the amplitudes multiply with the same factor;
# the second boost, of velocity 0.2 in the boosted frame, is built from p
comp = check_composition(p, 0.2)
for c in comp.checks:
    print(f"  [{'PASS' if c.passed else 'FAIL'}] {c.name:28s} {c.residual:.3e}")
print("d-composition spot value d(0.2, 0.3) ->", compose_d_parameters(0.2, 0.3))
