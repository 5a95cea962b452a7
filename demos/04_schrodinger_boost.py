#!/usr/bin/env python3
# The Schrodinger operator under a Lorentz boost, including the honest
# handling of a catalogued weight formula that fails its own identity.

from commsym import SchrodingerParams, run_schrodinger
from commsym.scenarios import (
    psi1,
    psi2,
    psi11_weight,
    psi22_weight_printed,
    psi_weight_via_transform,
    schrodinger_engaging_operator,
    schrodinger_operator,
)

p = SchrodingerParams(V=0.2, v=(0.4, 0.0, 0.0))
print(f"frame velocity V = {p.V}c, particle velocity v = {p.v}, energy W = {p.W:.6f}")

# both exponential solutions satisfy the operator exactly
ls = schrodinger_operator(p)
print("dispersion residual psi1:", ls.apply(psi1(p)).max_coeff())
print("dispersion residual psi2:", ls.apply(psi2(p)).max_coeff())

# the boosted operator annihilates weight * solution for the psi1 weight
A = schrodinger_engaging_operator(p)
print("engaging residual, psi1 weight:", A.apply(psi11_weight(p) * psi1(p)).max_coeff())

# the catalogued psi2 weight does NOT satisfy the identity; the library
# reports the measured residual instead of patching the formula.  The
# reconstruction (transform the boosted-frame solution back and divide)
# passes to rounding.
printed = A.apply(psi22_weight_printed(p) * psi2(p)).max_coeff()
via = A.apply(psi_weight_via_transform(p, psi2) * psi2(p)).max_coeff()
print("engaging residual, psi2 weight as catalogued:", printed)
print("engaging residual, psi2 weight reconstructed:", via)

report = run_schrodinger(p)
for c in report.checks:
    print(f"  [{'PASS' if c.passed else 'FAIL'}] {c.name:42s} {c.residual:.3e}")
print("overall:", "PASS" if report.passed else "FAIL",
      "(the as-printed psi2 check is a documented discrepancy)")
