#!/usr/bin/env python3
# The wave equation under a Galilei boost: the boosted operator annihilates
# the weighted plane wave, with a scalar exponential weight function.

from commsym import DalembertParams, run_dalembert
from commsym.scenarios import (
    boosted_params,
    dalembert_engaging_operator,
    dalembert_weight,
    galilei_map,
    infer_weight,
    plane_wave,
)

p = DalembertParams(beta=0.3, n=(0.0, 1.0, 0.0), omega=1.0, c=1.0)
print(f"boost beta = {p.beta}, direction n = {p.n}, frame ratio lambda = {p.lam:.6f}")

# the weight is a single exponential; multiplying the plane wave by it
# produces exactly the plane wave of the boosted frame
w = dalembert_weight(p)
phi = plane_wave(p)
print("weight:", w)
print("weighted wave is one exponential:", len((w * phi).terms) == 1)

# the boosted operator (d0 + beta d1)^2 / lambda^2 - laplacian kills it
A = dalembert_engaging_operator(p)
print("engaging residual:", A.apply(w * phi).max_coeff())

# the weight can be recovered the other way: transform the boosted-frame
# plane wave back through the coordinate map and divide by the original
primed = plane_wave(boosted_params(p, 0.0))
recovered = infer_weight(primed, galilei_map(p), phi)
print("weight recovery gap:", (recovered - w).max_coeff())

# the full suite runs the named checks at once
report = run_dalembert(p)
for c in report.checks:
    print(f"  [{'PASS' if c.passed else 'FAIL'}] {c.name:42s} {c.residual:.3e}")
print("overall:", "PASS" if report.passed else "FAIL")
