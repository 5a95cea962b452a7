"""Seeded random exponential polynomials and operators shared by the tests,
and the tolerance comparison the tests apply to them.

Each generator draws from the given numpy Generator in a fixed order, so a
test seeded the same way always sees the same inputs.
"""

from commsym.expcore import ExpPoly, ExpTerm
from commsym.opalg import LinDiffOp


def approx_eq(a, b, tol):
    """Whether two ExpPolys or two LinDiffOps agree coefficient-wise:
    max|coeff(a - b)| <= tol * max(max|coeff(a)|, max|coeff(b)|, 1)."""
    scale = max(a.max_coeff(), b.max_coeff(), 1.0)
    return (a - b).max_coeff() <= tol * scale


def rand_poly(rng):
    """Three terms with 0/1 exponents and complex covectors of scale 0.5."""
    terms = []
    for _ in range(3):
        alpha = tuple(int(v) for v in rng.integers(0, 2, 4))
        kappa = tuple(
            complex(a, b) for a, b in zip(rng.normal(0, 0.5, 4), rng.normal(0, 0.5, 4))
        )
        terms.append(ExpTerm(complex(rng.normal(), rng.normal()), alpha, kappa))
    return ExpPoly(terms)


def rand_op(rng):
    """Three terms of order at most 2 with rand_poly coefficients."""
    terms = []
    for _ in range(3):
        delta = [0, 0, 0, 0]
        for _ in range(int(rng.integers(0, 3))):
            delta[int(rng.integers(0, 4))] += 1
        terms.append((tuple(delta), rand_poly(rng)))
    return LinDiffOp(terms)


def rand_generator(rng):
    """Random generator-shaped operator: polynomial coefficients of degree
    <= 2 with at most one shared exponential factor (the class symmetry
    candidates live in)."""
    kappa_pool = ((0j, 0j, 0j, 0j), (0.5j, -0.25j, 0j, 0.5 + 0j))

    def coeff():
        kappa = kappa_pool[int(rng.integers(0, 2))]
        terms = [
            ExpTerm(
                complex(rng.normal(), rng.normal()),
                tuple(int(v) for v in rng.multinomial(int(rng.integers(0, 3)), [0.25] * 4)),
                kappa,
            )
            for _ in range(2)
        ]
        return ExpPoly(terms)

    return LinDiffOp.first_order([coeff() for _ in range(4)], coeff())
