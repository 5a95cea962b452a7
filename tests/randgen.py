"""Seeded random exponential polynomials and operators shared by the tests,
and the tolerance comparison the tests apply to them.

Each generator draws from the given numpy Generator in a fixed order, so a
test seeded the same way always sees the same inputs.
"""

import cmath
import math
from unittest import mock

from hypothesis import strategies as st

from commsym.expcore import MERGE_TOL, ExpPoly, ExpTerm, NonFinite
from commsym.opalg import LinDiffOp, residual_vs_multiple


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


def reference_normalize(terms):
    """Canonical form of a raw term list by the sort-and-window rule, term by
    term: the reference the accumulator gate of ExpPoly is compared with.

    Terms are sorted by (alpha, Re kappa0, Im kappa0, ..., Im kappa3).  A term
    merges into the latest merged term of its alpha whose covector is within
    MERGE_TOL * max(1, max_j |kappa_j|) of its own in every component, the
    scan stopping at the first Re kappa0 below that reach; a merged term keeps
    the earlier covector.  Any non-finite coefficient or covector raises;
    terms whose coefficient is exactly zero are dropped.
    """
    def sort_key(t):
        k = t.kappa
        return (t.alpha, k[0].real, k[0].imag, k[1].real, k[1].imag,
                k[2].real, k[2].imag, k[3].real, k[3].imag)

    def close(a, b, reach):
        return all(abs(x - y) <= reach for x, y in zip(a, b))

    merged = []
    for t in sorted(terms, key=sort_key):
        alpha, k = t.alpha, t.kappa
        i = len(merged) - 1
        if i < 0 or merged[i].alpha != alpha:
            merged.append(t)
            continue
        if merged[i].kappa != k:
            reach = MERGE_TOL * max(1.0, abs(k[0]), abs(k[1]), abs(k[2]), abs(k[3]))
            lowest = k[0].real - reach
            while (reach < math.inf and i >= 0 and merged[i].alpha == alpha
                   and merged[i].kappa[0].real >= lowest):
                if close(merged[i].kappa, k, reach):
                    break
                i -= 1
            else:  # no close covector in the window
                merged.append(t)
                continue
        m = merged[i]
        merged[i] = ExpTerm(m.coeff + t.coeff, alpha, m.kappa)

    for c, _, k in merged:
        if not (cmath.isfinite(c) and all(cmath.isfinite(v) for v in k)):
            raise NonFinite(f"non-finite coefficient {c!r} or covector {k!r}")
    return tuple(t for t in merged if t.coeff != 0)


def assert_same_terms(terms, reference, size):
    """The terms of two canonical forms of one sum agree: the same alpha and
    covector, in the same order, with coefficients within 1e-14 * size.  Terms
    of magnitude up to that on either side are left out: they are rounding
    residues of cancellations, and the order of summation decides them."""
    floor = 1e-14 * size
    kept = [t for t in terms if abs(t.coeff) > floor]
    expected = [t for t in reference if abs(t.coeff) > floor]
    assert [(t.alpha, t.kappa) for t in kept] == [(t.alpha, t.kappa) for t in expected]
    for t, e in zip(kept, expected):
        assert abs(t.coeff - e.coeff) <= floor, (t, e)


# a few alphas and covectors; the second and third covectors sort next to each
# other with Re kappa0 = 0, the fourth has a large component, so the window
# and the reach MERGE_TOL * max(1, max_j |kappa_j|) both matter
_LIST_ALPHA = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 2, 0, 1)]
_LIST_KAPPA = [
    (0j, 0j, 0j, 0j),
    (0.5j, -1 + 0j, 0j, 2 + 0j),
    (0.5j, -1 + 0j, 0.25j, 2 + 0j),
    (3 - 1j, 0j, 1e6j, 0j),
]
# relative nudges of a covector component: copies 1e-13 apart merge, copies
# 6e-13 from the base merge into it but not with each other
_NUDGE = st.sampled_from([0.0, 1e-13, -1e-13, 6e-13, -6e-13])
_COEFF = st.builds(complex, st.floats(-2, 2).filter(lambda v: abs(v) > 0.1),
                   st.sampled_from([0.0, 0.5, -1.5]))


@st.composite
def term_lists(draw, max_terms=8):
    """Raw term lists from a few alphas and covectors, each covector nudged
    per component by up to 6e-13 relative, so that chains of covectors within
    reach of each other arise, with exact duplicates and cancelling pairs,
    exact or nudged, in any order."""
    def nudged(kappa):
        scale = max(1.0, *(abs(v) for v in kappa))
        return tuple(v + complex(draw(_NUDGE), draw(_NUDGE)) * scale for v in kappa)

    out = []
    for _ in range(draw(st.integers(1, max_terms))):
        alpha = draw(st.sampled_from(_LIST_ALPHA))
        base = draw(st.sampled_from(_LIST_KAPPA))
        t = ExpTerm(draw(_COEFF), alpha, nudged(base))
        out.append(t)
        partner = draw(st.sampled_from(["none", "duplicate", "cancel", "cancel nudged"]))
        if partner == "duplicate":
            out.append(t)
        elif partner == "cancel":
            out.append(ExpTerm(-t.coeff, alpha, t.kappa))
        elif partner == "cancel nudged":
            out.append(ExpTerm(-t.coeff, alpha, nudged(base)))
    return draw(st.permutations(out))


def bits(terms):
    """The terms with every float written in hex: two lists are equal when
    every coefficient and covector is equal bit for bit, signed zeros
    included, and every coefficient has the same type."""
    def h(z):
        return (type(z).__name__, float(z.real).hex(), float(z.imag).hex())

    return [(h(c), alpha, tuple(h(k) for k in kappa)) for c, alpha, kappa in terms]


def op_bits(op):
    """bits of each coefficient of an operator, by multi-index."""
    return [(delta, bits(c.terms)) for delta, c in op.terms]


def gate_inputs(fn, *args):
    """fn(*args), and the bits of the term list that each ExpPoly(terms) call
    made by it was given, in call order."""
    seen = []
    init = ExpPoly.__init__

    def recording(self, terms=()):
        terms = list(terms)
        seen.append(bits(terms))
        init(self, terms)

    with mock.patch.object(ExpPoly, "__init__", recording):
        out = fn(*args)
    return out, seen


def assert_residual_is_the_gate_route(A, L, zeta):
    """residual_vs_multiple(A, L, zeta) against A - zeta L formed through
    LinDiffOp's constructor and A + (-B): the same residual and largest
    coefficient bit for bit, from gates given the same term lists in the
    same order."""
    expected, route = gate_inputs(lambda: A - LinDiffOp((d, zeta * c) for d, c in L.terms))
    (residual, size), seen = gate_inputs(residual_vs_multiple, A, L, zeta)
    assert op_bits(residual) == op_bits(expected)
    assert size == expected.max_coeff()
    assert seen == route


# coefficients and covector components at the edges of the float range: signed
# zeros, NaN, inf, a subnormal and values whose products underflow or overflow
_EDGE = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-200, 1e308])
edge_complexes = st.one_of(
    st.complex_numbers(max_magnitude=10),
    st.builds(complex, _EDGE, _EDGE),
    st.builds(complex, st.floats(-10, 10), _EDGE),
)
