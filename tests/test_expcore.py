"""Exponential-polynomial arithmetic: examples and algebraic properties."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commsym.expcore import MERGE_TOL, ExpPoly, ExpTerm, NonFinite


def rand_poly(rng, n_terms=3, kappa_scale=0.5):
    terms = []
    for _ in range(n_terms):
        alpha = tuple(int(v) for v in rng.integers(0, 2, 4))
        kappa = tuple(
            complex(a, b)
            for a, b in zip(rng.normal(0, kappa_scale, 4), rng.normal(0, kappa_scale, 4))
        )
        terms.append(ExpTerm(complex(rng.normal(), rng.normal()), alpha, kappa))
    return ExpPoly(terms)


def eval_terms(terms, x):
    """Independent straight-line evaluation of a raw term list."""
    total = 0j
    for t in terms:
        mono = 1.0
        for xa, aa in zip(x, t.alpha):
            mono *= xa**aa
        total += t.coeff * mono * cmath.exp(sum(k * xa for k, xa in zip(t.kappa, x)))
    return total


# -- normalize ---------------------------------------------------------------


def test_normalize_cancellation_gives_zero():
    out = ExpPoly([ExpTerm(1 + 0j), ExpTerm(-1 + 0j)])
    assert out.is_zero()
    assert out.terms == ()


def test_normalize_merges_equal_monomials():
    a = (1, 0, 0, 0)
    out = ExpPoly([ExpTerm(1 + 0j, a), ExpTerm(2 + 0j, a)])
    assert len(out.terms) == 1
    assert out.terms[0].coeff == 3 + 0j


def test_normalize_merges_kappa_within_tolerance():
    k1 = (1j, 0j, 0j, 0j)
    k2 = (1j + 1e-15, 0j, 0j, 0j)
    raw = [ExpTerm(1 + 0j, kappa=k1), ExpTerm(1 + 0j, kappa=k2)]
    out = ExpPoly(raw)
    assert len(out.terms) == 1
    assert out.terms[0].coeff == 2 + 0j
    # oracle: merged form equals the raw sum at random points
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = tuple(rng.uniform(-1, 1, 4))
        assert abs(out.evaluate(x) - eval_terms(raw, x)) < 1e-12


def test_normalize_merges_across_interleaved_covector():
    # (0,5i) and (1e-13,5i) cancel although (5e-14,3i) sorts between them
    raw = [
        ExpTerm(1 + 0j, kappa=(0j, 5j, 0j, 0j)),
        ExpTerm(2 + 0j, kappa=(5e-14 + 0j, 3j, 0j, 0j)),
        ExpTerm(-1 + 0j, kappa=(1e-13 + 0j, 5j, 0j, 0j)),
    ]
    out = ExpPoly(raw)
    assert out.terms == (raw[1],)


_COMPONENT = st.complex_numbers(max_magnitude=1e7, allow_nan=False, allow_infinity=False)
_SHIFT = st.floats(-0.07, 0.07)  # |re + i im| <= 0.1


@settings(max_examples=200, deadline=None)
@given(
    kappa=st.tuples(_COMPONENT, _COMPONENT, _COMPONENT, _COMPONENT),
    shift=st.lists(_SHIFT, min_size=8, max_size=8),
    fillers=st.lists(st.floats(0.0, 1.0), max_size=4),
    data=st.data(),
)
def test_perturbed_covectors_merge_whatever_sorts_between(kappa, shift, fillers, data):
    """Covectors within 0.1 * MERGE_TOL * max(1, |kappa|) per component are
    one exponential, also with other covectors sorting between the two."""
    step = MERGE_TOL * max(1.0, *(abs(k) for k in kappa))
    moved = tuple(k + complex(shift[2 * j], shift[2 * j + 1]) * step for j, k in enumerate(kappa))
    lo, hi = sorted((kappa[0].real, moved[0].real))
    # same alpha, Re kappa0 between the pair, kappa1 at least 1 away from both
    between = [
        ExpTerm(
            complex(i + 1, 0),
            kappa=(complex(lo + f * (hi - lo), kappa[0].imag), kappa[1] + (i + 1), kappa[2], kappa[3]),
        )
        for i, f in enumerate(fillers)
    ]
    raw = data.draw(st.permutations([ExpTerm(1 + 0j, kappa=kappa), ExpTerm(-1 + 0j, kappa=moved)] + between))
    assert ExpPoly(raw) == ExpPoly(between)


def test_normalize_rejects_non_finite():
    with pytest.raises(NonFinite):
        ExpPoly([ExpTerm(complex(math.inf, 0))])
    with pytest.raises(NonFinite):
        ExpPoly([ExpTerm(1 + 0j, kappa=(complex(math.nan, 0), 0j, 0j, 0j))])


_HUGE = st.complex_numbers(max_magnitude=1e308, allow_nan=False, allow_infinity=False)
_ALPHA = st.tuples(*[st.integers(0, 3)] * 4)


@settings(max_examples=200, deadline=None)
@given(terms=st.lists(st.tuples(_ALPHA, _HUGE, st.tuples(*[_HUGE] * 4)), max_size=6,
                      unique_by=lambda t: t[0]))
def test_gate_accepts_finite_terms_up_to_1e308(terms):
    """Finite coefficients up to 1e308 on distinct alphas never raise, and
    the gate keeps only input terms."""
    raw = [ExpTerm(c, alpha, kappa) for alpha, c, kappa in terms]
    assert set(ExpPoly(raw).terms) <= set(raw)


_POOL_ALPHA = [(0, 0, 0, 0), (1, 0, 0, 0)]
_POOL_KAPPA = [(0j, 0j, 0j, 0j), (0.5j, -1 + 0j, 0j, 2 + 0j)]
# 1 and -1 cancel when merged; 1e-20 beside 1 is dropped
_POOL_COEFF = [1 + 0j, -1 + 0j, 1e-20 + 0j, 2.5 - 1j]


@settings(max_examples=300, deadline=None)
@given(
    terms=st.lists(
        st.tuples(st.sampled_from(_POOL_ALPHA), st.sampled_from(_POOL_COEFF),
                  st.sampled_from(_POOL_KAPPA)),
        min_size=1, max_size=6,
    ),
    data=st.data(),
    slot=st.integers(0, 4),
    imag=st.booleans(),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_gate_rejects_one_non_finite_component(terms, data, slot, imag, bad):
    """One NaN or inf in the coefficient or any covector component of any
    term raises, whether that term would be kept, merged or dropped."""
    raw = [ExpTerm(c, alpha, kappa) for alpha, c, kappa in terms]
    ExpPoly(raw)  # the unpoisoned list passes the gate
    i = data.draw(st.integers(0, len(raw) - 1))
    values = [raw[i].coeff, *raw[i].kappa]
    z = values[slot]
    values[slot] = complex(z.real, bad) if imag else complex(bad, z.imag)
    raw[i] = ExpTerm(values[0], raw[i].alpha, tuple(values[1:]))
    with pytest.raises(NonFinite):
        ExpPoly(raw)


def test_infinite_covector_is_not_merged_away():
    raw = [ExpTerm(1 + 0j), ExpTerm(1 + 0j, kappa=(0j, complex(math.inf, 0), 0j, 0j))]
    with pytest.raises(NonFinite):
        ExpPoly(raw)


@pytest.mark.parametrize("c", [math.nan, math.inf, complex(0, -math.inf)])
def test_constant_rejects_non_finite(c):
    with pytest.raises(NonFinite):
        ExpPoly.constant(c)


def test_constant_zero_is_zero_poly():
    assert ExpPoly.constant(0) == ExpPoly.zero()


@pytest.mark.parametrize("a", [-1, 4])
def test_coordinate_rejects_index_outside_0_to_3(a):
    with pytest.raises(ValueError):
        ExpPoly.coordinate(a)


def test_exp_term_is_a_named_tuple():
    k = (0.5j, 0j, 0j, 0j)
    t = ExpTerm(2 + 0j, kappa=k)
    assert t == ExpTerm(coeff=2 + 0j, alpha=(0, 0, 0, 0), kappa=k)
    assert hash(t) == hash((2 + 0j, (0, 0, 0, 0), k))
    assert repr(ExpTerm(1 + 0j)) == (
        "ExpTerm(coeff=(1+0j), alpha=(0, 0, 0, 0), kappa=(0j, 0j, 0j, 0j))"
    )


def test_normalize_idempotent():
    rng = np.random.default_rng(5)
    for _ in range(25):
        f = rand_poly(rng)
        assert ExpPoly(f.terms) == f


# -- arithmetic --------------------------------------------------------------


def test_mul_adds_exponents():
    k = (0j, 2 + 0j, 0j, 0j)
    kp = (0j, -0.5 + 1j, 0j, 0j)
    f = ExpPoly.coordinate(1) * ExpPoly.exponential(1, k)
    g = ExpPoly.exponential(1, kp)
    prod = f * g
    assert len(prod.terms) == 1
    t = prod.terms[0]
    assert t.alpha == (0, 1, 0, 0)
    assert t.kappa == tuple(a + b for a, b in zip(k, kp))


def test_mul_by_inverse_exponential_is_constant():
    k = (0.3j, -1 + 0j, 0j, 0.2j)
    f = ExpPoly.exponential(2.0, k)
    finv = ExpPoly.exponential(0.5, tuple(-v for v in k))
    assert (f * finv).approx_eq(ExpPoly.constant(1), 1e-14)


def test_add_cancels():
    f = ExpPoly.exponential(1, (1j, 0j, 0j, 0j))
    assert (f + (-f)).is_zero()


def test_scale_by_zero():
    assert (rand_poly(np.random.default_rng(0)) * 0).is_zero()


# -- derive ------------------------------------------------------------------


def test_derive_product_and_chain_rule():
    # d/dx1 [x1 e^{2 x1}] = (1 + 2 x1) e^{2 x1}
    f = ExpPoly.coordinate(1) * ExpPoly.exponential(1, (0, 2, 0, 0))
    df = f.derive(1)
    expected = (ExpPoly.constant(1) + 2 * ExpPoly.coordinate(1)) * ExpPoly.exponential(
        1, (0, 2, 0, 0)
    )
    assert df.approx_eq(expected, 1e-14)


def test_derive_plane_wave_brings_down_covector():
    # d_a exp(-i k.x) = -i k_a exp(-i k.x); phase omega(t - n.x/c) on x0 = ct
    omega, n = 1.3, (0.6, 0.0, 0.8)
    kappa = (-1j * omega, 1j * omega * n[0], 1j * omega * n[1], 1j * omega * n[2])
    wave = ExpPoly.exponential(1.0, kappa)
    for a in range(4):
        assert wave.derive(a).approx_eq(kappa[a] * wave, 1e-14)


def test_derive_constant_is_zero():
    assert ExpPoly.constant(1).derive(2).is_zero()


def test_commuting_partials():
    rng = np.random.default_rng(7)
    for _ in range(20):
        f = rand_poly(rng)
        for a in range(4):
            for b in range(a + 1, 4):
                assert f.derive(a).derive(b).approx_eq(f.derive(b).derive(a), 1e-12)


# -- evaluate ----------------------------------------------------------------


def test_evaluate_euler_identity():
    f = ExpPoly.exponential(1.0, (1j, 0j, 0j, 0j))
    assert abs(f.evaluate((math.pi, 0, 0, 0)) - (-1)) < 1e-14


def test_evaluate_zero_poly():
    assert ExpPoly.zero().evaluate((0.3, -2, 1, 9)) == 0


def test_evaluate_monomial_exponential():
    # x1 e^{2 x1} at x1 = 1 equals e^2 (scalar arithmetic oracle)
    f = ExpPoly.coordinate(1) * ExpPoly.exponential(1, (0, 2, 0, 0))
    assert abs(f.evaluate((0, 1, 0, 0)) - math.exp(2)) < 1e-12


def test_evaluate_overflow_raises():
    f = ExpPoly.exponential(1.0, (800.0, 0, 0, 0))
    with pytest.raises(NonFinite):
        f.evaluate((2.0, 0, 0, 0))


def test_evaluation_homomorphism():
    rng = np.random.default_rng(11)
    for _ in range(100):
        f, g = rand_poly(rng), rand_poly(rng)
        x = tuple(rng.uniform(-1, 1, 4))
        lhs = (f * g).evaluate(x)
        rhs = f.evaluate(x) * g.evaluate(x)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


# -- product rule (the central exactness property) ----------------------------


def test_derivation_law():
    rng = np.random.default_rng(13)
    for _ in range(50):
        f, g = rand_poly(rng), rand_poly(rng)
        for a in range(4):
            lhs = (f * g).derive(a)
            rhs = f.derive(a) * g + f * g.derive(a)
            assert lhs.approx_eq(rhs, 1e-12)


# -- is_zero -----------------------------------------------------------------


def test_is_zero_with_witness():
    # off-shell plane wave: box residual is (-k0^2 + |k|^2) * wave
    k0, k1 = 2.0, 1.0
    wave = ExpPoly.exponential(1.0, (-1j * k0, 1j * k1, 0j, 0j))
    residual = (
        wave.derive(0).derive(0)
        - wave.derive(1).derive(1)
        - wave.derive(2).derive(2)
        - wave.derive(3).derive(3)
    )
    assert not residual.is_zero()
    w = residual.witness()
    assert w is not None
    assert abs(abs(w.coeff) - abs(-(k0**2) + k1**2)) < 1e-12


def test_is_zero_with_external_scale():
    tiny = ExpPoly.constant(1e-14)
    assert not tiny.is_zero()  # relative to itself it is a real term
    assert tiny.is_zero(scale=1.0)  # noise relative to O(1) inputs


# -- affine substitution -------------------------------------------------------


def test_substitute_affine_matches_pointwise():
    rng = np.random.default_rng(17)
    for _ in range(15):
        f = rand_poly(rng)
        A = rng.normal(size=(4, 4))
        b = rng.normal(size=4)
        g = f.substitute_affine(A, b)
        for _ in range(5):
            x = rng.uniform(-0.5, 0.5, 4)
            assert abs(g.evaluate(tuple(x)) - f.evaluate(tuple(A @ x + b))) < 1e-9 * max(
                1.0, abs(f.evaluate(tuple(A @ x + b)))
            )


def test_substitute_affine_overflow_raises():
    f = ExpPoly.exponential(1.0, (1.0, 0, 0, 0))
    with pytest.raises(NonFinite):
        f.substitute_affine(np.eye(4), (1000.0, 0, 0, 0))
