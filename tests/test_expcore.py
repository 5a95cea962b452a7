"""Exponential-polynomial arithmetic: examples and algebraic properties."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st
from randgen import (
    approx_eq, assert_same_terms, bits, edge_complexes, rand_poly, reference_normalize, term_lists,
)

from commsym.expcore import (
    MERGE_TOL, ZERO_ALPHA, ExpPoly, ExpTerm, NonFinite, _accumulate, _add_products, _canonical,
)


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


@settings(max_examples=300, deadline=None)
@given(raw=term_lists())
def test_gate_matches_sort_and_window_reference(raw):
    """The accumulator gate gives the terms of the term-by-term
    sort-and-window reference: the same alpha and covector, in the same
    order, with coefficients within 1e-14 of the largest input."""
    size = max(abs(t.coeff) for t in raw)
    assert_same_terms(ExpPoly(raw).terms, reference_normalize(raw), size)


@settings(max_examples=200, deadline=None)
@given(left=term_lists(max_terms=4), right=term_lists(max_terms=4))
def test_product_is_the_gate_of_the_flat_product_list(left, right):
    p, q = ExpPoly(left), ExpPoly(right)
    flat = [
        ExpTerm(s.coeff * o.coeff,
                tuple(a + b for a, b in zip(s.alpha, o.alpha)),
                tuple(a + b for a, b in zip(s.kappa, o.kappa)))
        for s in p.terms
        for o in q.terms
    ]
    assert p * q == ExpPoly(flat)
    size = max((abs(t.coeff) for t in flat), default=0.0)
    assert_same_terms((p * q).terms, reference_normalize(flat), size)


# -- sums that cannot sort or merge --------------------------------------------
# A one-term sum, a one-term product, a scalar multiple and a derivative with
# one term or along an axis no covector touches are built without the gate's
# sort and merge.  Each gives the terms of the gate applied to the flat term
# list bit for bit, or raises as the gate does; and as no merge happens in
# these sums, the terms kept are also the reference's, bit for bit.


def _same_as_gate(build, flat):
    try:
        expected = ExpPoly(flat).terms
    except NonFinite:
        with pytest.raises(NonFinite):
            build()
        return
    assert bits(build().terms) == bits(expected) == bits(reference_normalize(flat))


_ALPHA = st.tuples(*[st.integers(0, 3)] * 4)
_SMALL = st.one_of(st.just(0j), st.complex_numbers(max_magnitude=10))
# finite coefficients whose products and derivatives may underflow or overflow
_FINITE_TERMS = st.builds(ExpTerm, edge_complexes.filter(cmath.isfinite), _ALPHA,
                          st.tuples(*[_SMALL] * 4))


@settings(max_examples=300, deadline=None)
@given(c=edge_complexes, alpha=_ALPHA, kappa=st.tuples(*[st.one_of(_SMALL, edge_complexes)] * 4),
       copies=st.integers(1, 2))
def test_one_term_sum_is_the_reference_bit_for_bit(c, alpha, kappa, copies):
    flat = [ExpTerm(c, alpha, kappa)] * copies
    try:
        expected = reference_normalize(flat)
    except NonFinite:
        with pytest.raises(NonFinite):
            ExpPoly(flat)
        return
    assert bits(ExpPoly(flat).terms) == bits(expected)


@settings(max_examples=300, deadline=None)
@given(s=_FINITE_TERMS, o=_FINITE_TERMS)
def test_one_term_product_is_the_gate_bit_for_bit(s, o):
    p, q = ExpPoly([s]), ExpPoly([o])
    flat = [
        ExpTerm(1 * u.coeff * v.coeff,  # the product's own arithmetic: weight * s * o
                tuple(a + b for a, b in zip(u.alpha, v.alpha)),
                tuple(a + b for a, b in zip(u.kappa, v.kappa)))
        for u in p.terms
        for v in q.terms
    ]
    _same_as_gate(lambda: p * q, flat)


# beside a term on this covector, a sum has two covectors and takes the gate's
# general route; no covector drawn here is within merge reach of it
_FAR = (1e6 + 0j, 0j, 0j, 0j)


def _same_as_general_gate(build, flat):
    """build() gives the terms of the gate's general route (sort, merge) on
    the flat term list bit for bit, or raises NonFinite as it does, at the
    same term and with the same message."""
    acc = _accumulate(flat)
    acc[_FAR] = {ZERO_ALPHA: 1 + 0j}
    try:
        expected = tuple(t for t in _canonical(acc) if t.kappa != _FAR)
    except NonFinite as exc:
        with pytest.raises(NonFinite) as raised:
            build()
        assert str(raised.value) == str(exc)
        return
    assert bits(build().terms) == bits(expected)


# a few monomials, so that keys repeat
_FEW_ALPHAS = st.sampled_from([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 2), (2, 0, 1, 0)])


@settings(max_examples=300, deadline=None)
@given(kappa=st.tuples(*[st.one_of(_SMALL, edge_complexes)] * 4),
       terms=st.lists(st.tuples(edge_complexes, _FEW_ALPHAS), min_size=1, max_size=8))
def test_one_covector_sum_is_the_general_gate_bit_for_bit(kappa, terms):
    flat = [ExpTerm(c, alpha, kappa) for c, alpha in terms]
    _same_as_general_gate(lambda: ExpPoly(flat), flat)


@settings(max_examples=300, deadline=None)
@given(s=_FINITE_TERMS, right=st.lists(_FINITE_TERMS, min_size=2, max_size=6),
       weight=st.sampled_from([1, -1, 2, -6]))
def test_one_left_term_product_is_the_general_gate_bit_for_bit(s, right, weight):
    try:
        q = ExpPoly(right)
    except NonFinite:
        reject()  # two terms of right that merge overflow
    assume(len({t.kappa for t in q.terms}) > 1)
    flat = [
        ExpTerm(weight * s.coeff * o.coeff,  # the product's own arithmetic: weight * s * o
                tuple(a + b for a, b in zip(s.alpha, o.alpha)),
                tuple(a + b for a, b in zip(s.kappa, o.kappa)))
        for o in q.terms
    ]

    def build():
        acc = {}
        _add_products(acc, (s,), q.terms, weight)
        return ExpPoly._from(acc)

    _same_as_general_gate(build, flat)


@settings(max_examples=300, deadline=None)
@given(raw=term_lists(), c=edge_complexes)
def test_scalar_multiple_is_the_gate_bit_for_bit(raw, c):
    p = ExpPoly(raw)
    flat = [ExpTerm(t.coeff * complex(c), t.alpha, t.kappa) for t in p.terms]
    _same_as_gate(lambda: p * c, flat)
    _same_as_gate(lambda: c * p, flat)


@pytest.mark.parametrize("scale", [1e-200, complex(0, 1e-200)])
def test_product_that_underflows_is_zero_and_one_that_overflows_raises(scale):
    tiny, big = ExpPoly.constant(1e-200), ExpPoly.exponential(1e308, (1j, 0, 0, 0))
    assert (tiny * ExpPoly.constant(scale)).is_zero() and (tiny * scale).is_zero()
    with pytest.raises(NonFinite):
        big * ExpPoly.constant(10)
    with pytest.raises(NonFinite):
        big * 10


def _flat_derivative(p, a):
    out = []
    for c, alpha, kappa in p.terms:
        if alpha[a]:
            out.append(ExpTerm(c * alpha[a], alpha[:a] + (alpha[a] - 1,) + alpha[a + 1:], kappa))
        if kappa[a]:
            out.append(ExpTerm(c * kappa[a], alpha, kappa))
    return out


@settings(max_examples=300, deadline=None)
@given(t=_FINITE_TERMS, a=st.integers(0, 3))
def test_one_term_derivative_is_the_gate_bit_for_bit(t, a):
    p = ExpPoly([t])
    _same_as_gate(lambda: p.derive(a), _flat_derivative(p, a))


@settings(max_examples=300, deadline=None)
@given(raw=term_lists(), a=st.integers(0, 3))
def test_derivative_along_a_polynomial_axis_is_the_gate_bit_for_bit(raw, a):
    p = ExpPoly(ExpTerm(t.coeff, t.alpha, t.kappa[:a] + (0j,) + t.kappa[a + 1:]) for t in raw)
    _same_as_gate(lambda: p.derive(a), _flat_derivative(p, a))


def test_derivative_along_a_polynomial_axis_keeps_the_input_order():
    # three covectors, none with a kappa_0: d/dx0 lowers each power of x0 in
    # place, and the term without x0 goes
    k1, k2 = (0j, 1j, 0j, 0j), (0j, 0j, 2 + 0j, -1j)
    p = ExpPoly([ExpTerm(1 + 0j, (2, 0, 0, 0), k1), ExpTerm(3 + 0j, (1, 0, 0, 0), k2),
                 ExpTerm(5 + 0j, (1, 1, 0, 0)), ExpTerm(7 + 0j, (1, 1, 0, 0), k1),
                 ExpTerm(9 + 0j, (0, 1, 0, 0), k2)])
    expected = (ExpTerm(3 + 0j, (0, 0, 0, 0), k2), ExpTerm(5 + 0j, (0, 1, 0, 0)),
                ExpTerm(7 + 0j, (0, 1, 0, 0), k1), ExpTerm(2 + 0j, (1, 0, 0, 0), k1))
    assert p.derive(0).terms == expected == ExpPoly(expected).terms


def test_merged_term_keeps_a_covector_its_own_alpha_brought():
    # within reach of each other (|0.25 - 0| <= 1e-12 * 2.5e11), the second
    # covector sorts first; a merge across alphas would give alpha0 kappa_b
    kappa_a = (0j, 0j, 0.25 + 0j, 2.5e11 + 0j)
    kappa_b = (0j, 0j, 0j, 2.5e11 + 0j)
    alpha0, alpha1 = (0, 0, 0, 0), (0, 0, 0, 1)
    apart = [ExpTerm(1 + 0j, alpha0, kappa_a), ExpTerm(2 + 0j, alpha1, kappa_b)]
    assert ExpPoly(apart).terms == tuple(apart)
    assert ExpPoly(apart[::-1]).terms == tuple(apart)
    # alpha0 bringing both merges into the earlier one, kappa_b
    both = apart + [ExpTerm(3 + 0j, alpha0, kappa_b)]
    expected = (ExpTerm(4 + 0j, alpha0, kappa_b), ExpTerm(2 + 0j, alpha1, kappa_b))
    assert ExpPoly(both).terms == expected
    assert ExpPoly(both[::-1]).terms == expected


def test_normalize_rejects_non_finite():
    with pytest.raises(NonFinite):
        ExpPoly([ExpTerm(complex(math.inf, 0))])
    with pytest.raises(NonFinite):
        ExpPoly([ExpTerm(1 + 0j, kappa=(complex(math.nan, 0), 0j, 0j, 0j))])


_HUGE = st.complex_numbers(max_magnitude=1e308, allow_nan=False, allow_infinity=False)


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
# 1 and -1 cancel when merged; 1e-20 beside 1 is a term of its own
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


# finite parts whose modulus is beyond the float range, where abs() raises
_BEYOND = complex(1.5e308, 1e308)


def test_coefficient_beyond_the_modulus_range_is_kept():
    term = ExpTerm(_BEYOND)
    scaled = ExpTerm(complex(1e308 * 1.5, 1e308))
    for p, kept in [
        (ExpPoly([term]), term),
        (ExpPoly.constant(1e308) * (1.5 + 1j), scaled),
        (ExpPoly([ExpTerm(2j, (1, 0, 0, 0)), term]), term),
    ]:
        assert kept in p.terms
        assert p.max_coeff() == math.inf and p.witness() == kept
    with pytest.raises(NonFinite):  # the sum overflows
        ExpPoly([term, term])


def test_covector_beyond_the_modulus_range_has_a_window():
    big = (_BEYOND, 0j, 0j, 0j)
    assert ExpPoly([ExpTerm(1 + 0j, kappa=big), ExpTerm(1 + 0j)]).terms == (
        ExpTerm(1 + 0j), ExpTerm(1 + 0j, kappa=big))
    # the reach is MERGE_TOL * |1.5e308 + 1e308 i|, about 1.8e296: a covector
    # 1e-13 of its size away merges into it, one 1e-11 away does not
    near = (complex(1.5e308 * (1 + 1e-13), 1e308), 0j, 0j, 0j)
    far = (complex(1.5e308 * (1 - 1e-11), 1e308), 0j, 0j, 0j)
    assert ExpPoly([ExpTerm(2 + 0j, kappa=near), ExpTerm(1 + 0j, kappa=big)]).terms == (
        ExpTerm(3 + 0j, kappa=big),)
    assert ExpPoly([ExpTerm(2 + 0j, kappa=far), ExpTerm(1 + 0j, kappa=big)]).terms == (
        ExpTerm(2 + 0j, kappa=far), ExpTerm(1 + 0j, kappa=big))


@pytest.mark.parametrize("c", [math.nan, math.inf, complex(0, -math.inf)])
def test_constant_rejects_non_finite(c):
    with pytest.raises(NonFinite):
        ExpPoly.constant(c)
    with pytest.raises(NonFinite):
        ExpPoly([ExpTerm(complex(c))])


def test_constant_zero_is_zero_poly():
    for c in (0, -0.0, complex(-0.0, -0.0)):
        assert ExpPoly.constant(c) == ExpPoly.zero() == ExpPoly([ExpTerm(complex(c))]), c


@pytest.mark.parametrize("c", [1, -2.5, 1j, 3 - 4j, complex(2, -0.0), 1e-300, -1e308,
                               complex(1e308, 1e308), np.float64(0.25)])
def test_constant_equals_the_gate_built_constant(c):
    built = ExpPoly.constant(c)
    gated = ExpPoly([ExpTerm(complex(c))])
    assert built == gated and repr(built.terms) == repr(gated.terms)  # signed zeros too
    assert built.is_constant() and not ExpPoly.zero().is_constant()


@pytest.mark.parametrize("a", [-1, 4])
def test_coordinate_rejects_index_outside_0_to_3(a):
    with pytest.raises(ValueError):
        ExpPoly.coordinate(a)


@pytest.mark.parametrize("a", [-1, 4])
def test_derive_rejects_index_outside_0_to_3(a):
    # unchecked, -1 indexes x3 (d3 x3 = 1), 4 raises IndexError and the zero
    # polynomial, having no term to index, accepts any index
    for f in (ExpPoly.coordinate(3), ExpPoly.zero()):
        with pytest.raises(ValueError):
            f.derive(a)


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
    assert approx_eq(f * finv, ExpPoly.constant(1), 1e-14)


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
    assert approx_eq(df, expected, 1e-14)


def test_derive_plane_wave_brings_down_covector():
    # d_a exp(-i k.x) = -i k_a exp(-i k.x); phase omega(t - n.x/c) on x0 = ct
    omega, n = 1.3, (0.6, 0.0, 0.8)
    kappa = (-1j * omega, 1j * omega * n[0], 1j * omega * n[1], 1j * omega * n[2])
    wave = ExpPoly.exponential(1.0, kappa)
    for a in range(4):
        assert approx_eq(wave.derive(a), kappa[a] * wave, 1e-14)


def test_derive_constant_is_zero():
    assert ExpPoly.constant(1).derive(2).is_zero()


def test_commuting_partials():
    rng = np.random.default_rng(7)
    for _ in range(20):
        f = rand_poly(rng)
        for a in range(4):
            for b in range(a + 1, 4):
                assert approx_eq(f.derive(a).derive(b), f.derive(b).derive(a), 1e-12)


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


@pytest.mark.parametrize("s", [800.0, 1e4, 1e6])
def test_evaluate_cancelling_exponent_is_finite(s):
    # exp(s x0 - s x1) is 1 at x0 = x1 = 1, although exp(s) alone overflows
    f = ExpPoly.exponential(1, (s, -s, 0, 0))
    assert f.evaluate((1, 1, 0, 0)) == 1
    assert np.array_equal(f.evaluate(np.ones((3, 4)) * (1, 1, 0, 0)), np.ones(3))


@pytest.mark.parametrize("action", ["error", "ignore"])
def test_evaluate_takes_an_overflowing_monomial_with_its_exponential(action):
    # x0^2 e^(-x0) at x0 = 1e200 is 0, although x0^2 alone overflows
    f = ExpPoly([ExpTerm(1, (2, 0, 0, 0), (-1, 0, 0, 0))])
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter(action)
        assert f.evaluate((1e200, 0, 0, 0)) == 0
        # x0^3 e^(k x0) = -1e30 at x0 = -1e110, with the sign of x0^3
        g = ExpPoly([ExpTerm(1, (3, 0, 0, 0), (300 * math.log(10) / 1e110, 0, 0, 0))])
        assert g.evaluate((-1e110, 0, 0, 0)) == pytest.approx(-1e30, rel=1e-12)
        # and x0^2 x1 overflows on the way to 1e250
        h = ExpPoly([ExpTerm(1, (2, 1, 0, 0))])
        assert h.evaluate((1e200, 1e-150, 0, 0)) == pytest.approx(1e250, rel=1e-12)
    assert not seen
    # points whose monomials stay in range are evaluated as before, bit for bit
    points = np.array([[1e200, 0, 0, 0], [2.0, 0, 0, 0], [-3.5, 1, 0, 0]])
    values = f.evaluate(points)
    assert values[0] == 0
    assert values[1:].tolist() == [(x[0] ** 2 * np.exp(-x[0] + 0j)) * (1 + 0j) for x in points[1:]]


@pytest.mark.parametrize("action", ["error", "ignore"])
def test_evaluate_takes_an_overflowing_exponential_with_its_monomial(action):
    # x0^2 e^(8e202 x0) at x0 = 1e-200 is e^800 / 1e400, about 2.7e-53,
    # although x0^2 alone underflows to 0 and e^800 alone overflows
    f = ExpPoly([ExpTerm(1, (2, 0, 0, 0), (8e202, 0, 0, 0))])
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter(action)
        value = f.evaluate((1e-200, 0, 0, 0))
        assert value == pytest.approx(math.exp(800 - 400 * math.log(10)), rel=1e-12)
        # x0 e^(800 x1) at x0 = 0 is 0, although e^800 alone overflows
        g = ExpPoly([ExpTerm(1, (1, 0, 0, 0), (0, 800, 0, 0))])
        assert g.evaluate((0, 1, 0, 0)) == 0
        assert g.evaluate(np.array([[0.0, 1, 0, 0], [-1e-300, 1, 0, 0]])).tolist() == [
            0, pytest.approx(-math.exp(800 - 300 * math.log(10)), rel=1e-12)]
    assert not seen


@pytest.mark.parametrize("action", ["error", "ignore"])
def test_evaluate_takes_an_underflowing_monomial_with_its_exponential(action):
    # x0^2 e^(700 x1) at (1e-200, 1) is (1e-200 e^350)^2, about 1.01e-96,
    # although x0^2 alone underflows to 0 (abs=0: approx would take 0 for it)
    f = ExpPoly([ExpTerm(1, (2, 0, 0, 0), (0, 700, 0, 0))])
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter(action)
        assert f.evaluate((1e-200, 1, 0, 0)) == pytest.approx((1e-200 * math.exp(350)) ** 2, rel=1e-12, abs=0)
        # at x0 = 1e-160, x0^2 is subnormal and keeps only a few digits
        assert f.evaluate((1e-160, 1, 0, 0)) == pytest.approx((1e-160 * math.exp(350)) ** 2, rel=1e-12, abs=0)
        # a subnormal x0: the monomial x0 at 1e-310, alone and with e^(700 x1)
        x0 = ExpPoly.coordinate(0)
        assert x0.evaluate((1e-310, 1, 0, 0)) == pytest.approx(1e-310, rel=1e-12, abs=0)
        # x0 itself is exact: the entry is the direct product, bit for bit
        g = ExpPoly([ExpTerm(1, (1, 0, 0, 0), (0, 700, 0, 0))])
        assert g.evaluate((1e-310, 1, 0, 0)) == 1e-310 * math.exp(700)
    assert not seen


@pytest.mark.parametrize("f", [
    ExpPoly([ExpTerm(1, (2, 0, 0, 0))]),  # x0^2
    ExpPoly([ExpTerm(1, (3, 0, 0, 0), (-1e-300, 0, 0, 0))]),  # the exponential does not bring it back
])
def test_evaluate_overflowing_monomial_still_raises(f):
    with pytest.raises(NonFinite):
        f.evaluate((1e200, 0, 0, 0))
    with pytest.raises(NonFinite):
        f.evaluate(np.array([[1.0, 0, 0, 0], [1e200, 0, 0, 0]]))


def test_evaluate_rows_match_term_by_term_sum():
    # the twenty-term polynomial of test_eval_on_grid_matches_evaluate_everywhere
    rng = np.random.default_rng(3)
    raw = [
        ExpTerm(
            complex(rng.normal(), rng.normal()),
            tuple(int(v) for v in rng.integers(0, 4, 4)),
            tuple(complex(a, b) for a, b in zip(rng.normal(0, 0.5, 4), rng.normal(0, 0.5, 4))),
        )
        for _ in range(20)
    ]
    f = ExpPoly(raw)
    assert len(f.terms) == 20
    points = rng.uniform(-1.5, 1.5, (50, 4))
    values = f.evaluate(points)
    assert values.shape == (50,) and values.dtype == complex
    exact = np.array([eval_terms(raw, x) for x in points])
    assert np.max(np.abs(values - exact)) <= 1e-12 * np.max(np.abs(exact))
    assert f.evaluate(points[:0]).shape == (0,)


def test_evaluate_one_point_is_a_python_complex():
    value = ExpPoly.constant(2 - 1j).evaluate(np.zeros(4))
    assert type(value) is complex and value == 2 - 1j
    assert type(ExpPoly.zero().evaluate((1, 2, 3, 4))) is complex


@pytest.mark.parametrize("x", [
    (0.0, 0.0, 0.0), np.zeros((2, 5)), np.zeros((1, 2, 4)), 0.0,
    (math.nan, 0, 0, 0), [[0, 0, 0, 0], [0, math.inf, 0, 0]],
])
def test_evaluate_rejects_bad_shape_or_non_finite_point(x):
    with pytest.raises(ValueError):
        ExpPoly.coordinate(0).evaluate(x)


@pytest.mark.parametrize("f", [
    ExpPoly([ExpTerm(1e300 + 0j, kappa=(60, 0, 0, 0))]),  # finite factors, overflowing contraction
    ExpPoly.exponential(1, (300, 300, 0, 0)),  # finite factors, overflowing product
])
@pytest.mark.parametrize("action", ["error", "default", "always", "ignore"])
def test_evaluate_rows_overflow_raises_under_any_warning_filter(f, action):
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter(action)
        with pytest.raises(NonFinite):
            f.evaluate(np.array([[0.0, 0, 0, 0], [2.0, 2.0, 0, 0]]))
    assert not seen


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
            assert approx_eq(lhs, rhs, 1e-12)


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


def test_is_zero_means_no_terms():
    tiny = ExpPoly.constant(1e-14)
    assert not tiny.is_zero()  # relative to itself it is a real term
    # a cancellation leaves its rounding residue as a term; only an exact one is zero
    assert not (ExpPoly.constant(1.0) + ExpPoly.constant(-1.0 + 2**-52)).is_zero()
    assert (tiny - tiny).is_zero() and (tiny - tiny).terms == ()


def test_gate_keeps_a_small_term_beside_a_large_one():
    """The gate drops exact zeros only: no term is lost because a larger one
    sits beside it, whatever their scales."""
    x0 = (1, 0, 0, 0)
    assert ExpPoly([ExpTerm(1e11), ExpTerm(1.0, x0)]).terms == (ExpTerm(1e11), ExpTerm(1.0, x0))
    # x0 * (1 + 1e11 exp(1e-3 x0)) keeps its x0 term
    f = ExpPoly.coordinate(0) * (ExpPoly.constant(1) + ExpPoly.exponential(1e11, (1e-3, 0, 0, 0)))
    assert f.terms == (ExpTerm(1.0, x0), ExpTerm(1e11, x0, (1e-3, 0j, 0j, 0j)))
    # a sum that cancels exactly is still the zero polynomial
    g = ExpPoly([ExpTerm(1e11), ExpTerm(1.0, x0), ExpTerm(-1e11), ExpTerm(-1.0, x0)])
    assert g.is_zero() and g == ExpPoly.zero()
    assert (f - f).is_zero()


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
