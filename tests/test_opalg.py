"""Operator algebra: composition, commutators, p-fold brackets, matrices."""

import math
from collections import defaultdict
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from randgen import (
    approx_eq,
    assert_residual_is_the_gate_route,
    assert_same_terms,
    bits,
    edge_complexes,
    rand_generator,
    rand_op,
    rand_poly,
    reference_normalize,
    term_lists,
)

from commsym import expcore, opalg
from commsym.detsolve import AnsatzSpec, _freivalds_combination, build_determining_system, solve_null_space
from commsym.expcore import _UNIT, ExpPoly, ExpTerm, NonFinite, _add_products
from commsym.opalg import (
    LinDiffOp,
    MatrixDiffOp,
    ShapeMismatch,
    SymmetryCandidate,
    ad_power,
    commutator,
    residual_vs_multiple,
)
from commsym.scenarios import (
    IGL_GENERATORS,
    IGL_OPERATORS,
    SEARCH_OPERATORS,
    DalembertParams,
    SchrodingerParams,
    boost_generator,
    h1_generator,
    maxwell_operator,
    plane_fields,
    plane_wave,
    polarization,
    run_igl_sweep,
    schrodinger_operator,
    wave_operator,
)


# -- apply ---------------------------------------------------------------------


def test_apply_box_annihilates_lightcone_wave():
    # exp(-i(k0 x0 - k1 x1)) with k0 = k1 = 1
    wave = ExpPoly.exponential(1.0, (-1j, 1j, 0j, 0j))
    assert wave_operator().apply(wave).max_coeff() < 1e-15


@pytest.mark.parametrize("a, power", [(-1, 1), (4, 1), (2, -1), (0, -2)])
def test_partial_rejects_bad_index_or_power(a, power):
    with pytest.raises(ValueError):
        LinDiffOp.partial(a, power)


@pytest.mark.parametrize("a", range(4))
@pytest.mark.parametrize("power", range(4))
def test_partial_equals_the_constructor_built_operator(a, power):
    delta = tuple(power if b == a else 0 for b in range(4))
    assert LinDiffOp.partial(a, power) == LinDiffOp([(delta, ExpPoly([ExpTerm(1 + 0j)]))])
    if power == 0:
        assert LinDiffOp.partial(a, power) == LinDiffOp.identity()


@settings(max_examples=200, deadline=None)
@given(coeffs=st.lists(term_lists(max_terms=3), min_size=1, max_size=3), c=edge_complexes)
def test_scalar_multiple_of_an_operator_is_the_constructor_bit_for_bit(coeffs, c):
    """Each coefficient is scaled in place and the zero ones are dropped:
    the terms of the constructor applied to the scaled coefficients, bit for
    bit, or the same error."""
    op = LinDiffOp(zip([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 1, 0)], map(ExpPoly, coeffs)))
    try:
        expected = LinDiffOp((d, p * c) for d, p in op.terms)
    except ArithmeticError as exc:
        with pytest.raises(type(exc)):
            op * c
        return
    for scaled in (op * c, c * op):
        assert [(d, bits(p.terms)) for d, p in scaled.terms] == [
            (d, bits(p.terms)) for d, p in expected.terms]


@pytest.mark.parametrize("c, kept", [(0, 0), (-0.0, 0), (complex(-0.0, 0.0), 0), (1e-200, 1), (1, 2)])
def test_scalar_multiple_of_an_operator_drops_the_coefficients_that_become_zero(c, kept):
    # 1e-200 * 1e-200 underflows to 0; 0 and -0.0 make every coefficient zero
    op = LinDiffOp([((0, 0, 0, 0), ExpPoly.constant(1e-200)), ((1, 0, 0, 0), 2 * ExpPoly.coordinate(1))])
    assert [d for d, _ in (op * c).terms] == [d for d, _ in op.terms][2 - kept:]
    with pytest.raises(NonFinite):
        op * 1e308 * 1e308
    with pytest.raises(NonFinite):
        op * math.nan


def test_apply_partial_to_constant():
    assert LinDiffOp.partial(1).apply(ExpPoly.constant(5)).is_zero()


def test_apply_schrodinger_dispersion_oracle():
    # i hbar d_t contributes W = m c^2; (c^2 hbar^2/2W) lap contributes -m c^2
    p = SchrodingerParams(V=0.0, v=(0.4, 0.0, 0.0))
    from commsym.scenarios import psi2

    ls = schrodinger_operator(p)
    f = psi2(p)
    time_part = (1j * p.hbar) * LinDiffOp.partial(0)
    expected_time = p.W  # oracle: i hbar * (-i W / hbar)
    val = time_part.apply(f)
    assert abs(val.terms[0].coeff - expected_time) < 1e-12
    assert ls.apply(f).max_coeff() < 1e-12


# -- compose -------------------------------------------------------------------


def test_compose_leibniz_simple():
    # d0 . (x0 * id) = x0 d0 + 1
    x0 = LinDiffOp([((0, 0, 0, 0), ExpPoly.coordinate(0))])
    got = LinDiffOp.partial(0).compose(x0)
    expected = LinDiffOp(
        [((1, 0, 0, 0), ExpPoly.coordinate(0)), ((0, 0, 0, 0), ExpPoly.constant(1))]
    )
    assert approx_eq(got, expected, 1e-14)


def test_compose_second_order_leibniz():
    # d0^2 . (x0 d1) = x0 d0^2 d1 + 2 d0 d1  (hand expansion)
    A = LinDiffOp.partial(0, 2)
    B = LinDiffOp([((0, 1, 0, 0), ExpPoly.coordinate(0))])
    got = A.compose(B)
    expected = LinDiffOp(
        [
            ((2, 1, 0, 0), ExpPoly.coordinate(0)),
            ((1, 1, 0, 0), ExpPoly.constant(2)),
        ]
    )
    assert approx_eq(got, expected, 1e-14)
    # confirmed by apply-equivalence on random functions
    rng = np.random.default_rng(19)
    for _ in range(10):
        f = rand_poly(rng)
        assert approx_eq(got.apply(f), A.apply(B.apply(f)), 1e-10)


def test_compose_identity_neutral():
    rng = np.random.default_rng(23)
    A = rand_op(rng)
    assert approx_eq(A.compose(LinDiffOp.identity()), A, 1e-14)
    assert approx_eq(LinDiffOp.identity().compose(A), A, 1e-14)


def test_apply_compose_coherence():
    rng = np.random.default_rng(29)
    for _ in range(100):
        A, B, f = rand_op(rng), rand_op(rng), rand_poly(rng)
        assert approx_eq(A.compose(B).apply(f), A.apply(B.apply(f)), 1e-9)


def _products(left, right, weight):
    return [
        ExpTerm(weight * s.coeff * o.coeff,
                tuple(a + b for a, b in zip(s.alpha, o.alpha)),
                tuple(a + b for a, b in zip(s.kappa, o.kappa)))
        for s in left
        for o in right
    ]


def _derived_axis_by_axis(f, delta):
    for a in range(4):
        for _ in range(delta[a]):
            f = f.derive(a)
    return f


def test_apply_derives_each_derivative_once(monkeypatch):
    """MatrixDiffOp.apply and LinDiffOp.apply give the gate of the flat list
    of coeff * (d^delta f) products, each derivative taken axis by axis from
    axis 0, bit for bit, and derive each d^delta f of a field only once."""
    rng = np.random.default_rng(31)
    M = MatrixDiffOp([[rand_op(rng), rand_op(rng)] for _ in range(3)])
    fields = [rand_poly(rng), rand_poly(rng)]
    expected = [
        ExpPoly([t for entry, f in zip(row, fields) for delta, c in entry.terms
                 for t in _products(c.terms, _derived_axis_by_axis(f, delta).terms, 1)])
        for row in M.rows
    ]
    # every d^delta f on the way from f, one axis at a time from the last
    chains = [set(), set()]
    for row in M.rows:
        for j, entry in enumerate(row):
            for delta, _ in entry.terms:
                while any(delta):
                    chains[j].add(delta)
                    k = max(a for a in range(4) if delta[a])
                    delta = delta[:k] + (delta[k] - 1,) + delta[k + 1:]
    calls = []
    derive = ExpPoly.derive
    monkeypatch.setattr(ExpPoly, "derive", lambda f, a: calls.append(a) or derive(f, a))
    assert M.apply(fields) == expected
    assert len(calls) == len(chains[0]) + len(chains[1])
    assert M.rows[0][1].apply(fields[1]) == ExpPoly(
        [t for delta, c in M.rows[0][1].terms
         for t in _products(c.terms, _derived_axis_by_axis(fields[1], delta).terms, 1)])


def test_compose_with_a_function_derives_as_apply_does():
    """The d^0 coefficient of D . c is D.apply(c) bit for bit: compose and
    apply take each derivative of c in the same axis order."""
    rng = np.random.default_rng(37)
    deltas = [(0, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 1, 0), (2, 0, 1, 0),
              (0, 0, 1, 2)]
    for _ in range(200):
        D = LinDiffOp((deltas[i], rand_poly(rng)) for i in rng.choice(len(deltas), 3, replace=False))
        c = rand_poly(rng)
        # one covector: every derivative order rounds the same products
        single = ExpPoly([ExpTerm(t.coeff, t.alpha, c.terms[0].kappa) for t in c.terms])
        for f in (c, single):
            composed = dict(D.compose(LinDiffOp([((0, 0, 0, 0), f)])).terms)
            assert composed.get((0, 0, 0, 0), ExpPoly.zero()) == D.apply(f)


_DELTAS = st.sampled_from([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 1), (0, 2, 0, 0)])


@settings(max_examples=60, deadline=None)
@given(a=st.lists(st.tuples(_DELTAS, term_lists(max_terms=3)), min_size=1, max_size=2),
       b=st.lists(st.tuples(_DELTAS, term_lists(max_terms=3)), min_size=1, max_size=2))
def test_commutator_matches_the_gate_of_the_flat_product_list(a, b):
    """commutator(a, b) per multi-index against the sort-and-window reference
    of its flat Leibniz product list, the beta != 0 products of a.b minus
    those of b.a: same alpha and covector, same order, coefficients within
    1e-14 of the largest product."""
    A = LinDiffOp((d, ExpPoly(t)) for d, t in a)
    B = LinDiffOp((d, ExpPoly(t)) for d, t in b)
    flat = {}
    for sign, x, y in ((1, A, B), (-1, B, A)):
        for delta, c in x.terms:
            for beta in product(*(range(n + 1) for n in delta)):
                if not any(beta):
                    continue
                weight = sign * math.prod(math.comb(n, m) for n, m in zip(delta, beta))
                for gamma, c2 in y.terms:
                    target = tuple(n - m + g for n, m, g in zip(delta, beta, gamma))
                    derived = _derived_axis_by_axis(c2, beta)
                    flat.setdefault(target, []).extend(_products(c.terms, derived.terms, weight))
    size = max((abs(t.coeff) for terms in flat.values() for t in terms), default=0.0)
    got = dict(commutator(A, B).terms)
    for target, terms in flat.items():
        assert_same_terms(got.pop(target, ExpPoly.zero()).terms, reference_normalize(terms), size)
    assert not got


# -- commutator / ad_power -------------------------------------------------------


def test_commutator_of_partials_vanishes():
    for a in range(4):
        for b in range(4):
            assert commutator(LinDiffOp.partial(a), LinDiffOp.partial(b)).is_zero()


def test_commutator_box_shear():
    got = commutator(wave_operator(), h1_generator())
    expected = LinDiffOp([((1, 1, 0, 0), ExpPoly.constant(2))])
    assert approx_eq(got, expected, 1e-14)


def test_commutator_scaling_algebra():
    x1d1 = LinDiffOp([((0, 1, 0, 0), ExpPoly.coordinate(1))])
    got = commutator(x1d1, LinDiffOp.partial(1))
    assert approx_eq(got, -1 * LinDiffOp.partial(1), 1e-14)


def test_ad_power_examples():
    box = wave_operator()
    assert ad_power(box, h1_generator(), 2).is_zero()
    for a in range(4):
        assert ad_power(box, LinDiffOp.partial(a), 1).is_zero()
    ls = schrodinger_operator(SchrodingerParams())
    assert ad_power(ls, boost_generator(), 2).max_coeff() < 1e-15


def test_ad_power_rejects_bad_p():
    with pytest.raises(ValueError):
        ad_power(wave_operator(), h1_generator(), 0)


@pytest.mark.parametrize("p", [2.0, True], ids=["float", "bool"])
def test_ad_power_rejects_a_p_that_is_not_an_int(p):
    with pytest.raises(ValueError, match="positive integer"):
        ad_power(wave_operator(), h1_generator(), p)


def test_ad_power_takes_a_numpy_integer_p():
    assert ad_power(wave_operator(), h1_generator(), np.int64(2)).is_zero()


def test_antisymmetry():
    rng = np.random.default_rng(31)
    for _ in range(50):
        A, B = rand_op(rng), rand_op(rng)
        assert approx_eq(commutator(A, B), -1 * commutator(B, A), 1e-10)


def test_jacobi_identity():
    rng = np.random.default_rng(37)
    for _ in range(50):
        A, B, C = (rand_generator(rng) for _ in range(3))
        total = (
            commutator(A, commutator(B, C))
            + commutator(B, commutator(C, A))
            + commutator(C, commutator(A, B))
        )
        scale = max(A.max_coeff(), B.max_coeff(), C.max_coeff(), 1.0) ** 3
        assert total.max_coeff() <= 1e-10 * scale


def _compose_difference(a, b):
    """The bracket by its definition, a.b - b.a, beta = 0 products included."""
    return a.compose(b) - b.compose(a)


def _assert_same_bracket(got, a, b):
    """got equals a.b - b.a within 1e-12 of the larger product."""
    ab, ba = a.compose(b), b.compose(a)
    scale = max(ab.max_coeff(), ba.max_coeff(), 1.0)
    assert (got - (ab - ba)).max_coeff() <= 1e-12 * scale


@pytest.mark.parametrize("draw", [rand_op, rand_generator], ids=["order2_exponential", "generator_pool"])
def test_commutator_matches_compose_difference(draw):
    # rand_op: order <= 2, three exponential terms per coefficient;
    # rand_generator: first order, coefficients on a shared two-covector pool
    rng = np.random.default_rng(47)
    for _ in range(20):
        A, B = draw(rng), draw(rng)
        _assert_same_bracket(commutator(A, B), A, B)


def test_ad_power_matches_iterated_compose_difference():
    rng = np.random.default_rng(53)
    for _ in range(5):
        L, Q = rand_op(rng), rand_generator(rng)
        _assert_same_bracket(ad_power(L, Q, 2), L, _compose_difference(L, Q))


def test_first_order_bracket_has_no_second_order_key():
    rng = np.random.default_rng(59)
    for _ in range(20):
        A, B = rand_generator(rng), rand_generator(rng)
        assert all(sum(delta) <= 1 for delta, _ in commutator(A, B).terms)


def test_constant_coefficient_absorption():
    # constant-coefficient L + affine-coefficient Q: [L,Q] constant, ad^2 = 0
    rng = np.random.default_rng(41)
    for _ in range(25):
        L = LinDiffOp(
            [
                (tuple(int(v) for v in rng.integers(0, 2, 4)), ExpPoly.constant(complex(rng.normal(), rng.normal())))
                for _ in range(3)
            ]
        )
        xi = [
            ExpPoly.linear_form(rng.normal(size=4), rng.normal()) for _ in range(4)
        ]
        eta = ExpPoly.linear_form(rng.normal(size=4), rng.normal())
        Q = LinDiffOp.first_order(xi, eta)
        assert all(
            t.alpha == (0, 0, 0, 0) and not any(t.kappa)
            for _, c in commutator(L, Q).terms
            for t in c.terms
        )
        scale = max(L.max_coeff(), 1.0) ** 2 * max(Q.max_coeff(), 1.0)
        assert ad_power(L, Q, 2).max_coeff() <= 1e-12 * scale


def test_degree_bookkeeping():
    rng = np.random.default_rng(43)
    for _ in range(30):
        A, B = rand_op(rng), rand_op(rng)
        assert A.compose(B).order <= A.order + B.order
        Q = rand_generator(rng)
        L = rand_op(rng)
        if L.order >= 1:
            assert commutator(L, Q).order <= L.order + Q.order - 1


# -- the full Leibniz expansion as the reference -----------------------------------


def reference_leibniz(products, with_zero):
    """sum of sign * a.b over (sign, a, b) in products, expanded in full: every
    beta <= delta (beta = 0 only if with_zero) and every product, zero
    derivatives and all, gathered per multi-index in the order compose and
    commutator add them, and passed through LinDiffOp's constructor."""
    collected = defaultdict(dict)
    for sign, a, b in products:
        for delta, coeff in a.terms:
            for beta in product(*(range(n + 1) for n in delta)):
                if not (with_zero or any(beta)):
                    continue
                weight = sign * math.prod(math.comb(n, m) for n, m in zip(delta, beta))
                for gamma, c in b.terms:
                    target = tuple(n - m + g for n, m, g in zip(delta, beta, gamma))
                    derived = _derived_axis_by_axis(c, beta)
                    _add_products(collected[target], coeff.terms, derived.terms, weight)
    return LinDiffOp((d, ExpPoly._from(acc)) for d, acc in collected.items())


def reference_commutator(a, b):
    return reference_leibniz(((1, a, b), (-1, b, a)), with_zero=False)


_SCALARS = st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0, allow_nan=False,
                              allow_infinity=False)
_ALPHAS = st.sampled_from([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (2, 0, 0, 0), (1, 0, 1, 1)])
_COVECTORS = st.sampled_from([(0.5j, -1 + 0j, 0j, 2 + 0j), (1 + 0j, 0j, 0.25j, 0j),
                              (-0.5 + 0j, 0.5j, 0j, 0j)])
# constant, polynomial and exponential coefficients, the last also with
# covectors nudged within merge reach of each other
_COEFFICIENTS = st.one_of(
    _SCALARS.map(ExpPoly.constant),
    st.lists(st.tuples(_SCALARS, _ALPHAS), min_size=1, max_size=3)
    .map(lambda terms: ExpPoly(ExpTerm(c, alpha) for c, alpha in terms)),
    st.lists(st.tuples(_SCALARS, _ALPHAS, _COVECTORS), min_size=1, max_size=3)
    .map(lambda terms: ExpPoly(ExpTerm(*t) for t in terms)),
    term_lists(max_terms=2).map(ExpPoly),
)
_ORDERS = st.sampled_from([(0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 2, 0, 0), (1, 0, 0, 1),
                           (2, 1, 0, 0)])


def _operators(max_terms):
    return st.lists(st.tuples(_ORDERS, _COEFFICIENTS), min_size=1, max_size=max_terms).map(LinDiffOp)


@settings(max_examples=80, deadline=None)
@given(a=_operators(3), b=_operators(3))
def test_compose_and_commutator_equal_the_full_expansion(a, b):
    """Skipping the products of zero derivatives changes no coefficient: the
    results equal the full expansion's bit for bit, in the same order."""
    assert a.compose(b) == reference_leibniz(((1, a, b),), with_zero=True)
    assert commutator(a, b) == reference_commutator(a, b)


@settings(max_examples=60, deadline=None)
@given(L=_operators(2), Q=_operators(3))
def test_ad_power_equals_the_full_expansion(L, Q):
    expected = Q
    for p in (1, 2, 3):
        expected = reference_commutator(L, expected)
        assert ad_power(L, Q, p) == expected, p


@pytest.mark.parametrize("operator", SEARCH_OPERATORS)
def test_linear_group_brackets_equal_the_full_expansion(operator):
    L = SEARCH_OPERATORS[operator]()
    for name, g in zip(IGL_GENERATORS, IGL_OPERATORS):
        expected = g
        for p in (1, 2, 3):
            expected = reference_commutator(L, expected)
            assert ad_power(L, g, p) == expected, (name, p)


@pytest.mark.parametrize("Q", [
    LinDiffOp.partial(2),
    h1_generator(),
    boost_generator(),
    LinDiffOp.first_order([ExpPoly.coordinate(1), ExpPoly.constant(2),
                           ExpPoly.coordinate(0) * ExpPoly.coordinate(2), ExpPoly.zero()],
                          ExpPoly.constant(3)),
], ids=["translation", "shear", "boost", "mixed_degrees"])
def test_commutator_with_box_derives_only_what_can_be_nonzero(monkeypatch, Q):
    """[Q, box] derives no coefficient of box, all of them constants, never
    derives a zero or constant polynomial and multiplies by no zero derivative."""
    L = wave_operator()
    expected = reference_commutator(Q, L)
    box_coeffs = {id(c): c for _, c in L.terms}
    assert len(box_coeffs) == len(L.terms)
    derived, empty_products = [], []
    derive, add_products = ExpPoly.derive, opalg._add_products

    def counted_derive(f, a):
        derived.append((f, a))
        return derive(f, a)

    def counted_add_products(acc, left, right, weight):
        if not right:
            empty_products.append((left, weight))
        add_products(acc, left, right, weight)

    monkeypatch.setattr(ExpPoly, "derive", counted_derive)
    monkeypatch.setattr(opalg, "_add_products", counted_add_products)
    assert commutator(Q, L) == expected
    assert not any(box_coeffs.get(id(f)) is f for f, _ in derived)
    # every polynomial derived has a term of positive degree: none is zero or constant
    assert all(any(t.alpha != (0, 0, 0, 0) for t in f.terms) for f, _ in derived)
    assert not empty_products


def test_brackets_with_a_constant_coefficient_operator_derive_no_constant(monkeypatch):
    """A constant coefficient of the right operand takes part only at beta = 0:
    the igl sweep and re-verification's ad_power never call _derivative on a
    constant."""
    system = build_determining_system(wave_operator(), AnsatzSpec(degree=2, p=2))
    candidate = system.decode(_freivalds_combination(solve_null_space(system).vectors))
    expected = ad_power(wave_operator(), candidate.Q, 2)
    calls, on_constants = [], []
    derivative = opalg._derivative

    def counted(derived, delta):
        calls.append(delta)
        base = derived[(0, 0, 0, 0)].terms
        if len(base) == 1 and base[0].alpha == (0, 0, 0, 0) and not any(base[0].kappa):
            on_constants.append(delta)
        return derivative(derived, delta)

    monkeypatch.setattr(opalg, "_derivative", counted)
    assert run_igl_sweep().passed
    assert ad_power(wave_operator(), candidate.Q, 2) == expected
    assert calls and not on_constants


@pytest.mark.parametrize("operator, derives, products, gates",
                         [("box", 96, 76, 35), ("schrod", 76, 66, 31)])
def test_reverification_work_is_pinned(monkeypatch, operator, derives, products, gates):
    """Re-verification's ad_power of the Freivalds candidate at degree 2,
    p = 2 makes a fixed number of derive, _add_products and gate calls, so
    a change in its time is a change in the cost of one call."""
    L = SEARCH_OPERATORS[operator]()
    system = build_determining_system(L, AnsatzSpec(degree=2, p=2))
    candidate = system.decode(_freivalds_combination(solve_null_space(system).vectors))
    calls = defaultdict(int)

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(ExpPoly, "derive", counted("derive", ExpPoly.derive))
    monkeypatch.setattr(opalg, "_add_products", counted("products", opalg._add_products))
    monkeypatch.setattr(expcore, "_canonical", counted("gate", expcore._canonical))
    ad_power(L, candidate.Q, 2)
    assert dict(calls) == {"derive": derives, "products": products, "gate": gates}


# -- residual_vs_multiple --------------------------------------------------------


def test_dilation_is_multiple_of_box():
    # [box, sum_a x^a d_a] = 2 box exactly
    box = wave_operator()
    D = LinDiffOp(
        [(tuple(1 if i == a else 0 for i in range(4)), ExpPoly.coordinate(a)) for a in range(4)]
    )
    bracket = commutator(box, D)
    _, res = residual_vs_multiple(bracket, box, ExpPoly.constant(2))
    assert res < 1e-14
    # apply-equivalence oracle for the same identity
    rng = np.random.default_rng(47)
    for _ in range(10):
        f = rand_poly(rng)
        assert approx_eq(bracket.apply(f), 2 * box.apply(f), 1e-9)


def test_residual_with_zero_zeta():
    box = wave_operator()
    x1d1 = LinDiffOp([((0, 1, 0, 0), ExpPoly.coordinate(1))])
    residual, res = residual_vs_multiple(commutator(box, x1d1), box, ExpPoly.zero())
    assert abs(res - 2.0) < 1e-14
    assert approx_eq(residual, -2 * LinDiffOp.partial(1, 2), 1e-14)


def test_zero_operator_residual():
    _, res = residual_vs_multiple(LinDiffOp.zero(), wave_operator(), ExpPoly.zero())
    assert res == 0.0


def _dilation():
    return LinDiffOp([(_UNIT[a], ExpPoly.coordinate(a)) for a in range(4)])


def _residual_cases():
    """(A, L, zeta) for residual_vs_multiple, by name."""
    box = wave_operator()
    x1d1 = LinDiffOp([((0, 1, 0, 0), ExpPoly.coordinate(1))])
    two_box = commutator(box, _dilation())  # 2 box, exactly
    rng = np.random.default_rng(29)
    return {
        "zeta_zero": (commutator(box, x1d1), box, ExpPoly.zero()),
        # every multi-index of L cancels exactly and is dropped
        "all_cancel": (two_box, box, ExpPoly.constant(2)),
        # the multi-indices of L cancel, x1 d1 is A's alone and kept as it is
        "cancel_beside_a_kept_index": (two_box + x1d1, box, ExpPoly.constant(2)),
        # A lacks three of box's four multi-indices: -zeta c alone there
        "A_lacks_indices": (LinDiffOp([((2, 0, 0, 0), ExpPoly.coordinate(0)), ((0, 1, 0, 0), ExpPoly.constant(3))]),
                            box, ExpPoly.linear_form([1, 0, 0.5j, 0], 1)),
        # one term of a shared multi-index cancels, the other is kept
        "one_term_cancels": (LinDiffOp([((2, 0, 0, 0), ExpPoly.linear_form([0, 0, 0, 1], -2))]),
                             box, ExpPoly.constant(2)),
        "zeta_times_zero_operator": (LinDiffOp.zero(), box, ExpPoly.coordinate(2)),
        # exponential coefficients: sums with several covectors, merged by the gate
        **{f"exponential_{k}": (rand_op(rng), rand_op(rng), rand_poly(rng)) for k in range(4)},
        "exponential_shared_covectors": (rand_generator(rng), rand_generator(rng), rand_poly(rng)),
    }


@pytest.mark.parametrize("case", _residual_cases())
def test_residual_is_the_gate_route_bit_for_bit(case):
    A, L, zeta = _residual_cases()[case]
    assert_residual_is_the_gate_route(A, L, zeta)


def test_residual_drops_the_indices_that_cancel():
    box = wave_operator()
    x1d1 = LinDiffOp([((0, 1, 0, 0), ExpPoly.coordinate(1))])
    residual, res = residual_vs_multiple(commutator(box, _dilation()) + x1d1, box, ExpPoly.constant(2))
    assert residual.terms == x1d1.terms and res == 1.0
    residual, res = residual_vs_multiple(commutator(box, _dilation()), box, ExpPoly.constant(2))
    assert residual.terms == () and res == 0.0


# -- symmetry candidate ------------------------------------------------------------


def test_symmetry_candidate_validation():
    with pytest.raises(ValueError):
        SymmetryCandidate(wave_operator(), ExpPoly.zero())


# -- matrix operators ----------------------------------------------------------------


def test_maxwell_plane_wave_all_rows_vanish():
    p = DalembertParams(beta=0.0, n=(0.0, 1.0, 0.0))
    l, m = polarization(p)
    rows = maxwell_operator().apply(plane_fields(p, l, m))
    assert len(rows) == 8
    assert max(r.max_coeff() for r in rows) < 1e-14


def test_matrix_apply_zero_field():
    zero6 = [ExpPoly.zero()] * 6
    assert all(r.is_zero() for r in maxwell_operator().apply(zero6))


def test_divergence_row_detects_offshell_polarization():
    # E = l exp(-ik.x) with n.l != 0: div E = i (omega/c) (n.l) exp(-ik.x)
    p = DalembertParams(beta=0.0, n=(0.0, 1.0, 0.0))
    l = (0.0, 1.0, 0.0)  # parallel to n on purpose
    fields = plane_fields(p, l, (0.0, 0.0, 0.0))
    rows = maxwell_operator().apply(fields)
    div_e = rows[0]
    assert not div_e.is_zero()
    expected = abs(p.omega / p.c * np.dot(p.n, l))
    assert abs(div_e.max_coeff() - expected) < 1e-14


def test_matrix_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        maxwell_operator().apply([ExpPoly.zero()] * 5)
    with pytest.raises(ShapeMismatch):
        MatrixDiffOp([[LinDiffOp.zero()], [LinDiffOp.zero(), LinDiffOp.zero()]])


def test_plane_wave_on_shell_via_box():
    p = DalembertParams(beta=0.4, n=(0.48, 0.6, 0.64), omega=2.7)
    assert wave_operator().apply(plane_wave(p)).max_coeff() < 1e-12
