"""Operator algebra: composition, commutators, p-fold brackets, matrices."""

import numpy as np
import pytest
from randgen import rand_generator, rand_op, rand_poly

from commsym.expcore import ExpPoly
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
    DalembertParams,
    SchrodingerParams,
    boost_generator,
    h1_generator,
    maxwell_operator,
    plane_fields,
    plane_wave,
    polarization,
    schrodinger_operator,
    wave_operator,
)


# -- apply ---------------------------------------------------------------------


def test_apply_box_annihilates_lightcone_wave():
    # exp(-i(k0 x0 - k1 x1)) with k0 = k1 = 1
    wave = ExpPoly.exponential(1.0, (-1j, 1j, 0j, 0j))
    assert wave_operator().apply(wave).max_coeff() < 1e-15


@pytest.mark.parametrize("a, power", [(-1, 1), (4, 1), (2, -1)])
def test_partial_rejects_bad_index_or_power(a, power):
    with pytest.raises(ValueError):
        LinDiffOp.partial(a, power)


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
    x0 = LinDiffOp.multiplication(ExpPoly.coordinate(0))
    got = LinDiffOp.partial(0).compose(x0)
    expected = LinDiffOp(
        [((1, 0, 0, 0), ExpPoly.coordinate(0)), ((0, 0, 0, 0), ExpPoly.constant(1))]
    )
    assert got.approx_eq(expected, 1e-14)


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
    assert got.approx_eq(expected, 1e-14)
    # confirmed by apply-equivalence on random functions
    rng = np.random.default_rng(19)
    for _ in range(10):
        f = rand_poly(rng)
        assert got.apply(f).approx_eq(A.apply(B.apply(f)), 1e-10)


def test_compose_identity_neutral():
    rng = np.random.default_rng(23)
    A = rand_op(rng)
    assert A.compose(LinDiffOp.identity()).approx_eq(A, 1e-14)
    assert LinDiffOp.identity().compose(A).approx_eq(A, 1e-14)


def test_apply_compose_coherence():
    rng = np.random.default_rng(29)
    for _ in range(100):
        A, B, f = rand_op(rng), rand_op(rng), rand_poly(rng)
        assert A.compose(B).apply(f).approx_eq(A.apply(B.apply(f)), 1e-9)


# -- commutator / ad_power -------------------------------------------------------


def test_commutator_of_partials_vanishes():
    for a in range(4):
        for b in range(4):
            assert commutator(LinDiffOp.partial(a), LinDiffOp.partial(b)).is_zero()


def test_commutator_box_shear():
    got = commutator(wave_operator(), h1_generator())
    expected = LinDiffOp([((1, 1, 0, 0), ExpPoly.constant(2))])
    assert got.approx_eq(expected, 1e-14)


def test_commutator_scaling_algebra():
    x1d1 = LinDiffOp([((0, 1, 0, 0), ExpPoly.coordinate(1))])
    got = commutator(x1d1, LinDiffOp.partial(1))
    assert got.approx_eq(-1 * LinDiffOp.partial(1), 1e-14)


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


def test_antisymmetry():
    rng = np.random.default_rng(31)
    for _ in range(50):
        A, B = rand_op(rng), rand_op(rng)
        assert commutator(A, B).approx_eq(-1 * commutator(B, A), 1e-10)


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
        assert commutator(L, Q).has_constant_coefficients()
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
        assert bracket.apply(f).approx_eq(2 * box.apply(f), 1e-9)


def test_residual_with_zero_zeta():
    box = wave_operator()
    x1d1 = LinDiffOp([((0, 1, 0, 0), ExpPoly.coordinate(1))])
    residual, res = residual_vs_multiple(commutator(box, x1d1), box, ExpPoly.zero())
    assert abs(res - 2.0) < 1e-14
    assert residual.approx_eq(-2 * LinDiffOp.partial(1, 2), 1e-14)


def test_zero_operator_residual():
    _, res = residual_vs_multiple(LinDiffOp.zero(), wave_operator(), ExpPoly.zero())
    assert res == 0.0


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
