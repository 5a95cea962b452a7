"""Finite-difference oracle: residual bounds, convergence order, guards."""

import warnings

import numpy as np
import pytest

from commsym.expcore import ExpPoly, ExpTerm
from commsym.gridcheck import (
    DegenerateResiduals,
    GridSpec,
    StencilOverrun,
    convergence_order,
    eval_on_grid,
    fd_apply_residual,
    fd_chain_values,
)
from commsym.opalg import LinDiffOp
from commsym import scenarios as sc

OBLIQUE = sc.DalembertParams(beta=0.3, n=(0.36, 0.48, 0.8))


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(h=0.0)
    with pytest.raises(ValueError):
        GridSpec(extent=4)
    with pytest.raises(ValueError):
        GridSpec(extent=8)


def test_eval_on_grid_matches_pointwise():
    rng = np.random.default_rng(2)
    f = ExpPoly(
        [
            ExpTerm(1.5 + 0.5j, (1, 0, 2, 0), (0.3j, 0j, -0.2 + 0j, 0j)),
            ExpTerm(-0.7 + 0j, (0, 1, 0, 0), (0j, 1j, 0j, 0j)),
        ]
    )
    g = GridSpec(origin=(0.1, -0.2, 0.0, 0.3), h=0.05, extent=5)
    values = eval_on_grid(f, g)
    axes = g.axes()
    for _ in range(10):
        idx = tuple(int(v) for v in rng.integers(0, 5, 4))
        x = tuple(axes[a][idx[a]] for a in range(4))
        assert abs(values[idx] - f.evaluate(x)) < 1e-13


SMALL_GRID = GridSpec(origin=(0.3, -0.2, 0.1, 0.5), h=0.25, extent=5)


def _assert_grid_matches_evaluate(f, grid):
    values = eval_on_grid(f, grid)
    assert values.shape == (grid.extent,) * 4 and values.dtype == complex
    axes = grid.axes()
    exact = np.array([
        f.evaluate(tuple(axes[a][i] for a, i in enumerate(idx)))
        for idx in np.ndindex(values.shape)
    ]).reshape(values.shape)
    assert np.max(np.abs(values - exact)) <= 1e-12 * np.max(np.abs(exact))


def test_eval_on_grid_matches_evaluate_everywhere():
    # twenty terms, exponents up to 3, complex covectors: every point of 5^4
    rng = np.random.default_rng(3)
    f = ExpPoly([
        ExpTerm(
            complex(rng.normal(), rng.normal()),
            tuple(int(v) for v in rng.integers(0, 4, 4)),
            tuple(complex(a, b) for a, b in zip(rng.normal(0, 0.5, 4), rng.normal(0, 0.5, 4))),
        )
        for _ in range(20)
    ])
    assert len(f.terms) == 20
    _assert_grid_matches_evaluate(f, SMALL_GRID)


def test_eval_on_grid_zero_and_constant():
    zero = eval_on_grid(ExpPoly.zero(), SMALL_GRID)
    assert zero.shape == (5,) * 4 and zero.dtype == complex and not np.any(zero)
    _assert_grid_matches_evaluate(ExpPoly.constant(2 - 1j), SMALL_GRID)


@pytest.mark.parametrize("action", ["error", "default", "always", "ignore"])
def test_eval_on_grid_overflow_raises_under_any_warning_filter(action):
    f = ExpPoly.exponential(1, (800, 0, 0, 0))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter(action)
        with pytest.raises(FloatingPointError):
            eval_on_grid(f, GridSpec(h=1.0, extent=5))
    assert not seen


def test_eval_on_grid_underflow_is_silent_zero():
    # x0 runs over 1..5, so exp(-800 x0) underflows everywhere
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = ExpPoly.exponential(1, (-800, 0, 0, 0))
        values = eval_on_grid(f, GridSpec(origin=(3, 0, 0, 0), h=1.0, extent=5))
    assert values.shape == (5,) * 4 and not np.any(values)


def test_fd_on_shell_wave_residual_is_second_order():
    # truncation ~ C h^2 with C set by fourth derivatives (Taylor remainder)
    box = sc.wave_operator()
    phi = sc.plane_wave(OBLIQUE)
    r1 = fd_apply_residual(box, phi, GridSpec(h=0.01))
    r2 = fd_apply_residual(box, phi, GridSpec(h=0.005))
    assert r1 < 1e-3
    assert 3.0 < r1 / r2 < 5.0  # halving h quarters the error


def test_fd_first_order_on_constant_is_exact():
    assert fd_apply_residual(LinDiffOp.partial(1), ExpPoly.constant(3), GridSpec()) < 1e-15


def test_fd_offshell_wave_agrees_on_nonzero_answer():
    box = sc.wave_operator()
    off = ExpPoly.exponential(1.0, (-2j, 1j, 0j, 0j))
    gap = fd_apply_residual(box, off, GridSpec(h=0.01))
    assert gap < 1e-2  # both routes agree within O(h^2)
    assert box.apply(off).max_coeff() == pytest.approx(3.0)  # but the value is nonzero


def test_convergence_order_two_on_smooth_wave():
    order = convergence_order(
        sc.wave_operator(), sc.plane_wave(OBLIQUE), GridSpec(), [0.04, 0.02, 0.01]
    )
    assert abs(order - 2.0) < 0.2


def test_convergence_order_engaging_cross_oracle():
    # the boosted Schrodinger operator annihilates the weighted solution:
    # the FD route must confirm the residual converges to zero at order 2
    p = sc.SchrodingerParams(V=0.2, v=(0.3, 0.2, -0.1))
    A = sc.schrodinger_engaging_operator(p)
    f = sc.psi11_weight(p) * sc.psi1(p)
    assert fd_apply_residual(A, f, GridSpec(h=0.01)) < 1e-3
    order = convergence_order(A, f, GridSpec(), [0.04, 0.02, 0.01])
    assert abs(order - 2.0) < 0.2


def test_convergence_degenerate_on_exact_stencil():
    # first-order stencil is exact on affine functions: rounding floor
    lin = ExpPoly.linear_form([1.0, 2.0, 0.0, 0.0], 3.0)
    with pytest.raises(DegenerateResiduals) as exc:
        convergence_order(LinDiffOp.partial(1), lin, GridSpec(), [0.04, 0.02, 0.01])
    assert len(exc.value.residuals) == 3


def test_stencil_overrun():
    with pytest.raises(StencilOverrun):
        fd_apply_residual(LinDiffOp.partial(0, 4), ExpPoly.constant(1), GridSpec(extent=7))
    with pytest.raises(StencilOverrun):
        fd_apply_residual(
            LinDiffOp.partial(0, 2).compose(LinDiffOp.partial(0, 3)),
            ExpPoly.constant(1),
            GridSpec(),
        )


def test_fd_chain_matches_flat_operator():
    # chaining d1 then d0 equals the mixed stencil of d0 d1
    f = sc.plane_wave(OBLIQUE)
    g = GridSpec()
    chained, pad = fd_chain_values((LinDiffOp.partial(0), LinDiffOp.partial(1)), f, g)
    flat, pad2 = fd_chain_values((LinDiffOp.partial(0).compose(LinDiffOp.partial(1)),), f, g)
    assert pad == pad2
    assert np.max(np.abs(chained - flat)) < 1e-12


def test_fd_chain_commutator_cross_check():
    # purely finite-difference confirmation of the 2-fold bracket identity
    g = GridSpec(extent=13)
    box, H1 = sc.wave_operator(), sc.h1_generator()
    phi = sc.plane_wave(OBLIQUE)
    v1, _ = fd_chain_values((box, box, H1), phi, g)
    v2, _ = fd_chain_values((box, H1, box), phi, g)
    v3, _ = fd_chain_values((H1, box, box), phi, g)
    assert np.max(np.abs(v1 - 2 * v2 + v3)) < 1e-3


def test_oracle_agreement_on_random_pairs():
    # FD apply at h = 1e-2 tracks the symbolic apply within 10 h^2 times the
    # fourth-derivative scale of the operand
    rng = np.random.default_rng(11)
    g = GridSpec(h=1e-2)
    for _ in range(50):
        terms = []
        for _ in range(3):
            alpha = tuple(int(v) for v in rng.integers(0, 2, 4))
            kappa = tuple(
                complex(a, b)
                for a, b in zip(rng.normal(0, 0.7, 4), rng.normal(0, 0.7, 4))
            )
            terms.append(ExpTerm(complex(rng.normal(), rng.normal()), alpha, kappa))
        f = ExpPoly(terms)
        ops = []
        for _ in range(2):
            delta = [0, 0, 0, 0]
            for _ in range(int(rng.integers(1, 3))):
                delta[int(rng.integers(0, 4))] += 1
            ops.append((tuple(delta), ExpPoly.constant(complex(rng.normal()))))
        A = LinDiffOp(ops)
        if A.order == 0 or not A.terms:
            continue
        coeff_mass = sum(c.max_coeff() for _, c in A.terms)
        deriv_scale = max(
            float(np.max(np.abs(eval_on_grid(f.derive(a).derive(a).derive(a).derive(a), g))))
            for a in range(4)
        )
        bound = 10 * g.h**2 * coeff_mass * max(deriv_scale, 1.0)
        assert fd_apply_residual(A, f, g) <= bound
