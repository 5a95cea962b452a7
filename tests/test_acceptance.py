"""Acceptance gate: every shipped claim at its stated tolerance.

One test per criterion, two for criterion 9; each prints a single pass/fail
line (run with ``pytest tests/test_acceptance.py -s`` to see them inline).
Criteria:

 1  two-fold bracket of the wave operator with the shear x0 d1 vanishes
 2  two-fold bracket of the Schrodinger operator with the boost vanishes
 3  all 40 linear-group identities vanish
 4  boosted wave operator annihilates the weighted wave, 100 seeded draws
 5  boosted Schrodinger operator: psi1 weight passes, psi2 dispersion exact,
    transcribed-psi2-weight discrepancy surfaced as a named failing check
 6  boosted Maxwell system annihilates transformed fields, invariants exact
 7  two-boost composition laws, 100 seeded draws plus the d'' spot value
 8  determining solver rediscovers the 20 linear-group generators at ansatz
    degrees 1 and 2
 9  small-velocity limits scale linearly (halving checks on a seeded unit
    ball), psi2 limit solves the non-boosted equation; the suites' closed-form
    limit verdicts match the sampled ones over 200 draws
10  finite-difference oracle agrees with every symbolic zero above
11  algebra properties: Jacobi, antisymmetry, apply/compose coherence,
    flow group law, pullback contravariance
"""

import dataclasses
import math

import numpy as np
from randgen import rand_generator, rand_op, rand_poly

from commsym import scenarios as sc
from commsym.detsolve import (
    AffineMap,
    AnsatzSpec,
    apply_probe_null_dimension,
    build_determining_system,
    flow,
    pullback,
    solve_null_space,
)
from commsym.expcore import ExpPoly
from commsym.gridcheck import GridSpec, convergence_order, fd_apply_residual, fd_chain_values
from commsym.opalg import LinDiffOp, ad_power, commutator

SEED = 20260808
DRAWS = 100


def emit(criterion: int, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion:2d}: {detail}")
    return ok


def test_criterion_01_wave_bracket():
    res = ad_power(sc.wave_operator(), sc.h1_generator(), 2).max_coeff()
    assert emit(1, res < 1e-12, f"ad^2(box, x0 d1) max coeff {res:.2e} < 1e-12")


def test_criterion_02_schrodinger_bracket():
    ls = sc.schrodinger_operator(sc.SchrodingerParams())
    res = ad_power(ls, sc.boost_generator(), 2).max_coeff()
    assert emit(2, res < 1e-12, f"ad^2(L_S, M01) max coeff {res:.2e} < 1e-12")


def test_criterion_03_linear_group_sweep():
    report = sc.run_igl_sweep()
    worst = max(c.residual for c in report.checks)
    ok = len(report.checks) == 40 and worst < 1e-12
    assert emit(3, ok, f"40 identities, worst residual {worst:.2e} < 1e-12")


def test_criterion_04_wave_engaging_sweep():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(DRAWS):
        report = sc.run_dalembert(sc.random_dalembert_params(rng))
        worst = max(worst, report.check("eq17_engaging_weighted_wave").residual)
    assert emit(4, worst < 1e-9, f"{DRAWS} draws, worst engaging residual {worst:.2e} < 1e-9")


def test_criterion_05_schrodinger_engaging_sweep():
    rng = np.random.default_rng(SEED)
    worst_disp = worst_11 = worst_printed = worst_via = 0.0
    surfaced = True
    for _ in range(DRAWS):
        report = sc.run_schrodinger(sc.random_schrodinger_params(rng))
        worst_disp = max(
            worst_disp,
            report.check("eq21_dispersion_psi1").residual,
            report.check("eq21_dispersion_psi2").residual,
        )
        worst_11 = max(worst_11, report.check("eq23_engaging_psi11").residual)
        worst_via = max(worst_via, report.check("eq23_engaging_psi22_via_transform").residual)
        printed = report.check("eq23_engaging_psi22_as_printed")
        worst_printed = max(worst_printed, printed.residual)
        if printed.residual > printed.tol and printed.passed:
            surfaced = False  # a failing residual must never be reported as a pass
    ok = worst_disp < 1e-12 and worst_11 < 1e-8 and worst_via < 1e-8 and surfaced
    if worst_printed >= 1e-8:
        detail = (
            f"dispersion {worst_disp:.2e}, psi1-weight {worst_11:.2e}, "
            f"transcribed psi2 weight fails engaging at {worst_printed:.2e} and is "
            f"surfaced as the named failing check eq23_engaging_psi22_as_printed "
            f"(transform-route weight passes at {worst_via:.2e})"
        )
    else:
        detail = (
            f"dispersion {worst_disp:.2e}, psi1-weight {worst_11:.2e}, "
            f"psi2-weight {worst_printed:.2e}, all < 1e-8"
        )
    assert emit(5, ok, detail)


def test_criterion_06_maxwell_engaging_sweep():
    rng = np.random.default_rng(SEED)
    worst_row = worst_inv = 0.0
    for _ in range(DRAWS):
        p = sc.random_dalembert_params(rng, max_nx=0.95)
        report = sc.run_maxwell(p, angle=float(rng.uniform(0.0, 2.0 * math.pi)))
        worst_row = max(
            worst_row,
            max(report.check(f"eq26_engaging_{n}").residual for n in sc.MAXWELL_ROW_NAMES),
        )
        worst_inv = max(
            worst_inv,
            report.check("eq28_invariant_e_dot_h").residual,
            report.check("eq28_invariant_e2_minus_h2").residual,
        )
    ok = worst_row < 1e-9 and worst_inv < 1e-12
    assert emit(
        6, ok, f"{DRAWS} draws, worst row residual {worst_row:.2e} < 1e-9, "
        f"worst invariant {worst_inv:.2e} < 1e-12"
    )


def test_criterion_07_composition_laws():
    spot = sc.compose_d_parameters(0.2, 0.3)
    spot_ok = abs(spot - 0.4716981132075471) < 1e-12
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(DRAWS):
        p1, beta2 = sc.random_composition_pair(rng)
        report = sc.check_composition(p1, beta2)
        worst = max(worst, max(c.residual for c in report.checks))
    ok = spot_ok and worst < 1e-10
    assert emit(
        7, ok, f"{DRAWS} draws, worst law residual {worst:.2e} < 1e-10; "
        f"d''(0.2, 0.3) = {spot:.6f}"
    )


def test_criterion_08_generator_rediscovery():
    # null dimension of the p = 2 system at ansatz degrees 1 and 2
    for degree, expected in ((1, 25), (2, 46)):
        system = build_determining_system(sc.wave_operator(), AnsatzSpec(degree=degree, p=2))
        basis = solve_null_space(system)
        worst_proj = max(basis.projection_residual(system.encode(g)) for g in sc.IGL_OPERATORS)
        oracle = apply_probe_null_dimension(system, np.random.default_rng(SEED))
        dims = {basis.dimension_at(t) for t in (1e-9, 1e-8, 1e-7)}
        ok = (
            worst_proj < 1e-8
            and basis.dimension == oracle == expected
            and dims == {basis.dimension}
        )
        assert emit(
            8,
            ok,
            f"degree {degree}: 20 generator projections worst {worst_proj:.2e} < 1e-8; "
            f"dimension {basis.dimension} = oracle {oracle} = {expected}, "
            "stable under tol x10 and /10",
        )


def _halving_ok(devs):
    return all(abs(a / b - 2.0) <= 0.2 for a, b in zip(devs, devs[1:]))


def _ball_points():
    """48 seeded points in the unit 4-ball: the sampled reference for the
    small-velocity limits, independent of the closed-form gaps the suites
    read off covectors and amplitudes."""
    rng = np.random.default_rng(12345)
    u = rng.normal(size=(48, 4))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    r = rng.uniform(0, 1, size=(48, 1)) ** 0.25
    return u * r


BALL = _ball_points()


def _sup_on_ball(f):
    return float(np.max(np.abs(f.evaluate(BALL))))


def _sampled_weight_dev(p, b):
    w = sc.dalembert_weight(dataclasses.replace(p, beta=b))
    return _sup_on_ball(w - ExpPoly.constant(1))


def _sampled_field_dev(p, b, angle=0.0):
    q = dataclasses.replace(p, beta=b)
    t = sc.MaxwellTransform.from_params(q)
    l, m = sc.polarization(q, angle)
    f = sc.plane_fields(q, l, m)
    fp = sc.transform_fields(f, t)
    e, h = f[:3], f[3:]
    expect = [e[0], e[1] - b * h[2], e[2] + b * h[1], h[0], h[1] + b * e[2], h[2] - b * e[1]]
    return max(_sup_on_ball(a - bb) for a, bb in zip(fp, expect))


def test_criterion_09_small_velocity_limits():
    betas = (1e-2, 5e-3, 2.5e-3)
    base = sc.DalembertParams(beta=0.3, n=(0.0, 1.0, 0.0))
    weight_devs = [_sampled_weight_dev(base, b) for b in betas]
    field_devs = [_sampled_field_dev(base, b) for b in betas]

    p = sc.SchrodingerParams()
    psi2_res = sc.nonrel_schrodinger_operator(p).apply(sc.psi2_nonrel_limit(p)).max_coeff()

    ok = _halving_ok(weight_devs) and _halving_ok(field_devs) and psi2_res < 1e-10
    assert emit(
        9,
        ok,
        f"weight deviations {[f'{d:.2e}' for d in weight_devs]} halve within 10%; "
        f"field deviations {[f'{d:.2e}' for d in field_devs]} halve within 10%; "
        f"psi2 limit residual {psi2_res:.2e} < 1e-10",
    )


def test_criterion_09_limit_verdicts_match_the_sampled_reference():
    # the suites read the eq18/eq28 gaps off covectors and amplitudes; at
    # omega near c the unit-ball samples give the same verdict
    rng = np.random.default_rng(SEED)
    draws = 200
    for _ in range(draws):
        p = sc.random_dalembert_params(rng, max_nx=0.95)  # omega in [0.1, 10]
        angle = float(rng.uniform(0, 2 * math.pi))
        weight = sc.run_dalembert(p).check("eq18_weight_limit_linear_scaling")
        field = sc.run_maxwell(p, angle=angle).check("eq28_nonrel_field_limit_scaling")
        sampled_weight = _halving_ok([_sampled_weight_dev(p, b) for b in sc.LIMIT_BETAS])
        sampled_field = _halving_ok([_sampled_field_dev(p, b, angle) for b in sc.LIMIT_BETAS])
        assert (weight.passed, field.passed) == (sampled_weight, sampled_field), p
    assert emit(9, True, f"{draws} draws, closed-form limit verdicts match the sampled ones")


def _fd_bracket_residual(L, Q, f, grid, p):
    """Purely finite-difference residual of the p-fold bracket on f."""
    if p == 1:
        v1, _ = fd_chain_values((L, Q), f, grid)
        v2, _ = fd_chain_values((Q, L), f, grid)
        return float(np.max(np.abs(v1 - v2)))
    v1, _ = fd_chain_values((L, L, Q), f, grid)
    v2, _ = fd_chain_values((L, Q, L), f, grid)
    v3, _ = fd_chain_values((Q, L, L), f, grid)
    return float(np.max(np.abs(v1 - 2 * v2 + v3)))


def _fd_matrix_row_residual(rows, fields, grid):
    """FD application of a first-order matrix row system on the common interior."""
    worst = 0.0
    for row in rows:
        pieces = []
        for entry, f in zip(row, fields):
            if not entry.terms:
                continue
            vals, pad = fd_chain_values((entry,), f, grid)
            pieces.append((vals, pad))
        common = [max(p[a] for _, p in pieces) for a in range(4)]
        acc = np.zeros(tuple(grid.extent - 2 * c for c in common), dtype=complex)
        for vals, pad in pieces:
            crop = tuple(
                slice(common[a] - pad[a], vals.shape[a] - (common[a] - pad[a]) or None)
                for a in range(4)
            )
            acc += vals[crop]
        worst = max(worst, float(np.max(np.abs(acc))))
    return worst


def test_criterion_10_finite_difference_oracle():
    grid = GridSpec(h=1e-2, extent=9)
    wide = GridSpec(h=1e-2, extent=13)
    oblique = sc.DalembertParams(beta=0.3, n=(0.36, 0.48, 0.8))
    box = sc.wave_operator()
    sp = sc.SchrodingerParams()
    ls = sc.schrodinger_operator(sp)
    worst = 0.0

    # criteria 1-3: bracket identities, pure stencil route
    worst = max(worst, _fd_bracket_residual(box, sc.h1_generator(), sc.plane_wave(oblique), wide, 2))
    worst = max(worst, _fd_bracket_residual(ls, sc.boost_generator(), sc.psi1(sp), wide, 2))
    for a in range(4):
        worst = max(worst, _fd_bracket_residual(box, LinDiffOp.partial(a), sc.plane_wave(oblique), grid, 1))
        worst = max(worst, _fd_bracket_residual(ls, LinDiffOp.partial(a), sc.psi1(sp), grid, 1))
    for a in range(4):
        for b in range(4):
            g_ab = LinDiffOp([(tuple(1 if i == b else 0 for i in range(4)), ExpPoly.coordinate(a))])
            worst = max(worst, _fd_bracket_residual(box, g_ab, sc.plane_wave(oblique), wide, 2))
            worst = max(worst, _fd_bracket_residual(ls, g_ab, sc.psi1(sp), wide, 2))

    # criteria 4-6: function annihilation at the default parameters
    p = sc.DalembertParams(beta=0.3, n=(0.0, 1.0, 0.0))
    weighted = sc.dalembert_weight(p) * sc.plane_wave(p)
    pairs = [
        (box, sc.plane_wave(p)),
        (sc.dalembert_engaging_operator(p), weighted),
        (ls, sc.psi1(sp)),
        (ls, sc.psi2(sp)),
        (sc.schrodinger_engaging_operator(sp), sc.psi11_weight(sp) * sc.psi1(sp)),
        (sc.schrodinger_engaging_operator(sp), sc.psi_weight_via_transform(sp, sc.psi2) * sc.psi2(sp)),
        (sc.nonrel_schrodinger_operator(sp), sc.psi1_nonrel_limit(sp)),
        (sc.nonrel_schrodinger_operator(sp), sc.psi2_nonrel_limit(sp)),
    ]
    for A, f in pairs:
        assert A.apply(f).max_coeff() < 1e-8  # symbolic zero precondition
        worst = max(worst, fd_apply_residual(A, f, grid))

    t = sc.MaxwellTransform.from_params(p)
    l, m = sc.polarization(p)
    fields = sc.plane_fields(p, l, m)
    worst = max(worst, _fd_matrix_row_residual(sc.maxwell_operator().rows, fields, grid))
    worst = max(
        worst,
        _fd_matrix_row_residual(
            sc.maxwell_primed_operator(p).rows, sc.transform_fields(fields, t), grid
        ),
    )

    # convergence order on non-degenerate cases
    orders = [
        convergence_order(box, sc.plane_wave(oblique), grid, [0.04, 0.02, 0.01]),
        convergence_order(
            sc.dalembert_engaging_operator(oblique),
            sc.dalembert_weight(oblique) * sc.plane_wave(oblique),
            grid,
            [0.04, 0.02, 0.01],
        ),
        convergence_order(
            sc.schrodinger_engaging_operator(sp),
            sc.psi11_weight(sp) * sc.psi1(sp),
            grid,
            [0.04, 0.02, 0.01],
        ),
    ]
    orders_ok = all(abs(o - 2.0) < 0.2 for o in orders)
    ok = worst <= 1e-3 and orders_ok
    assert emit(
        10,
        ok,
        f"worst stencil residual {worst:.2e} <= 1e-3; convergence orders "
        + ", ".join(f"{o:.3f}" for o in orders),
    )


def test_criterion_11_algebra_properties():
    rng = np.random.default_rng(SEED)

    jacobi = 0.0
    for _ in range(50):
        A, B, C = (rand_generator(rng) for _ in range(3))
        total = (
            commutator(A, commutator(B, C))
            + commutator(B, commutator(C, A))
            + commutator(C, commutator(A, B))
        )
        scale = max(A.max_coeff(), B.max_coeff(), C.max_coeff(), 1.0) ** 3
        jacobi = max(jacobi, total.max_coeff() / scale)

    anti = 0.0
    for _ in range(50):
        A, B = rand_op(rng), rand_op(rng)
        scale = max(A.max_coeff() * B.max_coeff(), 1.0)
        anti = max(anti, (commutator(A, B) + commutator(B, A)).max_coeff() / scale)

    coherence = 0.0
    for _ in range(50):
        A, B, f = rand_op(rng), rand_op(rng), rand_poly(rng)
        gap = (A.compose(B).apply(f) - A.apply(B.apply(f))).max_coeff()
        scale = max(A.max_coeff() * B.max_coeff() * f.max_coeff(), 1.0)
        coherence = max(coherence, gap / scale)

    group = 0.0
    for _ in range(50):
        xi = [ExpPoly.linear_form(rng.normal(size=4) * 0.5, rng.normal() * 0.5) for _ in range(4)]
        q = LinDiffOp.first_order(xi, ExpPoly.zero())
        s, t = rng.uniform(-1, 1, 2)
        left = flow(q, s).compose(flow(q, t))
        right = flow(q, s + t)
        group = max(group, float(np.max(np.abs(left.A - right.A))), float(np.max(np.abs(left.b - right.b))))

    contra = 0.0
    for _ in range(50):
        m1 = AffineMap(np.eye(4) + 0.2 * rng.normal(size=(4, 4)), 0.2 * rng.normal(size=4))
        m2 = AffineMap(np.eye(4) + 0.2 * rng.normal(size=(4, 4)), 0.2 * rng.normal(size=4))
        op = LinDiffOp(
            [
                ((1, 0, 0, 0), ExpPoly.linear_form(rng.normal(size=4), rng.normal())),
                ((0, 0, 1, 1), ExpPoly.constant(1.0)),
            ]
        )
        twice = pullback(pullback(op, m1), m2)
        once = pullback(op, m1.compose(m2))
        scale = max(once.max_coeff(), 1.0)
        contra = max(contra, (twice - once).max_coeff() / scale)

    ok = jacobi < 1e-10 and anti < 1e-10 and coherence < 1e-9 and group < 1e-12 and contra < 1e-9
    assert emit(
        11,
        ok,
        f"jacobi {jacobi:.2e}, antisymmetry {anti:.2e}, coherence {coherence:.2e}, "
        f"flow group law {group:.2e}, pullback contravariance {contra:.2e}",
    )
