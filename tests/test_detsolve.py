"""Determining systems, null spaces, structure constants, flows, pullbacks."""

import dataclasses
import functools
import itertools
import json
import math
import re
import tracemalloc
import warnings
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from randgen import approx_eq, assert_residual_is_the_gate_route, bits, op_bits

from commsym import cli, detsolve, expcore
from commsym.detsolve import (
    DENSE_BUDGET,
    NULL_TOL,
    AffineMap,
    AnsatzSpec,
    DeterminingSystem,
    GeneratorBasis,
    NotClosed,
    SingularMap,
    UnsupportedCoefficient,
    UnsupportedDegree,
    _components,
    _freivalds_combination,
    _pack,
    _radix,
    _unpack,
    apply_probe_null_dimension,
    build_determining_system,
    flow,
    monomials_up_to,
    probe_sample,
    pullback,
    solve_null_space,
    structure_constants,
)
from commsym.expcore import _UNIT, ZERO_ALPHA, ExpPoly, ExpTerm, NonFinite
from commsym.opalg import LinDiffOp, ad_power, commutator, residual_vs_multiple
from commsym.scenarios import (
    IGL_GENERATORS,
    IGL_OPERATORS,
    SEARCH_OPERATORS,
    SchrodingerParams,
    boost_generator,
    h1_generator,
    laplacian,
    run_generator_search,
    schrodinger_operator,
    wave_operator,
)


def op_x0d1():
    return h1_generator()


# -- determining systems -------------------------------------------------------


def test_box_first_order_constant_ansatz():
    # every constant-coefficient Q commutes with box: 4 xi + eta, zeta forced 0
    system = build_determining_system(wave_operator(), AnsatzSpec(degree=0, p=1))
    basis = solve_null_space(system)
    assert basis.dimension == 5
    for cand in map(system.decode, basis.vectors):
        assert cand.zeta.is_zero()


def test_d0_everything_commutes():
    system = build_determining_system(LinDiffOp.partial(0), AnsatzSpec(degree=0, p=1))
    basis = solve_null_space(system)
    assert basis.dimension == 5
    for cand in map(system.decode, basis.vectors):
        assert cand.zeta.is_zero()


def test_box_second_order_affine_ansatz_contains_linear_group():
    system = build_determining_system(wave_operator(), AnsatzSpec(degree=1, p=2))
    basis = solve_null_space(system)
    encodings = [system.encode(g) for g in IGL_OPERATORS]
    assert len(encodings) == 20
    for name, vec in zip(IGL_GENERATORS, encodings):
        assert basis.projection_residual(vec) < 1e-8, name
    # dimension agrees with the independent apply-route oracle
    oracle = apply_probe_null_dimension(system, np.random.default_rng(0))
    assert basis.dimension == oracle


def polynomial_operator():
    """1.5 x1 d0^2 - d1 + (0.5 x0 + 0.25 x3 + 2) x2 d2 + i x0 x3: coefficients of degree <= 2."""
    return LinDiffOp([
        ((2, 0, 0, 0), ExpPoly([ExpTerm(1.5, (0, 1, 0, 0))])),
        ((0, 1, 0, 0), ExpPoly.constant(-1)),
        ((0, 0, 1, 0), ExpPoly.linear_form([0.5, 0, 0, 0.25], 2.0) * ExpPoly.coordinate(2)),
        ((0, 0, 0, 0), ExpPoly([ExpTerm(1j, (1, 0, 0, 1))])),
    ])


OPERATORS = {
    "box": wave_operator,
    "schrod": lambda: schrodinger_operator(SchrodingerParams()),
    "poly": polynomial_operator,
}


@functools.lru_cache(maxsize=None)
def system_and_basis(operator, degree, p, zeta_degree):
    system = build_determining_system(OPERATORS[operator](), AnsatzSpec(degree, p, zeta_degree))
    return system, solve_null_space(system)


def matrix_system(m, **fields):
    """The determining system whose matrix is m, with the other fields given:
    its entries are the nonzeros of m in row-major order, as np.nonzero lists
    them, and its row codes default to 0, 1, ... for the rows of m."""
    rows, cols = np.nonzero(m)
    return DeterminingSystem(entries=(rows, cols, m[rows, cols]), **{"row_codes": np.arange(len(m)), **fields})


# -- the dict-based ad_L map as the reference of the array assembly -------------------


def _reference_leibniz(order, alpha):
    """(beta, binom(order, beta) * alpha! / (alpha - beta)!, alpha - beta) for
    every nonzero beta <= order with d^beta x^alpha != 0."""
    out = []
    for beta in itertools.product(*(range(min(n, a) + 1) for n, a in zip(order, alpha))):
        if any(beta):
            weight = math.prod(math.comb(n, b) * math.perm(a, b) for n, a, b in zip(order, alpha, beta))
            out.append((beta, weight, tuple(a - b for a, b in zip(alpha, beta))))
    return out


def reference_determining_system(L, spec):
    """(matrix, row_keys, unknowns) of the determining system, assembled key by
    key: each column a dict from (delta, alpha) keys to coefficients, pushed p
    times through the Leibniz images of its keys, and the sorted union of the
    keys as rows."""
    def add(a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(a, b):
        return tuple(x - y for x, y in zip(a, b))

    terms = [(gamma, t.alpha, t.coeff) for gamma, coeff in L.terms for t in coeff.terms]

    def image(delta, alpha):
        out = defaultdict(complex)
        for gamma, a, c in terms:
            top = add(gamma, delta)
            for beta, weight, lowered in _reference_leibniz(gamma, alpha):
                out[(sub(top, beta), add(a, lowered))] += c * weight
            for beta, weight, lowered in _reference_leibniz(delta, a):
                out[(sub(top, beta), add(alpha, lowered))] -= c * weight
        return {k: v for k, v in out.items() if v != 0}

    def ad(vec):
        out = defaultdict(complex)
        for (delta, alpha), v in vec.items():
            for k, w in image(delta, alpha).items():
                out[k] += v * w
        return {k: w for k, w in out.items() if w != 0}

    monomials = monomials_up_to(spec.degree)
    unknowns = tuple((delta, m) for delta in (*_UNIT, ZERO_ALPHA) for m in monomials)
    unknowns += tuple((None, m) for m in monomials_up_to(spec.zeta_degree))
    columns = []
    for delta, alpha in unknowns:
        if delta is None:
            columns.append({(gamma, add(a, alpha)): -c for gamma, a, c in terms})
            continue
        col = {(delta, alpha): 1 + 0j}
        for _ in range(spec.p):
            col = ad(col)
        columns.append(col)
    row_keys = tuple(sorted(set().union(*columns)))
    index = {k: i for i, k in enumerate(row_keys)}
    matrix = np.zeros((len(row_keys), len(columns)), dtype=complex)
    for j, col in enumerate(columns):
        for k, v in col.items():
            matrix[index[k], j] += v
    return matrix, row_keys, unknowns


@pytest.mark.parametrize("degree, p, zeta_degree", [
    (1, 2, 0), (2, 2, 0), (3, 2, 0), (3, 2, 2), (2, 1, 1), (3, 3, 0),
])
@pytest.mark.parametrize("operator", ["box", "schrod", "poly"])
def test_array_assembly_equals_the_dict_reference(operator, degree, p, zeta_degree):
    # every coefficient here is a dyadic rational, so no sum rounds and the
    # order in which the two assemblies add is invisible
    L = OPERATORS[operator]()
    spec = AnsatzSpec(degree, p, zeta_degree)
    system = build_determining_system(L, spec)
    matrix, row_keys, unknowns = reference_determining_system(L, spec)
    assert np.array_equal(system.matrix, matrix)
    assert system.row_keys == row_keys
    assert system.unknowns == unknowns


def non_dyadic_operator():
    """polynomial_operator's shape with non-dyadic complex coefficients, whose
    sums round."""
    return LinDiffOp([
        ((2, 0, 0, 0), ExpPoly([ExpTerm(1 / 3 + 0.1j, (0, 1, 0, 0))])),
        ((0, 1, 0, 0), ExpPoly.constant(-math.pi)),
        ((0, 0, 1, 0), ExpPoly.linear_form([0.7, 0, 0, 1 / 7], 2.0 + 1j / 3) * ExpPoly.coordinate(2)),
        ((0, 0, 0, 0), ExpPoly([ExpTerm(math.e * 1j, (1, 0, 0, 1))])),
    ])


ROUNDING_OPERATORS = {
    "box/3": lambda: wave_operator() * (1 / 3),
    "box*pi": lambda: wave_operator() * math.pi,
    "schrod/3": lambda: schrodinger_operator(SchrodingerParams()) * (1 / 3),
    "schrod*pi": lambda: schrodinger_operator(SchrodingerParams()) * math.pi,
    "non_dyadic": non_dyadic_operator,
}


def ordered_reference_matrix(L, spec):
    """The determining matrix summed in the documented order.  Each pass of
    ad_L visits the entries sorted by (key, column) and, for each entry, the
    map's passes in order: the terms c x^a d^gamma of L in order, each with
    its nonzero beta <= max(gamma, a) in itertools.product order.  A pass of
    nonzero weight adds value * (c * weight) to the sum of its image; the
    sums run part by part in floats from 0.0, and exact zero sums are
    dropped.  The products are numpy's, formed as arrays in that order as
    the assembly forms them: numpy may fuse a complex product's multiply
    and add in its array loops, and not in its scalars."""
    terms = [(gamma, t.alpha, t.coeff) for gamma, coeff in L.terms for t in coeff.terms]
    passes = [(gamma, a, c, beta) for gamma, a, c in terms
              for beta in itertools.product(*(range(max(g, e) + 1) for g, e in zip(gamma, a))) if any(beta)]

    @functools.lru_cache(maxsize=None)
    def images(delta, alpha):
        out = []
        for gamma, a, c, beta in passes:
            weight = (math.prod(map(math.comb, gamma, beta)) * math.prod(map(math.perm, alpha, beta))
                      - math.prod(map(math.perm, a, beta)) * math.prod(map(math.comb, delta, beta)))
            if weight:
                key = (tuple(d + g - b for d, g, b in zip(delta, gamma, beta)),
                       tuple(x + y - b for x, y, b in zip(alpha, a, beta)))
                out.append((key, c, weight))
        return out

    def pushed(entries):
        targets, vals, coeffs, weights = [], [], [], []
        for key, col in sorted(entries):
            for image, c, weight in images(*key):
                targets.append((image, col))
                vals.append(entries[key, col])
                coeffs.append(c)
                weights.append(weight)
        z = np.array(vals, dtype=complex) * (np.array(coeffs, dtype=complex) * np.array(weights, dtype=float))
        sums = {}
        for target, re, im in zip(targets, z.real.tolist(), z.imag.tolist()):
            old_re, old_im = sums.get(target, (0.0, 0.0))
            sums[target] = (old_re + re, old_im + im)
        return {target: complex(re, im) for target, (re, im) in sums.items() if re or im}

    unknowns = build_determining_system(L, spec).unknowns
    entries = {((delta, alpha), j): 1 for j, (delta, alpha) in enumerate(unknowns) if delta is not None}
    for _ in range(spec.p):
        entries = pushed(entries)
    entries.update({((gamma, tuple(x + y for x, y in zip(a, alpha))), j): -c
                    for j, (delta, alpha) in enumerate(unknowns) if delta is None for gamma, a, c in terms})
    row_keys = sorted({key for key, _ in entries})
    index = {k: i for i, k in enumerate(row_keys)}
    matrix = np.zeros((len(row_keys), len(unknowns)), dtype=complex)
    for (key, j), v in entries.items():
        matrix[index[key], j] += v
    return matrix, tuple(row_keys)


@pytest.mark.parametrize("degree, p, zeta_degree", [(2, 2, 0), (3, 2, 2), (3, 3, 0)])
@pytest.mark.parametrize("operator", list(ROUNDING_OPERATORS))
def test_assembly_sums_in_the_documented_order_bit_for_bit(operator, degree, p, zeta_degree):
    """Against a reference that sums each (column, key) in the documented
    order, on coefficients whose sums round, so that another order of
    summation shows in the bits."""
    L = ROUNDING_OPERATORS[operator]()
    spec = AnsatzSpec(degree, p, zeta_degree)
    system = build_determining_system(L, spec)
    matrix, row_keys = ordered_reference_matrix(L, spec)
    assert system.row_keys == row_keys
    entries = [(v, (i, j), ()) for (i, j), v in np.ndenumerate(system.matrix)]
    expected = [(v, (i, j), ()) for (i, j), v in np.ndenumerate(matrix)]
    assert bits(entries) == bits(expected)


def test_ad_map_weights_beyond_int64_round_instead_of_wrapping():
    # [x0^20 d0^20, x0^19 d0^20] has Leibniz weights up to about 1e24
    L = LinDiffOp([((20, 0, 0, 0), ExpPoly([ExpTerm(1, (20, 0, 0, 0))]))])
    Q = LinDiffOp([((20, 0, 0, 0), ExpPoly([ExpTerm(1, (19, 0, 0, 0))]))])
    radix = 41  # the image's indices reach 20 + 20
    ad = detsolve._AdMap(L, radix)
    key = _pack(np.array([[20, 0, 0, 0]]), np.array([[19, 0, 0, 0]]), radix)
    _, codes, vals = ad((np.zeros(1, dtype=np.int64), key, np.ones(1, dtype=complex)), 1)
    delta, alpha = _unpack(codes, radix)
    got = {(tuple(d), tuple(a)): v for d, a, v in zip(delta.tolist(), alpha.tolist(), vals)}
    expected = {(delta, t.alpha): t.coeff for delta, c in commutator(L, Q).terms for t in c.terms}
    assert got.keys() == expected.keys()
    assert max(abs(got[k] - expected[k]) / abs(expected[k]) for k in got) <= 1e-12
    assert max(map(abs, got.values())) > 2.0**63


@pytest.mark.parametrize("operator", ["box", "schrod", "poly"])
def test_ad_map_weights_are_the_comb_and_perm_products(operator):
    """Each weight binom(gamma, beta) alpha!/(alpha - beta)! - a!/(a - beta)!
    binom(delta, beta), per (entry, pass), on the unit keys of a degree-3
    ansatz and their images, against math.comb and math.perm; every weight
    here is below 2**53, so the floats are the integers."""
    L = OPERATORS[operator]()
    radix = 8  # the image's indices reach 3 + 2
    ad = detsolve._AdMap(L, radix)
    # one pass per (term c x^a d^gamma of L, nonzero beta <= max(gamma, a)), in that order
    passes = [(gamma, t.alpha, beta) for gamma, coeff in L.terms for t in coeff.terms
              for beta in itertools.product(*(range(max(g, e) + 1) for g, e in zip(gamma, t.alpha))) if any(beta)]
    assert [beta for _, _, beta in passes] == list(map(tuple, ad.beta.tolist()))
    units = [(delta, alpha) for delta in (*_UNIT, ZERO_ALPHA) for alpha in monomials_up_to(3)]
    unit_delta, unit_alpha = (np.array(half) for half in zip(*units))
    q = np.arange(len(units)), _pack(unit_delta, unit_alpha, radix), np.ones(len(units), dtype=complex)
    image_delta, image_alpha = _unpack(ad(q, len(units))[1], radix)
    deltas, alphas = np.concatenate([unit_delta, image_delta]), np.concatenate([unit_alpha, image_alpha])
    weight = ad.weights(deltas, alphas)
    assert weight.shape == (len(deltas), len(ad.beta)) and np.count_nonzero(weight)
    for t, (gamma, a, beta) in enumerate(passes):
        # a pass sends (delta, alpha) to (delta, alpha) + (gamma - beta, a - beta)
        assert ad.shift_code[t] == _pack(np.subtract(gamma, beta), np.subtract(a, beta), radix)
        for e, (delta, alpha) in enumerate(zip(deltas.tolist(), alphas.tolist())):
            exact = (math.prod(map(math.comb, gamma, beta)) * math.prod(map(math.perm, alpha, beta))
                     - math.prod(map(math.perm, a, beta)) * math.prod(map(math.comb, delta, beta)))
            assert weight[e, t] == exact, (delta, alpha, gamma, a, beta)


def test_key_codes_round_trip_and_sort_as_the_keys():
    keys = np.random.default_rng(0).integers(0, 12, size=(300, 8))
    delta, alpha = keys[:, :4], keys[:, 4:]
    radix = _radix(int(keys.max()), 1)
    assert radix == keys.max() + 1
    codes = _pack(delta, alpha, radix)
    back = _unpack(codes, radix)
    assert np.array_equal(back[0], delta) and np.array_equal(back[1], alpha)
    by_code = keys[np.argsort(codes, kind="stable")].tolist()
    assert by_code == sorted(keys.tolist())
    # the halves broadcast: entry (i, j) is the code of the pair (delta_i, alpha_j)
    grid = _pack(delta[:30, None], alpha[None, :40], radix)
    assert grid.shape == (30, 40)
    for i, j in itertools.product(range(30), range(40)):
        assert grid[i, j] == functools.reduce(lambda code, digit: code * radix + digit, (*delta[i], *alpha[j]))
    # the radix is 1 + the largest index: 234**8 fits in int64, 235**8 does not
    top = np.array([[233] * 4, [0] * 4])
    codes = _pack(top, top, _radix(233, 1))
    assert codes.tolist() == [234**8 - 1, 0]
    back = _unpack(codes, 234)
    assert np.array_equal(back[0], top) and np.array_equal(back[1], top)
    back = _unpack(_pack(top, top[::-1], 234), 234)
    assert np.array_equal(back[0], top) and np.array_equal(back[1], top[::-1])
    with pytest.raises(OverflowError):
        _radix(234, 1)
    # a code times the column count, plus a column, must fit too
    assert _radix(232, 1) == 233
    with pytest.raises(OverflowError):
        _radix(232, 2)
    empty = np.zeros((0, 4), dtype=np.int64)
    codes = _pack(empty, empty, 2)
    assert codes.shape == (0,) and [half.shape for half in _unpack(codes, 2)] == [(0, 4), (0, 4)]


def test_an_operator_whose_keys_outgrow_int64_is_refused():
    # d0^300 reaches the index 300 at p = 1, and 302**8 exceeds int64
    with pytest.raises(OverflowError, match="too large for an int64 key code"):
        build_determining_system(LinDiffOp.partial(0, 300), AnsatzSpec(0, 1))


@pytest.mark.parametrize("spec, message", [
    (AnsatzSpec(100, 1), "index 102 too large for an int64 key code over 22990631 columns"),
    (AnsatzSpec(240, 2), "index 244 too large for an int64 key code over 720422506 columns"),
    (AnsatzSpec(1, 2, 500), "index 504 too large for an int64 key code over 2656615651 columns"),
])
def test_an_ansatz_whose_keys_outgrow_int64_is_refused_before_it_is_enumerated(monkeypatch, spec, message):
    # the column count 5 C(degree + 4, 4) + C(zeta_degree + 4, 4) is counted, not enumerated
    monkeypatch.setattr(detsolve, "monomials_up_to", lambda degree: pytest.fail("the ansatz was enumerated"))
    with pytest.raises(OverflowError) as err:
        build_determining_system(wave_operator(), spec)
    assert str(err.value) == message


@pytest.mark.parametrize("degree", range(9))
def test_monomials_run_in_graded_lex_order(degree):
    expected = [alpha for total in range(degree + 1)
                for alpha in itertools.product(range(total + 1), repeat=4) if sum(alpha) == total]
    assert monomials_up_to(degree) == expected


@pytest.mark.parametrize("operator", ["box", "schrod"])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_a_search_builds_no_dense_matrix_and_no_row_key(monkeypatch, operator, degree):
    """The solver and the oracle read the system's entries, its components
    and its block stacks: a search never fills the dense matrix, and the
    rows stay codes, so it builds no row-key tuple."""
    systems = []
    build = detsolve.build_determining_system

    def built(*args):
        systems.append(build(*args))
        return systems[-1]

    monkeypatch.setattr(detsolve, "build_determining_system", built)
    monkeypatch.setattr(detsolve, "_fill", lambda *args: pytest.fail("the dense matrix was filled"))
    report = run_generator_search(operator, degree, 2, 0, 0)
    assert report.passed
    (system,) = systems
    assert "matrix" not in vars(system) and "row_keys" not in vars(system)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("degree, p, zeta_degree", [(2, 2, 0), (1, 2, 2), (1, 1, 0), (2, 3, 0)])
@pytest.mark.parametrize("operator", ["box", "schrod"])
def test_apply_probe_oracle_matches_svd(operator, degree, p, zeta_degree, seed):
    # a fixed 8 x 6 sample missed rank at degree 2 and with 15 zeta monomials
    system, basis = system_and_basis(operator, degree, p, zeta_degree)
    assert apply_probe_null_dimension(system, np.random.default_rng(seed)) == basis.dimension


def unit_residuals(system):
    """ad_L^p(Q_j) - zeta_j L of each unit unknown j, through the operator algebra."""
    residuals = []
    for j in range(len(system.unknowns)):
        cand = system.decode(np.eye(len(system.unknowns))[j])
        op, _ = residual_vs_multiple(ad_power(system.L, cand.Q, system.spec.p), system.L, cand.zeta)
        residuals.append(op)
    return residuals


def test_probe_sample_applies_residual_operators():
    # the oracle's P @ M is (R_j f_i)(x_k), with R_j built by ad_power, not by the sparse map
    for p in (1, 2):
        system, basis = system_and_basis("box", 1, p, 0)
        kappas, points, P = probe_sample(system, np.random.default_rng(0))
        assert P.shape == (len(kappas) * len(points), len(system.row_keys))
        sample = P @ system.matrix
        for j, op in enumerate(unit_residuals(system)):
            for i, kappa in enumerate(kappas):
                applied = op.apply(ExpPoly.exponential(1.0, kappa))
                for k, x in enumerate(points):
                    expected = applied.evaluate(tuple(x))
                    assert abs(sample[i * len(points) + k, j] - expected) <= 1e-12 * max(1.0, abs(expected))
        assert apply_probe_null_dimension(system, np.random.default_rng(0)) == basis.dimension


@pytest.mark.parametrize("operator, degree", [("box", 1), ("box", 2), ("box", 3), ("schrod", 2)])
def test_probe_sample_is_the_broadcast_product_bit_for_bit(operator, degree):
    system = build_determining_system(OPERATORS[operator](), AnsatzSpec(degree, 2))
    kappas, points, P = probe_sample(system, np.random.default_rng(3))
    keys = np.array(system.row_keys, dtype=np.int64).reshape(-1, 8)
    derivs, monos = detsolve._powers(kappas, keys[:, :4]), detsolve._powers(points, keys[:, 4:])
    waves = np.exp(kappas @ points.T)
    broadcast = waves[:, :, None] * derivs[:, None, :] * monos[None, :, :]
    assert P.tobytes() == broadcast.tobytes()


def test_probe_sample_peak_memory_is_below_two_samples():
    # P is formed in place: no broadcast temporary of its size
    system = build_determining_system(wave_operator(), AnsatzSpec(3, 2))
    tracemalloc.start()
    try:
        _, _, P = probe_sample(system, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * P.nbytes


@pytest.mark.parametrize("operator, degree, p, zeta_degree, expected", [
    ("box", 1, 1, 0, 12),
    ("box", 2, 1, 1, 16),
    ("box", 3, 1, 2, 16),
    ("schrod", 1, 1, 0, 12),
    ("schrod", 2, 1, 1, 13),
    ("schrod", 3, 1, 2, 13),
    ("box", 3, 2, 2, 46),
    ("schrod", 3, 2, 2, 47),
])
def test_null_dimensions_pinned(operator, degree, p, zeta_degree, expected):
    system, basis = system_and_basis(operator, degree, p, zeta_degree)
    assert basis.dimension == expected
    assert apply_probe_null_dimension(system, np.random.default_rng(0)) == expected


# null dimensions per (operator, zeta_degree) and degree, at p = 1, 2, 3
NULL_DIMENSIONS = {
    ("box", 0): {1: (12, 25, 25), 2: (12, 46, 75), 3: (12, 46, 120), 4: (12, 46, 120)},
    ("schrod", 0): {1: (12, 25, 25), 2: (12, 46, 75), 3: (12, 46, 121), 4: (12, 46, 121)},
    ("box", 2): {1: (12, 25, 25), 2: (16, 46, 75), 3: (16, 46, 120)},
    ("schrod", 2): {1: (12, 25, 25), 2: (13, 46, 75), 3: (13, 47, 121)},
}


def whole_sample_null_dimension(system, rng):
    """The probe oracle's count from one rank of the whole sample P @ M, at
    the same cutoff: the reference of the per-block ranks."""
    _, _, P = probe_sample(system, rng)
    sample = P @ system.matrix
    tol = 1e-8 * (float(np.abs(sample).max(initial=0.0)) or 1.0)
    return sample.shape[1] - int(np.linalg.matrix_rank(sample, tol=tol))


@pytest.mark.parametrize("operator, degree, p, zeta_degree", [
    (op, degree, p, zeta_degree)
    for (op, zeta_degree), by_degree in NULL_DIMENSIONS.items()
    for degree in by_degree
    for p in (1, 2, 3)
])
def test_block_ranks_add_up_to_the_whole_sample_rank(operator, degree, p, zeta_degree):
    system, basis = system_and_basis(operator, degree, p, zeta_degree)
    for seed in range(5):
        whole = whole_sample_null_dimension(system, np.random.default_rng(seed))
        blocks = apply_probe_null_dimension(system, np.random.default_rng(seed))
        assert blocks == whole == basis.dimension, seed


@pytest.mark.parametrize("operator, degree, p", [
    (op, degree, p) for op in ("box", "schrod") for degree in (1, 2, 3, 4) for p in (1, 2, 3)
])
def test_block_rank_rule_matches_matrix_rank_at_the_oracle_cutoff(operator, degree, p):
    # each block's count, from its norm or its R factor, against a direct SVD of its sample
    system, _ = system_and_basis(operator, degree, p, 0)
    for seed in range(5):
        _, _, P = probe_sample(system, np.random.default_rng(seed))
        samples, tol = detsolve._block_samples(system, P)
        for sample, (_, rows, _, _) in zip(samples, system.block_stacks):
            expected = np.linalg.matrix_rank(sample, tol=tol)
            assert np.array_equal(detsolve._sample_ranks(sample, rows.shape[1], tol), expected), seed


def _rank_one_blocks_system(scale_row, scale_col):
    """A 5 x 5 system of three blocks: a dense 2 x 2 block of entries of size
    one, a single-row block of two columns scaled by scale_row and a
    single-column block of two rows scaled by scale_col."""
    rng = np.random.default_rng(7)
    m = np.zeros((5, 5), dtype=complex)
    m[:2, :2] = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m[2, 2:4] = scale_row * (rng.normal(size=2) + 1j * rng.normal(size=2))
    m[3:, 4] = scale_col * (rng.normal(size=2) + 1j * rng.normal(size=2))
    keys = sorted((delta, alpha) for delta in _UNIT[:3] for alpha in (ZERO_ALPHA, _UNIT[0]))[:5]
    return matrix_system(
        m,
        unknowns=tuple((_UNIT[0], alpha) for alpha in monomials_up_to(1)),
        row_codes=_pack(*map(np.array, zip(*keys)), 2),
        radix=2,
        L=wave_operator(),
        spec=AnsatzSpec(degree=1, p=1),
    )


@pytest.mark.parametrize("ratio, rank", [(0.999, 0), (1.001, 1)])
def test_rank_one_blocks_next_to_the_cutoff_count_as_matrix_rank_does(ratio, rank):
    """A single-row and a single-column block whose sample's sigma_1 sits just
    below (or above) the oracle's cutoff: the norm route and a direct SVD of
    the sample both count 0 (or 1), and so does the oracle."""
    unit = _rank_one_blocks_system(1.0, 1.0)
    _, _, P = probe_sample(unit, np.random.default_rng(0))
    samples, _ = detsolve._block_samples(unit, P)
    shapes = [(rows.shape[1], cols.shape[1]) for _, rows, cols, _ in unit.block_stacks]
    assert shapes == [(2, 2), (1, 2), (2, 1)]
    tol = 1e-8 * np.abs(samples[0]).max()  # the cutoff once the dense block holds the largest entry
    sigma = [np.linalg.svd(s[0], compute_uv=False)[0] for s in samples[1:]]
    system = _rank_one_blocks_system(ratio * tol / sigma[0], ratio * tol / sigma[1])
    samples, scaled_tol = detsolve._block_samples(system, P)
    assert scaled_tol == tol
    ranks = [detsolve._sample_ranks(s, rows.shape[1], tol)
             for s, (_, rows, _, _) in zip(samples, system.block_stacks)]
    assert [r.tolist() for r in ranks] == [[2], [rank], [rank]]
    assert [np.linalg.matrix_rank(s, tol=tol).tolist() for s in samples] == [[2], [rank], [rank]]
    assert apply_probe_null_dimension(system, np.random.default_rng(0)) == 5 - 2 - 2 * rank


def _cut(mode):
    """A wrong split of the first multi-column component: its last column
    moved into a group of its own, with no rows or with the rows it touches,
    or the whole component left out."""
    def split(n_cols, nz_rows, nz_cols):
        components = _components(n_cols, nz_rows, nz_cols)
        k = next(k for k, (_, cols) in enumerate(components) if len(cols) > 1)
        rows, cols = components[k]
        moved = nz_rows[nz_cols == cols[-1]].tolist() if mode == "its_rows" else []
        cut = [] if mode == "dropped" else [(rows, cols[:-1]), (moved, cols[-1:])]
        return components[:k] + cut + components[k + 1:]
    return split


@pytest.mark.parametrize("mode", ["no_rows", "its_rows", "dropped"])
def test_probe_oracle_refuses_a_split_that_cuts_a_component(monkeypatch, mode):
    system, _ = system_and_basis("box", 2, 2, 0)
    monkeypatch.setattr(detsolve, "_components", _cut(mode))
    fresh = dataclasses.replace(system)  # the split is cached per system
    assert fresh.components != system.components
    with pytest.raises(RuntimeError, match="outside its diagonal blocks"):
        apply_probe_null_dimension(fresh, np.random.default_rng(0))
    # the blocks are cut from the entries, so the solver refuses the split too
    with pytest.raises(RuntimeError, match="outside its diagonal blocks"):
        solve_null_space(dataclasses.replace(system))


def test_probe_oracle_counts_a_system_without_rows():
    # the zero operator: every unknown solves the system, which has no rows
    system = build_determining_system(LinDiffOp(), AnsatzSpec(1, 1))
    assert system.matrix.shape == (0, 26) and system.row_keys == ()
    assert solve_null_space(system).dimension == 26
    assert apply_probe_null_dimension(system, np.random.default_rng(0)) == 26


@pytest.mark.parametrize("operator, degree, p, zeta_degree, expected", [
    (op, degree, p, zeta_degree, dims[p - 1])
    for (op, zeta_degree), by_degree in NULL_DIMENSIONS.items()
    for degree, dims in by_degree.items()
    for p in (1, 2, 3)
] + [("box", 4, 3, 2, 120), ("schrod", 4, 3, 2, 122)])
def test_component_null_space_matches_whole_matrix(operator, degree, p, zeta_degree, expected):
    system, basis = system_and_basis(operator, degree, p, zeta_degree)
    m, V = system.matrix, basis.vectors
    whole = np.linalg.svd(m, compute_uv=False)
    rank = m.shape[1] - expected
    assert m.shape[1] - int(np.sum(whole > NULL_TOL * whole[0])) == basis.dimension == expected
    # the merged spectrum is the whole matrix's, up to the zeros a split drops
    sigma = basis.singular_values
    assert np.all(np.diff(sigma) <= 0)
    assert np.abs(sigma[:rank] - whole[:rank]).max() <= 1e-12 * whole[0]
    assert max(sigma[rank:].max(initial=0.0), whole[rank:].max(initial=0.0)) <= NULL_TOL * whole[0]
    assert np.abs(V.conj() @ V.T - np.eye(len(V))).max() <= 1e-12
    assert np.linalg.norm(m @ V.T, axis=0).max(initial=0.0) <= 1e-12 * whole[0]
    # the components block-diagonalize m, and each vector lives on one of them
    label = np.full(m.shape[1], -1)
    row_label = np.full(m.shape[0], -1)
    for c, (rows, cols) in enumerate(system.components):
        assert np.all(label[cols] == -1)
        label[cols], row_label[rows] = c, c
    i, j = np.nonzero(m)
    assert np.all(label >= 0) and np.array_equal(row_label[i], label[j])
    for v in V:
        assert len(set(label[np.abs(v) > 0])) == 1
    assert basis.components == tuple(
        (len(rows), len(cols)) for rows, cols in system.components if rows
    )


def per_component_null_space(m):
    """Null vectors and merged spectrum of m by one SVD call per component:
    the reference for the batched calls of solve_null_space."""
    components = _components(m.shape[1], *np.nonzero(m))
    free = [cols[0] for rows, cols in components if not rows]
    parts = [(free, np.zeros(0), np.eye(len(free)))]
    for rows, cols in components:
        if rows:
            _, s, vh = np.linalg.svd(m[np.ix_(rows, cols)], full_matrices=True)
            parts.append((cols, s, vh))
    sigma = np.sort(np.concatenate([s for _, s, _ in parts]))[::-1]
    cutoff = NULL_TOL * (sigma[0] if sigma.size else 0.0)
    null = [(cols, np.conj(vh[int(np.count_nonzero(s > cutoff)):])) for cols, s, vh in parts]
    vectors = np.zeros((sum(len(v) for _, v in null), m.shape[1]), dtype=complex)
    row = 0
    for cols, v in null:
        vectors[row : row + len(v), cols] = v
        row += len(v)
    return vectors, sigma


# every system pinned in this file: the system_and_basis keys, and ("gauss",
# ...) for i d0 + Laplacian, whose matrix has Gaussian-integer entries
PINNED_SYSTEMS = [
    (op, degree, p, zeta_degree)
    for (op, zeta_degree), by_degree in NULL_DIMENSIONS.items()
    for degree in by_degree
    for p in (1, 2, 3)
] + [
    ("box", 4, 3, 2), ("schrod", 4, 3, 2), ("box", 2, 1, 1), ("schrod", 2, 1, 1),
    ("poly", 1, 1, 1), ("poly", 2, 2, 0), ("poly", 1, 3, 0),
    ("gauss", 2, 1, 1), ("gauss", 3, 2, 2), ("gauss", 2, 3, 0),
]


@pytest.mark.parametrize("operator, degree, p, zeta_degree", PINNED_SYSTEMS)
def test_batched_svds_match_one_call_per_component(operator, degree, p, zeta_degree):
    if operator == "gauss":
        L = 1j * LinDiffOp.partial(0) + laplacian()
        system = build_determining_system(L, AnsatzSpec(degree, p, zeta_degree))
        basis = solve_null_space(system)
    else:
        system, basis = system_and_basis(operator, degree, p, zeta_degree)
    vectors, sigma = per_component_null_space(system.matrix)
    assert basis.vectors.shape == vectors.shape
    assert basis.vectors.tobytes() == vectors.tobytes()
    assert basis.singular_values.shape == sigma.shape
    assert basis.singular_values.tobytes() == sigma.tobytes()


def test_components_of_one_shape_share_one_svd_call(monkeypatch):
    system, _ = system_and_basis("box", 3, 2, 2)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: calls.append(a.shape) or svd(a, **kw))
    basis = solve_null_space(system)
    assert len(basis.components) > len(set(basis.components))
    assert len(calls) == len(set(basis.components))


@pytest.mark.parametrize("operator, degree", [("box", 2), ("schrod", 2), ("box", 3)])
def test_one_search_gathers_the_block_stacks_once(monkeypatch, operator, degree):
    """The solver and the probe oracle read one set of block stacks per
    system, and give bit for bit what they give on stacks gathered for each
    of them alone."""
    L, spec = SEARCH_OPERATORS[operator](), AnsatzSpec(degree, 2)
    basis_alone = solve_null_space(build_determining_system(L, spec))
    dim_alone = apply_probe_null_dimension(build_determining_system(L, spec), np.random.default_rng(5))
    calls = []
    gather = detsolve._block_stacks
    monkeypatch.setattr(detsolve, "_block_stacks", lambda *args: calls.append(1) or gather(*args))
    system = build_determining_system(L, spec)
    basis = solve_null_space(system)
    assert apply_probe_null_dimension(system, np.random.default_rng(5)) == dim_alone
    assert len(calls) == 1
    for name in ("vectors", "singular_values"):
        assert getattr(basis, name).tobytes() == getattr(basis_alone, name).tobytes()
    assert basis.reverify_residual == basis_alone.reverify_residual
    assert basis.components == basis_alone.components
    run_generator_search(operator, degree, 2, 0, 5)
    assert len(calls) == 2


@pytest.mark.parametrize("operator, degree, p, zeta_degree", [
    (op, degree, p, zeta_degree)
    for op in ("box", "schrod") for degree in range(1, 6) for p in (1, 2, 3) for zeta_degree in range(3)
] + [
    (op, *spec) for op in ROUNDING_OPERATORS for spec in ((2, 2, 0), (3, 2, 2), (3, 3, 0))
])
def test_the_entries_give_the_components_and_blocks_of_the_dense_matrix_bit_for_bit(
    operator, degree, p, zeta_degree
):
    """The entries are the nonzeros of M in row-major order; the components
    are those of M's nonzeros, and each block stack holds the bytes of the
    gather M[rows, cols], signed zeros included."""
    L = {**OPERATORS, **ROUNDING_OPERATORS}[operator]()
    system = build_determining_system(L, AnsatzSpec(degree, p, zeta_degree))
    m = system.matrix
    rows, cols = np.nonzero(m)
    entry_rows, entry_cols, vals = system.entries
    assert np.array_equal(entry_rows, rows) and np.array_equal(entry_cols, cols)
    assert vals.view(float).tobytes() == m[rows, cols].view(float).tobytes()
    assert system.components == _components(m.shape[1], rows, cols)
    for _, block_rows, block_cols, stack in system.block_stacks:
        gathered = m[block_rows[:, :, None], block_cols[:, None, :]]
        assert stack.shape == gathered.shape
        assert stack.view(float).tobytes() == gathered.view(float).tobytes()


def test_components_of_a_permuted_block_matrix():
    m = np.zeros((4, 5))
    m[2, 0] = m[2, 3] = m[0, 3] = 1.0  # rows {0, 2} x columns {0, 3}
    m[1, 4] = 2.0  # rows {1} x columns {4}; row 3 and columns 1, 2 are empty
    assert _components(m.shape[1], *np.nonzero(m)) == [([0, 2], [0, 3]), ([], [1]), ([], [2]), ([1], [4])]


def exact_null_dimension(system):
    """Null dimension of the system's matrix from its rank over the Gaussian
    rationals; the entries must be Gaussian integers, which float64 holds exactly."""
    matrices = pytest.importorskip("sympy.polys.matrices")
    from sympy import QQ_I

    m = system.matrix
    assert np.array_equal(m, np.round(m.real) + 1j * np.round(m.imag))  # Gaussian integers
    rows = {}
    for i, j in zip(*np.nonzero(m)):
        rows.setdefault(int(i), {})[int(j)] = QQ_I(int(m[i, j].real), int(m[i, j].imag))
    return m.shape[1] - matrices.DomainMatrix(rows, m.shape, QQ_I).rank()


@pytest.mark.parametrize("degree, p, zeta_degree, expected", [
    (2, 2, 0, 46), (3, 2, 0, 46), (3, 1, 2, 16), (2, 1, 1, 16), (3, 2, 2, 46), (2, 3, 0, 75),
])
def test_box_null_dimension_is_exact_over_rationals(degree, p, zeta_degree, expected):
    system, basis = system_and_basis("box", degree, p, zeta_degree)
    exact = exact_null_dimension(system)
    assert exact == basis.dimension == expected, f"exact {exact}, SVD {basis.dimension}"


@pytest.mark.parametrize("degree, p, zeta_degree, expected", [
    (2, 1, 1, 13), (3, 2, 2, 47), (2, 3, 0, 75),
])
def test_schrodinger_null_dimension_is_exact_over_gaussian_rationals(degree, p, zeta_degree, expected):
    # Rescaling x0 by hbar/a maps i hbar d0 + a Laplacian to a times i d0 + Laplacian,
    # and a linear rescaling keeps every polynomial degree, so both operators have
    # the same null dimensions; the second has Gaussian-integer matrix entries.
    system = build_determining_system(
        1j * LinDiffOp.partial(0) + laplacian(), AnsatzSpec(degree, p, zeta_degree)
    )
    exact = exact_null_dimension(system)
    svd = solve_null_space(system).dimension
    _, basis = system_and_basis("schrod", degree, p, zeta_degree)
    assert exact == svd == basis.dimension == expected, (
        f"exact {exact}, SVD {svd}, SVD of the default operator {basis.dimension}"
    )


def test_schrodinger_null_space_contains_boost():
    ls = schrodinger_operator(SchrodingerParams())
    system = build_determining_system(ls, AnsatzSpec(degree=1, p=2))
    basis = solve_null_space(system)
    vec = system.encode(boost_generator())  # x0 d1 + x1 d0
    assert basis.projection_residual(vec / np.linalg.norm(vec)) < 1e-8


@pytest.mark.parametrize("params", [SchrodingerParams(), SchrodingerParams(c=1.5, hbar=0.7, m0=2.5)])
def test_schrodinger_p2_null_space_contains_t_times_projective_generator(params):
    # K = t^2 d0 + t x^j d_j + (3/2) t - (i hbar / 4a)|x|^2 is the projective generator
    # of L_S = i hbar d0 + a Laplacian, [L_S, K] = 2t L_S.  With [L_S, t] = i hbar,
    # ad^2(L_S, tK) = i hbar [L_S, K] + [L_S, 2t^2] L_S = 6 i hbar t L_S: the
    # p = 2 vector schrod has beyond box's 46.
    hbar = params.hbar
    a = params.c**2 * hbar**2 / (2.0 * params.W)
    ls = schrodinger_operator(params)
    t = ExpPoly.coordinate(0)
    x = [ExpPoly.coordinate(j) for j in (1, 2, 3)]
    r2 = x[0] * x[0] + x[1] * x[1] + x[2] * x[2]
    K = LinDiffOp.first_order([t * t, *(t * xj for xj in x)], 1.5 * t - (1j * hbar / (4.0 * a)) * r2)
    tK = LinDiffOp((delta, t * c) for delta, c in K.terms)
    zeta = (6j * hbar) * t

    _, res = residual_vs_multiple(ad_power(ls, K, 1), ls, 2.0 * t)
    assert res <= 1e-12
    _, res = residual_vs_multiple(ad_power(ls, tK, 2), ls, zeta)
    assert res <= 1e-12
    # not a p = 1 symmetry: the one zeta that matches the d0 coefficient of
    # ad(L_S, tK) leaves the terms t x^j d_j, which L_S lacks
    ad1 = ad_power(ls, tK, 1)
    _, res = residual_vs_multiple(ad1, ls, dict(ad1.terms)[(1, 0, 0, 0)] * (1 / (1j * hbar)))
    assert res >= hbar

    system = build_determining_system(ls, AnsatzSpec(degree=3, p=2, zeta_degree=2))
    vec = system.encode(tK, zeta)
    assert approx_eq(system.decode(vec).Q, tK, 1e-14)
    assert solve_null_space(system).projection_residual(vec / np.linalg.norm(vec)) <= 1e-8


@pytest.mark.parametrize("kwargs", [
    dict(degree=1, p=2.0),
    dict(degree=1, p=2, zeta_degree=0.5),
    dict(degree=True, p=1),
    dict(degree=1, p=True),
    dict(degree=1.0, p=1),
], ids=["float_p", "float_zeta_degree", "bool_degree", "bool_p", "float_degree"])
def test_ansatz_rejects_values_that_are_not_ints(kwargs):
    with pytest.raises(ValueError, match="must be an integer"):
        AnsatzSpec(**kwargs)


def test_ansatz_takes_numpy_integers():
    spec = AnsatzSpec(degree=np.int64(1), p=np.int32(2), zeta_degree=np.uint8(0))
    assert len(build_determining_system(wave_operator(), spec).unknowns) == 26


def test_exponential_coefficients_rejected():
    L = LinDiffOp([((1, 0, 0, 0), ExpPoly.exponential(1.0, (1.0, 0, 0, 0)))])
    with pytest.raises(UnsupportedCoefficient):
        build_determining_system(L, AnsatzSpec(degree=0, p=1))


def test_decode_roundtrip():
    system = build_determining_system(wave_operator(), AnsatzSpec(degree=1, p=2))
    vec = system.encode(2 * op_x0d1())
    assert np.count_nonzero(vec) == 1 and vec.sum() == 2.0
    cand = system.decode(vec)
    assert approx_eq(cand.Q, 2 * op_x0d1(), 1e-14)


@pytest.mark.parametrize("operator", ["box", "schrod"])
def test_unit_vectors_decode_to_their_keys(operator):
    # a Q key (delta, alpha) is the term x^alpha d^delta, a zeta key (None, alpha) is x^alpha
    system, _ = system_and_basis(operator, 1, 2, 2)
    eye = np.eye(len(system.unknowns))
    for (delta, alpha), vec in zip(system.unknowns, eye):
        cand = system.decode(vec)
        monomial = ExpPoly([ExpTerm(1, alpha)])
        if delta is None:
            assert cand.Q.is_zero() and cand.zeta == monomial
        else:
            assert cand.Q == LinDiffOp([(delta, monomial)]) and cand.zeta.is_zero()
        # encode inverts decode both ways
        assert np.array_equal(system.encode(cand.Q, cand.zeta), vec)
        assert system.decode(system.encode(cand.Q, cand.zeta)) == cand
    # and on a generic vector of the ansatz
    rng = np.random.default_rng(len(eye))
    vec = rng.normal(size=len(eye)) + 1j * rng.normal(size=len(eye))
    cand = system.decode(vec)
    assert np.array_equal(system.encode(cand.Q, cand.zeta), vec)
    assert system.decode(system.encode(cand.Q, cand.zeta)) == cand


def test_decode_rejects_a_vector_of_the_wrong_length():
    system, _ = system_and_basis("box", 1, 2, 0)
    assert len(system.unknowns) == 26
    for n in (3, 25, 27):
        with pytest.raises(ValueError, match="26 unknowns"):
            system.decode(np.ones(n))


def gate_decode(system, vec):
    """(Q, zeta) of a vector through the gates: each nonzero entry an
    ExpTerm, each derivative index's terms and zeta's through ExpPoly's
    constructor, Q through LinDiffOp's; the reference of decode."""
    parts = defaultdict(list)
    for (delta, alpha), c in zip(system.unknowns, vec):
        if complex(c) != 0:
            parts[delta].append(ExpTerm(complex(c), alpha))
    zeta = ExpPoly(parts.pop(None, []))
    return LinDiffOp((d, ExpPoly(t)) for d, t in parts.items()), zeta


@pytest.mark.parametrize("operator", ["box", "schrod"])
@pytest.mark.parametrize("degree, p, zeta_degree", [(1, 2, 0), (2, 2, 2), (3, 1, 1)])
def test_decode_and_residual_are_the_gate_routes_bit_for_bit(operator, degree, p, zeta_degree):
    """decode and residual_vs_multiple of re-verification give the bits of
    the gate routes: on the Freivalds combination, on every null vector,
    and on generic vectors with exact zeros, signed zeros and zero parts,
    whose candidates have a nonzero zeta."""
    system, basis = system_and_basis(operator, degree, p, zeta_degree)
    n = len(system.unknowns)
    rng = np.random.default_rng(degree)
    generic = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
    generic[0, ::3] = 0.0
    generic[1, ::2] = complex(-0.0, -0.0)
    generic[1, 1::4] = complex(-0.0, 1.5)
    generic[2, ::2] = complex(2.5, -0.0)
    generic[2, 1::3] = complex(0.0, -0.0)
    vectors = [_freivalds_combination(basis.vectors), *basis.vectors, *generic, np.zeros(n)]
    for vec in vectors:
        cand = system.decode(vec)
        Q, zeta = gate_decode(system, vec)
        assert op_bits(cand.Q) == op_bits(Q)
        assert bits(cand.zeta.terms) == bits(zeta.terms)
        assert_residual_is_the_gate_route(ad_power(system.L, cand.Q, p), system.L, cand.zeta)
    assert not gate_decode(system, generic[0])[1].is_zero()


@pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(1.0, math.inf), complex(-math.inf, math.nan)])
@pytest.mark.parametrize("key", [((1, 0, 0, 0), (0, 1, 0, 1)), ((0, 0, 0, 0), (0, 0, 0, 0)), (None, (0, 0, 2, 0))])
def test_decode_names_a_non_finite_coefficient_as_the_gate_does(key, bad):
    system, _ = system_and_basis("box", 2, 2, 2)
    vec = np.random.default_rng(1).normal(size=len(system.unknowns)) + 0j
    vec[system.unknowns.index(key)] = bad
    with pytest.raises(NonFinite) as expected:
        gate_decode(system, vec)
    with pytest.raises(NonFinite) as got:
        system.decode(vec)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("Q, zeta, witness", [
    # an exponential factor: kappa != 0
    (LinDiffOp.partial(0), ExpPoly.exponential(1.0, (1.0, 0, 0, 0)), "of zeta, alpha=(0, 0, 0, 0)"),
    # x0^2 d1: a Q monomial above degree 1
    (LinDiffOp([((0, 1, 0, 0), ExpPoly([ExpTerm(1, (2, 0, 0, 0))]))]), ExpPoly.zero(),
     "of Q at delta=(0, 1, 0, 0), alpha=(2, 0, 0, 0)"),
    # x1: a zeta monomial above zeta_degree 0
    (LinDiffOp.partial(0), ExpPoly.coordinate(1), "of zeta, alpha=(0, 1, 0, 0)"),
    # d0^2: a derivative index outside the first-order ansatz
    (LinDiffOp.partial(0, 2), ExpPoly.zero(), "of Q at delta=(2, 0, 0, 0)"),
], ids=["kappa", "Q_above_degree", "zeta_above_zeta_degree", "second_order"])
def test_encode_names_a_term_no_unknown_holds(Q, zeta, witness):
    system, _ = system_and_basis("box", 1, 2, 0)
    with pytest.raises(ValueError, match=re.escape("no unknown holds the term " + witness)):
        system.encode(Q, zeta)


@pytest.mark.parametrize("degree", [1, 2])
def test_encode_units_are_the_rows_encode_gives_bit_for_bit(degree):
    system, _ = system_and_basis("box", degree, 2, 1)
    keys = [*IGL_GENERATORS.values(), (None, ZERO_ALPHA), (None, _UNIT[2])]
    ops = [(g, ExpPoly.zero()) for g in IGL_OPERATORS]
    ops += [(LinDiffOp(), ExpPoly.constant(1.0 + 0j)), (LinDiffOp(), ExpPoly([ExpTerm(1 + 0j, _UNIT[2])]))]
    units = system.encode_units(keys)
    assert units.tobytes() == np.array([system.encode(Q, zeta) for Q, zeta in ops]).tobytes()
    assert system.encode_units([]).shape == (0, len(system.unknowns))


def test_encode_units_raise_what_encode_raises():
    system, _ = system_and_basis("box", 1, 2, 0)
    for delta, alpha in [(_UNIT[1], (2, 0, 0, 0)), (None, _UNIT[1]), ((2, 0, 0, 0), ZERO_ALPHA)]:
        with pytest.raises(ValueError) as expected:
            if delta is None:
                system.encode(LinDiffOp(), ExpPoly([ExpTerm(1 + 0j, alpha)]))
            else:
                system.encode(LinDiffOp([(delta, ExpPoly([ExpTerm(1 + 0j, alpha)]))]))
        with pytest.raises(ValueError) as got:
            system.encode_units([(_UNIT[0], ZERO_ALPHA), (delta, alpha)])
        assert str(got.value) == str(expected.value)


# the abstract's ladder at ansatz degree 1: the Lorentz boost M01 lies in the
# p = 1 span of box, the Galilei shear H1 only in its p = 2 span, and the
# Schrodinger operator holds neither at p = 1 (residuals 0.878 and 0.737)
# and both at p = 2
@pytest.mark.parametrize("operator, p, holds, misses", [
    ("box", 1, ["M01"], ["H1"]),
    ("box", 2, ["M01", "H1"], []),
    ("schrod", 1, [], ["M01", "H1"]),
    ("schrod", 2, ["M01", "H1"], []),
])
def test_named_generators_climb_the_commutator_ladder(operator, p, holds, misses):
    system, basis = system_and_basis(operator, 1, p, 0)
    generators = {"M01": boost_generator(), "H1": h1_generator()}
    residual = {}
    for name, g in generators.items():
        vec = system.encode(g)
        residual[name] = basis.projection_residual(vec / np.linalg.norm(vec))
    assert all(residual[name] <= 1e-8 for name in holds), residual
    assert all(residual[name] >= 0.5 for name in misses), residual


def test_full_rank_system_empty_basis():
    dummy = matrix_system(
        np.eye(3, dtype=complex),
        unknowns=tuple((_UNIT[a], ZERO_ALPHA) for a in range(3)),
        radix=2,
        L=wave_operator(),
        spec=AnsatzSpec(degree=0, p=1),
    )
    basis = solve_null_space(dummy)
    assert basis.dimension == 0
    v = np.array([3.0, 4.0j, 0.0])
    assert basis.projection_residual(v) == np.linalg.norm(v) == 5.0


@pytest.mark.parametrize("operator", SEARCH_OPERATORS)
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_projection_residual_of_a_stack_is_its_largest_row_distance(operator, degree):
    """A stack takes all its distances with one matrix product; BLAS may sum
    that product in another order than the vector product of a single row,
    so the rows agree to rounding (a bound set from complex128's epsilon and
    the length of the sums), and exactly where the distance is 0."""
    system = build_determining_system(SEARCH_OPERATORS[operator](), AnsatzSpec(degree=degree, p=2))
    basis = solve_null_space(system)
    n = len(system.unknowns)
    rng = np.random.default_rng(degree)
    stack = rng.normal(size=(7, n)) + 1j * rng.normal(size=(7, n))
    stack[:3] = rng.normal(size=(3, 1)) * basis.vectors[:3]  # in the span, up to rounding
    per_row = [basis.projection_residual(v) for v in stack]
    bound = 16 * n * np.finfo(float).eps * np.abs(stack).sum(axis=1).max()
    assert abs(basis.projection_residual(stack) - max(per_row)) <= bound
    units = np.array([system.encode(g) for g in IGL_OPERATORS])
    assert units.shape == (20, n) and np.array_equal(np.abs(units).sum(axis=1), np.ones(20))
    assert basis.projection_residual(units) == max(map(basis.projection_residual, units)) == 0.0
    assert basis.projection_residual(np.zeros((0, n))) == 0.0


@settings(max_examples=300, deadline=None)
@given(
    scale=st.floats(1e-6, 1e6),
    tol=st.sampled_from([NULL_TOL, 1e-12, 1e-4]),
    up=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    down=st.floats(0.0, 1.0, exclude_max=True),
    above=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
    below=st.lists(st.floats(0.0, 1.0), max_size=4),
)
def test_a_spectrum_straddling_the_cutoff_moves_the_rank_at_tol_x10_or_div10(
    scale, tol, up, down, above, below
):
    """Two neighbours sigma[r-1] > c >= sigma[r] around the cutoff
    c = tol * sigma_max, at ratio 10^(up + down (1 - up)) below 10: sigma[r-1]
    lies in (c, 10c), so the rank read at 10 tol or at tol / 10 differs from
    the rank at tol, and the generator search's detsolve_dim_stable_under_tol
    row fails on every such spectrum."""
    cutoff = tol * scale
    upper = cutoff * 10.0**up
    lower = cutoff * 10.0 ** (-down * (1.0 - up))
    sigma = np.array(sorted(
        [scale, *(upper + f * (scale - upper) for f in above), upper, lower,
         *(f * lower for f in below)],
        reverse=True,
    ))
    rank = 2 + len(above)
    assume(sigma[rank - 1] > tol * sigma[0] >= sigma[rank])
    assume(sigma[rank - 1] < 10 * sigma[rank])
    n = len(sigma) + 3  # three unknowns that touch no row
    basis = GeneratorBasis(np.zeros((0, n), dtype=complex), sigma, 0.0, ())
    assert basis.dimension_at(tol) == n - rank
    assert basis.dimension_at(tol * 10.0) != n - rank or basis.dimension_at(tol * 0.1) != n - rank


def test_ambiguous_null_cutoff_fails_the_stability_row(monkeypatch):
    """The spectrum [1, 3e-8, 5e-9] straddles the cutoff 1e-8 at ratio 6: a
    generator search whose solver meets it reports a failing
    detsolve_dim_stable_under_tol row, and the CLI exits 1 with the report,
    not with an error."""
    solve = detsolve.solve_null_space

    def solve_ambiguous(system):
        # box at degree 1 has one block, one column wide; scaled to sigma 1, it
        # is joined by two rows 3e-8 and 5e-9 on columns of true symmetries
        m = system.matrix / np.linalg.norm(system.matrix)
        free = [j for j in range(m.shape[1]) if not m[:, j].any()]
        extra = np.zeros((2, m.shape[1]), dtype=complex)
        extra[0, free[0]], extra[1, free[1]] = 3e-8, 5e-9
        return solve(matrix_system(np.vstack([m, extra]), unknowns=system.unknowns, radix=system.radix,
                                   L=system.L, spec=system.spec))

    monkeypatch.setattr(detsolve, "solve_null_space", solve_ambiguous)
    status, payload = cli.run(cli.parse_config(["detsolve", "--degree", "1", "--format", "json"]))
    report = json.loads(payload)
    rows = {c["name"]: c for c in report["checks"]}
    assert status == cli.EXIT_FAIL and report["pass"] is False
    # 24 vectors at 1e-8; the dimensions read at 1e-7 and 1e-9 are 25 and 23
    assert report["params"]["null_dimension"] == 24
    assert rows["detsolve_dim_stable_under_tol"]["residual"] == 1
    assert rows["detsolve_dim_stable_under_tol"]["pass"] is False
    assert rows["detsolve_candidates_reverify"]["pass"] is True


def test_null_cutoff_is_relative_to_the_global_sigma_max():
    # two 1 x 1 components: 1e-9 is the whole of its own but below NULL_TOL * 1
    dummy = matrix_system(
        np.diag([1.0, 1e-9]).astype(complex),
        unknowns=tuple((_UNIT[a], ZERO_ALPHA) for a in range(2)),
        radix=2,
        L=wave_operator(),
        spec=AnsatzSpec(degree=0, p=1),
    )
    basis = solve_null_space(dummy)
    assert basis.components == ((1, 1), (1, 1))
    assert np.array_equal(basis.singular_values, [1.0, 1e-9])
    assert np.array_equal(np.abs(basis.vectors), [[0.0, 1.0]])


def test_null_dimension_stable_under_tolerance():
    for spec in (AnsatzSpec(degree=0, p=1), AnsatzSpec(degree=1, p=2)):
        system = build_determining_system(wave_operator(), spec)
        basis = solve_null_space(system)
        # the dimensions read from its spectrum, as the generator search does
        dims = {basis.dimension_at(t) for t in (1e-9, 1e-8, 1e-7)}
        assert dims == {basis.dimension} == {basis.dimension_at(NULL_TOL)}


def test_candidates_reverify_through_opalg():
    system = build_determining_system(wave_operator(), AnsatzSpec(degree=1, p=2))
    basis = solve_null_space(system)
    for cand in map(system.decode, basis.vectors):
        bracket = ad_power(wave_operator(), cand.Q, 2)
        _, res = residual_vs_multiple(bracket, wave_operator(), cand.zeta)
        assert res <= 1e-8
    # the kept residual is that of the one random combination of the null vectors
    combined = system.decode(_freivalds_combination(basis.vectors))
    _, res = residual_vs_multiple(ad_power(wave_operator(), combined.Q, 2), wave_operator(), combined.zeta)
    assert basis.reverify_residual == res <= 1e-8


@pytest.mark.parametrize(
    "operator, degree, p, zeta_degree",
    [(op, d, p, 0) for op in ("box", "schrod") for d, p in ((1, 2), (2, 2), (2, 3))]
    + [("box", 1, 2, 2), ("poly", 1, 1, 1), ("poly", 2, 2, 0), ("poly", 1, 3, 0)],
)
def test_residual_operator_matches_ad_power_of_candidate(operator, degree, p, zeta_degree):
    # M v from the sparse ad_L map against a full ad_power of the decoded candidate;
    # the polynomial operator also exercises the derivatives that land on L's coefficients
    system, basis = system_and_basis(operator, degree, p, zeta_degree)
    rng = np.random.default_rng(7)
    n = len(system.unknowns)
    generic = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    for vec in list(basis.vectors) + list(generic):
        cand = system.decode(vec)
        old, _ = residual_vs_multiple(ad_power(system.L, cand.Q, p), system.L, cand.zeta)
        old = {(delta, t.alpha): t.coeff for delta, c in old.terms for t in c.terms}
        new = dict(zip(system.row_keys, system.matrix @ vec))
        scale = max(1.0, max(map(abs, old.values()), default=0.0), max(map(abs, new.values())))
        assert max(abs(old.get(k, 0) - new.get(k, 0)) for k in old.keys() | new.keys()) <= 1e-12 * scale


def test_decode_refuses_unknowns_whose_delta_is_split_in_two_runs():
    system = matrix_system(
        np.zeros((0, 3), dtype=complex),
        unknowns=((_UNIT[0], ZERO_ALPHA), (_UNIT[1], ZERO_ALPHA), (_UNIT[0], (1, 0, 0, 0))),
        radix=2,
        L=wave_operator(),
        spec=AnsatzSpec(degree=1, p=1),
    )
    with pytest.raises(ValueError, match=re.escape(f"delta={_UNIT[0]} are not one run")):
        system.decode(np.ones(3))


def test_reverification_rejects_a_wrong_matrix():
    # the matrix admits x0 d0 for box at p = 1, but [box, x0 d0] = 2 d0^2
    wrong = matrix_system(
        np.zeros((1, 1), dtype=complex),
        unknowns=(((1, 0, 0, 0), (1, 0, 0, 0)),),
        row_codes=_pack(np.array([[2, 0, 0, 0]]), np.array([ZERO_ALPHA]), 3),
        radix=3,
        L=wave_operator(),
        spec=AnsatzSpec(degree=1, p=1),
    )
    with pytest.raises(RuntimeError, match="fails re-verification") as err:
        solve_null_space(wrong)
    assert "delta=(2, 0, 0, 0)" in str(err.value)


def test_reverification_names_witness_and_ignores_matrix():
    system, _ = system_and_basis("box", 2, 2, 0)
    delta, alpha = system.row_keys[-1]
    # one equation fewer: the null vectors leave its coefficient in the residual
    dropped = matrix_system(system.matrix[:-1], unknowns=system.unknowns, row_codes=system.row_codes[:-1],
                            radix=system.radix, L=system.L, spec=system.spec)
    with pytest.raises(RuntimeError, match="fails re-verification") as err:
        solve_null_space(dropped)
    assert f"delta={delta}" in str(err.value)
    assert f"alpha={alpha}" in str(err.value)


@pytest.mark.parametrize("operator", ["box", "schrod"])
@pytest.mark.parametrize("degree, expected", [(1, {"gate": 4}), (2, {"ExpPoly": 4, "gate": 8})])
def test_reverification_outside_ad_power_builds_no_operator(monkeypatch, operator, degree, expected):
    """Re-verification at p = 2, less its ad_power, calls LinDiffOp's
    constructor never, and ExpPoly's only for the multi-indices that
    ad_L^p(Q) and zeta L share (none at degree 1, where zeta is 0; four at
    degree 2). The gate is counted too, at every entry: one call per product
    zeta * c of L's four coefficients, and one per ExpPoly(terms)."""
    L = SEARCH_OPERATORS[operator]()
    system = build_determining_system(L, AnsatzSpec(degree, 2))
    vectors = solve_null_space(system).vectors
    calls, inside = defaultdict(int), []

    def counted(name, f):
        def wrapper(*args, **kwargs):
            if not inside:
                calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    def uncounted(*args):
        inside.append(1)
        try:
            return ad_power(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(LinDiffOp, "__init__", counted("LinDiffOp", LinDiffOp.__init__))
    monkeypatch.setattr(ExpPoly, "__init__", counted("ExpPoly", ExpPoly.__init__))
    monkeypatch.setattr(expcore, "_canonical", counted("gate", expcore._canonical))
    monkeypatch.setattr(detsolve, "ad_power", uncounted)
    detsolve._reverify(system, vectors)
    assert dict(calls) == expected


# -- dense size budget --------------------------------------------------------------


def test_a_system_beyond_the_dense_budget_is_refused_before_its_arrays_exist(monkeypatch):
    """The size named is that of the oracle's P, the one dense array of a
    search, and only probe_sample holds it to the budget: a P of exactly
    the budget is built, one byte more is refused before any draw, and the
    build takes the system at either budget without filling the matrix."""
    monkeypatch.setattr(detsolve, "_fill", lambda *args: pytest.fail("the matrix was filled"))
    system = build_determining_system(wave_operator(), AnsatzSpec(3, 2))
    _, _, P = probe_sample(system, np.random.default_rng(0))
    assert P.nbytes <= DENSE_BUDGET
    monkeypatch.setattr(detsolve, "DENSE_BUDGET", P.nbytes)
    _, _, again = probe_sample(build_determining_system(wave_operator(), AnsatzSpec(3, 2)), np.random.default_rng(0))
    assert np.array_equal(again, P)
    monkeypatch.setattr(detsolve, "DENSE_BUDGET", P.nbytes - 1)
    system = build_determining_system(wave_operator(), AnsatzSpec(3, 2))
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError) as err:
        probe_sample(system, rng)
    assert str(err.value) == (
        f"the probe matrix needs {P.nbytes / 2**20:.1f} MiB; it may take at most {(P.nbytes - 1) / 2**20:.0f} MiB")
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


def test_a_search_beyond_the_dense_budget_is_refused_before_any_svd(monkeypatch):
    """At degree 12 the oracle's P would take 6283 MiB: the search is
    refused by the oracle straight after the build, before the split is
    made and before the solver runs."""
    monkeypatch.setattr(detsolve, "_components", lambda *args: pytest.fail("the split was made"))
    monkeypatch.setattr(detsolve, "solve_null_space", lambda system: pytest.fail("the solver ran"))
    with pytest.raises(ValueError) as err:
        run_generator_search(degree=12, p=1)
    assert str(err.value) == "the probe matrix needs 6283.2 MiB; it may take at most 512 MiB"


@pytest.mark.parametrize("operator, zeta_degree, expected", [("box", 0, 46), ("box", 7, 46), ("schrod", 7, 47)])
def test_degree_8_systems_beyond_the_dense_budget_solve(operator, zeta_degree, expected):
    """The build and the solver take a system whose oracle's P outgrows the
    budget (771 to 1296 MiB at degree 8 and p = 2): solve_null_space finds
    the known dimension and re-verifies it; only the oracle refuses."""
    system = build_determining_system(SEARCH_OPERATORS[operator](), AnsatzSpec(8, 2, zeta_degree))
    basis = solve_null_space(system)
    assert basis.dimension == expected and basis.reverify_residual <= detsolve.REVERIFY_TOL
    with pytest.raises(ValueError, match="^the probe matrix needs "):
        probe_sample(system, np.random.default_rng(0))


@pytest.mark.parametrize("operator", ["box", "schrod"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_degree_5_searches_fit_the_dense_budget(operator, p):
    """The largest searches that CI runs are built, and their oracle's P
    fits too."""
    system = build_determining_system(SEARCH_OPERATORS[operator](), AnsatzSpec(5, p))
    n_probes = len({delta for delta, _ in system.row_keys})
    n_points = len({alpha for _, alpha in system.row_keys})
    assert n_probes * n_points * len(system.row_keys) * 16 <= DENSE_BUDGET


# -- structure constants ----------------------------------------------------------


def test_structure_constants_shear_algebra():
    C, closure = structure_constants([LinDiffOp.partial(0), LinDiffOp.partial(1), op_x0d1()])
    # [x0 d1, d0] = -d1
    assert np.allclose(C[2, 0], [0.0, -1.0, 0.0], atol=1e-12)
    assert np.allclose(C[0, 2], [0.0, 1.0, 0.0], atol=1e-12)
    assert closure < 1e-12
    # antisymmetry of the full tensor
    assert np.allclose(C, -np.swapaxes(C, 0, 1), atol=1e-14)


def test_structure_constants_abelian_translations():
    C, _ = structure_constants([LinDiffOp.partial(a) for a in range(4)])
    assert np.allclose(C, 0.0, atol=1e-14)


def poincare_generators():
    """d_a, the boosts x0 di + xi d0 and the rotations xi dj - xj di of box."""
    def x_d(i, a):  # x_i d_a
        return LinDiffOp([(tuple(int(b == a) for b in range(4)), ExpPoly.coordinate(i))])

    translations = [LinDiffOp.partial(a) for a in range(4)]
    boosts = [x_d(0, i) + x_d(i, 0) for i in (1, 2, 3)]
    rotations = [x_d(i, j) - x_d(j, i) for i, j in ((1, 2), (1, 3), (2, 3))]
    return translations + boosts + rotations


def test_structure_constants_poincare_algebra_closes():
    ops = poincare_generators()
    for op in ops:
        assert ad_power(wave_operator(), op, 1).is_zero()
    C, closure = structure_constants(ops)  # 45 brackets in one fit
    assert C.shape == (10, 10, 10)
    assert closure <= 1e-12
    assert np.array_equal(C, -np.swapaxes(C, 0, 1))
    # Jacobi: C_abd C_dce + C_bcd C_dae + C_cad C_dbe = 0
    J = np.einsum("abd,dce->abce", C, C)
    jacobi = J + J.transpose(1, 2, 0, 3) + J.transpose(2, 0, 1, 3)
    assert np.abs(jacobi).max() <= 1e-12
    # a boost of box does not commute with the time translation: [x0 d1 + x1 d0, d0] = -d1
    assert np.allclose(C[4, 0], -np.eye(10)[1], atol=1e-12)


def test_structure_constants_not_closed():
    x0d1 = op_x0d1()
    x1d0 = LinDiffOp([((1, 0, 0, 0), ExpPoly.coordinate(1))])
    with pytest.raises(NotClosed):
        structure_constants([x0d1, x1d0])


def generic_poincare_basis():
    """Ten fixed random real combinations of the Poincare generators."""
    ops = poincare_generators()
    weights = np.random.default_rng(5).normal(size=(10, 10))
    return [sum((w * op for w, op in zip(row, ops)), LinDiffOp.zero()) for row in weights]


@pytest.mark.parametrize("basis", [poincare_generators, generic_poincare_basis])
def test_structure_constants_do_not_depend_on_the_scale_of_the_operators(basis):
    """[s Q_a, s Q_b] = (s C_abg) (s Q_g): every rescaled basis closes with C
    scaled by s, and the non-closing pair [x0 d1, x1 d0] raises at every s."""
    ops = basis()
    C, closure = structure_constants(ops)
    x1d0 = LinDiffOp([((1, 0, 0, 0), ExpPoly.coordinate(1))])
    for s in (1e-5, 1e-3, 1.0, 1e3, 1e4, 1e6):
        Cs, closure_s = structure_constants([s * op for op in ops])
        assert closure_s <= 1e-12
        assert np.abs(Cs - s * C).max() <= 1e-12 * s * np.abs(C).max()
        with pytest.raises(NotClosed):
            structure_constants([s * op_x0d1(), s * x1d0])


def test_structure_constants_rejects_dependent_basis():
    with pytest.raises(ValueError):
        structure_constants([LinDiffOp.partial(0), 2 * LinDiffOp.partial(0)])
    # zero operators have no terms: no key, and a zero basis
    with pytest.raises(ValueError, match="generators are not linearly independent"):
        structure_constants([LinDiffOp(), LinDiffOp()])


# -- flows ---------------------------------------------------------------------


def test_flow_shear_is_galilei_boost():
    amap = flow(op_x0d1(), 0.25)
    expected = np.eye(4)
    expected[1, 0] = 0.25
    assert np.allclose(amap.A, expected, atol=1e-14)
    assert np.allclose(amap.b, 0.0)


def test_flow_boost_matches_closed_form():
    # 2x2 hyperbolic rotation oracle
    theta = 0.37
    amap = flow(boost_generator(), theta)
    ch, sh = math.cosh(theta), math.sinh(theta)
    assert abs(amap.A[0, 0] - ch) < 1e-12
    assert abs(amap.A[0, 1] - sh) < 1e-12
    assert abs(amap.A[1, 0] - sh) < 1e-12
    assert abs(amap.A[1, 1] - ch) < 1e-12


def test_flow_zero_parameter_is_identity():
    amap = flow(boost_generator(), 0.0)
    assert np.max(np.abs(amap.A - np.eye(4))) <= 1e-12
    assert np.max(np.abs(amap.b)) <= 1e-12


def rand_affine_generator(rng):
    xi = [
        ExpPoly.linear_form(rng.normal(size=4) * 0.5, rng.normal() * 0.5)
        for _ in range(4)
    ]
    return LinDiffOp.first_order(xi, ExpPoly.zero())


def test_flow_group_law():
    rng = np.random.default_rng(53)
    for _ in range(50):
        q = rand_affine_generator(rng)
        s, t = rng.uniform(-1, 1, 2)
        left = flow(q, s).compose(flow(q, t))
        right = flow(q, s + t)
        assert np.max(np.abs(left.A - right.A)) < 1e-12
        assert np.max(np.abs(left.b - right.b)) < 1e-12


def test_flow_ode_finite_difference():
    rng = np.random.default_rng(59)
    h = 1e-5
    for _ in range(20):
        q = rand_affine_generator(rng)
        theta = rng.uniform(-1, 1)
        x = rng.uniform(-1, 1, 4)
        dx = (flow(q, theta + h)(x) - flow(q, theta - h)(x)) / (2 * h)
        y = flow(q, theta)(x)
        xi = np.array(
            [dict(q.terms)[tuple(1 if i == a else 0 for i in range(4))].evaluate(tuple(y)).real
             for a in range(4)]
        )
        assert np.max(np.abs(dx - xi)) < 1e-7


def test_flow_rejects_non_finite_parameter():
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            flow(boost_generator(), theta)


@pytest.mark.parametrize("action", ["error", "default", "always", "ignore"])
def test_flow_overflow_raises_under_any_warning_filter(action):
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter(action)
        for theta in (1e6, -1e6, 1e308):
            with pytest.raises(NonFinite):
                flow(boost_generator(), theta)
    assert not seen


@pytest.mark.parametrize("coeff", [1e-13j, 1e-13 * (1 + 1j)])
def test_flow_refuses_a_small_complex_coefficient(coeff):
    # with a floor of 1 on the scale, 1e-13j d0 flowed as the identity and
    # 1e-13 (1 + i) d0 as the real translation 1e-13 d0
    q = LinDiffOp([((1, 0, 0, 0), ExpPoly.constant(coeff))])
    with pytest.raises(UnsupportedDegree, match="real coefficients"):
        flow(q, 1e13)


def test_flow_takes_a_boost_with_a_rounding_residue():
    residue = LinDiffOp([((1, 0, 0, 0), ExpPoly([ExpTerm(1e-17j, (0, 1, 0, 0))]))])
    amap, exact = flow(boost_generator() + residue, 0.5), flow(boost_generator(), 0.5)
    assert np.array_equal(amap.A, exact.A) and np.array_equal(amap.b, exact.b)


FLOW_GENERATORS = {
    "boost": boost_generator(),
    "shear": op_x0d1(),
    "translation": LinDiffOp.partial(0) + LinDiffOp.partial(3) * 2.5,
    "dilation with eta": LinDiffOp([((0, 0, 0, 0), ExpPoly.constant(3.0)),
                                    ((1, 0, 0, 0), ExpPoly.coordinate(0)),
                                    ((0, 1, 0, 0), ExpPoly.coordinate(1) * 0.5)]),
    "small residue": LinDiffOp.partial(1) + LinDiffOp.partial(0) * 1e-13j,
    "complex": LinDiffOp.partial(0) * (1 + 1e-11j),
    "imaginary": LinDiffOp.partial(0) * 1e-13j,
    "quadratic": LinDiffOp([((1, 0, 0, 0), ExpPoly([ExpTerm(1.0, (0, 2, 0, 0))]))]),
}


@pytest.mark.parametrize("s", [1e-20, 1e-8, 1e8, 1e20])
@pytest.mark.parametrize("name", list(FLOW_GENERATORS))
def test_flow_does_not_depend_on_the_scale_of_the_generator(name, s):
    q, theta = FLOW_GENERATORS[name], 0.7
    try:
        expected = flow(q, theta)
    except UnsupportedDegree:
        with pytest.raises(UnsupportedDegree):
            flow(q * s, theta / s)
        return
    amap = flow(q * s, theta / s)
    for got, want in ((amap.A, expected.A), (amap.b, expected.b)):
        assert np.abs(got - want).max() <= 1e-14 * max(1.0, np.abs(want).max())


def test_flow_rejects_quadratic_coefficients():
    q = LinDiffOp([((1, 0, 0, 0), ExpPoly([ExpTerm(1.0, (0, 2, 0, 0))]))])
    with pytest.raises(UnsupportedDegree):
        flow(q, 0.5)


def test_flow_rejects_second_order_operator():
    # the second-order term would otherwise be skipped and the shear flowed
    q = op_x0d1() + LinDiffOp.partial(2, 2)
    with pytest.raises(UnsupportedDegree):
        flow(q, 0.5)


# -- pullback -------------------------------------------------------------------


def galilei_2d(V):
    A = np.eye(4)
    A[1, 0] = -V
    return AffineMap(A, np.zeros(4))


def test_pullback_time_derivative_through_galilei():
    # t'=t, x'=x-Vt: d_t' becomes d_t + V d_x
    V = 0.3
    got = pullback(LinDiffOp.partial(0), galilei_2d(V))
    expected = LinDiffOp.partial(0) + V * LinDiffOp.partial(1)
    assert approx_eq(got, expected, 1e-12)


def test_pullback_identity_map():
    rng = np.random.default_rng(61)
    op = LinDiffOp(
        [((0, 2, 0, 0), ExpPoly.coordinate(0)), ((1, 0, 0, 0), ExpPoly.constant(2))]
    )
    assert approx_eq(pullback(op, AffineMap(np.eye(4), np.zeros(4))), op, 1e-12)


def test_pullback_spatial_derivative_invariant_under_shear():
    got = pullback(LinDiffOp.partial(1, 2), galilei_2d(0.7))
    assert approx_eq(got, LinDiffOp.partial(1, 2), 1e-12)


def test_pullback_characterizing_property():
    # pullback(L, m).apply(f o m) == (L.apply(f)) o m at sample points
    rng = np.random.default_rng(67)
    for _ in range(10):
        A = np.eye(4) + 0.2 * rng.normal(size=(4, 4))
        b = 0.3 * rng.normal(size=4)
        amap = AffineMap(A, b)
        op = LinDiffOp(
            [
                ((0, 1, 0, 0), ExpPoly.linear_form(rng.normal(size=4), rng.normal())),
                ((2, 0, 0, 0), ExpPoly.constant(complex(rng.normal()))),
            ]
        )
        f = ExpPoly.exponential(1.0, tuple(0.5j * v for v in rng.normal(size=4)))
        pulled = pullback(op, amap)
        f_comp = f.substitute_affine(A, b)
        lhs = pulled.apply(f_comp)
        rhs = op.apply(f).substitute_affine(A, b)
        for _ in range(4):
            x = tuple(rng.uniform(-0.5, 0.5, 4))
            assert abs(lhs.evaluate(x) - rhs.evaluate(x)) < 1e-9


def test_pullback_contravariance():
    rng = np.random.default_rng(71)
    for _ in range(20):
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
        assert approx_eq(twice, once, 1e-9)


def test_pullback_singular_map():
    A = np.zeros((4, 4))
    with pytest.raises(SingularMap):
        pullback(LinDiffOp.partial(0), AffineMap(A, np.zeros(4)))


def test_affine_map_rejects_non_finite_entries():
    with pytest.raises(ValueError):
        AffineMap(np.full((4, 4), math.nan), np.zeros(4))
    with pytest.raises(ValueError):
        AffineMap(np.eye(4), np.array([0, math.inf, 0, 0]))


@pytest.mark.parametrize("s", [1e-6, 1e-4, 1e-2, 1.0, 1e3, 1e6])
def test_affine_map_inverse_does_not_depend_on_scale(s):
    inverse = AffineMap(s * np.eye(4), np.ones(4)).inverse()
    assert np.allclose(inverse.A, np.eye(4) / s, rtol=1e-15, atol=0)
    assert np.allclose(inverse.b, -np.ones(4) / s, rtol=1e-15, atol=0)


@pytest.mark.parametrize("s", [1e-6, 1.0, 1e6])
def test_affine_map_inverse_rejects_a_rank_3_matrix(s):
    A = np.random.default_rng(11).normal(size=(4, 4))
    A[3] = A[0] - 2 * A[1]
    with pytest.raises(SingularMap):
        AffineMap(s * A, np.zeros(4)).inverse()


def test_affine_map_inverse_roundtrip():
    rng = np.random.default_rng(73)
    m = AffineMap(np.eye(4) + 0.3 * rng.normal(size=(4, 4)), rng.normal(size=4))
    roundtrip = m.compose(m.inverse())
    assert np.max(np.abs(roundtrip.A - np.eye(4))) <= 1e-10
    assert np.max(np.abs(roundtrip.b)) <= 1e-10
