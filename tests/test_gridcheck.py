"""Finite-difference oracle: residual bounds, convergence order, guards."""

import math
import sys
import threading
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
from commsym import gridcheck
from commsym import scenarios as sc

OBLIQUE = sc.DalembertParams(beta=0.3, n=(0.36, 0.48, 0.8))


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(h=0.0)
    with pytest.raises(ValueError):
        GridSpec(extent=4)
    with pytest.raises(ValueError):
        GridSpec(extent=8)
    for bad in (
        dict(h=-1e-2), dict(h=math.nan), dict(h=math.inf),
        dict(origin=(math.nan, 0, 0, 0)), dict(origin=(0, math.inf, 0, 0)), dict(origin=(0, 0, 0)),
        dict(extent=9.0),
    ):
        with pytest.raises(ValueError):
            GridSpec(**bad)


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


def _twenty_terms() -> ExpPoly:
    """Twenty terms, exponents up to 3, complex covectors."""
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
    return f


def test_eval_on_grid_matches_evaluate_everywhere():
    # every point of 5^4
    _assert_grid_matches_evaluate(_twenty_terms(), SMALL_GRID)


def test_eval_on_ragged_axes_matches_cropped_grid():
    # the interior kernel on axes of four different lengths (9, 7, 5 and 3
    # points) against the full grid cropped to them
    grid = GridSpec(origin=SMALL_GRID.origin, h=0.25, extent=9)
    pad = (0, 1, 2, 3)
    axes = [x[q : grid.extent - q] for x, q in zip(grid.axes(), pad)]
    crop = tuple(slice(q, grid.extent - q) for q in pad)
    f = _twenty_terms()
    values = gridcheck._eval_on_axes(f, axes)
    full = eval_on_grid(f, grid)[crop]
    assert values.shape == (9, 7, 5, 3)
    assert np.max(np.abs(values - full)) <= 1e-14 * np.max(np.abs(full))
    for t in f.terms:
        one = ExpPoly([t])
        assert np.array_equal(gridcheck._eval_on_axes(one, axes), eval_on_grid(one, grid)[crop])


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


@pytest.mark.parametrize("f", [
    ExpPoly([ExpTerm(1e300 + 0j, kappa=(60, 0, 0, 0))]),  # finite factor, overflowing product
    ExpPoly.exponential(1, (300, 300, 0, 0)),  # finite factors, overflowing product
])
@pytest.mark.parametrize("action", ["error", "default", "always", "ignore"])
def test_eval_on_grid_product_overflow_raises_under_any_warning_filter(f, action):
    # x0 and x1 run over -2..2, and every factor is finite there
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


def test_eval_on_grid_takes_an_underflowing_factor_with_its_partner():
    # x0^2 underflows on every x0 near 1e-200, while x0^2 e^(700 x1) is about
    # 1.01e-96; the term beside it has only normal factors
    f = ExpPoly([ExpTerm(1, (2, 0, 0, 0), (0, 700, 0, 0)), ExpTerm(1e-96j, (0, 0, 1, 0))])
    grid = GridSpec(origin=(1e-200, 1, 0.5, 0), h=1e-210, extent=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = eval_on_grid(f, grid)
    axes = grid.axes()
    for idx in np.ndindex(values.shape):
        exact = f.evaluate(tuple(axes[a][i] for a, i in enumerate(idx)))
        assert abs(values[idx] - exact) <= 1e-12 * abs(exact)
    assert values[2, 2, 2, 2] == pytest.approx(1.0142320547349596e-96 + 0.5e-96j, rel=1e-12, abs=0)


@pytest.mark.parametrize("term", [
    ExpTerm(1.5 - 0.5j, (1, 0, 2, 0), (0.3j, 0j, -0.2 + 0j, 0.7 - 0.1j)),
    ExpTerm(-2 + 0j, (3, 1, 0, 2)),
    ExpTerm(1j, kappa=(0.4 - 1j, 0.2 + 0.3j, -0.5 + 0j, 1.1j)),
])
def test_one_term_grid_is_the_outer_product_and_matches_evaluate(term):
    f = ExpPoly([term])
    outer = gridcheck._eval_term_on_axes(term, SMALL_GRID._axes)
    assert np.array_equal(eval_on_grid(f, SMALL_GRID), outer)
    _assert_grid_matches_evaluate(f, SMALL_GRID)


def test_one_term_grid_takes_an_underflowing_factor_in_logs():
    # the first term of the partner test alone: x0^2 underflows on every x0,
    # so the outer product is declined and the general route takes it in logs
    term = ExpTerm(1, (2, 0, 0, 0), (0, 700, 0, 0))
    grid = GridSpec(origin=(1e-200, 1, 0.5, 0), h=1e-210, extent=5)
    assert gridcheck._eval_term_on_axes(term, grid._axes) is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = eval_on_grid(ExpPoly([term]), grid)
    axes = grid.axes()
    for idx in np.ndindex(values.shape):
        exact = ExpPoly([term]).evaluate(tuple(axes[a][i] for a, i in enumerate(idx)))
        assert abs(values[idx] - exact) <= 1e-12 * abs(exact)
    assert values[2, 2, 2, 2] == pytest.approx(1.0142320547349596e-96, rel=1e-12, abs=0)


@pytest.mark.parametrize("action", ["error", "default", "always", "ignore"])
def test_one_term_grid_with_an_overflowing_factor_raises(action):
    # README's example: exp(800 x0 - 800 x1) is 1 at (1, 1), where evaluate
    # gives 1, but its factor exp(800 x0) overflows
    f = ExpPoly.exponential(1, (800, -800, 0, 0))
    grid = GridSpec(origin=(1, 1, 0, 0))
    assert gridcheck._eval_term_on_axes(f.terms[0], grid._axes) is None
    assert f.evaluate((1, 1, 0, 0)) == 1
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter(action)
        with pytest.raises(FloatingPointError):
            eval_on_grid(f, grid)
    assert not seen


@pytest.mark.parametrize("action", ["error", "default", "always", "ignore"])
def test_coefficient_overflow_raises_only_where_values_are_used(action):
    # x0 runs over -2..2 and the stencil of d0 keeps -1..1: exp(800 x0)
    # overflows at an interior point, exp(400 x0) only on the dropped rim
    grid = GridSpec(h=1.0, extent=5)

    def op(k):
        return LinDiffOp([((1, 0, 0, 0), ExpPoly.exponential(1, (k, 0, 0, 0)))])

    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter(action)
        with pytest.raises(FloatingPointError):
            fd_chain_values((op(800),), ExpPoly.constant(1), grid)
        values, pad = fd_chain_values((op(400),), ExpPoly.constant(1), grid)
    assert not seen
    assert pad == (1, 0, 0, 0) and values.shape == (3, 5, 5, 5) and not np.any(values)


def _reference_chain(ops, f, grid):
    """fd_chain_values the plain way, kept as the reference: difference the
    whole grid, then crop; evaluate each coefficient on the whole grid, then
    crop."""
    def crop(v, pad):
        return v[tuple(slice(p, v.shape[i] - p) for i, p in enumerate(pad))]

    values, pad = eval_on_grid(f, grid), [0, 0, 0, 0]
    for op in reversed(ops):
        shrink = [max(d[a] for d, _ in op.terms) for a in range(4)]
        new_pad = [p + s for p, s in zip(pad, shrink)]
        out = np.zeros(tuple(grid.extent - 2 * q for q in new_pad), dtype=complex)
        for delta, coeff in op.terms:
            part = values
            for a in range(4):
                for _ in range(delta[a]):
                    m = part.shape[a]
                    part = (np.take(part, range(2, m), axis=a)
                            - np.take(part, range(m - 2), axis=a)) / (2.0 * grid.h)
            part = crop(part, [s - d for s, d in zip(shrink, delta)])
            out += crop(eval_on_grid(coeff, grid), new_pad) * part
        values, pad = out, new_pad
    return values, tuple(pad)


def _physics_case():
    """The boosted-wave weight times its plane wave, and the chains of box,
    the engaging operator A and Q = x^1 d_2 that the stencil oracle runs."""
    p = sc.DalembertParams(beta=0.3, n=(0.36, 0.48, 0.8), omega=1.7)
    f = sc.dalembert_weight(p) * sc.plane_wave(p)
    box, A = sc.wave_operator(), sc.dalembert_engaging_operator(p)
    Q = LinDiffOp([((0, 0, 1, 0), ExpPoly.coordinate(1))])  # x^1 d_2
    singles = [(box,), (A,), (Q,)]
    pairs = [(box, Q), (Q, box), (A, Q)]
    triples = [(box, box, Q), (box, Q, box), (Q, box, box)]
    return f, singles, pairs, triples


@pytest.mark.parametrize("extent", [9, 13])
def test_fd_chain_equals_full_grid_reference_on_physics_operators(extent):
    # constant and one-term coefficients: the interior route is bit-identical
    f, singles, pairs, triples = _physics_case()
    grid = GridSpec(h=1e-2, extent=extent)
    chains = singles + pairs + (triples if extent == 13 else [])
    for ops in chains:
        values, pad = fd_chain_values(ops, f, grid)
        ref, ref_pad = _reference_chain(ops, f, grid)
        assert pad == ref_pad and np.array_equal(values, ref)


@pytest.mark.parametrize("h", [1e-6, 1e-2, 0.37, 1e3, 1e-300])
def test_fd_chain_equals_full_grid_reference_at_any_step(h):
    # the stencil multiplies by 1 / (2h) where the reference divides by 2h:
    # the values are equal at every step, from coarse grids to differences
    # of rounding noise (at 1e-300 two passes amplify it to about 2e285)
    f, singles, pairs, triples = _physics_case()
    grid = GridSpec(h=h, extent=13)
    for ops in singles if h == 1e-300 else singles + pairs + triples:
        values, pad = fd_chain_values(ops, f, grid)
        ref, ref_pad = _reference_chain(ops, f, grid)
        assert pad == ref_pad and np.array_equal(values, ref)


@pytest.mark.parametrize("action", ["error", "default", "always", "ignore"])
def test_stencil_overflow_raises_under_any_warning_filter(action):
    # at h = 1e-150 each pass multiplies by 5e149, so the rounding noise of
    # the differences overflows within the chain, where the values of f and
    # of every coefficient are finite
    f, _, _, triples = _physics_case()
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter(action)
        with pytest.raises(FloatingPointError):
            fd_chain_values(triples[0], f, GridSpec(h=1e-150, extent=13))
        # a difference written into a given buffer raises as well
        values = np.zeros((3, 1, 1, 1), dtype=complex)
        values[0], values[2] = -1.5e308, 1.5e308
        with pytest.raises(FloatingPointError), np.errstate(over="raise"):
            gridcheck._central_diff(values, 0, 1.0, np.empty((1, 1, 1, 1), dtype=complex))
    assert not seen
    # the chain that raised left its buffers holding overflowed values
    grid = GridSpec(h=1e-2, extent=13)
    values, pad = fd_chain_values(triples[0], f, grid)
    ref, ref_pad = _nested_reference(triples[0], f, grid)
    assert pad == ref_pad and np.array_equal(values, ref)


def test_zero_operator_gives_a_zero_grid_of_the_interior_shape():
    f, _, _, triples = _physics_case()
    box, _, Q = triples[0]
    grid = GridSpec(h=1e-2, extent=9)
    zero = LinDiffOp.zero()
    values, pad = fd_chain_values((zero,), f, grid)
    assert pad == (0, 0, 0, 0) and values.shape == (9,) * 4 and values.dtype == complex
    assert not np.any(values)
    values, pad = fd_chain_values((zero, box), f, grid)
    assert pad == (2, 2, 2, 2) and values.shape == (5,) * 4 and not np.any(values)
    values, pad = fd_chain_values((Q, zero), f, grid)
    assert pad == (0, 0, 1, 0) and values.shape == (9, 9, 7, 9) and not np.any(values)
    assert fd_apply_residual(zero, f, grid) == 0.0
    # between two operators the zero operator writes a reused chain buffer,
    # which the chain before left holding box box f on 5^4 points
    assert np.any(fd_chain_values((box, box, box), f, GridSpec(h=1e-2, extent=13))[0])
    values, pad = fd_chain_values((Q, zero, box), f, grid)
    assert pad == (2, 2, 3, 2) and values.shape == (5, 5, 3, 5) and not np.any(values)


def _plain_central_diff(values, axis, h):
    """_central_diff into a new array, kept as the reference."""
    upper, lower = [slice(None)] * 4, [slice(None)] * 4
    upper[axis], lower[axis] = slice(2, None), slice(None, -2)
    diff = values[tuple(upper)] - values[tuple(lower)]
    diff *= 1.0 / (2.0 * h)
    return diff


def _nested_reference(ops, f, grid):
    """fd_chain_values by plain nesting of _plain_central_diff: every pass,
    product and sum makes a new array."""
    values, pad = eval_on_grid(f, grid), [0, 0, 0, 0]
    for op in reversed(ops):
        shrink = [max(d[a] for d, _ in op.terms) for a in range(4)]
        pad = [p + s for p, s in zip(pad, shrink)]
        axes = [x[q : grid.extent - q] for x, q in zip(grid.axes(), pad)]
        out = None
        for delta, coeff in op.terms:
            part = values[tuple(slice(s - d, n - (s - d)) for s, d, n in zip(shrink, delta, values.shape))]
            for a in range(4):
                for _ in range(delta[a]):
                    part = _plain_central_diff(part, a, grid.h)
            c = coeff.terms[0].coeff if coeff.is_constant() else gridcheck._eval_on_axes(coeff, axes)
            out = c * part if out is None else out + c * part
        values = out
    return values, tuple(pad)


def test_chain_results_are_new_arrays_equal_to_plain_nesting():
    # the buffers grow on the 13^4 chain and are reused, smaller, by the 9^4
    # one: the first result is the caller's and stays as it was
    f, _, pairs, triples = _physics_case()
    wide, narrow = GridSpec(h=1e-2, extent=13), GridSpec(h=1e-2, extent=9)
    first, first_pad = fd_chain_values(triples[1], f, wide)
    kept = first.copy()
    second, second_pad = fd_chain_values(pairs[2], f, narrow)
    assert np.array_equal(first, kept) and not np.shares_memory(first, second)
    for values, pad, ops, grid in ((first, first_pad, triples[1], wide),
                                   (second, second_pad, pairs[2], narrow)):
        ref, ref_pad = _nested_reference(ops, f, grid)
        assert pad == ref_pad and np.array_equal(values, ref)


def test_fd_apply_values_only_reads_its_input():
    # a term without derivatives reads the input through a view; its product
    # goes to the output, never into the input
    f, _, _, _ = _physics_case()
    grid = GridSpec(h=1e-2, extent=9)
    ops = [
        LinDiffOp([((0, 1, 0, 0), ExpPoly.coordinate(2)), ((0, 0, 0, 0), ExpPoly.constant(3))]),
        sc.wave_operator() + LinDiffOp.identity(),
    ]
    values = eval_on_grid(f, grid)
    kept = values.copy()
    for A in ops:
        for into in (None, 0, 1):
            out, pad = gridcheck._fd_apply_values(A, values, [0, 0, 0, 0], grid, into)
            assert np.array_equal(values, kept)
            ref, ref_pad = _nested_reference((A,), f, grid)
            assert tuple(pad) == ref_pad and np.array_equal(out, ref)


def _counting_eval(monkeypatch) -> list:
    """Count gridcheck's calls of eval_on_grid, as the benchmark's tracer does."""
    calls = []
    evaluate = gridcheck.eval_on_grid

    def counted(f, grid):
        calls.append((f, grid))
        return evaluate(f, grid)

    monkeypatch.setattr(gridcheck, "eval_on_grid", counted)
    return calls


def _counting_apply(monkeypatch) -> list:
    """Record gridcheck's stencil passes as (operator, input pad, grid)."""
    calls = []
    apply = gridcheck._fd_apply_values

    def counted(A, values, pad, grid, into=None):
        calls.append((A, tuple(pad), grid))
        return apply(A, values, pad, grid, into)

    monkeypatch.setattr(gridcheck, "_fd_apply_values", counted)
    return calls


def test_physics_triple_evaluates_f_once(monkeypatch):
    # and applies box to f once: (box, Q, box) and (Q, box, box) start from
    # the same box f
    calls = _counting_eval(monkeypatch)
    applies = _counting_apply(monkeypatch)
    f, _, _, triples = _physics_case()  # a new f, so the first chain misses
    box, Q = triples[0][0], triples[0][2]
    grid = GridSpec(h=1e-2, extent=13)
    results = [fd_chain_values(ops, f, grid) for ops in triples]
    assert calls == [(f, grid)]
    assert len(applies) == 8  # 3 + 3 + 2 passes: the third chain starts from box f
    on_f = [A for A, pad, _ in applies if pad == (0, 0, 0, 0)]
    assert len(on_f) == 2 and on_f[0] is Q and on_f[1] is box
    for (values, pad), ops in zip(results, triples):
        ref, ref_pad = _nested_reference(ops, f, grid)
        assert pad == ref_pad and np.array_equal(values, ref) and values.flags.writeable


def test_residual_then_convergence_order_apply_A_once_on_the_shared_grid(monkeypatch):
    # the finest step of convergence_order is fd_apply_residual's grid, and
    # a hit gives the bits a new pass would: the order equals that of a
    # thread with an empty cache
    p = sc.SchrodingerParams(V=0.2, v=(0.3, 0.2, -0.1))
    A = sc.schrodinger_engaging_operator(p)
    f = sc.psi11_weight(p) * sc.psi1(p)
    grid = GridSpec(h=0.01)
    fresh: list = []
    worker = threading.Thread(target=lambda: fresh.append(
        (fd_apply_residual(A, f, grid), convergence_order(A, f, grid, [0.04, 0.02, 0.01]))))
    worker.start()
    worker.join(timeout=60)
    calls = _counting_apply(monkeypatch)
    residual = fd_apply_residual(A, f, grid)
    order = convergence_order(A, f, grid, [0.04, 0.02, 0.01])
    assert [(B, pad, g.h) for B, pad, g in calls] == [(A, (0, 0, 0, 0), h) for h in (0.01, 0.04, 0.02)]
    assert fresh == [(residual, order)] and abs(order - 2.0) < 0.2


def test_cached_prefixes_are_read_only_and_never_returned():
    f, singles, pairs, _ = _physics_case()
    grid = GridSpec(h=1e-2, extent=9)
    box_f, _ = fd_chain_values(singles[0], f, grid)
    *_, f_entry, box_entry = gridcheck._scratch.prefixes
    assert f_entry.op is None and f_entry.f is f and f_entry.grid == grid
    assert box_entry.op is singles[0][0] and box_entry.f is f and box_entry.grid == grid
    assert np.array_equal(f_entry.values, eval_on_grid(f, grid))
    assert box_entry.pad == (2, 2, 2, 2) and np.array_equal(box_entry.values, box_f)
    for cached in (f_entry.values, box_entry.values):
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0, 0, 0, 0] = 1
    # no operators or one operator: a new, writable copy of the cached values
    plain, pad = fd_chain_values((), f, grid)
    assert pad == (0, 0, 0, 0) and np.array_equal(plain, f_entry.values)
    again, pad = fd_chain_values(singles[0], f, grid)
    assert pad == box_entry.pad and np.array_equal(again, box_entry.values)
    for values in (plain, box_f, again):
        assert values.flags.writeable
        assert not any(np.shares_memory(values, e.values) for e in gridcheck._scratch.prefixes)
    assert not np.shares_memory(box_f, again)
    # a caller who edits earlier results does not change a later chain
    plain[:] = 7
    box_f[:] = 7
    again[:] = 7
    for ops in (singles[0], pairs[0], pairs[1]):
        values, pad = fd_chain_values(ops, f, grid)
        ref, ref_pad = _nested_reference(ops, f, grid)
        assert pad == ref_pad and np.array_equal(values, ref)
    assert np.array_equal(fd_chain_values((), f, grid)[0], eval_on_grid(f, grid))


def test_cache_matches_operator_and_f_by_identity(monkeypatch):
    evals = _counting_eval(monkeypatch)
    applies = _counting_apply(monkeypatch)
    f, singles, _, _ = _physics_case()
    box = singles[0][0]
    twin_f, twin_box = f * ExpPoly.constant(1), LinDiffOp(box.terms)  # equal, other objects
    assert twin_f == f and twin_f is not f and twin_box == box and twin_box is not box
    grid = GridSpec(h=1e-2, extent=9)
    first = fd_chain_values((box,), f, grid)[0]
    assert fd_chain_values((box,), f, grid)[0].tobytes() == first.tobytes()
    assert (len(evals), len(applies)) == (1, 1)
    fd_chain_values((twin_box,), f, grid)  # a new operator pass on f's cached values
    assert (len(evals), len(applies)) == (1, 2) and applies[-1][0] is twin_box
    fd_chain_values((box,), twin_f, grid)  # a new f: evaluated and passed again
    assert (len(evals), len(applies)) == (2, 3) and evals[-1][0] is twin_f


def test_cache_bound_holds_under_eviction(monkeypatch):
    # every one-operator chain on a new grid fills two entries, f's and its
    # operator's; the least recently used give up their buffers
    evals = _counting_eval(monkeypatch)
    f, singles, pairs, _ = _physics_case()
    grids = [GridSpec(h=h, extent=9) for h in (1e-2, 2e-2, 3e-2, 4e-2, 5e-2)]
    bound = gridcheck._CACHED_PREFIXES
    for grid in grids:
        for ops in (singles[0], pairs[2]):
            values, pad = fd_chain_values(ops, f, grid)
            ref, ref_pad = _nested_reference(ops, f, grid)
            assert pad == ref_pad and np.array_equal(values, ref)
            cache = gridcheck._scratch.prefixes
            assert len(cache) <= bound
            assert sorted(e.slot for e in cache) == sorted({e.slot for e in cache})
            assert {e.slot for e in cache} <= set(gridcheck._CACHE_SLOTS)
    assert len(gridcheck._scratch.buffers) == 4 + bound
    # (box,) fills f's entry and box's, and (A, Q) then Q's from f's: the
    # newest three are the last grid's
    box, Q = singles[0][0], pairs[2][1]
    newest = [(e.op, e.grid) for e in gridcheck._scratch.prefixes][-3:]
    assert newest == [(box, grids[-1]), (None, grids[-1]), (Q, grids[-1])]
    assert len(evals) == len(grids)
    fd_chain_values(singles[0], f, grids[-1])  # a hit
    assert len(evals) == len(grids)
    fd_chain_values(singles[0], f, grids[0])  # evicted: evaluated again
    assert len(evals) == len(grids) + 1


def test_threads_with_different_f_on_one_grid_share_no_entry():
    # more threads than cores, switching often: each thread's cache holds
    # only its own f and its own operator, in its own buffers, and every
    # chain equals its reference
    grid = GridSpec(h=1e-2, extent=9)
    wave = sc.plane_wave(OBLIQUE)
    fs = [wave, sc.dalembert_weight(OBLIQUE) * wave, ExpPoly.coordinate(1) * wave, wave + ExpPoly.constant(1)]
    boxes = [LinDiffOp(sc.wave_operator().terms) for _ in fs]  # equal, one object per thread
    refs = [_nested_reference((box, box), f, grid) for box, f in zip(boxes, fs)]
    start = threading.Barrier(len(fs), timeout=60)
    seen: list = [None] * len(fs)

    def work(i):
        start.wait()
        ok = True
        for _ in range(20):
            values, pad = fd_chain_values((boxes[i], boxes[i]), fs[i], grid)
            ok &= pad == refs[i][1] and np.array_equal(values, refs[i][0])
        seen[i] = ok, list(gridcheck._scratch.prefixes)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(fs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i, (ok, cached) in enumerate(seen):
        assert ok and len(cached) == 2 and cached[0].op is None and cached[1].op is boxes[i]
        assert all(e.f is fs[i] for e in cached)
        for j, (_, other) in enumerate(seen):
            if j != i:
                assert not any(np.shares_memory(a.values, b.values) for a in cached for b in other)


def test_list_and_array_origins_are_the_tuple_form(monkeypatch):
    # a list origin did not hash, and an array origin did not compare
    for origin in ([0, 0, 0, 0], np.zeros(4), (0, 0, 0, 0)):
        grid = GridSpec(origin=origin, h=1e-2, extent=9)
        assert grid.origin == (0.0, 0.0, 0.0, 0.0) and all(type(o) is float for o in grid.origin)
        assert grid == GridSpec(h=1e-2, extent=9) and hash(grid) == hash(GridSpec(h=1e-2, extent=9))
    shifted = GridSpec(origin=np.array([0.5, -1, 0, 2]), h=1e-2, extent=9)
    assert shifted == GridSpec(origin=(0.5, -1.0, 0.0, 2.0), h=1e-2, extent=9) and {shifted}
    calls = _counting_eval(monkeypatch)
    f, singles, _, _ = _physics_case()
    first = fd_chain_values(singles[0], f, GridSpec(origin=[0, 0, 0, 0], h=1e-2, extent=9))[0]
    second = fd_chain_values(singles[0], f, GridSpec(origin=np.zeros(4), h=1e-2, extent=9))[0]
    assert len(calls) == 1 and np.array_equal(first, second)


def test_axes_are_built_once_and_handed_out_as_copies():
    f, singles, pairs, _ = _physics_case()
    chains = singles + pairs
    grid = GridSpec(h=1e-2, extent=9)
    before = [fd_chain_values(ops, f, grid)[0] for ops in chains]
    built = grid._axes
    assert all(not x.flags.writeable for x in built)
    for x in grid.axes():
        x[:] = 1e3  # a caller's copy: the grid's own axes are not touched
    assert np.array_equal(grid.axes()[0], GridSpec(h=1e-2, extent=9).axes()[0])
    for ops, old in zip(chains, before):
        assert np.array_equal(fd_chain_values(ops, f, grid)[0], old)
    assert np.array_equal(eval_on_grid(f, grid), eval_on_grid(f, GridSpec(h=1e-2, extent=9)))
    assert grid._axes is built
    # the cached axes are not fields: equality and hashing see only the fields
    fresh = GridSpec(h=1e-2, extent=9)
    assert grid == fresh and hash(grid) == hash(fresh)
    assert grid != GridSpec(h=1e-2, extent=11) and {grid, fresh} == {fresh}


def test_fd_chain_matches_full_grid_reference_on_random_operators():
    # coefficients of several terms with complex covectors: the contraction
    # over a smaller grid may round differently, but only at rounding level
    rng = np.random.default_rng(5)
    grid = GridSpec(h=1e-2, extent=9)

    def poly(terms):
        return ExpPoly([
            ExpTerm(
                complex(rng.normal(), rng.normal()),
                tuple(int(v) for v in rng.integers(0, 3, 4)),
                tuple(complex(a, b) for a, b in zip(rng.normal(0, 0.5, 4), rng.normal(0, 0.5, 4))),
            )
            for _ in range(terms)
        ])

    for _ in range(10):
        ops = []
        for _ in range(2):
            terms = []
            for _ in range(3):
                delta = [0, 0, 0, 0]
                for _ in range(int(rng.integers(0, 3))):
                    delta[int(rng.integers(0, 4))] += 1
                terms.append((tuple(delta), poly(3)))
            ops.append(LinDiffOp(terms))
        f = poly(3)
        values, pad = fd_chain_values(ops, f, grid)
        ref, ref_pad = _reference_chain(ops, f, grid)
        assert pad == ref_pad
        assert np.max(np.abs(values - ref)) <= 1e-13 * np.max(np.abs(ref))


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


@pytest.mark.parametrize("steps", [[1e-2] * 3, [0.04, 0.02, 0.02]])
def test_convergence_order_rejects_repeated_steps(steps):
    f = ExpPoly.exponential(1, (1j, 0, 0, 0))
    with pytest.raises(ValueError):
        convergence_order(LinDiffOp.partial(0), f, GridSpec(), steps)


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
