"""Finite-difference cross-validation of symbolic operator identities.

This is the independent numerical route: evaluate a function on a small dense
4D grid, apply an operator by second-order central differences (mixed and
higher partials by nested application of the first-derivative stencil), and
compare against the exact symbolic application.  Agreement at O(h^2) is the
oracle for every symbolic zero claimed by the scenario suites.

The difference, product and sum passes allocate no grid-sized temporary; a
coefficient that is not constant is still evaluated per call.  Each thread
has flat complex buffers (a threading.local), each grown to the largest size
asked for and reused across terms, operators and calls: a chain's
intermediate operator outputs alternate between two of them, and a term's
nested differences between two more; its product is formed in place.  A
stencil apply only reads its input.

A chain starts from the longest prefix the same thread has cached: f's grid
values, or its innermost operator applied to f, for the same f and operator
(the same objects) on an equal grid.  The cache holds the last six such
prefixes, read-only, each in a buffer of its own that a new entry takes over
from the least recently used; at worst that is six times 16 n^4 bytes per
thread for the largest n^4 grid evaluated (2.7 MB at 13^4).  It never hands
an entry out: eval_on_grid and every chain return a new array, so a caller
may keep or edit several results at once.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .expcore import _TINY, ExpPoly, ExpTerm
from .opalg import LinDiffOp


class StencilOverrun(ValueError):
    """The derivative stencil does not fit inside the grid extent."""


class DegenerateResiduals(RuntimeError):
    """Residuals sit at the rounding floor; no convergence order is measurable."""

    def __init__(self, message: str, residuals: tuple[float, ...]):
        super().__init__(message)
        self.residuals = residuals


@dataclass(frozen=True)
class GridSpec:
    """A centered uniform grid: ``extent`` points per axis, spacing ``h``.

    The axes are built once per instance and kept read-only; ``axes()``
    hands out copies, so a caller cannot change them.
    """

    origin: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    h: float = 1e-2
    extent: int = 9

    def __post_init__(self) -> None:
        origin = np.asarray(self.origin, dtype=float)
        if origin.shape != (4,) or not np.all(np.isfinite(origin)):
            raise ValueError("grid origin must be four finite numbers")
        # a list or an array origin is stored as the tuple of four floats
        # it equals, so the grid hashes and compares by value
        object.__setattr__(self, "origin", tuple(float(o) for o in origin))
        if not 0 < self.h < math.inf:
            raise ValueError("grid step must be finite and positive")
        if not isinstance(self.extent, (int, np.integer)) or self.extent < 5 or self.extent % 2 == 0:
            raise ValueError("extent must be an odd integer, at least 5")

    def axes(self) -> list[np.ndarray]:
        return [x.copy() for x in self._axes]

    @cached_property
    def _axes(self) -> tuple[np.ndarray, ...]:
        """The four axes, computed on first use; instance state outside the
        fields, so equality and hashing do not see it."""
        half = (self.extent - 1) / 2.0
        axes = tuple(o + self.h * (np.arange(self.extent) - half) for o in self.origin)
        for x in axes:
            x.flags.writeable = False
        return axes


def eval_on_grid(f: ExpPoly, grid: GridSpec) -> np.ndarray:
    """Values of f on the full 4D grid, indexed [i0, i1, i2, i3]: the kernel
    _eval_on_axes on all of the grid's axes."""
    return _eval_on_axes(f, grid._axes)


def _eval_on_axes(f: ExpPoly, axes: Sequence[np.ndarray]) -> np.ndarray:
    """Values of f on the tensor grid of four axes of any lengths.

    Each term c x^alpha exp(kappa . x) factors by axis, so with the axis
    factors F_a[t, i] = x_ai^alpha_ta exp(kappa_ta x_ai) the grid is one
    matrix product, (c F_0 (x) F_1)^T @ (F_2 (x) F_3), over the terms t.
    Overflow and NaN raise FloatingPointError whatever the warning filters,
    also where a factor overflows and the product would not.  When a factor
    underflows, the terms with a factor below the smallest normal float at a
    point other than x_a = 0 (where a factor is exactly 1 or 0) are left out
    of the product and evaluated by ExpPoly.evaluate, which takes them in
    logs; every other term keeps its bits.  A single term whose factors stay
    in the normal float range is the outer product _eval_term_on_axes.
    """
    if len(f.terms) == 1:
        out = _eval_term_on_axes(f.terms[0], axes)
        if out is not None:
            return out
    n = [len(x) for x in axes]
    coeff = np.array([t.coeff for t in f.terms], dtype=complex)
    alpha = np.array([t.alpha for t in f.terms], dtype=int).reshape(-1, 4)
    kappa = np.array([t.kappa for t in f.terms], dtype=complex).reshape(-1, 4)

    def factors() -> list[np.ndarray]:
        return [x ** alpha[:, a, None] * np.exp(kappa[:, a, None] * x) for a, x in enumerate(axes)]

    rest = None  # the terms taken in logs
    with np.errstate(over="raise", invalid="raise", under="ignore"):
        try:
            with np.errstate(under="raise"):
                F = factors()
        except FloatingPointError:
            F = factors()  # an overflow raises again here
            far = np.zeros(len(coeff), dtype=bool)
            for x, Fa in zip(axes, F):
                far |= ((np.abs(Fa) < _TINY) & (x != 0)).any(axis=1)
            rest = ExpPoly._raw(tuple(t for t, is_far in zip(f.terms, far) if is_far))
            coeff, F = coeff[~far], [Fa[~far] for Fa in F]
        F0, F1, F2, F3 = F
        left = (coeff[:, None, None] * F0[:, :, None] * F1[:, None, :]).reshape(-1, n[0] * n[1])
        right = (F2[:, :, None] * F3[:, None, :]).reshape(-1, n[2] * n[3])
        out = (left.T @ right).reshape(n)
    if rest is not None:
        points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)
        out += rest.evaluate(points).reshape(n)
    if not np.isfinite(out.view(float)).all():  # the real and imaginary parts
        raise FloatingPointError("grid evaluation overflowed")
    return out


def _eval_term_on_axes(term: ExpTerm, axes: Sequence[np.ndarray]) -> np.ndarray | None:
    """One term c x^alpha exp(kappa . x) on the tensor grid of four axes, as
    the outer product (c F_0 (x) F_1) (x) (F_2 (x) F_3) of its axis factors
    F_a[i] = x_ai^alpha_a exp(kappa_a x_ai), built from the term's scalars.

    Returns None, for _eval_on_axes's general route, when a factor leaves the
    normal float range (that route takes an underflowing factor in logs and
    raises on an overflowing one).  The gate admits only finite coefficients,
    and an overflow or NaN in a product of finite factors raises
    FloatingPointError whatever the warning filters, so the result needs no
    finiteness scan.
    """
    try:
        with np.errstate(over="raise", under="raise", invalid="raise"):
            F0, F1, F2, F3 = (x ** a * np.exp(k * x) for x, a, k in zip(axes, term.alpha, term.kappa))
    except FloatingPointError:
        return None
    with np.errstate(over="raise", invalid="raise", under="ignore"):
        return np.multiply.outer(np.multiply.outer(term.coeff * F0, F1), np.multiply.outer(F2, F3))


def _interior_axes(grid: GridSpec, pad: Sequence[int]) -> list[np.ndarray]:
    """The grid's axes without pad[a] points at each end of axis a."""
    return [x[q : grid.extent - q] for x, q in zip(grid._axes, pad)]


# per thread: flat complex buffers that the stencil passes write into (0 and
# 1 take a chain's intermediate operator outputs, 2 and 3 a term's nested
# differences, and each prefix entry owns one of the _CACHED_PREFIXES more),
# and the prefix entries, the most recently used last.  Six keeps the entry
# of fd_apply_residual's operator through the four that a three-step
# convergence_order fills (f and the operator on two grids) before its
# finest step takes it again, with one to spare.
_scratch = threading.local()
_CACHED_PREFIXES = 6
_CACHE_SLOTS = range(4, 4 + _CACHED_PREFIXES)


class _Prefix(NamedTuple):
    """A cached chain prefix: op applied to f on grid (f itself when op is
    None), as read-only values with their pad, held in buffer ``slot``."""

    op: LinDiffOp | None
    f: ExpPoly
    grid: GridSpec
    slot: int
    values: np.ndarray
    pad: tuple[int, ...]


def _prefix(op: LinDiffOp | None, f: ExpPoly, grid: GridSpec) -> _Prefix:
    """This thread's entry for op applied to f on grid, computed on a miss.

    An entry matches op and f by identity, as the chains of one identity pass
    them, and the grid by its fields.  It holds op and f, so their ids cannot
    be reused while it lives.  A miss on an operator starts from the entry of
    f, filling it too on a miss, and writes into the buffer of the least
    recently used entry once all are taken.
    """
    cache = getattr(_scratch, "prefixes", None)
    if cache is None:
        cache = _scratch.prefixes = []
    for i, entry in enumerate(cache):
        if entry.op is op and entry.f is f and entry.grid == grid:
            cache.append(cache.pop(i))  # the newest entry is last
            return entry
    base = None if op is None else _prefix(None, f, grid)
    if len(cache) == _CACHED_PREFIXES:
        del cache[0]  # base is the newest entry, so it stays
    slot = min(set(_CACHE_SLOTS).difference(entry.slot for entry in cache))
    if base is None:
        grid_values = eval_on_grid(f, grid)
        values, pad = _buffer(slot, grid_values.shape), [0, 0, 0, 0]
        values[...] = grid_values
    else:
        values, pad = _fd_apply_values(op, base.values, base.pad, grid, slot)
    values.flags.writeable = False  # a view: its buffer stays writable
    entry = _Prefix(op, f, grid, slot, values, tuple(pad))
    cache.append(entry)
    return entry


def _buffer(slot: int, shape: Sequence[int]) -> np.ndarray:
    """A view of the given shape on this thread's buffer ``slot``, which
    grows to the largest size asked for; its values are left over from
    earlier passes."""
    buffers = getattr(_scratch, "buffers", None)
    if buffers is None:
        buffers = _scratch.buffers = [np.empty(0, dtype=complex) for _ in range(_CACHE_SLOTS.stop)]
    size = math.prod(shape)
    if buffers[slot].size < size:
        buffers[slot] = np.empty(size, dtype=complex)
    return buffers[slot][:size].reshape(shape)


def _central_diff(values: np.ndarray, axis: int, h: float, out: np.ndarray) -> np.ndarray:
    """Second-order central first derivative into out, whose shape is that
    of values less one point at each end of the axis; returns out.

    The difference is multiplied by 1 / (2h) in place: numpy divides a
    complex number by the real c as (a + b*0) * (1/c), so this gives the
    quotient's values (up to the sign of a zero) without complex division.
    """
    upper = [slice(None)] * 4
    lower = [slice(None)] * 4
    upper[axis] = slice(2, None)
    lower[axis] = slice(None, -2)
    np.subtract(values[tuple(upper)], values[tuple(lower)], out=out)
    out *= 1.0 / (2.0 * h)
    return out


def _crop(values: np.ndarray, pad: Sequence[int]) -> np.ndarray:
    sl = tuple(slice(p, values.shape[i] - p) if p else slice(None) for i, p in enumerate(pad))
    return values[sl]


def _operator_shrink(A: LinDiffOp) -> list[int]:
    shrink = [0, 0, 0, 0]
    for delta, _ in A.terms:
        for a in range(4):
            shrink[a] = max(shrink[a], delta[a])
    return shrink


def _fd_apply_values(
    A: LinDiffOp, values: np.ndarray, pad: Sequence[int], grid: GridSpec, into: int | None = None
) -> tuple[np.ndarray, list[int]]:
    """Stencil-apply A to grid values that already sit pad points inside the
    full grid; returns the new values and their pad.  The values are written
    into this thread's buffer ``into`` (0 or 1 for a chain's intermediate
    outputs, a prefix entry's slot), or into a new array when it is None;
    ``values`` is only read.  Overflow and NaN raise FloatingPointError
    whatever the warning filters."""
    shrink = _operator_shrink(A)
    new_pad = [p + s for p, s in zip(pad, shrink)]
    if any(grid.extent - 2 * q < 1 for q in new_pad):
        raise StencilOverrun(
            f"stencil needs {max(new_pad)} points per side; extent {grid.extent} too small"
        )
    axes = _interior_axes(grid, new_pad)
    shape = tuple(len(x) for x in axes)
    out = np.empty(shape, dtype=complex) if into is None else _buffer(into, shape)
    if not A.terms:  # the zero operator; a reused buffer holds an older result
        out.fill(0)
    with np.errstate(over="raise", invalid="raise"):
        for i, (delta, coeff) in enumerate(A.terms):
            # keep only the delta_a points per side that the stencil consumes
            part = _crop(values, [s - d for s, d in zip(shrink, delta)])
            slot = 2
            for a in range(4):
                for _ in range(delta[a]):
                    narrow = list(part.shape)
                    narrow[a] -= 2
                    part = _central_diff(part, a, grid.h, _buffer(slot, narrow))
                    slot = 5 - slot  # 2 and 3 alternate
            # a constant is its own value at every point
            c = coeff.terms[0].coeff if coeff.is_constant() else _eval_on_axes(coeff, axes)
            # the terms are sorted by delta: only the first can be without
            # derivatives, and so a view of values, which is only read
            if i == 0:  # the sum starts from the first term's product
                np.multiply(c, part, out=out)
            else:
                np.multiply(c, part, out=part)
                out += part
    return out, new_pad


def fd_apply_residual(A: LinDiffOp, f: ExpPoly, grid: GridSpec) -> float:
    """Max interior-point gap between the stencil route and the exact route.

    Every derivative is built by nesting the central first-derivative stencil,
    so a term d^delta consumes delta_a points per side along axis a; all terms
    are compared on the common interior.
    """
    return _fd_residual(A, f, A.apply(f), grid)


def _fd_residual(A: LinDiffOp, f: ExpPoly, exact: ExpPoly, grid: GridSpec) -> float:
    """fd_apply_residual with the exact route A.apply(f) already computed."""
    if A.order > 4:
        raise StencilOverrun("operators above order 4 are not supported")
    total, pad = fd_chain_values((A,), f, grid)
    return float(np.max(np.abs(total - _eval_on_axes(exact, _interior_axes(grid, pad)))))


def fd_chain_values(
    ops: Sequence[LinDiffOp], f: ExpPoly, grid: GridSpec
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Nested stencil application ops[0](ops[1](...ops[-1](f))) on the grid.

    Purely finite-difference: no symbolic derivative enters, so sums of
    chains can cross-check operator identities (nested commutators) without
    touching the exact algebra.  Returns the interior values, a new array,
    and their pad.
    """
    entry = _prefix(ops[-1] if ops else None, f, grid)
    values, pad, rest = entry.values, entry.pad, ops[:-1]
    if not rest:  # the cached values are never handed out
        return values.copy(), pad
    for i, op in enumerate(reversed(rest)):
        # the outputs alternate between the two chain buffers; the last is new
        values, pad = _fd_apply_values(op, values, pad, grid, None if i == len(rest) - 1 else i % 2)
    return values, tuple(pad)


def convergence_order(
    A: LinDiffOp, f: ExpPoly, grid: GridSpec, steps: Sequence[float]
) -> float:
    """Least-squares slope of log(residual) against log(h).

    Expect about 2 for smooth inputs.  When the residuals sit at rounding
    level there is nothing to fit and DegenerateResiduals is raised with the
    measured values attached.
    """
    if len(steps) < 3:
        raise ValueError("need at least three step sizes")
    if len(set(steps)) < len(steps):  # GridSpec rejects a step that is not positive
        raise ValueError("step sizes must be pairwise distinct")
    exact = A.apply(f)
    residuals = [
        _fd_residual(A, f, exact, GridSpec(origin=grid.origin, h=float(h), extent=grid.extent))
        for h in steps
    ]
    scale = max(1.0, float(np.max(np.abs(eval_on_grid(exact, grid)))))
    floor = 1e-12 * scale
    if min(residuals) <= floor:
        raise DegenerateResiduals(
            f"residuals {residuals} at rounding floor {floor:.1e}", tuple(residuals)
        )
    slope, _ = np.polyfit(np.log(np.asarray(steps, float)), np.log(residuals), 1)
    return float(slope)
