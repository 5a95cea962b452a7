"""Finite-difference cross-validation of symbolic operator identities.

This is the independent numerical route: evaluate a function on a small dense
4D grid, apply an operator by second-order central differences (mixed and
higher partials by nested application of the first-derivative stencil), and
compare against the exact symbolic application.  Agreement at O(h^2) is the
oracle for every symbolic zero claimed by the scenario suites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expcore import ExpPoly
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
    """A centered uniform grid: ``extent`` points per axis, spacing ``h``."""

    origin: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    h: float = 1e-2
    extent: int = 9

    def __post_init__(self) -> None:
        if self.h <= 0:
            raise ValueError("grid step must be positive")
        if self.extent < 5 or self.extent % 2 == 0:
            raise ValueError("extent must be odd and at least 5")

    def axes(self) -> list[np.ndarray]:
        half = (self.extent - 1) / 2.0
        return [
            o + self.h * (np.arange(self.extent) - half) for o in self.origin
        ]


def eval_on_grid(f: ExpPoly, grid: GridSpec) -> np.ndarray:
    """Values of f on the full 4D grid, indexed [i0, i1, i2, i3].

    Each term c x^alpha exp(kappa . x) factors by axis, so with the per-axis
    factor matrices F_a[t, i] = x_ai^alpha_ta exp(kappa_ta x_ai) the grid is
    one matrix product, (c F_0 (x) F_1)^T @ (F_2 (x) F_3), over the terms t.
    Overflow and NaN raise FloatingPointError whatever the warning filters;
    underflow gives 0 silently.
    """
    n = grid.extent
    coeff = np.array([t.coeff for t in f.terms], dtype=complex)
    alpha = np.array([t.alpha for t in f.terms], dtype=int).reshape(-1, 4)
    kappa = np.array([t.kappa for t in f.terms], dtype=complex).reshape(-1, 4)
    with np.errstate(over="raise", invalid="raise", under="ignore"):
        F = [
            ax ** alpha[:, a, None] * np.exp(kappa[:, a, None] * ax)
            for a, ax in enumerate(grid.axes())
        ]
        left = (coeff[:, None, None] * F[0][:, :, None] * F[1][:, None, :]).reshape(-1, n * n)
        right = (F[2][:, :, None] * F[3][:, None, :]).reshape(-1, n * n)
        out = (left.T @ right).reshape((n,) * 4)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("grid evaluation overflowed")
    return out


def _central_diff(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Second-order central first derivative; shrinks the axis by one point
    on each side."""
    upper = [slice(None)] * 4
    lower = [slice(None)] * 4
    upper[axis] = slice(2, None)
    lower[axis] = slice(None, -2)
    return (values[tuple(upper)] - values[tuple(lower)]) / (2.0 * h)


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
    A: LinDiffOp, values: np.ndarray, pad: Sequence[int], grid: GridSpec
) -> tuple[np.ndarray, list[int]]:
    """Stencil-apply A to grid values that already sit pad points inside the
    full grid; returns the new values and their pad."""
    shrink = _operator_shrink(A)
    new_pad = [p + s for p, s in zip(pad, shrink)]
    if any(grid.extent - 2 * q < 1 for q in new_pad):
        raise StencilOverrun(
            f"stencil needs {max(new_pad)} points per side; extent {grid.extent} too small"
        )
    out = np.zeros(tuple(grid.extent - 2 * q for q in new_pad), dtype=complex)
    for delta, coeff in A.terms:
        part = values
        for a in range(4):
            for _ in range(delta[a]):
                part = _central_diff(part, a, grid.h)
        part = _crop(part, [s - d for s, d in zip(shrink, delta)])
        cvals = _crop(eval_on_grid(coeff, grid), new_pad)
        out += cvals * part
    return out, new_pad


def fd_apply_residual(A: LinDiffOp, f: ExpPoly, grid: GridSpec) -> float:
    """Max interior-point gap between the stencil route and the exact route.

    Every derivative is built by nesting the central first-derivative stencil,
    so a term d^delta consumes delta_a points per side along axis a; all terms
    are compared on the common interior.
    """
    if A.order > 4:
        raise StencilOverrun("operators above order 4 are not supported")
    total, pad = fd_chain_values((A,), f, grid)
    exact = _crop(eval_on_grid(A.apply(f), grid), pad)
    return float(np.max(np.abs(total - exact)))


def fd_chain_values(
    ops: Sequence[LinDiffOp], f: ExpPoly, grid: GridSpec
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Nested stencil application ops[0](ops[1](...ops[-1](f))) on the grid.

    Purely finite-difference: no symbolic derivative enters, so sums of
    chains can cross-check operator identities (nested commutators) without
    touching the exact algebra.  Returns the interior values and their pad.
    """
    values = eval_on_grid(f, grid)
    pad = [0, 0, 0, 0]
    for op in reversed(list(ops)):
        values, pad = _fd_apply_values(op, values, pad, grid)
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
    residuals = []
    for h in steps:
        g = GridSpec(origin=grid.origin, h=float(h), extent=grid.extent)
        residuals.append(fd_apply_residual(A, f, g))
    scale = max(1.0, float(np.max(np.abs(eval_on_grid(A.apply(f), grid)))))
    floor = 1e-12 * scale
    if min(residuals) <= floor:
        raise DegenerateResiduals(
            f"residuals {residuals} at rounding floor {floor:.1e}", tuple(residuals)
        )
    slope, _ = np.polyfit(np.log(np.asarray(steps, float)), np.log(residuals), 1)
    return float(slope)
