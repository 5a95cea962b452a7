"""Linear differential operators with exponential-polynomial coefficients.

An operator is a finite sum  sum_delta  c_delta(x) * d^delta  with ExpPoly
coefficients and derivative multi-indices delta in N^4.  The module supplies
composition (via the Leibniz rule), commutators, iterated p-fold commutators
ad_L^p(Q) = [L,[L,...[L,Q]...]], and the residual of an operator against a
function multiple zeta(x)*L.

Operator equality is coefficient-wise zero testing of the difference; the
application of operators to random functions is kept purely as an independent
test oracle.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .expcore import (
    ZERO_ALPHA, _UNIT, Accumulator, ExpPoly, Index4, _add_products, _Sum, _unit_index,
)


class ShapeMismatch(ValueError):
    """Matrix operator applied to a field list of the wrong length."""


class LinDiffOp(_Sum):
    """A normalized linear differential operator (immutable).

    ``terms`` maps each derivative multi-index to a nonzero ExpPoly
    coefficient, stored sorted by multi-index.  Coefficients given for the
    same multi-index are summed; a lone coefficient is kept as it is.
    """

    __slots__ = ()

    def __init__(self, terms: Iterable[tuple[Sequence[int], ExpPoly]] = ()):
        raw: dict[Index4, list[ExpPoly]] = defaultdict(list)
        for delta, coeff in terms:
            d = tuple(int(v) for v in delta)
            if len(d) != 4 or any(v < 0 for v in d):
                raise ValueError("derivative multi-index must be four non-negative ints")
            raw[d].append(coeff)
        cleaned = []
        for d, coeffs in sorted(raw.items()):
            c = _sum(coeffs)
            if c.terms:
                cleaned.append((d, c))
        object.__setattr__(self, "terms", tuple(cleaned))

    # -- construction -----------------------------------------------------

    @classmethod
    def identity(cls) -> "LinDiffOp":
        return cls._raw(((ZERO_ALPHA, _ONE),))

    @classmethod
    def partial(cls, a: int, power: int = 1) -> "LinDiffOp":
        """The operator d^power / d(x^a)^power, built canonical; power 0
        gives the identity."""
        unit, n = _unit_index(a), int(power)
        if n < 0:
            raise ValueError("derivative multi-index must be four non-negative ints")
        return cls._raw(((tuple(n * v for v in unit), _ONE),))

    @classmethod
    def first_order(cls, xi: Sequence[ExpPoly], eta: ExpPoly) -> "LinDiffOp":
        """xi^a(x) d_a + eta(x), the generator ansatz shape."""
        if len(xi) != 4:
            raise ValueError("xi must supply four components")
        terms = [(_UNIT[a], xi[a]) for a in range(4)]
        terms.append((ZERO_ALPHA, eta))
        return cls(terms)

    # -- queries -----------------------------------------------------------

    @property
    def order(self) -> int:
        return max((sum(d) for d, _ in self.terms), default=0)

    def max_coeff(self) -> float:
        return max((c.max_coeff() for _, c in self.terms), default=0.0)

    def has_exponential_coefficients(self) -> bool:
        return any(c.has_exponential() for _, c in self.terms)

    # -- algebra -----------------------------------------------------------

    def __neg__(self) -> "LinDiffOp":
        return LinDiffOp._raw(tuple((d, -c) for d, c in self.terms))

    def __mul__(self, scalar) -> "LinDiffOp":
        """Each coefficient times the scalar, in the same order; the ones that
        become zero are dropped, and nothing is regrouped."""
        c = complex(scalar)
        scaled = ((d, coeff * c) for d, coeff in self.terms)
        return LinDiffOp._raw(tuple((d, p) for d, p in scaled if p.terms))

    def apply(self, f: ExpPoly) -> ExpPoly:
        """Apply the operator to a function."""
        acc: Accumulator = {}
        _apply_into(acc, self, {ZERO_ALPHA: f})
        return ExpPoly._from(acc)

    def compose(self, other: "LinDiffOp") -> "LinDiffOp":
        """Operator product self . other, expanded by the Leibniz rule.

        d^delta (c d^gamma) is the sum over beta <= delta of
        binom(delta, beta) (d^beta c) d^(delta - beta + gamma), binom being
        the product of the four binomial coefficients.  All products are
        gathered per resulting multi-index and pass the gate once there
        (see _leibniz).
        """
        return _leibniz(((1, self, other),), with_zero=True)

    # -- repr ----------------------------------------------------------------

    def __repr__(self) -> str:
        if not self.terms:
            return "LinDiffOp(0)"
        bits = []
        for d, c in self.terms[:4]:
            dd = "".join(f"d{a}^{p}" if p > 1 else f"d{a}" for a, p in enumerate(d) if p)
            bits.append(f"[{c!r}]{dd or '1'}")
        more = "" if len(self.terms) <= 4 else f" ... {len(self.terms)} terms"
        return "LinDiffOp(" + " + ".join(bits) + more + ")"


def _apply_into(acc: Accumulator, op: LinDiffOp, derived: dict[Index4, ExpPoly]) -> None:
    """Add the products coeff * (d^delta f) of op applied to f to acc.

    derived holds the derivatives of f taken so far, f itself at delta = 0
    (see _derivative).
    """
    for delta, coeff in op.terms:
        _add_products(acc, coeff.terms, _derivative(derived, delta).terms, 1)


def _derivative(derived: dict[Index4, ExpPoly], delta: Index4) -> ExpPoly:
    """d^delta f, memoized in derived; each d^delta f is derived once, from
    d^(delta - e_k) f with k the last nonzero axis of delta, so axis 0 is
    always derived first.  Once d^(delta - e_k) f is zero or a constant,
    d^delta f is zero, and nothing is derived."""
    g = derived.get(delta)
    if g is None:
        d0, d1, d2, d3 = delta
        if d3:
            k, below = 3, (d0, d1, d2, d3 - 1)
        elif d2:
            k, below = 2, (d0, d1, d2 - 1, 0)
        elif d1:
            k, below = 1, (d0, d1 - 1, 0, 0)
        else:
            k, below = 0, (d0 - 1, 0, 0, 0)
        lower = derived.get(below)
        if lower is None:
            lower = _derivative(derived, below)
        terms = lower.terms
        # zero or a constant (one term with alpha = 0 and kappa = 0)
        constant = not terms or (len(terms) == 1 and terms[0][1] == ZERO_ALPHA
                                 and not any(terms[0][2]))
        g = derived[delta] = _ZERO if constant else lower.derive(k)
    return g


# the derivative of every constant: one shared zero, so a skipped derive allocates nothing
_ZERO = ExpPoly.zero()
# the coefficient of identity and partial: one shared one
_ONE = ExpPoly.constant(1)


def _sum(polys: list[ExpPoly]) -> ExpPoly:
    """The sum of polynomials; a lone one is returned as it is (canonical)."""
    return polys[0] if len(polys) == 1 else ExpPoly([t for p in polys for t in p.terms])


@functools.lru_cache(maxsize=256)
def _betas(delta: Index4) -> tuple[tuple[Index4, int, Index4], ...]:
    """(beta, binom(delta, beta), delta - beta) for every beta <= delta,
    beta = 0 first; binom is the product of the four binomial coefficients.
    Cached per delta: operators of order up to 5 have 126 multi-indices."""
    return tuple(
        (beta, math.prod(map(math.comb, delta, beta)), tuple(n - m for n, m in zip(delta, beta)))
        for beta in itertools.product(*(range(n + 1) for n in delta))
    )


def _leibniz(products: Sequence[tuple[int, LinDiffOp, LinDiffOp]], with_zero: bool) -> LinDiffOp:
    """sum of sign * a.b over (sign, a, b) in products, by the Leibniz rule.

    For each term c d^delta of a and c' d^gamma of b, a.b is the sum over
    beta <= delta of binom(delta, beta) c (d^beta c') d^(delta - beta + gamma);
    beta = 0 is left out unless with_zero.  The product terms stay
    gathered in one accumulator per multi-index until the one gate at the end.
    Each d^beta c' is derived once per product, in the order of apply
    (see _derivative).  A zero d^beta c' adds no term, so its products are
    skipped: a constant c' takes part only at beta = 0, and a product whose
    b has only constant coefficients adds nothing at all without beta = 0
    (the b.a half of a commutator with a constant-coefficient b).  A
    multi-index that no product reaches has no accumulator.  The
    multi-indices are distinct, so the result is built sorted, without the
    regrouping of LinDiffOp's constructor.
    """
    collected: dict[Index4, Accumulator] = {}
    first = 0 if with_zero else 1  # beta = 0 comes first
    for sign, a, b in products:
        # (gamma_0, ..., gamma_3, memo of the derivatives of c) per term c d^gamma of b
        every = [(*gamma, {ZERO_ALPHA: c}) for gamma, c in b.terms]
        varying = [row for row in every if not row[4][ZERO_ALPHA].is_constant()]
        if not (varying or with_zero):
            continue
        for delta, coeff in a.terms:
            for beta, binom, (r0, r1, r2, r3) in _betas(delta)[first:]:
                weight = sign * binom
                for g0, g1, g2, g3, memo in (varying if beta != ZERO_ALPHA else every):
                    derived = memo.get(beta)
                    if derived is None:
                        derived = _derivative(memo, beta)
                    if derived.terms:
                        target = (r0 + g0, r1 + g1, r2 + g2, r3 + g3)
                        acc = collected.get(target)
                        if acc is None:
                            acc = collected[target] = {}
                        _add_products(acc, coeff.terms, derived.terms, weight)
    coeffs = ((d, ExpPoly._from(collected[d])) for d in sorted(collected))
    return LinDiffOp._raw(tuple((d, c) for d, c in coeffs if c.terms))


def commutator(a: LinDiffOp, b: LinDiffOp) -> LinDiffOp:
    """[a, b] = a.b - b.a in closed Leibniz form.

    The beta = 0 terms of a.b and b.a are the same products
    c_delta c'_gamma d^(delta + gamma) and cancel exactly, so only beta != 0
    is expanded, both ways, and the difference passes one gate; this is the
    cancellation detsolve._AdMap makes on the monomial basis.  The bracket
    of two first-order operators therefore has no second-order term at all.
    """
    return _leibniz(((1, a, b), (-1, b, a)), with_zero=False)


def ad_power(L: LinDiffOp, Q: LinDiffOp, p: int) -> LinDiffOp:
    """The p-fold nested commutator [L, [L, ... [L, Q] ...]]; p is an int or
    numpy integer (not a bool) of at least 1."""
    if isinstance(p, bool) or not isinstance(p, (int, np.integer)) or p < 1:
        raise ValueError(f"p must be a positive integer, not {p!r}")
    out = Q
    for _ in range(p):
        out = commutator(L, out)
    return out


def residual_vs_multiple(
    A: LinDiffOp, L: LinDiffOp, zeta: ExpPoly
) -> tuple[LinDiffOp, float]:
    """Residual of A against the function multiple zeta(x)*L.

    Returns (A - zeta*L, largest coefficient magnitude of the residual); the
    magnitude is the pass metric for symmetry conditions of the form
    ad_L^p(Q) = zeta L.  zeta is caller-supplied: solving for it is a linear
    problem that lives in :mod:`commsym.detsolve`.

    Only the multi-indices of L are touched, with the bits of
    ``A - LinDiffOp((d, zeta * c) for d, c in L.terms)``: where A and L both
    have a coefficient, A's terms and then those of -(zeta * c) pass one
    gate; elsewhere A's coefficient is kept as it is, or -(zeta * c) is
    taken alone, and a coefficient left without terms is dropped.
    """
    terms = dict(A.terms)
    for d, c in L.terms:
        minus = -(zeta * c)
        if minus.terms:
            a = terms.get(d)
            terms[d] = minus if a is None else ExpPoly(a.terms + minus.terms)
    residual = LinDiffOp._raw(tuple((d, c) for d, c in sorted(terms.items()) if c.terms))
    return residual, residual.max_coeff()


@dataclass(frozen=True)
class SymmetryCandidate:
    """A first-order generator Q with its multiple zeta."""

    Q: LinDiffOp
    zeta: ExpPoly

    def __post_init__(self) -> None:
        if self.Q.order > 1:
            raise ValueError("symmetry candidates must be first-order operators")


class MatrixDiffOp:
    """A rectangular grid of LinDiffOp entries acting on component lists."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[LinDiffOp]]):
        grid = tuple(tuple(entry for entry in row) for row in rows)
        if grid and any(len(r) != len(grid[0]) for r in grid):
            raise ShapeMismatch("rows must all have the same length")
        object.__setattr__(self, "rows", grid)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("MatrixDiffOp is immutable")

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def apply(self, fields: Sequence[ExpPoly]) -> list[ExpPoly]:
        n_rows, n_cols = self.shape
        if len(fields) != n_cols:
            raise ShapeMismatch(
                f"operator has {n_cols} columns but got {len(fields)} fields"
            )
        derived = [{ZERO_ALPHA: f} for f in fields]
        out = []
        for row in self.rows:
            acc: Accumulator = {}
            for entry, memo in zip(row, derived):
                _apply_into(acc, entry, memo)
            out.append(ExpPoly._from(acc))
        return out
