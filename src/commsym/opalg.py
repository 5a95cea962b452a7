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

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

from .expcore import ExpPoly, ExpTerm, Index4, ZERO_ALPHA, _UNIT, _Sum, _products, _unit_index


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
        return cls._raw(((ZERO_ALPHA, ExpPoly.constant(1)),))

    @classmethod
    def partial(cls, a: int, power: int = 1) -> "LinDiffOp":
        """The operator d^power / d(x^a)^power."""
        return cls([(tuple(int(power) * v for v in _unit_index(a)), ExpPoly.constant(1))])

    @classmethod
    def multiplication(cls, f: ExpPoly) -> "LinDiffOp":
        """Multiplication by the function f as a zeroth-order operator."""
        return cls(((ZERO_ALPHA, f),))

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

    def coeff(self, delta: Sequence[int]) -> ExpPoly:
        d = tuple(int(v) for v in delta)
        for dd, c in self.terms:
            if dd == d:
                return c
        return ExpPoly.zero()

    def max_coeff(self) -> float:
        return max((c.max_coeff() for _, c in self.terms), default=0.0)

    def has_constant_coefficients(self) -> bool:
        return all(
            t.alpha == ZERO_ALPHA and all(k == 0 for k in t.kappa)
            for _, c in self.terms
            for t in c.terms
        )

    def has_exponential_coefficients(self) -> bool:
        return any(c.has_exponential() for _, c in self.terms)

    # -- algebra -----------------------------------------------------------

    def __neg__(self) -> "LinDiffOp":
        return LinDiffOp._raw(tuple((d, -c) for d, c in self.terms))

    def __mul__(self, scalar) -> "LinDiffOp":
        c = complex(scalar)
        return LinDiffOp((d, coeff * c) for d, coeff in self.terms)

    def premultiply(self, f: ExpPoly) -> "LinDiffOp":
        """The operator f(x) * self (function times operator)."""
        return LinDiffOp((d, f * c) for d, c in self.terms)

    def apply(self, f: ExpPoly) -> ExpPoly:
        """Apply the operator to a function."""
        out: list[ExpTerm] = []
        for delta, coeff in self.terms:
            g = f
            for a in range(4):
                for _ in range(delta[a]):
                    g = g.derive(a)
            out.extend((coeff * g).terms)
        return ExpPoly(out)

    def compose(self, other: "LinDiffOp") -> "LinDiffOp":
        """Operator product self . other, expanded by the Leibniz rule.

        d^delta (c d^gamma) is the sum over beta <= delta of
        binom(delta, beta) (d^beta c) d^(delta - beta + gamma), binom being
        the product of the four binomial coefficients.  All products are
        collected per resulting multi-index and normalized once there
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


def _sum(polys: list[ExpPoly]) -> ExpPoly:
    """The sum of polynomials; a lone one is returned as it is (canonical)."""
    return polys[0] if len(polys) == 1 else ExpPoly([t for p in polys for t in p.terms])


def _leibniz(products: Sequence[tuple[int, LinDiffOp, LinDiffOp]], with_zero: bool) -> LinDiffOp:
    """sum of sign * a.b over (sign, a, b) in products, by the Leibniz rule.

    For each term c d^delta of a and c' d^gamma of b, a.b is the sum over
    beta <= delta of binom(delta, beta) c (d^beta c') d^(delta - beta + gamma);
    beta = 0 is left out unless with_zero.  The product terms stay
    unnormalized until the one gate at the end, one ExpPoly per multi-index.
    Each d^beta c' is derived once per product, from d^(beta - e_k) c'.
    """
    collected: dict[Index4, list[ExpTerm]] = defaultdict(list)
    for sign, a, b in products:
        derived = {(j, ZERO_ALPHA): c for j, (_, c) in enumerate(b.terms)}
        for delta, coeff in a.terms:
            # product order lists beta - e_k, k the first nonzero index of
            # beta, before beta, and beta = 0 first
            betas = itertools.product(*(range(n + 1) for n in delta))
            if not with_zero:
                next(betas)
            for beta in betas:
                weight = sign * math.prod(math.comb(n, m) for n, m in zip(delta, beta))
                for j, (gamma, c) in enumerate(b.terms):
                    if (j, beta) not in derived:
                        k = next(i for i, n in enumerate(beta) if n)
                        lower = beta[:k] + (beta[k] - 1,) + beta[k + 1:]
                        derived[(j, beta)] = derived[(j, lower)].derive(k)
                    target = tuple(n - m + g for n, m, g in zip(delta, beta, gamma))
                    collected[target].extend(_products(coeff.terms, derived[(j, beta)].terms, weight))
    return LinDiffOp((d, ExpPoly(terms)) for d, terms in collected.items())


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
    """The p-fold nested commutator [L, [L, ... [L, Q] ...]]."""
    if p < 1:
        raise ValueError("p must be a positive integer")
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
    """
    residual = A - L.premultiply(zeta)
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
        return [
            ExpPoly([t for entry, f in zip(row, fields) for t in entry.apply(f).terms])
            for row in self.rows
        ]
