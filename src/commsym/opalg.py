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

from .expcore import ExpPoly, ExpTerm, Index4, ZERO_ALPHA, _UNIT, _Sum, _unit_index


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
        the product of the four binomial coefficients.  For each term of self
        the derivatives that land on one multi-index are summed into one
        polynomial before its coefficient multiplies them.  Each d^beta c is
        derived once per call, from d^(beta - e_a) c.
        """
        derived = {(j, ZERO_ALPHA): c for j, (_, c) in enumerate(other.terms)}
        collected: list[tuple[Index4, ExpPoly]] = []
        for delta, coeff in self.terms:
            peeled: dict[Index4, list[ExpPoly]] = defaultdict(list)  # d^delta . other
            # product order lists beta - e_a, a the first nonzero index of beta, before beta
            for beta in itertools.product(*(range(n + 1) for n in delta)):
                weight = math.prod(math.comb(n, b) for n, b in zip(delta, beta))
                for j, (gamma, c) in enumerate(other.terms):
                    if (j, beta) not in derived:
                        a = next(i for i, n in enumerate(beta) if n)
                        lower = beta[:a] + (beta[a] - 1,) + beta[a + 1:]
                        derived[(j, beta)] = derived[(j, lower)].derive(a)
                    dc = derived[(j, beta)]
                    if dc.terms:
                        target = tuple(n - b + g for n, b, g in zip(delta, beta, gamma))
                        peeled[target].append(dc if weight == 1 else weight * dc)
            collected.extend((d, coeff * _sum(parts)) for d, parts in peeled.items())
        return LinDiffOp(collected)

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


def commutator(a: LinDiffOp, b: LinDiffOp) -> LinDiffOp:
    """[a, b] = a.b - b.a."""
    return a.compose(b) - b.compose(a)


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
