"""Exact-structure arithmetic for exponential-polynomial functions on R^4.

Everything downstream (operators, symmetry residuals, weight functions) lives
in the class of finite sums

    f(x) = sum_k  c_k * x^alpha_k * exp(kappa_k . x),      x in R^4,

with complex coefficients c_k, monomial multi-indices alpha_k in N^4 and
complex covectors kappa_k.  The class is closed under addition,
multiplication and partial differentiation, so differential identities can be
checked coefficient-wise instead of numerically.

Coefficients and covectors are floating complex numbers: the frame parameters
feeding the scenarios (square roots of quadratic forms) are irrational, so
exact rational arithmetic is not an option.  All zero tests are therefore
tolerance-based, with the dropping threshold taken relative to the largest
coefficient present.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

Index4 = tuple[int, int, int, int]
CVec4 = tuple[complex, complex, complex, complex]

ZERO_ALPHA: Index4 = (0, 0, 0, 0)
ZERO_KAPPA: CVec4 = (0j, 0j, 0j, 0j)

_UNIT: tuple[Index4, ...] = (
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
)


class NonFinite(FloatingPointError):
    """A coefficient, exponent or value overflowed or turned into NaN."""


# drop a term whose coefficient is below ZERO_TOL * (largest coefficient)
ZERO_TOL = 1e-10
# two covectors are one exponential when every component differs by at most
# MERGE_TOL * max(1, largest component magnitude of the later covector)
MERGE_TOL = 1e-12


class ExpTerm(NamedTuple):
    """One summand  coeff * x^alpha * exp(kappa . x)."""

    coeff: complex
    alpha: Index4 = ZERO_ALPHA
    kappa: CVec4 = ZERO_KAPPA


def _unit_index(a: int) -> Index4:
    """The multi-index of coordinate ``a``; ``a`` must be 0, 1, 2 or 3."""
    if a not in (0, 1, 2, 3):
        raise ValueError(f"coordinate index must be 0, 1, 2 or 3, not {a!r}")
    return _UNIT[a]


def _term_sort_key(term: ExpTerm):
    k = term.kappa
    return (
        term.alpha,
        k[0].real, k[0].imag,
        k[1].real, k[1].imag,
        k[2].real, k[2].imag,
        k[3].real, k[3].imag,
    )


def _kappa_close(a: CVec4, b: CVec4, reach: float) -> bool:
    return (
        abs(a[0] - b[0]) <= reach
        and abs(a[1] - b[1]) <= reach
        and abs(a[2] - b[2]) <= reach
        and abs(a[3] - b[3]) <= reach
    )


class _Sum:
    """An immutable sum held as a canonical ``terms`` tuple.

    The base of ExpPoly and LinDiffOp: each subclass's constructor is the
    gate that brings terms into canonical form, and supplies ``max_coeff``,
    ``__neg__`` and ``__mul__``; equality, hashing, zero tests and the
    derived arithmetic below are the same for both.
    """

    __slots__ = ("terms",)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _raw(cls, terms: tuple):
        """Wrap terms already in canonical form, bypassing the gate."""
        out = cls.__new__(cls)
        object.__setattr__(out, "terms", terms)
        return out

    @classmethod
    def zero(cls):
        return cls._raw(())

    def is_zero(self) -> bool:
        """Whether the sum has no terms: the gate has already dropped every
        term below ZERO_TOL times the largest coefficient."""
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return type(self)(self.terms + other.terms)

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)


class ExpPoly(_Sum):
    """A normalized exponential polynomial (immutable).

    Invariants: no zero-coefficient terms, no non-finite coefficient or
    covector component, no two terms sharing the same alpha and a kappa
    within merge tolerance, terms in canonical sort order.  ``ExpPoly(terms)``
    is the one gate that puts any sum of terms into that form; an instance is
    never normalized again.
    """

    __slots__ = ()

    def __init__(self, terms: Iterable[ExpTerm] = ()):
        object.__setattr__(self, "terms", _normalize_terms(terms))

    # -- construction -----------------------------------------------------

    @classmethod
    def constant(cls, c: complex) -> "ExpPoly":
        return cls([ExpTerm(complex(c))])

    @classmethod
    def coordinate(cls, a: int) -> "ExpPoly":
        return cls._raw((ExpTerm(1 + 0j, _unit_index(a)),))

    @classmethod
    def exponential(cls, coeff: complex, kappa: Sequence[complex]) -> "ExpPoly":
        return cls([ExpTerm(complex(coeff), ZERO_ALPHA, _as_kappa(kappa))])

    @classmethod
    def linear_form(cls, coeffs: Sequence[complex], const: complex = 0) -> "ExpPoly":
        """The affine function  coeffs[0]*x0 + ... + coeffs[3]*x3 + const."""
        terms = [ExpTerm(complex(c), _UNIT[a]) for a, c in enumerate(coeffs)]
        terms.append(ExpTerm(complex(const)))
        return cls(terms)

    # -- queries -----------------------------------------------------------

    def max_coeff(self) -> float:
        return max((abs(t.coeff) for t in self.terms), default=0.0)

    def witness(self) -> ExpTerm | None:
        """The largest-coefficient term, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(self.terms, key=lambda t: abs(t.coeff))

    def has_exponential(self) -> bool:
        return any(k != 0 for t in self.terms for k in t.kappa)

    # -- arithmetic ---------------------------------------------------------

    def __neg__(self) -> "ExpPoly":
        return ExpPoly._raw(tuple(ExpTerm(-t.coeff, t.alpha, t.kappa) for t in self.terms))

    def __mul__(self, other):
        if isinstance(other, ExpPoly):
            return ExpPoly(_products(self.terms, other.terms, 1))
        c = complex(other)
        return ExpPoly(ExpTerm(t.coeff * c, t.alpha, t.kappa) for t in self.terms)

    def derive(self, a: int) -> "ExpPoly":
        """Exact partial derivative with respect to coordinate ``a``."""
        _unit_index(a)  # rejects a outside 0..3
        out: list[ExpTerm] = []
        for t in self.terms:
            if t.alpha[a] > 0:
                lowered = list(t.alpha)
                lowered[a] -= 1
                out.append(ExpTerm(t.coeff * t.alpha[a], tuple(lowered), t.kappa))
            if t.kappa[a] != 0:
                out.append(ExpTerm(t.coeff * t.kappa[a], t.alpha, t.kappa))
        return ExpPoly(out)

    def evaluate(self, x) -> complex | np.ndarray:
        """The value at a real 4-point, or the m values at the rows of an (m, 4)
        array.  Overflow and NaN raise NonFinite under any warning filter."""
        points = np.asarray(x, dtype=float)
        if points.ndim not in (1, 2) or points.shape[-1] != 4 or not np.all(np.isfinite(points)):
            raise ValueError("evaluation points must be finite 4-vectors")
        try:
            with np.errstate(over="raise", invalid="raise", under="ignore"):
                coeff, F = _axis_factors(self.terms, points.reshape(-1, 4))
                values = coeff @ (F[0] * F[1] * F[2] * F[3])
        except FloatingPointError as exc:
            raise NonFinite("evaluation overflowed") from exc
        if not np.all(np.isfinite(values)):
            raise NonFinite("non-finite evaluation result")
        return complex(values[0]) if points.ndim == 1 else values

    def substitute_affine(self, A, b) -> "ExpPoly":
        """Compose with the affine change of variables x -> A x + b.

        A is a real 4x4 matrix (any nested sequence), b a real 4-vector.  The
        result is again an exponential polynomial: monomials expand through
        powers of affine forms, the covector maps to A^T kappa with a scalar
        factor exp(kappa . b).
        """
        rows = [[float(A[i][j]) for j in range(4)] for i in range(4)]
        shift = [float(b[i]) for i in range(4)]
        out: list[ExpTerm] = []
        for t in self.terms:
            new_kappa = tuple(
                sum(t.kappa[i] * rows[i][j] for i in range(4)) for j in range(4)
            )
            try:
                factor = t.coeff * cmath.exp(sum(k * s for k, s in zip(t.kappa, shift)))
            except OverflowError as exc:
                raise NonFinite("exp overflow during affine substitution") from exc
            piece = ExpPoly.exponential(factor, new_kappa)
            for a in range(4):
                if t.alpha[a]:
                    affine = ExpPoly.linear_form(rows[a], shift[a])
                    for _ in range(t.alpha[a]):
                        piece = piece * affine
            out.extend(piece.terms)
        return ExpPoly(out)

    # -- repr ----------------------------------------------------------------

    def __repr__(self) -> str:
        if not self.terms:
            return "ExpPoly(0)"
        bits = []
        for t in self.terms[:4]:
            mono = "".join(
                f"*x{a}^{p}" if p > 1 else f"*x{a}"
                for a, p in enumerate(t.alpha)
                if p
            )
            expo = "" if all(k == 0 for k in t.kappa) else "*exp(k.x)"
            bits.append(f"({t.coeff:.6g}){mono}{expo}")
        more = "" if len(self.terms) <= 4 else f" ... {len(self.terms)} terms"
        return "ExpPoly(" + " + ".join(bits) + more + ")"


def _products(left, right, weight) -> Iterator[ExpTerm]:
    """weight * s * o for every term s of left and o of right, unnormalized."""
    for s in left:
        sc, sa, sk = weight * s.coeff, s.alpha, s.kappa
        for o in right:
            oa, ok = o.alpha, o.kappa
            yield ExpTerm(
                sc * o.coeff,
                (sa[0] + oa[0], sa[1] + oa[1], sa[2] + oa[2], sa[3] + oa[3]),
                (sk[0] + ok[0], sk[1] + ok[1], sk[2] + ok[2], sk[3] + ok[3]),
            )


def _axis_factors(terms: Sequence[ExpTerm], coords: np.ndarray):
    """Coefficients c[t] and factors F[a, t, i] = x_ai^alpha_ta exp(kappa_ta x_ai)
    at the rows x_i of coords, so that sum_t c[t] prod_a F[a, t, i] = f(x_i).
    Callers keep it, their products and their contraction inside one
    np.errstate(over="raise", invalid="raise"): overflow raises, never warns."""
    coeff = np.array([t.coeff for t in terms], dtype=complex)
    alpha = np.array([t.alpha for t in terms], dtype=int).reshape(-1, 4).T[:, :, None]
    kappa = np.array([t.kappa for t in terms], dtype=complex).reshape(-1, 4).T[:, :, None]
    x = coords.T[:, None, :]
    return coeff, x ** alpha * np.exp(kappa * x)


def _as_kappa(kappa: Sequence[complex]) -> CVec4:
    k = tuple(complex(v) for v in kappa)
    if len(k) != 4:
        raise ValueError("kappa must have four components")
    return k  # type: ignore[return-value]


def _normalize_terms(terms: Iterable[ExpTerm]) -> tuple[ExpTerm, ...]:
    """Canonical form of a sum: sorted, merged, checked finite, zero terms
    dropped.

    A term merges into an earlier term with the same alpha whose covector is
    within MERGE_TOL * max(1, max_j |kappa_j|) of its own in every component.
    Terms arrive sorted by (alpha, Re kappa0, ...), so the candidates are the
    trailing run of merged terms with that alpha and Re kappa0 within that
    distance, even when other covectors sort between them.  A merged term
    keeps the earliest covector, so the representative does not depend on
    the input order.  An infinite covector component is close to nothing, so
    such a term is never absorbed by a finite covector.  Every merged term,
    kept or dropped, then passes one finiteness check of its coefficient and
    covector before the drop threshold is taken from the coefficients.
    """
    isfinite = cmath.isfinite
    merged: list[ExpTerm] = []
    for t in sorted(terms, key=_term_sort_key):
        alpha, k = t.alpha, t.kappa
        i = len(merged) - 1
        if i < 0 or merged[i].alpha != alpha:
            merged.append(t)
            continue
        if merged[i].kappa != k:
            reach = MERGE_TOL * max(1.0, abs(k[0]), abs(k[1]), abs(k[2]), abs(k[3]))
            lowest = k[0].real - reach
            while (reach < math.inf and i >= 0 and merged[i].alpha == alpha
                   and merged[i].kappa[0].real >= lowest):
                if _kappa_close(merged[i].kappa, k, reach):
                    break
                i -= 1
            else:  # no close covector in the window
                merged.append(t)
                continue
        m = merged[i]
        merged[i] = ExpTerm(m.coeff + t.coeff, alpha, m.kappa)

    for c, _, k in merged:
        if not (isfinite(c) and isfinite(k[0]) and isfinite(k[1]) and isfinite(k[2])
                and isfinite(k[3])):
            raise NonFinite(f"non-finite coefficient {c!r} or covector {k!r}")
    scale = max((abs(t.coeff) for t in merged), default=0.0)
    if scale == 0.0:
        return ()
    return tuple(t for t in merged if abs(t.coeff) > ZERO_TOL * scale)
