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
exact rational arithmetic is not an option.  The canonical form drops only
coefficients that are exactly zero; whether a rounding residue counts as
zero is for the caller's check to decide, against its own bound.

Every sum, product and derivative is gathered in one accumulator,
{kappa: {alpha: coeff}}, whose keys are exact: terms with the same key are
added as they arrive, and a product adds the covectors once per pair of
covectors, not per pair of terms.  One gate, ``_canonical``, then brings the
gathered sum into canonical form: it sorts the distinct covectors, merges
covectors of one alpha that lie within MERGE_TOL of each other, checks each
covector and each merged coefficient once for NaN and inf, drops the terms
whose coefficient is exactly zero, and emits the terms sorted by alpha, then
by covector.  A sum with one covector has nothing to merge, and the gate
only sorts its terms by alpha.  A product with one left term updates the
accumulator once per right term, without the tables that find each
covector sum once.  Results that have nothing to sort or merge (a scalar
multiple, a derivative of one term or along an axis that no covector
touches) are built in that order directly, the derivative in one pass, with
the gate's coefficient check and zero drop.
"""

from __future__ import annotations

import cmath
import math
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

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


def _kappa_close(a: CVec4, b: CVec4, reach: float) -> bool:
    """Whether every component of a - b is within reach; the real and imaginary
    parts are tested first, so abs never overflows."""
    for x, y in zip(a, b):
        d = x - y
        if not (abs(d.real) <= reach and abs(d.imag) <= reach and abs(d) <= reach):
            return False
    return True


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
        _set_terms(out, terms)
        return out

    @classmethod
    def zero(cls):
        return cls._raw(())

    def is_zero(self) -> bool:
        """Whether the sum has no terms: the gate has already dropped every
        term whose coefficient is exactly zero."""
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


# the terms slot's own setter, which __setattr__ does not reach
_set_terms = _Sum.terms.__set__


class ExpPoly(_Sum):
    """A normalized exponential polynomial (immutable).

    Invariants: no zero-coefficient terms, no non-finite coefficient or
    covector component, no two terms sharing the same alpha and a kappa
    within merge tolerance, terms sorted by alpha, then by (Re kappa0,
    Im kappa0, ..., Im kappa3).  Every instance is in the form of the one
    gate, ``_canonical``: ``ExpPoly(terms)`` gathers the terms in an
    accumulator and passes it through the gate, and products, derivatives
    and operator applications fill an accumulator directly; scalar multiples
    and derivatives that cannot merge are built in canonical order (see
    ``_kept``).  An instance is never normalized again.
    """

    __slots__ = ()

    def __init__(self, terms: Iterable[ExpTerm] = ()):
        object.__setattr__(self, "terms", _canonical(_accumulate(terms)))

    @classmethod
    def _from(cls, acc: "Accumulator") -> "ExpPoly":
        """The sum gathered in an accumulator, through the one gate."""
        return cls._raw(_canonical(acc))

    # -- construction -----------------------------------------------------

    @classmethod
    def constant(cls, c: complex) -> "ExpPoly":
        """The constant c, already canonical: the gate's coefficient check
        and zero drop are made here, without the gate."""
        return cls._raw(_kept(((complex(c), ZERO_ALPHA, ZERO_KAPPA),)))

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
        """The largest coefficient modulus; inf when a finite coefficient's
        modulus is beyond the float range."""
        try:
            return max((abs(t.coeff) for t in self.terms), default=0.0)
        except OverflowError:
            return math.inf

    def witness(self) -> ExpTerm | None:
        """The largest-coefficient term, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(self.terms, key=lambda t: _modulus(t.coeff))

    def has_exponential(self) -> bool:
        return any(k != 0 for t in self.terms for k in t.kappa)

    def is_constant(self) -> bool:
        """Whether the sum is one term with alpha = 0 and kappa = 0, so that
        every derivative of it is zero."""
        terms = self.terms
        return len(terms) == 1 and terms[0].alpha == ZERO_ALPHA and not any(terms[0].kappa)

    # -- arithmetic ---------------------------------------------------------

    def __neg__(self) -> "ExpPoly":
        return ExpPoly._raw(tuple(ExpTerm(-t.coeff, t.alpha, t.kappa) for t in self.terms))

    def __mul__(self, other):
        if isinstance(other, ExpPoly):
            acc: Accumulator = {}
            _add_products(acc, self.terms, other.terms, 1)
            return ExpPoly._from(acc)
        # a scalar multiple keeps every key and the order of the terms, so
        # only the gate's coefficient check and zero drop are left to make
        c = complex(other)
        return ExpPoly._raw(_kept((t.coeff * c, t.alpha, t.kappa) for t in self.terms))

    def derive(self, a: int) -> "ExpPoly":
        """Exact partial derivative with respect to coordinate ``a``."""
        _unit_index(a)  # rejects a outside 0..3
        terms = self.terms
        merges = False
        if len(terms) > 1:
            for t in terms:
                if t[2][a]:
                    merges = True
                    break
        if not merges:
            # one term gives (alpha - e_a, then alpha), in canonical order; with
            # no kappa_a, the lowered terms keep the input's (alpha, covector)
            # order and meet no new key, so nothing sorts or merges: each term
            # is built once, with the gate's coefficient check and zero drop
            new = tuple.__new__
            isfinite = cmath.isfinite
            out = []
            for c, alpha, kappa in terms:
                n, k = alpha[a], kappa[a]
                if n:
                    d = c * n
                    if not isfinite(d):
                        raise NonFinite(f"non-finite coefficient {d!r}")
                    if d:
                        out.append(new(ExpTerm, (d, alpha[:a] + (n - 1,) + alpha[a + 1:], kappa)))
                if k:
                    d = c * k
                    if not isfinite(d):
                        raise NonFinite(f"non-finite coefficient {d!r}")
                    if d:
                        out.append(new(ExpTerm, (d, alpha, kappa)))
            return ExpPoly._raw(tuple(out))
        acc: Accumulator = {}
        for c, alpha, kappa in terms:
            n, k = alpha[a], kappa[a]
            if n or k:
                group = acc.get(kappa)
                if group is None:
                    group = acc[kappa] = {}
                if n:
                    lowered = alpha[:a] + (n - 1,) + alpha[a + 1:]
                    group[lowered] = group.get(lowered, _START) + c * n
                if k:
                    group[alpha] = group.get(alpha, _START) + c * k
        return ExpPoly._from(acc)

    def evaluate(self, x) -> complex | np.ndarray:
        """The value at a real 4-point, or the m values at the rows of an (m, 4)
        array.  Overflow and NaN raise NonFinite under any warning filter."""
        points = np.asarray(x, dtype=float)
        if points.ndim not in (1, 2) or points.shape[-1] != 4 or not np.all(np.isfinite(points)):
            raise ValueError("evaluation points must be finite 4-vectors")
        rows = points.reshape(-1, 4)
        coeff = np.array([t.coeff for t in self.terms], dtype=complex)
        alpha = np.array([t.alpha for t in self.terms], dtype=int).reshape(-1, 4)
        kappa = np.array([t.kappa for t in self.terms], dtype=complex).reshape(-1, 4)
        try:
            with np.errstate(over="raise", invalid="raise", under="ignore"):
                # kappa . x is summed before exp, so exp overflows only where
                # exp(kappa . x) does, not where one exp(kappa_a x_a) would
                expo = rows @ kappa.T
                with np.errstate(over="ignore", invalid="ignore"):
                    monomials = np.cumprod(rows[:, None, :] ** alpha, axis=2)
                    exponentials = np.exp(expo)
                    products = monomials[:, :, 3] * exponentials
                # a power, a partial product of x^alpha or exp(kappa . x) may
                # overflow or underflow while the term is in range: an entry
                # with any factor that is not a finite normal float is taken
                # again in logs, and the others keep their bits.  A partial
                # product of degree at most 1 is 1 or one x_a, exact as it is
                exact = np.cumsum(alpha, axis=1) <= 1
                far = ~((_normal(monomials) | exact).all(axis=2) & _normal(exponentials)
                        & _normal(products))
                products[far] = _in_logs(rows, alpha, expo, far)
                values = products @ coeff
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


def _modulus(c: complex) -> float:
    """|c|, or inf where it is beyond the float range and abs would raise."""
    try:
        return abs(c)
    except OverflowError:
        return math.inf


_TINY = np.finfo(float).tiny  # the smallest normal float


def _normal(values: np.ndarray) -> np.ndarray:
    """Where the values are finite and of magnitude at least the smallest
    normal float: NaN, inf, zero and subnormals are not."""
    magnitude = np.abs(values)
    return (magnitude >= _TINY) & (magnitude < np.inf)


def _in_logs(rows: np.ndarray, alpha: np.ndarray, expo: np.ndarray, far: np.ndarray) -> np.ndarray:
    """x^alpha exp(kappa . x) at the (point, term) entries marked far, taken
    as exp(alpha . log|x| + kappa . x) with the sign of x^alpha, so that a
    term whose monomial and exponential bring each other back into range has
    its value; expo holds kappa . x per entry.  A value still beyond the float
    range overflows in exp."""
    point, term = np.nonzero(far)
    x, a = rows[point], alpha[term]
    with np.errstate(divide="ignore", invalid="ignore"):  # log 0 = -inf, and 0 * -inf
        logs = np.where(a > 0, a * np.log(np.abs(x)), 0.0).sum(axis=1)
    negative = (a % 2 * (x < 0)).sum(axis=1) % 2
    return np.where(negative, -1.0, 1.0) * np.exp(logs + expo[point, term])


def _as_kappa(kappa: Sequence[complex]) -> CVec4:
    k = tuple(complex(v) for v in kappa)
    if len(k) != 4:
        raise ValueError("kappa must have four components")
    return k  # type: ignore[return-value]


# A sum being gathered: {kappa: {alpha: coeff}}.  Each key is exact, and each
# coefficient is the sum of the terms with that key, added in input order.
Accumulator = dict
# where a coefficient sum starts: -0.0 + x is x bit for bit for every float x,
# signed zeros included, so a term's coefficient passes through unchanged
_START = complex(-0.0, -0.0)


def _accumulate(terms: Iterable[ExpTerm]) -> Accumulator:
    """The terms gathered in a new accumulator."""
    acc: Accumulator = {}
    for c, alpha, kappa in terms:
        group = acc.get(kappa)
        if group is None:
            acc[kappa] = {alpha: c}
        else:
            group[alpha] = group.get(alpha, _START) + c
    return acc


def _add_products(acc: Accumulator, left: Sequence[ExpTerm], right: Sequence[ExpTerm],
                  weight: int) -> None:
    """Add weight * s * o to acc for every term s of left and o of right, in
    the order of s, then of o.  With several left terms, the covector sum
    and its group in acc are found once per pair of covectors, not per pair
    of terms; one left term updates acc term by term, without those tables,
    which would cost it more than they save."""
    if len(left) == 1:
        (sc, (s0, s1, s2, s3), (k0, k1, k2, k3)), = left
        sc = weight * sc
        for oc, (a0, a1, a2, a3), (o0, o1, o2, o3) in right:
            group = acc.setdefault((k0 + o0, k1 + o1, k2 + o2, k3 + o3), {})
            alpha = (s0 + a0, s1 + a1, s2 + a2, s3 + a3)
            group[alpha] = group.get(alpha, _START) + sc * oc
        return
    index: dict = {}  # covector of o -> its place in groups
    others = []
    for oc, oa, ok in right:
        others.append((oc, oa, index.setdefault(ok, len(index))))
    sums: dict = {}  # covector of s -> the groups of acc, by covector of o
    for sc, (s0, s1, s2, s3), sk in left:
        sc = weight * sc
        groups = sums.get(sk)
        if groups is None:
            groups = sums[sk] = []
            for ok in index:
                groups.append(acc.setdefault(
                    (sk[0] + ok[0], sk[1] + ok[1], sk[2] + ok[2], sk[3] + ok[3]), {}))
        for oc, oa, g in others:
            group = groups[g]
            alpha = (s0 + oa[0], s1 + oa[1], s2 + oa[2], s3 + oa[3])
            group[alpha] = group.get(alpha, _START) + sc * oc


def _kappa_key(group: tuple):
    """Sort key of an accumulator group (kappa, {alpha: coeff})."""
    k = group[0]
    return (
        k[0].real, k[0].imag,
        k[1].real, k[1].imag,
        k[2].real, k[2].imag,
        k[3].real, k[3].imag,
    )


_alpha = itemgetter(0)


def _canonical(acc: Accumulator) -> tuple[ExpTerm, ...]:
    """The canonical terms of a gathered sum: merged, checked finite, zero
    terms dropped, sorted by alpha, then by covector.

    Only the distinct covectors are sorted, by (Re kappa0, Im kappa0, ...,
    Im kappa3); the terms are then sorted natively by (alpha, covector rank).
    A covector k of alpha merges into the latest earlier covector of the same
    alpha, not itself merged, whose every component is within
    MERGE_TOL * max(1, max_j |k_j|) of k's, whatever sorts between them; so a
    merged term keeps the earliest covector that its own alpha brought, and
    the result does not depend on the input order.  Each covector and each
    merged coefficient is checked once for NaN and inf, so any non-finite
    input raises NonFinite, in the same pass that drops the exact zeros.
    """
    if not acc:
        return ()
    isfinite = cmath.isfinite
    new = tuple.__new__  # ExpTerm's own __new__, without its Python frame
    out = []
    if len(acc) == 1:  # one covector: nothing to merge, only alphas to sort
        (k, group), = acc.items()
        if not (isfinite(k[0]) and isfinite(k[1]) and isfinite(k[2]) and isfinite(k[3])):
            raise NonFinite(f"non-finite covector {k!r}")
        # the alphas of a group are distinct, so the items sort by alpha alone
        for alpha, c in sorted(group.items()):
            if not isfinite(c):
                raise NonFinite(f"non-finite coefficient {c!r}")
            if c:
                out.append(new(ExpTerm, (c, alpha, k)))
        return tuple(out)
    groups = list(acc.items())
    for k, _ in groups:
        if not (isfinite(k[0]) and isfinite(k[1]) and isfinite(k[2]) and isfinite(k[3])):
            raise NonFinite(f"non-finite covector {k!r}")
    groups.sort(key=_kappa_key)
    rows = []  # (alpha, covector rank, coeff, kappa), in rank order
    for r, (k, group) in enumerate(groups):
        for alpha, c in group.items():
            rows.append((alpha, r, c, k))
    rows.sort(key=_alpha)  # stable: rank order within an alpha
    rows = _merge(rows, groups)
    for alpha, _, c, k in rows:
        if not isfinite(c):
            raise NonFinite(f"non-finite coefficient {c!r}")
        if c:
            out.append(new(ExpTerm, (c, alpha, k)))
    return tuple(out)


def _kept(rows: Iterable[tuple]) -> tuple[ExpTerm, ...]:
    """The (coeff, alpha, kappa) rows, already in canonical order with finite
    covectors, as the gate emits them: each coefficient checked for NaN and
    inf, and the exactly zero ones dropped."""
    new = tuple.__new__
    isfinite = cmath.isfinite
    out = []
    for row in rows:
        if not isfinite(row[0]):
            raise NonFinite(f"non-finite coefficient {row[0]!r}")
        if row[0]:
            out.append(new(ExpTerm, row))
    return tuple(out)


def _merge(rows: list, groups: list) -> list:
    """The (alpha, rank, coeff, kappa) rows, sorted by alpha and in rank order
    within an alpha, with each row added into the latest earlier row of its
    alpha, itself not merged, whose covector is within reach of the row's
    (see _within_reach).  Only a row whose alpha brought an earlier covector
    can merge."""
    later = [j for j in range(1, len(rows)) if rows[j][0] == rows[j - 1][0]]
    if not later:
        return rows
    near: list = [None] * len(groups)  # rank -> _within_reach, once needed
    sums = {}  # row index -> coefficient with the rows merged into it
    gone = set()  # rows merged into an earlier row
    for j in later:
        alpha, r, c, _ = rows[j]
        targets = near[r]
        if targets is None:
            targets = near[r] = _within_reach(groups, r)
        i = j - 1
        while targets and i >= 0 and rows[i][0] == alpha:
            if i not in gone and rows[i][1] in targets:
                sums[i] = sums.get(i, rows[i][2]) + c
                gone.add(j)
                break
            i -= 1
    if not gone:
        return rows
    return [(a, r, sums.get(i, c), k) for i, (a, r, c, k) in enumerate(rows) if i not in gone]


def _within_reach(groups: list, r: int) -> set[int]:
    """The ranks q < r whose covector is within MERGE_TOL * max(1, max_j |k_j|)
    of k = groups[r][0] in every component.  Re kappa0 grows with the rank,
    so the scan stops at the first Re kappa0 below that reach.  A component
    with finite parts whose modulus is beyond the float range scales before
    its modulus is taken."""
    k = groups[r][0]
    try:
        reach = MERGE_TOL * max(1.0, abs(k[0]), abs(k[1]), abs(k[2]), abs(k[3]))
    except OverflowError:
        reach = max(abs(MERGE_TOL * v) for v in k)
    lowest = k[0].real - reach
    near = set()
    for q in range(r - 1, -1, -1):
        kq = groups[q][0]
        if kq[0].real < lowest:
            break
        if _kappa_close(kq, k, reach):
            near.add(q)
    return near
