"""Symmetry generator search as finite linear algebra.

The symmetry condition  ad_L^p(Q) = zeta(x) L  is linear in the coefficient
functions of Q = xi^a(x) d_a + eta(x) and in zeta.  Restricting xi, eta, zeta
to polynomials of bounded degree turns the condition into a finite homogeneous
linear system ("equate the coefficients of identical derivatives"), whose null
space is computed numerically by SVD.  The module also carries the Lie-algebra
side: structure constants by least-squares closure fitting, one-parameter
flows of affine generators by matrix exponentials, and operator pullbacks
through affine coordinate maps.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .expcore import ZERO_ALPHA, ZERO_KAPPA, CVec4, ExpPoly, Index4, NonFinite, _kept, _UNIT
from .opalg import LinDiffOp, SymmetryCandidate, ad_power, commutator, residual_vs_multiple


class UnsupportedCoefficient(ValueError):
    """The operator has exponential coefficients; the polynomial ansatz does not apply."""


class UnsupportedDegree(ValueError):
    """Flow integration requires affine (degree <= 1) generator coefficients."""


class SingularMap(ValueError):
    """The affine map is not invertible."""


class NotClosed(RuntimeError):
    """Commutators leave the span of the candidate basis."""


# null cutoff: singular values at most NULL_TOL * sigma_max count as zero
NULL_TOL = 1e-8
# largest coefficient of ad_L^p(Q) - zeta L a re-verified candidate may leave
REVERIFY_TOL = 1e-8
# structure constants: rank cutoff and largest closure residual, both relative
_CLOSURE_TOL = 1e-8
# bytes that probe_sample's P, a search's one dense complex array, may take;
# a larger P is refused before it exists.  P takes at most 20.8 MiB at
# degree 5, 318.9 MiB at degree 7 and p <= 3, and 6283 MiB at degree 12
DENSE_BUDGET = 2**29


@dataclass(frozen=True)
class AnsatzSpec:
    """Bounded-degree polynomial ansatz for xi^a, eta and zeta."""

    degree: int
    p: int
    zeta_degree: int = 0

    def __post_init__(self) -> None:
        for name in ("degree", "p", "zeta_degree"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if self.degree < 0 or self.zeta_degree < 0:
            raise ValueError("polynomial degrees must be non-negative")
        if self.p < 1:
            raise ValueError("commutator order p must be >= 1")


@dataclass(frozen=True)
class DeterminingSystem:
    """Homogeneous linear system M v = 0 over the ansatz unknowns.

    Each unknown, and so each column, is a key: (delta, alpha) for the
    coefficient of the term x^alpha d^delta of Q, and (None, alpha) for the
    coefficient of the monomial x^alpha of zeta; the unknowns of one delta
    are one run of columns.  Only encode, encode_units and decode read
    this layout.

    Each row is the key (delta, alpha) of one term x^alpha d^delta of the
    residual operator, held as its int64 code in base radix, which only
    _pack, _unpack and _probe_counts lay out or read: row_codes is sorted,
    so the rows run in key order.

    The system's data are its entries (rows, cols, vals), M's nonzeros in
    row-major order, each position once, a signed zero part stored as +0.0,
    and its row codes.  No search builds the dense ``matrix`` or the tuples
    ``row_keys``; both are built on first read.
    """

    entries: tuple[np.ndarray, np.ndarray, np.ndarray]
    unknowns: tuple[tuple[Index4 | None, Index4], ...]
    row_codes: np.ndarray
    radix: int
    L: LinDiffOp
    spec: AnsatzSpec

    @functools.cached_property
    def row_keys(self) -> tuple[tuple[Index4, Index4], ...]:
        """The (derivative delta, monomial alpha) of each row."""
        delta, alpha = _unpack(self.row_codes, self.radix)
        return tuple(zip(map(tuple, delta.tolist()), map(tuple, alpha.tolist())))

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """The dense matrix M of the entries, built on first read."""
        return _fill(*self.entries, (len(self.row_codes), len(self.unknowns)))

    @functools.cached_property
    def components(self) -> list[tuple[list[int], list[int]]]:
        """The (rows, columns) of each sparsity component of the matrix
        (:func:`_components` of the entries), found once per system; the
        solver and the probe oracle both read them."""
        return _components(len(self.unknowns), *self.entries[:2])

    @functools.cached_property
    def block_stacks(self) -> list[tuple[list[int], np.ndarray, np.ndarray, np.ndarray]]:
        """The blocks of the components with rows, stacked by shape
        (:func:`_block_stacks`), filled once per system from the entries;
        the solver and the probe oracle both read them."""
        return _block_stacks(self.entries, (len(self.row_codes), len(self.unknowns)),
                             [(rows, cols) for rows, cols in self.components if rows])

    @functools.cached_property
    def _index(self) -> dict[tuple[Index4 | None, Index4], int]:
        return {key: j for j, key in enumerate(self.unknowns)}  # the column of each unknown

    @functools.cached_property
    def _layout(self) -> tuple[tuple[Index4 | None, int, int, list[int], tuple[Index4, ...]], ...]:
        """The order in which decode reads a vector: each delta in sorted
        delta order, and zeta's (delta None) last, with its run of columns
        [start, stop), the alpha order of the run and its alphas in that
        order.  The deltas of Q share one monomial list, so it is sorted
        once.  ValueError if the unknowns of a delta are not one run."""
        runs: dict[Index4 | None, tuple[int, tuple[Index4, ...]]] = {}
        start = 0
        for delta, run in itertools.groupby(self.unknowns, operator.itemgetter(0)):
            if delta in runs:
                raise ValueError(f"the unknowns of delta={delta} are not one run of columns")
            runs[delta] = start, tuple(map(operator.itemgetter(1), run))
            start += len(runs[delta][1])
        zeta = runs.pop(None, (start, ()))
        orders: dict[tuple[Index4, ...], tuple[list[int], tuple[Index4, ...]]] = {}  # per distinct alpha list
        layout = []
        for delta, (start, alphas) in (*sorted(runs.items()), (None, zeta)):
            order = orders.get(alphas)
            if order is None:
                at = sorted(range(len(alphas)), key=alphas.__getitem__)
                order = orders[alphas] = at, tuple(map(alphas.__getitem__, at))
            layout.append((delta, start, start + len(alphas), *order))
        return tuple(layout)

    def encode(self, Q: LinDiffOp, zeta: ExpPoly = ExpPoly.zero()) -> np.ndarray:
        """The coefficient vector of (Q, zeta) over the unknowns, the inverse
        of decode; ValueError names a term that no unknown holds."""
        vec = np.zeros(len(self.unknowns), dtype=complex)
        for delta, f in [*Q.terms, (None, zeta)]:
            for t in f.terms:
                vec[self._column(delta, t.alpha, t.kappa)] = t.coeff
        return vec

    def encode_units(self, keys: Iterable[tuple[Index4 | None, Index4]]) -> np.ndarray:
        """One row per (delta, alpha) key: the vector encode gives the unit
        term x^alpha d^delta (of zeta for delta None), bit for bit, written
        into one array; encode's ValueError for a key that no unknown holds."""
        cols = [self._column(delta, alpha) for delta, alpha in keys]
        units = np.zeros((len(cols), len(self.unknowns)), dtype=complex)
        units[np.arange(len(cols)), cols] = 1
        return units

    def _column(self, delta: Index4 | None, alpha: Index4, kappa: CVec4 = ZERO_KAPPA) -> int:
        """The column of the unknown that holds x^alpha exp(kappa . x) d^delta;
        ValueError names the term if no unknown holds it."""
        j = None if any(kappa) else self._index.get((delta, alpha))
        if j is None:
            where = "of zeta" if delta is None else f"of Q at delta={delta}"
            raise ValueError(f"no unknown holds the term {where}, alpha={alpha}, kappa={kappa}")
        return j

    def decode(self, vec: Sequence[complex]) -> SymmetryCandidate:
        """Turn a coefficient vector back into a symmetry candidate.

        The unknowns are distinct keys, so each coefficient is read once, in
        canonical order (``_layout``), with the gate's check for NaN and inf
        and its drop of exact zeros, and nothing is gathered or sorted."""
        if len(vec) != len(self.unknowns):
            raise ValueError(f"vector has {len(vec)} entries for {len(self.unknowns)} unknowns")
        values = np.asarray(vec, dtype=complex).tolist()
        parts = [(delta, ExpPoly._raw(_kept(zip(map(values[start:stop].__getitem__, order), alphas,
                                                itertools.repeat(ZERO_KAPPA)))))
                 for delta, start, stop, order, alphas in self._layout]
        _, zeta = parts.pop()
        return SymmetryCandidate(LinDiffOp._raw(tuple((d, c) for d, c in parts if c.terms)), zeta)


@dataclass(frozen=True)
class GeneratorBasis:
    """Null space of a determining system: its orthonormal vectors, one per
    row, the merged spectrum their count was read from, the worst residual
    of their re-verification, and the (rows, columns) shape of each sparsity
    component that has rows.  ``system.decode(vec)`` turns a vector into a
    symmetry candidate."""

    vectors: np.ndarray
    singular_values: np.ndarray
    reverify_residual: float
    components: tuple[tuple[int, int], ...]

    @property
    def dimension(self) -> int:
        return len(self.vectors)

    def dimension_at(self, tol: float) -> int:
        """The unknowns less the singular values above tol * sigma_max."""
        sigma = self.singular_values
        return self.vectors.shape[1] - int(np.count_nonzero(sigma > tol * (sigma[0] if sigma.size else 0.0)))

    def projection_residual(self, vec: Sequence[complex] | np.ndarray) -> float:
        """2-norm distance of a coefficient vector from the null span; for a
        stack of vectors, one per row, the largest distance (0.0 for none)."""
        v = np.asarray(vec, dtype=complex)
        coeffs = v @ self.vectors.T.conj()
        return float(np.linalg.norm(v - coeffs @ self.vectors, axis=-1).max(initial=0.0))


def monomials_up_to(degree: int) -> list[Index4]:
    """All 4-variable monomial exponents of total degree <= degree, graded lex."""
    return [(a, b, c, total - a - b - c)
            for total in range(degree + 1)
            for a in range(total + 1) for b in range(total - a + 1) for c in range(total - a - b + 1)]


# Sparse columns travel as entry arrays (cols, codes, vals): entry e is the
# term vals[e] x^alpha d^delta of column cols[e], with codes[e] the int64
# code of its key (delta, alpha) (:func:`_pack`).
Entries = tuple[np.ndarray, np.ndarray, np.ndarray]

_INT64_MAX = int(np.iinfo(np.int64).max)
# the derivative delta of each block of Q unknowns: xi^0 ... xi^3, then eta
_Q_DELTAS = np.array([*_UNIT, ZERO_ALPHA], dtype=np.int64)


def _radix(top: int, n_cols: int) -> int:
    """The base of the key codes of keys whose indices are at most top:
    top + 1.  OverflowError unless code * n_cols + column fits in int64 for
    every code and column."""
    radix = top + 1
    if radix**8 * n_cols > _INT64_MAX:
        raise OverflowError(f"index {top} too large for an int64 key code over {n_cols} columns")
    return radix


def _pack(delta: np.ndarray, alpha: np.ndarray, radix: int) -> np.ndarray:
    """The int64 codes of keys whose halves delta and alpha are int arrays of
    shape (..., 4) that broadcast: delta's, then alpha's indices are the
    digits in base radix, most significant first, so the codes sort as the
    key tuples do.  Only _pack, _unpack and _probe_counts know this layout.
    Packing is linear, so a shift of the digits by s adds the code of s."""
    place = radix ** np.arange(3, -1, -1, dtype=np.int64)
    return (delta @ place) * radix**4 + alpha @ place


def _unpack(codes: np.ndarray, radix: int) -> tuple[np.ndarray, np.ndarray]:
    """The halves (delta, alpha), each (n, 4), of the n codes packed in base
    radix: the inverse of _pack."""
    place = radix ** np.arange(3, -1, -1, dtype=np.int64)
    return tuple(half[:, None] // place % radix for half in np.divmod(codes, radix**4))


def _probe_counts(codes: np.ndarray, radix: int) -> tuple[int, int]:
    """The probes and points of the oracle's sample over rows with these codes: the
    numbers of distinct delta (the high four digits) and alpha (the low four)."""
    deltas, alphas = np.divmod(codes, radix**4)
    return len(np.unique(deltas)), len(np.unique(alphas))


def _term_arrays(op: LinDiffOp) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The halves delta, alpha ((n, 4) each) and coefficients c of op's n terms c x^alpha d^delta."""
    terms = [(delta, t) for delta, coeff in op.terms for t in coeff.terms]
    delta = np.array([d for d, _ in terms], dtype=np.int64).reshape(-1, 4)
    alpha = np.array([t.alpha for _, t in terms], dtype=np.int64).reshape(-1, 4)
    return delta, alpha, np.array([t.coeff for _, t in terms], dtype=complex)


class _AdMap:
    """ad_L = [L, .] as a linear map on entry arrays over the basis x^alpha d^delta.

    For a term c x^a d^gamma of L the Leibniz rule gives

        [c x^a d^gamma, x^alpha d^delta]
            = sum_beta binom(gamma, beta) c x^a (d^beta x^alpha) d^(gamma - beta + delta)
            - sum_beta binom(delta, beta) c x^alpha (d^beta x^a) d^(delta - beta + gamma),

    where the beta = 0 terms of the two sums cancel.  Both sums send the key
    (delta, alpha) to (delta, alpha) + (gamma - beta, a - beta), with the
    integer weight

        binom(gamma, beta) alpha!/(alpha - beta)! - binom(a, beta) delta!/(delta - beta)!

    (the second sum's binom(delta, beta) a!/(a - beta)!, regrouped), each
    factor zero unless beta lies below its multi-index.  The map holds one
    pass per (term of L, nonzero beta <= max(gamma, a)); a call weighs every
    entry in every pass at once (:meth:`weights`), both halves from one
    table of falling factorials, and reads and shifts codes only through
    _unpack and _pack.  A pass never lowers an index and raises it by at
    most max(gamma, a); the codes are in one base radix, so every index of
    every key the map is given or makes must lie below radix.
    """

    def __init__(self, L: LinDiffOp, radix: int):
        gamma, a, coeff = _term_arrays(L)
        passes = [(term, beta) for term, top in enumerate(np.maximum(gamma, a).tolist())
                  for beta in itertools.product(*(range(n + 1) for n in top)) if any(beta)]
        term, beta = [t for t, _ in passes], [b for _, b in passes]
        self.radix = radix
        self.beta = np.array(beta, dtype=np.int64).reshape(-1, 4)
        gamma, a, self.coeff = gamma[term], a[term], coeff[term]
        # binom(gamma, beta), binom(a, beta) and n!/(n - b)!: math.comb and math.perm give 0 past the top
        self.on_alpha = np.array([math.prod(map(math.comb, g, b)) for g, b in zip(gamma.tolist(), beta)], dtype=float)
        self.on_delta = np.array([math.prod(map(math.comb, e, b)) for e, b in zip(a.tolist(), beta)], dtype=float)
        self.shift_code = _pack(gamma - self.beta, a - self.beta, radix)
        self.reach = int(self.beta.max(initial=0)) + 1
        self.falling = np.array([[math.perm(n, b) for b in range(self.reach)] for n in range(radix)], dtype=float)

    def __call__(self, entries: Entries, n_cols: int) -> Entries:
        """The image of every entry, summed per (column, key) in input order
        (each entry in order, its passes in map order), exact zeros dropped,
        sorted by key and then column: one ``np.unique`` over the pair codes
        code * n_cols + column."""
        cols, codes, vals = entries
        weight = self.weights(*_unpack(codes, self.radix))
        e, t = np.nonzero(weight)
        pairs, group = np.unique((codes[e] + self.shift_code[t]) * n_cols + cols[e], return_inverse=True)
        terms = vals[e] * (self.coeff[t] * weight[e, t])
        sums = np.zeros(len(pairs), dtype=complex)
        sums.real = np.bincount(group, terms.real, len(pairs))
        sums.imag = np.bincount(group, terms.imag, len(pairs))
        keep = sums != 0
        codes, cols = np.divmod(pairs[keep], n_cols)
        return cols, codes, sums[keep]

    def weights(self, delta: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        """weight[e, t]: the weight of pass t on the key (delta[e], alpha[e]),
        in floats: exact up to 2**53, and rounded, not wrapped around, beyond."""
        # f[i, e, t] and d[i, e, t]: the axis-i factors alpha_i!/(alpha_i - beta_i)!
        # and delta_i!/(delta_i - beta_i)! of pass t on key e, from the raveled table
        f = np.take(self.falling, alpha.T[:, :, None] * self.reach + self.beta.T[:, None, :])
        d = np.take(self.falling, delta.T[:, :, None] * self.reach + self.beta.T[:, None, :])
        return self.on_alpha * (f[0] * f[1] * f[2] * f[3]) - self.on_delta * (d[0] * d[1] * d[2] * d[3])


def build_determining_system(L: LinDiffOp, spec: AnsatzSpec) -> DeterminingSystem:
    """Assemble the linear system for  ad_L^p(Q) - zeta L = 0.

    The unknowns are the keys (e_a, alpha) of xi^a, then (0, alpha) of eta,
    for |alpha| <= spec.degree, then (None, alpha) of zeta, for
    |alpha| <= spec.zeta_degree.  Each row equates the coefficient of one
    (monomial x derivative) pair in the residual operator to zero; the rows
    are the keys that occur, in tuple order.  The columns of all Q keys
    (delta, alpha) start as the unit terms x^alpha d^delta and are pushed
    together p times through the array map ad_L (:class:`_AdMap`); the
    column of a key (None, alpha) is -x^alpha L.  The keys travel as int64
    codes (:func:`_pack`) in one radix, bounded from the ansatz and L: no
    index exceeds max(1, degree, zeta_degree) plus p times L's largest.  So
    each merge is one ``np.unique`` and the row-major order one sort, over
    1-D arrays of codes, and the rows stay codes.  The build's one size
    bound is _radix's OverflowError, raised before the ansatz is enumerated.
    """
    if L.has_exponential_coefficients():
        raise UnsupportedCoefficient(
            "determining systems require polynomial operator coefficients"
        )
    gamma, a, coeff = _term_arrays(L)
    top = int(np.max([gamma, a], initial=0))
    n_cols = 5 * math.comb(spec.degree + 4, 4) + math.comb(spec.zeta_degree + 4, 4)  # len(unknowns)
    radix = _radix(max(1, spec.degree, spec.zeta_degree) + spec.p * top, n_cols)
    monomials = monomials_up_to(spec.degree)
    q_keys = [(delta, m) for delta in (*_UNIT, ZERO_ALPHA) for m in monomials]
    zeta = monomials_up_to(spec.zeta_degree)
    unknowns = (*q_keys, *((None, m) for m in zeta))
    ad = _AdMap(L, radix)
    unit_codes = _pack(_Q_DELTAS[:, None], np.array(monomials, dtype=np.int64), radix).ravel()
    q = np.arange(len(q_keys)), unit_codes, np.ones(len(q_keys), dtype=complex)
    for _ in range(spec.p):
        q = ad(q, len(unknowns))
    zeta_cols = np.repeat(np.arange(len(q_keys), len(unknowns)), len(coeff))
    zeta_codes = _pack(gamma, np.array(zeta, dtype=np.int64)[:, None] + a, radix).ravel()
    zeta_vals = np.tile(-coeff, len(zeta))
    cols, codes, vals = (np.concatenate(pair) for pair in zip(q, (zeta_cols, zeta_codes, zeta_vals)))
    order = np.argsort(codes * len(unknowns) + cols)  # each (key, column) occurs once
    codes, cols, vals = codes[order], cols[order], vals[order] + 0.0  # +0.0 as _fill stores it
    first = np.diff(codes, prepend=-1) != 0  # the first entry of each row
    return DeterminingSystem((np.cumsum(first) - 1, cols, vals), unknowns, codes[first], radix, L, spec)


def _fill(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The matrix of the given shape that holds vals at (rows, cols), each
    position at most once."""
    matrix = np.zeros(shape, dtype=complex)
    matrix[rows, cols] += vals  # adding to +0.0 stores a signed zero part as +0.0
    return matrix


def _components(n_cols: int, nz_rows: np.ndarray, nz_cols: np.ndarray) -> list[tuple[list[int], list[int]]]:
    """(rows, columns) of each connected component of the graph that joins
    row i to column j for each nonzero (i, j) of a matrix of n_cols columns,
    given in row-major order as ``np.nonzero`` lists them, in the order of
    their first column.

    A column without nonzeros is a component without rows; a row without
    nonzeros belongs to none.  Up to a permutation of rows and columns, the
    matrix is block-diagonal with one block per component.
    """
    parent = list(range(n_cols))  # union-find forest over the columns

    def find(j: int) -> int:
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        return j

    first: dict[int, int] = {}  # each nonzero row's first column
    for i, j in zip(nz_rows.tolist(), nz_cols.tolist()):
        k = first.setdefault(i, j)
        if k != j:
            parent[find(j)] = find(k)
    groups: dict[int, tuple[list[int], list[int]]] = {}
    for j in range(n_cols):
        groups.setdefault(find(j), ([], []))[1].append(j)
    for i, j in first.items():
        groups[find(j)][0].append(i)
    return list(groups.values())


def _block_stacks(
    entries: tuple[np.ndarray, np.ndarray, np.ndarray], shape: tuple[int, int],
    blocks: Sequence[tuple[list[int], list[int]]],
) -> list[tuple[list[int], np.ndarray, np.ndarray, np.ndarray]]:
    """The blocks M[rows, cols] of the matrix M of the given shape whose
    entries are (rows, cols, vals), grouped by shape, in order of first
    appearance: per (r, c) shape, the positions of its blocks in blocks,
    their (k, r) row indices, their (k, c) column indices and the (k, r, c)
    stack of the blocks, a view of one array filled by one scatter.
    RuntimeError if an entry lies outside every diagonal block."""
    by_shape: dict[tuple[int, int], list[int]] = defaultdict(list)
    for i, (rows, cols) in enumerate(blocks):
        by_shape[len(rows), len(cols)].append(i)
    # the block of each row and column (-1 and -2 outside all) and its offset in flat
    row_block, col_block = np.full(shape[0], -1), np.full(shape[1], -2)
    row_at, col_at = np.zeros(shape[0], dtype=np.int64), np.zeros(shape[1], dtype=np.int64)
    flat = np.zeros(sum(len(rows) * len(cols) for rows, cols in blocks), dtype=complex)
    out, start = [], 0
    for (r, c), members in by_shape.items():
        rows = np.array([blocks[i][0] for i in members])
        cols = np.array([blocks[i][1] for i in members])
        row_block[rows] = col_block[cols] = np.array(members)[:, None]
        row_at[rows] = start + c * np.arange(rows.size).reshape(rows.shape)
        col_at[cols] = np.arange(c)
        out.append((members, rows, cols, flat[start:start + rows.size * c].reshape(-1, r, c)))
        start += rows.size * c
    i, j, vals = entries
    if not np.array_equal(row_block[i], col_block[j]):
        raise RuntimeError("the sparsity split leaves a nonzero of the matrix outside its diagonal blocks")
    flat[row_at[i] + col_at[j]] = vals
    return out


def solve_null_space(system: DeterminingSystem) -> GeneratorBasis:
    """Orthonormal null-space basis of the determining system.

    The matrix is solved one connected component of its row/column sparsity
    graph at a time (``system.components``): one SVD per component with rows,
    the components of one shape stacked into one batched call, and a unit
    null vector for each column that touches no row.  The component spectra
    merge into one descending spectrum; each component keeps the vectors at
    or below NULL_TOL times the global sigma_max, dimension_at(NULL_TOL) in all.
    Each null vector is a dense row supported on one component: first the
    unit vectors, then the vectors of each component in the order of their
    first columns.

    The null vectors are re-verified through the operator algebra, which
    shares nothing with the assembly of the matrix: one ``ad_power`` of
    system.L on the candidate of a random combination sum_i r_i v_i with
    fixed-seed unit-modulus weights (Freivalds' check: a wrong vector
    survives it only for weights in a measure-zero set).  Its residual
    ad_L^p(Q) - zeta L is kept on the basis when its largest coefficient is
    at most REVERIFY_TOL; otherwise RuntimeError names the residual's
    largest term.
    """
    if not np.all(np.isfinite(system.entries[2])):
        raise ValueError("determining system contains non-finite entries")
    components = system.components
    blocks = [(rows, cols) for rows, cols in components if rows]
    # one batched SVD per block shape; numpy runs the same LAPACK call on
    # each matrix of a stack, so each result is that of its own call
    svds = [(members, cols, *np.linalg.svd(stack, full_matrices=True)[1:])
            for members, _, cols, stack in system.block_stacks]
    sigma = np.sort(np.concatenate([np.zeros(0), *(s.ravel() for _, _, s, _ in svds)]))[::-1]
    cutoff = NULL_TOL * (sigma[0] if sigma.size else 0.0)
    # the rows of vh at and past a block's rank are its null rows; the null
    # vectors are the unit vectors of the columns that touch no row, then
    # each block's in component order, so block i starts at start[i]
    free = [cols[0] for rows, cols in components if not rows]
    ranks = [np.count_nonzero(s > cutoff, axis=1) for _, _, s, _ in svds]
    nullity = np.zeros(len(blocks), dtype=np.int64)
    for (members, cols, _, _), rank in zip(svds, ranks):
        nullity[members] = cols.shape[1] - rank
    start = len(free) + np.cumsum(nullity) - nullity
    vectors = np.zeros((len(free) + int(nullity.sum()), len(system.unknowns)), dtype=complex)
    vectors[np.arange(len(free)), free] = 1
    for (members, cols, _, vh), rank in zip(svds, ranks):
        null = np.arange(cols.shape[1]) >= rank[:, None]  # (blocks, rows of vh)
        block, at = np.nonzero(null)
        vectors[(start[members][block] + at - rank[block])[:, None], cols[block]] = np.conj(vh[null])
    shapes = tuple((len(rows), len(cols)) for rows, cols in blocks)
    return GeneratorBasis(vectors, sigma, _reverify(system, vectors), shapes)


def _freivalds_combination(vectors: np.ndarray) -> np.ndarray:
    """sum_i r_i vectors[i] with unit-modulus weights r_i drawn from a fixed seed."""
    phases = np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, len(vectors))
    return np.exp(1j * phases) @ vectors


def _reverify(system: DeterminingSystem, vectors: np.ndarray) -> float:
    """Residual of the random combination of the null vectors, by the check
    of solve_null_space."""
    cand = system.decode(_freivalds_combination(vectors))
    op, res = residual_vs_multiple(ad_power(system.L, cand.Q, system.spec.p), system.L, cand.zeta)
    if res > REVERIFY_TOL:
        delta, coeff = max(op.terms, key=lambda dc: dc[1].max_coeff())
        t = coeff.witness()
        raise RuntimeError(
            f"null space fails re-verification: residual {res:.3e} "
            f"at delta={delta}, alpha={t.alpha}, kappa={t.kappa}, coeff={t.coeff:.3e}"
        )
    return res


def structure_constants(ops: Sequence[LinDiffOp]) -> tuple[np.ndarray, float]:
    """Fit C_abg in [Q_a, Q_b] = C_abg Q_g over the given operators.

    The n operators and their n(n-1)/2 commutators, expanded exactly, are
    vectorized on one key set and the brackets regressed onto the operators
    by one least-squares solve.  Returns C and the closure residual: the
    largest fit error relative to the largest bracket coefficient, or the
    largest imaginary part of a constant relative to the largest |C|, so
    that it does not change when the operators are rescaled.  C is real and
    antisymmetric in (a, b) by construction; a closure residual above
    _CLOSURE_TOL means the set does not close into a Lie algebra and raises
    NotClosed.
    """
    for op in ops:
        if op.order > 1:
            raise ValueError("structure constants require first-order generators")
        if op.has_exponential_coefficients():
            raise ValueError("structure constants require polynomial coefficients")
    n = len(ops)
    C = np.zeros((n, n, n))
    if n == 0:
        return C, 0.0

    pairs = list(itertools.combinations(range(n), 2))
    brackets = [commutator(ops[a], ops[b]) for a, b in pairs]
    arrays = [_term_arrays(op) for op in [*ops, *brackets]]
    cols = np.repeat(np.arange(len(arrays)), [len(vals) for _, _, vals in arrays])
    delta, alpha, vals = (np.concatenate(column) for column in zip(*arrays))
    row_codes, rows = np.unique(_pack(delta, alpha, _radix(int(np.max([delta, alpha], initial=0)), 1)),
                                return_inverse=True)
    matrix = _fill(rows, cols, vals, (len(row_codes), len(ops) + len(brackets)))
    basis, targets = matrix[:, :n], matrix[:, n:]
    if np.linalg.matrix_rank(basis, tol=_CLOSURE_TOL * np.abs(basis).max(initial=0.0)) < n:
        raise ValueError("generators are not linearly independent")
    coeffs, *_ = np.linalg.lstsq(basis, targets, rcond=None)  # n x pairs
    worst = max(
        _relative(np.abs(basis @ coeffs - targets).max(initial=0.0), np.abs(targets).max(initial=0.0)),
        _relative(np.abs(coeffs.imag).max(initial=0.0), np.abs(coeffs).max(initial=0.0)),
    )
    for (a, b), c in zip(pairs, coeffs.real.T):
        C[a, b, :] = c
        C[b, a, :] = -c
    if worst > _CLOSURE_TOL:
        raise NotClosed(f"closure residual {worst:.3e} exceeds {_CLOSURE_TOL:.1e}")
    return C, worst


def _relative(size: float, scale: float) -> float:
    """size / scale, and 0 where both are 0 (a zero fit of zero brackets)."""
    return float(size / scale) if scale else float(size)


@dataclass(frozen=True, eq=False)
class AffineMap:
    """x' = A x + b on R^4."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if A.shape != (4, 4) or b.shape != (4,):
            raise ValueError("AffineMap needs a 4x4 matrix and a 4-vector")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValueError("AffineMap needs finite A and b")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    def __call__(self, x: Sequence[float]) -> np.ndarray:
        return self.A @ np.asarray(x, dtype=float) + self.b

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self . other, i.e. x -> self(other(x))."""
        return AffineMap(self.A @ other.A, self.A @ other.b + self.b)

    def inverse(self) -> "AffineMap":
        # |det A| is at most the product of A's row norms (Hadamard), so their
        # ratio lies in [0, 1] whatever the scale of A; a zero row gives det 0
        sign, logdet = np.linalg.slogdet(self.A)
        ratio = math.exp(logdet - np.log(np.linalg.norm(self.A, axis=1)).sum()) if sign else 0.0
        if ratio <= 1e-12:
            raise SingularMap(f"|det A| / (product of row norms) = {ratio:.3e} <= 1e-12")
        inv = np.linalg.inv(self.A)
        return AffineMap(inv, -inv @ self.b)


def _expm(M: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring of the Taylor series."""
    M = np.asarray(M, dtype=float)
    norm = float(np.max(np.abs(M))) if M.size else 0.0
    squarings = max(0, int(np.ceil(np.log2(norm / 0.5))) if norm > 0.5 else 0)
    S = M / (2.0 ** squarings)
    out = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, 24):
        term = term @ S / k
        out = out + term
        if float(np.max(np.abs(term))) < 1e-18:
            break
    for _ in range(squarings):
        out = out @ out
    return out


def flow(Q: LinDiffOp, theta: float) -> AffineMap:
    """Integrate dx'/dtheta = xi(x') exactly for the generator
    Q = xi^a d_a + eta with affine xi.

    The affine vector field xi(x) = M x + v exponentiates through the 5x5
    augmented matrix [[M, v], [0, 0]]; flow(Q, 0) is the identity and
    flow(Q, s).flow(Q, t) = flow(Q, s + t).  eta plays no role here.  The
    coefficients of xi must be real: an imaginary part above 1e-12 times
    the largest coefficient of xi raises UnsupportedDegree, so flow(s Q,
    theta / s) accepts and refuses as flow(Q, theta) does.  A non-finite
    theta raises ValueError; an exponential beyond the float range raises
    NonFinite under any warning filter.
    """
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"flow parameter must be finite, not {theta!r}")
    if Q.order > 1:
        raise UnsupportedDegree("flows are defined for first-order generators only")
    M = np.zeros((4, 4))
    v = np.zeros(4)
    xi = [(delta.index(1), t) for delta, coeff in Q.terms if sum(delta) == 1 for t in coeff.terms]
    # the size of xi's largest coefficient, by the larger of its two parts:
    # within a factor sqrt(2) of its modulus, which can overflow
    scale = max((max(abs(t.coeff.real), abs(t.coeff.imag)) for _, t in xi), default=0.0)
    for a, t in xi:
        if any(k != 0 for k in t.kappa) or sum(t.alpha) > 1:
            raise UnsupportedDegree(
                "flows are implemented for affine generator coefficients only"
            )
        val = complex(t.coeff)
        if abs(val.imag) > 1e-12 * scale:
            raise UnsupportedDegree("flow generators must have real coefficients")
        if sum(t.alpha) == 0:
            v[a] += val.real
        else:
            M[a, t.alpha.index(1)] += val.real
    aug = np.zeros((5, 5))
    aug[:4, :4] = M
    aug[:4, 4] = v
    try:
        with np.errstate(over="raise", invalid="raise", under="ignore"):
            E = _expm(theta * aug)
    except (FloatingPointError, OverflowError) as exc:
        raise NonFinite(f"flow overflowed at theta = {theta!r}") from exc
    if not np.all(np.isfinite(E)):
        raise NonFinite(f"flow overflowed at theta = {theta!r}")
    return AffineMap(E[:4, :4], E[:4, 4])


def pullback(Lp: LinDiffOp, amap: AffineMap) -> LinDiffOp:
    """Express an operator given in primed coordinates x' = A x + b in
    unprimed ones.

    Characterizing property: pullback(Lp, m).apply(f' o m) = (Lp.apply(f')) o m.
    Derivatives transform with the inverse Jacobian, d'_a = (A^-1)_{ba} d_b;
    coefficients are composed with the map.
    """
    inv = amap.inverse().A
    # constant-coefficient images sum_b (A^-1)_{ba} d_b of the primed partials
    primed_partials = [
        LinDiffOp([(_UNIT[b], ExpPoly.constant(inv[b, a])) for b in range(4)])
        for a in range(4)
    ]

    collected = []
    for delta, coeff in Lp.terms:
        piece = LinDiffOp.identity()
        for a in range(4):
            for _ in range(delta[a]):
                piece = primed_partials[a].compose(piece)
        moved = coeff.substitute_affine(amap.A, amap.b)
        collected.extend((d, moved * c) for d, c in piece.terms)
    return LinDiffOp(collected)


def _powers(base: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """out[i, r] = prod_a base[i, a] ** exponents[r, a], the powers taken
    once each into a table and gathered."""
    table = base[:, :, None] ** np.arange(exponents.max(initial=0) + 1)
    return np.prod(table[:, np.arange(4), exponents], axis=2)


def probe_sample(
    system: DeterminingSystem, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random exponential probes f_i = exp(kappa_i . x), random points x_k,
    and the probe matrix

        P[(i, k), (delta, alpha)] = x_k^alpha kappa_i^delta exp(kappa_i . x_k)

    over the system's row keys, with rows running over i, then k.  P @ M is
    the sample S[(i, k), j] = (R_j f_i)(x_k) of the residual operator R_j of
    unknown j, the column j of the matrix M.  There is one probe per
    derivative index and one point per monomial in the row keys; a system
    without rows has neither, and P has no rows and no columns.  P, the one
    dense array of a search, is refused beyond DENSE_BUDGET bytes with a
    ValueError naming its size, before it or any draw exists.
    """
    n_probes, n_points = _probe_counts(system.row_codes, system.radix)
    size = n_probes * n_points * len(system.row_codes) * np.dtype(complex).itemsize
    if size > DENSE_BUDGET:
        raise ValueError(f"the probe matrix needs {size / 2**20:.1f} MiB; "
                         f"it may take at most {DENSE_BUDGET / 2**20:.0f} MiB")
    delta, alpha = _unpack(system.row_codes, system.radix)
    points = rng.uniform(-1.0, 1.0, size=(n_points, 4))
    draws = rng.normal(0, 1, (n_probes, 2, 4))  # each probe's real part, then its imaginary part
    kappas = draws[:, 0] + 1j * draws[:, 1]
    derivs = _powers(kappas, delta)  # kappa_i^delta
    monos = _powers(points, alpha)  # x_k^alpha
    waves = np.exp(kappas @ points.T)  # f_i(x_k)
    # the product in the order of waves * derivs * monos, in one array
    P = np.multiply(waves[:, :, None], derivs[:, None, :])
    P *= monos
    return kappas, points, P.reshape(n_probes * len(points), len(system.row_codes))


def apply_probe_null_dimension(system: DeterminingSystem, rng: np.random.Generator) -> int:
    """Null-space dimension of the residual map, counted by applying it.

    The residual operators R_j = sum_delta c_delta d^delta are applied
    pointwise, (R_j f)(x) = sum_delta c_delta(x) (d^delta f)(x), to random
    exponential probes f at random points x (:func:`probe_sample`).  There is
    one probe per derivative index delta and one point per monomial alpha.
    At one point, that many generic probes give an invertible matrix
    (d^delta f_i)(x), so a combination that kills every probe has
    c_delta(x) = 0 for every delta; and a polynomial on that many monomials
    that vanishes at as many generic points is zero.  So P is injective, and
    the sample S = P @ M has the rank of the map.

    The rank is taken per sparsity block, the ``system.components`` the
    solver splits M by.  Every entry of M must lie in a diagonal block, or
    ``system.block_stacks`` raises RuntimeError: a split that cuts a
    component is refused, not counted.  So M is block-diagonal, S[:, cols]
    is P[:, rows] @ M[rows, cols] for each block, and, P being injective,
    the ranks of these column blocks add up to the rank of S in exact
    arithmetic; at a float cutoff, where the blocks' samples are not
    orthogonal in S, one rank of all of S can count otherwise (two rank-one
    blocks just below it count 0, all of S 1).  They are sampled as one
    stack per block shape, and a block's rank is the count of its sample's
    singular values above the cutoff 1e-8 max|S| (:func:`_sample_ranks`):
    - A block of one row or one column has a sample of rank at most one,
      p m^T or P_b m, whose one singular value is its norm; no SVD runs.  A
      float outer product holds each p_i m_j to within sqrt(5) u relative
      (u = eps / 2), so its trailing singular values are at most about
      eps sigma_1 <= eps sqrt(N c) max|S| for N samples and c columns:
      below the cutoff while N c < 1e15.
    - Any other block is ranked by the singular values of its sample's R
      factor, which are the sample's own (R-SVD, Chan 1982): the SVD runs
      on c x c matrices, not on N x c ones.
    The count catches a wrong SVD cutoff and a wrong split, not a wrong
    assembly; re-verification in :func:`solve_null_space` checks the
    assembly.  A P beyond DENSE_BUDGET is refused before the split is read.
    """
    _, _, P = probe_sample(system, rng)
    samples, tol = _block_samples(system, P)
    return len(system.unknowns) - sum(int(_sample_ranks(s, rows.shape[1], tol).sum())
                                      for s, (_, rows, _, _) in zip(samples, system.block_stacks))


def _block_samples(system: DeterminingSystem, P: np.ndarray) -> tuple[list[np.ndarray], float]:
    """Per stack of ``system.block_stacks``, the (blocks, samples, columns)
    stack of S[:, cols] = P[:, rows] @ M[rows, cols], and the oracle's rank
    cutoff: 1e-8 times the largest entry of S, or 1e-8 if S is zero."""
    samples = [np.moveaxis(P[:, rows], 1, 0) @ stack for _, rows, _, stack in system.block_stacks]
    return samples, 1e-8 * (max((float(np.abs(s).max()) for s in samples), default=0.0) or 1.0)


def _sample_ranks(sample: np.ndarray, n_rows: int, tol: float) -> np.ndarray:
    """The rank of each (N, c) sample of a stack of blocks with n_rows rows,
    its singular values above tol: the norm of a sample of rank at most one
    (one row or one column), else the spectrum of its R factor, by the rule
    of :func:`apply_probe_null_dimension`."""
    if n_rows == 1 or sample.shape[2] == 1:
        return (np.linalg.norm(sample, axis=(1, 2)) > tol).astype(np.int64)
    # a direct SVD of the samples is faster on degree 2's one short stack (box 14 vs 25 us a search) but
    # slower on degree 3's (box 630 vs 340-380 us, schrod 646 vs 420 us): timeit, 1 BLAS thread, 2 vCPUs
    return np.count_nonzero(np.linalg.svd(np.linalg.qr(sample, mode="r"), compute_uv=False) > tol, axis=1)
