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

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expcore import ZERO_ALPHA, ExpPoly, ExpTerm, Index4, NonFinite, _UNIT
from .opalg import LinDiffOp, SymmetryCandidate, ad_power, commutator, residual_vs_multiple


class UnsupportedCoefficient(ValueError):
    """The operator has exponential coefficients; the polynomial ansatz does not apply."""


class UnsupportedDegree(ValueError):
    """Flow integration requires affine (degree <= 1) generator coefficients."""


class SingularMap(ValueError):
    """The affine map is not invertible."""


class RankDeficiencyAmbiguous(RuntimeError):
    """Singular values cluster across the null cutoff; the tolerance must move."""


class NotClosed(RuntimeError):
    """Commutators leave the span of the candidate basis."""


# null cutoff: singular values at most NULL_TOL * sigma_max count as zero
NULL_TOL = 1e-8
# largest coefficient of ad_L^p(Q) - zeta L a re-verified candidate may leave
REVERIFY_TOL = 1e-8
# gap ratio below which the null cutoff is declared ambiguous
_GAP_GUARD = 10.0
# structure constants: rank cutoff (relative) and largest closure residual
_CLOSURE_TOL = 1e-8


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
    coefficient of the monomial x^alpha of zeta.
    """

    matrix: np.ndarray
    unknowns: tuple[tuple[Index4 | None, Index4], ...]
    row_keys: tuple[tuple[Index4, Index4], ...]  # (derivative delta, monomial alpha)
    L: LinDiffOp
    spec: AnsatzSpec

    def decode(self, vec: Sequence[complex]) -> SymmetryCandidate:
        """Turn a coefficient vector back into a symmetry candidate."""
        if len(vec) != len(self.unknowns):
            raise ValueError(f"vector has {len(vec)} entries for {len(self.unknowns)} unknowns")
        # one term list per derivative index, None collecting zeta
        parts: dict[Index4 | None, list[ExpTerm]] = defaultdict(list)
        for (delta, alpha), c in zip(self.unknowns, vec):
            if complex(c) != 0:
                parts[delta].append(ExpTerm(complex(c), alpha))
        zeta = ExpPoly(parts.pop(None, []))
        return SymmetryCandidate(LinDiffOp((d, ExpPoly(t)) for d, t in parts.items()), zeta)


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

    def projection_residual(self, vec: Sequence[complex]) -> float:
        """2-norm distance of a coefficient vector from the null span."""
        v = np.asarray(vec, dtype=complex)
        coeffs = self.vectors.conj() @ v
        return float(np.linalg.norm(v - self.vectors.T @ coeffs))


def monomials_up_to(degree: int) -> list[Index4]:
    """All 4-variable monomial exponents of total degree <= degree, graded lex."""
    out = []
    for total in range(degree + 1):
        for alpha in itertools.product(range(total + 1), repeat=4):
            if sum(alpha) == total:
                out.append(alpha)
    return out


Key = tuple[Index4, Index4]  # (derivative delta, monomial alpha) of x^alpha d^delta


def _add(a: Index4, b: Index4) -> Index4:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])


def _sub(a: Index4, b: Index4) -> Index4:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3])


def _leibniz(order: Index4, alpha: Index4) -> list[tuple[Index4, int, Index4]]:
    """(beta, binom(order, beta) * alpha! / (alpha - beta)!, alpha - beta) for
    every nonzero beta <= order with d^beta x^alpha != 0."""
    out = []
    for beta in itertools.product(*(range(min(n, a) + 1) for n, a in zip(order, alpha))):
        if any(beta):
            weight = math.prod(math.comb(n, b) * math.perm(a, b) for n, a, b in zip(order, alpha, beta))
            out.append((beta, weight, _sub(alpha, beta)))
    return out


class _AdMap:
    """ad_L = [L, .] as a sparse linear map on the basis x^alpha d^delta.

    A vector is a dict from (delta, alpha) keys to coefficients, as in
    sympy's SDM.  For a term c x^a d^gamma of L the Leibniz rule gives

        [c x^a d^gamma, x^alpha d^delta]
            = sum_beta binom(gamma, beta) c x^a (d^beta x^alpha) d^(gamma - beta + delta)
            - sum_beta binom(delta, beta) c x^alpha (d^beta x^a) d^(delta - beta + gamma),

    where the beta = 0 terms of the two sums cancel.  The image of each key,
    and the Leibniz weights of each (order, alpha) pair, are computed once
    per map.
    """

    def __init__(self, L: LinDiffOp):
        # (gamma, a, c) for every term c x^a d^gamma of L (polynomial coefficients)
        self.terms = [(gamma, t.alpha, t.coeff) for gamma, coeff in L.terms for t in coeff.terms]
        self._images: dict[Key, dict[Key, complex]] = {}
        self._weights: dict[tuple[Index4, Index4], list[tuple[Index4, int, Index4]]] = {}

    def _leibniz(self, order: Index4, alpha: Index4) -> list[tuple[Index4, int, Index4]]:
        """The module's _leibniz(order, alpha), computed once per map."""
        weights = self._weights.get((order, alpha))
        if weights is None:
            weights = self._weights[(order, alpha)] = _leibniz(order, alpha)
        return weights

    def _image(self, key: Key) -> dict[Key, complex]:
        delta, alpha = key
        out: dict[Key, complex] = defaultdict(complex)
        for gamma, a, c in self.terms:
            top = _add(gamma, delta)
            for beta, weight, lowered in self._leibniz(gamma, alpha):
                out[(_sub(top, beta), _add(a, lowered))] += c * weight
            for beta, weight, lowered in self._leibniz(delta, a):
                out[(_sub(top, beta), _add(alpha, lowered))] -= c * weight
        return {k: v for k, v in out.items() if v != 0}

    def __call__(self, vec: dict[Key, complex]) -> dict[Key, complex]:
        """ad_L of the operator sum_key vec[key] x^alpha d^delta; exact zeros dropped."""
        out: dict[Key, complex] = defaultdict(complex)
        for key, v in vec.items():
            image = self._images.get(key)
            if image is None:
                image = self._images[key] = self._image(key)
            for k, w in image.items():
                out[k] += v * w
        return {k: w for k, w in out.items() if w != 0}


def build_determining_system(L: LinDiffOp, spec: AnsatzSpec) -> DeterminingSystem:
    """Assemble the linear system for  ad_L^p(Q) - zeta L = 0.

    The unknowns are the keys (e_a, alpha) of xi^a, then (0, alpha) of eta,
    for |alpha| <= spec.degree, then (None, alpha) of zeta, for
    |alpha| <= spec.zeta_degree.  Each row equates the coefficient of one
    (monomial x derivative) pair in the residual operator to zero.  The
    column of a key (delta, alpha) of Q is x^alpha d^delta pushed p times
    through one sparse ad_L map; that of a key (None, alpha) is -x^alpha L.
    """
    if L.has_exponential_coefficients():
        raise UnsupportedCoefficient(
            "determining systems require polynomial operator coefficients"
        )
    monomials = monomials_up_to(spec.degree)
    unknowns = tuple((delta, m) for delta in (*_UNIT, ZERO_ALPHA) for m in monomials)
    unknowns += tuple((None, m) for m in monomials_up_to(spec.zeta_degree))
    ad = _AdMap(L)
    columns = []
    for delta, alpha in unknowns:
        if delta is None:
            columns.append({(gamma, _add(a, alpha)): -c for gamma, a, c in ad.terms})
            continue
        col = {(delta, alpha): 1 + 0j}
        for _ in range(spec.p):
            col = ad(col)
        columns.append(col)
    row_keys, matrix = _fill(columns)
    return DeterminingSystem(matrix, unknowns, row_keys, L, spec)


def _fill(columns: Sequence[dict[Key, complex]]) -> tuple[tuple[Key, ...], np.ndarray]:
    """Sorted keys of all columns, and the matrix with one column per dict."""
    keys = tuple(sorted(set().union(*columns)))
    index = {k: i for i, k in enumerate(keys)}
    matrix = np.zeros((len(keys), len(columns)), dtype=complex)
    for j, col in enumerate(columns):
        for k, v in col.items():
            matrix[index[k], j] += v  # adding to +0.0 stores a signed zero part as +0.0
    return keys, matrix


def null_rank(sigma: np.ndarray, tol: float) -> int:
    """Rank of a spectrum: the singular values above tol * sigma_max.

    If the spectrum clusters across that cutoff (gap ratio below 10) the
    rank is ambiguous and RankDeficiencyAmbiguous is raised instead of
    silently picking a dimension.
    """
    cutoff = tol * (sigma[0] if sigma.size else 0.0)
    rank = int(np.sum(sigma > cutoff))
    if 0 < rank < sigma.size and sigma[rank] > 0:
        gap = sigma[rank - 1] / sigma[rank]
        if gap < _GAP_GUARD:
            raise RankDeficiencyAmbiguous(
                f"singular values {sigma[rank - 1]:.3e} and {sigma[rank]:.3e} "
                f"straddle the cutoff {cutoff:.3e} with gap ratio {gap:.2f} < {_GAP_GUARD}"
            )
    return rank


def _components(m: np.ndarray) -> list[tuple[list[int], list[int]]]:
    """(rows, columns) of each connected component of the graph that joins
    row i to column j where m[i, j] != 0, in the order of their first column.

    A column without nonzeros is a component without rows; a row without
    nonzeros belongs to none.  Up to a permutation of rows and columns, m is
    block-diagonal with one block per component.
    """
    parent = list(range(m.shape[1]))  # union-find forest over the columns

    def find(j: int) -> int:
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        return j

    first: dict[int, int] = {}  # each nonzero row's first column
    for i, j in zip(*(ix.tolist() for ix in np.nonzero(m != 0))):
        k = first.setdefault(i, j)
        if k != j:
            parent[find(j)] = find(k)
    groups: dict[int, tuple[list[int], list[int]]] = {}
    for j in range(m.shape[1]):
        groups.setdefault(find(j), ([], []))[1].append(j)
    for i, j in first.items():
        groups[find(j)][0].append(i)
    return list(groups.values())


def solve_null_space(system: DeterminingSystem) -> GeneratorBasis:
    """Orthonormal null-space basis of the determining system.

    The matrix is solved one connected component of its row/column sparsity
    graph at a time (:func:`_components`): one SVD per component with rows,
    the components of one shape stacked into one batched call, and a unit
    null vector for each column that touches no row.  The component spectra
    merge into one descending spectrum; its rank at
    NULL_TOL, with the gap guard of :func:`null_rank`, is read once, and each
    component keeps the vectors whose singular values lie at or below
    NULL_TOL times the global sigma_max.  Each null vector is a dense row
    supported on one component: first the unit vectors, then the vectors of
    each component in the order of their first columns.

    The null vectors are re-verified through the operator algebra, which
    shares nothing with the assembly of the matrix: one ``ad_power`` of
    system.L on the candidate of a random combination sum_i r_i v_i with
    fixed-seed unit-modulus weights (Freivalds' check: a wrong vector
    survives it only for weights in a measure-zero set).  Its residual
    ad_L^p(Q) - zeta L is kept on the basis when its largest coefficient is
    at most REVERIFY_TOL; otherwise RuntimeError names the residual's
    largest term.
    """
    m = system.matrix
    if not np.all(np.isfinite(m)):
        raise ValueError("determining system contains non-finite entries")
    components = _components(m)
    blocks = [(rows, cols) for rows, cols in components if rows]
    # one batched SVD per block shape; numpy runs the same LAPACK call on
    # each matrix of a stack, so each result is that of its own call
    by_shape: dict[tuple[int, int], list[int]] = defaultdict(list)
    for i, (rows, cols) in enumerate(blocks):
        by_shape[len(rows), len(cols)].append(i)
    svds = {}  # block index -> (singular values, vh)
    for members in by_shape.values():
        _, s, vh = np.linalg.svd(np.stack([m[np.ix_(*blocks[i])] for i in members]),
                                 full_matrices=True)
        svds.update(zip(members, zip(s, vh)))
    # (columns, singular values, vh): the identity on the columns that touch
    # no row, then each block in component order
    free = [cols[0] for rows, cols in components if not rows]
    parts = [(free, np.zeros(0), np.eye(len(free)))]
    parts += [(cols, *svds[i]) for i, (_, cols) in enumerate(blocks)]
    sigma = np.sort(np.concatenate([s for _, s, _ in parts]))[::-1]
    n = m.shape[1]
    vectors = np.zeros((n - null_rank(sigma, NULL_TOL), n), dtype=complex)
    cutoff = NULL_TOL * (sigma[0] if sigma.size else 0.0)
    row = 0
    for cols, s, vh in parts:
        null = vh[int(np.count_nonzero(s > cutoff)):]
        vectors[row : row + len(null), cols] = np.conj(null)
        row += len(null)
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
    largest fit error or imaginary part of a constant.  C is real and
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
    _, matrix = _fill([
        {(delta, t.alpha): t.coeff for delta, coeff in op.terms for t in coeff.terms}
        for op in [*ops, *brackets]
    ])
    basis, targets = matrix[:, :n], matrix[:, n:]
    scale = max(1.0, float(np.abs(basis).max(initial=0.0)))
    if np.linalg.matrix_rank(basis, tol=_CLOSURE_TOL * scale) < n:
        raise ValueError("generators are not linearly independent")
    coeffs, *_ = np.linalg.lstsq(basis, targets, rcond=None)  # n x pairs
    worst = max(
        float(np.abs(basis @ coeffs - targets).max(initial=0.0)),
        float(np.abs(coeffs.imag).max(initial=0.0)),
    )
    for (a, b), c in zip(pairs, coeffs.real.T):
        C[a, b, :] = c
        C[b, a, :] = -c
    if worst > _CLOSURE_TOL:
        raise NotClosed(f"closure residual {worst:.3e} exceeds {_CLOSURE_TOL:.1e}")
    return C, worst


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
        det = float(np.linalg.det(self.A))
        if abs(det) <= 1e-12:
            raise SingularMap(f"|det A| = {abs(det):.3e} <= 1e-12")
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
    flow(Q, s).flow(Q, t) = flow(Q, s + t).  eta plays no role here.  A
    non-finite theta raises ValueError; an exponential beyond the float range
    raises NonFinite under any warning filter.
    """
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"flow parameter must be finite, not {theta!r}")
    if Q.order > 1:
        raise UnsupportedDegree("flows are defined for first-order generators only")
    M = np.zeros((4, 4))
    v = np.zeros(4)
    for delta, coeff in Q.terms:
        if sum(delta) != 1:
            continue
        a = delta.index(1)
        for t in coeff.terms:
            if any(k != 0 for k in t.kappa) or sum(t.alpha) > 1:
                raise UnsupportedDegree(
                    "flows are implemented for affine generator coefficients only"
                )
            val = complex(t.coeff)
            if abs(val.imag) > 1e-12 * max(1.0, abs(val.real)):
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


def probe_sample(
    system: DeterminingSystem, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random exponential probes f_i = exp(kappa_i . x), random points x_k,
    and the sample matrix S[(i, k), j] = (R_j f_i)(x_k).

    R_j is the residual operator of unknown j, the column j of the system's
    matrix M on its (delta, alpha) row keys, so S = P @ M with
    P[(i, k), (delta, alpha)] = x_k^alpha kappa_i^delta exp(kappa_i . x_k).
    There is one probe per derivative index and one point per monomial in the
    row keys; rows run over i, then k.
    """
    n_probes = len({delta for delta, _ in system.row_keys})
    points = rng.uniform(-1.0, 1.0, size=(len({alpha for _, alpha in system.row_keys}), 4))
    kappas = np.array(
        [rng.normal(0, 1, 4) + 1j * rng.normal(0, 1, 4) for _ in range(n_probes)]
    ).reshape(-1, 4)
    deltas = np.array([delta for delta, _ in system.row_keys], dtype=int).reshape(-1, 4)
    alphas = np.array([alpha for _, alpha in system.row_keys], dtype=int).reshape(-1, 4)
    derivs = np.prod(kappas[:, None, :] ** deltas, axis=2)  # kappa_i^delta
    monos = np.prod(points[:, None, :] ** alphas, axis=2)  # x_k^alpha
    waves = np.exp(kappas @ points.T)  # f_i(x_k)
    P = (waves[:, :, None] * derivs[:, None, :] * monos[None, :, :]).reshape(-1, len(deltas))
    return kappas, points, P @ system.matrix


def apply_probe_null_dimension(system: DeterminingSystem, rng: np.random.Generator) -> int:
    """Null-space dimension of the residual map, counted by applying it.

    The residual operators R_j = sum_delta c_delta d^delta are applied
    pointwise, (R_j f)(x) = sum_delta c_delta(x) (d^delta f)(x), to random
    exponential probes f at random points x (:func:`probe_sample`).  There is
    one probe per derivative index delta and one point per monomial alpha.
    At one point, that many generic probes give an invertible matrix
    (d^delta f_i)(x), so a combination that kills every probe has
    c_delta(x) = 0 for every delta; and a polynomial on that many monomials
    that vanishes at as many generic points is zero.  The sampled matrix
    therefore has the rank of the map; its singular values are counted above
    1e-8 times its largest entry.  It counts the rank of a sampled map, so it
    catches a wrong SVD cutoff, not a wrong assembly; re-verification in
    :func:`solve_null_space` checks the assembly.
    """
    _, _, matrix = probe_sample(system, rng)
    scale = float(np.abs(matrix).max(initial=0.0)) or 1.0
    return matrix.shape[1] - int(np.linalg.matrix_rank(matrix, tol=1e-8 * scale))
