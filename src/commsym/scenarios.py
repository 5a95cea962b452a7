"""Built-in verification suites for the wave, Schrodinger and Maxwell systems.

Each suite constructs concrete operators, exact solutions and weight
functions, runs a fixed list of named identity checks, and returns a
:class:`ScenarioReport` with one residual per check.  Check names carry a
catalog label (``eq14`` ... ``eq31``) identifying the verified identity; the
labels are stable API and are documented in the README.

Coordinate conventions: functions always live on (x0, x1, x2, x3).  The wave
and Maxwell suites read x0 = c*t; the Schrodinger suite reads x0 = t.  All
index lowering has been folded into explicit signs, so every formula here is
written in upper-index coordinates.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import detsolve
from .expcore import _UNIT, ZERO_ALPHA, ExpPoly, ExpTerm, _add_products, _Sum
from .opalg import LinDiffOp, MatrixDiffOp, ad_power

# engaging-check pass thresholds, per scenario
DALEMBERT_ENGAGING_TOL = 1e-9
SCHRODINGER_ENGAGING_TOL = 1e-8
MAXWELL_ENGAGING_TOL = 1e-9
COMPOSITION_TOL = 1e-10
IDENTITY_TOL = 1e-12
LIMIT_TOL = 1e-10
SCALING_TOL = 0.2  # |ratio - 2| bound for the halving checks
LIMIT_BETAS = (1e-2, 5e-3, 2.5e-3)

_SQRT2 = math.sqrt(2.0)


class InvalidParams(ValueError):
    """Scenario parameters violate a validity guard."""


class DegenerateDirection(InvalidParams):
    """|n_x| too close to 1: the field-transform parameters are singular."""


class NotSingleExponential(ValueError):
    """Weight inference and limit gaps need single-term pure exponentials."""


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class CheckResult:
    name: str
    paper_ref: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


@dataclass(frozen=True)
class ScenarioReport:
    scenario: str
    params: dict
    checks: tuple[CheckResult, ...]
    info: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _check(name: str, ref: str, residual, tol: float) -> CheckResult:
    """The report row of one check, built from what its identity leaves.

    residual is an ExpPoly or LinDiffOp (its largest coefficient modulus is
    the row's residual), a sequence of them (the largest over all), or a
    number (taken as it is).  Every row of every suite is built here.
    """
    return CheckResult(name, ref, _magnitude(residual), float(tol))


def _magnitude(residual) -> float:
    if isinstance(residual, _Sum):
        return residual.max_coeff()
    if isinstance(residual, (list, tuple)):
        return max(map(_magnitude, residual), default=0.0)
    return float(residual)


# ---------------------------------------------------------------------------
# parameters


def _norm3(u: Sequence[float]) -> tuple[float, float]:
    """The Euclidean norm of a finite vector as a product scale * norm.

    Where the sum of squares is a finite normal float, scale is 1 and norm
    its square root.  Otherwise the squares under- or overflowed: scale is
    the largest magnitude and norm the norm of u / scale, so that neither
    factor leaves the float range (their product still overflows where the
    norm itself is beyond it).  The zero vector gives (1, 0).
    """
    square = sum(x * x for x in u)
    if sys.float_info.min <= square < math.inf:
        return 1.0, math.sqrt(square)
    top = max(abs(x) for x in u)
    if top == 0:
        return 1.0, 0.0
    return top, math.sqrt(sum(y * y for y in (x / top for x in u)))


@dataclass(frozen=True)
class DalembertParams:
    """Boost parameters for the wave-equation suites.

    beta is the frame velocity over c, n the unit propagation direction
    (guiding cosines), omega the frequency, c the wave speed.  lam is the
    derived frame ratio c'/c = sqrt(1 - 2 beta n_x + beta^2).
    """

    beta: float
    n: tuple[float, float, float] = (0.0, 1.0, 0.0)
    omega: float = 1.0
    c: float = 1.0

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.beta, self.omega, self.c, *self.n)):
            raise InvalidParams("parameters must be finite")
        if abs(self.beta) >= 1.0:
            raise InvalidParams(f"|beta| = {abs(self.beta)} must be < 1")
        if self.omega <= 0 or self.c <= 0:
            raise InvalidParams("omega and c must be positive")
        scale, norm = _norm3(self.n)
        if norm == 0:
            raise InvalidParams("n must be a nonzero direction")
        object.__setattr__(self, "n", tuple(v / scale / norm for v in self.n))
        if self.lam <= 1e-9:
            raise InvalidParams("frame ratio lambda vanishes for these parameters")
        # omega/c scales every covector of the suites
        w = self.omega / self.c
        if not sys.float_info.min <= w < math.inf:
            raise InvalidParams(f"omega/c = {w!r} is outside the normal float range")

    @functools.cached_property
    def lam(self) -> float:
        nx = self.n[0]
        return math.sqrt(1.0 - 2.0 * self.beta * nx + self.beta * self.beta)

    def as_dict(self) -> dict:
        return {
            "beta": self.beta,
            "n_x": self.n[0],
            "n_y": self.n[1],
            "n_z": self.n[2],
            "omega": self.omega,
            "c": self.c,
            "lambda": self.lam,
        }


@dataclass(frozen=True)
class SchrodingerParams:
    """Boost and particle parameters for the Schrodinger suite.

    V is the frame velocity along x1, v the particle velocity; W = m c^2 with
    the velocity-dependent mass m = m0 / sqrt(1 - |v|^2/c^2).  beta_v_prime
    is the boosted particle speed over c (velocity-addition form).
    """

    V: float = 0.2
    v: tuple[float, float, float] = (0.4, 0.0, 0.0)
    c: float = 1.0
    hbar: float = 1.0
    m0: float = 1.0

    def __post_init__(self) -> None:
        if not all(math.isfinite(u) for u in (self.V, self.c, self.hbar, self.m0, *self.v)):
            raise InvalidParams("parameters must be finite")
        if self.c <= 0 or self.hbar <= 0 or self.m0 <= 0:
            raise InvalidParams("c, hbar, m0 must be positive")
        if abs(self.V) >= self.c:
            raise InvalidParams("|V| must be below c")
        scale, norm = _norm3(self.v)
        if scale * norm >= self.c:
            raise InvalidParams("|v| must be below c")
        if norm == 0:
            raise InvalidParams("a nonzero particle velocity is required")
        # W = m c^2 scales every frequency of the suite, the next two the
        # Laplacian terms, and psi2 divides by beta_v; an overflowing hbar^2
        # raises OverflowError
        for label, name in (("W = m c^2", "W"), ("c^2 hbar^2 / 2W", "laplacian_coeff"),
                            ("hbar^2 / 2 m0", "nonrel_laplacian_coeff"), ("beta_v = |v|/c", "beta_v")):
            value = getattr(self, name)
            if not sys.float_info.min <= value < math.inf:
                raise InvalidParams(f"{label} = {value!r} is outside the normal float range")
        # the boosted particle is then at rest: beta_v_prime is 0, and psi2's weight divides by it
        if (self.v[0] - self.V, self.v[1], self.v[2]) == (0, 0, 0):
            raise InvalidParams("v = (V, 0, 0): the particle is at rest in the boosted frame")

    @functools.cached_property
    def beta(self) -> float:
        return self.V / self.c

    @functools.cached_property
    def beta_vec(self) -> tuple[float, float, float]:
        return tuple(u / self.c for u in self.v)

    @functools.cached_property
    def beta_v(self) -> float:
        return math.prod(_norm3(self.beta_vec))

    @functools.cached_property
    def gamma(self) -> float:
        return 1.0 / math.sqrt(1.0 - self.beta**2)

    @functools.cached_property
    def m(self) -> float:
        return self.m0 / math.sqrt(1.0 - self.beta_v**2)

    @functools.cached_property
    def W(self) -> float:
        try:
            return self.m * self.c**2
        except OverflowError:
            raise InvalidParams(f"c^2 overflows for c = {self.c!r}") from None

    @functools.cached_property
    def laplacian_coeff(self) -> float:
        """c^2 hbar^2 / 2W = hbar^2 / 2m, the Laplacian's coefficient in
        schrodinger_operator, taken without c^2, which may underflow."""
        return self.hbar**2 / (2.0 * self.m)

    @functools.cached_property
    def nonrel_laplacian_coeff(self) -> float:
        """hbar^2 / 2 m0, the Laplacian's coefficient in nonrel_schrodinger_operator."""
        return self.hbar**2 / (2 * self.m0)

    @functools.cached_property
    def P(self) -> tuple[float, float, float]:
        return tuple(self.m * u for u in self.v)

    @functools.cached_property
    def beta_v_prime(self) -> float:
        """The boosted particle speed over c.  The closed form's radicand
        b^2 (1 - beta_v^2) + beta_v^2 - 2 b beta_x + b^2 beta_x^2 is taken as
        the equal sum of squares (beta_x - b)^2 + (1 - b^2)(beta_y^2 + beta_z^2),
        which does not cancel near v = (V, 0, 0), and its root by _norm3."""
        b, (bx, by, bz) = self.beta, self.beta_vec
        r = math.sqrt(1 - b * b)
        return math.prod(_norm3((bx - b, r * by, r * bz))) / (1 - b * bx)

    def as_dict(self) -> dict:
        return {
            "V": self.V,
            "v_x": self.v[0],
            "v_y": self.v[1],
            "v_z": self.v[2],
            "c": self.c,
            "hbar": self.hbar,
            "m0": self.m0,
            "W": self.W,
            "beta_v_prime": self.beta_v_prime,
        }


@dataclass(frozen=True)
class MaxwellTransform:
    """Field-transform data: amplitude parameter kappa, mixing parameter
    e23 (the d of the composition law), the paper's own h23 (eq29 has
    h23 = -e23), and the scalar weight function phi_D."""

    kappa: float
    e23: float
    h23: float
    phi_D: ExpPoly

    @classmethod
    def from_params(cls, p: DalembertParams) -> "MaxwellTransform":
        nx = p.n[0]
        if abs(nx) >= 1.0 - 1e-6:
            raise DegenerateDirection(
                f"|n_x| = {abs(nx):.8f} too close to 1; transform parameters singular"
            )
        lam = p.lam
        kappa = (nx * (p.beta - nx) + lam) / (1.0 - nx * nx)
        e23 = (nx * (lam - 1.0) + p.beta) / (nx * (p.beta - nx) + lam)
        h23 = -(nx * (lam - 1.0) + p.beta) / (nx * (p.beta - nx) + lam)
        return cls(kappa=kappa, e23=e23, h23=h23, phi_D=dalembert_weight(p))


# ---------------------------------------------------------------------------
# wave-equation building blocks (x0 = c t); the operators that depend on no
# parameter are built once and shared, which their immutability allows


@functools.cache
def wave_operator() -> LinDiffOp:
    """The d'Alembertian d0^2 - d1^2 - d2^2 - d3^2."""
    return (
        LinDiffOp.partial(0, 2)
        - LinDiffOp.partial(1, 2)
        - LinDiffOp.partial(2, 2)
        - LinDiffOp.partial(3, 2)
    )


@functools.cache
def laplacian() -> LinDiffOp:
    return LinDiffOp.partial(1, 2) + LinDiffOp.partial(2, 2) + LinDiffOp.partial(3, 2)


@functools.cache
def h1_generator() -> LinDiffOp:
    """H1 = x0 d1, the shear generating the Galilei boost."""
    return LinDiffOp([((0, 1, 0, 0), ExpPoly.coordinate(0))])


@functools.cache
def boost_generator() -> LinDiffOp:
    """M01 = x0 d1 + x1 d0 in upper-index coordinates (cosh/sinh flow)."""
    return LinDiffOp(
        [((0, 1, 0, 0), ExpPoly.coordinate(0)), ((1, 0, 0, 0), ExpPoly.coordinate(1))]
    )


def plane_wave(p: DalembertParams) -> ExpPoly:
    """exp(-i k.x) with k.x = omega (t - n.x/c), written on x0 = c t."""
    w = p.omega / p.c
    kappa = (-1j * w, 1j * w * p.n[0], 1j * w * p.n[1], 1j * w * p.n[2])
    return ExpPoly.exponential(1.0, kappa)


def dalembert_weight(p: DalembertParams) -> ExpPoly:
    """The scalar boost weight, a single exponential.

    Exponent: -(i/lam) [ (1-lam) k.x - beta omega (n_x t - x1/c) ] with
    k.x = omega(t - n.x/c), rewritten on x0 = c t.
    """
    lam, w = p.lam, p.omega / p.c
    nx, ny, nz = p.n
    k0 = -1j * w / lam * ((1.0 - lam) - p.beta * nx)
    k1 = 1j * w / lam * ((1.0 - lam) * nx - p.beta)
    k2 = 1j * w / lam * (1.0 - lam) * ny
    k3 = 1j * w / lam * (1.0 - lam) * nz
    return ExpPoly.exponential(1.0, (k0, k1, k2, k3))


def galilei_map(p: DalembertParams) -> detsolve.AffineMap:
    """t' = t, x1' = x1 - beta x0, with the primed time axis scaled by
    c' = lam c (so x0' = lam x0)."""
    A = np.eye(4)
    A[0, 0] = p.lam
    A[1, 0] = -p.beta
    return detsolve.AffineMap(A, np.zeros(4))


def dalembert_engaging_operator(p: DalembertParams) -> LinDiffOp:
    """(d0 + beta d1)^2 / lam^2 - laplacian: the boosted wave operator."""
    d = LinDiffOp.partial(0) + p.beta * LinDiffOp.partial(1)
    return (1.0 / p.lam**2) * d.compose(d) - laplacian()


def _single_term(f: ExpPoly, label: str) -> ExpTerm:
    """The lone term of a single pure exponential c exp(kappa . x)."""
    if len(f.terms) != 1 or sum(f.terms[0].alpha) != 0:
        raise NotSingleExponential(f"{label} is not a single pure exponential")
    return f.terms[0]


def _exp_quotient(num: ExpPoly, den: ExpPoly) -> ExpPoly:
    """Quotient of two single pure exponentials, exact on covectors."""
    tn, td = _single_term(num, "numerator"), _single_term(den, "denominator")
    return ExpPoly.exponential(
        tn.coeff / td.coeff, tuple(a - b for a, b in zip(tn.kappa, td.kappa))
    )


def infer_weight(phi_primed: ExpPoly, amap: detsolve.AffineMap, phi: ExpPoly) -> ExpPoly:
    """Recover the weight Phi(x) = phi_primed(amap(x)) / phi(x).

    Both inputs must be single-term pure exponentials; the quotient is then
    again a single exponential, computed exactly on covectors.
    """
    _single_term(phi_primed, "phi_primed")
    return _exp_quotient(phi_primed.substitute_affine(amap.A, amap.b), phi)


def _limit_gap(f: ExpPoly, e: ExpPoly, reach: float) -> float:
    """|a - b| + |a| max_j |kappa_f,j - kappa_e,j| reach for single terms
    f = a exp(kappa_f . x) and e = b exp(kappa_e . x); a zero term has a = 0.

    To first order in the covector gap this measures |f - e| over |x| <= reach.
    Callers take reach = c/omega, one reduced wavelength, and covectors
    proportional to omega/c, so the gap does not depend on omega.
    """
    terms = [_single_term(t, "limit term") for t in (f, e) if t.terms]
    if len(terms) < 2:
        return max(f.max_coeff(), e.max_coeff())  # |a - b| with a or b zero
    tf, te = terms
    spread = max(abs(x - y) for x, y in zip(tf.kappa, te.kappa))
    return abs(tf.coeff - te.coeff) + abs(tf.coeff) * spread * reach


def _halving_ratio_residual(dev) -> float:
    """max |dev(b)/dev(b/2) - 2| over the standard beta triple.

    dev: callable beta -> non-negative deviation, expected linear in beta.
    """
    values = [dev(b) for b in LIMIT_BETAS]
    worst = 0.0
    for big, small in zip(values, values[1:]):
        if big < 1e-14 and small < 1e-14:
            continue  # identically zero: linear scaling holds trivially
        worst = max(worst, abs(big / small - 2.0))
    return worst


# ---------------------------------------------------------------------------
# wave-equation suite


def run_dalembert(p: DalembertParams) -> ScenarioReport:
    """Verify the Galilei-boost identities of the wave equation."""
    box = wave_operator()
    phi = plane_wave(p)
    weight = dalembert_weight(p)
    weighted = weight * phi
    # the weighted wave is the boosted plane wave pulled back to unprimed
    # coordinates, and the weight inferred from that boosted wave matches
    primed = plane_wave(boosted_params(p, 0.0))
    g = galilei_map(p)

    def weight_deviation(beta: float) -> float:
        q = dataclasses.replace(p, beta=beta)
        return _limit_gap(dalembert_weight(q), ExpPoly.constant(1), q.c / q.omega)

    checks = (
        _check("eq16_ad2_H1", "eq16", ad_power(box, h1_generator(), 2), IDENTITY_TOL),
        _check("eq15_wave_on_shell", "eq14,eq15", box.apply(phi), IDENTITY_TOL),
        _check("eq17_engaging_weighted_wave", "eq17,eq18",
               dalembert_engaging_operator(p).apply(weighted), DALEMBERT_ENGAGING_TOL),
        _check("eq19_weighted_wave_single_exponential", "eq19",
               weighted - primed.substitute_affine(g.A, g.b), IDENTITY_TOL),
        _check("eq19_primed_covector_match", "eq13,eq18,eq19",
               infer_weight(primed, g, phi) - weight, 1e-10),
        _check("eq18_weight_limit_linear_scaling", "eq18 limit",
               _halving_ratio_residual(weight_deviation), SCALING_TOL),
    )
    return ScenarioReport("dalembert-galilei", p.as_dict(), checks)


# ---------------------------------------------------------------------------
# Schrodinger building blocks (x0 = t)


def schrodinger_operator(p: SchrodingerParams) -> LinDiffOp:
    """i hbar d_t + (c^2 hbar^2 / 2W) laplacian, with W = m c^2."""
    return (1j * p.hbar) * LinDiffOp.partial(0) + p.laplacian_coeff * laplacian()


def psi1(p: SchrodingerParams) -> ExpPoly:
    """exp[-(i/hbar)((beta_v^2/2) W t - P.x)]."""
    k0 = -1j / p.hbar * (p.beta_v**2 / 2.0) * p.W
    ks = tuple(1j / p.hbar * pc for pc in p.P)
    return ExpPoly.exponential(1.0, (k0, *ks))


def psi2(p: SchrodingerParams) -> ExpPoly:
    """exp[-(i/hbar)(W t - sqrt(2) P.x / beta_v)]."""
    k0 = -1j / p.hbar * p.W
    ks = tuple(1j / p.hbar * _SQRT2 * pc / p.beta_v for pc in p.P)
    return ExpPoly.exponential(1.0, (k0, *ks))


def schrodinger_engaging_operator(p: SchrodingerParams) -> LinDiffOp:
    """The boosted Schrodinger operator, transcribed term by term:

    i hbar (d_t + V d_x)
      + [c^2 hbar^2 (1 - V^2/c^2) / (2 W (1 - V v_x / c^2))]
        * [ (d_x + V d_t / c^2)^2 / (1 - V^2/c^2) + d_yy + d_zz ]
    """
    b2 = p.beta**2
    denom = 1.0 - p.V * p.v[0] / p.c**2
    first = (1j * p.hbar) * (LinDiffOp.partial(0) + p.V * LinDiffOp.partial(1))
    mixed = LinDiffOp.partial(1) + (p.V / p.c**2) * LinDiffOp.partial(0)
    bracket = (1.0 / (1.0 - b2)) * mixed.compose(mixed) + LinDiffOp.partial(2, 2) + LinDiffOp.partial(3, 2)
    pref = p.hbar**2 * (1.0 - b2) / (2.0 * p.m * denom)  # c^2 / W = 1 / m
    return first + pref * bracket


def psi11_weight(p: SchrodingerParams) -> ExpPoly:
    """The closed-form weight for psi1, transcribed verbatim."""
    b, bx = p.beta, p.beta_vec[0]
    bv, bvp = p.beta_v, p.beta_v_prime
    pref = -1j * p.W / (2.0 * p.hbar * (1.0 - b * b))
    k0 = pref * (bvp**2 - 2 * b * b - bv * bv * (1 - b * b) - b * bx * (bvp**2 - 2))
    k1 = pref * (-(bvp**2 - 2) * (b - b * b * bx)) / p.c
    return ExpPoly.exponential(1.0, (k0, k1, 0j, 0j))


def psi22_weight_printed(p: SchrodingerParams) -> ExpPoly:
    """The closed-form weight for psi2, transcribed verbatim.

    This expression is reproduced exactly as catalogued; its engaging residual
    is reported as measured (check eq23_engaging_psi22_as_printed) rather
    than corrected.  See psi_weight_via_transform(p, psi2) for the
    reconstruction.
    """
    b, bx, by, bz = p.beta, *p.beta_vec
    bv, bvp = p.beta_v, p.beta_v_prime
    pref = -1j * p.W / (2.0 * p.hbar * (1.0 - b * b))
    gap = 1.0 / bv - 1.0 / bvp
    k0 = pref * (1 - _SQRT2 / bvp) * (b * b - b * bx)
    k1 = pref * ((1 - _SQRT2 / bvp) * (b * b * bx - b) + _SQRT2 * bx * gap) / p.c
    k2 = pref * _SQRT2 * (1 - b * b) * gap * by / p.c
    k3 = pref * _SQRT2 * (1 - b * b) * gap * bz / p.c
    return ExpPoly.exponential(1.0, (k0, k1, k2, k3))


def lorentz_map(p: SchrodingerParams) -> detsolve.AffineMap:
    """t' = gamma (t - V x/c^2), x' = gamma (x - V t) on (x0=t, x1, x2, x3)."""
    g, V, c = p.gamma, p.V, p.c
    A = np.eye(4)
    A[0, 0] = g
    A[0, 1] = -g * V / c**2
    A[1, 0] = -g * V
    A[1, 1] = g
    return detsolve.AffineMap(A, np.zeros(4))


def boosted_particle(p: SchrodingerParams) -> SchrodingerParams:
    """Particle parameters in the boosted frame (velocity addition)."""
    denom = 1.0 - p.V * p.v[0] / p.c**2
    vpx = (p.v[0] - p.V) / denom
    vpy = p.v[1] / (p.gamma * denom)
    vpz = p.v[2] / (p.gamma * denom)
    return SchrodingerParams(V=0.0, v=(vpx, vpy, vpz), c=p.c, hbar=p.hbar, m0=p.m0)


def psi_weight_via_transform(
    p: SchrodingerParams, psi: Callable[[SchrodingerParams], ExpPoly]
) -> ExpPoly:
    """Weight reconstructed as (boosted solution o lorentz map) / solution,
    for the solution psi1 or psi2."""
    return infer_weight(psi(boosted_particle(p)), lorentz_map(p), psi(p))


def nonrel_schrodinger_operator(p: SchrodingerParams) -> LinDiffOp:
    """i hbar d_t + (hbar^2 / 2 m0) laplacian."""
    return (1j * p.hbar) * LinDiffOp.partial(0) + p.nonrel_laplacian_coeff * laplacian()


def psi1_nonrel_limit(p: SchrodingerParams) -> ExpPoly:
    """exp[-i(E t - p.x)/hbar] with E = m0 v^2/2, p = m0 v."""
    vsq = sum(u * u for u in p.v)
    k0 = -1j / p.hbar * (p.m0 * vsq / 2.0)
    ks = tuple(1j / p.hbar * p.m0 * u for u in p.v)
    return ExpPoly.exponential(1.0, (k0, *ks))


def psi2_nonrel_limit(p: SchrodingerParams) -> ExpPoly:
    """exp[-i(m0 c^2/hbar)(t - sqrt(2) s.x / c)] with s = v/|v|."""
    scale, norm = _norm3(p.v)
    s = tuple(u / scale / norm for u in p.v)
    k0 = -1j * p.m0 * p.c**2 / p.hbar
    ks = tuple(1j * p.m0 * p.c * _SQRT2 * sc / p.hbar for sc in s)
    return ExpPoly.exponential(1.0, (k0, *ks))


def run_schrodinger(p: SchrodingerParams) -> ScenarioReport:
    """Verify the Lorentz-boost identities of the Schrodinger operator.

    The catalogued closed form for the psi2 weight does not satisfy the
    engaging identity (the residual is far above rounding); the suite reports
    that check as measured and verifies the transform-reconstructed weight
    alongside it.
    """
    ls = schrodinger_operator(p)
    s1, s2 = psi1(p), psi2(p)
    engaging = schrodinger_engaging_operator(p)
    w11 = psi11_weight(p)
    w22_printed = psi22_weight_printed(p)
    w11_via = psi_weight_via_transform(p, psi1)
    w22_via = psi_weight_via_transform(p, psi2)
    # cross weights are defined by covector arithmetic; both routes must agree
    w12 = _exp_quotient(w11 * s1, s2)
    w21 = _exp_quotient(w22_printed * s2, s1)
    limit_op = nonrel_schrodinger_operator(p)

    checks = (
        _check("eq21_dispersion_psi1", "eq20,eq21", ls.apply(s1), IDENTITY_TOL),
        _check("eq21_dispersion_psi2", "eq20,eq21", ls.apply(s2), IDENTITY_TOL),
        _check("eq22_ad2_M01", "eq22", ad_power(ls, boost_generator(), 2), IDENTITY_TOL),
        _check("eq23_engaging_psi11", "eq23,eq24", engaging.apply(w11 * s1),
               SCHRODINGER_ENGAGING_TOL),
        _check("eq23_engaging_psi22_as_printed", "eq23,eq24",
               engaging.apply(w22_printed * s2), SCHRODINGER_ENGAGING_TOL),
        _check("eq23_engaging_psi22_via_transform", "eq13,eq23",
               engaging.apply(w22_via * s2), SCHRODINGER_ENGAGING_TOL),
        _check("eq24_cross_weight_psi12", "eq24,eq25", w12 * s2 - w11 * s1, IDENTITY_TOL),
        _check("eq24_cross_weight_psi21", "eq24,eq25", w21 * s1 - w22_printed * s2, IDENTITY_TOL),
        _check("eq20_nonrel_limit_psi1", "eq20 limit",
               limit_op.apply(psi1_nonrel_limit(p)), LIMIT_TOL),
        _check("eq21_nonrel_limit_psi2", "eq21 limit",
               limit_op.apply(psi2_nonrel_limit(p)), LIMIT_TOL),
    )
    info = {
        "psi11_printed_vs_transform_covector_gap": _covector_gap(w11, w11_via),
        "psi22_printed_vs_transform_covector_gap": _covector_gap(w22_printed, w22_via),
    }
    return ScenarioReport("schrodinger-lorentz", p.as_dict(), checks, info)


def _covector_gap(a: ExpPoly, b: ExpPoly) -> float:
    ta, tb = _single_term(a, "printed weight"), _single_term(b, "transform weight")
    return max(
        max(abs(x - y) for x, y in zip(ta.kappa, tb.kappa)), abs(ta.coeff - tb.coeff)
    )


# ---------------------------------------------------------------------------
# Maxwell building blocks (x0 = c t)


def maxwell_operator(time_op: LinDiffOp | None = None) -> MatrixDiffOp:
    """The free Maxwell system as an 8x6 first-order operator.

    Row order: div E; (curl H - T E)_xyz; div H; (curl E + T H)_xyz, acting on
    fields (E1, E2, E3, H1, H2, H3).  T defaults to d0 (i.e. (1/c) d_t on
    x0 = c t); the boosted system passes T = (d0 + beta d1)/lam instead.
    The default system is built once and shared.
    """
    if time_op is None:
        return _free_maxwell_operator()
    T = time_op
    z = LinDiffOp.zero()
    d1, d2, d3 = (LinDiffOp.partial(a) for a in (1, 2, 3))
    mT = -1.0 * T
    rows = [
        [d1, d2, d3, z, z, z],
        [mT, z, z, z, -1.0 * d3, d2],
        [z, mT, z, d3, z, -1.0 * d1],
        [z, z, mT, -1.0 * d2, d1, z],
        [z, z, z, d1, d2, d3],
        [z, -1.0 * d3, d2, T, z, z],
        [d3, z, -1.0 * d1, z, T, z],
        [-1.0 * d2, d1, z, z, z, T],
    ]
    return MatrixDiffOp(rows)


@functools.cache
def _free_maxwell_operator() -> MatrixDiffOp:
    return maxwell_operator(LinDiffOp.partial(0))


MAXWELL_ROW_NAMES = (
    "div_e",
    "ampere_x",
    "ampere_y",
    "ampere_z",
    "div_h",
    "faraday_x",
    "faraday_y",
    "faraday_z",
)


def maxwell_primed_operator(p: DalembertParams) -> MatrixDiffOp:
    """Boosted system: spatial rows unchanged, time derivative replaced by
    (d0 + beta d1)/lam (the map t'=t, x'=x-Vt with c' = lam c)."""
    T = (1.0 / p.lam) * (LinDiffOp.partial(0) + p.beta * LinDiffOp.partial(1))
    return maxwell_operator(T)


def polarization(p: DalembertParams, angle: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """A transverse polarization pair (l, m = n x l), rotated by angle about n."""
    if not math.isfinite(angle):
        raise InvalidParams("the polarization angle must be finite")
    n = np.array(p.n)
    ref = np.zeros(3)
    ref[int(np.argmin(np.abs(n)))] = 1.0
    l0 = ref - (ref @ n) * n
    l0 /= np.linalg.norm(l0)
    l = math.cos(angle) * l0 + math.sin(angle) * np.cross(n, l0)
    return l, np.cross(n, l)


def plane_fields(p: DalembertParams, l: Sequence[float], m: Sequence[float]) -> list[ExpPoly]:
    """(E, H) = (l, m) exp(-i k.x) as six component functions."""
    phi = plane_wave(p)
    return [float(a) * phi for a in (*l, *m)]


def transform_fields(fields: Sequence[ExpPoly], t: MaxwellTransform) -> list[ExpPoly]:
    """Apply the boost field map to (E1, E2, E3, H1, H2, H3)."""
    e1, e2, e3, h1, h2, h3 = fields
    w, k = t.phi_D, t.kappa
    e32, h32 = -t.e23, t.e23  # eq29
    return [
        w * e1,
        k * (w * (e2 + t.h23 * h3)),
        k * (w * (e3 + h32 * h2)),
        w * h1,
        k * (w * (h2 + t.e23 * e3)),
        k * (w * (h3 + e32 * e2)),
    ]


def _dot(fields_a: Sequence[ExpPoly], fields_b: Sequence[ExpPoly]) -> ExpPoly:
    acc: dict = {}
    for a, b in zip(fields_a, fields_b):
        _add_products(acc, a.terms, b.terms, 1)
    return ExpPoly._from(acc)


def _coeff_inner(rows_a: Sequence[ExpPoly], rows_b: Sequence[ExpPoly]) -> complex:
    """sum of conj(a) * b over the coefficients of the terms (alpha, kappa)
    that a row of rows_a and the same row of rows_b share."""
    total = 0j
    for a, b in zip(rows_a, rows_b):
        coeffs = {(t.alpha, t.kappa): t.coeff for t in b.terms}
        total += sum(t.coeff.conjugate() * coeffs.get((t.alpha, t.kappa), 0) for t in a.terms)
    return total


def run_maxwell(p: DalembertParams, angle: float = 0.0) -> ScenarioReport:
    """Verify the Galilei-boost identities of the free Maxwell system."""
    transform = MaxwellTransform.from_params(p)  # raises DegenerateDirection
    l, m = polarization(p, angle)
    fields = plane_fields(p, l, m)
    primed = maxwell_primed_operator(p)
    primed_fields = transform_fields(fields, transform)
    primed_rows = primed.apply(primed_fields)

    # eq29: h23 enters the primed fields only as kappa Phi_D h23 H3 in E2, so
    # the primed rows R lie along P G, G = kappa Phi_D phi in E2, with weight
    # (h23 - h23 of eq29) H3 / phi; G uses phi, not H3, so that a small H3
    # amplitude does not amplify rounding
    g = transform.kappa * (transform.phi_D * plane_wave(p))
    along = [row[1].apply(g) for row in primed.rows]  # P G: column E2 of P
    norm, top = _coeff_inner(along, along).real, 1.0
    if not sys.float_info.min <= norm < math.inf:  # omega/c far from 1
        # as in _norm3: P G over its largest coefficient, that factor out of the quotient
        top = _magnitude(along)
        along = [ExpPoly(ExpTerm(t.coeff / top, t.alpha, t.kappa) for t in a.terms) for a in along]
        norm = _coeff_inner(along, along).real
    h23_defect = abs(_coeff_inner(along, primed_rows)) / norm / top / max(1.0, abs(transform.h23))
    e_p, h_p = primed_fields[:3], primed_fields[3:]

    def field_deviation(beta: float) -> float:
        q = dataclasses.replace(p, beta=beta)
        tq = MaxwellTransform.from_params(q)
        f = plane_fields(q, l, m)
        fp = transform_fields(f, tq)
        e, h = f[:3], f[3:]
        # boost velocity is (beta, 0, 0): beta x H = (0, -beta H3, beta H2)
        expect = [
            e[0],
            e[1] - beta * h[2],
            e[2] + beta * h[1],
            h[0],
            h[1] + beta * e[2],
            h[2] - beta * e[1],
        ]
        return max(_limit_gap(a, b, q.c / q.omega) for a, b in zip(fp, expect))

    checks = (
        _check("eq27_wave_solves_maxwell", "eq26,eq27", maxwell_operator().apply(fields),
               IDENTITY_TOL),
        _check("eq29_sign_relations", "eq29", h23_defect, IDENTITY_TOL),
        *(_check(f"eq26_engaging_{name}", "eq26,eq28,eq29", row, MAXWELL_ENGAGING_TOL)
          for name, row in zip(MAXWELL_ROW_NAMES, primed_rows)),
        _check("eq28_invariant_e_dot_h", "eq28", _dot(e_p, h_p), IDENTITY_TOL),
        _check("eq28_invariant_e2_minus_h2", "eq28", _dot(e_p, e_p) - _dot(h_p, h_p),
               IDENTITY_TOL),
        _check("eq28_nonrel_field_limit_scaling", "eq28 limit",
               _halving_ratio_residual(field_deviation), SCALING_TOL),
    )

    # informational: the quadratic forms compared off shell (arbitrary
    # amplitudes, no transversality), against the kappa^2 Phi^2 scaling
    off = [float(a) * plane_wave(p) for a in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)]
    off_p = transform_fields(off, transform)
    scale = transform.kappa**2 * transform.phi_D * transform.phi_D
    info = {
        "offshell_e_dot_h_gap_vs_kappa2": (
            _dot(off_p[:3], off_p[3:]) - scale * _dot(off[:3], off[3:])
        ).max_coeff(),
        "offshell_e2_minus_h2_gap_vs_kappa2": (
            (_dot(off_p[:3], off_p[:3]) - _dot(off_p[3:], off_p[3:]))
            - scale * (_dot(off[:3], off[:3]) - _dot(off[3:], off[3:]))
        ).max_coeff(),
    }

    params = p.as_dict()
    params.update(
        {
            "kappa_param": transform.kappa,
            "e23": transform.e23,
            "h23": transform.h23,
            "d": transform.e23,
            "polarization_angle": angle,
        }
    )
    return ScenarioReport("maxwell-galilei", params, checks, info)


# ---------------------------------------------------------------------------
# composition of two boosts


def boosted_params(p: DalembertParams, beta2: float) -> DalembertParams:
    """The second boost's parameters, expressed in the boosted frame."""
    lam = p.lam
    n_prime = ((p.n[0] - p.beta) / lam, p.n[1] / lam, p.n[2] / lam)
    return DalembertParams(beta=beta2, n=n_prime, omega=lam * p.omega, c=lam * p.c)


def check_composition(p1: DalembertParams, beta2: float) -> ScenarioReport:
    """Verify the composition laws for two successive boosts: p1 the first
    (frame K to K'), beta2 the velocity of the second (K' to K'') in K'
    units, whose direction, frequency and speed follow (boosted_params)."""
    p2 = boosted_params(p1, beta2)
    combined = dataclasses.replace(p1, beta=p1.beta + p1.lam * beta2)
    t1 = MaxwellTransform.from_params(p1)
    t2 = MaxwellTransform.from_params(p2)
    t12 = MaxwellTransform.from_params(combined)
    g1 = galilei_map(p1)
    w2_pulled = t2.phi_D.substitute_affine(g1.A, g1.b)

    checks = (
        _check("eq30_weight_composition", "eq30",
               t12.phi_D - w2_pulled * t1.phi_D, COMPOSITION_TOL),
        _check("eq30_d_composition", "eq30",
               abs(t12.e23 - compose_d_parameters(t1.e23, t2.e23)), COMPOSITION_TOL),
        _check("eq30_kappa_composition", "eq30",
               abs(t12.kappa - t2.kappa * t1.kappa * (1.0 + t2.e23 * t1.e23)),
               COMPOSITION_TOL),
    )
    params = p1.as_dict()
    params.update({"beta2": beta2, "beta_combined": combined.beta})
    return ScenarioReport("composition", params, checks)


def compose_d_parameters(d1: float, d2: float) -> float:
    """The scalar composition law d'' = (d' + d)/(1 + d'd)."""
    return (d2 + d1) / (1.0 + d2 * d1)


# ---------------------------------------------------------------------------
# full linear-group sweep


# the 20 linear-group generators x^alpha d^delta by their (delta, alpha) key:
# the four translations p{a} = d_a and the sixteen maps g{a}{b} = x^a d_b
IGL_GENERATORS = {
    **{f"p{a}": (_UNIT[a], ZERO_ALPHA) for a in range(4)},
    **{f"g{a}{b}": (_UNIT[b], _UNIT[a]) for a in range(4) for b in range(4)},
}

# their operators x^alpha d^delta, in that order, built once and shared
IGL_OPERATORS = tuple(LinDiffOp([(delta, ExpPoly([ExpTerm(1 + 0j, alpha)]))])
                      for delta, alpha in IGL_GENERATORS.values())


def run_igl_sweep() -> ScenarioReport:
    """All 40 commutator identities behind the maximal linear symmetry group:
    translations at order 1 and the 16 linear generators x^a d_b at order 2,
    against both the wave and the default Schrodinger operator."""
    checks = tuple(
        _check(f"eq31_{op_name}_{name}", "eq31", ad_power(build(), g, 1 + sum(alpha)), IDENTITY_TOL)
        for op_name, build in SEARCH_OPERATORS.items()
        for (name, (_, alpha)), g in zip(IGL_GENERATORS.items(), IGL_OPERATORS)
    )
    return ScenarioReport("igl-sweep", {"W": SchrodingerParams().W}, checks)


# ---------------------------------------------------------------------------
# generator search


@functools.cache
def _default_schrodinger_operator() -> LinDiffOp:
    return schrodinger_operator(SchrodingerParams())


# the operators a generator search runs on, by the name the CLI offers; each
# is built once and shared
SEARCH_OPERATORS = {
    "box": wave_operator,
    "schrod": _default_schrodinger_operator,
}


def run_generator_search(
    operator: str = "box",
    degree: int = 1,
    p: int = 2,
    zeta_degree: int = 0,
    seed: int = 0,
) -> ScenarioReport:
    """Rediscover symmetry generators from the determining system and verify
    the result against independent observables.  The probe oracle runs before
    the solver, so a probe matrix beyond detsolve.DENSE_BUDGET is refused
    straight after the build, before any SVD."""
    build = SEARCH_OPERATORS.get(operator)
    if build is None:
        names = " or ".join(repr(name) for name in SEARCH_OPERATORS)
        raise InvalidParams(f"unknown operator {operator!r}; use {names}")
    L = build()
    spec = detsolve.AnsatzSpec(degree=degree, p=p, zeta_degree=zeta_degree)
    system = detsolve.build_determining_system(L, spec)
    oracle_dim = detsolve.apply_probe_null_dimension(system, np.random.default_rng(seed))
    basis = detsolve.solve_null_space(system)
    # the null dimension read from the same spectrum at cutoffs x10 and /10
    dims = [basis.dimension_at(detsolve.NULL_TOL * factor) for factor in (10.0, 0.1)]
    # all 20 linear-group generators x^alpha d^delta have ad_L^2 g = 0, so
    # ad_L^p g = 0 at every p >= 2: from there on they must lie in the span
    in_span = (
        (_check("detsolve_igl_generators_in_span", "eq31,sec4",
                basis.projection_residual(system.encode_units(IGL_GENERATORS.values())), 1e-8),)
        if degree >= 1 and p >= 2 else ()
    )

    checks = (
        _check("detsolve_nullspace_dim_matches_oracle", "sec2",
               abs(basis.dimension - oracle_dim), 0.5),
        *in_span,
        _check("detsolve_candidates_reverify", "eq5,eq6",
               basis.reverify_residual, detsolve.REVERIFY_TOL),
        _check("detsolve_dim_stable_under_tol", "sec2",
               max(abs(d - basis.dimension) for d in dims), 0.5),
    )

    params = {
        "operator": operator,
        "degree": degree,
        "p": p,
        "zeta_degree": zeta_degree,
        "null_dimension": basis.dimension,
        "oracle_dimension": oracle_dim,
        "components": len(basis.components),
        "largest_component": list(max(basis.components, key=lambda shape: shape[0] * shape[1])),
        "seed": seed,
    }
    return ScenarioReport("detsolve", params, checks)


# ---------------------------------------------------------------------------
# seeded random parameter draws (shared by the CLI sweeps and the test suite)


def random_dalembert_params(rng: np.random.Generator, max_nx: float | None = None) -> DalembertParams:
    while True:
        direction = rng.normal(size=3)
        norm = np.linalg.norm(direction)
        if norm < 1e-12:
            continue
        n = direction / norm
        if max_nx is not None and abs(n[0]) > max_nx:
            continue
        return DalembertParams(
            beta=float(rng.uniform(-0.9, 0.9)),
            n=tuple(float(v) for v in n),
            omega=float(rng.uniform(0.1, 10.0)),
        )


def random_schrodinger_params(rng: np.random.Generator) -> SchrodingerParams:
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    speed = rng.uniform(0.01, 0.8)
    return SchrodingerParams(
        V=float(rng.uniform(-0.8, 0.8)),
        v=tuple(float(speed * u) for u in direction),
    )


def random_composition_pair(rng: np.random.Generator) -> tuple[DalembertParams, float]:
    """A first boost and a second boost velocity for check_composition."""
    while True:
        p1 = random_dalembert_params(rng, max_nx=0.9)
        beta2 = float(rng.uniform(-0.8, 0.8))
        try:
            MaxwellTransform.from_params(boosted_params(p1, beta2))
            MaxwellTransform.from_params(dataclasses.replace(p1, beta=p1.beta + p1.lam * beta2))
        except InvalidParams:
            continue
        return p1, beta2
