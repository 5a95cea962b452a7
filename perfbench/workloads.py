"""The benchmark's workloads: seeded inputs and the operations that run them.

Every parameter is drawn here from the benchmark's own generator, never with
the program's ``random_*`` helpers, so the inputs of a seed stay fixed while
the program changes.  Each workload is a closed loop with one client: an
iterator of *rounds*, each a list of operations run back to back.

An operation has a ``kind`` (its latency class), ``run()``, which does the
program work and returns the output bytes, and ``judge(output)``, which
compares the output with the known answer.
"""

from __future__ import annotations

import json
import math

import numpy as np

from commsym import cli, gridcheck, opalg
from commsym import scenarios as sc
from commsym.expcore import ExpPoly, ExpTerm
from commsym.opalg import LinDiffOp

import oracle

TWO_PI = 2.0 * math.pi

# ROADMAP direction 4: the valid magnitude ranges, as log10 bounds
OMEGA_DECADES = (-3.0, 7.0)
M0_DECADES = (-6.0, 8.0)
# the magnitude range the test suite samples
OMEGA_DEFAULT = (0.1, 10.0)


def _flag(name: str, value) -> str:
    """One ``--name=value`` flag; floats use repr so they parse back exactly."""
    if isinstance(value, tuple):
        return f"--{name}=" + ",".join(repr(v) for v in value)
    return f"--{name}={value!r}"


def _unit3(rng: np.random.Generator, max_nx: float = 1.0) -> tuple[float, float, float]:
    while True:
        d = rng.normal(size=3)
        norm = float(np.linalg.norm(d))
        if norm > 1e-3 and abs(d[0]) / norm <= max_nx:
            return tuple(float(v) / norm for v in d)


def _lam(beta: float, nx: float) -> float:
    return math.sqrt(1.0 - 2.0 * beta * nx + beta * beta)


STRATA = 10


class _Strata:
    """Stratified draws of u in [0, 1): each block of STRATA draws hits every
    stratum once, in a seeded order, so the share of draws in any magnitude
    band varies little from seed to seed."""

    def __init__(self, rng: np.random.Generator):
        self.rng, self.queue = rng, []

    def draw(self) -> float:
        if not self.queue:
            self.queue = [int(k) for k in self.rng.permutation(STRATA)]
        return (self.queue.pop() + float(self.rng.random())) / STRATA


def _log_uniform(u: float, decades: tuple[float, float]) -> float:
    return float(10.0 ** (decades[0] + u * (decades[1] - decades[0])))


# ---------------------------------------------------------------------------
# operations


class CliOp:
    """One ``cli.run(cli.parse_config(argv))`` call with JSON output."""

    def __init__(self, kind: str, argv: list[str], expect: oracle.Expect):
        self.kind, self.argv, self.expect = kind, argv + ["--format=json"], expect

    def run(self) -> bytes:
        status, payload = cli.run(cli.parse_config(self.argv))
        return b"%d\n" % status + payload

    def judge(self, out: bytes) -> oracle.Verdict:
        status, _, payload = out.partition(b"\n")
        return oracle.judge_report(self.expect, int(status), payload)


def _dalembert_draw(rng, omega: float, max_nx: float = 1.0) -> tuple[list[str], dict]:
    beta = float(rng.uniform(-0.9, 0.9))
    n = _unit3(rng, max_nx)
    flags = [_flag("beta", beta), _flag("n", n), _flag("omega", omega), _flag("c", 1.0)]
    return flags, {"beta": beta, "omega": omega, "c": 1.0}


def _composition_draw(rng, omega: float) -> tuple[list[str], dict]:
    # the validity guards of the composition route, with margin: both frames
    # and the combined boost need |beta| < 1 and a non-degenerate n_x
    while True:
        beta = float(rng.uniform(-0.9, 0.9))
        n = _unit3(rng, 0.9)
        beta2 = float(rng.uniform(-0.8, 0.8))
        lam = _lam(beta, n[0])
        nx_primed = (n[0] - beta) / lam
        combined = beta + lam * beta2
        if abs(nx_primed) <= 0.999 and abs(combined) <= 0.99:
            break
    flags = [_flag("beta", beta), _flag("n", n), _flag("omega", omega), _flag("c", 1.0),
             _flag("beta2", beta2)]
    return flags, {"beta": beta, "omega": omega, "c": 1.0, "beta2": beta2}


def verify_sweep(rng: np.random.Generator):
    """Rounds of the four scenario suites; every tenth round adds igl-sweep.

    One round in five draws omega and m0 log-uniform over their full valid
    ranges (stratified across those rounds); the others use the range the
    test suite samples, with m0 = 1.
    """
    omega_strata, m0_strata = _Strata(rng), _Strata(rng)
    r = 0
    while True:
        wide = r % 5 == 4
        if wide:
            omega = _log_uniform(omega_strata.draw(), OMEGA_DECADES)
            m0 = _log_uniform(m0_strata.draw(), M0_DECADES)
        else:
            omega, m0 = float(rng.uniform(*OMEGA_DEFAULT)), 1.0
        ops = []

        flags, echo = _dalembert_draw(rng, omega)
        ops.append(CliOp("dalembert", ["dalembert-galilei", *flags],
                         oracle.Expect("dalembert-galilei", echo, wide)))

        V = float(rng.uniform(-0.8, 0.8))
        speed = float(rng.uniform(0.01, 0.8))
        v = tuple(speed * u for u in _unit3(rng))
        flags = [_flag("V", V), _flag("v", v), _flag("c", 1.0), _flag("hbar", 1.0), _flag("m0", m0)]
        echo = {"V": V, "v_x": v[0], "v_y": v[1], "v_z": v[2], "c": 1.0, "hbar": 1.0, "m0": m0}
        ops.append(CliOp("schrodinger", ["schrodinger-lorentz", *flags],
                         oracle.Expect("schrodinger-lorentz", echo, wide)))

        flags, echo = _dalembert_draw(rng, omega, max_nx=0.95)
        angle = float(rng.uniform(0.0, TWO_PI))
        echo["polarization_angle"] = angle
        ops.append(CliOp("maxwell", ["maxwell-galilei", *flags, _flag("angle", angle)],
                         oracle.Expect("maxwell-galilei", echo, wide)))

        flags, echo = _composition_draw(rng, omega)
        ops.append(CliOp("composition", ["composition", *flags],
                         oracle.Expect("composition", echo, wide)))

        if r % 10 == 9:
            ops.append(CliOp("igl", ["igl-sweep"], oracle.Expect("igl-sweep")))
        yield ops
        r += 1


def _search_op(rng, operator: str, degree: int) -> CliOp:
    seed = int(rng.integers(0, 2**31))
    argv = ["detsolve", f"--operator={operator}", f"--degree={degree}", "--p=2", f"--seed={seed}"]
    echo = {"operator": operator, "degree": degree, "p": 2, "seed": seed}
    return CliOp(f"deg{degree}", argv, oracle.Expect("detsolve", echo, degree=degree))


def generator_search(rng: np.random.Generator):
    """Rounds of generator searches with p = 2: both operators at degrees 1
    and 2, the wave operator at degree 3.  The probe-oracle seed is drawn."""
    while True:
        yield [_search_op(rng, op, deg) for op, deg in
               (("box", 1), ("schrod", 1), ("box", 2), ("schrod", 2), ("box", 3))]


# ---------------------------------------------------------------------------
# stencil cases (library level: no CLI route reaches gridcheck)


def _covector(rng) -> tuple[complex, ...]:
    return tuple(complex(a, b) for a, b in zip(rng.normal(0, 0.5, 4), rng.normal(0, 0.5, 4)))


def _poly_data(rng) -> list:
    """Three terms with fresh random covectors, alpha in {0,1}^4."""
    return [
        (complex(rng.normal(), rng.normal()), tuple(int(v) for v in rng.integers(0, 2, 4)), _covector(rng))
        for _ in range(3)
    ]


def _op_data(rng) -> list:
    """Three terms of order at most 2."""
    out = []
    for _ in range(3):
        delta = [0, 0, 0, 0]
        for _ in range(int(rng.integers(0, 3))):
            delta[int(rng.integers(0, 4))] += 1
        out.append((tuple(delta), _poly_data(rng)))
    return out


def _generator_data(rng, pool) -> list:
    """xi^a d_a + eta with two-term coefficients whose covectors come from a
    small shared pool, so brackets sum the same covectors in many orders."""
    def coeff():
        return [
            (complex(rng.normal(), rng.normal()),
             tuple(int(v) for v in rng.multinomial(int(rng.integers(0, 3)), [0.25] * 4)),
             pool[int(rng.integers(0, len(pool)))])
            for _ in range(2)
        ]
    return [coeff() for _ in range(5)]


def _poly(data) -> ExpPoly:
    return ExpPoly([ExpTerm(c, a, k) for c, a, k in data])


def _op(data) -> LinDiffOp:
    return LinDiffOp([(d, _poly(p)) for d, p in data])


def _l1(x) -> float:
    """Sum of coefficient magnitudes of an ExpPoly or LinDiffOp."""
    if isinstance(x, ExpPoly):
        return sum(abs(t.coeff) for t in x.terms)
    return sum(_l1(c) for _, c in x.terms)


def _kmax(*objs) -> float:
    """max(1, largest |kappa| component) over the terms of polys and operators."""
    k = 1.0
    for x in objs:
        polys = [x] if isinstance(x, ExpPoly) else [c for _, c in x.terms]
        for p in polys:
            for t in p.terms:
                k = max(k, max(abs(v) for v in t.kappa))
    return k


def _term_size(ops, f: ExpPoly, K: float) -> float:
    """Bound on every term of ops[0](ops[1](... f)): the product of the
    coefficient sums, one factor K per derivative."""
    size = _l1(f)
    for op in ops:
        size *= _l1(op) * K ** op.order
    return size


MERGE_REL_TOL = 1e-12


def order_free_max(terms) -> float:
    """Largest coefficient after merging terms with equal alpha and covectors
    equal within MERGE_REL_TOL (relative), in any order.  Reference for the
    sort-order merge of the program's normalization."""
    merged: list[list] = []
    for t in terms:
        scale = max(1.0, max(abs(v) for v in t.kappa))
        for m in merged:
            if m[1] == t.alpha and all(abs(a - b) <= MERGE_REL_TOL * scale for a, b in zip(m[2], t.kappa)):
                m[0] += t.coeff
                break
        else:
            merged.append([t.coeff, t.alpha, t.kappa])
    return max((abs(m[0]) for m in merged), default=0.0)


def _law(name: str, residual, scale: float, out: dict) -> None:
    """Record a law's relative residual, and its order-free value when over bound."""
    rel = residual.max_coeff() / scale
    out[name] = rel
    if not rel <= oracle.LAW_BOUNDS[name]:
        terms = residual.terms if isinstance(residual, ExpPoly) else [
            t for _, c in residual.terms for t in c.terms]
        out[f"{name}_order_free"] = order_free_max(terms) / scale


def _cropped_gap(a: tuple, b: tuple) -> float:
    """max |a - b| for two (values, pad) stencil results on a common interior."""
    (va, pa), (vb, pb) = a, b
    common = [max(x, y) for x, y in zip(pa, pb)]
    def crop(v, pad):
        return v[tuple(slice(c - p, v.shape[i] - (c - p)) for i, (c, p) in enumerate(zip(common, pad)))]
    return float(np.max(np.abs(crop(va, pa) - crop(vb, pb))))


class StencilOp:
    """A library-level case; its output is the JSON of its measured values."""

    def __init__(self, kind: str, compute):
        self.kind, self._compute = kind, compute

    def run(self) -> bytes:
        return json.dumps(self._compute(), sort_keys=True).encode()

    def judge(self, out: bytes) -> oracle.Verdict:
        return oracle.judge_stencil(json.loads(out))


LAWS_GRID = gridcheck.GridSpec(h=1e-2, extent=13)


def _laws_case(rng) -> StencilOp:
    pool = [_covector(rng) for _ in range(2)]
    jac = [_generator_data(rng, pool) for _ in range(3)]
    anti = [_op_data(rng) for _ in range(2)]
    coh = (_op_data(rng), _op_data(rng), _poly_data(rng))

    def compute() -> dict:
        out: dict = {}
        A, B, C = (LinDiffOp.first_order([_poly(c) for c in g[:4]], _poly(g[4])) for g in jac)
        com = opalg.commutator
        total = com(A, com(B, C)) + com(B, com(C, A)) + com(C, com(A, B))
        _law("jacobi", total, max(A.max_coeff(), B.max_coeff(), C.max_coeff(), 1.0) ** 3, out)

        D, E = (_op(d) for d in anti)
        _law("antisymmetry", com(D, E) + com(E, D), max(D.max_coeff() * E.max_coeff(), 1.0), out)

        F, G, f = _op(coh[0]), _op(coh[1]), _poly(coh[2])
        FG = F.compose(G)
        _law("coherence", FG.apply(f) - F.apply(G.apply(f)),
             max(F.max_coeff() * G.max_coeff() * f.max_coeff(), 1.0), out)

        # the same identity by stencils alone: F(G f) against (F.G) f
        chain = gridcheck.fd_chain_values((F, G), f, LAWS_GRID)
        composed = gridcheck.fd_chain_values((FG,), f, LAWS_GRID)
        K, h = _kmax(F, G, f), LAWS_GRID.h
        size = _term_size((F, G), f, K)
        out["fd_coherence"] = _cropped_gap(chain, composed) / (h * h * K * K * size)
        return out

    return StencilOp("laws", compute)


def _physics_case(rng) -> StencilOp:
    beta = float(rng.uniform(-0.9, 0.9))
    n = _unit3(rng)
    omega = float(rng.uniform(*OMEGA_DEFAULT))
    a, b = (int(v) for v in rng.integers(0, 4, 2))

    def compute() -> dict:
        p = sc.DalembertParams(beta=beta, n=n, omega=omega)
        A = sc.dalembert_engaging_operator(p)
        f = sc.dalembert_weight(p) * sc.plane_wave(p)
        K = _kmax(A, f)
        # steps sized to the covector, so every grid resolves the wave
        h = 1e-2 / K
        grid = gridcheck.GridSpec(h=h, extent=9)
        wide = gridcheck.GridSpec(h=h, extent=13)
        size = _term_size((A,), f, K)
        out = {"symbolic_zero": A.apply(f).max_coeff() / size}
        out["fd_apply"] = gridcheck.fd_apply_residual(A, f, grid) / (h * h * K * K * size)
        out["order"] = gridcheck.convergence_order(A, f, grid, [4 * h, 2 * h, h])

        # pure-stencil [box, [box, x^a d_b]] = box box Q - 2 box Q box + Q box box
        box = sc.wave_operator()
        Q = LinDiffOp([(tuple(1 if i == b else 0 for i in range(4)), ExpPoly.coordinate(a))])
        v1, _ = gridcheck.fd_chain_values((box, box, Q), f, wide)
        v2, _ = gridcheck.fd_chain_values((box, Q, box), f, wide)
        v3, _ = gridcheck.fd_chain_values((Q, box, box), f, wide)
        size = _term_size((box, box, Q), f, K)
        out["fd_chain"] = float(np.max(np.abs(v1 - 2 * v2 + v3))) / (h * h * K * K * size)
        return out

    return StencilOp("physics", compute)


def stencil_crosscheck(rng: np.random.Generator):
    """Rounds of one algebra-laws case and two physics cases."""
    while True:
        yield [_laws_case(rng), _physics_case(rng), _physics_case(rng)]


WORKLOADS = {
    "verify-sweep": verify_sweep,
    "generator-search": generator_search,
    "stencil-crosscheck": stencil_crosscheck,
}
# tail latency percentile per workload: the highest that leaves at least ten
# samples beyond it in a 20 s run on the reference machine (about 4000, 20
# and 180 operations), fixed so that the metric means the same on every commit
TAIL_PERCENTILE = {"verify-sweep": 99.0, "generator-search": 50.0, "stencil-crosscheck": 90.0}


def warmup_ops(workload: str, rng: np.random.Generator) -> list:
    """Operations run once before timing: the first round, except that the
    generator search warms up on its cheapest search only."""
    first = next(WORKLOADS[workload](rng))
    return first[:1] if workload == "generator-search" else first
