"""commsym: commutator-based symmetry verification for linear differential
operators on R^4.

The package checks conditions of the form  [L, [L, ... [L, Q] ...]] = zeta L
(p-fold nested commutators) exactly, on a closed class of
exponential-polynomial functions, and ships ready-made verification suites
for the wave equation, the Schrodinger operator and the free Maxwell system
under frame changes, plus a linear solver that rediscovers symmetry
generators from determining systems.
"""

__version__ = "0.1.0"

from .expcore import ExpPoly, ExpTerm, NonFinite
from .opalg import (
    LinDiffOp,
    MatrixDiffOp,
    ShapeMismatch,
    SymmetryCandidate,
    ad_power,
    commutator,
    residual_vs_multiple,
)
from .detsolve import (
    AffineMap,
    AnsatzSpec,
    GeneratorBasis,
    NotClosed,
    SingularMap,
    UnsupportedCoefficient,
    UnsupportedDegree,
    apply_probe_null_dimension,
    build_determining_system,
    flow,
    pullback,
    solve_null_space,
    structure_constants,
)
from .scenarios import (
    CheckResult,
    DalembertParams,
    DegenerateDirection,
    InvalidParams,
    MaxwellTransform,
    NotSingleExponential,
    ScenarioReport,
    SchrodingerParams,
    check_composition,
    infer_weight,
    run_dalembert,
    run_generator_search,
    run_igl_sweep,
    run_maxwell,
    run_schrodinger,
)
from .gridcheck import (
    DegenerateResiduals,
    GridSpec,
    StencilOverrun,
    convergence_order,
    fd_apply_residual,
)

__all__ = [
    "__version__",
    "ExpPoly",
    "ExpTerm",
    "NonFinite",
    "LinDiffOp",
    "MatrixDiffOp",
    "ShapeMismatch",
    "SymmetryCandidate",
    "ad_power",
    "commutator",
    "residual_vs_multiple",
    "AffineMap",
    "AnsatzSpec",
    "GeneratorBasis",
    "NotClosed",
    "SingularMap",
    "UnsupportedCoefficient",
    "UnsupportedDegree",
    "apply_probe_null_dimension",
    "build_determining_system",
    "flow",
    "pullback",
    "solve_null_space",
    "structure_constants",
    "CheckResult",
    "DalembertParams",
    "DegenerateDirection",
    "InvalidParams",
    "MaxwellTransform",
    "NotSingleExponential",
    "ScenarioReport",
    "SchrodingerParams",
    "check_composition",
    "infer_weight",
    "run_dalembert",
    "run_generator_search",
    "run_igl_sweep",
    "run_maxwell",
    "run_schrodinger",
    "DegenerateResiduals",
    "GridSpec",
    "StencilOverrun",
    "convergence_order",
    "fd_apply_residual",
]
