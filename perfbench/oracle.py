"""Known-answer verdicts for every benchmark operation.

Each operation's output is compared with the answer the mathematics fixes in
advance.  A difference is a *wrong verdict*.  A wrong verdict is attributed
to one of the documented defects of the program when the evidence in the
output matches that defect; otherwise it is unexplained and the operation
counts as failed.

Known defects (see ROADMAP "Known defects"):

- ``oracle``: the apply-probe oracle of ``detsolve`` uses a fixed number of
  rows, so at ansatz degree >= 2 it can report a larger null dimension than
  the SVD route, which is itself correct.
- ``scale``: scenario tolerances are absolute, so draws of large or small
  magnitude (omega, m0 far from 1) fail checks that hold mathematically.
- ``merge``: normalization merges only neighbours in sort order, so a
  residual that should cancel can keep terms; an order-independent merge of
  the same terms cancels it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

# checks that must fail on every valid parameter set: the catalogued psi22
# weight does not satisfy its engaging identity (README, "A documented
# discrepancy")
KNOWN_FAILING = {"schrodinger-lorentz": frozenset({"eq23_engaging_psi22_as_printed"})}

# null-space dimension of the p = 2 determining system, per ansatz degree,
# for both the wave and the Schrodinger operator
NULL_DIMENSION = {1: 25, 2: 46, 3: 46}

ORACLE_CHECK = "detsolve_nullspace_dim_matches_oracle"


@dataclass(frozen=True)
class Verdict:
    """Outcome of one operation against its known answer.

    ``wrong`` names every item whose outcome differs from the known answer;
    ``cause`` is the known defect that explains all of them, or None.
    """

    wrong: tuple[str, ...] = ()
    cause: str | None = None

    @property
    def ok(self) -> bool:
        return not self.wrong

    @property
    def failed(self) -> bool:
        return bool(self.wrong) and self.cause is None


@dataclass(frozen=True)
class Expect:
    """What one CLI operation must report.

    ``params`` are the drawn flag values the report must echo exactly; a
    ``wide`` draw uses the full valid magnitude range of omega and m0.
    """

    scenario: str
    params: dict = field(default_factory=dict)
    wide: bool = False
    degree: int | None = None


def judge_report(expect: Expect, status: int, payload: bytes) -> Verdict:
    """Compare one ``cli.run`` result (exit status, JSON bytes) with its known answer."""
    try:
        doc = json.loads(payload)
        checks = {c["name"]: bool(c["pass"]) for c in doc["checks"]}
        params = doc["params"]
        passed = bool(doc["pass"])
    except (ValueError, KeyError, TypeError):
        return Verdict(("report_unreadable",))

    structural = []
    if doc.get("scenario") != expect.scenario:
        structural.append("scenario")
    for key, value in expect.params.items():
        if params.get(key) != value:
            structural.append(f"param:{key}")
    if passed != all(checks.values()) or status != (0 if passed else 1):
        structural.append("exit_status")

    must_fail = KNOWN_FAILING.get(expect.scenario, frozenset())
    missing = sorted(must_fail - checks.keys())
    wrong_checks = [name for name, ok in checks.items() if ok == (name in must_fail)]

    if expect.scenario == "detsolve":
        if params.get("null_dimension") != NULL_DIMENSION[expect.degree]:
            structural.append("null_dimension")
        wrong = tuple(structural + missing + wrong_checks)
        cause = "oracle" if wrong and set(wrong) == {ORACLE_CHECK} else None
        return Verdict(wrong, cause)

    wrong = tuple(structural + missing + wrong_checks)
    cause = "scale" if wrong and expect.wide and not (structural or missing) else None
    return Verdict(wrong, cause)


# bounds for the library-level stencil cases
LAW_BOUNDS = {"jacobi": 1e-10, "antisymmetry": 1e-10, "coherence": 1e-9}
SYMBOLIC_ZERO_BOUND = 1e-9
ORDER_TARGET, ORDER_SLACK = 2.0, 0.2
# The stencil values are divided by h^2 K^2 S, with K the largest covector
# component (at least 1) and S a bound on every term of the expansion.  The
# leading truncation error of nested central differences is (number of
# derivatives)/6 of that per term, so a correct route stays well below 1
# (measured: below 0.06); a wrong stencil or symbolic route gives ~1/(hK)^2.
STENCIL_BOUND = 1.0
# The slope is judged only when the finest-step residual resolves the h^2
# term; where that coefficient nearly cancels, h^4 terms set the slope.
ORDER_RESOLVED = 1e-3


def judge_stencil(values: dict) -> Verdict:
    """Check the measured values of one stencil case against their bounds.

    ``values`` maps each law to its relative residual, plus for a law over
    its bound the same residual after an order-independent merge of its
    terms (key ``<law>_order_free``); and, for a physics case, the relative
    symbolic zero, the stencil ratios and the convergence order.
    """
    wrong = []
    explained = True
    for law, bound in LAW_BOUNDS.items():
        if law in values and not values[law] <= bound:
            wrong.append(law)
            explained &= values.get(f"{law}_order_free", float("inf")) <= bound
    if "symbolic_zero" in values and not values["symbolic_zero"] <= SYMBOLIC_ZERO_BOUND:
        wrong.append("symbolic_zero")
        explained = False
    for key in ("fd_coherence", "fd_apply", "fd_chain"):
        if key in values and not values[key] <= STENCIL_BOUND:
            wrong.append(key)
            explained = False
    resolved = values.get("fd_apply", 0.0) >= ORDER_RESOLVED
    if "order" in values and resolved and not abs(values["order"] - ORDER_TARGET) <= ORDER_SLACK:
        wrong.append("order")
        explained = False
    return Verdict(tuple(wrong), "merge" if wrong and explained else None)
