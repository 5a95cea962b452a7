"""Command-line front end: run a verification suite, emit a report.

Exit codes: 0 all checks passed, 1 at least one check failed (the report is
still written), 2 configuration or usage error.  Identical configuration and
seed produce byte-identical JSON reports.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from . import __version__
from . import scenarios as sc
from .expcore import NonFinite

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2


class ConfigError(ValueError):
    """Bad flags, unknown keys, or parameters outside the validity guards."""


@dataclass
class RunConfig:
    scenario: str
    overrides: dict = field(default_factory=dict)
    residual_tol: float | None = None
    seed: int = 0
    sweeps: int = 0
    output: str | None = None
    fmt: str = "text"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); raise instead
        raise ConfigError(message)


def _vector3(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated numbers")
    return tuple(float(p) for p in parts)  # type: ignore[return-value]


@dataclass(frozen=True)
class Scenario:
    """One verification suite as the command line sees it.

    ``build`` turns the parsed flags into the suite's arguments, ``draw``
    draws seeded random arguments for ``--sweeps`` (a suite with ``draw``
    also takes ``--residual-tol``), and ``run`` turns either into a report.
    ``run`` looks its suite up in ``scenarios`` at call time, so a function
    replaced on that module (a tracer, a test double) is the one called.
    """

    name: str
    help: str
    flags: tuple[tuple[str, dict], ...]
    build: Callable[[RunConfig], Any]
    run: Callable[[Any], sc.ScenarioReport]
    draw: Callable[[np.random.Generator], Any] | None = None
    sweep_checks: tuple[str, ...] = ()

    def report(self, args, residual_tol: float | None) -> sc.ScenarioReport:
        """The report on args, with residual_tol, if given, bounding the sweep_checks rows."""
        report = self.run(args)
        if residual_tol is not None:
            report = replace(report, checks=tuple(
                replace(c, tol=residual_tol) if c.name in self.sweep_checks else c
                for c in report.checks))
        return report


# flag defaults are read from the library, which has none for --beta and --beta2
def _defaults(fn: Callable) -> dict:
    return {name: q.default for name, q in inspect.signature(fn).parameters.items()}


_SEARCH = _defaults(sc.run_generator_search)


def _wave_flags(beta: float) -> tuple[tuple[str, dict], ...]:
    return (
        ("--beta", dict(type=float, default=beta)),
        ("--n", dict(type=_vector3, default=sc.DalembertParams.n)),
        ("--omega", dict(type=float, default=sc.DalembertParams.omega)),
        ("--c", dict(type=float, default=sc.DalembertParams.c)),
    )


def _wave(ov: dict) -> sc.DalembertParams:
    return sc.DalembertParams(beta=ov["beta"], n=ov["n"], omega=ov["omega"], c=ov["c"])


SCENARIOS = {s.name: s for s in (
    Scenario(
        "dalembert-galilei", "wave equation under a Galilei boost",
        _wave_flags(0.3),
        build=lambda cfg: _wave(cfg.overrides),
        run=lambda p: sc.run_dalembert(p),
        draw=sc.random_dalembert_params,
        sweep_checks=("eq17_engaging_weighted_wave",),
    ),
    Scenario(
        "schrodinger-lorentz", "Schrodinger operator under a Lorentz boost",
        (
            ("--V", dict(type=float, default=sc.SchrodingerParams.V)),
            ("--v", dict(type=_vector3, default=sc.SchrodingerParams.v)),
            ("--c", dict(type=float, default=sc.SchrodingerParams.c)),
            ("--hbar", dict(type=float, default=sc.SchrodingerParams.hbar)),
            ("--m0", dict(type=float, default=sc.SchrodingerParams.m0)),
        ),
        build=lambda cfg: sc.SchrodingerParams(**cfg.overrides),
        run=lambda p: sc.run_schrodinger(p),
        draw=sc.random_schrodinger_params,
        sweep_checks=("eq23_engaging_psi11", "eq23_engaging_psi22_as_printed",
                      "eq23_engaging_psi22_via_transform"),
    ),
    Scenario(
        "maxwell-galilei", "free Maxwell system under a Galilei boost",
        _wave_flags(0.3) + (
            ("--angle", dict(type=float, default=_defaults(sc.run_maxwell)["angle"],
                             help="polarization angle about n")),
        ),
        build=lambda cfg: (_wave(cfg.overrides), cfg.overrides["angle"]),
        run=lambda args: sc.run_maxwell(*args),
        draw=lambda rng: (
            sc.random_dalembert_params(rng, max_nx=0.95),
            float(rng.uniform(0.0, 2.0 * np.pi)),
        ),
        sweep_checks=tuple(f"eq26_engaging_{n}" for n in sc.MAXWELL_ROW_NAMES),
    ),
    Scenario(
        "igl-sweep", "all 40 linear-group commutator identities",
        (),
        build=lambda cfg: None,
        run=lambda _: sc.run_igl_sweep(),
    ),
    Scenario(
        "composition", "composition laws for two successive boosts",
        _wave_flags(0.2) + (
            ("--beta2", dict(type=float, default=0.3, help="second boost, in boosted-frame units")),
        ),
        build=lambda cfg: (_wave(cfg.overrides), cfg.overrides["beta2"]),
        run=lambda args: sc.check_composition(*args),
        draw=sc.random_composition_pair,
        sweep_checks=("eq30_weight_composition", "eq30_d_composition",
                      "eq30_kappa_composition"),
    ),
    Scenario(
        "detsolve", "rediscover generators from the determining system",
        (
            ("--operator", dict(choices=tuple(sc.SEARCH_OPERATORS), default=_SEARCH["operator"])),
            ("--degree", dict(type=int, default=_SEARCH["degree"])),
            ("--p", dict(type=int, default=_SEARCH["p"])),
            ("--zeta-degree", dict(type=int, default=_SEARCH["zeta_degree"])),
            ("--seed", dict(type=int, default=_SEARCH["seed"],
                            help="seed of the apply-probe oracle")),
        ),
        build=lambda cfg: dict(cfg.overrides, seed=cfg.seed),
        run=lambda kwargs: sc.run_generator_search(**kwargs),
    ),
)}


def build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level parser and each scenario's own parser, by name."""
    parser = _Parser(prog="commsym", description=__doc__)
    sub = parser.add_subparsers(dest="scenario", required=True, metavar="SCENARIO")
    scenario_parsers = {}
    for s in SCENARIOS.values():
        sp = scenario_parsers[s.name] = sub.add_parser(s.name, help=s.help)
        for flag, kwargs in s.flags:
            sp.add_argument(flag, **kwargs)
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument("--output", default=None, help="write the report to this path")
        if s.draw is not None:
            sp.add_argument("--residual-tol", type=float, default=None,
                            help="override the engaging-check pass threshold")
            sp.add_argument("--seed", type=int, default=0)
            sp.add_argument("--sweeps", type=int, default=0,
                            help="extra seeded random parameter draws")
    return parser, scenario_parsers


_PARSER, _SCENARIO_PARSERS = build_parser()


def parse_config(argv) -> RunConfig:
    # an argv that starts with a scenario name goes straight to that
    # scenario's parser, which is what the top-level parser would hand it;
    # help, usage errors and unknown scenarios go through the top level
    sp = _SCENARIO_PARSERS.get(argv[0]) if argv else None
    if sp is None:
        data = vars(_PARSER.parse_args(argv))
    else:
        data = vars(sp.parse_args(argv[1:]))
        data["scenario"] = argv[0]
    # a scenario without --residual-tol, --seed or --sweeps gets RunConfig's default
    cfg = RunConfig(data.pop("scenario"), output=data.pop("output"), fmt=data.pop("format"),
                    **{k: data.pop(k) for k in ("residual_tol", "seed", "sweeps") if k in data})
    cfg.overrides = data
    if cfg.sweeps < 0:
        raise ConfigError("--sweeps must be non-negative")
    if cfg.seed < 0:  # numpy's generators reject it, without naming the flag
        raise ConfigError("--seed must be non-negative")
    if cfg.residual_tol is not None and not 0 < cfg.residual_tol < math.inf:
        raise ConfigError("--residual-tol must be finite and positive")
    return cfg


def _sweep_summary(s: Scenario, cfg: RunConfig) -> list[sc.CheckResult]:
    """Max residuals of the engaging checks over seeded random draws."""
    rng = np.random.default_rng(cfg.seed)
    rows: dict[str, sc.CheckResult] = {}
    for _ in range(cfg.sweeps):
        report = s.report(s.draw(rng), cfg.residual_tol)
        for name in s.sweep_checks:
            c = report.check(name)
            if name not in rows or c.residual > rows[name].residual:
                rows[name] = c
    return [
        sc.CheckResult(f"sweep_max_{c.name}", c.paper_ref, c.residual, c.tol)
        for c in rows.values()
    ]


def run(cfg: RunConfig) -> tuple[int, bytes]:
    """Execute the configured scenario; return (exit status, report bytes)."""
    s = SCENARIOS.get(cfg.scenario)
    if s is None:
        raise ConfigError(f"unknown scenario {cfg.scenario!r}")
    try:
        report = s.report(s.build(cfg), cfg.residual_tol)
        if cfg.sweeps:
            report = replace(report, params=dict(report.params, seed=cfg.seed, sweeps=cfg.sweeps),
                             checks=report.checks + tuple(_sweep_summary(s, cfg)))
    except (ValueError, NonFinite, OverflowError) as exc:
        # InvalidParams, DegenerateDirection, bad ansatz degrees or
        # parameters so large that a value overflows: configuration
        # problems, exit 2
        raise ConfigError(f"{type(exc).__name__}: {exc}") from exc

    payload = report_emit(report, cfg.fmt)
    return (EXIT_PASS if report.passed else EXIT_FAIL), payload


# every scalar of a JSON report is encoded in one call of the C encoder, as
# a list whose items are separated by NUL, which the encoder escapes inside
# strings; the indent-2 layout of json.dumps is written around them
_ENCODE_SCALARS = json.JSONEncoder(separators=("\0", ": ")).encode
_CHECK_JSON = (
    '{\n      "name": %s,\n      "paper_ref": %s,\n      "residual": %s,\n'
    '      "tol": %s,\n      "pass": %s\n    }'
)


def _layout(value, newline: str, parts: list[str], scalars: list) -> None:
    """Append the json.dumps(indent=2) layout of value, nested at the indent
    that follows newline, to parts: one %s per scalar, which goes to scalars."""
    if isinstance(value, (dict, list, tuple)):
        if not value:
            parts.append("{}" if isinstance(value, dict) else "[]")
            return
        inner = newline + "  "
        if isinstance(value, dict):
            sep = "{" + inner
            for key, item in value.items():
                scalars.append(key)
                parts.append(sep + "%s: ")
                _layout(item, inner, parts, scalars)
                sep = "," + inner
            parts.append(newline + "}")
        else:
            sep = "[" + inner
            for item in value:
                parts.append(sep)
                _layout(item, inner, parts, scalars)
                sep = "," + inner
            parts.append(newline + "]")
    else:
        parts.append("%s")
        scalars.append(value)


def _sorted(d: dict) -> dict:
    return {k: d[k] for k in sorted(d)}


def report_emit(report: sc.ScenarioReport, fmt: str = "text") -> bytes:
    """Serialize a report; 'json' follows the fixed schema, 'text' is a table.

    The JSON equals json.dumps(doc, indent=2) + "\n" for the schema's doc:
    scenario, params (sorted by their string keys), checks (name,
    paper_ref, residual, tol, pass), pass, engine_version, and info (sorted)
    when there is any.
    """
    if fmt == "json":
        parts = ['{\n  "scenario": %s,\n  "params": ']
        scalars = [report.scenario]
        _layout(_sorted(report.params), "\n  ", parts, scalars)
        if report.checks:
            parts.append(',\n  "checks": [\n    ')
            parts.append(",\n    ".join([_CHECK_JSON] * len(report.checks)))
            parts.append("\n  ]")
            for c in report.checks:
                scalars += (c.name, c.paper_ref, c.residual, c.tol, c.passed)
        else:
            parts.append(',\n  "checks": []')
        parts.append(',\n  "pass": %s,\n  "engine_version": %s')
        scalars += (report.passed, __version__)
        if report.info:
            parts.append(',\n  "info": ')
            _layout(_sorted(report.info), "\n  ", parts, scalars)
        parts.append("\n}\n")
        encoded = _ENCODE_SCALARS(scalars)[1:-1].split("\0")
        return ("".join(parts) % tuple(encoded)).encode()
    if fmt != "text":
        raise ConfigError(f"unknown format {fmt!r}")
    width = max((len(c.name) for c in report.checks), default=4)
    lines = [f"scenario: {report.scenario}"]
    for k in sorted(report.params):
        lines.append(f"  {k} = {report.params[k]}")
    lines.append("")
    lines.append(f"{'check'.ljust(width)}  {'residual':>12}  {'tol':>9}  result  ref")
    for c in report.checks:
        flag = "PASS" if c.passed else "FAIL"
        lines.append(
            f"{c.name.ljust(width)}  {c.residual:12.4e}  {c.tol:9.1e}  {flag:6s}  {c.paper_ref}"
        )
    for k in sorted(report.info):
        lines.append(f"(info) {k} = {report.info[k]:.6e}")
    lines.append("")
    lines.append("overall: " + ("PASS" if report.passed else "FAIL"))
    return ("\n".join(lines) + "\n").encode()


def main(argv=None) -> int:
    try:
        cfg = parse_config(sys.argv[1:] if argv is None else argv)
        status, payload = run(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if cfg.output:
        try:
            with open(cfg.output, "wb") as handle:
                handle.write(payload)
        except OSError as exc:  # a status of 1 would read as a failed check
            reason = exc.strerror or exc
            print(f"error: cannot write report to {cfg.output}: {reason}", file=sys.stderr)
            return EXIT_CONFIG
    else:
        sys.stdout.write(payload.decode())
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
