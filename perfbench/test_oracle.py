"""Tests of the benchmark's verdict oracle and tracer.

    python3 -m pytest perfbench
"""

import json

import run

run.import_program()

import numpy as np
import pytest

from commsym import cli, detsolve, opalg, scenarios
from commsym.expcore import ExpTerm

import oracle
import tracing
import workloads


def _cli(argv):
    return cli.run(cli.parse_config(argv + ["--format=json"]))


def _edit(payload: bytes, edit) -> bytes:
    doc = json.loads(payload)
    edit(doc)
    return json.dumps(doc).encode()


SCHROD = oracle.Expect("schrodinger-lorentz", {"V": 0.2, "m0": 1.0})


def test_schrodinger_default_report_matches_known_answer():
    status, payload = _cli(["schrodinger-lorentz"])
    assert oracle.judge_report(SCHROD, status, payload).ok


def test_psi22_passing_is_flagged():
    status, payload = _cli(["schrodinger-lorentz"])

    def psi22_passes(doc):
        for c in doc["checks"]:
            if c["name"] == "eq23_engaging_psi22_as_printed":
                c["pass"] = True
        doc["pass"] = True

    verdict = oracle.judge_report(SCHROD, 0, _edit(payload, psi22_passes))
    assert verdict.wrong == ("eq23_engaging_psi22_as_printed",)
    assert verdict.failed


def test_wide_draw_failures_are_the_scale_defect_but_echo_errors_are_not():
    status, payload = _cli(["dalembert-galilei", "--omega=100000.0"])
    wide = oracle.Expect("dalembert-galilei", {"omega": 1e5}, wide=True)
    verdict = oracle.judge_report(wide, status, payload)
    assert not verdict.ok and verdict.cause == "scale"

    wrong_echo = oracle.Expect("dalembert-galilei", {"omega": 2e5}, wide=True)
    assert oracle.judge_report(wrong_echo, status, payload).failed


@pytest.fixture(scope="module")
def degree1_report():
    return _cli(["detsolve", "--degree=1", "--seed=3"])


def test_detsolve_degree1_matches_known_answer(degree1_report):
    status, payload = degree1_report
    assert oracle.judge_report(oracle.Expect("detsolve", degree=1), status, payload).ok


def test_wrong_null_dimension_is_flagged(degree1_report):
    status, payload = degree1_report

    def bump(doc):
        doc["params"]["null_dimension"] = 26

    verdict = oracle.judge_report(oracle.Expect("detsolve", degree=1), status, _edit(payload, bump))
    assert verdict.wrong == ("null_dimension",)
    assert verdict.failed


def test_oracle_mismatch_alone_is_the_known_oracle_defect(degree1_report):
    _, payload = degree1_report

    def mismatch(doc):
        doc["params"]["oracle_dimension"] = 27
        for c in doc["checks"]:
            if c["name"] == oracle.ORACLE_CHECK:
                c["pass"] = False
        doc["pass"] = False

    verdict = oracle.judge_report(oracle.Expect("detsolve", degree=1), 1, _edit(payload, mismatch))
    assert verdict.cause == "oracle" and not verdict.failed


def test_stencil_verdicts():
    good = {"symbolic_zero": 1e-16, "fd_apply": 0.03, "fd_chain": 1e-7, "order": 2.0}
    assert oracle.judge_stencil(good).ok
    assert oracle.judge_stencil({**good, "order": 1.5}).failed
    assert oracle.judge_stencil({**good, "fd_chain": 40.0}).failed
    # an order measured where the h^2 term is unresolved is not judged
    assert oracle.judge_stencil({**good, "fd_apply": 1e-6, "order": 1.7}).ok
    law = {"jacobi": 1e-3, "jacobi_order_free": 1e-16}
    assert oracle.judge_stencil(law).cause == "merge"
    assert oracle.judge_stencil({"jacobi": 1e-3, "jacobi_order_free": 1e-3}).failed


def test_order_free_merge_cancels_non_neighbours():
    # ROADMAP example: the middle covector sorts between two that cancel
    terms = [
        ExpTerm(1 + 0j, (0, 0, 0, 0), (0j, 5j, 0j, 0j)),
        ExpTerm(0.5 + 0j, (0, 0, 0, 0), (5e-14 + 0j, 3j, 0j, 0j)),
        ExpTerm(-1 + 0j, (0, 0, 0, 0), (1e-13 + 0j, 5j, 0j, 0j)),
    ]
    assert workloads.order_free_max(terms) == 0.5


def test_tracer_patches_every_binding_and_leaves_reports_unchanged():
    argv = ["detsolve", "--degree=1", "--seed=5"]
    untraced = _cli(argv)
    originals = (opalg.ad_power, detsolve.ad_power, scenarios.ad_power, detsolve.np)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert opalg.ad_power is detsolve.ad_power is scenarios.ad_power
        assert opalg.ad_power is not originals[0]
        traced = _cli(argv)
    finally:
        tracer.restore()
    assert (opalg.ad_power, detsolve.ad_power, scenarios.ad_power, detsolve.np) == originals
    assert traced == untraced

    m = tracer.layer_metrics()
    for layer in tracing.LAYERS:
        assert f"{layer}.calls" in m and f"{layer}.self_s" in m
    assert m["scenarios.run_generator_search.calls"][0] == 1
    assert m["detsolve.svd.calls"][0] == 3
    assert m["detsolve.reverify.calls"][0] > 0
    assert m["detsolve.oracle_rows"][0] == 48
    assert m["detsolve.unknowns"][0] == 26
    # self times are durations minus children, so they sum to the root span
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    roots = a["parent"] < 0
    total_self = sum(v for k, (v, _) in m.items() if k.endswith(".self_s")
                     and k != "detsolve.reverify.self_s")
    assert total_self == pytest.approx(float(dur[roots].sum()), rel=1e-9)


def test_same_seed_gives_same_inputs():
    def argvs(seed):
        rounds = workloads.verify_sweep(np.random.default_rng(seed))
        return [op.argv for _ in range(10) for op in next(rounds)]

    assert argvs(4) == argvs(4)
    assert argvs(4) != argvs(5)


def test_printed_metrics_match_benchmark_json(capsys):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        run.main(["--workload", "verify-sweep", "--seed", "1", "--seconds", "0.01",
                  "--trace", str(trace)])
        result = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in spec[key]}
