"""The benchmark still runs on the current API.

``perfbench/tracing.py`` patches each traced method in the ``__dict__`` of
the class that defines it, so a refactor that moves such a method to a base
class breaks the benchmark's per-layer run.  One test installs the tracer,
runs one traced call and restores the originals; one runs a stencil
operation and one generator search traced and untraced and compare the
bytes; another runs each workload's warm-up operations and judges them
against their known answers.  All only read perfbench/.
"""

from pathlib import Path

import numpy as np
import pytest

from commsym import detsolve, expcore, gridcheck

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _bound(owner, attr):
    """What the tracer replaces: a class's own attribute or a module's binding."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def test_tracer_installs_and_restores(tracing):
    originals = {(owner, attr): _bound(owner, attr) for _, owner, attr in tracing.ENTRY_POINTS}
    numpy = detsolve.np
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert expcore.ExpPoly.__dict__["__mul__"] is not originals[(expcore.ExpPoly, "__mul__")]
        expcore.ExpPoly.coordinate(0) * expcore.ExpPoly.coordinate(1)
        assert tracer.layer_metrics()["expcore.mul.calls"][0] == 1
    finally:
        tracer.restore()
    for (owner, attr), fn in originals.items():
        assert _bound(owner, attr) is fn, f"{owner.__name__}.{attr} not restored"
    assert detsolve.np is numpy


def test_benchmark_warmup_verdicts_ok(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    for name in workloads.WORKLOADS:
        for op in workloads.warmup_ops(name, np.random.default_rng(0)):
            verdict = op.judge(op.run())
            assert verdict.ok, (name, op.kind, verdict.wrong)


def test_traced_stencil_operation_gives_untraced_bytes(tracing):
    # the per-layer run wraps gridcheck's entry points by name and calls
    # eval_on_grid as (f, grid); a renamed or re-signed one breaks it
    import workloads

    ops = workloads.warmup_ops("stencil-crosscheck", np.random.default_rng(0))
    op = next(op for op in ops if op.kind == "physics")
    untraced = op.run()
    original = gridcheck.eval_on_grid
    tracer = tracing.Tracer()
    try:
        tracer.install()
        traced = op.run()
    finally:
        tracer.restore()
    assert gridcheck.eval_on_grid is original
    assert traced == untraced
    assert tracer.layer_metrics()["gridcheck.eval_on_grid.calls"][0] > 0


def test_traced_generator_search_gives_untraced_bytes(tracing):
    # the tracer counts SVDs through its proxy of detsolve.np, so an SVD
    # called past that binding would read 0 calls
    import workloads

    (op,) = workloads.warmup_ops("generator-search", np.random.default_rng(0))
    untraced = op.run()
    numpy = detsolve.np
    tracer = tracing.Tracer()
    try:
        tracer.install()
        traced = op.run()
    finally:
        tracer.restore()
    assert detsolve.np is numpy
    assert traced == untraced
    assert tracer.layer_metrics()["detsolve.svd.calls"][0] > 0
