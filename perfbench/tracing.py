"""Per-layer tracing of commsym from outside the program.

``Tracer.install()`` replaces the public entry points of each module with
wrappers that record one span per call: name, start, end, parent span and
operation id.  Spans live in flat arrays in memory and are written out once,
when the run ends.  A layer's self time is its spans' durations minus the
durations of their direct children.  ``restore()`` puts the originals back.

A function imported by name into several modules (``ad_power`` is bound in
``opalg``, ``detsolve`` and ``scenarios``) is replaced in every module that
holds it, so every caller is traced.
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

from commsym import cli, detsolve, expcore, gridcheck, opalg
from commsym import scenarios as sc

# (span name, owner, attribute); an owner that is a class is patched in place,
# a function is replaced wherever a commsym module binds it
ENTRY_POINTS = (
    ("expcore.mul", expcore.ExpPoly, "__mul__"),
    ("expcore.derive", expcore.ExpPoly, "derive"),
    ("expcore.evaluate", expcore.ExpPoly, "evaluate"),
    ("expcore.substitute_affine", expcore.ExpPoly, "substitute_affine"),
    ("opalg.construct", opalg.LinDiffOp, "__init__"),
    ("opalg.compose", opalg.LinDiffOp, "compose"),
    ("opalg.apply", opalg.LinDiffOp, "apply"),
    ("opalg.matrix_apply", opalg.MatrixDiffOp, "apply"),
    ("opalg.ad_power", opalg, "ad_power"),
    ("detsolve.solve_null_space", detsolve, "solve_null_space"),
    ("gridcheck.fd_chain_values", gridcheck, "fd_chain_values"),
    ("gridcheck.fd_apply_residual", gridcheck, "fd_apply_residual"),
    ("gridcheck.convergence_order", gridcheck, "convergence_order"),
    ("scenarios.run_dalembert", sc, "run_dalembert"),
    ("scenarios.run_schrodinger", sc, "run_schrodinger"),
    ("scenarios.run_maxwell", sc, "run_maxwell"),
    ("scenarios.run_composition", sc, "check_composition"),
    ("scenarios.run_igl_sweep", sc, "run_igl_sweep"),
    ("scenarios.run_generator_search", sc, "run_generator_search"),
    ("cli.parse_config", cli, "parse_config"),
    ("cli.report_emit", cli, "report_emit"),
)
# entry points whose wrappers also count work; see Tracer.install
COUNTED = ("expcore.normalize", "detsolve.assemble", "detsolve.probe_oracle",
           "detsolve.svd", "gridcheck.eval_on_grid")
# layers that report total time (self plus children) as well as self time
STAGES = ("detsolve.assemble", "detsolve.solve_null_space", "detsolve.svd",
          "detsolve.reverify", "detsolve.probe_oracle")
# re-verification: ad_power called directly by these (ROADMAP baseline split)
REVERIFY_PARENTS = ("detsolve.solve_null_space", "scenarios.run_generator_search")

LAYERS = tuple(sorted({name for name, _, _ in ENTRY_POINTS} | set(COUNTED) | {"detsolve.reverify"}))
COUNTS = ("expcore.normalize.terms_in", "expcore.normalize.terms_out",
          "detsolve.unknowns", "detsolve.rows", "detsolve.oracle_rows",
          "gridcheck.points_evaluated", "gridcheck.bytes_computed")
# bytes of one complex128 grid value: bytes_computed is computed, not measured
COMPLEX_BYTES = 16


class _LinalgProxy:
    """numpy.linalg as seen by detsolve, with svd and matrix_rank traced."""

    def __init__(self, svd, matrix_rank):
        self.svd, self.matrix_rank = svd, matrix_rank

    def __getattr__(self, name):
        return getattr(np.linalg, name)


class _NumpyProxy:
    """The numpy module as seen by detsolve, with a traced linalg."""

    def __init__(self, linalg):
        self.linalg = linalg

    def __getattr__(self, name):
        return getattr(np, name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start, self.end = array("d"), array("d")
        self.name, self.parent, self.op = array("i"), array("i"), array("i")
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self._stack = [-1]
        self._probe_depth = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def wrap(self, name: str, fn):
        """fn with a span recorded around every call."""
        nid = len(self.names)
        self.names.append(name)
        start, end, names, parents, ops, stack = (
            self.start, self.end, self.name, self.parent, self.op, self._stack)

        def traced(*args, **kwargs):
            i = len(start)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.op_id)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # -- patching -----------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        """Set owner.attr, or every commsym binding of a function, to new."""
        if isinstance(owner, type):
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)
            return
        old = getattr(owner, attr)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "commsym":
                continue
            for key, value in list(vars(mod).items()):
                if value is old:
                    self._undo.append((mod, key, old))
                    setattr(mod, key, new)

    def install(self) -> None:
        for name, owner, attr in ENTRY_POINTS:
            self._replace(owner, attr, self.wrap(name, getattr(owner, attr)))

        # entry points that also count the work they do
        counts = self.counts
        new_poly = expcore.ExpPoly.__init__
        build = detsolve.build_determining_system
        probe = detsolve.apply_probe_null_dimension
        grid_eval = gridcheck.eval_on_grid

        def normalize(poly, terms=(), *rest, **kwargs):
            terms = list(terms)  # the constructor sorts its input into a list anyway
            new_poly(poly, terms, *rest, **kwargs)
            counts["expcore.normalize.terms_in"] += len(terms)
            counts["expcore.normalize.terms_out"] += len(poly.terms)

        def assemble(*args, **kwargs):
            system = build(*args, **kwargs)
            counts["detsolve.rows"] += system.matrix.shape[0]
            counts["detsolve.unknowns"] += system.matrix.shape[1]
            return system

        def probe_oracle(*args, **kwargs):
            self._probe_depth += 1
            try:
                return probe(*args, **kwargs)
            finally:
                self._probe_depth -= 1

        def oracle_rows(fn):
            """fn, counting the rows of the matrices the probe oracle ranks."""
            def counted(a, *args, **kwargs):
                if self._probe_depth:
                    counts["detsolve.oracle_rows"] += np.shape(a)[0]
                return fn(a, *args, **kwargs)
            return counted

        def eval_on_grid(f, grid):
            points = len(f.terms) * grid.extent ** 4
            counts["gridcheck.points_evaluated"] += points
            counts["gridcheck.bytes_computed"] += points * COMPLEX_BYTES
            return grid_eval(f, grid)

        self._replace(expcore.ExpPoly, "__init__", self.wrap("expcore.normalize", normalize))
        self._replace(detsolve, "build_determining_system", self.wrap("detsolve.assemble", assemble))
        self._replace(detsolve, "apply_probe_null_dimension",
                      self.wrap("detsolve.probe_oracle", probe_oracle))
        self._replace(gridcheck, "eval_on_grid", self.wrap("gridcheck.eval_on_grid", eval_on_grid))
        self._undo.append((detsolve, "np", detsolve.np))
        detsolve.np = _NumpyProxy(_LinalgProxy(
            self.wrap("detsolve.svd", oracle_rows(np.linalg.svd)),
            oracle_rows(np.linalg.matrix_rank),
        ))

    def restore(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    # -- results --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """``<layer>.calls`` and ``<layer>.self_s`` (plus ``.total_s`` for the
        detsolve stages) for every layer, and every work count."""
        a = self.arrays()
        names, parent = a["name"], a["parent"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child

        groups = {layer: [] for layer in LAYERS}
        index = {}
        for nid, layer in enumerate(self.names):
            index.setdefault(layer, []).append(nid)
        for layer, nids in index.items():
            groups[layer] = np.isin(names, nids)
        parent_name = np.where(has_parent, names[np.maximum(parent, 0)], -1)
        groups["detsolve.reverify"] = groups["opalg.ad_power"] & np.isin(
            parent_name, [nid for p in REVERIFY_PARENTS for nid in index.get(p, [])])

        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            mask = groups[layer]
            out[f"{layer}.calls"] = (int(np.count_nonzero(mask)), "count")
            out[f"{layer}.self_s"] = (float(self_time[mask].sum()), "s")
            if layer in STAGES:
                out[f"{layer}.total_s"] = (float(dur[mask].sum()), "s")
        for key in COUNTS:
            out[key] = (int(self.counts[key]), "B" if key.endswith("bytes_computed") else "count")
        return out
