"""Spans around calls into rescomp, recorded from outside the package.

``Tracer.install`` replaces the package's public functions and class methods
by thin wrappers that record one span per call: name, start, end, parent and
run id, kept in flat in-memory arrays.  ``uninstall`` puts every original
back.  Nothing in ``src/`` knows about the tracer; untraced runs never call
``install``, so they execute the package unchanged.

Functions that other modules import by name (``from .solvers import
solve_relaxed``) are replaced in every ``rescomp`` namespace that holds the
same object, so a call resolves to the wrapper whichever module makes it.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# Span names whose self time or call counts the benchmark reports.
SOLVE = "solvers.solve_relaxed"


def _targets():
    """``(owner, attribute, span name)`` for every instrumented entry point."""
    from rescomp import bench, compositions, hilbert, operators, proxfun, sets, solvers

    out = [
        (hilbert.LinearMap, "__init__", "hilbert.linearmap_init"),
        (hilbert.LinearMap, "_power_norm", "hilbert.op_norm"),
        (hilbert.LinearMap, "apply", "hilbert.apply"),
        (hilbert.LinearMap, "__call__", "hilbert.apply"),
        (hilbert.LinearMap, "adjoint_apply", "hilbert.adjoint_apply"),
        (hilbert.SubspaceProjector, "__init__", "hilbert.subspace_init"),
        (hilbert.SubspaceProjector, "apply", "hilbert.proj_apply"),
        (hilbert.SubspaceProjector, "__call__", "hilbert.proj_apply"),
        (hilbert.Space, "validate", "hilbert.validate"),
        (hilbert.Space, "inner", "hilbert.inner"),
        (hilbert, "stack", "hilbert.stack"),
        (operators.ResolventFamily, "resolvent", "operators.resolvent"),
        (proxfun.ProxFunction, "prox", "proxfun.prox"),
        (proxfun, "proximal_composition_value", "proxfun.composition_value"),
        (solvers, "solve_relaxed", SOLVE),
        (solvers, "solve_blocks", "solvers.solve_blocks"),
        (solvers, "proximal_point", "solvers.proximal_point"),
        (solvers, "verify_exact_relaxation", "solvers.verify"),
        (solvers, "variational_residual", "solvers.verify"),
        (solvers.RelaxedInstance, "__init__", "solvers.relaxed_instance_init"),
        (solvers.Trace, "to_csv", "cli.trace_write"),
        (bench, "load_spec", "bench.load_spec"),
        (bench, "generate_instance", "bench.generate_instance"),
        (bench, "least_squares_oracle", "bench.oracle"),
        (bench, "wiener_oracle", "bench.oracle"),
    ]
    for name in vars(sets):
        cls = getattr(sets, name)
        if isinstance(cls, type) and issubclass(cls, sets.ConvexSet) and "project" in vars(cls):
            out.append((cls, "project", "sets.project"))
    for name in ("zero_operator", "scaled_identity", "normal_cone", "linear_monotone",
                 "subdifferential", "make_wiener", "product_family"):
        out.append((operators, name, "operators.construct"))
    for name in ("resolvent_composition", "resolvent_cocomposition", "resolvent_mixture",
                 "resolvent_average", "compose_chain"):
        out.append((compositions, name, "compositions.construct"))
    return out


def _rescomp_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "rescomp" or n.startswith("rescomp."))]


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.names = []          # span name table; spans store indices into it
        self._ids = {}
        self._patches = []       # (owner, attribute, original)
        self.reset()

    # -- recording ------------------------------------------------------------

    def reset(self):
        """Drop every recorded span (the wrappers stay installed)."""
        self.nid = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.run = array("i")
        self.outer = array("b")  # 1 when no enclosing span has the same name
        self.results = {}        # span index -> value kept by an on_result hook
        self._stack = [-1]
        self._depth = [0] * len(self.names)
        self._run = [0]

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def set_run(self, run_id):
        self._run[0] = run_id

    def _enter(self, nid):
        i = len(self.nid)
        self.nid.append(nid)
        self.parent.append(self._stack[-1])
        self.outer.append(self._depth[nid] == 0)
        self.run.append(self._run[0])
        self._depth[nid] += 1
        self._stack.append(i)
        self.end.append(0)
        self.start.append(time.perf_counter_ns())
        return i

    def _exit(self, i, nid):
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()
        self._depth[nid] -= 1

    def span(self, name):
        """Context manager recording a span from the benchmark's own code."""
        tracer, nid = self, self.name_id(name)

        class _Span:
            def __enter__(self):
                self.i = tracer._enter(nid)
                return self

            def __exit__(self, *exc):
                tracer._exit(self.i, nid)
                return False

        return _Span()

    def wrap(self, func, name, rename=None, on_result=None):
        """A wrapper of ``func`` recording one span per call.

        ``rename(result)`` may give the span its final name after the call;
        ``on_result(result)`` keeps a value per span in ``self.results``.
        """
        nid = self.name_id(name)
        enter, leave = self._enter, self._exit

        def wrapper(*args, **kwargs):
            i = enter(nid)
            try:
                result = func(*args, **kwargs)
            finally:
                leave(i, nid)
            if rename is not None:
                self.nid[i] = self.name_id(rename(result))
            if on_result is not None:
                self.results[i] = on_result(result)
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", name)
        return wrapper

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every target; module functions in every namespace holding them."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        from rescomp import properties

        modules = _rescomp_modules()
        for owner, attr, name in _targets():
            original = vars(owner)[attr]
            hook = (lambda r: r[1].iterations) if name == SOLVE else None
            new = self.wrap(original, name, on_result=hook)
            if isinstance(owner, type):
                self._patch(owner, attr, new)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, new)
        suites = properties.SUITES
        for k, suite in enumerate(suites):
            new = self.wrap(suite, "properties.suite",
                            rename=lambda res: "properties.suite." + res.name.split("/")[0])
            self._patch(properties, suite.__name__, new)
            suites[k] = new

    def uninstall(self):
        """Restore every original; returns the number of attributes restored."""
        from rescomp import properties

        suites = properties.SUITES
        for k, suite in enumerate(suites):
            suites[k] = getattr(suite, "__wrapped__", suite)
        count = len(self._patches)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        return count

    def installed(self):
        return [(owner, attr) for owner, attr, _ in self._patches]

    # -- analysis -------------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays: ``nid, parent, start, end, run, outer, self_ns``."""
        nid = np.frombuffer(self.nid, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.int64).copy()
        end = np.frombuffer(self.end, dtype=np.int64).copy()
        run = np.frombuffer(self.run, dtype=np.int32).copy()
        outer = np.frombuffer(self.outer, dtype=np.int8).astype(bool)
        dur = (end - start).astype(float)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(nid))
        return nid, parent, start, end, run, outer, dur - covered

    def snapshot(self):
        """The recorded spans and the name table as named arrays."""
        nid, parent, start, end, run, _outer, self_ns = self.arrays()
        return {"names": np.array(self.names), "nid": nid, "parent": parent,
                "start": start, "end": end, "run": run, "self_ns": self_ns}
