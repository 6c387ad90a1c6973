"""Proximal point engine and the relaxed constrained-inclusion solver.

The relaxation machinery takes data ``(V, L, B, gamma)`` -- a subspace, a
linear map with ``0 < ||L|| <= 1`` and a maximally monotone operator --
and iterates

    y_n = L x_n
    q_n = J_{gamma B} y_n - y_n
    z_n = L* q_n
    x_{n+1} = x_n + lambda_n proj_V z_n

which is exactly the proximal point algorithm applied to the firmly
nonexpansive relaxed resolvent

    J(x) = proj_V((Id - L* L + L* J_{gamma B} L)(proj_V x)).

Stopping uses the fixed-point residual ``||proj_V z_n||`` of that
resolvent, which the loop computes anyway; a run whose residual stops being
finite (it diverges, e.g. with the norm gate bypassed) ends with reason
``non-finite`` and keeps its trace.  On a diverging run the squared norm
overflows long before any entry does, so the last iterate is still finite;
the loops run under one ``np.errstate`` that silences numpy's overflow and
invalid-value warnings, since the trace already records the reason.

The loops validate ``x0`` and ``reference`` once, then iterate on raw
matrices and ``B._evaluator``; the residual's finiteness is the only check.
A run is single threaded and deterministic; its trace is append-only while
running and immutable afterwards.
"""

from __future__ import annotations

import csv
import math
import os
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from .compositions import resolvent_composition, resolvent_cocomposition
from .errors import ContractionConditionError, DimensionMismatchError, ValidationError
from .hilbert import NORM_GATE_TOL

_LAMBDA_EPS = 1e-3
_MEMBERSHIP_TOL = 1e-10


@dataclass
class Schedule:
    """Relaxation parameters and stopping rules for a proximal point run.

    ``lam`` is either one constant or an explicit per-iteration sequence;
    every value must lie in ``[1e-3, 2 - 1e-3]``, which keeps the sum of
    ``lambda_n (2 - lambda_n)`` divergent.  When a finite sequence is
    given, its length caps the number of updates.
    """

    lam: float | list = 1.0
    max_iterations: int = 100_000
    tol: float = 1e-10

    def __post_init__(self):
        if self.max_iterations < 0:
            raise ValidationError("max_iterations must be nonnegative")
        if self.tol < 0:
            raise ValidationError("tolerance must be nonnegative")
        if np.isscalar(self.lam):
            values = [float(self.lam)]
        else:
            self.lam = [float(v) for v in self.lam]
            values = self.lam
            if not values:
                raise ValidationError("empty relaxation schedule")
        for v in values:
            if not (_LAMBDA_EPS - 1e-12 <= v <= 2.0 - _LAMBDA_EPS + 1e-12):
                raise ValidationError(
                    f"relaxation parameter {v} outside [{_LAMBDA_EPS}, {2 - _LAMBDA_EPS}]"
                )

    def update_cap(self):
        if np.isscalar(self.lam):
            return self.max_iterations
        return min(self.max_iterations, len(self.lam))

    def lambda_at(self, n):
        if np.isscalar(self.lam):
            return float(self.lam)
        return self.lam[n]


@dataclass
class Trace:
    """Per-iteration diagnostics of a single solver run."""

    fp_residual: list = field(default_factory=list)
    var_residual: list = field(default_factory=list)  # None entries when not tracked
    dist_ref: list = field(default_factory=list)      # None entries when no reference
    wall_ns: list = field(default_factory=list)
    iterates: list = field(default_factory=list)      # kept only on request
    reason: str = "running"
    iterations: int = 0
    x0_projected: bool = False
    inexact_weighted_sum: float = 0.0  # sum of lambda_n ||c_n|| when perturbed

    def to_csv(self, path):
        """Write ``iter, fp_residual, var_residual, dist_ref, wall_ns`` rows atomically."""
        directory = os.path.dirname(os.path.abspath(path)) or "."
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["iter", "fp_residual", "var_residual", "dist_ref", "wall_ns"])
                for i, r in enumerate(self.fp_residual):
                    var = self.var_residual[i] if i < len(self.var_residual) else None
                    ref = self.dist_ref[i] if i < len(self.dist_ref) else None
                    writer.writerow([
                        i,
                        repr(r),
                        "" if var is None else repr(var),
                        "" if ref is None else repr(ref),
                        self.wall_ns[i],
                    ])
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


def proximal_point(space, J, x0, schedule, errors=None, reference=None,
                   keep_iterates=False, var_residual_fn=None):
    """Relaxed fixed-point iteration ``x <- x + lambda_n (J x - x)``.

    ``J`` must be firmly nonexpansive (resolvents and norm-gated composed
    resolvents from this package qualify).  When ``errors`` is given, the
    evaluation ``J x_n + c_n`` is used instead and the weighted error sum
    ``sum lambda_n ||c_n||`` is logged in the trace -- summability is the
    caller's responsibility and is reported, never enforced.

    Returns ``(x_final, trace)``.  ``x0``, ``reference`` and each error
    ``c_n`` are validated; the step ``J x_n - x_n`` is only checked for its
    shape, and a non-finite one ends the run with reason ``non-finite``.
    """
    x = space.validate(x0).copy()
    ref = None if reference is None else space.validate(reference)
    trace = Trace()
    start = time.perf_counter_ns()
    n = 0
    cap = schedule.update_cap()
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            jx = J(x)
            c = None
            if errors is not None:
                c = errors(n) if callable(errors) else (
                    errors[n] if n < len(errors) else space.zeros()
                )
                jx = jx + c
            step = jx - x
            if step.shape != x.shape:
                raise DimensionMismatchError(
                    f"J returned a step of shape {step.shape} in a space of dimension {space.dim}"
                )
            residual = space._norm(step)
            trace.fp_residual.append(residual)
            trace.var_residual.append(None if var_residual_fn is None else var_residual_fn(x))
            trace.dist_ref.append(None if ref is None else space._norm(x - ref))
            trace.wall_ns.append(time.perf_counter_ns() - start)
            if keep_iterates:
                trace.iterates.append(x.copy())
            if residual <= schedule.tol:
                trace.reason = "converged"
                break
            if not math.isfinite(residual):
                trace.reason = "non-finite"
                break
            if n >= cap:
                trace.reason = "max_iterations"
                break
            lam = schedule.lambda_at(n)
            if c is not None:
                trace.inexact_weighted_sum += lam * space.norm(c)
            x = x + lam * step
            n += 1
    trace.iterations = n
    return x, trace


class RelaxedInstance:
    """A relaxed constrained-inclusion problem ``(V, L, B, gamma)``.

    ``kind`` tags how the instance was generated (generic, mixture,
    wiener, split-feasibility, common-zero, feasibility-product); block
    structure, when present, enables the blockwise solver.
    """

    def __init__(self, V, L, B, gamma, kind="generic", blocks=None, sets=None,
                 unsafe=False):
        if L.domain != V.space:
            raise ValidationError("V must live in the domain of L")
        if B.space != L.codomain:
            raise ValidationError("B must live in the codomain of L")
        norm = L.op_norm()
        if norm == 0.0:
            raise ContractionConditionError("the map L must be nonzero")
        if norm > 1.0 + NORM_GATE_TOL and not unsafe:
            raise ContractionConditionError(
                f"operator norm {norm:.6g} exceeds 1: the relaxation theory needs ||L|| <= 1"
            )
        if not B.supports_scale(gamma):
            B._check_scale(gamma)
        self.V = V
        self.L = L
        self.B = B
        self.gamma = float(gamma)
        self.kind = kind
        self.blocks = blocks
        self.sets = sets
        self.space = L.domain

    def inner_resolvent(self, x):
        """``(Id - L* L + L* J_{gamma B} L)(x)`` -- the unprojected map."""
        return self._inner_resolvent(self.space.validate(x))

    def _inner_resolvent(self, x):
        M, Mt = self.L.matrix, self.L.adjoint_matrix
        y = M @ x
        return x - Mt @ y + Mt @ self.B._resolve(self.gamma, y)

    def relaxed_resolvent(self, x):
        """The firmly nonexpansive map whose fixed points solve the relaxation."""
        return self._relaxed_resolvent(self.space.validate(x))

    def _relaxed_resolvent(self, x):
        P = self.V.matrix
        return P @ self._inner_resolvent(P @ x)

    def relaxed_family(self):
        """The relaxed operator built through the composition calculus."""
        coco = resolvent_cocomposition(self.L, self.B, self.gamma)
        return resolvent_composition(self.V.as_map(), coco, 1.0)

    def fixed_point_residual(self, x):
        x = self.space.validate(x)
        return self.space._norm(self._relaxed_resolvent(x) - x)

    def original_residual(self, x):
        """``||L x - J_{gamma B}(L x)||`` -- zero iff ``x`` solves the original problem."""
        y = self.L.matrix @ self.space.validate(x)
        return self.L.codomain._norm(y - self.B._resolve(self.gamma, y))


def build_relaxed(V, L, B, gamma):
    """Bundle problem data after checking the standing hypotheses."""
    return RelaxedInstance(V, L, B, gamma)


def _prepare_start(inst, x0, trace):
    space, P = inst.space, inst.V.matrix
    x = space.validate(x0).copy()
    if space._norm(x - P @ x) > _MEMBERSHIP_TOL * (1.0 + space._norm(x)):
        x = P @ x
        trace.x0_projected = True
    return x


def _run_loop(inst, x0, schedule, block_update, reference=None, keep_iterates=False):
    """Shared driver for the stacked and blockwise recursions.

    ``block_update`` maps a raw iterate to the unprojected step
    ``L* (J_{gamma B}(L x) - L x)``.
    """
    space, P, gamma = inst.space, inst.V.matrix, inst.gamma
    norm = space._norm
    trace = Trace()
    x = _prepare_start(inst, x0, trace)
    ref = None if reference is None else space.validate(reference)
    start = time.perf_counter_ns()
    n = 0
    cap = schedule.update_cap()
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            pz = P @ block_update(x)
            residual = norm(pz)
            trace.fp_residual.append(residual)
            trace.var_residual.append(norm(x - P @ x) + residual / gamma)
            trace.dist_ref.append(None if ref is None else norm(x - ref))
            trace.wall_ns.append(time.perf_counter_ns() - start)
            if keep_iterates:
                trace.iterates.append(x.copy())
            if residual <= schedule.tol:
                trace.reason = "converged"
                break
            if not math.isfinite(residual):
                trace.reason = "non-finite"
                break
            if n >= cap:
                trace.reason = "max_iterations"
                break
            x = x + schedule.lambda_at(n) * pz
            n += 1
    trace.iterations = n
    return x, trace


def solve_relaxed(inst, x0, schedule=None, reference=None, keep_iterates=False):
    """Run the relaxation recursion on the stacked formulation.

    ``x0`` should lie in V; if it does not, it is projected and the trace
    is flagged.  Returns ``(x, trace)``; at convergence ``x`` satisfies
    the fixed-point characterization of the relaxed problem within the
    schedule tolerance.
    """
    schedule = schedule or Schedule()
    M, Mt, gamma = inst.L.matrix, inst.L.adjoint_matrix, inst.gamma
    inst.B._check_scale(gamma)
    resolve = inst.B._evaluator

    def update(x):
        y = M @ x
        return Mt @ (resolve(gamma, y) - y)

    return _run_loop(inst, x0, schedule, update,
                     reference=reference, keep_iterates=keep_iterates)


def solve_blocks(inst, x0, schedule=None, reference=None, keep_iterates=False):
    """Blockwise variant of :func:`solve_relaxed` for structured instances.

    Mixture-style blocks evaluate ``q_k = J_{gamma B_k}(L_k x) - L_k x``;
    Wiener blocks evaluate ``q_k = p_k - F_k(L_k x)`` directly.  The
    iterates agree with the stacked formulation pointwise.
    """
    if not inst.blocks:
        raise ValidationError("instance carries no block structure")
    schedule = schedule or Schedule()

    gamma = inst.gamma
    if inst.kind == "wiener":

        def update(x):
            z = inst.space.zeros()
            for L_k, F_k, p_k, w_k in inst.blocks:
                z += w_k * (L_k.adjoint_matrix @ (p_k - F_k(L_k.matrix @ x)))
            return z

    else:
        for _L_k, B_k, _w_k in inst.blocks:
            B_k._check_scale(gamma)

        def update(x):
            z = inst.space.zeros()
            for L_k, B_k, w_k in inst.blocks:
                y_k = L_k.matrix @ x
                z += w_k * (L_k.adjoint_matrix @ (B_k._evaluator(gamma, y_k) - y_k))
            return z

    return _run_loop(inst, x0, schedule, update,
                     reference=reference, keep_iterates=keep_iterates)


def variational_residual(inst, x):
    """``||x - proj_V x|| + ||proj_V(L* (yosida_gamma B)(L x))||``.

    Zero exactly at the solutions of the relaxed problem (zeros of
    ``N_V + L* o yosida o L``).
    """
    x = inst.space.validate(x)
    y = inst.L.matrix @ x
    yos = (y - inst.B._resolve(inst.gamma, y)) / inst.gamma
    P = inst.V.matrix
    return inst.space._norm(x - P @ x) + inst.space._norm(P @ (inst.L.adjoint_matrix @ yos))


@dataclass
class RelaxationReport:
    """Outcome of checking a solver output against both problem levels."""

    relaxed_residual: float
    original_residual: float
    membership_defect: float
    is_relaxed_solution: bool
    s1_attained: bool | None
    verdict: str


def verify_exact_relaxation(inst, x, tol, known_feasible=None):
    """Check a solver output; with a feasibility certificate, assert exactness.

    When ``known_feasible`` (a point of the original solution set) is
    supplied, the original problem is solvable, so the relaxation is exact
    and the output must satisfy the original inclusion within ``tol``.
    """
    x = inst.space.validate(x)
    relaxed = inst.fixed_point_residual(x)
    original = inst.original_residual(x)
    membership = inst.V.residual_norm(x)
    is_solution = relaxed <= tol and membership <= tol
    s1_attained = None
    if known_feasible is not None:
        cert = inst.space.validate(known_feasible)
        if inst.original_residual(cert) > tol or inst.V.residual_norm(cert) > tol:
            raise ValidationError("supplied certificate does not solve the original problem")
        s1_attained = bool(original <= tol)
    if not is_solution:
        verdict = "not a solution"
    elif s1_attained:
        verdict = "S1 attained"
    else:
        verdict = "relaxed only"
    return RelaxationReport(
        relaxed_residual=relaxed,
        original_residual=original,
        membership_defect=membership,
        is_relaxed_solution=is_solution,
        s1_attained=s1_attained,
        verdict=verdict,
    )
