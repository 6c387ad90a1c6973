"""Proximal point engine and the relaxed constrained-inclusion solver.

The relaxation machinery takes data ``(V, L, B, gamma)`` -- a subspace, a
linear map with ``0 < ||L|| <= 1`` and a maximally monotone operator -- and
runs the proximal point algorithm on the firmly nonexpansive relaxed
resolvent ``J = proj_V o (Id - L* L + L* J_{gamma B} L) o proj_V``.  Its
iterates lie in V, so the solvers iterate on the coordinates ``c`` of
``x = U c`` in V's W-orthonormal basis ``U`` (n x r).  With ``A = L U``
(``RelaxedInstance.A``) and ``A* = A^T W_G``:

    y_n = A c_n
    g_n = A* (J_{gamma B} y_n - y_n)
    c_{n+1} = c_n + lambda g_n

with ``lambda`` the one relaxation constant of the :class:`Schedule`.

``U g_n = proj_V L* (J_{gamma B} y_n - y_n)`` is the step on ``x``, and as
``U`` is W-orthonormal, ``||g_n||_2 = ||J x_n - x_n||_W`` is the
fixed-point residual.  No ``proj_V`` is applied per step; ``x = U c`` is
lifted at the end, and per step only for kept iterates or a reference.

The step is that of the resolvent cocomposition of ``B`` with ``A``
(:mod:`compositions`), built once per solve: ``g_n = A* (J(A c_n) - A c_n)``
through ``B``'s own evaluator, or ``G c_n + h`` for an affine ``B``, folded
at construction.  A start ``x0`` begins at ``c_0 = U^T W x0``, the
coordinates of its projection onto V; ``x0 = 0`` is the origin of V, whose
coordinates ``c_0 = 0`` take no product with the basis.

One private loop drives these solvers and :func:`proximal_point`.  A step
records only ``fp_residual`` and ``wall_ns`` (and ``dist_ref`` and kept
iterates on request); ``var_residual`` (``fp_residual / gamma``, or None
for :func:`proximal_point`) and a reference-free ``dist_ref`` are filled
after the loop.  A run whose residual stops being finite (it diverges,
e.g. with the norm gate bypassed) ends with reason ``non-finite`` and
keeps its trace; the squared norm overflows long before any entry does,
so the last iterate is still finite, and the loop silences numpy's
overflow and invalid-value warnings.  Inputs are validated once; a run
is single threaded and deterministic.  :class:`RelaxedInstance` checks the
hypotheses; :func:`write_atomically` writes traces and run reports.
The solution tests read ``J_{gamma B}(L x) - L x`` from one place,
:meth:`RelaxedInstance._displacement`, the one site here that a family
giving its displacement without cancellation at huge ``y`` would change.

``Schedule(newton=True)`` accelerates the one loop for the coordinate
solvers.  Each update first tries the semismooth Newton candidate
``c - J(c)^-1 g(c)`` (Li, Sun & Toh 2018), then the plain step.
``J(c) = A* (D(A c) - I) A``, the cocomposition's Jacobian (``G`` for an
affine ``B``), is solved by one ``r x r`` LU factorization; only a
singular nonzero ``J`` takes a least-squares solve with a relative rank
cutoff, and a zero ``J`` gives no candidate.  When every block is affine,
``J = G`` is constant and the first candidate is the exact fixed point
``c_0 - G^-1 g(c_0)``, so such a run converges in one update.  When a
nonlinear block declares no derivative (a family built from a bare
evaluator) there is no candidate, and the run takes the plain steps.

A candidate is taken only if its residual is below the current one and
at most ``_SAFEGUARD_D ||g_0|| (i + 1)^-(1 + eps)``, ``i`` the candidates
taken so far (Zhang, O'Donoghue & Boyd 2020).  A zero Newton direction is
not tried: on a singular ``J`` the bound alone would take, up to about
``_SAFEGUARD_D`` times, a candidate that does not move.
``Trace.fallbacks`` counts the rejections.  A non-finite candidate never
passes, and a plain step that goes non-finite still ends the run with
``non-finite``.  ``Trace.newton_candidates`` counts the candidates taken
and ``Trace.rank_G`` gives the rank the last Newton solve reported.
``newton=False``, the library default, is the plain iteration, bit for
bit; :func:`proximal_point` refuses Newton.
"""

from __future__ import annotations

import csv
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from .compositions import _cocomposition_step, resolvent_cocomposition, resolvent_composition
from .errors import DimensionMismatchError, ValidationError
from .hilbert import _count, _real, check_contraction, stack
from .operators import product_family

_LAMBDA_EPS = 1e-3
# The safeguard on every candidate, ||step(c)|| <= D ||step(c_0)|| (i + 1)^-(1 + eps) of
# Zhang, O'Donoghue & Boyd (SIAM J. Optim. 2020), with their D and eps: the
# bounds are summable, so a run keeps the global convergence of plain steps.
_SAFEGUARD_D = 1e6
_SAFEGUARD_EPS = 1e-6


@dataclass
class Schedule:
    """Relaxation parameter and stopping rules for a proximal point run.

    ``lam`` is one number in ``[1e-3, 2 - 1e-3]``, the relaxation of every
    update, which keeps the sum of ``lam (2 - lam)`` divergent; a list or any
    other non-number raises ``ValidationError``.  ``newton`` turns on the
    Newton candidates of the coordinate solvers (False, the default, runs
    the plain relaxed steps).  ``max_iterations`` must be a nonnegative
    integer (an integral float is accepted, a bool is not) and ``tol`` a
    nonnegative number; anything else raises ``ValidationError``.
    """

    lam: float = 1.0
    max_iterations: int = 100_000
    tol: float = 1e-10
    newton: bool = False

    def __post_init__(self):
        self.max_iterations = _count("max_iterations", self.max_iterations)
        self.tol = _real("tolerance", self.tol)
        if not self.tol >= 0:  # NaN too
            raise ValidationError(f"tolerance must be nonnegative, got {self.tol!r}")
        self.lam = v = _real("relaxation parameter", self.lam)
        if not (_LAMBDA_EPS - 1e-12 <= v <= 2.0 - _LAMBDA_EPS + 1e-12):
            raise ValidationError(
                f"relaxation parameter {v} outside [{_LAMBDA_EPS}, {2 - _LAMBDA_EPS}]"
            )


@dataclass
class Trace:
    """Per-iteration diagnostics of a single solver run."""

    fp_residual: list = field(default_factory=list)
    var_residual: list = field(default_factory=list)  # all None for proximal_point
    dist_ref: list = field(default_factory=list)      # all None without a reference
    wall_ns: list = field(default_factory=list)
    iterates: list = field(default_factory=list)      # kept only on request
    reason: str = "running"
    iterations: int = 0
    fallbacks: int = 0  # Newton candidates the safeguard rejected
    newton_candidates: int = 0  # Newton candidates taken
    rank_G: int | None = None   # rank the last Newton solve reported; None: none tried

    def to_csv(self, path):
        """Write ``iter, fp_residual, var_residual, dist_ref, wall_ns`` rows atomically."""
        def rows(fh):
            writer = csv.writer(fh)
            writer.writerow(["iter", "fp_residual", "var_residual", "dist_ref", "wall_ns"])
            columns = zip(self.fp_residual, self.var_residual, self.dist_ref, strict=True)
            for i, (values, ns) in enumerate(zip(columns, self.wall_ns, strict=True)):
                writer.writerow([i, *("" if v is None else repr(v) for v in values), ns])

        write_atomically(path, rows)


def write_atomically(path, write):
    """Replace ``path`` atomically by a temp file that ``write(fh)`` fills, text as given.

    The file gets the mode ``open(path, "w")`` would leave: that of an
    existing ``path``, else ``0o666`` less the umask.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            if os.path.exists(path):
                shutil.copymode(path, tmp)
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _iterate(step, z, schedule, norm, trace, distance=None, lift=None, jacobian=None):
    """The one relaxed fixed-point loop ``z <- z + lambda step(z)``.

    ``norm(step(z))`` is the residual that stops the run.  A step records
    ``fp_residual``, ``wall_ns`` and, when given, ``distance(z)`` and the
    kept iterate ``lift(z)``.  Without ``distance``, ``dist_ref`` is filled
    with None after the loop; the caller fills ``var_residual``.  Returns
    ``(z, trace)``.

    With ``schedule.newton`` and a ``jacobian``, each update first tries the
    Newton candidate ``z - jacobian(z)^-1 step(z)`` when that direction is
    nonzero (see the module docstring).  ``step`` must then be a pure
    function of ``z``: a rejected candidate costs one evaluation that is not
    a step.
    """
    lam, cap, tol = schedule.lam, schedule.max_iterations, schedule.tol
    clock = time.perf_counter_ns
    fp, wall = trace.fp_residual.append, trace.wall_ns.append
    if not schedule.newton:
        jacobian = None
    start = clock()
    n = 0
    with np.errstate(over="ignore", invalid="ignore"):
        s = step(z)
        residual = norm(s)
        first = residual
        while True:
            fp(residual)
            if distance is not None:
                trace.dist_ref.append(distance(z))
            wall(clock() - start)
            if lift is not None:
                trace.iterates.append(lift(z))
            if residual <= tol:
                trace.reason = "converged"
                break
            if not math.isfinite(residual):
                trace.reason = "non-finite"
                break
            if n >= cap:
                trace.reason = "max_iterations"
                break
            n += 1
            if jacobian is not None:
                delta = _newton_direction(jacobian(z), s, trace)
                if delta is not None and delta.any():  # a zero one would not move z
                    candidate = z - delta
                    s_c = step(candidate)
                    r_c = norm(s_c)
                    bound = _SAFEGUARD_D * first * \
                        (trace.newton_candidates + 1) ** -(1 + _SAFEGUARD_EPS)
                    if r_c < residual and r_c <= bound:  # False on NaN
                        trace.newton_candidates += 1
                        z, s, residual = candidate, s_c, r_c
                        continue
                    trace.fallbacks += 1
            z = z + s if lam == 1.0 else z + lam * s  # z + s == z + 1.0 * s, bit for bit
            s = step(z)
            residual = norm(s)
    trace.iterations = n
    if distance is None:
        trace.dist_ref = [None] * (n + 1)
    return z, trace


def _newton_direction(J, s, trace):
    """``J^-1 s`` by one LU solve; for a singular ``J`` the least-squares ``J^+ s``.

    The least-squares solve cuts singular values off relative to the largest.
    A zero ``J``, whose least-squares direction is zero, takes no solve.
    Records the rank in ``trace.rank_G``; None when ``J`` is zero or not finite.
    """
    try:
        delta = np.linalg.solve(J, s)
        trace.rank_G = len(s)
    except np.linalg.LinAlgError:  # exactly singular, or not finite
        if not J.any():  # NaN counts as nonzero
            trace.rank_G = 0
            return None
        try:
            delta, _, rank, _ = np.linalg.lstsq(J, s, rcond=None)
        except np.linalg.LinAlgError:
            return None
        trace.rank_G = int(rank)
    return delta


def proximal_point(space, J, x0, schedule, reference=None, keep_iterates=False):
    """Relaxed fixed-point iteration ``x <- x + lambda (J x - x)`` with exact evaluations of ``J``.

    ``J`` must be firmly nonexpansive (resolvents and norm-gated composed
    resolvents from this package qualify).

    Returns ``(x_final, trace)``.  ``x0`` and ``reference`` are validated;
    the step ``J x_n - x_n`` is only checked for its shape, and a non-finite
    one ends the run with reason ``non-finite``.
    The iteration is the plain one: a ``newton`` schedule raises
    ``ValidationError``.
    """
    if schedule.newton:
        raise ValidationError("proximal_point runs the plain steps only; use newton=False")
    x = space.validate(x0).copy()
    ref = None if reference is None else space.validate(reference)

    def step(x):
        s = J(x) - x
        if s.shape != x.shape:
            raise DimensionMismatchError(
                f"J returned a step of shape {s.shape} in a space of dimension {space.dim}"
            )
        return s

    x, trace = _iterate(
        step, x, schedule, space._norm, Trace(),
        distance=None if ref is None else (lambda x: space._norm(x - ref)),
        lift=np.copy if keep_iterates else None,
    )
    trace.var_residual = [None] * (trace.iterations + 1)
    return x, trace


class RelaxedInstance:
    """A relaxed constrained-inclusion problem ``(V, L, B, gamma)``.

    ``kind`` tags how the instance was generated (generic, mixture,
    wiener, split-feasibility, common-zero, feasibility-product).  An
    instance built by :meth:`from_blocks` keeps its blocks ``(L_k, B_k,
    w_k)``, which enable the blockwise solver and the oracles; ``blocks`` is
    None otherwise.  ``A`` is the matrix of ``L U``, ``U`` the W-orthonormal
    basis of V in columns.
    """

    def __init__(self, V, L, B, gamma, kind="generic", unsafe=False):
        if L.domain != V.space:
            raise ValidationError("V must live in the domain of L")
        if B.space != L.codomain:
            raise ValidationError("B must live in the codomain of L")
        check_contraction([L], unsafe=unsafe)
        self.gamma = B._check_scale(gamma)
        self.V = V
        self.L = L
        self.B = B
        self.kind = kind
        self.blocks = None
        self.space = L.domain
        self.A = L.matrix @ V.basis.T

    @classmethod
    def from_blocks(cls, V, blocks, gamma, kind="generic", unsafe=False):
        """The instance of ``blocks = [(L_k, B_k, w_k)]``.

        ``L`` stacks the maps and ``B`` is the product of the operators, both
        on the codomains weighted by ``w_k``, so ``L``, ``B`` and ``blocks``
        agree by construction.
        """
        blocks = list(blocks)
        maps, fams, weights = zip(*blocks)
        inst = cls(V, stack(maps, weights), product_family(fams, weights), gamma, kind=kind,
                   unsafe=unsafe)
        inst.blocks = blocks
        return inst

    def relaxed_resolvent(self, x):
        """The firmly nonexpansive map whose fixed points solve the relaxation."""
        return self._relaxed_resolvent(self.space.validate(x))

    def _relaxed_resolvent(self, x):
        """``proj_V (Id - L* L + L* J_{gamma B} L) proj_V``, written out as the reference."""
        P, M, Mt = self.V.matrix, self.L.matrix, self.L.adjoint_matrix
        x = P @ x
        y = M @ x
        return P @ (x - Mt @ y + Mt @ self.B._resolve(self.gamma, y))

    def relaxed_family(self):
        """The relaxed operator built through the composition calculus."""
        coco = resolvent_cocomposition(self.L, self.B, self.gamma)
        return resolvent_composition(self.V.as_map(), coco, 1.0)

    def fixed_point_residual(self, x):
        return self._fixed_point_residual(self.space.validate(x))

    def _fixed_point_residual(self, x):
        return self.space._norm(self._relaxed_resolvent(x) - x)

    def original_residual(self, x):
        """``||J_{gamma B}(L x) - L x||`` -- zero iff ``x`` solves the original problem."""
        return self.L.codomain._norm(self._displacement(self.space.validate(x)))

    def _displacement(self, x):
        """``J_{gamma B}(L x) - L x``, the one place the solution tests subtract it."""
        y = self.L.matrix @ x
        return self.B._resolve(self.gamma, y) - y


def _solve_in_coordinates(inst, x0, schedule, step, reference, keep_iterates, jacobian=None):
    """Run ``c <- c + lambda step(c)`` from ``c = U^T W x0``, the coordinates of ``proj_V x0``.

    ``jacobian`` gives the Newton candidates (see :func:`_iterate`).
    Returns ``(U c, trace)``.
    """
    space, basis = inst.space, inst.V.basis  # basis = U^T
    x = space.validate(x0)
    ref = None if reference is None else space.validate(reference)
    # the origin lies in V and its coordinates are 0, exactly
    c = basis @ (space.weights * x) if x.any() else np.zeros(len(basis))
    c, trace = _iterate(
        step, c, schedule, lambda g: math.sqrt(g.dot(g)), Trace(),
        distance=None if ref is None else (lambda c: space._norm(c @ basis - ref)),
        lift=basis.T.dot if keep_iterates else None, jacobian=jacobian,
    )
    trace.var_residual = [r / inst.gamma for r in trace.fp_residual]
    return c @ basis, trace


def solve_relaxed(inst, x0, schedule=None, reference=None, keep_iterates=False):
    """Run the relaxation recursion on the stacked formulation.

    An ``x0`` off V is projected onto V, the first iterate.  Returns
    ``(x, trace)``; at convergence ``x`` satisfies the fixed-point
    characterization of the relaxed problem within the schedule tolerance.
    ``var_residual`` is ``fp_residual / gamma``: the membership term of
    :func:`variational_residual` vanishes on iterates ``U c``.
    """
    A = inst.A
    step, jacobian = _cocomposition_step(A, A.T * inst.L.codomain.weights, inst.B, inst.gamma)
    return _solve_in_coordinates(inst, x0, schedule or Schedule(), step, reference,
                                 keep_iterates, jacobian)


def solve_blocks(inst, x0, schedule=None, reference=None, keep_iterates=False):
    """Blockwise variant of :func:`solve_relaxed` for structured instances.

    With ``A_k = L_k U`` the step is ``sum_k w_k A_k* (J_{gamma B_k}(A_k c) - A_k c)``;
    the iterates agree with the stacked formulation pointwise.
    """
    if not inst.blocks:
        raise ValidationError("instance carries no block structure")
    U = inst.V.basis.T
    A = [L_k.matrix @ U for L_k, _B_k, _w_k in inst.blocks]
    A_adj = [w_k * A_k.T * L_k.codomain.weights for A_k, (L_k, _B_k, w_k) in zip(A, inst.blocks)]
    step, jacobian = _cocomposition_step(np.vstack(A), np.hstack(A_adj), inst.B, inst.gamma)
    return _solve_in_coordinates(inst, x0, schedule or Schedule(), step, reference,
                                 keep_iterates, jacobian)


def variational_residual(inst, x):
    """``||x - proj_V x|| + ||proj_V(L* (yosida_gamma B)(L x))||``.

    Zero exactly at the solutions of the relaxed problem (zeros of
    ``N_V + L* o yosida o L``).
    """
    x = inst.space.validate(x)
    yos = -inst._displacement(x) / inst.gamma
    P = inst.V.matrix
    return inst.space._norm(x - P @ x) + inst.space._norm(P @ (inst.L.adjoint_matrix @ yos))


@dataclass
class RelaxationReport:
    """Outcome of checking a solver output against both problem levels."""

    relaxed_residual: float
    original_residual: float
    membership_defect: float
    verdict: str


def verify_exact_relaxation(inst, x, tol, known_feasible=None):
    """Check a solver output and give its verdict.

    A relaxed solution is "S1 attained" when it also satisfies the original
    inclusion within ``tol``, and "relaxed only" otherwise.  When
    ``known_feasible`` (a point of the original solution set) is supplied,
    it is only checked: a certificate that does not solve the original
    problem within ``tol`` raises ``ValidationError``.
    """
    x = inst.space.validate(x)
    norm = inst.L.codomain._norm
    relaxed = inst._fixed_point_residual(x)
    original = norm(inst._displacement(x))
    membership = inst.V._residual_norm(x)
    if known_feasible is not None:
        cert = inst.space.validate(known_feasible)
        if norm(inst._displacement(cert)) > tol or inst.V._residual_norm(cert) > tol:
            raise ValidationError("supplied certificate does not solve the original problem")
    if not (relaxed <= tol and membership <= tol):  # a NaN residual is not a solution
        verdict = "not a solution"
    elif original <= tol:
        verdict = "S1 attained"
    else:
        verdict = "relaxed only"
    return RelaxationReport(
        relaxed_residual=relaxed,
        original_residual=original,
        membership_defect=membership,
        verdict=verdict,
    )
