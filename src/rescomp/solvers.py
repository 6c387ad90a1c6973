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
    c_{n+1} = c_n + lambda_n g_n

``U g_n = proj_V L* (J_{gamma B} y_n - y_n)`` is the step on ``x``, and as
``U`` is W-orthonormal, ``||g_n||_2 = ||J x_n - x_n||_W`` is the
fixed-point residual.  No ``proj_V`` is applied per step; ``x = U c`` is
lifted at the end, and per step only for kept iterates or a reference.

A block of ``B`` whose declared derivative ``D`` is constant (its
resolvent is affine, ``J(y) = D y + J(0)``; see :mod:`operators`) needs no
evaluation per step: its part of ``g_n`` is ``G c_n + h`` with
``G = A* (D - I) A`` and ``h = A* J(0)``, summed over such blocks once per
solve.  Only the other blocks, stacked into ``A_N``, are evaluated, a
single one directly with no scatter into a stacked vector:

    g_n = G c_n + h + A_N* (J_N(A_N c_n) - A_N c_n)

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

``Schedule(anderson=True)`` adds a safeguarded acceleration stage to the
one loop for the coordinate solvers.  Each update tries up to two
candidates before the plain step:

* the semismooth Newton candidate ``c - J(c)^-1 g(c)`` (Li, Sun & Toh
  2018).  ``J(c) = G + A_N* (D_N(A_N c) - I) A_N`` is built from the
  derivatives the nonlinear blocks declare, row block by row block (a
  diagonal scales rows, a ball or halfspace adds a rank-one term), and
  solved by one ``r x r`` LU factorization; only a singular ``J`` takes a
  least-squares solve with a relative rank cutoff.  When every block is
  affine, ``J = G`` is constant and the first candidate is the exact fixed
  point ``c_0 - G^-1 g(c_0)``, so such a run converges in one update.
  When a nonlinear block declares no derivative there is no Newton
  candidate;
* a type-II Anderson candidate (on an affine step it is GMRES; Walker &
  Ni 2011).  The last ``min(ANDERSON_MEMORY, r)`` differences of
  ``f = lambda_n g`` and of ``c + f`` sit in preallocated buffers, and the
  candidate comes from their Tikhonov-regularized least-squares fit (the
  weight is relative, so no decision depends on the scale of the data).

A candidate is taken only if its residual is at most
``_SAFEGUARD_D ||g_0|| (i + 1)^-(1 + eps)``, ``i`` the candidates taken so
far (Zhang, O'Donoghue & Boyd 2020).  A Newton candidate must also lower
the residual, and a zero Newton direction is not tried: on a singular
``J`` the bound alone would take, up to about ``_SAFEGUARD_D`` times, a
candidate that does not move.
``Trace.fallbacks`` counts the rejections.  A rejected Anderson candidate
also drops the differences.  A non-finite candidate never passes, and a
plain step that goes non-finite still ends the run with ``non-finite``.
``Trace.newton_candidates`` counts the Newton candidates taken and
``Trace.rank_G`` gives the rank the last Newton solve reported.
``anderson=False``, the library default, is the plain iteration, bit for
bit; :func:`proximal_point` refuses Anderson.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from .compositions import resolvent_composition, resolvent_cocomposition
from .errors import DimensionMismatchError, ValidationError
from .hilbert import _count, _real, check_contraction, displacement_jacobian, stack
from .operators import product_family

_LAMBDA_EPS = 1e-3
_MEMBERSHIP_TOL = 1e-10
# The safeguard on every candidate, ||step(c)|| <= D ||step(c_0)|| (i + 1)^-(1 + eps) of
# Zhang, O'Donoghue & Boyd (SIAM J. Optim. 2020), with their D and eps: the
# bounds are summable, so a run keeps the global convergence of plain steps.
_SAFEGUARD_D = 1e6
_SAFEGUARD_EPS = 1e-6
# Tikhonov weight of the Anderson least-squares solve, relative to the trace
# of its normal matrix, so that scaling the data by t changes nothing.
_ANDERSON_REG = 1e-10
# Anderson window: the differences kept (capped at the rank of V).
ANDERSON_MEMORY = 10


@dataclass
class Schedule:
    """Relaxation parameters and stopping rules for a proximal point run.

    ``lam`` is either one constant or an explicit per-iteration sequence;
    every value must lie in ``[1e-3, 2 - 1e-3]``, which keeps the sum of
    ``lambda_n (2 - lambda_n)`` divergent.  When a finite sequence is
    given, its length caps the number of updates.  ``anderson`` turns on
    the Anderson stage of the coordinate solvers (False, the default, runs
    the plain relaxed steps).  ``max_iterations`` must be a nonnegative
    integer (an integral float is accepted, a bool is not) and ``tol`` a
    nonnegative number; anything else raises ``ValidationError``.
    """

    lam: float | list = 1.0
    max_iterations: int = 100_000
    tol: float = 1e-10
    anderson: bool = False

    def __post_init__(self):
        self.max_iterations = _count("max_iterations", self.max_iterations)
        self.tol = _real("tolerance", self.tol)
        if not self.tol >= 0:  # NaN too
            raise ValidationError(f"tolerance must be nonnegative, got {self.tol!r}")
        if np.isscalar(self.lam):
            values = [_real("relaxation parameter", self.lam)]
        else:
            self.lam = [_real("relaxation parameter", v) for v in self.lam]
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
    var_residual: list = field(default_factory=list)  # all None for proximal_point
    dist_ref: list = field(default_factory=list)      # all None without a reference
    wall_ns: list = field(default_factory=list)
    iterates: list = field(default_factory=list)      # kept only on request
    reason: str = "running"
    iterations: int = 0
    x0_projected: bool = False
    fallbacks: int = 0  # Newton and Anderson candidates the safeguard rejected
    newton_candidates: int = 0  # Newton candidates taken
    rank_G: int | None = None   # rank the last Newton solve reported; None: none tried
    inexact_weighted_sum: float = 0.0  # sum of lambda_n ||c_n|| when perturbed

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
    """Replace ``path`` atomically by a temp file that ``write(fh)`` fills, text as given."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _iterate(step, z, schedule, norm, trace, distance=None, lift=None, jacobian=None):
    """The one relaxed fixed-point loop ``z <- z + lambda_n step(z)``.

    ``norm(step(z))`` is the residual that stops the run.  A step records
    ``fp_residual``, ``wall_ns`` and, when given, ``distance(z)`` and the
    kept iterate ``lift(z)``.  Without ``distance``, ``dist_ref`` is filled
    with None after the loop; the caller fills ``var_residual``.  Returns
    ``(z, trace)``.

    With ``schedule.anderson`` each update first tries the Newton candidate
    ``z - jacobian(z)^-1 step(z)`` when ``jacobian`` is given and the
    direction is nonzero, then the Anderson candidate of
    :func:`_anderson_candidate` on ``z -> z + f(z)``, ``f = lambda_n step``
    (see the module docstring).  ``step`` must then be a pure function of
    ``z``: a rejected candidate costs one evaluation that is not a step.
    """
    lam = schedule.lam
    unit = np.isscalar(lam) and float(lam) == 1.0  # z + s == z + 1.0 * s, bit for bit
    lams = itertools.repeat(float(lam)) if np.isscalar(lam) else iter(lam)
    cap, tol, clock = schedule.update_cap(), schedule.tol, time.perf_counter_ns
    fp, wall = trace.fp_residual.append, trace.wall_ns.append
    m = min(ANDERSON_MEMORY, len(z)) if schedule.anderson else 0
    if m:  # circular buffers of the last m differences, one a row; k in use, row j next
        dF, dG = np.empty((m, len(z))), np.empty((m, len(z)))
        f_last = g_last = None
        k = j = accepted = 0

        def safeguarded(candidate, ceiling=math.inf):
            """``(step, residual)`` at a candidate the safeguard takes, else None.

            The residual must also lie below ``ceiling``.
            """
            nonlocal accepted
            s_c = step(candidate)
            r_c = norm(s_c)
            if r_c < ceiling and \
                    r_c <= _SAFEGUARD_D * first * (accepted + 1) ** -(1 + _SAFEGUARD_EPS):
                accepted += 1
                return s_c, r_c
            trace.fallbacks += 1
            return None

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
            f = s if unit else next(lams) * s
            n += 1
            if not m:
                z = z + f
            else:
                g = z + f
                if f_last is not None:
                    dF[j] = f - f_last
                    dG[j] = g - g_last
                    j = (j + 1) % m
                    k = min(k + 1, m)
                f_last, g_last = f, g
                if jacobian is not None:
                    delta = _newton_direction(jacobian(z), s, trace)
                    if delta is not None and delta.any():  # a zero one would not move z
                        candidate = z - delta
                        if (found := safeguarded(candidate, residual)) is not None:
                            trace.newton_candidates += 1
                            z, (s, residual) = candidate, found
                            continue
                if k:
                    candidate = _anderson_candidate(dF[:k], dG[:k], f, g)
                    if candidate is not None:
                        if (found := safeguarded(candidate)) is not None:
                            z, (s, residual) = candidate, found
                            continue
                        k = j = 0
                z = g
            s = step(z)
            residual = norm(s)
    trace.iterations = n
    if distance is None:
        trace.dist_ref = [None] * (n + 1)
    return z, trace


def _newton_direction(J, s, trace):
    """``J^-1 s`` by one LU solve; for a singular ``J`` the least-squares ``J^+ s``.

    The least-squares solve cuts singular values off relative to the largest.
    Records the rank in ``trace.rank_G``; None when ``J`` is not finite.
    """
    try:
        delta = np.linalg.solve(J, s)
        trace.rank_G = len(s)
    except np.linalg.LinAlgError:  # exactly singular, or not finite
        try:
            delta, _, rank, _ = np.linalg.lstsq(J, s, rcond=None)
        except np.linalg.LinAlgError:
            return None
        trace.rank_G = int(rank)
    return delta


def _anderson_candidate(dF, dG, f, g):
    """``g - dG^T gamma`` with ``gamma`` the regularized least-squares fit of ``dF^T gamma ~ f``.

    The rows of ``dF`` and ``dG`` are the differences; None when they all vanished.
    """
    M = dF @ dF.T
    diagonal = M.ravel()[::len(M) + 1]  # a view into M
    diagonal += _ANDERSON_REG * diagonal.sum()
    try:
        return g - np.linalg.solve(M, dF @ f) @ dG
    except np.linalg.LinAlgError:  # singular: every difference is zero (or underflowed)
        return None


def proximal_point(space, J, x0, schedule, errors=None, reference=None, keep_iterates=False):
    """Relaxed fixed-point iteration ``x <- x + lambda_n (J x - x)``.

    ``J`` must be firmly nonexpansive (resolvents and norm-gated composed
    resolvents from this package qualify).  When ``errors`` is given, the
    evaluation ``J x_n + c_n`` is used instead and the weighted error sum
    ``sum lambda_n ||c_n||`` is logged in the trace -- summability is the
    caller's responsibility and is reported, never enforced.

    Returns ``(x_final, trace)``.  ``x0``, ``reference`` and each error
    ``c_n`` are validated; the step ``J x_n - x_n`` is only checked for its
    shape, and a non-finite one ends the run with reason ``non-finite``.
    The iteration is the plain one: an ``anderson`` schedule raises
    ``ValidationError``.
    """
    if schedule.anderson:
        raise ValidationError("proximal_point runs the plain steps only; use anderson=False")
    x = space.validate(x0).copy()
    ref = None if reference is None else space.validate(reference)
    drawn = []  # the errors c_0, c_1, ... in the order the steps used them

    def step(x):
        jx = J(x)
        if errors is not None:
            n = len(drawn)
            c = errors(n) if callable(errors) else (
                errors[n] if n < len(errors) else space.zeros()
            )
            drawn.append(c)
            jx = jx + c
        s = jx - x
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
    trace.inexact_weighted_sum = sum(
        (schedule.lambda_at(n) * space.norm(c) for n, c in enumerate(drawn[:trace.iterations])),
        0.0,
    )
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
        B._check_scale(gamma)
        self.V = V
        self.L = L
        self.B = B
        self.gamma = float(gamma)
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

    def _inner_resolvent(self, x):
        """``(Id - L* L + L* J_{gamma B} L)(x)`` -- the unprojected map."""
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


def _coordinate_step(pieces, gamma, r):
    """The coordinate step ``c -> sum_k A_k* (J_{gamma B_k}(A_k c) - A_k c)`` and its Jacobian.

    ``pieces`` yields ``(A_k, A_k*, B_k)``.  A block whose derivative
    ``D_k`` is constant contributes the fixed ``G_k c + h_k``, with
    ``G_k = A_k* (D_k - I) A_k`` and ``h_k = A_k* J_{gamma B_k}(0)``, summed
    once here; the other blocks are stacked into one ``A_N`` and evaluated
    per step through their raw evaluators.  Every block's scale is checked.
    Returns ``(step, jacobian)``: ``jacobian(c)`` is the ``r x r`` matrix
    ``G + A_N* (D_N(A_N c) - I) A_N``, built block by block from the
    declared derivatives (the constant ``G`` when every block is affine),
    and None when a nonlinear block declares no derivative.
    """
    G, h = np.zeros((r, r)), np.zeros(r)
    rows, adjs, blocks = [], [], []
    start = 0
    for A_k, A_k_adj, B_k in pieces:
        B_k._check_scale(gamma)
        if B_k.constant_derivative:
            origin = np.zeros(len(A_k))
            G += A_k_adj @ displacement_jacobian(B_k.derivative(gamma, origin), A_k)
            h += A_k_adj @ B_k._evaluator(gamma, origin)
            continue
        rows.append(A_k)
        adjs.append(A_k_adj)
        blocks.append((B_k, slice(start, start + len(A_k))))
        start += len(A_k)
    if not blocks:
        return (lambda c: G @ c + h), (lambda c: G)
    A_N, A_N_adj = np.vstack(rows), np.hstack(adjs)
    if len(blocks) == 1:
        resolve = blocks[0][0]._evaluator

        def nonlinear(c):
            y = A_N @ c
            return A_N_adj @ (resolve(gamma, y) - y)
    else:
        def nonlinear(c):
            y = A_N @ c
            z = np.empty_like(y)
            for B_k, sl in blocks:
                z[sl] = B_k._evaluator(gamma, y[sl])
            return A_N_adj @ (z - y)

    jacobian = None
    if all(B_k.derivative is not None for B_k, _ in blocks):
        def jacobian(c):
            y = A_N @ c
            DA = np.empty_like(A_N)
            for B_k, sl in blocks:
                DA[sl] = displacement_jacobian(B_k.derivative(gamma, y[sl]), A_N[sl])
            return G + A_N_adj @ DA

    if len(blocks) == len(pieces):  # nothing folded
        return nonlinear, jacobian
    return (lambda c: G @ c + h + nonlinear(c)), jacobian


def _solve_in_coordinates(inst, x0, schedule, step, reference, keep_iterates, jacobian=None):
    """Run ``c <- c + lambda_n step(c)`` from the coordinates of ``proj_V x0``.

    ``jacobian`` gives the Newton candidates (see :func:`_iterate`).
    Returns ``(U c, trace)``; the trace is flagged when ``x0`` is off V.
    """
    space, basis = inst.space, inst.V.basis  # basis = U^T
    x = space.validate(x0)
    ref = None if reference is None else space.validate(reference)
    trace = Trace()
    c = basis @ (space.weights * x)
    if space._norm(x - c @ basis) > _MEMBERSHIP_TOL * (1.0 + space._norm(x)):
        trace.x0_projected = True
    c, trace = _iterate(
        step, c, schedule, lambda g: math.sqrt(g.dot(g)), trace,
        distance=None if ref is None else (lambda c: space._norm(c @ basis - ref)),
        lift=basis.T.dot if keep_iterates else None, jacobian=jacobian,
    )
    trace.var_residual = [r / inst.gamma for r in trace.fp_residual]
    return c @ basis, trace


def solve_relaxed(inst, x0, schedule=None, reference=None, keep_iterates=False):
    """Run the relaxation recursion on the stacked formulation.

    ``x0`` should lie in V; if it does not, it is projected and the trace
    is flagged.  Returns ``(x, trace)``; at convergence ``x`` satisfies
    the fixed-point characterization of the relaxed problem within the
    schedule tolerance.  ``var_residual`` is ``fp_residual / gamma``: the
    membership term of :func:`variational_residual` vanishes on iterates
    ``U c``.
    """
    A = inst.A
    A_adj = A.T * inst.L.codomain.weights
    factors = inst.B.factors or [(inst.B, slice(None))]
    step, jacobian = _coordinate_step([(A[sl], A_adj[:, sl], B_k) for B_k, sl in factors],
                                      inst.gamma, A.shape[1])
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
    pieces = []
    for L_k, B_k, w_k in inst.blocks:
        A_k = L_k.matrix @ U
        pieces.append((A_k, w_k * A_k.T * L_k.codomain.weights, B_k))
    step, jacobian = _coordinate_step(pieces, inst.gamma, U.shape[1])
    return _solve_in_coordinates(inst, x0, schedule or Schedule(), step, reference,
                                 keep_iterates, jacobian)


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
    """Check a solver output and give its verdict.

    A relaxed solution is "S1 attained" when it also satisfies the original
    inclusion within ``tol``, and "relaxed only" otherwise.  When
    ``known_feasible`` (a point of the original solution set) is supplied,
    it is checked, and ``s1_attained`` records whether the output attains
    the original problem, as the exact relaxation says it must.
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
    elif original <= tol:
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
