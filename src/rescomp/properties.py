"""Randomized property suites for every module, behind one entry point.

Each suite draws a deterministic stream of random instances, evaluates one
identity or inequality from the calculus, and reports its worst defect
against a fixed threshold.  ``run_properties`` executes all of them and is
what ``rescomp props`` calls; the pytest suite reuses individual suites.

A suite is written as one trial: a generator ``check(rng, i)`` that draws
trial ``i`` and yields its defects.  ``_suite`` runs the trials and keeps
the worst defect, so a NaN defect fails its suite.  ``trials=0`` passes
vacuously with a warning.  ``_firm_defect`` is the suites' one
firm-nonexpansiveness test, of one pair or of a stack of pairs per map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import operators as ops
from . import proxfun as pf
from .bench import execute, least_squares_oracle, InstanceSpec
from .compositions import (
    compose_chain,
    resolvent_average,
    resolvent_composition,
    resolvent_cocomposition,
    resolvent_mixture,
    strong_monotonicity_modulus,
)
from .hilbert import LinearMap, Space, SubspaceProjector, _count, identity_map, stack
from .operators import GraphPoint, ResolventFamily
from .sets import Ball, Box, Halfspace, Singleton
from .solvers import RelaxedInstance, Schedule, proximal_point, solve_blocks, solve_relaxed, variational_residual


@dataclass
class SuiteResult:
    name: str
    worst: float
    threshold: float
    passed: bool
    note: str = ""

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.note})" if self.note else ""
        return f"{status}  {self.name:<36} worst defect {self.worst:.3e}  tol {self.threshold:.0e}{extra}"


# Every suite, in the order it is defined here; suite i draws from the stream [seed, i].
SUITES = []


def _suite(name, tol, per=1):
    """Turn a one-trial check into a suite ``suite(rng, trials)`` returning a SuiteResult.

    ``check(rng, i)`` draws trial ``i`` from ``rng`` and yields its defects.
    The suite runs ``max(1, trials // per)`` trials, or one when ``per`` is
    None, and its worst defect is the sequential ``max`` of every defect
    from ``-inf``, except that a NaN defect makes it NaN.  The suite passes
    when the worst defect is at most ``tol``, so a NaN fails it; zero trials
    pass vacuously without running the check.  The suite is appended to
    ``SUITES``.
    """

    def decorate(check):
        def suite(rng, trials):
            if trials == 0:
                return SuiteResult(name, 0.0, tol, True, "vacuous: zero trials requested")
            worst = -math.inf
            for i in range(1 if per is None else max(1, trials // per)):
                for defect in check(rng, i):
                    worst = defect if math.isnan(defect) else max(worst, defect)
            return SuiteResult(name, worst, tol, worst <= tol)

        # No ``__wrapped__``: unwrapping one level must give the suite back.
        suite.__name__, suite.__qualname__ = check.__name__, check.__qualname__
        suite.__doc__ = check.__doc__
        SUITES.append(suite)
        return suite

    return decorate


def _firm_defect(space, T, a, b):
    """``||Ta - Tb||^2 + ||(a - Ta) - (b - Tb)||^2 - ||a - b||^2``: at most 0 for a firm ``T``.

    ``a`` and ``b`` are one pair of points, or ``(k, dim)`` stacks of ``k`` pairs that give
    ``k`` defects (``T`` is applied row by row).  Every output is validated, so a non-finite
    one raises rather than give a NaN defect.
    """
    if a.ndim == 1:
        ta, tb = space.validate(T(a)), space.validate(T(b))
    else:
        ta, tb = (space.validate_rows([T(x) for x in rows]) for rows in (a, b))
    sq = space._squared_norms
    return sq(ta - tb) + sq((a - ta) - (b - tb)) - sq(a - b)


# ---------------------------------------------------------------------------
# random generators
# ---------------------------------------------------------------------------


def _random_space(rng, max_dim=5, min_dim=1):
    dim = int(rng.integers(min_dim, max_dim + 1))
    weights = rng.uniform(0.4, 2.5, size=dim)
    return Space(dim, weights)


def _random_map(rng, domain, codomain, norm=None):
    M = rng.standard_normal((codomain.dim, domain.dim))
    L = LinearMap(domain, codomain, M)
    if norm is not None and L.op_norm() > 0:
        L = L.scaled(norm / L.op_norm())
    return L


def _random_invertible_contraction(rng, domain, codomain, norm=0.9):
    """Square-ish map with controlled smallest singular value."""
    n = codomain.dim
    M = rng.standard_normal((n, domain.dim))
    u, s, vt = np.linalg.svd(M, full_matrices=False)
    s = np.linspace(1.0, 0.4, num=len(s))
    L = LinearMap(domain, codomain, u @ np.diag(s) @ vt)
    return L.scaled(norm / L.op_norm())


def _random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _random_set(rng, space):
    kind = rng.integers(0, 4)
    if kind == 0:
        lo = rng.uniform(-2.0, 0.0, size=space.dim)
        return Box(space, lo, lo + rng.uniform(0.5, 2.0, size=space.dim))
    if kind == 1:
        return Ball(space, space.random(rng), rng.uniform(0.5, 2.0))
    if kind == 2:
        return Halfspace(space, space.random(rng) + 0.1, rng.uniform(-1.0, 1.0))
    return Singleton(space, space.random(rng))


def _random_psd(rng, space, scale=1.5):
    """Matrix of a metric-self-adjoint PSD operator on ``space``."""
    A = rng.standard_normal((space.dim, space.dim))
    S = A @ A.T * (scale / space.dim)
    # W Q must be symmetric: Q = W^-1 S with S symmetric
    return S / space.weights[:, None]


def _random_prox_function(rng, space):
    kind = rng.integers(0, 4)
    if kind == 0:
        return pf.one_norm(space)
    if kind == 1:
        return pf.quadratic(space, _random_psd(rng, space) + 0.2 * np.eye(space.dim),
                            space.random(rng))
    if kind == 2:
        return pf.half_squared_distance(space, space.random(rng))
    return pf.indicator(_random_set(rng, space))


def _random_operator(rng, space):
    kind = rng.integers(0, 5)
    if kind == 0:
        return ops.zero_operator(space)
    if kind == 1:
        return ops.scaled_identity(space, rng.uniform(0.0, 3.0))
    if kind == 2:
        return ops.normal_cone(_random_set(rng, space))
    if kind == 3:
        skew = rng.standard_normal((space.dim, space.dim))
        skew = (skew - skew.T) / space.weights[:, None]
        return ops.linear_monotone(space, _random_psd(rng, space) + skew)
    return ops.subdifferential(_random_prox_function(rng, space))


def _random_composed(rng, variant=None):
    """A norm-gated composed operator over random catalog data."""
    if variant is None:
        variant = ("composition", "cocomposition", "mixture")[rng.integers(0, 3)]
    H = _random_space(rng, max_dim=4)
    gamma = rng.uniform(0.4, 2.0)
    if variant == "mixture":
        p = int(rng.integers(1, 4))
        spaces = [_random_space(rng, max_dim=3) for _ in range(p)]
        Ls = [_random_map(rng, H, g, norm=rng.uniform(0.3, 1.0)) for g in spaces]
        Bs = [_random_operator(rng, g) for g in spaces]
        w = rng.uniform(0.2, 1.0, size=p)
        w = w / np.sum(w * np.array([L.op_norm() ** 2 for L in Ls])) * rng.uniform(0.5, 1.0)
        return resolvent_mixture(Bs, Ls, list(w), gamma=gamma)
    G = _random_space(rng, max_dim=4)
    L = _random_map(rng, H, G, norm=rng.uniform(0.2, 1.0))
    B = _random_operator(rng, G)
    if variant == "composition":
        return resolvent_composition(L, B, gamma=gamma)
    return resolvent_cocomposition(L, B, gamma=gamma)


# ---------------------------------------------------------------------------
# hilbert suites
# ---------------------------------------------------------------------------


@_suite("hilbert/adjoint-identity", 1e-10)
def suite_adjoint_identity(rng, i):
    H = _random_space(rng)
    G = _random_space(rng)
    L = _random_map(rng, H, G)
    x, y = H.random(rng), G.random(rng)
    err = abs(G.inner(L.apply(x), y) - H.inner(x, L.adjoint_apply(y)))
    yield err / (1.0 + H.norm(x) * G.norm(y))


@_suite("hilbert/projector-firm", 1e-12)
def suite_projector_firm(rng, i):
    H = _random_space(rng, max_dim=6, min_dim=2)
    k = int(rng.integers(1, H.dim + 1))
    P = SubspaceProjector(H, [H.random(rng) for _ in range(k)])
    yield _firm_defect(H, P.apply, H.random(rng), H.random(rng))


@_suite("hilbert/stack-norm", 1e-9, per=10)
def suite_stack_norm(rng, i):
    H = _random_space(rng, max_dim=4)
    p = int(rng.integers(1, 5))
    maps = [_random_map(rng, H, _random_space(rng, max_dim=3)) for _ in range(p)]
    w = rng.uniform(0.2, 1.5, size=p)
    bound = sum(wk * L.op_norm() ** 2 for wk, L in zip(w, maps))
    yield stack(maps, list(w)).op_norm() ** 2 - bound


# ---------------------------------------------------------------------------
# operator suites
# ---------------------------------------------------------------------------


@_suite("operators/monotone-graph", 1e-10, per=10)
def suite_monotone_graph(rng, i):
    """Ten graph pairs per operator."""
    space = _random_space(rng)
    B = _random_operator(rng, space)
    pts = B.sample_graph(11, seed=int(rng.integers(0, 2**31)))
    for a, b in zip(pts, pts[1:]):
        yield -space.inner(a.x - b.x, a.xstar - b.xstar)


@_suite("operators/moreau-identity", 1e-12)
def suite_moreau_identity(rng, i):
    space = _random_space(rng)
    B = _random_operator(rng, space)
    x = space.random(rng)
    recon = B.resolvent(1.0, x) + B.inverse_resolvent(1.0, x)
    yield space.norm(recon - x) / (1.0 + space.norm(x))


@_suite("operators/zeros-vs-fixed-points", 1e-10, per=6)
def suite_zeros_fixed_points(rng, i):
    space = _random_space(rng)
    table = []
    c = rng.uniform(0.5, 3.0)
    z = space.random(rng)
    z = z * (1.0 / max(space.norm(z), 1e-6))
    table.append((ops.scaled_identity(space, c), space.zeros(), z))
    cset = _random_set(rng, space)
    inside = cset.project(space.random(rng))
    outside = None
    for _ in range(30):
        candidate = space.random(rng, scale=3.0)
        if cset.distance(candidate) > 1e-2:
            outside = candidate
            break
    table.append((ops.normal_cone(cset), inside, outside))
    p = space.random(rng)
    table.append((
        ops.subdifferential(pf.half_squared_distance(space, p)),
        p, p + _unit(rng, space),
    ))
    for B, zero, nonzero in table:
        for gamma in (0.1, 1.0, 10.0):
            yield space.norm(zero - B.resolvent(gamma, zero))
            if nonzero is not None and space.norm(nonzero - B.resolvent(gamma, nonzero)) <= 1e-6:
                yield 1.0  # a non-zero point claimed to be fixed


def _unit(rng, space):
    v = space.random(rng)
    return v / max(space.norm(v), 1e-9)


@_suite("operators/yosida-cocoercive", 1e-10)
def suite_yosida_cocoercive(rng, i):
    space = _random_space(rng)
    B = _random_operator(rng, space)
    gamma = rng.uniform(0.1, 5.0)
    x1, x2 = space.random(rng), space.random(rng)
    y1, y2 = B.yosida(gamma, x1), B.yosida(gamma, x2)
    yield gamma * space.norm(y1 - y2) ** 2 - space.inner(x1 - x2, y1 - y2)


# ---------------------------------------------------------------------------
# composition suites
# ---------------------------------------------------------------------------


@_suite("compositions/resolvent-rule", 1e-10)
def suite_resolvent_rule(rng, i):
    """Composed resolvent against the parallel-composition definition route."""
    if i % 2 == 0:
        # scalar closed form: L = a^-1 Id, B = c Id composes to
        # ((a^2 - 1) + c a^2) Id
        space = _random_space(rng, max_dim=3)
        a = rng.uniform(1.0, 3.0)
        c = rng.uniform(0.0, 3.0)
        L = LinearMap(space, space, np.eye(space.dim) / a)
        A = resolvent_composition(L, ops.scaled_identity(space, c))
        m = (a * a - 1.0) + c * a * a
        x = space.random(rng)
        yield space.norm(A.resolvent(1.0, x) - x / (1.0 + m))
    else:
        # matrix route through the definition: invert the middle map
        H = _random_space(rng, max_dim=4, min_dim=2)
        G = Space(H.dim, rng.uniform(0.4, 2.5, size=H.dim))
        L = _random_invertible_contraction(rng, H, G, norm=rng.uniform(0.4, 0.95))
        M = _random_psd(rng, G, scale=1.0)
        gamma = rng.uniform(0.5, 1.5)
        B = ops.linear_monotone(G, M)
        A = resolvent_composition(L, B, gamma=gamma)
        K = L.adjoint_matrix @ np.linalg.inv(np.eye(G.dim) + gamma * M) @ L.matrix
        Amat = np.linalg.inv(K) - np.eye(H.dim)
        direct = ops.linear_monotone(H, Amat)
        x = H.random(rng)
        yield H.norm(A.resolvent(1.0, x) - direct.resolvent(1.0, x))


@_suite("compositions/firmly-nonexpansive", 1e-10, per=10)
def suite_composed_firm(rng, i):
    """Ten pairs per operator."""
    A = _random_composed(rng)
    space = A.space
    pairs = rng.standard_normal((10, 2, space.dim))
    yield _firm_defect(space, lambda v: A.resolvent(1.0, v), pairs[:, 0], pairs[:, 1]).max()


@_suite("compositions/monotone-graph", 1e-10, per=10)
def suite_composed_monotone(rng, i):
    """Ten graph pairs per operator."""
    A = _random_composed(rng)
    pts = A.sample_graph(11, seed=int(rng.integers(0, 2**31)))
    for a, b in zip(pts, pts[1:]):
        yield -A.space.inner(a.x - b.x, a.xstar - b.xstar)


@_suite("compositions/inverse-duality", 1e-10)
def suite_inverse_duality(rng, i):
    """Graph of the composition against the cocomposition of the inverse."""
    H = _random_space(rng, max_dim=4)
    G = _random_space(rng, max_dim=4)
    L = _random_map(rng, H, G, norm=rng.uniform(0.2, 1.0))
    B = _random_operator(rng, G)
    gamma = rng.uniform(0.4, 2.0)
    A = resolvent_composition(L, B, gamma=gamma)
    dual = resolvent_cocomposition(L, B.scaled(gamma).inverse(), 1.0)
    z = H.random(rng)
    jz = A.resolvent(1.0, z)
    point = GraphPoint(jz, z - jz)
    yield dual.graph_residual(GraphPoint(point.xstar, point.x))


@_suite("compositions/isometry-collapse", 1e-12)
def suite_isometry_collapse(rng, i):
    H = _random_space(rng, max_dim=4)
    p = int(rng.integers(1, 4))
    w = rng.uniform(0.2, 1.0, size=p)
    w = list(w / w.sum())
    L = stack([identity_map(H)] * p, w)
    assert L.is_isometry()
    Bs = [_random_operator(rng, H) for _ in range(p)]
    prod = ops.product_family(Bs, w)
    gamma = rng.uniform(0.4, 2.0)
    comp = resolvent_composition(L, prod, gamma=gamma)
    coco = resolvent_cocomposition(L, prod, gamma=gamma)
    x = H.random(rng)
    diff = H.norm(comp.resolvent(1.0, x) - coco.resolvent(1.0, x))
    yield diff / (1.0 + H.norm(x))


@_suite("compositions/chaining", 1e-12, per=10)
def suite_chaining(rng, i):
    """Ten points per chain."""
    H = _random_space(rng, max_dim=3)
    G = _random_space(rng, max_dim=3)
    K = _random_space(rng, max_dim=3)
    Q = _random_map(rng, H, G, norm=rng.uniform(0.2, 1.0))
    L = _random_map(rng, G, K, norm=rng.uniform(0.2, 1.0))
    B = _random_operator(rng, K)
    flat = compose_chain(Q, L, B)
    nested = resolvent_composition(Q, resolvent_composition(L, B))
    for _ in range(10):
        x = H.random(rng)
        diff = H.norm(flat.resolvent(1.0, x) - nested.resolvent(1.0, x))
        yield diff / (1.0 + H.norm(x))


@_suite("compositions/zero-transport", 1e-10)
def suite_zero_transport(rng, i):
    H = _random_space(rng, max_dim=4, min_dim=2)
    G = Space(H.dim, rng.uniform(0.4, 2.5, size=H.dim))
    L = _random_invertible_contraction(rng, H, G, norm=rng.uniform(0.4, 1.0))
    cset = _random_set(rng, G)
    B = ops.normal_cone(cset)
    target = cset.project(G.random(rng))
    x = np.linalg.solve(L.matrix, target)
    coco = resolvent_cocomposition(L, B, gamma=rng.uniform(0.4, 2.0))
    yield H.norm(coco.resolvent(1.0, x) - x) / (1.0 + H.norm(x))


@_suite("compositions/strong-monotonicity", 1e-8, per=10)
def suite_strong_monotonicity(rng, i):
    """Ten graph pairs per operator."""
    dim = int(rng.integers(2, 5))
    space = Space(dim)
    alpha = rng.uniform(0.2, 3.0)
    extra = _random_psd(rng, space, scale=0.5)
    B = ops.linear_monotone(space, alpha * np.eye(dim) + extra)
    eta = rng.uniform(0.3, 0.95)
    L = LinearMap(space, space, eta * _random_orthogonal(rng, dim))
    beta = strong_monotonicity_modulus(alpha, eta)
    A = resolvent_composition(L, B)
    pts = A.sample_graph(11, seed=int(rng.integers(0, 2**31)))
    for a, b in zip(pts, pts[1:]):
        dx = a.x - b.x
        yield beta * space.norm(dx) ** 2 - space.inner(dx, a.xstar - b.xstar)


@_suite("compositions/resolvent-average", 1e-12)
def suite_resolvent_average(rng, i):
    H = _random_space(rng, max_dim=4)
    p = int(rng.integers(1, 4))
    w = rng.uniform(0.2, 1.0, size=p)
    w = list(w / w.sum())
    Bs = [_random_operator(rng, H) for _ in range(p)]
    gamma = rng.uniform(0.4, 2.0)
    A = resolvent_average(Bs, w, gamma=gamma)
    x = H.random(rng)
    expected = sum(wk * B.resolvent(gamma, x) for wk, B in zip(w, Bs))
    yield H.norm(A.resolvent(1.0, x) - expected) / (1.0 + H.norm(x))


# ---------------------------------------------------------------------------
# prox suites
# ---------------------------------------------------------------------------


@_suite("proxfun/moreau-decomposition", 1e-12)
def suite_moreau_decomposition(rng, i):
    space = _random_space(rng)
    x = space.random(rng)
    g = _random_prox_function(rng, space)
    recon = g.prox(1.0, x) + pf.conjugate_prox(g, 1.0, x)
    yield space.norm(recon - x) / (1.0 + space.norm(x))
    if i % 3 == 0:
        # closed-form dual pair: the l1 conjugate is a box indicator
        gamma = rng.uniform(0.2, 5.0)
        dual = pf.conjugate_prox(pf.one_norm(space), gamma, x)
        box = np.clip(x, -1.0 / space.weights, 1.0 / space.weights)
        yield space.norm(dual - box) / (1.0 + space.norm(x))


@_suite("proxfun/envelope-sum", 1e-10)
def suite_envelope_sum(rng, i):
    space = _random_space(rng)
    choice = rng.integers(0, 4)
    if choice == 0:
        g = pf.quadratic(space, _random_psd(rng, space) + 0.3 * np.eye(space.dim),
                         space.random(rng))
    elif choice == 1:
        g = pf.half_squared_distance(space, space.random(rng))
    elif choice == 2:
        g = pf.one_norm(space)
    else:
        tag = rng.integers(0, 3)
        if tag == 0:
            cset = Singleton(space, space.random(rng))
        elif tag == 1:
            lo = rng.uniform(-2.0, 0.0, size=space.dim)
            cset = Box(space, lo, lo + rng.uniform(0.5, 2.0, size=space.dim))
        else:
            cset = Ball(space, space.random(rng), rng.uniform(0.5, 2.0))
        g = pf.indicator(cset)
    x = space.random(rng)
    total = pf.moreau_envelope(g, 1.0, x) + pf.moreau_envelope(g.conjugate(), 1.0, x)
    yield abs(total - 0.5 * space.norm(x) ** 2) / (1.0 + space.norm(x) ** 2)


@_suite("proxfun/cocomposition-gradient", 1e-12)
def suite_cocomposition_gradient(rng, i):
    H = _random_space(rng, max_dim=4)
    G = _random_space(rng, max_dim=4)
    L = _random_map(rng, H, G, norm=rng.uniform(0.2, 1.0))
    g = _random_prox_function(rng, G)
    x = H.random(rng)
    lhs = x - pf.proximal_cocomposition_prox(L, g, x)
    y = L.apply(x)
    rhs = L.adjoint_apply(y - g.prox(1.0, y))
    yield H.norm(lhs - rhs) / (1.0 + H.norm(x))


@_suite("proxfun/argmin-transport", 1e-10)
def suite_argmin_transport(rng, i):
    H = _random_space(rng, max_dim=4, min_dim=2)
    G = Space(H.dim, rng.uniform(0.4, 2.5, size=H.dim))
    L = _random_invertible_contraction(rng, H, G, norm=rng.uniform(0.4, 1.0))
    g = _random_prox_function(rng, G)
    m = g.minimizer()
    x = np.linalg.solve(L.matrix, m)
    fixed = pf.proximal_cocomposition_prox(L, g, x)
    yield H.norm(fixed - x) / (1.0 + H.norm(x))


@_suite("proxfun/argmin-composition", 1e-8, per=20)
def suite_argmin_composition(rng, i):
    """Fixed points of the composition prox against a direct linear solve."""
    H = _random_space(rng, max_dim=3, min_dim=2)
    G = _random_space(rng, max_dim=3, min_dim=2)
    if rng.integers(0, 2) == 0:
        L = _random_map(rng, H, G, norm=rng.uniform(0.4, 0.95))
    else:
        G = Space(H.dim, rng.uniform(0.4, 2.5, size=H.dim))
        L = _random_invertible_contraction(rng, H, G, norm=1.0)
    Q = _random_psd(rng, G, scale=1.0) + 0.3 * np.eye(G.dim) / G.weights
    b = G.random(rng)
    g = pf.quadratic(G, Q, b)
    # stationarity of y -> g(y) + ||y||^2/2 - ||L* y||^2/2 in the G metric
    gram = L.matrix @ L.adjoint_matrix
    y_star = np.linalg.solve(Q + np.eye(G.dim) - gram, b)
    x_star = L.adjoint_apply(y_star)
    yield H.norm(pf.proximal_composition_prox(L, g, x_star) - x_star)
    T = lambda v: pf.proximal_composition_prox(L, g, v)
    x, _ = proximal_point(H, T, H.random(rng), Schedule(max_iterations=8_000, tol=1e-13))
    yield H.norm(x - x_star)


@_suite("proxfun/prox-firm", 1e-10, per=10)
def suite_prox_firm(rng, i):
    """Ten pairs per prox operator."""
    H = _random_space(rng, max_dim=4)
    mode = i % 4
    if mode == 0:
        g = _random_prox_function(rng, H)
        gamma = rng.uniform(0.2, 5.0)
        T = lambda v: g.prox(gamma, v)
        space = H
    else:
        G = _random_space(rng, max_dim=4)
        g = _random_prox_function(rng, G)
        L = _random_map(rng, H, G, norm=rng.uniform(0.2, 1.0))
        space = H
        if mode == 1:
            T = lambda v: pf.proximal_composition_prox(L, g, v)
        elif mode == 2:
            T = lambda v: pf.proximal_cocomposition_prox(L, g, v)
        else:
            g2 = _random_prox_function(rng, H)
            w = rng.uniform(0.2, 0.8)
            scale = w * L.op_norm() ** 2 + (1 - w)
            w_pair = [w / max(scale, 1.0), (1 - w) / max(scale, 1.0)]
            T = lambda v: pf.proximal_mixture_prox(
                [g, g2], [L, identity_map(H)], w_pair, v
            )
    pairs = rng.standard_normal((10, 2, space.dim))
    yield _firm_defect(space, T, pairs[:, 0], pairs[:, 1]).max()


# ---------------------------------------------------------------------------
# solver suites
# ---------------------------------------------------------------------------


def _random_split_instance(rng):
    dim = int(rng.integers(2, 4))
    H = Space(dim, rng.uniform(0.4, 2.0, size=dim))
    k = int(rng.integers(1, H.dim))
    V = SubspaceProjector(H, [H.random(rng) for _ in range(k)])
    p = int(rng.integers(2, 4))
    dims = [int(rng.integers(1, 3)) for _ in range(p)]
    spaces = [Space(d, rng.uniform(0.5, 2.0, size=d)) for d in dims]
    Ls = [_random_map(rng, H, g) for g in spaces]
    w = rng.uniform(0.2, 1.0, size=p)
    total = sum(wk * L.op_norm() ** 2 for wk, L in zip(w, Ls))
    w = list(w / total * rng.uniform(0.6, 1.0))
    fams = [ops.normal_cone(Singleton(g, g.random(rng))) for g in spaces]
    return RelaxedInstance.from_blocks(V, zip(Ls, fams, w), rng.uniform(0.5, 2.0),
                                       kind="split-feasibility")


def _iterate_gap(space, ta, tb):
    """``max_n ||u_n - v_n||`` over the iterates the two traces share, each difference validated."""
    n = min(len(ta.iterates), len(tb.iterates))
    diffs = space.validate_rows(np.subtract(ta.iterates[:n], tb.iterates[:n]))
    return math.sqrt(space._squared_norms(diffs).max())


@_suite("solvers/engine-equivalence", 1e-12, per=100)
def suite_engine_equivalence(rng, i):
    inst = _random_split_instance(rng)
    x0 = inst.V.apply(inst.space.random(rng))
    lam = float(rng.uniform(0.5, 1.8))
    schedule = Schedule(lam=lam, max_iterations=80, tol=1e-13)
    xa, ta = solve_relaxed(inst, x0, schedule, keep_iterates=True)
    xb, tb = proximal_point(
        inst.space, inst.relaxed_resolvent, x0, schedule, keep_iterates=True
    )
    yield _iterate_gap(inst.space, ta, tb)


@_suite("solvers/fejer-monotone", 1e-9, per=100)
def suite_fejer(rng, i):
    inst = _random_split_instance(rng)
    ref, _flag = least_squares_oracle(inst)
    lam = float(rng.uniform(0.5, 1.9))
    x0 = inst.V.apply(inst.space.random(rng))
    _, trace = solve_relaxed(
        inst, x0, Schedule(lam=lam, max_iterations=150, tol=1e-13), reference=ref
    )
    dists = [d for d in trace.dist_ref if d is not None]
    for a, b in zip(dists, dists[1:]):
        yield b - a


@_suite("solvers/residual-agreement", 1e-10, per=200)
def suite_residual_agreement(rng, i):
    inst = _random_split_instance(rng)
    x, trace = solve_relaxed(
        inst, inst.space.zeros(),
        Schedule(lam=1.0, max_iterations=500_000, tol=1e-12, newton=True),
    )
    fam = inst.relaxed_family()
    yield inst.fixed_point_residual(x)
    yield variational_residual(inst, x)
    yield fam.graph_residual(GraphPoint(x, inst.space.zeros()))


@_suite("solvers/block-stacked", 1e-12, per=None)
def suite_block_stacked(rng, i):
    """Ten instances, whatever the trial count; every third is a Wiener instance."""
    for j in range(10):
        if j % 3 == 2:
            inst = _random_wiener_instance(rng)
        else:
            inst = _random_split_instance(rng)
        x0 = inst.V.apply(inst.space.random(rng))
        schedule = Schedule(lam=1.0, max_iterations=60, tol=1e-14)
        xa, ta = solve_relaxed(inst, x0, schedule, keep_iterates=True)
        xb, tb = solve_blocks(inst, x0, schedule, keep_iterates=True)
        yield _iterate_gap(inst.space, ta, tb)


def _random_wiener_instance(rng):
    dim = int(rng.integers(2, 4))
    H = Space(dim, rng.uniform(0.5, 2.0, size=dim))
    k = int(rng.integers(1, H.dim))
    V = SubspaceProjector(H, [H.random(rng) for _ in range(k)])
    p = int(rng.integers(1, 3))
    spaces = [Space(int(rng.integers(1, 3))) for _ in range(p)]
    Ls = [_random_map(rng, H, g) for g in spaces]
    w = rng.uniform(0.2, 1.0, size=p)
    total = sum(wk * L.op_norm() ** 2 for wk, L in zip(w, Ls))
    w = list(w / total * rng.uniform(0.6, 1.0))
    fams = []
    for g in spaces:
        c = float(rng.uniform(0.2, 0.9))
        point = g.random(rng)
        # a bare family of F = c Id declares no derivative, so the solvers evaluate the blocks
        fams.append(ResolventFamily(g, "wiener", lambda gamma, y, c=c, point=point:
                                    y - c * y + point, scale_domain=1.0))
    return RelaxedInstance.from_blocks(V, zip(Ls, fams, w), 1.0, kind="wiener")


# ---------------------------------------------------------------------------
# bench suites
# ---------------------------------------------------------------------------


@_suite("bench/oracle-agreement", 1e-6, per=100)
def suite_oracle_agreement(rng, i):
    inst = _random_split_instance(rng)
    ref, _flag = least_squares_oracle(inst)
    x, _trace = solve_relaxed(inst, inst.space.zeros(), Schedule(tol=1e-12, newton=True))
    yield inst.space.norm(x - ref)


ACCEPTANCE_SPEC_DICT = {
    "kind": "split-feasibility",
    "spaces": {"domain": {"dim": 2}, "blocks": [{"dim": 1}, {"dim": 1}]},
    "maps": [[[1.0, 0.0]], [[0.0, 1.0]]],
    "sets": [
        {"tag": "singleton", "point": [1.0]},
        {"tag": "singleton", "point": [3.0]},
    ],
    "weights": [0.5, 0.5],
    "subspace": [[1.0, 1.0]],
    "gamma": 1.0,
    "schedule": {"lambda": 1.0, "max_iterations": 200, "tol": 1e-10},
    "seed": 0,
}


@_suite("bench/determinism", 0.0, per=None)
def suite_determinism(rng, i):
    spec1 = InstanceSpec.from_dict(ACCEPTANCE_SPEC_DICT)
    spec2 = InstanceSpec.from_dict(ACCEPTANCE_SPEC_DICT)
    r1, t1 = execute(spec1)
    r2, t2 = execute(spec2)
    same = (
        r1.final_iterate == r2.final_iterate
        and r1.iterations == r2.iterations
        and r1.fp_residual == r2.fp_residual
        and r1.var_residual == r2.var_residual
        and r1.original_residual == r2.original_residual
        and t1.fp_residual == t2.fp_residual
        and t1.var_residual == t2.var_residual
    )
    yield 0.0 if same else 1.0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run_properties(seed=0, trials=1000, out=print):
    """Run every suite; returns 0 when all pass, 2 otherwise.

    A suite that raises is a FAIL line whose note names the exception, and
    the later suites still run.  A ``seed`` or ``trials`` that is not a
    nonnegative integer raises ``ValidationError`` before any suite runs.
    """
    seed, trials = _count("seed", seed), _count("trials", trials)
    if trials == 0:
        out("warning: trials=0 requested; every suite passes vacuously")
    results = []
    for index, suite in enumerate(SUITES):
        try:
            res = suite(np.random.default_rng([seed, index]), trials)
        except Exception as exc:  # the suite fails; the later ones still run
            head = suite(None, 0)  # zero trials: the suite's name and threshold, nothing checked
            res = SuiteResult(head.name, math.nan, head.threshold, False,
                              f"raised {type(exc).__name__}: {exc}")
        results.append(res)
        out(res.line())
    failed = [r for r in results if not r.passed]
    out(f"{len(results) - len(failed)}/{len(results)} property suites passed")
    return 0 if not failed else 2
