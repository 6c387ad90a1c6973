"""Randomized property suites for every module, behind one entry point.

Each suite draws a deterministic stream of random instances, evaluates one
identity or inequality from the calculus, and reports its worst defect
against a fixed threshold.  ``run_properties`` executes all of them and is
what ``rescomp props`` calls; the pytest suite reuses individual suites.

A "trial" is one sampled check.  ``trials=0`` passes vacuously with a
warning.
"""

from __future__ import annotations

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
from .hilbert import LinearMap, Space, SubspaceProjector, identity_map, stack
from .operators import GraphPoint
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


def _suite(name, tol):
    """Turn a check returning its worst defect into a suite returning a SuiteResult.

    The suite passes when the worst defect is at most ``tol``; zero trials
    pass vacuously without running the check.  Keyword arguments pass
    through to the check.
    """

    def decorate(check):
        def suite(rng, trials, **kwargs):
            if trials == 0:
                return SuiteResult(name, 0.0, tol, True, "vacuous: zero trials requested")
            worst = check(rng, trials, **kwargs)
            return SuiteResult(name, worst, tol, worst <= tol)

        # No ``__wrapped__``: unwrapping one level must give the suite back.
        suite.__name__, suite.__qualname__ = check.__name__, check.__qualname__
        suite.__doc__ = check.__doc__
        return suite

    return decorate


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
        L = LinearMap(domain, codomain, M * (norm / L.op_norm()))
    return L


def _random_invertible_contraction(rng, domain, codomain, norm=0.9):
    """Square-ish map with controlled smallest singular value."""
    n = codomain.dim
    M = rng.standard_normal((n, domain.dim))
    u, s, vt = np.linalg.svd(M, full_matrices=False)
    s = np.linspace(1.0, 0.4, num=len(s))
    L = LinearMap(domain, codomain, u @ np.diag(s) @ vt)
    return LinearMap(domain, codomain, L.matrix * (norm / L.op_norm()))


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


def _firm_defect(space, T, x1, x2):
    t1, t2 = T(x1), T(x2)
    lhs = space.norm(t1 - t2) ** 2 + space.norm((x1 - t1) - (x2 - t2)) ** 2
    return lhs - space.norm(x1 - x2) ** 2


# ---------------------------------------------------------------------------
# hilbert suites
# ---------------------------------------------------------------------------


@_suite("hilbert/adjoint-identity", 1e-10)
def suite_adjoint_identity(rng, trials):
    worst = 0.0
    for _ in range(trials):
        H = _random_space(rng)
        G = _random_space(rng)
        L = _random_map(rng, H, G)
        x, y = H.random(rng), G.random(rng)
        err = abs(G.inner(L.apply(x), y) - H.inner(x, L.adjoint_apply(y)))
        worst = max(worst, err / (1.0 + H.norm(x) * G.norm(y)))
    return worst


@_suite("hilbert/projector-firm", 1e-12)
def suite_projector_firm(rng, trials):
    worst = -np.inf
    for _ in range(trials):
        H = _random_space(rng, max_dim=6, min_dim=2)
        k = int(rng.integers(1, H.dim + 1))
        P = SubspaceProjector(H, [H.random(rng) for _ in range(k)])
        defect = _firm_defect(H, P.apply, H.random(rng), H.random(rng))
        worst = max(worst, defect)
    return worst


@_suite("hilbert/stack-norm", 1e-9)
def suite_stack_norm(rng, trials):
    worst = -np.inf
    for _ in range(max(1, trials // 10)):
        H = _random_space(rng, max_dim=4)
        p = int(rng.integers(1, 5))
        maps = [_random_map(rng, H, _random_space(rng, max_dim=3)) for _ in range(p)]
        w = rng.uniform(0.2, 1.5, size=p)
        bound = sum(wk * L.op_norm() ** 2 for wk, L in zip(w, maps))
        worst = max(worst, stack(maps, list(w)).op_norm() ** 2 - bound)
    return worst


# ---------------------------------------------------------------------------
# operator suites
# ---------------------------------------------------------------------------


@_suite("operators/monotone-graph", 1e-10)
def suite_monotone_graph(rng, trials):
    worst = -np.inf
    pairs_per_op = 10
    for i in range(max(1, trials // pairs_per_op)):
        space = _random_space(rng)
        B = _random_operator(rng, space)
        pts = B.sample_graph(pairs_per_op + 1, seed=int(rng.integers(0, 2**31)))
        for a, b in zip(pts, pts[1:]):
            worst = max(worst, -space.inner(a.x - b.x, a.xstar - b.xstar))
    return worst


@_suite("operators/moreau-identity", 1e-12)
def suite_moreau_identity(rng, trials):
    worst = 0.0
    for _ in range(trials):
        space = _random_space(rng)
        B = _random_operator(rng, space)
        x = space.random(rng)
        recon = B.resolvent(1.0, x) + B.inverse_resolvent(1.0, x)
        worst = max(worst, space.norm(recon - x) / (1.0 + space.norm(x)))
    return worst


@_suite("operators/zeros-vs-fixed-points", 1e-10)
def suite_zeros_fixed_points(rng, trials):
    worst = -np.inf
    scales = (0.1, 1.0, 10.0)
    for _ in range(max(1, trials // 6)):
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
            for gamma in scales:
                worst = max(worst, space.norm(zero - B.resolvent(gamma, zero)))
                if nonzero is not None and space.norm(nonzero - B.resolvent(gamma, nonzero)) <= 1e-6:
                    worst = max(worst, 1.0)  # a non-zero point claimed to be fixed
    return worst


def _unit(rng, space):
    v = space.random(rng)
    return v / max(space.norm(v), 1e-9)


@_suite("operators/yosida-cocoercive", 1e-10)
def suite_yosida_cocoercive(rng, trials):
    worst = -np.inf
    for _ in range(trials):
        space = _random_space(rng)
        B = _random_operator(rng, space)
        gamma = rng.uniform(0.1, 5.0)
        x1, x2 = space.random(rng), space.random(rng)
        y1, y2 = B.yosida(gamma, x1), B.yosida(gamma, x2)
        worst = max(
            worst,
            gamma * space.norm(y1 - y2) ** 2 - space.inner(x1 - x2, y1 - y2),
        )
    return worst


# ---------------------------------------------------------------------------
# composition suites
# ---------------------------------------------------------------------------


@_suite("compositions/resolvent-rule", 1e-10)
def suite_resolvent_rule(rng, trials):
    """Composed resolvent against the parallel-composition definition route."""
    worst = 0.0
    for i in range(trials):
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
            err = space.norm(A.resolvent(1.0, x) - x / (1.0 + m))
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
            err = H.norm(A.resolvent(1.0, x) - direct.resolvent(1.0, x))
        worst = max(worst, err)
    return worst


@_suite("compositions/firmly-nonexpansive", 1e-10)
def suite_composed_firm(rng, trials):
    worst = -np.inf
    pairs_per_op = 10
    for _ in range(max(1, trials // pairs_per_op)):
        A = _random_composed(rng)
        space = A.space
        for _ in range(pairs_per_op):
            defect = _firm_defect(
                space, lambda v: A.resolvent(1.0, v), space.random(rng), space.random(rng)
            )
            worst = max(worst, defect)
    return worst


@_suite("compositions/monotone-graph", 1e-10)
def suite_composed_monotone(rng, trials):
    worst = -np.inf
    pairs_per_op = 10
    for _ in range(max(1, trials // pairs_per_op)):
        A = _random_composed(rng)
        pts = A.sample_graph(pairs_per_op + 1, seed=int(rng.integers(0, 2**31)))
        for a, b in zip(pts, pts[1:]):
            worst = max(worst, -A.space.inner(a.x - b.x, a.xstar - b.xstar))
    return worst


@_suite("compositions/inverse-duality", 1e-10)
def suite_inverse_duality(rng, trials):
    """Graph of the composition against the cocomposition of the inverse."""
    worst = 0.0
    for _ in range(trials):
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
        worst = max(worst, dual.graph_residual(GraphPoint(point.xstar, point.x)))
    return worst


@_suite("compositions/isometry-collapse", 1e-12)
def suite_isometry_collapse(rng, trials):
    worst = 0.0
    for _ in range(trials):
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
        worst = max(worst, diff / (1.0 + H.norm(x)))
    return worst


@_suite("compositions/chaining", 1e-12)
def suite_chaining(rng, trials):
    worst = 0.0
    for _ in range(max(1, trials // 10)):
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
            worst = max(worst, diff / (1.0 + H.norm(x)))
    return worst


@_suite("compositions/zero-transport", 1e-10)
def suite_zero_transport(rng, trials):
    worst = 0.0
    for _ in range(trials):
        H = _random_space(rng, max_dim=4, min_dim=2)
        G = Space(H.dim, rng.uniform(0.4, 2.5, size=H.dim))
        L = _random_invertible_contraction(rng, H, G, norm=rng.uniform(0.4, 1.0))
        cset = _random_set(rng, G)
        B = ops.normal_cone(cset)
        target = cset.project(G.random(rng))
        x = np.linalg.solve(L.matrix, target)
        coco = resolvent_cocomposition(L, B, gamma=rng.uniform(0.4, 2.0))
        worst = max(worst, H.norm(coco.resolvent(1.0, x) - x) / (1.0 + H.norm(x)))
    return worst


@_suite("compositions/strong-monotonicity", 1e-8)
def suite_strong_monotonicity(rng, trials):
    worst = -np.inf
    pairs_per_op = 10
    for _ in range(max(1, trials // pairs_per_op)):
        dim = int(rng.integers(2, 5))
        space = Space(dim)
        alpha = rng.uniform(0.2, 3.0)
        extra = _random_psd(rng, space, scale=0.5)
        B = ops.linear_monotone(space, alpha * np.eye(dim) + extra)
        eta = rng.uniform(0.3, 0.95)
        L = LinearMap(space, space, eta * _random_orthogonal(rng, dim))
        beta = strong_monotonicity_modulus(alpha, eta)
        A = resolvent_composition(L, B)
        pts = A.sample_graph(pairs_per_op + 1, seed=int(rng.integers(0, 2**31)))
        for a, b in zip(pts, pts[1:]):
            dx = a.x - b.x
            worst = max(
                worst,
                beta * space.norm(dx) ** 2 - space.inner(dx, a.xstar - b.xstar),
            )
    return worst


@_suite("compositions/resolvent-average", 1e-12)
def suite_resolvent_average(rng, trials):
    worst = 0.0
    for _ in range(trials):
        H = _random_space(rng, max_dim=4)
        p = int(rng.integers(1, 4))
        w = rng.uniform(0.2, 1.0, size=p)
        w = list(w / w.sum())
        Bs = [_random_operator(rng, H) for _ in range(p)]
        gamma = rng.uniform(0.4, 2.0)
        A = resolvent_average(Bs, w, gamma=gamma)
        x = H.random(rng)
        expected = sum(wk * B.resolvent(gamma, x) for wk, B in zip(w, Bs))
        worst = max(worst, H.norm(A.resolvent(1.0, x) - expected) / (1.0 + H.norm(x)))
    return worst


# ---------------------------------------------------------------------------
# prox suites
# ---------------------------------------------------------------------------


@_suite("proxfun/moreau-decomposition", 1e-12)
def suite_moreau_decomposition(rng, trials):
    worst = 0.0
    for i in range(trials):
        space = _random_space(rng)
        x = space.random(rng)
        g = _random_prox_function(rng, space)
        recon = g.prox(1.0, x) + pf.conjugate_prox(g, 1.0, x)
        worst = max(worst, space.norm(recon - x) / (1.0 + space.norm(x)))
        if i % 3 == 0:
            # closed-form dual pair: the l1 conjugate is a box indicator
            gamma = rng.uniform(0.2, 5.0)
            dual = pf.conjugate_prox(pf.one_norm(space), gamma, x)
            box = np.clip(x, -1.0 / space.weights, 1.0 / space.weights)
            worst = max(worst, space.norm(dual - box) / (1.0 + space.norm(x)))
    return worst


@_suite("proxfun/envelope-sum", 1e-10)
def suite_envelope_sum(rng, trials):
    worst = 0.0
    for _ in range(trials):
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
        worst = max(worst, abs(total - 0.5 * space.norm(x) ** 2) / (1.0 + space.norm(x) ** 2))
    return worst


@_suite("proxfun/cocomposition-gradient", 1e-12)
def suite_cocomposition_gradient(rng, trials):
    worst = 0.0
    for _ in range(trials):
        H = _random_space(rng, max_dim=4)
        G = _random_space(rng, max_dim=4)
        L = _random_map(rng, H, G, norm=rng.uniform(0.2, 1.0))
        g = _random_prox_function(rng, G)
        x = H.random(rng)
        lhs = x - pf.proximal_cocomposition_prox(L, g, x)
        y = L.apply(x)
        rhs = L.adjoint_apply(y - g.prox(1.0, y))
        worst = max(worst, H.norm(lhs - rhs) / (1.0 + H.norm(x)))
    return worst


@_suite("proxfun/argmin-transport", 1e-10)
def suite_argmin_transport(rng, trials):
    worst = 0.0
    for _ in range(trials):
        H = _random_space(rng, max_dim=4, min_dim=2)
        G = Space(H.dim, rng.uniform(0.4, 2.5, size=H.dim))
        L = _random_invertible_contraction(rng, H, G, norm=rng.uniform(0.4, 1.0))
        g = _random_prox_function(rng, G)
        m = g.minimizer()
        x = np.linalg.solve(L.matrix, m)
        fixed = pf.proximal_cocomposition_prox(L, g, x)
        worst = max(worst, H.norm(fixed - x) / (1.0 + H.norm(x)))
    return worst


@_suite("proxfun/argmin-composition", 1e-8)
def suite_argmin_composition(rng, trials):
    """Fixed points of the composition prox against a direct linear solve."""
    worst = 0.0
    for _ in range(max(1, trials // 20)):
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
        worst = max(
            worst,
            H.norm(pf.proximal_composition_prox(L, g, x_star) - x_star),
        )
        x = H.random(rng)
        for _ in range(8_000):
            nxt = pf.proximal_composition_prox(L, g, x)
            if H.norm(nxt - x) <= 1e-13:
                x = nxt
                break
            x = nxt
        worst = max(worst, H.norm(x - x_star))
    return worst


@_suite("proxfun/prox-firm", 1e-10)
def suite_prox_firm(rng, trials):
    worst = -np.inf
    pairs_per_fn = 10
    for i in range(max(1, trials // pairs_per_fn)):
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
        for _ in range(pairs_per_fn):
            worst = max(worst, _firm_defect(space, T, space.random(rng), space.random(rng)))
    return worst


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


@_suite("solvers/engine-equivalence", 1e-12)
def suite_engine_equivalence(rng, trials):
    worst = 0.0
    for _ in range(max(1, trials // 100)):
        inst = _random_split_instance(rng)
        x0 = inst.V.apply(inst.space.random(rng))
        lam = float(rng.uniform(0.5, 1.8))
        schedule = Schedule(lam=lam, max_iterations=80, tol=1e-13)
        xa, ta = solve_relaxed(inst, x0, schedule, keep_iterates=True)
        xb, tb = proximal_point(
            inst.space, inst.relaxed_resolvent, x0, schedule, keep_iterates=True
        )
        n = min(len(ta.iterates), len(tb.iterates))
        for u, v in zip(ta.iterates[:n], tb.iterates[:n]):
            worst = max(worst, inst.space.norm(u - v))
    return worst


@_suite("solvers/fejer-monotone", 1e-9)
def suite_fejer(rng, trials):
    worst = -np.inf
    for _ in range(max(1, trials // 100)):
        inst = _random_split_instance(rng)
        ref, _flag = least_squares_oracle(inst)
        lam = float(rng.uniform(0.5, 1.9))
        x0 = inst.V.apply(inst.space.random(rng))
        _, trace = solve_relaxed(
            inst, x0, Schedule(lam=lam, max_iterations=150, tol=1e-13), reference=ref
        )
        dists = [d for d in trace.dist_ref if d is not None]
        for a, b in zip(dists, dists[1:]):
            worst = max(worst, b - a)
    return worst


@_suite("solvers/residual-agreement", 1e-10)
def suite_residual_agreement(rng, trials):
    worst = 0.0
    for _ in range(max(1, trials // 200)):
        inst = _random_split_instance(rng)
        x, trace = solve_relaxed(
            inst, inst.space.zeros(),
            Schedule(lam=1.0, max_iterations=500_000, tol=1e-12, anderson=True),
        )
        fam = inst.relaxed_family()
        worst = max(worst, inst.fixed_point_residual(x))
        worst = max(worst, variational_residual(inst, x))
        worst = max(worst, fam.graph_residual(GraphPoint(x, inst.space.zeros())))
    return worst


@_suite("solvers/block-stacked", 1e-12)
def suite_block_stacked(rng, trials):
    worst = 0.0
    for i in range(10):
        if i % 3 == 2:
            inst = _random_wiener_instance(rng)
        else:
            inst = _random_split_instance(rng)
        x0 = inst.V.apply(inst.space.random(rng))
        schedule = Schedule(lam=1.0, max_iterations=60, tol=1e-14)
        xa, ta = solve_relaxed(inst, x0, schedule, keep_iterates=True)
        xb, tb = solve_blocks(inst, x0, schedule, keep_iterates=True)
        n = min(len(ta.iterates), len(tb.iterates))
        for u, v in zip(ta.iterates[:n], tb.iterates[:n]):
            worst = max(worst, inst.space.norm(u - v))
    return worst


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
        # a callable forward map, so the solvers evaluate the blocks, not their forms
        fams.append(ops.make_wiener(g, (lambda cc: (lambda y: cc * y))(c), g.random(rng)))
    return RelaxedInstance.from_blocks(V, zip(Ls, fams, w), 1.0, kind="wiener")


# ---------------------------------------------------------------------------
# bench suites
# ---------------------------------------------------------------------------


@_suite("bench/oracle-agreement", 1e-6)
def suite_oracle_agreement(rng, trials):
    worst = 0.0
    for _ in range(max(1, trials // 100)):
        inst = _random_split_instance(rng)
        ref, _flag = least_squares_oracle(inst)
        x, _trace = solve_relaxed(inst, inst.space.zeros(), Schedule(tol=1e-12, anderson=True))
        worst = max(worst, inst.space.norm(x - ref))
    return worst


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


@_suite("bench/determinism", 0.0)
def suite_determinism(rng, trials):
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
    return 0.0 if same else 1.0


# ---------------------------------------------------------------------------
# registry and entry point
# ---------------------------------------------------------------------------

SUITES = [
    suite_adjoint_identity,
    suite_projector_firm,
    suite_stack_norm,
    suite_monotone_graph,
    suite_moreau_identity,
    suite_zeros_fixed_points,
    suite_yosida_cocoercive,
    suite_resolvent_rule,
    suite_composed_firm,
    suite_composed_monotone,
    suite_inverse_duality,
    suite_isometry_collapse,
    suite_chaining,
    suite_zero_transport,
    suite_strong_monotonicity,
    suite_resolvent_average,
    suite_moreau_decomposition,
    suite_envelope_sum,
    suite_cocomposition_gradient,
    suite_argmin_transport,
    suite_argmin_composition,
    suite_prox_firm,
    suite_engine_equivalence,
    suite_fejer,
    suite_residual_agreement,
    suite_block_stacked,
    suite_oracle_agreement,
    suite_determinism,
]


def run_properties(seed=0, trials=1000, out=print):
    """Run every suite; returns 0 when all pass, 2 otherwise."""
    if trials == 0:
        out("warning: trials=0 requested; every suite passes vacuously")
    results = []
    for index, suite in enumerate(SUITES):
        res = suite(np.random.default_rng([seed, index]), trials)
        results.append(res)
        out(res.line())
    failed = [r for r in results if not r.passed]
    out(f"{len(results) - len(failed)}/{len(results)} property suites passed")
    return 0 if not failed else 2
