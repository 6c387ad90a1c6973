"""Convex functions represented by the resolvent families of their subdifferentials.

A :class:`ProxFunction` is a proper lsc convex function ``g`` carried as
one :class:`~rescomp.operators.ResolventFamily`, that of ``dg``, whose
resolvent ``J_{gamma dg}`` is ``prox_{gamma g}``; optionally with a value
oracle ``x -> g(x)`` (extended reals, ``inf`` allowed) and a conjugate
value oracle when a closed form exists.

The catalog covers indicators of convex sets, the l1 norm, quadratics,
half squared distances to a point, separable sums on weighted product
spaces, and conjugates, built with the operator side's constructions:
``d(iota_C) = N_C`` (``normal_cone``), ``dg* = (dg)^{-1}`` (``inverse``,
the one Moreau identity) and the product of the members' subdifferentials.
On top of the catalog this module implements Moreau envelopes and the
proximal composition, cocomposition, mixture and value operations for a
linear map with ``0 < ||L|| <= 1``.  The subdifferential of a proximal
composition is the resolvent composition of ``dg``, so the three prox
operations are the resolvents of the matching constructions of
:mod:`compositions`, which hold the only copy of each formula.

Proximity operators are taken with respect to the metric of the function's
space: closed forms are per-coordinate with weight-adjusted thresholds
(the l1 soft threshold at coordinate i is ``gamma / w_i``).  Functions are
immutable and evaluation is pure; the inner solver behind
:func:`proximal_composition_value` allocates all of its state per call.

Public entry points validate their vectors once; what runs behind them
calls the raw ``_prox`` / ``_value`` evaluators and raw norms.
"""

from __future__ import annotations

import numpy as np

from .compositions import (
    resolvent_cocomposition,
    resolvent_composition,
    resolvent_mixture,
)
from .errors import CapabilityError, ConvergenceError, ValidationError
from .hilbert import check_contraction, check_monotone, shifted_inverse
from .operators import ResolventFamily, normal_cone, product_family
from .sets import Ball, Box, ConvexSet, Singleton

# Membership tolerance when an indicator function is asked for its value.
INDICATOR_TOL = 1e-8


class ProxFunction:
    """A proper lsc convex function given by the resolvent family of its subdifferential.

    The resolvent of ``subdifferential`` is the prox, and its declared
    ``derivative`` is the derivative of the prox.
    """

    def __init__(self, tag, subdifferential, value=None, conjugate_value=None,
                 minimizer=None):
        self.space = subdifferential.space
        self.tag = tag
        self.subdifferential = subdifferential
        self._prox = subdifferential._evaluator
        self._value = value
        self._conjugate_value = conjugate_value
        self._minimizer = None if minimizer is None else self.space.validate(minimizer).copy()

    # -- evaluation ----------------------------------------------------

    def prox(self, gamma, x):
        """``prox_{gamma g}(x)`` for ``gamma > 0``."""
        if gamma <= 0.0:
            raise ValidationError(f"prox scale must be positive, got {gamma}")
        x = self.space.validate(x)
        return self._prox(float(gamma), x)

    @property
    def has_value(self):
        return self._value is not None

    def value(self, x):
        """``g(x)`` as an extended real (``float('inf')`` outside dom g)."""
        if self._value is None:
            raise CapabilityError(f"function {self.tag!r} carries no value oracle")
        x = self.space.validate(x)
        return float(self._value(x))

    def minimizer(self):
        """One global minimizer, when the catalog knows it."""
        if self._minimizer is None:
            raise CapabilityError(f"function {self.tag!r} has no recorded minimizer")
        return self._minimizer.copy()

    def conjugate(self):
        """The conjugate function: ``dg* = (dg)^{-1}``, whose resolvent is the Moreau identity."""
        return ProxFunction(
            f"conjugate-of({self.tag})",
            self.subdifferential.inverse(),
            value=self._conjugate_value,
            conjugate_value=self._value,  # g** = g for catalog functions
        )

    def __repr__(self):
        return f"ProxFunction({self.tag!r} on dim {self.space.dim})"


# ---------------------------------------------------------------------------
# catalog constructors
# ---------------------------------------------------------------------------


def indicator(cset: ConvexSet):
    """Indicator function of a convex set; its subdifferential is the normal cone."""

    def value(x):
        return 0.0 if cset._distance(x) <= INDICATOR_TOL else np.inf

    tag = f"indicator({cset.tag})"
    cone = normal_cone(cset)  # its resolvent, derivative and set, under the function's name
    return ProxFunction(
        tag,
        ResolventFamily(cset.space, f"subdifferential({tag})", cone._evaluator, cset=cset,
                        derivative=cone.derivative,
                        constant_derivative=cone.constant_derivative),
        value=value,
        conjugate_value=_support_function(cset),
        minimizer=cset.any_point(),
    )


def _support_function(cset):
    """Closed-form support function for set tags that have one."""
    space = cset.space
    w = space.weights
    if isinstance(cset, Singleton):
        p = cset.point
        return lambda y: space._inner(p, y)
    if isinstance(cset, Box):
        lo, hi = cset.lower, cset.upper

        def sup_box(y):
            total = 0.0
            for li, ui, yi, wi in zip(lo, hi, y, w):
                if yi > 0.0:
                    if np.isinf(ui):
                        return np.inf
                    total += wi * ui * yi
                elif yi < 0.0:
                    if np.isinf(li):
                        return np.inf
                    total += wi * li * yi
            return total

        return sup_box
    if isinstance(cset, Ball):
        c, r = cset.center, cset.radius
        return lambda y: space._inner(c, y) + r * space._norm(y)
    return None


def one_norm(space):
    """``g(x) = sum_i |x_i|`` with the metric-adjusted soft threshold."""
    w = space.weights

    def prox(gamma, x):
        thresh = gamma / w
        return np.sign(x) * np.maximum(np.abs(x) - thresh, 0.0)

    def derivative(gamma, x):
        return (np.abs(x) > gamma / w).astype(float)

    def conj_value(y):
        # conjugate is the indicator of {y : |w_i y_i| <= 1 for all i}
        return 0.0 if np.max(np.abs(w * y)) <= 1.0 + INDICATOR_TOL else np.inf

    return ProxFunction(
        "abs-l1",
        ResolventFamily(space, "subdifferential(abs-l1)", prox, derivative=derivative),
        value=lambda x: float(np.sum(np.abs(x))),
        conjugate_value=conj_value,
        minimizer=space.zeros(),
    )


def quadratic(space, Q, b=None):
    """``g(x) = (1/2)<Qx, x> - <b, x>`` in the metric inner product.

    ``Q`` must be self-adjoint positive semidefinite with respect to the
    metric.  The prox is ``(Id + gamma Q)^{-1}(x + gamma b)``, with the
    inverse cached per scale.
    """
    Q, min_eig = check_monotone(space, Q, "quadratic form")
    WQ = space.weights[:, None] * Q
    if np.max(np.abs(WQ - WQ.T)) > 1e-10 * max(1.0, np.max(np.abs(WQ))):
        raise ValidationError("quadratic form is not self-adjoint in the metric")
    b = space.zeros() if b is None else space.validate(b).copy()
    inverse = shifted_inverse(Q)

    def prox(gamma, x):
        return inverse(gamma) @ (x + gamma * b)

    def value(x):
        return 0.5 * space._inner(Q @ x, x) - space._inner(b, x)

    conj_value = None
    minimizer = None
    if min_eig > 1e-12:

        def conj_value(y):
            z = np.linalg.solve(Q, y + b)
            return 0.5 * space._inner(y + b, z)

        minimizer = np.linalg.solve(Q, b)

    family = ResolventFamily(space, "subdifferential(quadratic)", prox,
                             derivative=lambda gamma, x: inverse(gamma), constant_derivative=True)
    return ProxFunction("quadratic", family, value=value, conjugate_value=conj_value,
                        minimizer=minimizer)


def half_squared_distance(space, p):
    """``g(x) = (1/2) ||x - p||^2`` in the metric norm."""
    p = space.validate(p).copy()

    def prox(gamma, x):
        return (x + gamma * p) / (1.0 + gamma)

    family = ResolventFamily(space, "subdifferential(half-sq-dist)", prox,
                             derivative=lambda gamma, x: 1.0 / (1.0 + gamma),
                             constant_derivative=True)
    return ProxFunction(
        "half-sq-dist",
        family,
        value=lambda x: 0.5 * space._norm(x - p) ** 2,
        conjugate_value=lambda y: 0.5 * space._norm(y) ** 2 + space._inner(p, y),
        minimizer=p,
    )


def separable(gs, weights):
    """``g(y) = sum_k w_k g_k(y_k)`` on the weighted product space.

    Its subdifferential is the product of the members' (the block weights
    cancel inside each block), so the prox is blockwise and the mixture
    machinery can treat the product function like any other catalog member.
    """
    gs = list(gs)
    weights = [float(w) for w in weights]
    family = product_family([g.subdifferential for g in gs], weights)

    value = None
    if all(g.has_value for g in gs):

        def value(x):
            return float(sum(w * float(g._value(x[sl]))
                             for g, w, (_fam, sl) in zip(gs, weights, family.factors)))

    minimizer = None
    if all(g._minimizer is not None for g in gs):
        minimizer = np.concatenate([g.minimizer() for g in gs])

    return ProxFunction("separable", family, value=value, minimizer=minimizer)


# ---------------------------------------------------------------------------
# Moreau calculus
# ---------------------------------------------------------------------------


def conjugate_prox(g, gamma, x):
    """``prox_{gamma g*}(x)``: the prox of :meth:`ProxFunction.conjugate`."""
    return g.conjugate().prox(gamma, x)


def moreau_envelope(g, gamma, x):
    """Envelope value ``g(p) + ||x - p||^2 / (2 gamma)`` with ``p = prox``.

    The envelope gradient is the Yosida map ``(x - p) / gamma``; callers
    that need it can recover it from the same prox evaluation.
    """
    if gamma <= 0.0:
        raise ValidationError(f"envelope scale must be positive, got {gamma}")
    if not g.has_value:
        raise CapabilityError("moreau_envelope needs a value oracle")
    x = g.space.validate(x)
    p = g._prox(float(gamma), x)
    return float(g._value(p)) + g.space._norm(x - p) ** 2 / (2.0 * gamma)


# ---------------------------------------------------------------------------
# proximal compositions
# ---------------------------------------------------------------------------


def proximal_composition_prox(L, g, x, unsafe=False):
    """Prox of the composition of ``g`` with ``L``: ``L*(prox_g(L x))``."""
    return resolvent_composition(L, g.subdifferential, unsafe=unsafe).resolvent(1.0, x)


def proximal_cocomposition_prox(L, g, x, unsafe=False):
    """Prox of the cocomposition: ``x - L*(L x) + L*(prox_g(L x))``."""
    return resolvent_cocomposition(L, g.subdifferential, unsafe=unsafe).resolvent(1.0, x)


def proximal_mixture_prox(gs, Ls, weights, x, unsafe=False):
    """Prox of the mixture: ``sum_k w_k L_k*(prox_{g_k}(L_k x))``.

    Requires the stacked-map norm condition
    ``0 < sum_k w_k ||L_k||^2 <= 1``.
    """
    Bs = [g.subdifferential for g in gs]
    return resolvent_mixture(Bs, Ls, weights, unsafe=unsafe).resolvent(1.0, x)


def proximal_composition_value(L, g, x, inner_tol=1e-10, max_iterations=200_000,
                               unsafe=False):
    """Value of the proximal composition of ``g`` with ``L`` at ``x``.

    Evaluates ``min { g(y) + ||y||^2/2 : L* y = x } - ||x||^2/2``
    numerically: the affine-constrained strongly convex inner problem is
    solved by Douglas-Rachford splitting driven by the package's proximal
    point engine, until the fixed-point residual is below ``inner_tol``.

    Returns ``inf`` when the affine constraint ``L* y = x`` is infeasible
    (least-squares residual above 1e-8).
    """
    from .solvers import Schedule, proximal_point  # deferred: avoids an import cycle

    check_contraction([L], unsafe=unsafe)
    if not g.has_value:
        raise CapabilityError("proximal_composition_value needs a value oracle")
    H, G = L.domain, L.codomain
    x = H.validate(x)

    A = L.adjoint_matrix  # L* in coordinates, maps G -> H
    y_ls, *_ = np.linalg.lstsq(A, x, rcond=None)
    if H.norm(A @ y_ls - x) > 1e-8 * (1.0 + H.norm(x)):
        return np.inf

    # metric projection onto {y : A y = x}
    winv = 1.0 / G.weights
    S = A @ (winv[:, None] * A.T)
    S_pinv = np.linalg.pinv(S, rcond=1e-12)

    def proj_affine(v):
        lam = S_pinv @ (A @ v - x)
        return v - winv * (A.T @ lam)

    def prox_g_plus_q(v):
        # prox_{g + Q} at step 1: prox_{g/2}(v/2)
        return g._prox(0.5, 0.5 * v)

    def dr_map(z):
        p = proj_affine(z)
        return z + prox_g_plus_q(2.0 * p - z) - p

    schedule = Schedule(lam=1.0, max_iterations=max_iterations, tol=inner_tol)
    z, trace = proximal_point(G, dr_map, y_ls, schedule)
    if trace.reason != "converged":
        raise ConvergenceError(
            "inner solver did not reach tolerance; "
            "is x in the adjoint image of dom g?"
        )
    y = proj_affine(z)
    val = g.value(y)
    if not np.isfinite(val):
        # the prox path keeps iterates near dom g; fall back to the prox point
        y = g.prox(1e-9, y)
        val = g.value(y)
    return val + 0.5 * G.norm(y) ** 2 - 0.5 * H.norm(x) ** 2
