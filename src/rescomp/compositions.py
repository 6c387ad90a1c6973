"""Compositions of monotone operators with linear contractions.

Three constructions, all of which expose their resolvent in closed form:

* composition: resolvent ``x -> L*(J_{gamma B}(L x))``;
* cocomposition: resolvent ``x -> x + L*(J_{gamma B}(L x) - L x)``;
* mixture: resolvent ``x -> sum_k w_k L_k*(J_{gamma B_k}(L_k x))``, which
  *is* the composition of ``product_family(Bs, w)`` with ``stack(Ls, w)``
  and is built as one (the blockwise formula is a test oracle elsewhere).

The first two are the only places the formulas are written: the proximal
composition, cocomposition and mixture of :mod:`proxfun` are these
constructions applied to ``subdifferential(g)``, and the relaxed solvers
of :mod:`solvers` iterate the cocomposition's step on V's coordinates.
Each returns a plain :class:`ResolventFamily` of kind
``composed(<variant>)``, whose graph test is ``graph_residual`` like any
other family's.  Beside each formula sits its derivative by the chain rule
(``D_B`` taken at ``L x``, declared as in :mod:`operators`): ``L* D_B L``
and ``I + L* (D_B - I) L``.

``_cocomposition_step`` writes the cocomposition's step and its Jacobian
once, for any matrix ``L`` and adjoint ``L*``.  A factor ``B_k`` of ``B``
(``B`` itself when it is not a product) with a constant derivative
``D_k`` has the affine resolvent ``J(y) = D_k y + J(0)`` (see
:mod:`operators`): its part of the step is ``G x + h``, with
``G = L_k* (D_k - I) L_k`` and ``h = L_k* J(0)`` summed once, at
construction.  Only the other factors, stacked into ``L_N``, are
evaluated, a single one directly with no scatter into a stacked vector:
the step is ``G x + h + L_N* (J_N(L_N x) - L_N x)`` and its Jacobian the
dense ``G + L_N* (D_N(L_N x) - I) L_N``, None when a factor declares no
derivative.

Every constructor gates on ``0 < ||L|| <= 1`` (or the weighted-sum
condition for mixtures, which bounds the stacked map's norm) because that
is what makes the composed resolvent firmly nonexpansive and the composed
operator monotone; the ``unsafe`` flag of the composition, cocomposition
and mixture lifts the upper bound for exploration, never the lower one.
The scale parameter is frozen at construction: the family parametrized by
gamma is a different operator for each gamma, so a composed operator only
answers for its native resolvent at scale 1.  The inner scale is checked
at construction (finite and positive, in the inner family's domain), so
composed evaluators call the raw matrices and the inner ``_evaluator``
directly.  Composed operators are immutable and safe to evaluate
concurrently.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .hilbert import (NORM_GATE_TOL, _real, _scale, block_slices, check_contraction, identity_map,
                      stack)
from .operators import ResolventFamily, _blockwise, product_family


def resolvent_composition(L, B, gamma=1.0, unsafe=False):
    """The operator whose resolvent is ``x -> L*(J_{gamma B}(L x))``."""
    if L.codomain != B.space:
        raise DimensionMismatchError("L must map into the space of B")
    check_contraction([L], unsafe=unsafe)
    return _composition(L, B, gamma)


def _composition(L, B, gamma):
    """The composition of ``B`` with ``L``, whose gate the caller has passed."""
    g, D = B._check_scale(gamma), B.derivative

    def evaluator(_one, x):
        return L.adjoint_matrix @ B._evaluator(g, L.matrix @ x)

    def derivative(_one, x, A):  # the chain rule: L* D_B(L x) L - I
        LA = L.matrix @ A
        return L.adjoint_matrix @ (D(g, L.matrix @ x, LA) + LA) - A

    return ResolventFamily(L.domain, "composed(composition)", evaluator, scale_domain=1.0,
                           derivative=None if D is None else derivative,
                           constant_derivative=B.constant_derivative)


def resolvent_cocomposition(L, B, gamma=1.0, unsafe=False):
    """The operator whose resolvent is ``x -> x + L*(J_{gamma B}(L x) - L x)``."""
    if L.codomain != B.space:
        raise DimensionMismatchError("L must map into the space of B")
    check_contraction([L], unsafe=unsafe)
    step, jacobian = _cocomposition_step(L.matrix, L.adjoint_matrix, B, gamma)
    return ResolventFamily(L.domain, "composed(cocomposition)", lambda _one, x: x + step(x),
                           scale_domain=1.0, derivative=None if jacobian is None else (
                               lambda _one, x, A: jacobian(x) @ A),
                           constant_derivative=B.constant_derivative)


def _cocomposition_step(A, A_adj, B, gamma):
    """``(step, jacobian)`` of ``x -> A_adj (J_{gamma B}(A x) - A x)``, folded as said above."""
    gamma = B._check_scale(gamma)  # a product's scale rule covers its factors
    G = h = 0.0  # the folded sums, arrays once a factor is folded
    factors = B.factors or [(B, slice(None))]
    nonlinear = [(B_k, sl) for B_k, sl in factors if not B_k.constant_derivative]
    for B_k, sl in factors:
        if B_k.constant_derivative:
            origin = np.zeros(len(A[sl]))
            G += A_adj[:, sl] @ B_k.derivative(gamma, origin, A[sl])
            h += A_adj[:, sl] @ B_k._evaluator(gamma, origin)
    if not nonlinear:
        return (lambda x: G @ x + h), (lambda x: G)
    if len(nonlinear) == 1:
        B_N, sl = nonlinear[0]
        A_N, A_N_adj = A[sl], A_adj[:, sl]
        resolve, derivative = B_N._evaluator, B_N.derivative
    else:  # the nonlinear factors, blockwise on their stacked rows
        A_N = np.vstack([A[sl] for _B_k, sl in nonlinear])
        A_N_adj = np.hstack([A_adj[:, sl] for _B_k, sl in nonlinear])
        fams = [B_k for B_k, _sl in nonlinear]
        resolve, derivative = _blockwise(list(zip(fams, block_slices([f.space for f in fams]))))

    def nonlinear_step(x):
        y = A_N @ x
        return A_N_adj @ (resolve(gamma, y) - y)

    jacobian = None if derivative is None else (
        lambda x: G + A_N_adj @ derivative(gamma, A_N @ x, A_N))
    if len(nonlinear) == len(factors):  # nothing folded
        return nonlinear_step, jacobian
    return (lambda x: G @ x + h + nonlinear_step(x)), jacobian


def resolvent_mixture(Bs, Ls, weights, gamma=1.0, unsafe=False):
    """Weighted mixture with resolvent ``sum_k w_k L_k* J_{gamma B_k} L_k``.

    With all maps equal to the identity and weights summing to one this is
    the resolvent average.  The admissibility condition is the stacked-map
    one: ``0 < sum_k w_k ||L_k||^2 <= 1``.
    """
    Bs, Ls = list(Bs), list(Ls)
    weights = [_scale("mixture weights", w) for w in weights]
    if not (len(Bs) == len(Ls) == len(weights)):
        raise ValidationError("mixture needs matching operators, maps, weights")
    for B, L in zip(Bs, Ls):
        if L.codomain != B.space:
            raise DimensionMismatchError("each map must land in its operator's space")
    # ||stack||^2 <= sum_k w_k ||L_k||^2, and the stack is zero only when every
    # L_k is: this gate implies the stacked map's own, which is not taken again.
    check_contraction(Ls, weights, unsafe=unsafe)
    return _composition(stack(Ls, weights), product_family(Bs, weights), gamma)


def resolvent_average(Bs, weights, gamma=1.0):
    """Mixture with identity maps; the classical average when weights sum to 1."""
    Bs = list(Bs)
    if not Bs:
        raise ValidationError("average of zero operators")
    Ls = [identity_map(B.space) for B in Bs]
    return resolvent_mixture(Bs, Ls, weights, gamma=gamma)


def compose_chain(Q, L, B):
    """Chained composition of ``B`` first with ``L``, then with ``Q``.

    Both factors are gated; the chain is the single composition with
    ``L o Q``, whose resolvent equals the nested one in exact arithmetic
    (the ``compositions/chaining`` property suite checks the identity).
    """
    check_contraction([Q])
    check_contraction([L])
    return resolvent_composition(L.compose(Q), B)


def strong_monotonicity_modulus(alpha, norm_l):
    """Modulus ``beta = (alpha + 1) / ||L||^2 - 1`` for composed operators.

    Valid when the inner operator is alpha-strongly monotone (alpha > 0)
    with ``||L|| <= 1``, or merely monotone (alpha = 0) with ``||L|| < 1``.
    """
    alpha = _real("alpha", alpha)
    norm_l = _real("||L||", norm_l)
    if not alpha >= 0.0:  # NaN too
        raise ValidationError(f"alpha must be nonnegative, got {alpha}")
    if not 0.0 < norm_l <= 1.0 + NORM_GATE_TOL:
        raise ValidationError("||L|| must lie in (0, 1]")
    if alpha == 0.0 and norm_l >= 1.0:
        raise ValidationError(
            "no strong-monotonicity guarantee when alpha = 0 and ||L|| = 1"
        )
    return (alpha + 1.0) / norm_l**2 - 1.0
