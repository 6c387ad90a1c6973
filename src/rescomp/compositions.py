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
once, for any matrix ``L`` and adjoint ``L*``, in two cases.  A ``B`` with
a constant derivative ``D`` (a product of affine factors included) has the
affine resolvent ``J(y) = D y + J(0)`` (see :mod:`operators`), so it is
folded whole at construction: the step is ``G x + h`` and its Jacobian
``G``, with ``G = L* (D - I) L`` and ``h = L* J(0)``.  Any other ``B`` is
evaluated whole, through its own evaluator and derivative: the step is
``L* (J(L x) - L x)`` and its Jacobian ``L* (D(L x) - I) L``, None when
``B`` declares no derivative.

Every constructor gates on ``0 < ||L|| <= 1`` (or the weighted-sum
condition for mixtures, which bounds the stacked map's norm) because that
is what makes the composed resolvent firmly nonexpansive and the composed
operator monotone, and none of them offers a bypass.
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
from .hilbert import NORM_GATE_TOL, _real, _scale, check_contraction, identity_map, stack
from .operators import ResolventFamily, product_family


def resolvent_composition(L, B, gamma=1.0):
    """The operator whose resolvent is ``x -> L*(J_{gamma B}(L x))``."""
    if L.codomain != B.space:
        raise DimensionMismatchError("L must map into the space of B")
    check_contraction([L])
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


def resolvent_cocomposition(L, B, gamma=1.0):
    """The operator whose resolvent is ``x -> x + L*(J_{gamma B}(L x) - L x)``."""
    if L.codomain != B.space:
        raise DimensionMismatchError("L must map into the space of B")
    check_contraction([L])
    step, jacobian = _cocomposition_step(L.matrix, L.adjoint_matrix, B, gamma)
    return ResolventFamily(L.domain, "composed(cocomposition)", lambda _one, x: x + step(x),
                           scale_domain=1.0, derivative=None if jacobian is None else (
                               lambda _one, x, A: jacobian(x) @ A),
                           constant_derivative=B.constant_derivative)


def _cocomposition_step(A, A_adj, B, gamma):
    """``(step, jacobian)`` of ``x -> A_adj (J_{gamma B}(A x) - A x)``: an affine ``B`` folded."""
    gamma, D = B._check_scale(gamma), B.derivative  # a product's scale rule covers its factors
    if B.constant_derivative:
        origin = np.zeros(len(A))
        G = A_adj @ D(gamma, origin, A)
        h = A_adj @ B._evaluator(gamma, origin)
        return (lambda x: G @ x + h), (lambda x: G)

    def step(x):
        y = A @ x
        return A_adj @ (B._evaluator(gamma, y) - y)

    return step, None if D is None else (lambda x: A_adj @ D(gamma, A @ x, A))


def resolvent_mixture(Bs, Ls, weights, gamma=1.0):
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
    check_contraction(Ls, weights)
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
