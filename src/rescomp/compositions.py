"""Compositions of monotone operators with linear contractions.

Three constructions, all of which expose their resolvent in closed form:

* composition: resolvent ``x -> L*(J_{gamma B}(L x))``;
* cocomposition: resolvent ``x -> x - L*(L x) + L*(J_{gamma B}(L x))``;
* mixture: resolvent ``x -> sum_k w_k L_k*(J_{gamma B_k}(L_k x))``, which
  *is* the composition of ``product_family(Bs, w)`` with ``stack(Ls, w)``
  and is built as one (the blockwise formula is a test oracle elsewhere).

The first two are the only places the formulas are written: the proximal
composition, cocomposition and mixture of :mod:`proxfun` are these
constructions applied to ``subdifferential(g)``.  Each returns a plain
:class:`ResolventFamily` of kind ``composed(<variant>)``, whose graph test
is ``graph_residual`` like any other family's.

Every constructor gates on ``0 < ||L|| <= 1`` (or the weighted-sum
condition for mixtures, which bounds the stacked map's norm) because that
is what makes the composed resolvent firmly nonexpansive and the composed
operator monotone; an ``unsafe`` flag lifts the upper bound for
exploration, never the lower one.  The scale parameter is frozen at
construction: the family parametrized by gamma is a different operator
for each gamma, so a composed operator only answers for its native
resolvent at scale 1.  The inner scale is checked at construction, so
composed evaluators call the raw matrices and the inner ``_evaluator``
directly.  Composed operators are immutable and safe to evaluate
concurrently.
"""

from __future__ import annotations

from .errors import DimensionMismatchError, ValidationError
from .hilbert import NORM_GATE_TOL, check_contraction, stack
from .operators import ResolventFamily, product_family


def resolvent_composition(L, B, gamma=1.0, unsafe=False):
    """The operator whose resolvent is ``x -> L*(J_{gamma B}(L x))``."""
    if L.codomain != B.space:
        raise DimensionMismatchError("L must map into the space of B")
    check_contraction([L], unsafe=unsafe)
    return _composition(L, B, gamma)


def _composition(L, B, gamma):
    """The composition of ``B`` with ``L``, whose gate the caller has passed."""
    B._check_scale(gamma)
    g = float(gamma)

    def evaluator(_one, x):
        return L.adjoint_matrix @ B._evaluator(g, L.matrix @ x)

    return ResolventFamily(L.domain, "composed(composition)", evaluator, scale_domain=1.0)


def resolvent_cocomposition(L, B, gamma=1.0, unsafe=False):
    """The operator whose resolvent is ``x -> x - L*(L x) + L*(J_{gamma B}(L x))``."""
    if L.codomain != B.space:
        raise DimensionMismatchError("L must map into the space of B")
    check_contraction([L], unsafe=unsafe)
    B._check_scale(gamma)
    g = float(gamma)

    def evaluator(_one, x):
        y = L.matrix @ x
        return x - L.adjoint_matrix @ y + L.adjoint_matrix @ B._evaluator(g, y)

    return ResolventFamily(L.domain, "composed(cocomposition)", evaluator, scale_domain=1.0)


def resolvent_mixture(Bs, Ls, weights, gamma=1.0, unsafe=False):
    """Weighted mixture with resolvent ``sum_k w_k L_k* J_{gamma B_k} L_k``.

    With all maps equal to the identity and weights summing to one this is
    the resolvent average.  The admissibility condition is the stacked-map
    one: ``0 < sum_k w_k ||L_k||^2 <= 1``.
    """
    Bs, Ls = list(Bs), list(Ls)
    weights = [float(w) for w in weights]
    if not (len(Bs) == len(Ls) == len(weights)):
        raise ValidationError("mixture needs matching operators, maps, weights")
    for B, L in zip(Bs, Ls):
        if L.codomain != B.space:
            raise DimensionMismatchError("each map must land in its operator's space")
    # ||stack||^2 <= sum_k w_k ||L_k||^2, and the stack is zero only when every
    # L_k is: this gate implies the stacked map's own, which is not taken again.
    check_contraction(Ls, weights, unsafe=unsafe)
    return _composition(stack(Ls, weights), product_family(Bs, weights), gamma)


def resolvent_average(Bs, weights, gamma=1.0, unsafe=False):
    """Mixture with identity maps; the classical average when weights sum to 1."""
    from .hilbert import identity_map

    Bs = list(Bs)
    if not Bs:
        raise ValidationError("average of zero operators")
    Ls = [identity_map(B.space) for B in Bs]
    return resolvent_mixture(Bs, Ls, weights, gamma=gamma, unsafe=unsafe)


def compose_chain(Q, L, B, unsafe=False):
    """Chained composition of ``B`` first with ``L``, then with ``Q``.

    Both factors are gated; the chain is the single composition with
    ``L o Q``, whose resolvent equals the nested one in exact arithmetic
    (the ``compositions/chaining`` property suite checks the identity).
    """
    check_contraction([Q], unsafe=unsafe)
    check_contraction([L], unsafe=unsafe)
    return resolvent_composition(L.compose(Q), B, unsafe=unsafe)


def strong_monotonicity_modulus(alpha, norm_l):
    """Modulus ``beta = (alpha + 1) / ||L||^2 - 1`` for composed operators.

    Valid when the inner operator is alpha-strongly monotone (alpha > 0)
    with ``||L|| <= 1``, or merely monotone (alpha = 0) with ``||L|| < 1``.
    """
    alpha = float(alpha)
    norm_l = float(norm_l)
    if alpha < 0.0:
        raise ValidationError("alpha must be nonnegative")
    if norm_l <= 0.0 or norm_l > 1.0 + NORM_GATE_TOL:
        raise ValidationError("||L|| must lie in (0, 1]")
    if alpha == 0.0 and norm_l >= 1.0:
        raise ValidationError(
            "no strong-monotonicity guarantee when alpha = 0 and ||L|| = 1"
        )
    return (alpha + 1.0) / norm_l**2 - 1.0
