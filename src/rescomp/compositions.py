"""Compositions of monotone operators with linear contractions.

Three constructions, all of which expose their resolvent in closed form:

* composition: resolvent ``x -> L*(J_{gamma B}(L x))``;
* cocomposition: resolvent ``x -> x - L*(L x) + L*(J_{gamma B}(L x))``;
* mixture: resolvent ``x -> sum_k w_k L_k*(J_{gamma B_k}(L_k x))``,
  realized by stacking the maps into a weighted product space so the
  mixture *is* a composition (the blockwise formula is kept only as a
  test oracle elsewhere).

Every constructor gates on ``||L|| <= 1`` (or the weighted-sum condition
for mixtures) because that is what makes the composed resolvent firmly
nonexpansive and the composed operator monotone; an ``unsafe`` flag allows
exploration past the gate.  The scale parameter is frozen at construction:
the family parametrized by gamma is a different operator for each gamma,
so a composed operator only answers for its native resolvent at scale 1.
The inner scale is checked at construction, so composed evaluators call
the raw matrices and the inner ``_evaluator`` directly.
Composed operators are immutable and safe to evaluate concurrently.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ContractionConditionError,
    DimensionMismatchError,
    InternalConsistencyError,
    ValidationError,
)
from .hilbert import NORM_GATE_TOL, check_contraction, stack
from .operators import ResolventFamily, product_family

_CHAIN_PROBES = 100
_CHAIN_SEED = 20_23
_CHAIN_TOL = 1e-12


class ComposedOperator(ResolventFamily):
    """A composition/cocomposition/mixture with its construction record."""

    def __init__(self, space, variant, outer, inner, gamma, evaluator, blocks=None):
        super().__init__(space, f"composed({variant})", evaluator, scale_domain=1.0)
        self.variant = variant
        self.outer = outer
        self.inner = inner
        self.gamma = float(gamma)
        self.norm_certificate = outer.op_norm()
        self.blocks = blocks

    def __repr__(self):
        return (
            f"ComposedOperator({self.variant}, dim {self.space.dim}, "
            f"gamma={self.gamma:g}, |L|~{self.norm_certificate:.3g})"
        )


def resolvent_composition(L, B, gamma=1.0, unsafe=False):
    """The operator whose resolvent is ``x -> L*(J_{gamma B}(L x))``."""
    if L.codomain != B.space:
        raise DimensionMismatchError("L must map into the space of B")
    check_contraction(L, unsafe=unsafe)
    if not B.supports_scale(gamma):
        B._check_scale(gamma)  # raises with the precise message
    g = float(gamma)

    def evaluator(_one, x):
        return L.adjoint_matrix @ B._evaluator(g, L.matrix @ x)

    return ComposedOperator(L.domain, "composition", L, B, gamma, evaluator)


def resolvent_cocomposition(L, B, gamma=1.0, unsafe=False):
    """The operator whose resolvent is ``x -> x - L*(L x) + L*(J_{gamma B}(L x))``."""
    if L.codomain != B.space:
        raise DimensionMismatchError("L must map into the space of B")
    check_contraction(L, unsafe=unsafe)
    if not B.supports_scale(gamma):
        B._check_scale(gamma)
    g = float(gamma)

    def evaluator(_one, x):
        y = L.matrix @ x
        return x - L.adjoint_matrix @ y + L.adjoint_matrix @ B._evaluator(g, y)

    return ComposedOperator(L.domain, "cocomposition", L, B, gamma, evaluator)


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
    total = sum(w * L.op_norm() ** 2 for w, L in zip(weights, Ls))
    if total <= 0.0:
        raise ContractionConditionError("mixture requires a nonzero stacked map")
    if total > 1.0 + NORM_GATE_TOL and not unsafe:
        raise ContractionConditionError(
            f"sum_k w_k ||L_k||^2 = {total:.6g} exceeds 1; pass unsafe=True to override"
        )
    stacked = stack(Ls, weights)
    prod = product_family(Bs, weights)
    if not prod.supports_scale(gamma):
        prod._check_scale(gamma)
    g = float(gamma)

    def evaluator(_one, x):
        return stacked.adjoint_matrix @ prod._evaluator(g, stacked.matrix @ x)

    return ComposedOperator(
        stacked.domain, "mixture", stacked, prod, gamma, evaluator,
        blocks=list(zip(Ls, Bs, weights)),
    )


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

    Builds both the nested form and the single composition with ``L o Q``,
    checks that their resolvents agree on fixed random probes (they are
    equal in exact arithmetic), and returns the single-composition form.
    """
    check_contraction(Q, unsafe=unsafe)
    check_contraction(L, unsafe=unsafe)
    nested = resolvent_composition(Q, resolvent_composition(L, B, unsafe=unsafe),
                                   unsafe=unsafe)
    flat = resolvent_composition(L.compose(Q), B, unsafe=unsafe)
    rng = np.random.default_rng(_CHAIN_SEED)
    space = Q.domain
    for _ in range(_CHAIN_PROBES):
        x = space.random(rng)
        a = nested._evaluator(1.0, x)
        b = flat._evaluator(1.0, x)
        if space._norm(a - b) > _CHAIN_TOL * (1.0 + space._norm(x)):
            raise InternalConsistencyError(
                "chained and flattened compositions disagree on a probe point"
            )
    return flat


def graph_contains_composed(A, point, tol):
    """Graph membership for a composed operator, through its inner pieces.

    For compositions and mixtures, ``(x, x*)`` is in the graph iff
    ``x = L*(J_{gamma B}(L(x + x*)))``; for cocompositions iff
    ``L*(L(x+x*)) - x* = L*(J_{gamma B}(L(x+x*)))``.
    """
    if not isinstance(A, ComposedOperator):
        raise ValidationError("graph_contains_composed needs a ComposedOperator")
    space = A.space
    x = space.validate(point.x)
    xstar = space.validate(point.xstar)
    z = x + xstar
    M, Mt, B, gamma = A.outer.matrix, A.outer.adjoint_matrix, A.inner, A.gamma
    inner_res = Mt @ B._resolve(gamma, M @ z)
    if A.variant in ("composition", "mixture"):
        return space._norm(x - inner_res) <= tol
    return space._norm(Mt @ (M @ z) - xstar - inner_res) <= tol


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
