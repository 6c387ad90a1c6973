"""Maximally monotone operators represented by their resolvent families.

An operator ``B`` never appears as a set-valued map here: the only thing
algorithms ever evaluate is ``J_{gamma B} = (gamma B + Id)^{-1}``, so a
:class:`ResolventFamily` carries exactly that evaluator, together with the
set of scales at which it is valid.  The resolvent also fixes the graph
(``xstar in B x`` iff ``x = J_B(x + xstar)``, the Minty parametrization),
so :meth:`ResolventFamily.graph_residual` is the one graph test for every
family, composed ones included.  Catalog members with closed forms
(zero, scaled identity, normal cones, monotone linear maps,
subdifferentials) support every ``gamma > 0``; constructions pinned to one
scale (Wiener-type operators, compositions) support a single fixed scale
and refuse anything else rather than silently rescaling, because the
rescaled family is a different operator.

Derived families -- inverses, positive rescalings, products on product
spaces -- are provided as wrappers so the composition calculus can be
expressed without touching evaluator internals.

A :class:`~rescomp.proxfun.ProxFunction` is built on the family of its
subdifferential, which :func:`subdifferential` returns: an indicator on its
set's normal cone (that very family), a conjugate on ``inverse`` (the one
Moreau identity) and a separable sum on ``product_family``.  Products of
any kind have that one home: mixtures, separable sums, blockwise instances
and the feasibility product of :mod:`~rescomp.bench` (the product of its
sets' normal cones) are all ``product_family``.

A family declares ``derivative(gamma, y, A) = (D - I) A``, with ``D`` an
element of the generalized Jacobian of ``J_{gamma B}`` at ``y`` and ``A``
a matrix whose rows are the family's coordinates: all that the solvers'
Newton candidates need.  Each member writes it for its own structure (a
box or the ``abs`` soft threshold scales rows, a ball or a halfspace adds
a rank-one term), and each derived family (``scaled``, ``inverse``,
products, the compositions of :mod:`~rescomp.compositions`) by the chain
rule beside its resolvent formula.  Where ``D`` does not depend on ``y``,
``constant_derivative`` is set, so ``J_{gamma B}(y) = D y + J_{gamma B}(0)``
and a cocomposition (which the relaxed solvers iterate) folds such a
family whole into one matrix: zero, scaled identity, linear, the normal
cones of singletons and affine subspaces, quadratics, half squared
distances, a Wiener block built from a number or from a singleton or
affine set, and a derived family or a product exactly when every family
it is built from is.  Only a family given a bare evaluator, and any
family built from one, declares none (``derivative`` is None).  A
product also lists its ``(family, slice)`` ``factors``, whose slices the
separable sum of :mod:`~rescomp.proxfun` reads.

Only :meth:`ResolventFamily.resolvent` validates; derived and product
families call their factors' raw ``_evaluator``.  ``_blockwise`` is the
blockwise evaluator and derivative of products, and ``_check_scale`` the
one scale rule (:func:`~rescomp.hilbert._scale`, then the family's domain).

Families are immutable after construction and evaluation is pure, so
they may be shared across threads (the linear catalog member keeps the
inverse for the last scale in :func:`hilbert.shifted_inverse`'s
thread-safe one-entry cache).
"""

from __future__ import annotations

import numbers
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, ScaleRestrictionError, ValidationError
from .hilbert import _real, _scale, block_slices, check_monotone, product_space, shifted_inverse
from .sets import ConvexSet

ALL_SCALES = "all"


class GraphPoint(NamedTuple):
    """A candidate pair ``(x, xstar)`` for membership in a graph."""

    x: np.ndarray
    xstar: np.ndarray


class ResolventFamily:
    """An operator ``B`` given by ``gamma -> J_{gamma B}``.

    ``cset`` is the convex set of a normal cone, ``derivative(gamma, y, A)``
    the declared ``(D - I) A`` (``constant_derivative``: ``D`` does not depend
    on ``y``), and ``factors`` the ``(family, slice)`` blocks of a product
    (each None when it does not apply).  Nothing here checks that a bare
    ``evaluator`` is firmly nonexpansive, as a resolvent is: that is the
    caller's to vouch for.
    """

    def __init__(self, space, kind, evaluator, scale_domain=ALL_SCALES, cset=None,
                 derivative=None, constant_derivative=False, factors=None):
        self.space = space
        self.kind = kind
        self._evaluator = evaluator
        self.scale_domain = scale_domain
        self.cset = cset
        self.derivative = derivative
        self.constant_derivative = constant_derivative
        self.factors = factors

    # -- scale bookkeeping ----------------------------------------------

    def _check_scale(self, gamma):
        """``gamma`` as a float, if it is a scale of this family; else ``ScaleRestrictionError``."""
        gamma = _scale("resolvent scale", gamma)
        if self.scale_domain != ALL_SCALES and not (
                abs(gamma - self.scale_domain) <= 1e-12 * max(gamma, self.scale_domain)):
            raise ScaleRestrictionError(
                f"operator {self.kind!r} only supports scale {self.scale_domain}, "
                f"got {gamma}"
            )
        return gamma

    # -- evaluation -------------------------------------------------------

    def resolvent(self, gamma, y):
        """``J_{gamma B}(y)``."""
        gamma = self._check_scale(gamma)
        return self._evaluator(gamma, self.space.validate(y))

    def _resolve(self, gamma, y):
        """``J_{gamma B}(y)`` for a validated ``y``: checks the scale only."""
        return self._evaluator(self._check_scale(gamma), y)

    def yosida(self, gamma, x):
        """``(x - J_{gamma B} x) / gamma``; gamma-cocoercive."""
        x = self.space.validate(x)
        return (x - self._resolve(gamma, x)) / gamma

    def inverse_resolvent(self, gamma, x):
        """``J_{gamma B^{-1}}(x)``: the resolvent of :meth:`inverse`."""
        return self.inverse().resolvent(gamma, x)

    def graph_residual(self, point):
        """``||x - J_B(x + xstar)||``, zero exactly when ``xstar in B(x)``."""
        x = self.space.validate(point.x)
        xstar = self.space.validate(point.xstar)
        return self.space._norm(x - self._resolve(1.0, x + xstar))

    def graph_contains(self, point, tol):
        """Whether ``xstar in B(x)`` up to ``tol`` on :meth:`graph_residual`."""
        return self.graph_residual(point) <= tol

    def sample_graph(self, n, seed=0):
        """``n`` pairs ``(J_B z, z - J_B z)`` in gra B; a drawn ``z`` is finite: no validation."""
        gamma = self._check_scale(1.0)
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(n):
            z = self.space.random(rng)
            jz = self._evaluator(gamma, z)
            out.append(GraphPoint(jz, z - jz))
        return out

    # -- derived families ---------------------------------------------------

    def scaled(self, c):
        """The operator ``c B`` for finite ``c > 0`` (graphs scale in the output)."""
        c = _scale("operator scaling", c)
        domain = ALL_SCALES if self.scale_domain == ALL_SCALES else self.scale_domain / c
        D = self.derivative
        return ResolventFamily(
            self.space,
            f"scaled({c:g},{self.kind})",
            lambda gamma, y: self._evaluator(gamma * c, y),
            scale_domain=domain,
            derivative=None if D is None else (lambda gamma, y, A: D(gamma * c, y, A)),
            constant_derivative=self.constant_derivative,
        )

    def inverse(self):
        """The inverse operator, via ``J_{gamma B^{-1}} = Id - gamma J_{B/gamma}(./gamma)``."""
        domain = ALL_SCALES if self.scale_domain == ALL_SCALES else 1.0 / self.scale_domain
        D = self.derivative
        return ResolventFamily(
            self.space,
            f"inverse({self.kind})",
            lambda gamma, x: x - gamma * self._evaluator(1.0 / gamma, x / gamma),
            scale_domain=domain,
            # Its derivative is I - D_B(1/gamma, x/gamma), so (D - I) A = -(D_B A).
            derivative=None if D is None else (
                lambda gamma, x, A: -(D(1.0 / gamma, x / gamma, A) + A)),
            constant_derivative=self.constant_derivative,
        )

    def __repr__(self):
        return f"ResolventFamily({self.kind!r} on dim {self.space.dim})"


# ---------------------------------------------------------------------------
# catalog constructors
# ---------------------------------------------------------------------------


def zero_operator(space):
    """``B = 0``: the resolvent is the identity at every scale."""
    return ResolventFamily(space, "zero", lambda gamma, y: y.copy(),
                           derivative=lambda gamma, y, A: 0.0 * A, constant_derivative=True)


def scaled_identity(space, c):
    """``B = c Id`` with ``c >= 0``: ``J_{gamma B}(y) = y / (1 + gamma c)``."""
    c = _real("scaled identity c", c)
    if not c >= 0.0:  # NaN too
        raise ValidationError(f"scaled identity needs c >= 0 to stay monotone, got {c}")
    return ResolventFamily(
        space, f"identity-scaled({c:g})", lambda gamma, y: y / (1.0 + gamma * c),
        derivative=lambda gamma, y, A: (1.0 / (1.0 + gamma * c) - 1.0) * A,
        constant_derivative=True,
    )


def normal_cone(cset):
    """Normal cone of a convex set: the resolvent is the projection, at any scale."""
    derivative = cset._derivative
    return ResolventFamily(
        cset.space,
        f"normal-cone({cset.tag})",
        lambda gamma, y: cset._project(y),
        cset=cset,
        derivative=None if derivative is None else (lambda gamma, y, A: derivative(y, A)),
        constant_derivative=cset.constant_derivative,
    )


def linear_monotone(space, M):
    """A monotone linear operator ``M``: the resolvent solves ``(Id + gamma M) x = y``.

    Monotonicity in the metric means the symmetric part of ``W M`` is PSD;
    this is validated at construction.  ``(Id + gamma M)^{-1}`` is kept
    for the last scale.
    """
    M = check_monotone(space, M, "linear operator")[0]
    inverse = shifted_inverse(M)
    return ResolventFamily(space, "linear", lambda gamma, y: inverse(gamma) @ y,
                           derivative=lambda gamma, y, A: inverse(gamma) @ A - A,
                           constant_derivative=True)


def subdifferential(g):
    """The subdifferential of ``g``, the family it carries: ``J_{gamma B} = prox_{gamma g}``."""
    return g.subdifferential


def make_wiener(space, F, p):
    """The operator ``(Id - F + p)^{-1} - Id`` for a firmly nonexpansive ``F`` it can prove.

    Its resolvent exists in closed form only at scale one:
    ``J_B = Id - F + p``, hence ``yosida(1, .) = F - p``.  A number ``F = c``
    (not a bool) is the map ``c Id``: firm nonexpansiveness is then decided
    exactly (``0 <= c <= 1``), and the one ``c`` gives both the evaluator
    ``y - c y + p`` and the constant derivative ``1 - c``.  A
    :class:`~rescomp.sets.ConvexSet` of ``space`` is its projection ``P_C``,
    firmly nonexpansive by theorem: its derivative is ``I - D_C(y)``, so
    ``(D - I) A = -(C._derivative(y, A) + A)``, constant exactly when the
    set's is (singleton, affine subspace).  Anything else is refused.  A
    forward map this cannot prove is the caller's to vouch for, as the bare
    family ``ResolventFamily(space, "wiener", lambda gamma, y: y - F(y) + p,
    scale_domain=1.0)``, which declares no derivative.
    """
    p = space.validate(p).copy()
    if isinstance(F, numbers.Real):
        c = _real("wiener forward scale", F)
        if not 0.0 <= c <= 1.0:  # NaN too
            raise ValidationError(
                f"wiener forward scale must lie in [0, 1] to be firmly nonexpansive, got {c}")
        return ResolventFamily(space, "wiener", lambda gamma, y: y - c * y + p, scale_domain=1.0,
                               derivative=lambda gamma, y, A: (1.0 - c - 1.0) * A,
                               constant_derivative=True)
    if not isinstance(F, ConvexSet):
        raise ValidationError(f"wiener forward map F must be a number or a convex set, got {F!r}")
    if F.space != space:
        raise DimensionMismatchError("wiener forward set lives in another space")
    D = F._derivative
    return ResolventFamily(
        space, "wiener", lambda gamma, y: y - F._project(y) + p, scale_domain=1.0,
        derivative=None if D is None else (lambda gamma, y, A: -(D(y, A) + A)),
        constant_derivative=F.constant_derivative)


def _blockwise(factors):
    """``(evaluator, derivative)`` of a product of ``(family, slice)`` factors, block by block."""

    def evaluator(gamma, y):
        out = np.empty_like(y)
        for fam, sl in factors:
            out[sl] = fam._evaluator(gamma, y[sl])
        return out

    def derivative(gamma, y, A):
        out = np.empty_like(A)
        for fam, sl in factors:
            out[sl] = fam.derivative(gamma, y[sl], A[sl])
        return out

    declared = all(fam.derivative is not None for fam, _sl in factors)
    return evaluator, derivative if declared else None


def product_family(families, weights=None):
    """Blockwise operator ``B(y) = B_1 y_1 x ... x B_p y_p`` on the product space.

    The resolvent and its derivative act block by block; the product supports
    a scale exactly when every factor does, so one scale check on the product
    covers the factors' raw evaluators.
    """
    families = list(families)
    if not families:
        raise ValidationError("product of zero operators")
    spaces = [f.space for f in families]
    space = product_space(spaces, weights)
    slices = block_slices(spaces)
    fixed = {f.scale_domain for f in families} - {ALL_SCALES}
    if len(fixed) > 1:
        raise ValidationError("factors pin incompatible resolvent scales")
    factors = list(zip(families, slices))
    evaluator, derivative = _blockwise(factors)
    return ResolventFamily(space, "product", evaluator,
                           scale_domain=fixed.pop() if fixed else ALL_SCALES, derivative=derivative,
                           constant_derivative=all(f.constant_derivative for f in families),
                           factors=factors)
