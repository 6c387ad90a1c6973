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
subdifferential, which :func:`subdifferential` returns: an indicator on a
normal cone, a conjugate on ``inverse`` (the one Moreau identity) and a
separable sum on ``product_family``.

Every catalog constructor declares one ``derivative(gamma, y)``: an
element of the generalized Jacobian of ``J_{gamma B}`` at ``y``, in one of
the forms of :func:`~rescomp.hilbert.displacement_jacobian`.  The normal
cones of boxes, balls and halfspaces and the ``abs`` soft threshold give
0/1 diagonals or rank-one corrections that depend on ``y``.  Where the
resolvent is affine (zero, scaled identity, linear, the normal cones of
singletons and affine subspaces, quadratics, half squared distances and a
Wiener block built from a number) the derivative is a constant and
``constant_derivative`` is set: then ``J_{gamma B}(y) = D y + J_{gamma B}(0)``.
The relaxed solvers fold such blocks into one fixed matrix per solve and
build the Jacobian of their step from the others.  Derived families
(scaled, inverse, composed, product) and a Wiener block with a callable
forward map declare none (``derivative`` is None); a product lists its
``factors`` as ``(family, slice)`` pairs instead.

Only :meth:`ResolventFamily.resolvent` validates; derived and product
families call their factors' raw ``_evaluator``.

Families are immutable after construction and evaluation is pure, so
they may be shared across threads (the linear catalog member keeps the
idempotent per-scale inverse cache of :func:`hilbert.shifted_inverse`,
which is safe to race).
"""

from __future__ import annotations

import numbers
from typing import NamedTuple

import numpy as np

from .errors import ScaleRestrictionError, ValidationError
from .hilbert import _real, block_slices, check_monotone, product_space, shifted_inverse

ALL_SCALES = "all"

_WIENER_SPOT_CHECKS = 100
_WIENER_TOL = 1e-8
_WIENER_REJECTED = "supplied map failed the firm-nonexpansiveness spot check"


class GraphPoint(NamedTuple):
    """A candidate pair ``(x, xstar)`` for membership in a graph."""

    x: np.ndarray
    xstar: np.ndarray


class ResolventFamily:
    """An operator ``B`` given by ``gamma -> J_{gamma B}``.

    ``cset`` is the convex set of a normal cone, ``derivative(gamma, y)`` the
    declared derivative of a catalog resolvent (``constant_derivative``: it
    does not depend on ``y``), and ``factors`` the ``(family, slice)``
    blocks of a product (each None when it does not apply).
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
        if gamma <= 0.0:
            raise ScaleRestrictionError(f"resolvent scale must be positive, got {gamma}")
        if self.scale_domain != ALL_SCALES and not (  # not <=, so a NaN fails too
                abs(gamma - self.scale_domain) <= 1e-12 * max(1.0, abs(gamma))):
            raise ScaleRestrictionError(
                f"operator {self.kind!r} only supports scale {self.scale_domain}, "
                f"got {gamma}"
            )

    # -- evaluation -------------------------------------------------------

    def resolvent(self, gamma, y):
        """``J_{gamma B}(y)``."""
        self._check_scale(gamma)
        y = self.space.validate(y)
        return self._evaluator(float(gamma), y)

    def _resolve(self, gamma, y):
        """``J_{gamma B}(y)`` for a validated ``y``: checks the scale only."""
        self._check_scale(gamma)
        return self._evaluator(float(gamma), y)

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
        """``n`` pairs ``(J_B z, z - J_B z)``, which always lie in gra B."""
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(n):
            z = self.space.random(rng)
            jz = self.resolvent(1.0, z)
            out.append(GraphPoint(jz, z - jz))
        return out

    # -- derived families ---------------------------------------------------

    def scaled(self, c):
        """The operator ``c B`` for ``c > 0`` (graphs scale in the output)."""
        if c <= 0.0:
            raise ValidationError(f"operator scaling must be positive, got {c}")
        if self.scale_domain == ALL_SCALES:
            domain = ALL_SCALES
        else:
            domain = self.scale_domain / c
        return ResolventFamily(
            self.space,
            f"scaled({c:g},{self.kind})",
            lambda gamma, y: self._evaluator(gamma * c, y),
            scale_domain=domain,
        )

    def inverse(self):
        """The inverse operator, via ``J_{gamma B^{-1}} = Id - gamma J_{B/gamma}(./gamma)``."""
        if self.scale_domain == ALL_SCALES:
            domain = ALL_SCALES
        else:
            domain = 1.0 / self.scale_domain
        return ResolventFamily(
            self.space,
            f"inverse({self.kind})",
            lambda gamma, x: x - gamma * self._evaluator(1.0 / gamma, x / gamma),
            scale_domain=domain,
        )

    def __repr__(self):
        return f"ResolventFamily({self.kind!r} on dim {self.space.dim})"


# ---------------------------------------------------------------------------
# catalog constructors
# ---------------------------------------------------------------------------


def zero_operator(space):
    """``B = 0``: the resolvent is the identity at every scale."""
    return ResolventFamily(space, "zero", lambda gamma, y: y.copy(),
                           derivative=lambda gamma, y: 1.0, constant_derivative=True)


def scaled_identity(space, c):
    """``B = c Id`` with ``c >= 0``: ``J_{gamma B}(y) = y / (1 + gamma c)``."""
    c = float(c)
    if c < 0.0:
        raise ValidationError("scaled identity needs c >= 0 to stay monotone")
    return ResolventFamily(
        space, f"identity-scaled({c:g})", lambda gamma, y: y / (1.0 + gamma * c),
        derivative=lambda gamma, y: 1.0 / (1.0 + gamma * c), constant_derivative=True,
    )


def normal_cone(cset):
    """Normal cone of a convex set: the resolvent is the projection, at any scale."""
    derivative = cset._derivative
    return ResolventFamily(
        cset.space,
        f"normal-cone({cset.tag})",
        lambda gamma, y: cset._project(y),
        cset=cset,
        derivative=None if derivative is None else (lambda gamma, y: derivative(y)),
        constant_derivative=cset.constant_derivative,
    )


def linear_monotone(space, M):
    """A monotone linear operator ``M``: the resolvent solves ``(Id + gamma M) x = y``.

    Monotonicity in the metric means the symmetric part of ``W M`` is PSD;
    this is validated at construction.  ``(Id + gamma M)^{-1}`` is cached
    per scale.
    """
    M, _ = check_monotone(space, M, "linear operator")
    inverse = shifted_inverse(M)
    return ResolventFamily(space, "linear", lambda gamma, y: inverse(gamma) @ y,
                           derivative=lambda gamma, y: inverse(gamma), constant_derivative=True)


def subdifferential(g):
    """The subdifferential of ``g``, the family it carries: ``J_{gamma B} = prox_{gamma g}``."""
    return g.subdifferential


def make_wiener(space, F, p):
    """The operator ``(Id - F + p)^{-1} - Id`` for firmly nonexpansive ``F``.

    Its resolvent exists in closed form only at scale one:
    ``J_B = Id - F + p``, hence ``yosida(1, .) = F - p``.  A number ``F = c``
    (not a bool) is the map ``c Id``: firm nonexpansiveness is then decided
    exactly (``0 <= c <= 1``), and the one ``c`` gives both the evaluator
    ``y - c y + p`` and the constant derivative ``1 - c``.  A callable ``F``
    is the caller's responsibility; it is spot checked here on random pairs
    drawn with seed 0, which validates without proving, and the family
    declares no derivative.
    """
    p = space.validate(p).copy()
    if isinstance(F, numbers.Real):
        c = _real("wiener forward scale", F)
        if not 0.0 <= c <= 1.0:
            raise ValidationError(_WIENER_REJECTED)
        return ResolventFamily(space, "wiener", lambda gamma, y: y - c * y + p,
                               scale_domain=1.0, derivative=lambda gamma, y: 1.0 - c,
                               constant_derivative=True)
    if not callable(F):
        raise ValidationError(f"wiener forward map F must be a number or callable, got {F!r}")
    rng = np.random.default_rng(0)
    for _ in range(_WIENER_SPOT_CHECKS):
        a = space.random(rng)
        b = space.random(rng)
        fa = space.validate(F(a))
        fb = space.validate(F(b))
        lhs = space._norm(fa - fb) ** 2 + space._norm((a - fa) - (b - fb)) ** 2
        if lhs > space._norm(a - b) ** 2 + _WIENER_TOL:
            raise ValidationError(_WIENER_REJECTED)
    return ResolventFamily(space, "wiener", lambda gamma, y: y - F(y) + p, scale_domain=1.0)


def product_family(families, weights=None):
    """Blockwise operator ``B(y) = B_1 y_1 x ... x B_p y_p`` on the product space.

    The resolvent acts block by block; the product supports a scale exactly
    when every factor does, so one scale check on the product covers the
    factors' raw evaluators.
    """
    families = list(families)
    if not families:
        raise ValidationError("product of zero operators")
    spaces = [f.space for f in families]
    space = product_space(spaces, weights)
    slices = block_slices(spaces)
    domains = {f.scale_domain for f in families}
    if len(domains) == 1:
        scale_domain = domains.pop()
    else:
        fixed = {d for d in domains if d != ALL_SCALES}
        if len(fixed) > 1:
            raise ValidationError("factors pin incompatible resolvent scales")
        scale_domain = fixed.pop()

    factors = list(zip(families, slices))

    def evaluator(gamma, y):
        out = np.empty_like(y)
        for fam, sl in factors:
            out[sl] = fam._evaluator(gamma, y[sl])
        return out

    return ResolventFamily(space, "product", evaluator, scale_domain=scale_domain,
                           factors=factors)
