"""Closed convex sets with metric projections.

Each set knows how to project in the metric of its space.  Projections are
idempotent and firmly nonexpansive, which makes every normal-cone operator
and indicator function built from them well behaved.

Box projections clip per coordinate (valid because metrics are diagonal);
balls and halfspaces are defined with respect to the metric norm.

:meth:`ConvexSet.project` validates, then calls the subclass's raw
``_project``, which normal cones (and so indicators) and Wiener blocks
call directly.  A product of sets is the ``product_family`` of their normal
cones (see :mod:`~rescomp.operators`); it needs no set of its own.

A singleton, a box and a ball give ``support(y) = sup_{x in C} <x, y>``
(``inf`` allowed), the conjugate of their indicator; other sets leave it
None.  Constructors refuse NaN data, data that leaves a set empty and an
infinite ball radius.

Each catalog set also gives ``_derivative(x, A) = (D - I) A``, with ``D`` an
element of the generalized Jacobian of its projection at ``x`` and ``A`` a
matrix whose rows are the set's coordinates: a box scales rows, a ball or a
halfspace adds a rank-one term outside the set, and a singleton or an affine
subspace gives the constant ``-A`` or ``P A - A`` (``constant_derivative``).
Where the projection is constant (a zero-radius ball, a box coordinate with
``lower == upper``) ``D`` is 0.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .hilbert import SubspaceProjector, _real


class ConvexSet:
    """Base class: a nonempty closed convex subset of ``space``."""

    tag = "abstract"
    _derivative = None  # (x, A) -> (D - I) A, D the projection's derivative at x, where declared
    constant_derivative = False  # the projection is affine: _derivative ignores x
    support = None  # y -> sup_{x in C} <x, y>, in a subclass with a closed form

    def __init__(self, space):
        self.space = space

    def project(self, x):
        """The metric projection of ``x`` onto the set."""
        return self._project(self.space.validate(x))

    def _project(self, x):
        """Projection of a validated vector (no checks)."""
        raise NotImplementedError

    def distance(self, x):
        return self._distance(self.space.validate(x))

    def _distance(self, x):
        return self.space._norm(x - self._project(x))

    def any_point(self):
        """Some point of the set (used to seed feasibility tests)."""
        return self._project(self.space.zeros())


class Box(ConvexSet):
    """``{x : lower <= x <= upper}`` coordinatewise (entries may be +-inf)."""

    tag = "box"

    def __init__(self, space, lower, upper):
        super().__init__(space)
        self.lower = np.broadcast_to(np.asarray(lower, dtype=float), (space.dim,)).copy()
        self.upper = np.broadcast_to(np.asarray(upper, dtype=float), (space.dim,)).copy()
        # Each comparison is False on NaN; lower = inf or upper = -inf leaves the box empty.
        if not np.all((self.lower <= self.upper) & (self.lower < np.inf) & (self.upper > -np.inf)):
            raise ValidationError("empty box: needs lower <= upper, lower < inf, upper > -inf")
        # The lower bound the derivative tests: +inf where lower == upper, as the
        # projection is constant on such a coordinate and D = 0 there.
        self._free_lower = np.where(self.lower < self.upper, self.lower, np.inf)

    def _project(self, x):
        return np.minimum(np.maximum(x, self.lower), self.upper)

    def _derivative(self, x, A):
        return (((self._free_lower <= x) & (x <= self.upper)) - 1.0)[:, None] * A

    def support(self, y):
        # The bound each component of y pushes towards; a zero component adds
        # nothing and an infinite bound gives inf.  Python's sum adds in
        # coordinate order, which np.sum's pairwise order would round differently.
        bound = np.where(y > 0.0, self.upper, np.where(y < 0.0, self.lower, 0.0))
        return sum((self.space.weights * bound * y).tolist())


class Ball(ConvexSet):
    """Metric-norm ball ``{x : ||x - center|| <= radius}``."""

    tag = "ball"

    def __init__(self, space, center, radius):
        super().__init__(space)
        self.center = space.validate(center).copy()
        self.radius = _real("ball radius", radius)
        if not 0.0 <= self.radius < np.inf:  # NaN too; an infinite ball is the whole space
            raise ValidationError(f"ball radius must be finite and nonnegative, got {self.radius}")

    def _project(self, x):
        d = x - self.center
        nd = self.space._norm(d)
        if nd <= self.radius:
            return x.copy()
        return self.center + (self.radius / nd) * d

    def _derivative(self, x, A):
        # Outside, D = s (I - d v^T) with s = radius / ||d|| and v = W d / ||d||^2;
        # a zero radius gives the constant projection, D = 0.
        if self.radius == 0.0:
            return -1.0 * A
        d = x - self.center
        Wd = self.space.weights * d
        nd = math.sqrt(Wd.dot(d))
        if nd <= self.radius:
            return 0.0 * A
        s = self.radius / nd
        out = (s - 1.0) * A
        out -= (s * d)[:, None] * ((Wd / nd**2) @ A)
        return out

    def support(self, y):
        return self.space._inner(self.center, y) + self.radius * self.space._norm(y)


class Halfspace(ConvexSet):
    """``{x : <normal, x> <= offset}`` in the metric inner product."""

    tag = "halfspace"

    def __init__(self, space, normal, offset):
        super().__init__(space)
        self.normal = space.validate(normal).copy()
        self.offset = _real("halfspace offset", offset)
        if not self.offset > -np.inf:  # NaN too; -inf leaves the halfspace empty
            raise ValidationError(f"halfspace offset must be a number above -inf, got {offset}")
        nn = space.inner(self.normal, self.normal)
        if nn == 0.0:
            raise ValidationError("halfspace normal must be nonzero")
        self._nn = nn

    def _project(self, x):
        excess = self.space._inner(self.normal, x) - self.offset
        if excess <= 0.0:
            return x.copy()
        return x - (excess / self._nn) * self.normal

    def _derivative(self, x, A):
        # Outside, D = I - n v^T with v = W n / ||n||^2.
        if self.space._inner(self.normal, x) <= self.offset:
            return 0.0 * A
        v = (self.space.weights * self.normal) / self._nn
        return -self.normal[:, None] * (v @ A)


class AffineSubspace(ConvexSet):
    """``anchor + span(directions)``; a vector subspace when anchor = 0."""

    tag = "affine"
    constant_derivative = True

    def __init__(self, space, anchor, directions):
        super().__init__(space)
        self.anchor = space.validate(anchor).copy()
        self.projector = SubspaceProjector(space, directions)

    def _project(self, x):
        return self.anchor + self.projector.matrix @ (x - self.anchor)

    def _derivative(self, x, A):
        return self.projector.matrix @ A - A


class Singleton(ConvexSet):
    """The one-point set ``{point}``."""

    tag = "singleton"
    constant_derivative = True

    def __init__(self, space, point):
        super().__init__(space)
        self.point = space.validate(point).copy()

    def _project(self, x):
        return self.point.copy()

    def _derivative(self, x, A):
        return -1.0 * A

    def support(self, y):
        return self.space._inner(self.point, y)

