"""Closed convex sets with metric projections.

Each set knows how to project in the metric of its space.  Projections are
idempotent and firmly nonexpansive, which makes every normal-cone operator
and indicator function built from them well behaved.

Box projections clip per coordinate (valid because metrics are diagonal);
balls and halfspaces are defined with respect to the metric norm.

:meth:`ConvexSet.project` validates, then calls the subclass's raw
``_project``, which product sets, normal cones and indicators call directly.
Singletons and affine subspaces give their projection as an affine map
``(M, b)`` through :meth:`ConvexSet.affine_projection`.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .hilbert import SubspaceProjector


class ConvexSet:
    """Base class: a nonempty closed convex subset of ``space``."""

    tag = "abstract"

    def __init__(self, space):
        self.space = space

    def project(self, x):
        """The metric projection of ``x`` onto the set."""
        return self._project(self.space.validate(x))

    def _project(self, x):
        """Projection of a validated vector (no checks)."""
        raise NotImplementedError

    def contains(self, x, tol=1e-8):
        return self._distance(self.space.validate(x)) <= tol

    def distance(self, x):
        return self._distance(self.space.validate(x))

    def _distance(self, x):
        return self.space._norm(x - self._project(x))

    def any_point(self):
        """Some point of the set (used to seed feasibility tests)."""
        return self._project(self.space.zeros())

    def affine_projection(self):
        """``(M, b)`` with ``project(x) = M x + b`` when the projection is affine, else None."""
        return None


class Box(ConvexSet):
    """``{x : lower <= x <= upper}`` coordinatewise (entries may be +-inf)."""

    tag = "box"

    def __init__(self, space, lower, upper):
        super().__init__(space)
        self.lower = np.broadcast_to(np.asarray(lower, dtype=float), (space.dim,)).copy()
        self.upper = np.broadcast_to(np.asarray(upper, dtype=float), (space.dim,)).copy()
        if np.any(self.lower > self.upper):
            raise ValidationError("empty box: lower > upper somewhere")

    def _project(self, x):
        return np.minimum(np.maximum(x, self.lower), self.upper)


class Ball(ConvexSet):
    """Metric-norm ball ``{x : ||x - center|| <= radius}``."""

    tag = "ball"

    def __init__(self, space, center, radius):
        super().__init__(space)
        self.center = space.validate(center).copy()
        self.radius = float(radius)
        if self.radius < 0:
            raise ValidationError("negative ball radius")

    def _project(self, x):
        d = x - self.center
        nd = self.space._norm(d)
        if nd <= self.radius:
            return x.copy()
        return self.center + (self.radius / nd) * d


class Halfspace(ConvexSet):
    """``{x : <normal, x> <= offset}`` in the metric inner product."""

    tag = "halfspace"

    def __init__(self, space, normal, offset):
        super().__init__(space)
        self.normal = space.validate(normal).copy()
        self.offset = float(offset)
        nn = space.inner(self.normal, self.normal)
        if nn == 0.0:
            raise ValidationError("halfspace normal must be nonzero")
        self._nn = nn

    def _project(self, x):
        excess = self.space._inner(self.normal, x) - self.offset
        if excess <= 0.0:
            return x.copy()
        return x - (excess / self._nn) * self.normal


class AffineSubspace(ConvexSet):
    """``anchor + span(directions)``; a vector subspace when anchor = 0."""

    tag = "affine"

    def __init__(self, space, anchor, directions):
        super().__init__(space)
        self.anchor = space.validate(anchor).copy()
        self.projector = SubspaceProjector(space, directions)

    def _project(self, x):
        return self.anchor + self.projector.matrix @ (x - self.anchor)

    def affine_projection(self):
        P = self.projector.matrix
        return P, self.anchor - P @ self.anchor


class Singleton(ConvexSet):
    """The one-point set ``{point}``."""

    tag = "singleton"

    def __init__(self, space, point):
        super().__init__(space)
        self.point = space.validate(point).copy()

    def _project(self, x):
        return self.point.copy()

    def affine_projection(self):
        return 0.0, self.point


class ProductSet(ConvexSet):
    """Cartesian product of sets living in the blocks of a product space."""

    tag = "product"

    def __init__(self, space, sets, slices):
        super().__init__(space)
        if len(sets) != len(slices):
            raise ValidationError("one block slice per factor set is required")
        for s, sl in zip(sets, slices):
            if len(range(space.dim)[sl]) != s.space.dim:
                raise DimensionMismatchError("a block slice does not match its set's dimension")
        self.sets = list(sets)
        self.slices = list(slices)

    def _project(self, x):
        out = np.empty_like(x)
        for s, sl in zip(self.sets, self.slices):
            out[sl] = s._project(x[sl])
        return out
