"""Convex sets: projection properties under diagonal metrics."""

import numpy as np
import pytest

from rescomp.errors import ValidationError
from rescomp.hilbert import Space, displacement_jacobian
from rescomp.sets import AffineSubspace, Ball, Box, Halfspace, Singleton


def all_sets(space, rng):
    lo = rng.uniform(-2.0, 0.0, size=space.dim)
    return [
        Box(space, lo, lo + rng.uniform(0.5, 2.0, size=space.dim)),
        Ball(space, space.random(rng), rng.uniform(0.5, 2.0)),
        Halfspace(space, space.random(rng) + 0.2, rng.uniform(-1.0, 1.0)),
        AffineSubspace(space, space.random(rng), [space.random(rng)]),
        Singleton(space, space.random(rng)),
    ]


class TestProjectionProperties:
    def test_idempotent(self):
        rng = np.random.default_rng(0)
        space = Space(3, [0.5, 1.0, 2.5])
        for cset in all_sets(space, rng):
            for _ in range(20):
                x = space.random(rng, scale=3.0)
                p = cset.project(x)
                assert space.norm(cset.project(p) - p) <= 1e-12, cset.tag

    def test_firmly_nonexpansive(self):
        rng = np.random.default_rng(1)
        space = Space(3, [0.5, 1.0, 2.5])
        for cset in all_sets(space, rng):
            for _ in range(20):
                x, y = space.random(rng, scale=3.0), space.random(rng, scale=3.0)
                px, py = cset.project(x), cset.project(y)
                lhs = space.norm(px - py) ** 2 + space.norm((x - px) - (y - py)) ** 2
                assert lhs <= space.norm(x - y) ** 2 + 1e-10, cset.tag

    def test_projection_is_nearest_point(self):
        # metric optimality: no sampled member of the set is closer
        rng = np.random.default_rng(2)
        space = Space(2, [2.0, 0.3])
        for cset in all_sets(space, rng):
            for _ in range(15):
                x = space.random(rng, scale=3.0)
                p = cset.project(x)
                z = cset.project(space.random(rng, scale=3.0))
                assert space.norm(x - p) <= space.norm(x - z) + 1e-10, cset.tag

    def test_contains_after_projection(self):
        rng = np.random.default_rng(3)
        space = Space(2)
        for cset in all_sets(space, rng):
            x = space.random(rng, scale=5.0)
            assert cset.contains(cset.project(x)), cset.tag


class TestSpecificSets:
    def test_halfspace_metric_projection(self):
        # {x : <a, x>_W <= 0} with W = diag(2, 1), a = (1, 0):
        # constraint reads 2 x1 <= 0, projection zeroes the first coordinate
        space = Space(2, [2.0, 1.0])
        cset = Halfspace(space, [1.0, 0.0], 0.0)
        assert cset.project([3.0, 4.0]) == pytest.approx([0.0, 4.0])
        assert cset.project([-1.0, 4.0]) == pytest.approx([-1.0, 4.0])

    def test_metric_ball(self):
        space = Space(1, [4.0])
        cset = Ball(space, [0.0], 1.0)  # |x| * 2 <= 1 in the metric norm
        assert cset.project([3.0]) == pytest.approx([0.5])

    def test_affine_subspace_offset(self):
        space = Space(2)
        cset = AffineSubspace(space, [0.0, 1.0], [[1.0, 0.0]])
        assert cset.project([5.0, 7.0]) == pytest.approx([5.0, 1.0])

    def test_empty_box_rejected(self):
        with pytest.raises(ValidationError):
            Box(Space(1), [1.0], [0.0])

    def test_degenerate_halfspace_rejected(self):
        with pytest.raises(ValidationError):
            Halfspace(Space(2), [0.0, 0.0], 1.0)

    def test_box_projection_bit_identical_to_clip(self):
        rng = np.random.default_rng(12)
        space = Space(8)
        lower = np.array([-np.inf, -1.0, 0.0, -np.inf, 2.0, -0.5, -np.inf, 1.0])
        upper = np.array([np.inf, 1.0, np.inf, 0.0, 2.0, 0.5, -1.0, np.inf])
        cset = Box(space, lower, upper)
        for scale in (1e-3, 1.0, 1e3, 1e300):
            for _ in range(50):
                x = scale * rng.standard_normal(8)
                assert np.array_equal(cset.project(x), np.clip(x, lower, upper))

    def test_only_singletons_and_affine_subspaces_project_affinely(self):
        # An affine projection is D x + project(0), D its constant derivative.
        rng = np.random.default_rng(13)
        space = Space(3, [0.5, 1.0, 2.5])
        for cset in all_sets(space, rng):
            assert cset._derivative is not None, cset.tag
            if cset.tag not in ("singleton", "affine"):
                assert not cset.constant_derivative, cset.tag
                continue
            assert cset.constant_derivative, cset.tag
            x = space.random(rng, scale=3.0)
            M = displacement_jacobian(cset._derivative(x), np.eye(3)) + np.eye(3)
            got = M @ x + cset.project(space.zeros())
            assert got == pytest.approx(cset.project(x), abs=1e-14)

    def test_unbounded_box(self):
        space = Space(2)
        cset = Box(space, [0.0, -np.inf], [np.inf, 0.0])
        assert cset.project([-1.0, 5.0]) == pytest.approx([0.0, 0.0])
        assert cset.project([9.0, -9.0]) == pytest.approx([9.0, -9.0])
