"""Convex sets: projection properties under diagonal metrics."""

import numpy as np
import pytest

from rescomp.errors import ValidationError
from rescomp.hilbert import Space
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
            M = cset._derivative(x, np.eye(3)) + np.eye(3)
            got = M @ x + cset.project(space.zeros())
            assert got == pytest.approx(cset.project(x), abs=1e-14)

    @pytest.mark.parametrize("case", ["zero-radius-ball", "pinned-box-coordinate"])
    def test_constant_projection_has_a_zero_derivative(self, case):
        # At a zero-radius ball's centre, and on a box coordinate with lower == upper,
        # the projection is constant: D = 0 there, so (D - I) A = -A, as a central
        # difference of the projection shows.
        space = Space(3, [0.5, 1.0, 2.5])
        point = np.array([0.3, -1.2, 0.7])
        if case == "zero-radius-ball":
            cset, want = Ball(space, point, 0.0), np.zeros((3, 3))
        else:
            cset, want = Box(space, [0.3, -2.0, -2.0], [0.3, 2.0, 2.0]), np.diag([0.0, 1.0, 1.0])
        h = 1e-6
        columns = [(cset.project(point + h * e) - cset.project(point - h * e)) / (2.0 * h)
                   for e in np.eye(3)]
        assert np.max(np.abs(np.array(columns).T - want)) <= 1e-9
        assert np.array_equal(cset._derivative(point, np.eye(3)) + np.eye(3), want)

    def test_unbounded_box(self):
        space = Space(2)
        cset = Box(space, [0.0, -np.inf], [np.inf, 0.0])
        assert cset.project([-1.0, 5.0]) == pytest.approx([0.0, 0.0])
        assert cset.project([9.0, -9.0]) == pytest.approx([9.0, -9.0])


def _box_support_loop(cset, y):
    """The coordinate loop the box's support function once was."""
    total = 0.0
    for li, ui, yi, wi in zip(cset.lower, cset.upper, y, cset.space.weights):
        if yi > 0.0:
            if np.isinf(ui):
                return np.inf
            total += wi * ui * yi
        elif yi < 0.0:
            if np.isinf(li):
                return np.inf
            total += wi * li * yi
    return total


class TestSupport:
    """``support(y) = sup_{x in C} <x, y>`` against the closed forms, in a weighted metric."""

    def test_closed_forms(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            space = Space(4, rng.uniform(0.3, 3.0, size=4))
            w, y = space.weights, space.random(rng, scale=2.0)
            p, c, r = space.random(rng), space.random(rng), rng.uniform(0.1, 2.0)
            lower = rng.uniform(-2.0, 0.0, size=4)
            box = Box(space, lower, lower + rng.uniform(0.0, 2.0, size=4))
            assert Singleton(space, p).support(y) == pytest.approx(
                np.sum(w * p * y), rel=1e-14, abs=1e-14)
            ball = Ball(space, c, r)
            assert ball.support(y) == pytest.approx(
                np.sum(w * c * y) + r * np.sqrt(np.sum(w * y * y)), rel=1e-14, abs=1e-14)
            assert box.support(y) == _box_support_loop(box, y)

    def test_is_attained_on_the_set(self):
        # sup <x, y> over x in C is at least <x, y> for each sampled x in C.
        rng = np.random.default_rng(22)
        space = Space(3, [0.5, 1.0, 2.5])
        for cset in (Singleton(space, [1.0, -2.0, 0.5]), Ball(space, [0.0, 1.0, 0.0], 0.7),
                     Box(space, [-1.0, 0.0, 2.0], [1.0, 0.5, 3.0])):
            y = space.random(rng)
            for _ in range(20):
                x = cset.project(space.random(rng, scale=3.0))
                assert space.inner(x, y) <= cset.support(y) + 1e-12

    def test_half_infinite_box(self):
        space = Space(2, [2.0, 0.5])
        box = Box(space, [-1.0, 0.0], [np.inf, 3.0])
        assert box.support(np.array([1.0, 1.0])) == np.inf    # unbounded direction
        assert box.support(np.array([0.0, 1.0])) == 0.5 * 3.0  # that component is 0
        assert box.support(np.array([-1.0, -2.0])) == 2.0 * 1.0 + 0.0
        for y in ([1.0, 1.0], [0.0, 1.0], [-1.0, -2.0], [0.0, 0.0]):
            assert box.support(np.array(y)) == _box_support_loop(box, np.array(y))

    def test_sets_without_a_closed_form_give_none(self):
        space = Space(2)
        assert Halfspace(space, [1.0, 0.0], 1.0).support is None
        assert AffineSubspace(space, [0.0, 0.0], [[1.0, 0.0]]).support is None
