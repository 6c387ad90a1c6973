"""Resolvent families: catalog closed forms, identities, graph machinery."""

import numpy as np
import pytest

from rescomp.compositions import (
    resolvent_average,
    resolvent_cocomposition,
    resolvent_composition,
    resolvent_mixture,
)
from rescomp.errors import ScaleRestrictionError, ValidationError
from rescomp.hilbert import LinearMap, Space, displacement_jacobian, product_space
from rescomp.operators import (
    GraphPoint,
    linear_monotone,
    make_wiener,
    normal_cone,
    product_family,
    scaled_identity,
    subdifferential,
    zero_operator,
)
from rescomp.proxfun import half_squared_distance, indicator, one_norm, quadratic
from rescomp.properties import (
    suite_monotone_graph,
    suite_moreau_identity,
    suite_yosida_cocoercive,
    suite_zeros_fixed_points,
)
from rescomp.sets import AffineSubspace, Ball, Box, Halfspace, ProductSet, Singleton

R1 = Space(1)


class TestResolvent:
    def test_identity_operator(self):
        B = scaled_identity(R1, 1.0)
        assert B.resolvent(1.0, [1.0]) == pytest.approx([0.5])

    def test_normal_cone_projects(self):
        B = normal_cone(Box(R1, [0.0], [1.0]))
        for gamma in (0.1, 1.0, 10.0):
            assert B.resolvent(gamma, [2.5]) == pytest.approx([1.0])

    def test_wiener_closed_form(self):
        B = make_wiener(R1, lambda y: 0.5 * y, [0.0])
        assert B.resolvent(1.0, [4.0]) == pytest.approx([2.0])

    def test_wiener_rejects_other_scales(self):
        B = make_wiener(R1, lambda y: 0.5 * y, [0.0])
        with pytest.raises(ScaleRestrictionError):
            B.resolvent(2.0, [4.0])

    def test_zero_operator_is_identity_resolvent(self):
        s = Space(3, [0.5, 1.0, 2.0])
        B = zero_operator(s)
        x = np.array([1.0, -2.0, 3.0])
        assert B.resolvent(7.3, x) == pytest.approx(x)

    def test_linear_solve(self):
        s = Space(2)
        M = np.array([[2.0, 0.0], [0.0, 3.0]])
        B = linear_monotone(s, M)
        y = np.array([3.0, 8.0])
        assert B.resolvent(1.0, y) == pytest.approx([1.0, 2.0])

    def test_linear_matches_dense_solve_at_alternating_scales(self):
        # M = W^-1 (S + K): monotone in the metric W without being symmetric.
        rng = np.random.default_rng(5)
        w = np.array([0.5, 1.0, 2.0, 4.0])
        s = Space(4, w)
        A = rng.standard_normal((4, 4))
        K = rng.standard_normal((4, 4))
        M = (A @ A.T + K - K.T) / w[:, None]
        B = linear_monotone(s, M)
        for gamma in (0.5, 2.0, 0.5, 2.0):
            y = rng.standard_normal(4)
            want = np.linalg.solve(np.eye(4) + gamma * M, y)
            got = B.resolvent(gamma, y)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_linear_rejects_nonmonotone(self):
        with pytest.raises(ValidationError):
            linear_monotone(Space(2), np.diag([-1.0, 1.0]))

    def test_nonpositive_scale_rejected(self):
        B = scaled_identity(R1, 1.0)
        with pytest.raises(ScaleRestrictionError):
            B.resolvent(0.0, [1.0])


class TestYosida:
    def test_identity(self):
        B = scaled_identity(R1, 1.0)
        assert B.yosida(1.0, [4.0]) == pytest.approx([2.0])

    def test_singleton_normal_cone(self):
        s = Space(2)
        B = normal_cone(Singleton(s, [1.0, -1.0]))
        assert B.yosida(1.0, [3.0, 1.0]) == pytest.approx([2.0, 2.0])

    def test_identity_at_gamma_two(self):
        B = scaled_identity(R1, 1.0)
        # J_{2 Id}(6) = 2, so the Yosida value is (6 - 2)/2
        assert B.yosida(2.0, [6.0]) == pytest.approx([2.0])

    def test_cocoercive(self):
        res = suite_yosida_cocoercive(np.random.default_rng([11, 0]), 500)
        assert res.passed, res.line()


class TestInverseResolvent:
    def test_identity_is_self_inverse(self):
        B = scaled_identity(R1, 1.0)
        assert B.inverse_resolvent(1.0, [3.0]) == pytest.approx([1.5])

    def test_scaled_identity_closed_form(self):
        B = scaled_identity(R1, 3.0)
        # J_{2 B^{-1}}(5) = 5 / (1 + 2/3)
        assert B.inverse_resolvent(2.0, [5.0]) == pytest.approx([3.0])

    def test_inverse_of_singleton_cone_is_zero_operator(self):
        s = Space(2)
        B = normal_cone(Singleton(s, [0.0, 0.0]))
        x = np.array([0.7, -1.2])
        assert B.inverse_resolvent(1.0, x) == pytest.approx(x)

    def test_moreau_identity_exact(self):
        res = suite_moreau_identity(np.random.default_rng([11, 1]), 500)
        assert res.passed, res.line()

    def test_inverse_resolvent_is_the_written_out_moreau_identity(self):
        # J_{gamma B^{-1}}(x) = x - gamma J_{B/gamma}(x/gamma), bit for bit
        w = np.array([0.5, 1.0, 2.0])
        s = Space(3, w)
        skew = np.array([[0.0, 1.0, -2.0], [-1.0, 0.0, 0.5], [2.0, -0.5, 0.0]]) / w[:, None]
        catalog = [
            zero_operator(s),
            scaled_identity(s, 1.5),
            normal_cone(Ball(s, [0.2, 0.0, -0.1], 0.8)),
            normal_cone(Singleton(s, [1.0, -1.0, 0.5])),
            linear_monotone(s, np.diag([1.0, 2.0, 0.5]) + skew),
            subdifferential(one_norm(s)),
        ]
        g = np.random.default_rng(5)
        for B in catalog:
            for gamma in (0.5, 1.0, 2.0):
                x = s.random(g)
                expected = x - gamma * B.resolvent(1.0 / gamma, x / gamma)
                assert np.array_equal(B.inverse_resolvent(gamma, x), expected), B.kind

    def test_fixed_scale_family_inverts_at_its_own_scale_only(self):
        s = Space(2, [0.5, 2.0])
        B = make_wiener(s, 0.5, [1.0, -1.0])
        x = np.array([0.3, 0.7])
        expected = x - 1.0 * B.resolvent(1.0, x / 1.0)
        assert np.array_equal(B.inverse_resolvent(1.0, x), expected)
        with pytest.raises(ScaleRestrictionError, match=r"inverse\(wiener\)"):
            B.inverse_resolvent(2.0, x)

    def test_inverse_family_matches_inverse_resolvent(self):
        g = np.random.default_rng(3)
        s = Space(3, g.uniform(0.4, 2.0, size=3))
        B = subdifferential(one_norm(s))
        inv = B.inverse()
        for _ in range(20):
            x = s.random(g)
            gamma = g.uniform(0.2, 4.0)
            assert inv.resolvent(gamma, x) == pytest.approx(
                B.inverse_resolvent(gamma, x), abs=1e-13
            )


class TestGraph:
    def test_identity_graph(self):
        B = scaled_identity(R1, 1.0)
        assert B.graph_contains(GraphPoint(np.array([2.0]), np.array([2.0])), 1e-10)

    def test_normal_cone_at_boundary(self):
        B = normal_cone(Box(R1, [0.0], [1.0]))
        assert B.graph_contains(GraphPoint(np.array([1.0]), np.array([5.0])), 1e-10)

    def test_identity_rejects_wrong_slope(self):
        B = scaled_identity(R1, 1.0)
        assert not B.graph_contains(GraphPoint(np.array([1.0]), np.array([2.0])), 1e-10)

    def test_samples_lie_on_diagonal_for_identity(self):
        B = scaled_identity(Space(3), 1.0)
        for pt in B.sample_graph(20, seed=5):
            assert pt.x == pytest.approx(pt.xstar)

    def test_samples_pass_membership(self):
        g = np.random.default_rng(9)
        s = Space(2, [0.5, 2.0])
        for B in (
            scaled_identity(s, 2.0),
            normal_cone(Box(s, [-1.0, -1.0], [1.0, 1.0])),
            subdifferential(half_squared_distance(s, [1.0, 0.0])),
        ):
            for pt in B.sample_graph(20, seed=int(g.integers(0, 100))):
                assert B.graph_contains(pt, 1e-10)

    def test_singleton_cone_samples_fixed_x(self):
        s = Space(2)
        B = normal_cone(Singleton(s, [0.0, 0.0]))
        for pt in B.sample_graph(10, seed=1):
            assert pt.x == pytest.approx([0.0, 0.0])

    def test_monotone_graph_suite(self):
        res = suite_monotone_graph(np.random.default_rng([11, 2]), 500)
        assert res.passed, res.line()


class TestWienerConstruction:
    def test_identity_forward_zero_target(self):
        B = make_wiener(R1, lambda y: y, [0.0])
        # the resolvent is the zero map, so only 0 is fixed
        assert B.resolvent(1.0, [13.0]) == pytest.approx([0.0])
        assert B.resolvent(1.0, [0.0]) == pytest.approx([0.0])

    def test_half_identity_shifted(self):
        B = make_wiener(R1, lambda y: 0.5 * y, [1.0])
        assert B.resolvent(1.0, [4.0]) == pytest.approx([3.0])
        assert B.yosida(1.0, [4.0]) == pytest.approx([1.0])

    def test_projection_forward_zero_set(self):
        cset = Box(R1, [0.0], [1.0])
        B = make_wiener(R1, cset.project, [0.5])
        # zeros of B solve proj(y) = 0.5, i.e. y = 0.5
        assert B.resolvent(1.0, [0.5]) == pytest.approx([0.5])
        assert abs(B.resolvent(1.0, [2.0])[0] - 2.0) > 0.1

    def test_spot_check_rejects_expansive_map(self):
        with pytest.raises(ValidationError):
            make_wiener(R1, lambda y: 2.0 * y, [0.0])

    @pytest.mark.parametrize("c", [-0.5, 1.5])
    def test_declared_scale_outside_unit_interval_rejected(self, c):
        with pytest.raises(ValidationError, match="firm-nonexpansiveness"):
            make_wiener(R1, c, [0.0])

    @pytest.mark.parametrize("c", [0.0, 1.0])
    def test_declared_scale_at_interval_ends_accepted(self, c):
        B = make_wiener(R1, c, [0.5])
        assert B.resolvent(1.0, [4.0]) == pytest.approx([(1.0 - c) * 4.0 + 0.5])

    def test_form_and_evaluator_come_from_one_c(self):
        with pytest.raises(TypeError):  # no second copy of c beside the forward map
            make_wiener(R1, lambda y: 0.9 * y, [1.0], scale=0.5)
        B = make_wiener(R1, 0.9, [1.0])
        y = np.array([4.0])
        assert np.array_equal(B._evaluator(1.0, y), y - 0.9 * y + 1.0)
        assert B.constant_derivative and B.derivative(1.0, y) == 1.0 - 0.9
        assert np.array_equal(B._evaluator(1.0, R1.zeros()), [1.0])

    def test_bool_forward_map_is_refused(self):
        with pytest.raises(ValidationError, match="must be a number"):
            make_wiener(R1, True, [0.0])

    @pytest.mark.parametrize("F", ["0.5", None, [0.5]], ids=["string", "none", "list"])
    def test_forward_map_neither_number_nor_callable_is_refused(self, F):
        with pytest.raises(ValidationError, match="forward map F"):
            make_wiener(Space(2), F, [0.0, 0.0])

    def test_declared_scale_skips_the_spot_checks(self, monkeypatch):
        space, draws = Space(1), []
        random = space.random
        monkeypatch.setattr(space, "random", lambda rng: draws.append(1) or random(rng))
        make_wiener(space, 0.5, [0.0])
        assert draws == []
        make_wiener(space, lambda y: 0.5 * y, [0.0])
        assert len(draws) > 0


W3 = Space(3, [0.5, 1.0, 2.0])


def dense(D, n):
    """A declared derivative ``D`` in any of its forms as an ``n x n`` matrix."""
    return displacement_jacobian(D, np.eye(n)) + np.eye(n)


def _apply_affine(B, gamma, y):
    """``D y + J(0)``: the affine resolvent read from a constant derivative and the evaluator."""
    origin = np.zeros(len(y))
    return dense(B.derivative(gamma, origin), len(y)) @ y + B._evaluator(gamma, origin)


def affine_catalog():
    """Every operator constructor whose resolvent is affine, on a weighted space."""
    rng = np.random.default_rng(17)
    w = W3.weights
    K = rng.standard_normal((3, 3))
    R = rng.standard_normal((3, 3))
    return [
        zero_operator(W3),
        scaled_identity(W3, 1.7),
        linear_monotone(W3, (K - K.T + 0.5 * np.eye(3)) / w[:, None]),
        normal_cone(Singleton(W3, rng.standard_normal(3))),
        normal_cone(AffineSubspace(W3, rng.standard_normal(3), [rng.standard_normal(3)])),
        subdifferential(quadratic(W3, (R @ R.T) / w[:, None], rng.standard_normal(3))),
        subdifferential(half_squared_distance(W3, rng.standard_normal(3))),
        subdifferential(indicator(Singleton(W3, rng.standard_normal(3)))),
    ]


class TestAffineForms:
    """A member whose resolvent is affine declares a constant derivative ``D``, so
    that ``J_{gamma B}(y) = D y + J_{gamma B}(0)``."""

    @pytest.mark.parametrize("B", affine_catalog(), ids=lambda B: B.kind)
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_affine_form_matches_evaluator(self, B, gamma):
        assert B.constant_derivative
        rng = np.random.default_rng(4)
        for _ in range(10):
            y = 3.0 * rng.standard_normal(3)
            want = B._evaluator(gamma, y)
            got = _apply_affine(B, gamma, y)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
            assert np.array_equal(B.derivative(gamma, y), B.derivative(gamma, -y))

    def test_scale_forward_wiener_matches_evaluator(self):
        p = np.array([0.3, -1.2, 2.0])
        B = make_wiener(W3, 0.6, p)
        assert B.constant_derivative
        rng = np.random.default_rng(5)
        for _ in range(10):
            y = 3.0 * rng.standard_normal(3)
            want = B._evaluator(1.0, y)
            assert np.max(np.abs(_apply_affine(B, 1.0, y) - want)) <= (
                1e-14 * np.max(np.abs(want))
            )

    def test_nonlinear_catalog_members_declare_nothing(self):
        # Nothing affine: their derivatives depend on y, or (a callable F) are not declared.
        rng = np.random.default_rng(6)
        for cset in (Box(W3, -np.ones(3), np.ones(3)), Ball(W3, np.zeros(3), 1.0),
                     Halfspace(W3, np.ones(3), 0.5)):
            assert not normal_cone(cset).constant_derivative
        assert not subdifferential(one_norm(W3)).constant_derivative
        wiener = make_wiener(W3, lambda y: 0.5 * y, rng.standard_normal(3))
        assert wiener.derivative is None and not wiener.constant_derivative

    def test_derived_families_declare_nothing(self):
        B = scaled_identity(W3, 1.0)
        L = LinearMap(W3, W3, 0.5 * np.eye(3))
        derived = [
            B.scaled(2.0),
            B.inverse(),
            product_family([B, zero_operator(W3)], [0.5, 0.5]),
            resolvent_composition(L, B),
            resolvent_cocomposition(L, B),
            resolvent_mixture([B, B], [L, L], [0.5, 0.5]),
            resolvent_average([B, B], [0.5, 0.5]),
        ]
        for fam in derived:
            assert fam.derivative is None and not fam.constant_derivative, fam.kind

    def test_product_lists_its_factors(self):
        s1, s2 = Space(1), Space(2)
        A, C = scaled_identity(s1, 1.0), normal_cone(Singleton(s2, [1.0, 2.0]))
        fam = product_family([A, C], [0.5, 0.5])
        assert fam.factors == [(A, slice(0, 1)), (C, slice(1, 3))]
        assert A.factors is None and C.factors is None


class TestZerosAndScaling:
    def test_zero_sets_match_fixed_points(self):
        res = suite_zeros_fixed_points(np.random.default_rng([11, 3]), 300)
        assert res.passed, res.line()

    def test_catalog_resolvents_firmly_nonexpansive(self):
        g = np.random.default_rng(21)
        s = Space(3, [0.5, 1.0, 2.0])
        catalog = [
            zero_operator(s),
            scaled_identity(s, 1.7),
            normal_cone(Box(s, [-1.0, -1.0, -1.0], [1.0, 1.0, 1.0])),
            linear_monotone(s, np.diag([0.5, 1.0, 2.0])),
            subdifferential(one_norm(s)),
        ]
        for B in catalog:
            for _ in range(40):
                gamma = g.uniform(0.2, 5.0)
                x1, x2 = s.random(g), s.random(g)
                t1, t2 = B.resolvent(gamma, x1), B.resolvent(gamma, x2)
                lhs = s.norm(t1 - t2) ** 2 + s.norm((x1 - t1) - (x2 - t2)) ** 2
                assert lhs <= s.norm(x1 - x2) ** 2 + 1e-10

    def test_scaled_family(self):
        B = scaled_identity(R1, 1.0)
        doubled = B.scaled(2.0)
        # J_{gamma * 2 Id}(y) = y / (1 + 2 gamma)
        assert doubled.resolvent(1.0, [3.0]) == pytest.approx([1.0])

    def test_product_family_blockwise(self):
        s1, s2 = Space(1), Space(2)
        fam = product_family(
            [scaled_identity(s1, 1.0), normal_cone(Singleton(s2, [1.0, 2.0]))],
            [0.5, 0.5],
        )
        out = fam.resolvent(1.0, np.array([4.0, 9.0, 9.0]))
        assert out == pytest.approx([2.0, 1.0, 2.0])

    def test_product_takes_the_one_fixed_scale_of_its_factors(self):
        s1, s2 = Space(1), Space(2)
        wiener = make_wiener(s1, 0.5, [1.0])  # fixed scale 1
        fam = product_family([wiener, normal_cone(Singleton(s2, [1.0, 2.0]))], [0.5, 0.5])
        assert fam.scale_domain == 1.0
        assert fam.resolvent(1.0, [4.0, 9.0, 9.0]) == pytest.approx([3.0, 1.0, 2.0])
        with pytest.raises(ScaleRestrictionError):
            fam.resolvent(2.0, [4.0, 9.0, 9.0])
        with pytest.raises(ValidationError, match="incompatible"):
            product_family([wiener, make_wiener(s1, 0.5, [1.0]).scaled(2.0)])


S2 = Space(2, [3.0, 0.7])


def derivative_catalog():
    """``(name, family, gammas, kink)`` for every catalog member that declares a derivative,
    on weighted spaces; ``kink(gamma, y)`` is the distance of ``y`` from the set where the
    resolvent is not differentiable (None: it is differentiable everywhere)."""
    rng = np.random.default_rng(29)
    w = W3.weights
    K = rng.standard_normal((3, 3))
    R = rng.standard_normal((3, 3))
    box = Box(W3, [-1.0, -0.5, 0.0], [1.0, 0.5, 2.0])
    ball = Ball(W3, np.array([0.5, -0.5, 1.0]), 1.5)
    half = Halfspace(W3, np.array([1.0, -2.0, 0.5]), 0.3)
    disc = Ball(S2, np.array([1.0, 2.0]), 0.5)
    product = ProductSet(product_space([W3, S2], [0.5, 2.0]), [box, disc],
                         [slice(0, 3), slice(3, 5)])
    scales = [0.5, 1.0, 2.0]

    def box_kink(gamma, y):
        return np.min(np.abs(np.concatenate([y - box.lower, y - box.upper])))

    def ball_kink(gamma, y):
        return abs(W3.norm(y - ball.center) - ball.radius)

    def product_kink(gamma, y):
        return min(box_kink(gamma, y[:3]), abs(S2.norm(y[3:] - disc.center) - disc.radius))

    return [
        ("zero", zero_operator(W3), scales, None),
        ("scaled-identity", scaled_identity(W3, 1.7), scales, None),
        ("linear", linear_monotone(W3, (K - K.T + 0.5 * np.eye(3)) / w[:, None]), scales, None),
        ("normal-cone(singleton)", normal_cone(Singleton(W3, rng.standard_normal(3))), scales,
         None),
        ("normal-cone(affine)", normal_cone(AffineSubspace(W3, rng.standard_normal(3),
                                                           [rng.standard_normal(3)])),
         scales, None),
        ("normal-cone(box)", normal_cone(box), scales, box_kink),
        ("normal-cone(ball)", normal_cone(ball), scales, ball_kink),
        ("normal-cone(halfspace)", normal_cone(half), scales,
         lambda gamma, y: abs(W3.inner(half.normal, y) - half.offset)),
        ("normal-cone(product)", normal_cone(product), scales, product_kink),
        ("subdifferential(abs-l1)", subdifferential(one_norm(W3)), scales,
         lambda gamma, y: np.min(np.abs(np.abs(y) - gamma / w))),
        ("subdifferential(quadratic)",
         subdifferential(quadratic(W3, (R @ R.T) / w[:, None], rng.standard_normal(3))),
         scales, None),
        ("subdifferential(half-sq-dist)",
         subdifferential(half_squared_distance(W3, rng.standard_normal(3))), scales, None),
        ("subdifferential(indicator(ball))", subdifferential(indicator(ball)), scales,
         ball_kink),
        ("wiener(scale)", make_wiener(W3, 0.6, rng.standard_normal(3)), [1.0], None),
    ]


class TestDerivatives:
    @pytest.mark.parametrize("name, B, gammas, kink", derivative_catalog(),
                             ids=[entry[0] for entry in derivative_catalog()])
    def test_matches_a_central_difference(self, name, B, gammas, kink):
        # Away from the kinks each resolvent is smooth (affine, or a ball's
        # radial map), so a central difference of step h is exact to about
        # eps / h + h^2 ||J'''||.
        rng = np.random.default_rng(41)
        n, h = B.space.dim, 1e-6
        patterns = set()  # which blocks are the identity: a nonlinear member meets several
        for gamma in gammas:
            tested = 0
            while tested < 20:
                y = 2.0 * rng.standard_normal(n)
                if kink is not None and kink(gamma, y) < 1e-3:
                    continue
                columns = [(B._evaluator(gamma, y + h * e) - B._evaluator(gamma, y - h * e))
                           / (2.0 * h) for e in np.eye(n)]
                D = dense(B.derivative(gamma, y), n)
                assert np.max(np.abs(D - np.array(columns).T)) <= 1e-7, (gamma, y)
                patterns.add(tuple(np.all(D == np.eye(n), axis=0)))
                tested += 1
        assert (len(patterns) > 1) == (kink is not None)

    def test_constant_members_reproduce_their_affine_forms(self):
        # The (M, b) each y-independent member declared before derivatives
        # replaced the affine forms, against D and J_gamma(0) from the evaluator.
        rng = np.random.default_rng(43)
        w = W3.weights
        K = rng.standard_normal((3, 3))
        M_lin = (K - K.T + 0.5 * np.eye(3)) / w[:, None]
        R = rng.standard_normal((3, 3))
        Q, b = (R @ R.T) / w[:, None], rng.standard_normal(3)
        point, anchor, c = rng.standard_normal(3), rng.standard_normal(3), 0.6
        line = AffineSubspace(W3, anchor, [rng.standard_normal(3)])
        P = line.projector.matrix
        for gamma in (0.5, 1.0, 2.0):
            inv_lin = np.linalg.inv(np.eye(3) + gamma * M_lin)
            inv_q = np.linalg.inv(np.eye(3) + gamma * Q)
            cases = [
                (zero_operator(W3), 1.0, 0.0),
                (scaled_identity(W3, 1.7), 1.0 / (1.0 + gamma * 1.7), 0.0),
                (linear_monotone(W3, M_lin), inv_lin, 0.0),
                (normal_cone(Singleton(W3, point)), 0.0, point),
                (normal_cone(line), P, anchor - P @ anchor),
                (subdifferential(indicator(Singleton(W3, point))), 0.0, point),
                (subdifferential(quadratic(W3, Q, b)), inv_q, gamma * (inv_q @ b)),
                (subdifferential(half_squared_distance(W3, point)), 1.0 / (1.0 + gamma),
                 (gamma / (1.0 + gamma)) * point),
            ]
            if gamma == 1.0:
                cases.append((make_wiener(W3, c, point), 1.0 - c, point))
            for B, M, offset in cases:
                origin = W3.zeros()
                assert B.constant_derivative, B.kind
                D = B.derivative(gamma, rng.standard_normal(3))
                assert np.shape(D) == np.shape(M), B.kind
                assert np.allclose(D, M, rtol=1e-14, atol=1e-15), B.kind
                assert np.allclose(B._evaluator(gamma, origin), offset, rtol=1e-14,
                                   atol=1e-15), B.kind
