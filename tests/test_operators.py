"""Resolvent families: catalog closed forms, identities, graph machinery."""

import numpy as np
import pytest

from rescomp import operators, properties
from rescomp.compositions import (
    compose_chain,
    resolvent_average,
    resolvent_cocomposition,
    resolvent_composition,
    resolvent_mixture,
)
from rescomp.errors import DimensionMismatchError, ScaleRestrictionError, ValidationError
from rescomp.hilbert import LinearMap, Space, SubspaceProjector, identity_map
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
from rescomp.proxfun import (
    ProxFunction,
    half_squared_distance,
    indicator,
    one_norm,
    quadratic,
    separable,
)
from rescomp.properties import (
    suite_monotone_graph,
    suite_moreau_identity,
    suite_yosida_cocoercive,
    suite_zeros_fixed_points,
)
from rescomp.sets import AffineSubspace, Ball, Box, Halfspace, Singleton
from rescomp.solvers import RelaxedInstance

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
        assert B.constant_derivative and B.derivative(1.0, y, 1.0) == 1.0 - 0.9 - 1.0
        assert np.array_equal(B._evaluator(1.0, R1.zeros()), [1.0])

    def test_bool_forward_map_is_refused(self):
        with pytest.raises(ValidationError, match="must be a number"):
            make_wiener(R1, True, [0.0])

    @pytest.mark.parametrize("F", ["0.5", None, [0.5]], ids=["string", "none", "list"])
    def test_forward_map_neither_number_nor_callable_is_refused(self, F):
        with pytest.raises(ValidationError, match="forward map F"):
            make_wiener(Space(2), F, [0.0, 0.0])

    def test_declared_scale_and_sets_skip_the_spot_checks(self, monkeypatch):
        space, checks = Space(2, [0.5, 2.0]), []
        defect = operators._firm_defect
        monkeypatch.setattr(operators, "_firm_defect",
                            lambda space, T, a, b: checks.append(len(a)) or defect(space, T, a, b))
        make_wiener(space, 0.5, [0.0, 0.0])
        for cset in (Singleton(space, [1.0, 2.0]), Box(space, [0.0, 0.0], [1.0, 1.0]),
                     Ball(space, [0.0, 1.0], 0.5), Halfspace(space, [1.0, -1.0], 0.2),
                     AffineSubspace(space, [0.0, 1.0], [[1.0, 1.0]])):
            make_wiener(space, cset, [0.0, 0.0])
        assert checks == []
        make_wiener(space, lambda y: 0.5 * y, [0.0, 0.0])
        assert checks == [100]

    def test_set_forward_is_its_projection(self):
        space = Space(2, [0.5, 2.0])
        ball, p = Ball(space, [0.0, 1.0], 0.5), np.array([0.3, -0.2])
        B = make_wiener(space, ball, p)
        for y in (np.array([4.0, -1.0]), np.array([0.1, 1.2])):
            assert np.array_equal(B._evaluator(1.0, y), y - ball._project(y) + p)
        with pytest.raises(ScaleRestrictionError):
            B.resolvent(2.0, p)

    def test_set_from_another_space_is_refused(self):
        for other in (Space(3), Space(2, [1.0, 1.0])):
            with pytest.raises(DimensionMismatchError, match="another space"):
                make_wiener(Space(2, [0.5, 2.0]), Box(other, -1.0, 1.0), [0.0, 0.0])


class TestFirmDefect:
    """One firm-nonexpansiveness test serves ``make_wiener`` and the property suites."""

    def test_one_helper(self, monkeypatch):
        # make_wiener tests its 100 pairs in one call, and F still sees every point.
        assert properties._firm_defect is operators._firm_defect
        calls, points = [], []
        defect = operators._firm_defect

        def counted(space, T, a, b):
            calls.append((a.shape, b.shape))
            return defect(space, T, a, b)

        monkeypatch.setattr(operators, "_firm_defect", counted)
        project = Box(R1, [0.0], [1.0]).project
        make_wiener(R1, lambda v: points.append(1) or project(v), [0.5])
        assert calls == [((100, 1), (100, 1))]
        assert len(points) == 200

    def test_values(self):
        rng = np.random.default_rng(8)
        space = Space(3, [0.5, 1.0, 2.0])
        ball = Ball(space, [0.0, 1.0, 0.0], 0.5)
        for _ in range(50):
            a, b = space.random(rng), space.random(rng)
            assert operators._firm_defect(space, ball.project, a, b) <= 1e-12
            # 2 Id: ||2a - 2b||^2 + ||b - a||^2 - ||a - b||^2 = 4 ||a - b||^2
            assert operators._firm_defect(space, lambda v: 2.0 * v, a, b) == pytest.approx(
                4.0 * space.norm(a - b) ** 2)

    @pytest.mark.parametrize("name", ["ball", "twice"])
    def test_stacked_rows_are_the_pair_formula(self, name):
        space = Space(3, [0.5, 1.0, 2.0])
        T = Ball(space, [0.0, 1.0, 0.0], 0.5).project if name == "ball" else (lambda v: 2.0 * v)
        pairs = np.random.default_rng(8).standard_normal((50, 2, 3))
        defects = operators._firm_defect(space, T, pairs[:, 0], pairs[:, 1])
        assert defects.shape == (50,)
        for (a, b), got in zip(pairs, defects):
            ta, tb = T(a), T(b)
            terms = (space.norm(ta - tb) ** 2, space.norm((a - ta) - (b - tb)) ** 2,
                     space.norm(a - b) ** 2)
            assert abs(got - (terms[0] + terms[1] - terms[2])) <= 1e-14 * sum(terms)
            assert abs(operators._firm_defect(space, T, a, b) - got) <= 1e-14 * sum(terms)

    def test_one_bad_row_raises(self):
        space = Space(2)
        pairs = np.zeros((5, 2, 2))
        pairs[3, 1, 0] = 1.0  # the one point on which the maps below misbehave

        def bad_at_one(bad):
            return lambda v: bad(v) if v[0] == 1.0 else v

        with pytest.raises(ValidationError, match="non-finite"):
            operators._firm_defect(space, bad_at_one(lambda v: v * np.nan), pairs[:, 0], pairs[:, 1])
        for short in (bad_at_one(lambda v: v[:1]), lambda v: v[:1]):
            with pytest.raises(DimensionMismatchError, match="vectors of dim 2"):
                operators._firm_defect(space, short, pairs[:, 0], pairs[:, 1])

    @pytest.mark.parametrize("dim", [1, 3])
    def test_stacked_draw_is_the_sequential_draw(self, dim):
        # make_wiener and the suites draw their pairs in one call: the same numbers as
        # drawing a, b, a, b, ... one point at a time.
        space, rng = Space(dim), np.random.default_rng(0)
        sequential = [space.random(rng) for _ in range(200)]
        stacked = np.random.default_rng(0).standard_normal((100, 2, dim))
        assert np.array_equal(stacked.reshape(200, dim), sequential)

    def test_a_nan_map_raises(self):
        with pytest.raises(ValidationError, match="non-finite"):
            operators._firm_defect(R1, lambda v: np.full(1, np.nan), np.ones(1), np.zeros(1))
        with pytest.raises(ValidationError, match="non-finite"):
            make_wiener(R1, lambda v: np.full(1, np.nan), [0.0])

    def test_a_nan_map_fails_a_property_suite(self, monkeypatch):
        # Through the shared helper a NaN output raises; a NaN defect would
        # pass max() unseen and the suite would report a pass.
        monkeypatch.setattr(SubspaceProjector, "apply", lambda self, x: np.full_like(x, np.nan))
        with pytest.raises(ValidationError, match="non-finite"):
            properties.suite_projector_firm(np.random.default_rng(0), 5)


class TestBlockwise:
    def test_product_evaluates_each_block_with_its_factor(self):
        rng = np.random.default_rng(9)
        spaces = [Space(1), Space(2, [0.5, 2.0]), Space(3)]
        fams = [scaled_identity(spaces[0], 2.0), normal_cone(Ball(spaces[1], [0.0, 1.0], 0.3)),
                subdifferential(one_norm(spaces[2]))]
        prod = product_family(fams, [1.0, 0.5, 2.0])
        y = prod.space.random(rng, scale=2.0)
        expected = np.concatenate([fams[0].resolvent(0.7, y[:1]), fams[1].resolvent(0.7, y[1:3]),
                                   fams[2].resolvent(0.7, y[3:])])
        assert np.array_equal(prod.resolvent(0.7, y), expected)
        assert np.array_equal(operators._blockwise(prod.factors)[0](0.7, y), expected)


class TestRemovedParameters:
    def test_average_and_chain_take_no_gate_bypass(self):
        B = zero_operator(R1)
        with pytest.raises(TypeError, match="unexpected keyword"):
            resolvent_average([B], [1.0], unsafe=True)
        with pytest.raises(TypeError, match="unexpected keyword"):
            compose_chain(identity_map(R1), identity_map(R1), B, unsafe=True)

    def test_compositions_take_no_gate_bypass(self):
        B, L = zero_operator(R1), identity_map(R1)
        with pytest.raises(TypeError, match="unexpected keyword"):
            resolvent_composition(L, B, unsafe=True)
        with pytest.raises(TypeError, match="unexpected keyword"):
            resolvent_cocomposition(L, B, unsafe=True)
        with pytest.raises(TypeError, match="unexpected keyword"):
            resolvent_mixture([B], [L], [1.0], unsafe=True)


W3 = Space(3, [0.5, 1.0, 2.0])


def dense(B, gamma, y):
    """``B``'s declared derivative ``D`` at ``y`` as an ``n x n`` matrix, ``(D - I) I + I``."""
    eye = np.eye(len(y))
    return B.derivative(gamma, y, eye) + eye


def _apply_affine(B, gamma, y):
    """``D y + J(0)``: the affine resolvent read from a constant derivative and the evaluator."""
    origin = np.zeros(len(y))
    return dense(B, gamma, origin) @ y + B._evaluator(gamma, origin)


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
        # an indicator's subdifferential is its set's normal cone, kind and all
        pytest.param(subdifferential(indicator(Singleton(W3, rng.standard_normal(3)))),
                     id="subdifferential(indicator(singleton))"),
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
            assert np.array_equal(dense(B, gamma, y), dense(B, gamma, -y))

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
        for cset in (Box(W3, -np.ones(3), np.ones(3)), Ball(W3, np.zeros(3), 1.0),
                     Halfspace(W3, np.ones(3), 0.5)):
            wiener = make_wiener(W3, cset, rng.standard_normal(3))
            assert wiener.derivative is not None and not wiener.constant_derivative

    def test_derived_families_declare_the_form_of_their_inner_family(self):
        # A derived family declares a derivative, constant exactly when its inner family's is,
        # and none when its inner family declares none.
        L = LinearMap(W3, W3, 0.5 * np.eye(3))
        inner = [scaled_identity(W3, 1.0), normal_cone(Ball(W3, np.zeros(3), 1.0)),
                 make_wiener(W3, lambda y: 0.5 * y, W3.zeros())]
        for B in inner:
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
                assert (fam.derivative is None) == (B.derivative is None), (B.kind, fam.kind)
                assert fam.constant_derivative == B.constant_derivative, (B.kind, fam.kind)

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
    scales = [0.5, 1.0, 2.0]

    def box_kink(gamma, y):
        return np.min(np.abs(np.concatenate([y - box.lower, y - box.upper])))

    def ball_kink(gamma, y):
        return abs(W3.norm(y - ball.center) - ball.radius)

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
        ("wiener(box)", make_wiener(W3, box, rng.standard_normal(3)), [1.0], box_kink),
        ("wiener(ball)", make_wiener(W3, ball, rng.standard_normal(3)), [1.0], ball_kink),
        ("wiener(halfspace)", make_wiener(W3, half, rng.standard_normal(3)), [1.0],
         lambda gamma, y: abs(W3.inner(half.normal, y) - half.offset)),
        ("wiener(singleton)", make_wiener(W3, Singleton(W3, rng.standard_normal(3)),
                                          rng.standard_normal(3)), [1.0], None),
    ]


def derived_catalog():
    """``(name, family, gammas, kink)`` for every derived family, each over the box, ball and
    halfspace normal cones, the ``abs`` subdifferential and the linear member of
    :func:`derivative_catalog`; ``kink(gamma, x)`` is the distance of the inner family's
    argument from its kinks (``inf`` for the linear member, which has none)."""
    rng = np.random.default_rng(31)
    H = Space(4, [0.7, 1.3, 0.4, 2.0])
    L1, L2 = (LinearMap(H, W3, rng.standard_normal((3, 4))) for _ in range(2))
    L1, L2 = L1.scaled(0.9 / L1.op_norm()), L2.scaled(0.6 / L2.op_norm())
    V = SubspaceProjector(H, rng.standard_normal((2, 4)))
    M3 = rng.standard_normal((4, 4))  # H -> the 1 + 3 dimensional product of the entries below
    S1, S2 = Space(1, [3.0]), Space(2, [0.5, 2.0])
    scales = [0.5, 1.0, 2.0]
    out = []
    for name, B, _gammas, kink in derivative_catalog():
        if name not in ("normal-cone(box)", "normal-cone(ball)", "normal-cone(halfspace)",
                        "subdifferential(abs-l1)", "linear"):
            continue
        k = kink or (lambda gamma, y: np.inf)
        g = ProxFunction(B.kind, B)
        product = product_family([zero_operator(S1), B], [2.0, 0.5])
        L3 = LinearMap(H, product.space, M3)
        L3 = L3.scaled(0.9 / L3.op_norm())
        out += [
            (f"scaled[{name}]", B.scaled(1.7), scales, lambda gm, y, k=k: k(1.7 * gm, y)),
            (f"inverse[{name}]", B.inverse(), scales, lambda gm, y, k=k: k(1.0 / gm, y / gm)),
            (f"conjugate[{name}]", g.conjugate().subdifferential, scales,
             lambda gm, y, k=k: k(1.0 / gm, y / gm)),
            (f"product[{name}]", product, scales, lambda gm, y, k=k: k(gm, y[1:])),
            (f"separable[{name}]",
             separable([g, half_squared_distance(S2, [0.3, -0.4])], [0.5, 1.5]).subdifferential,
             scales, lambda gm, y, k=k: k(gm, y[:3])),
            (f"composition[{name}]", resolvent_composition(L1, B, 0.8), [1.0],
             lambda gm, x, k=k: k(0.8, L1.matrix @ x)),
            (f"cocomposition[{name}]", resolvent_cocomposition(L1, B, 0.8), [1.0],
             lambda gm, x, k=k: k(0.8, L1.matrix @ x)),
            # folded whole into G and h when the other factor is affine, else evaluated whole
            (f"cocomposition[product[{name}]]", resolvent_cocomposition(L3, product, 0.8), [1.0],
             lambda gm, x, k=k, L3=L3: k(0.8, (L3.matrix @ x)[1:])),
            (f"mixture[{name}]", resolvent_mixture([B, B], [L1, L2], [0.6, 1.0]), [1.0],
             lambda gm, x, k=k: min(k(1.0, L1.matrix @ x), k(1.0, L2.matrix @ x))),
            (f"average[{name}]", resolvent_average([B, B], [0.3, 0.7], 1.3), [1.0],
             lambda gm, x, k=k: k(1.3, x)),
            (f"relaxed[{name}]", RelaxedInstance(V, L1, B, 0.8).relaxed_family(), [1.0],
             lambda gm, x, k=k: k(0.8, L1.matrix @ (V.matrix @ x))),
        ]
    return out


class TestDerivatives:
    @pytest.mark.parametrize("name, B, gammas, kink", derivative_catalog(),
                             ids=[entry[0] for entry in derivative_catalog()])
    def test_matches_a_central_difference(self, name, B, gammas, kink):
        # Away from the kinks each resolvent is smooth (affine, or a ball's
        # radial map), so a central difference of step h is exact to about
        # eps / h + h^2 ||J'''||.
        rng = np.random.default_rng(41)
        n, h = B.space.dim, 1e-6
        # Which columns of D are those of I and which are 0: a nonlinear member meets several.
        patterns = set()
        for gamma in gammas:
            tested = 0
            while tested < 20:
                y = 2.0 * rng.standard_normal(n)
                if kink is not None and kink(gamma, y) < 1e-3:
                    continue
                columns = [(B._evaluator(gamma, y + h * e) - B._evaluator(gamma, y - h * e))
                           / (2.0 * h) for e in np.eye(n)]
                D = dense(B, gamma, y)
                assert np.max(np.abs(D - np.array(columns).T)) <= 1e-7, (gamma, y)
                patterns.add((*np.all(D == np.eye(n), axis=0), *np.all(D == 0.0, axis=0)))
                tested += 1
        assert (len(patterns) > 1) == (kink is not None)

    @pytest.mark.parametrize("name, B, gammas, kink", derived_catalog(),
                             ids=[entry[0] for entry in derived_catalog()])
    def test_derived_family_matches_a_central_difference(self, name, B, gammas, kink):
        # The derivative each derived family declares from its inner one, against the
        # resolvent it evaluates, away from the inner family's kinks.
        rng = np.random.default_rng(47)
        n, h = B.space.dim, 1e-6
        for gamma in gammas:
            tested = 0
            while tested < 10:
                y = 2.0 * rng.standard_normal(n)
                if kink(gamma, y) < 1e-3:
                    continue
                columns = [(B._evaluator(gamma, y + h * e) - B._evaluator(gamma, y - h * e))
                           / (2.0 * h) for e in np.eye(n)]
                assert np.max(np.abs(dense(B, gamma, y) - np.array(columns).T)) <= 1e-7, (gamma, y)
                tested += 1

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
        P, eye = line.projector.matrix, np.eye(3)
        for gamma in (0.5, 1.0, 2.0):
            inv_lin = np.linalg.inv(eye + gamma * M_lin)
            inv_q = np.linalg.inv(eye + gamma * Q)
            cases = [
                (zero_operator(W3), eye, 0.0),
                (scaled_identity(W3, 1.7), eye / (1.0 + gamma * 1.7), 0.0),
                (linear_monotone(W3, M_lin), inv_lin, 0.0),
                (normal_cone(Singleton(W3, point)), 0.0 * eye, point),
                (normal_cone(line), P, anchor - P @ anchor),
                (subdifferential(indicator(Singleton(W3, point))), 0.0 * eye, point),
                (subdifferential(quadratic(W3, Q, b)), inv_q, gamma * (inv_q @ b)),
                (subdifferential(half_squared_distance(W3, point)), eye / (1.0 + gamma),
                 (gamma / (1.0 + gamma)) * point),
            ]
            if gamma == 1.0:
                cases += [
                    (make_wiener(W3, c, point), (1.0 - c) * eye, point),
                    # y - P_C(y) + p for the forward maps P_{point} and P_line
                    (make_wiener(W3, Singleton(W3, anchor), point), eye, point - anchor),
                    (make_wiener(W3, line, point), eye - P, point - (anchor - P @ anchor)),
                ]
            for B, M, offset in cases:
                origin = W3.zeros()
                assert B.constant_derivative, B.kind
                D = dense(B, gamma, rng.standard_normal(3))
                assert np.allclose(D, M, rtol=1e-14, atol=1e-15), B.kind
                assert np.allclose(B._evaluator(gamma, origin), offset, rtol=1e-14,
                                   atol=1e-15), B.kind
