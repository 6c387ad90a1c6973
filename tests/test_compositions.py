"""Resolvent compositions, cocompositions, mixtures, chains, moduli."""

import numpy as np
import pytest

from rescomp.compositions import (
    compose_chain,
    resolvent_average,
    resolvent_composition,
    resolvent_cocomposition,
    resolvent_mixture,
    strong_monotonicity_modulus,
)
from rescomp.errors import (
    ContractionConditionError,
    DimensionMismatchError,
    ScaleRestrictionError,
    ValidationError,
)
from rescomp.hilbert import LinearMap, Space, identity_map, product_space, stack
from rescomp.operators import (
    GraphPoint,
    normal_cone,
    product_family,
    scaled_identity,
    subdifferential,
    zero_operator,
)
from rescomp.proxfun import half_squared_distance
from rescomp.properties import (
    suite_chaining,
    suite_composed_firm,
    suite_composed_monotone,
    suite_inverse_duality,
    suite_isometry_collapse,
    suite_resolvent_average,
    suite_resolvent_rule,
    suite_strong_monotonicity,
    suite_zero_transport,
)
from rescomp.sets import Ball, Singleton

R1 = Space(1)


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


class TestComposition:
    def test_scalar_halving_map(self):
        # L = Id/2 and B = Id compose to the operator 7 Id, resolvent x/8
        L = LinearMap(R1, R1, [[0.5]])
        A = resolvent_composition(L, scaled_identity(R1, 1.0))
        assert A.resolvent(1.0, [8.0]) == pytest.approx([1.0])
        assert A.graph_contains(GraphPoint(np.array([1.0]), np.array([7.0])), 1e-10)
        assert not A.graph_contains(
            GraphPoint(np.array([1.0]), np.array([6.9])), 1e-10
        )

    def test_surjective_isometry_conjugates(self):
        s = Space(2)
        R = rotation(0.7)
        L = LinearMap(s, s, R)
        cset = Ball(s, [1.0, 0.0], 0.5)
        A = resolvent_composition(L, normal_cone(cset))
        g = np.random.default_rng(0)
        for _ in range(20):
            x = s.random(g)
            expected = R.T @ cset.project(R @ x)
            assert A.resolvent(1.0, x) == pytest.approx(expected, abs=1e-12)

    def test_identity_map_returns_operator_unchanged(self):
        s = Space(3, [0.5, 1.0, 2.0])
        B = subdifferential(half_squared_distance(s, [1.0, 0.0, -1.0]))
        A = resolvent_composition(identity_map(s), B)
        g = np.random.default_rng(1)
        for _ in range(10):
            x = s.random(g)
            assert A.resolvent(1.0, x) == pytest.approx(B.resolvent(1.0, x))

    def test_norm_gate(self):
        L = LinearMap(R1, R1, [[2.0]])
        with pytest.raises(ContractionConditionError):
            resolvent_composition(L, scaled_identity(R1, 1.0))

    def test_space_mismatch(self):
        L = LinearMap(R1, Space(2), [[1.0], [0.0]])
        with pytest.raises(DimensionMismatchError):
            resolvent_composition(L, scaled_identity(R1, 1.0))

    def test_zero_map_rejected(self):
        L = LinearMap(R1, R1, [[0.0]])
        with pytest.raises(ContractionConditionError):
            resolvent_composition(L, scaled_identity(R1, 1.0))

    def test_frozen_scale(self):
        A = resolvent_composition(identity_map(R1), scaled_identity(R1, 1.0), gamma=0.5)
        with pytest.raises(ScaleRestrictionError):
            A.resolvent(0.5, [1.0])

    def test_matches_definition_route(self):
        res = suite_resolvent_rule(np.random.default_rng([13, 0]), 400)
        assert res.passed, res.line()


class TestCocomposition:
    def test_axis_projection_with_singleton_cone(self):
        s = Space(2)
        L = LinearMap(s, s, [[1.0, 0.0], [0.0, 0.0]])
        B = normal_cone(Singleton(s, [0.0, 0.0]))
        A = resolvent_cocomposition(L, B)
        assert A.resolvent(1.0, [3.0, -2.0]) == pytest.approx([0.0, -2.0])

    def test_isometry_collapse(self):
        H = Space(2)
        L = stack([identity_map(H)] * 2, [0.5, 0.5])
        assert L.is_isometry()
        B = product_family(
            [scaled_identity(H, 2.0), normal_cone(Ball(H, [0.0, 1.0], 1.0))], [0.5, 0.5]
        )
        comp = resolvent_composition(L, B, gamma=1.3)
        coco = resolvent_cocomposition(L, B, gamma=1.3)
        g = np.random.default_rng(2)
        for _ in range(20):
            x = H.random(g)
            assert comp.resolvent(1.0, x) == pytest.approx(coco.resolvent(1.0, x), abs=1e-13)

    def test_zero_map_rejected(self):
        L = LinearMap(R1, R1, [[0.0]])
        with pytest.raises(ContractionConditionError):
            resolvent_cocomposition(L, scaled_identity(R1, 1.0))

    def test_zero_operator_gives_identity_resolvent(self):
        s = Space(2, [2.0, 0.5])
        L = LinearMap(s, s, 0.8 * rotation(0.3))
        A = resolvent_cocomposition(L, zero_operator(s))
        x = np.array([1.0, -4.0])
        assert A.resolvent(1.0, x) == pytest.approx(x)

    def test_collapse_suite(self):
        res = suite_isometry_collapse(np.random.default_rng([13, 1]), 300)
        assert res.passed, res.line()

    def test_zero_transport_suite(self):
        res = suite_zero_transport(np.random.default_rng([13, 2]), 300)
        assert res.passed, res.line()

    def test_inverse_duality_suite(self):
        res = suite_inverse_duality(np.random.default_rng([13, 3]), 400)
        assert res.passed, res.line()


class TestMixture:
    def test_two_operator_average_is_identity_operator(self):
        B1 = zero_operator(R1)
        B2 = normal_cone(Singleton(R1, [0.0]))
        A = resolvent_mixture([B1, B2], [identity_map(R1)] * 2, [0.5, 0.5])
        # the mixture resolvent is x/2, so the operator itself is Id
        assert A.resolvent(1.0, [4.0]) == pytest.approx([2.0])
        assert A.graph_contains(GraphPoint(np.array([1.5]), np.array([1.5])), 1e-12)

    def test_single_block_reduces_to_composition(self):
        H, G = Space(2), Space(2)
        L = LinearMap(H, G, 0.7 * rotation(1.1))
        B = normal_cone(Ball(G, [0.0, 0.0], 1.0))
        mix = resolvent_mixture([B], [L], [1.0], gamma=0.8)
        comp = resolvent_composition(L, B, gamma=0.8)
        g = np.random.default_rng(3)
        for _ in range(10):
            x = H.random(g)
            assert mix.resolvent(1.0, x) == pytest.approx(comp.resolvent(1.0, x), abs=1e-13)

    def test_multivariate_blockwise_oracle(self):
        # two domain factors, one codomain block: the stacked construction
        # must reproduce the blockwise resolvent formula
        H1, H2 = Space(1), Space(2)
        H = product_space([H1, H2])
        G1 = Space(2)
        omega = 0.7
        L11 = np.array([[0.4], [0.1]])
        L12 = np.array([[0.3, 0.0], [0.1, 0.2]])
        full = LinearMap(H, product_space([G1], [omega]), np.hstack([L11, L12]))
        B1 = subdifferential(half_squared_distance(G1, [1.0, -1.0]))
        gamma = 1.7
        A = resolvent_composition(full, product_family([B1], [omega]), gamma=gamma)
        g = np.random.default_rng(4)
        for _ in range(20):
            x = H.random(g)
            y = L11 @ x[:1] + L12 @ x[1:]
            jy = B1.resolvent(gamma, y)
            expected = np.concatenate([omega * L11.T @ jy, omega * L12.T @ jy])
            assert A.resolvent(1.0, x) == pytest.approx(expected, abs=1e-13)

    def test_mixture_is_the_composition_with_the_stacked_map(self):
        # the formula the mixture used to write out, unchanged to the last bit
        rng = np.random.default_rng(5)
        H = Space(3, [0.5, 1.0, 2.0])
        spaces = [Space(2, [0.7, 1.3]), Space(1, [2.5])]
        Ls = [LinearMap(H, G, 0.3 * rng.standard_normal((G.dim, 3))) for G in spaces]
        Bs = [normal_cone(Ball(spaces[0], [0.2, -0.1], 0.3)),
              subdifferential(half_squared_distance(spaces[1], [1.0]))]
        w = [0.6, 0.8]
        gamma = 1.3
        mix = resolvent_mixture(Bs, Ls, w, gamma=gamma)
        assert mix.kind == "composed(composition)"
        stacked, prod = stack(Ls, w), product_family(Bs, w)
        for _ in range(10):
            x = H.random(rng)
            expected = stacked.adjoint_matrix @ prod._evaluator(gamma, stacked.matrix @ x)
            assert np.array_equal(mix.resolvent(1.0, x), expected)

    def test_mixture_takes_one_norm_per_non_identity_block(self, svd_calls):
        # The weighted-sum gate implies the stacked map's, which takes no SVD of its own.
        rng = np.random.default_rng(6)
        H = Space(3, [0.5, 1.0, 2.0])
        spaces = [Space(2, [0.7, 1.3]), Space(1, [2.5]), H]
        Ls = [LinearMap(H, G, 0.3 * rng.standard_normal((G.dim, 3))) for G in spaces[:2]]
        Ls.append(identity_map(H))
        Bs = [zero_operator(G) for G in spaces]
        resolvent_mixture(Bs, Ls, [0.3, 0.3, 0.3])
        # The one-row block's norm is its metric length: the gate cached it with no SVD.
        assert svd_calls == [(2, 3)] and "norm~" in repr(Ls[1])
        scaled = np.sqrt(spaces[1].weights)[:, None] * Ls[1].matrix / np.sqrt(H.weights)
        exact = np.linalg.svd(scaled, compute_uv=False)[0]
        assert abs(Ls[1].op_norm() - exact) <= 4 * np.finfo(float).eps * exact
        zeros = [LinearMap(H, G, np.zeros((G.dim, 3))) for G in spaces[:2]]
        with pytest.raises(ContractionConditionError, match="nonzero"):
            resolvent_mixture(Bs[:2], zeros, [0.5, 0.5])
        with pytest.raises(ContractionConditionError, match="sum_k w_k"):
            resolvent_mixture(Bs, Ls, [0.3, 0.3, 1.0])

    def test_weight_norm_gate(self):
        with pytest.raises(ContractionConditionError):
            resolvent_mixture(
                [zero_operator(R1)] * 2, [identity_map(R1)] * 2, [1.0, 1.0]
            )

    def test_average_matches_resolvent_sum(self):
        res = suite_resolvent_average(np.random.default_rng([13, 4]), 300)
        assert res.passed, res.line()

    def test_average_requires_operators(self):
        with pytest.raises(ValidationError):
            resolvent_average([], [])


class TestChain:
    def test_identity_chain_is_original(self):
        s = Space(2, [1.0, 3.0])
        B = subdifferential(half_squared_distance(s, [0.5, 0.5]))
        A = compose_chain(identity_map(s), identity_map(s), B)
        g = np.random.default_rng(5)
        for _ in range(10):
            x = s.random(g)
            assert A.resolvent(1.0, x) == pytest.approx(B.resolvent(1.0, x))

    def test_scalar_chain_closed_form(self):
        Q = LinearMap(R1, R1, [[0.5]])
        L = LinearMap(R1, R1, [[0.5]])
        A = compose_chain(Q, L, scaled_identity(R1, 1.0))
        assert A.resolvent(1.0, [32.0]) == pytest.approx([1.0])

    def test_chain_suite(self):
        res = suite_chaining(np.random.default_rng([13, 5]), 300)
        assert res.passed, res.line()


class TestComposedGraphs:
    def test_identity_composition_reduces_to_plain_graph(self):
        s = Space(2)
        B = normal_cone(Ball(s, [0.0, 0.0], 1.0))
        A = resolvent_composition(identity_map(s), B)
        g = np.random.default_rng(6)
        for pt in B.sample_graph(15, seed=8):
            assert A.graph_contains(pt, 1e-10) == B.graph_contains(pt, 1e-10)

    def test_sampled_pairs_belong(self):
        g = np.random.default_rng(7)
        H, G = Space(2), Space(3)
        L = LinearMap(H, G, g.standard_normal((3, 2)))
        L = LinearMap(H, G, 0.9 * L.matrix / L.op_norm())
        for B in (zero_operator(G), scaled_identity(G, 1.5)):
            for variant in (resolvent_composition, resolvent_cocomposition):
                A = variant(L, B, gamma=0.7)
                for pt in A.sample_graph(10, seed=int(g.integers(0, 100))):
                    assert A.graph_contains(pt, 1e-10)

    def test_graph_residual_matches_the_composed_formulas(self):
        # With z = x + xstar: ||x - L*(J_{gamma B}(L z))|| for a composition or
        # a mixture (L stacked, B the product), and for a cocomposition
        # ||L*(L z) - xstar - L*(J_{gamma B}(L z))||.
        g = np.random.default_rng(9)
        H = Space(3, [0.5, 1.0, 2.0])
        G1, G2 = Space(2, [1.5, 0.25]), Space(3, [0.4, 1.0, 3.0])
        L1 = LinearMap(H, G1, g.standard_normal((2, 3)))
        L1 = LinearMap(H, G1, 0.8 * L1.matrix / L1.op_norm())
        L2 = LinearMap(H, G2, g.standard_normal((3, 3)))
        L2 = LinearMap(H, G2, 0.8 * L2.matrix / L2.op_norm())
        B1 = normal_cone(Ball(G1, [0.3, -0.2], 0.5))
        B2 = subdifferential(half_squared_distance(G2, [1.0, 0.0, -1.0]))
        gamma, w = 0.7, [0.6, 0.4]
        cases = [
            (resolvent_composition(L1, B1, gamma), L1, B1, False),
            (resolvent_cocomposition(L1, B1, gamma), L1, B1, True),
            (resolvent_mixture([B1, B2], [L1, L2], w, gamma),
             stack([L1, L2], w), product_family([B1, B2], w), False),
        ]
        for A, L, B, cocomposition in cases:
            for _ in range(20):
                x, xstar = H.random(g), H.random(g)
                z = x + xstar
                inner = L.adjoint_apply(B.resolvent(gamma, L.apply(z)))
                ref = L.adjoint_apply(L.apply(z)) - xstar - inner if cocomposition else x - inner
                residual = A.graph_residual(GraphPoint(x, xstar))
                assert residual == pytest.approx(H.norm(ref), rel=1e-13, abs=0.0), A.kind

    def test_firmness_and_monotonicity_suites(self):
        assert suite_composed_firm(np.random.default_rng([13, 6]), 400).passed
        assert suite_composed_monotone(np.random.default_rng([13, 7]), 400).passed


class TestStrongMonotonicityModulus:
    def test_values(self):
        assert strong_monotonicity_modulus(0.0, 0.5) == pytest.approx(3.0)
        assert strong_monotonicity_modulus(1.0, 1.0) == pytest.approx(1.0)
        assert strong_monotonicity_modulus(3.0, 1.0 / np.sqrt(2.0)) == pytest.approx(7.0)

    def test_no_guarantee_cases(self):
        with pytest.raises(ValidationError):
            strong_monotonicity_modulus(0.0, 1.0)
        with pytest.raises(ValidationError):
            strong_monotonicity_modulus(-0.1, 0.5)
        with pytest.raises(ValidationError):
            strong_monotonicity_modulus(1.0, 0.0)

    def test_graph_inequality_suite(self):
        res = suite_strong_monotonicity(np.random.default_rng([13, 8]), 400)
        assert res.passed, res.line()
