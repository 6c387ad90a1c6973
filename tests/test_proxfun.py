"""Prox catalog, Moreau calculus, proximal compositions and values."""

import numpy as np
import pytest

from rescomp.errors import (
    CapabilityError,
    ContractionConditionError,
    DimensionMismatchError,
    ScaleRestrictionError,
    ValidationError,
)
from rescomp.hilbert import LinearMap, Space, identity_map, stack
from rescomp.proxfun import (
    ProxFunction,
    conjugate_prox,
    half_squared_distance,
    indicator,
    moreau_envelope,
    one_norm,
    proximal_composition_prox,
    proximal_composition_value,
    proximal_cocomposition_prox,
    proximal_mixture_prox,
    quadratic,
    separable,
)
from rescomp.operators import make_wiener, subdifferential
from rescomp.properties import (
    _random_map,
    _random_prox_function,
    _random_space,
    suite_argmin_composition,
    suite_argmin_transport,
    suite_cocomposition_gradient,
    suite_envelope_sum,
    suite_moreau_decomposition,
    suite_prox_firm,
)
from rescomp.sets import AffineSubspace, Ball, Box, Halfspace, Singleton

R1 = Space(1)
R2 = Space(2)


class TestProxCatalog:
    def test_soft_threshold(self):
        g = one_norm(R1)
        assert g.prox(1.0, [3.0]) == pytest.approx([2.0])

    def test_indicator_projects(self):
        g = indicator(Box(R1, [0.0], [1.0]))
        for gamma in (0.5, 1.0, 7.0):
            assert g.prox(gamma, [-2.0]) == pytest.approx([0.0])

    def test_half_squared_distance(self):
        g = half_squared_distance(R1, [5.0])
        assert g.prox(1.0, [1.0]) == pytest.approx([3.0])

    def test_weighted_soft_threshold(self):
        s = Space(2, [2.0, 0.5])
        g = one_norm(s)
        # thresholds are gamma / w_i = (0.5, 2.0)
        assert g.prox(1.0, [1.0, 1.0]) == pytest.approx([0.5, 0.0])

    def test_quadratic_solve(self):
        Q = np.diag([1.0, 3.0])
        g = quadratic(R2, Q, [1.0, 0.0])
        # (I + Q) p = x + b
        assert g.prox(1.0, [3.0, 8.0]) == pytest.approx([2.0, 2.0])

    def test_quadratic_matches_dense_solve_at_alternating_scales(self):
        # Q = W^-1 S with S symmetric PSD is self-adjoint PSD in the metric W.
        rng = np.random.default_rng(6)
        w = np.array([0.25, 1.0, 3.0])
        s = Space(3, w)
        A = rng.standard_normal((3, 3))
        Q = (A @ A.T) / w[:, None]
        b = rng.standard_normal(3)
        g = quadratic(s, Q, b)
        for gamma in (0.5, 2.0, 0.5, 2.0):
            x = rng.standard_normal(3)
            want = np.linalg.solve(np.eye(3) + gamma * Q, x + gamma * b)
            got = g.prox(gamma, x)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_quadratic_validation(self):
        with pytest.raises(ValidationError):
            quadratic(R2, np.array([[0.0, 1.0], [-1.0, 0.0]]))  # skew, not self-adjoint
        with pytest.raises(ValidationError):
            quadratic(R2, -np.eye(2))

    def test_prox_needs_positive_gamma(self):
        with pytest.raises(ValidationError):
            one_norm(R1).prox(0.0, [1.0])

    def test_prox_optimality(self):
        rng = np.random.default_rng(0)
        s = Space(3, [0.5, 1.0, 2.0])
        funcs = [
            one_norm(s),
            quadratic(s, np.eye(3) * 0.7),
            half_squared_distance(s, s.random(rng)),
            indicator(Ball(s, s.random(rng), 1.0)),
        ]
        for g in funcs:
            for _ in range(25):
                x, z = s.random(rng), s.random(rng)
                gamma = rng.uniform(0.2, 4.0)
                if g.tag.startswith("indicator"):
                    z = g.prox(1.0, z)  # compare against feasible competitors
                p = g.prox(gamma, x)
                lhs = g.value(p) + s.norm(x - p) ** 2 / (2 * gamma)
                rhs = g.value(z) + s.norm(x - z) ** 2 / (2 * gamma)
                assert lhs <= rhs + 1e-10

    def test_minimizers(self):
        assert one_norm(R2).minimizer() == pytest.approx([0.0, 0.0])
        assert half_squared_distance(R1, [2.0]).minimizer() == pytest.approx([2.0])
        g = quadratic(R2, np.eye(2), [1.0, -1.0])
        assert g.minimizer() == pytest.approx([1.0, -1.0])
        with pytest.raises(CapabilityError):
            quadratic(R2, np.zeros((2, 2))).minimizer()


W3 = Space(3, [0.5, 1.0, 2.0])


def affine_prox_catalog():
    """Every prox constructor whose prox is affine, on a weighted space."""
    rng = np.random.default_rng(23)
    R = rng.standard_normal((3, 3))
    return [
        indicator(Singleton(W3, rng.standard_normal(3))),
        indicator(AffineSubspace(W3, rng.standard_normal(3), [rng.standard_normal(3)])),
        quadratic(W3, (R @ R.T) / W3.weights[:, None], rng.standard_normal(3)),
        half_squared_distance(W3, rng.standard_normal(3)),
    ]


class TestAffineProx:
    """An affine prox is ``prox_{gamma g}(x) = D x + prox_{gamma g}(0)``, with ``D`` the
    constant derivative that the subdifferential declares."""

    @pytest.mark.parametrize("g", affine_prox_catalog(), ids=lambda g: g.tag)
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_affine_form_matches_prox(self, g, gamma):
        rng = np.random.default_rng(8)
        origin = W3.zeros()
        D = g.subdifferential.derivative(gamma, origin, np.eye(3)) + np.eye(3)
        M, b = D, g._prox(gamma, origin)
        for _ in range(10):
            x = 3.0 * rng.standard_normal(3)
            want = g._prox(gamma, x)
            assert np.max(np.abs(M @ x + b - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("g", affine_prox_catalog(), ids=lambda g: g.tag)
    def test_subdifferential_inherits_the_form(self, g):
        fam = subdifferential(g)
        assert fam is g.subdifferential and fam._evaluator is g._prox
        assert fam.constant_derivative and fam.derivative is not None

    def test_nonlinear_functions_declare_no_affine_form_and_derived_ones_inherit(self):
        nonlinear = [
            one_norm(W3),
            indicator(Box(W3, -np.ones(3), np.ones(3))),
            indicator(Ball(W3, np.zeros(3), 1.0)),
            indicator(Halfspace(W3, np.ones(3), 0.5)),
        ]
        for g in nonlinear:
            assert not g.subdifferential.constant_derivative, g.tag
        # A conjugate or a separable sum declares a derivative, constant exactly when its
        # members' are.
        affine = half_squared_distance(W3, np.ones(3))
        derived = [(affine.conjugate(), True), (one_norm(W3).conjugate(), False),
                   (separable([affine, affine], [0.5, 0.5]), True),
                   (separable([affine, one_norm(W3)], [0.5, 0.5]), False)]
        for g, constant in derived:
            assert g.subdifferential.derivative is not None, g.tag
            assert g.subdifferential.constant_derivative == constant, g.tag


class TestSubdifferentialIsTheFamily:
    """A function carries one family, that of its subdifferential; the
    conjugate, separable and indicator constructions are the operator side's."""

    def test_subdifferential_is_one_object(self):
        for g in affine_prox_catalog() + [one_norm(W3), one_norm(W3).conjugate()]:
            assert subdifferential(g) is subdifferential(g) is g.subdifferential, g.tag

    def test_indicator_family_carries_its_set(self):
        for cset in (Singleton(W3, np.ones(3)), Box(W3, -np.ones(3), np.ones(3)),
                     Ball(W3, np.zeros(3), 1.0), Halfspace(W3, np.ones(3), 0.5)):
            assert subdifferential(indicator(cset)).cset is cset

    def test_conjugates_declare_the_form_of_their_function(self):
        for g in affine_prox_catalog() + [one_norm(W3)]:
            conjugate = g.conjugate().subdifferential
            assert conjugate.derivative is not None, g.tag
            assert conjugate.constant_derivative == g.subdifferential.constant_derivative, g.tag

    def test_separable_prox_is_the_written_out_blockwise_prox(self):
        rng = np.random.default_rng(12)
        gs = [one_norm(Space(2, [0.5, 2.0])), half_squared_distance(Space(1, [3.0]), [1.5]),
              indicator(Ball(W3, np.ones(3), 0.4))]
        g = separable(gs, [0.3, 1.7, 0.9])
        for gamma in (0.5, 1.0, 2.0):
            x = g.space.random(rng)
            expected = np.empty_like(x)
            for gk, sl in zip(gs, (slice(0, 2), slice(2, 3), slice(3, 6))):
                expected[sl] = gk._prox(gamma, x[sl])
            assert np.array_equal(g.prox(gamma, x), expected)


class TestConjugate:
    def test_box_conjugate_is_soft_threshold_complement(self):
        g = indicator(Box(R1, [-1.0], [1.0]))
        assert conjugate_prox(g, 1.0, [3.0]) == pytest.approx([2.0])

    def test_self_conjugate_quadratic(self):
        g = quadratic(R2, np.eye(2))
        x = np.array([3.0, -4.0])
        assert conjugate_prox(g, 1.0, x) == pytest.approx(x / 2.0)

    def test_abs_conjugate_projects_on_interval(self):
        g = one_norm(R1)
        assert conjugate_prox(g, 2.0, [0.5]) == pytest.approx([0.5])

    def test_conjugate_prox_is_the_written_out_moreau_identity(self):
        # prox_{gamma g*}(x) = x - gamma prox_{g/gamma}(x/gamma), bit for bit
        s = Space(3, [0.5, 1.0, 2.0])
        catalog = [
            indicator(Box(s, [-1.0, -2.0, 0.0], [1.0, 0.5, 3.0])),
            indicator(Ball(s, [0.1, 0.2, 0.3], 0.7)),
            one_norm(s),
            quadratic(s, np.diag([1.0, 0.5, 2.0]), [0.3, -0.2, 1.0]),
            half_squared_distance(s, [1.0, 2.0, -1.0]),
        ]
        rng = np.random.default_rng(6)
        for g in catalog:
            for gamma in (0.5, 1.0, 2.0):
                x = s.random(rng)
                expected = x - gamma * g.prox(1.0 / gamma, x / gamma)
                assert np.array_equal(conjugate_prox(g, gamma, x), expected), g.tag

    def test_decomposition_suite(self):
        res = suite_moreau_decomposition(np.random.default_rng([17, 0]), 500)
        assert res.passed, res.line()

    def test_indicator_conjugate_value_is_the_support_function(self):
        s = Space(3, [0.5, 1.0, 2.0])
        y = np.array([0.3, -1.2, 0.8])
        for cset in (Singleton(s, [1.0, 2.0, -1.0]), Ball(s, [0.1, 0.2, 0.3], 0.7),
                     Box(s, [-1.0, -np.inf, 0.0], [1.0, 0.5, np.inf])):
            assert indicator(cset).conjugate().value(y) == cset.support(y), cset.tag
        assert not indicator(Halfspace(s, [1.0, 0.0, 0.0], 1.0)).conjugate().has_value


class TestEnvelope:
    def test_huber_value(self):
        assert moreau_envelope(one_norm(R1), 1.0, [3.0]) == pytest.approx(2.5)

    def test_a_scale_outside_the_family_is_refused(self):
        # A family pinned to scale 1 answers the envelope and the inner
        # prox_{g/2} of the composition value as it answers prox: it refuses.
        g = ProxFunction("pinned", make_wiener(R1, 0.5, [1.0]), value=lambda x: float(x[0] ** 2))
        assert moreau_envelope(g, 1.0, [1.0]) == pytest.approx(1.5 ** 2 + 0.5 ** 2 / 2.0)
        for refused in (lambda: g.prox(2.0, [1.0]), lambda: moreau_envelope(g, 2.0, [1.0]),
                        lambda: proximal_composition_value(identity_map(R1), g, [1.0])):
            with pytest.raises(ScaleRestrictionError, match="only supports scale"):
                refused()

    def test_indicator_gives_squared_distance(self):
        g = indicator(Box(R1, [0.0], [1.0]))
        assert moreau_envelope(g, 2.0, [3.0]) == pytest.approx(4.0 / 4.0)

    def test_value_at_minimizer(self):
        g = quadratic(R2, np.diag([2.0, 1.0]), [2.0, 3.0])
        m = g.minimizer()
        assert moreau_envelope(g, 1.0, m) == pytest.approx(g.value(m), abs=1e-12)

    def test_gradient_matches_yosida(self):
        rng = np.random.default_rng(1)
        s = Space(2)
        for g in (one_norm(s), half_squared_distance(s, [1.0, -1.0])):
            B = subdifferential(g)
            x = s.random(rng)
            gamma = 0.8
            yos = B.yosida(gamma, x)
            for i in range(2):
                h = 1e-6
                e = np.zeros(2)
                e[i] = h
                fd = (
                    moreau_envelope(g, gamma, x + e) - moreau_envelope(g, gamma, x - e)
                ) / (2 * h)
                # metric gradient coordinates: w_i * grad_i = d/dx_i
                assert fd == pytest.approx(s.weights[i] * yos[i], abs=1e-5)

    def test_missing_value_oracle(self):
        bare = separable([indicator(Box(R1, [0.0], [1.0]))], [1.0]).conjugate()
        with pytest.raises(CapabilityError):
            moreau_envelope(bare, 1.0, [0.3])

    def test_envelope_sum_suite(self):
        res = suite_envelope_sum(np.random.default_rng([17, 1]), 500)
        assert res.passed, res.line()


class TestProximalCompositionProx:
    def test_identity_map(self):
        g = one_norm(R2)
        x = np.array([3.0, -0.5])
        assert proximal_composition_prox(identity_map(R2), g, x) == pytest.approx(
            g.prox(1.0, x)
        )

    def test_stacking_isometry_gives_prox_average(self):
        g1 = half_squared_distance(R1, [0.0])
        g2 = half_squared_distance(R1, [2.0])
        L = stack([identity_map(R1)] * 2, [0.5, 0.5])
        g = separable([g1, g2], [0.5, 0.5])
        x = np.array([1.4])
        expected = 0.5 * g1.prox(1.0, x) + 0.5 * g2.prox(1.0, x)
        assert proximal_composition_prox(L, g, x) == pytest.approx(expected)

    def test_halving_map_with_singleton(self):
        L = LinearMap(R1, R1, [[0.5]])
        g = indicator(Singleton(R1, [0.0]))
        assert proximal_composition_prox(L, g, [9.0]) == pytest.approx([0.0])

    def test_zero_map_rejected(self):
        L = LinearMap(R1, R1, [[0.0]])
        with pytest.raises(ContractionConditionError):
            proximal_composition_prox(L, one_norm(R1), [1.0])


class TestProximalCocompositionProx:
    def test_identity_with_singleton(self):
        g = indicator(Singleton(R2, [1.0, 2.0]))
        assert proximal_cocomposition_prox(identity_map(R2), g, [9.0, 9.0]) == pytest.approx(
            [1.0, 2.0]
        )

    def test_isometry_matches_composition(self):
        L = stack([identity_map(R1)] * 2, [0.3, 0.7])
        g = separable([one_norm(R1), half_squared_distance(R1, [1.0])], [0.3, 0.7])
        rng = np.random.default_rng(2)
        for _ in range(15):
            x = R1.random(rng, scale=2.0)
            assert proximal_cocomposition_prox(L, g, x) == pytest.approx(
                proximal_composition_prox(L, g, x), abs=1e-13
            )

    def test_axis_projection(self):
        L = LinearMap(R2, R2, [[1.0, 0.0], [0.0, 0.0]])
        g = indicator(Singleton(R2, [0.0, 0.0]))
        assert proximal_cocomposition_prox(L, g, [5.0, -3.0]) == pytest.approx([0.0, -3.0])

    def test_gradient_identity_suite(self):
        res = suite_cocomposition_gradient(np.random.default_rng([17, 2]), 500)
        assert res.passed, res.line()

    def test_argmin_transport_suite(self):
        res = suite_argmin_transport(np.random.default_rng([17, 3]), 300)
        assert res.passed, res.line()


class TestProximalMixtureProx:
    def test_equal_functions_identity_maps(self):
        g = one_norm(R2)
        x = np.array([2.0, -3.0])
        out = proximal_mixture_prox([g, g], [identity_map(R2)] * 2, [0.5, 0.5], x)
        assert out == pytest.approx(g.prox(1.0, x))

    def test_singleton_mean(self):
        g1 = indicator(Singleton(R1, [1.0]))
        g2 = indicator(Singleton(R1, [3.0]))
        out = proximal_mixture_prox([g1, g2], [identity_map(R1)] * 2, [0.5, 0.5], [7.0])
        assert out == pytest.approx([2.0])

    def test_quadratic_average(self):
        a, b = -1.0, 2.0
        g1 = half_squared_distance(R1, [a])
        g2 = half_squared_distance(R1, [b])
        x = 0.8
        out = proximal_mixture_prox([g1, g2], [identity_map(R1)] * 2, [0.5, 0.5], [x])
        assert out == pytest.approx([0.5 * (x + a) / 2 + 0.5 * (x + b) / 2])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            proximal_mixture_prox(
                [one_norm(R1)] * 2, [identity_map(R1)] * 2, [-1.0, 1.5], [3.0]
            )

    def test_norm_condition_gate(self):
        with pytest.raises(ContractionConditionError):
            proximal_mixture_prox(
                [one_norm(R1)] * 2, [identity_map(R1)] * 2, [1.0, 1.0], [1.0]
            )


class TestProxCompositionFormulas:
    """The prox compositions are resolvents of composed subdifferentials;
    the closed forms they replaced are written out here as references."""

    def test_match_written_out_formulas(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            H = _random_space(rng, max_dim=4)
            G = _random_space(rng, max_dim=4)
            L = _random_map(rng, H, G, norm=rng.uniform(0.2, 1.0))
            g = _random_prox_function(rng, G)
            x = H.random(rng)
            y = L.apply(x)
            # unchanged arithmetic: equal to the last bit
            assert np.array_equal(proximal_composition_prox(L, g, x),
                                  L.adjoint_apply(g.prox(1.0, y)))
            # the cocomposition's step: folded once when the prox is affine
            fam = g.subdifferential
            if fam.constant_derivative:
                fold = L.adjoint_matrix @ fam.derivative(1.0, G.zeros(), L.matrix)
                expected = x + (fold @ x + L.adjoint_apply(g.prox(1.0, G.zeros())))
            else:
                expected = x + L.adjoint_apply(g.prox(1.0, y) - y)
            assert np.array_equal(proximal_cocomposition_prox(L, g, x), expected)
            # the mixture runs the stacked map: equal up to rounding
            p = int(rng.integers(1, 4))
            spaces = [_random_space(rng, max_dim=3) for _ in range(p)]
            Ls = [_random_map(rng, H, Gk, norm=rng.uniform(0.3, 1.0)) for Gk in spaces]
            gs = [_random_prox_function(rng, Gk) for Gk in spaces]
            w = rng.uniform(0.2, 1.0, size=p)
            w = list(w / sum(wk * Lk.op_norm() ** 2 for wk, Lk in zip(w, Ls)))
            blockwise = sum(wk * Lk.adjoint_apply(gk.prox(1.0, Lk.apply(x)))
                            for gk, Lk, wk in zip(gs, Ls, w))
            got = proximal_mixture_prox(gs, Ls, w, x)
            assert H.norm(got - blockwise) <= 1e-13 * (1.0 + H.norm(blockwise))

    def test_codomain_mismatch(self):
        L = LinearMap(R1, R2, [[0.5], [0.5]])
        g = one_norm(R1)
        with pytest.raises(DimensionMismatchError):
            proximal_composition_prox(L, g, [1.0])
        with pytest.raises(DimensionMismatchError):
            proximal_cocomposition_prox(L, g, [1.0])
        with pytest.raises(DimensionMismatchError):
            proximal_mixture_prox([g], [L], [1.0], [1.0])


class TestProximalCompositionValue:
    def test_identity_map_gives_plain_value(self):
        g = one_norm(R1)
        assert proximal_composition_value(identity_map(R1), g, [3.0]) == pytest.approx(
            3.0, abs=1e-8
        )
        q = quadratic(R2, np.diag([1.0, 2.0]), [0.5, 0.0])
        x = np.array([1.0, -1.0])
        assert proximal_composition_value(identity_map(R2), q, x) == pytest.approx(
            q.value(x), abs=1e-8
        )

    def test_prox_average_of_quadratics(self):
        # averaging (1/2)(y)^2 and (1/2)(y-2)^2 with equal weights: the
        # composed value at x=1 is 1/4 (minimize over y1 + y2 = 2), inside
        # the conjugate/value sandwich [0, 1/2]
        g1 = half_squared_distance(R1, [0.0])
        g2 = half_squared_distance(R1, [2.0])
        L = stack([identity_map(R1)] * 2, [0.5, 0.5])
        g = separable([g1, g2], [0.5, 0.5])
        val = proximal_composition_value(L, g, [1.0], inner_tol=1e-12)
        assert val == pytest.approx(0.25, abs=1e-7)
        lower, upper = 0.0, 0.25 * (1.0 - 0.0) ** 2 + 0.25 * (1.0 - 2.0) ** 2
        assert lower - 1e-7 <= val <= upper + 1e-7

    def test_projector_case_matches_grid_oracle(self):
        # L = projection onto the diagonal of R^2; feasible set of the inner
        # problem is x + span{(1,-1)}, swept by a 1-D brute-force grid
        P = np.array([[0.5, 0.5], [0.5, 0.5]])
        L = LinearMap(R2, R2, P)
        g = half_squared_distance(R2, [2.0, 0.0])
        x = np.array([1.0, 1.0])
        val = proximal_composition_value(L, g, x, inner_tol=1e-12)
        v = np.array([1.0, -1.0]) / np.sqrt(2.0)
        ts = np.arange(-6.0, 6.0, 1e-3)
        ys = x[None, :] + ts[:, None] * v[None, :]
        objs = [g.value(y) + 0.5 * R2.norm(y) ** 2 - 0.5 * R2.norm(x) ** 2 for y in ys]
        assert val == pytest.approx(0.5, abs=1e-7)
        assert val == pytest.approx(min(objs), abs=1e-5)

    def test_point_outside_subspace_is_infeasible(self):
        P = np.array([[0.5, 0.5], [0.5, 0.5]])
        L = LinearMap(R2, R2, P)
        g = half_squared_distance(R2, [2.0, 0.0])
        assert proximal_composition_value(L, g, [1.0, 0.0]) == np.inf

    def test_unreachable_point_is_infeasible(self):
        L = LinearMap(R2, R1, [[0.9, 0.0]])
        g = one_norm(R1)
        assert proximal_composition_value(L, g, [0.0, 1.0]) == np.inf

    def test_needs_value_oracle(self):
        bare = one_norm(R1).conjugate().conjugate()  # has a value again
        assert bare.has_value
        no_value = separable([indicator(Box(R1, [0.0], [1.0]))], [1.0]).conjugate()
        with pytest.raises(CapabilityError):
            proximal_composition_value(identity_map(R1), no_value, [0.5])

    def test_argmin_composition_suite(self):
        res = suite_argmin_composition(np.random.default_rng([17, 4]), 200)
        assert res.passed, res.line()

    def test_prox_firm_suite(self):
        res = suite_prox_firm(np.random.default_rng([17, 5]), 400)
        assert res.passed, res.line()


class TestSettableValues:
    """Parameters that no caller set are gone; the gate bypass stays on the constructions."""

    @pytest.mark.parametrize("call", [
        lambda L, g, x: proximal_composition_prox(L, g, x, unsafe=True),
        lambda L, g, x: proximal_cocomposition_prox(L, g, x, unsafe=True),
        lambda L, g, x: proximal_mixture_prox([g], [L], [1.0], x, unsafe=True),
        lambda L, g, x: proximal_composition_value(L, g, x, max_iterations=10),
        lambda L, g, x: proximal_composition_value(L, g, x, unsafe=True),
    ], ids=["composition", "cocomposition", "mixture", "value-max-iterations", "value-unsafe"])
    def test_removed_parameters(self, call):
        with pytest.raises(TypeError, match="unexpected keyword"):
            call(identity_map(R1), one_norm(R1), [1.0])
