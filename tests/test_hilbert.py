"""Spaces, adjoints, norms, projectors, stacking."""

import warnings

import numpy as np
import pytest

from rescomp.bench import InstanceSpec, generate_instance
from rescomp.errors import ContractionConditionError, DimensionMismatchError, ValidationError
from rescomp.hilbert import (
    RANK_RTOL,
    LinearMap,
    Space,
    SubspaceProjector,
    check_contraction,
    identity_map,
    product_space,
    shifted_inverse,
    stack,
)
from rescomp.properties import (
    _random_space,
    suite_adjoint_identity,
    suite_projector_firm,
    suite_stack_norm,
)


def rng():
    return np.random.default_rng(42)


def clustered_matrix(m, n, top):
    """An m x n matrix (m <= n) with singular values evenly spread over [0.999 top, top]."""
    g = rng()
    u, _ = np.linalg.qr(g.standard_normal((m, m)))
    v, _ = np.linalg.qr(g.standard_normal((n, m)))
    return (u * np.linspace(top, 0.999 * top, m)) @ v.T


class TestSpace:
    def test_euclidean_inner(self):
        s = Space(2)
        assert s.inner([3.0, 4.0], [3.0, 4.0]) == 25.0

    def test_weighted_inner_direct_sum(self):
        s = Space(2, [0.5, 0.5])
        assert s.inner([1.0, 1.0], [1.0, 1.0]) == pytest.approx(1.0, abs=1e-15)

    def test_inner_with_zero(self):
        s = Space(3, [2.0, 0.1, 1.3])
        x = np.array([4.0, -1.0, 0.3])
        assert s.inner(x, np.zeros(3)) == 0.0

    def test_dimension_mismatch(self):
        s = Space(2)
        with pytest.raises(DimensionMismatchError):
            s.inner([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_rejects_bad_weights(self):
        for w in ([1.0, 0.0], [1.0, -1.0], [1.0, np.nan], [np.inf, 1.0], [np.nan, -1.0]):
            with pytest.raises(ValidationError):
                Space(2, w)

    @pytest.mark.parametrize("dim", [True, "3", float("nan")], ids=["bool", "string", "nan"])
    def test_dimension_must_be_a_count(self, dim):
        with pytest.raises(ValidationError, match="space dimension"):
            Space(dim)

    def test_integral_dimensions_read_as_int(self):
        for dim in (3, 3.0, np.int64(3)):
            s = Space(dim)
            assert s.dim == 3 and type(s.dim) is int

    def test_equality_short_circuits_on_identity(self, monkeypatch):
        s, t = Space(3, [1.0, 2.0, 3.0]), Space(3, [1.0, 2.0, 3.0])
        assert s == t and s != Space(3) and s != Space(2, [1.0, 2.0])

        class Unread:
            def tobytes(self):
                raise AssertionError("compared the weights of a space with itself")

        monkeypatch.setattr(s, "weights", Unread())
        assert s == s

    def test_equality_and_hash_agree_to_the_last_bit(self):
        w = rng().uniform(0.3, 3.0, size=4)
        s, t = Space(4, w), Space(4, w.copy())
        assert s == t and hash(s) == hash(t)
        assert product_space([s, t], [0.5, 2.0]) == product_space([t, s], [0.5, 2.0])
        for i in range(4):
            nudged = w.copy()
            nudged[i] = np.nextafter(nudged[i], np.inf)  # one ulp
            assert Space(4, nudged) != s and s != Space(4, nudged)

    def test_rejects_nonfinite_vector(self):
        s = Space(2)
        with pytest.raises(ValidationError):
            s.validate([np.nan, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("n", [1, 3, 1000])
    def test_nonfinite_entry_is_refused_at_every_position(self, bad, n):
        # Beside entries of 1e200 a long vector's vdot overflows by itself;
        # the entrywise test behind it still finds the one bad entry.
        s = Space(n)
        for fill in (0.5, 1e200):
            for i in range(n):
                x = np.full(n, fill)
                x[i] = bad
                with pytest.raises(ValidationError, match="non-finite"):
                    s.validate(x)
                with pytest.raises(ValidationError, match="non-finite"):
                    s.validate_rows([np.full(n, fill), x])

    @pytest.mark.parametrize("copies", [1, 334], ids=["short", "long"])
    def test_huge_and_subnormal_entries_are_accepted(self, copies):
        tiny = np.nextafter(0.0, 1.0)
        for entries in ([1e200, -1e200, 3.0], [tiny, -tiny, 1e-310], [1.7e308] * 3):
            entries = entries * copies
            s, x = Space(len(entries)), np.array(entries)
            assert s.validate(x) is x
            assert np.array_equal(s.validate(entries), x)
            assert np.array_equal(s.validate_rows([x, entries]), [x, x])

    @pytest.mark.parametrize("n", [3, 1000])
    def test_huge_entries_raise_no_warning(self, n):
        # ndarray.dot warns when the sum of squares overflows; np.vdot does not.
        s, x = Space(n), np.full(n, 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert s.validate(x) is x
            assert np.array_equal(s.validate_rows([x]), [x])

    def test_inner_symmetric_positive_definite(self):
        g = rng()
        for _ in range(50):
            dim = int(g.integers(1, 6))
            s = Space(dim, g.uniform(0.2, 3.0, size=dim))
            x, y = g.standard_normal(dim), g.standard_normal(dim)
            assert s.inner(x, y) == pytest.approx(s.inner(y, x), rel=1e-12)
            if np.linalg.norm(x) > 1e-9:
                assert s.inner(x, x) > 0.0


class TestAdjoint:
    def test_weighted_stacking_adjoint(self):
        # H = R^1, G = R^2 with weights (1/2, 1/2), L x = (x, x)
        H, G = Space(1), Space(2, [0.5, 0.5])
        L = LinearMap(H, G, [[1.0], [1.0]])
        assert L.adjoint_apply([2.0, 6.0]) == pytest.approx([4.0])

    def test_identity_self_adjoint(self):
        s = Space(3, [1.5, 0.5, 2.0])
        L = identity_map(s)
        y = np.array([1.0, -2.0, 0.5])
        assert L.adjoint_apply(y) == pytest.approx(y)

    def test_plain_transpose_in_euclidean_metric(self):
        s = Space(2)
        L = LinearMap(s, s, [[0.0, 1.0], [0.0, 0.0]])
        a, b = 3.0, -7.0
        assert L.adjoint_apply([a, b]) == pytest.approx([0.0, a])

    def test_adjoint_identity_many_random_triples(self):
        res = suite_adjoint_identity(np.random.default_rng([7, 0]), 1000)
        assert res.passed, res.line()


class TestOpNorm:
    def test_diagonal(self):
        s = Space(2)
        L = LinearMap(s, s, np.diag([0.6, 0.8]))
        assert L.op_norm() == pytest.approx(0.8, abs=1e-11)

    def test_stacking_isometry_has_norm_one(self):
        H = Space(1)
        L = stack([identity_map(H)] * 3, [0.2, 0.3, 0.5])
        assert L.op_norm() == pytest.approx(1.0, abs=1e-11)

    def test_zero_map(self):
        s = Space(2)
        L = LinearMap(s, s, np.zeros((2, 2)))
        assert L.op_norm() == 0.0

    def test_norm_dominates_sampled_ratios(self):
        g = rng()
        for _ in range(20):
            H = Space(3, g.uniform(0.3, 2.0, size=3))
            G = Space(2, g.uniform(0.3, 2.0, size=2))
            L = LinearMap(H, G, g.standard_normal((2, 3)))
            for _ in range(50):
                x = g.standard_normal(3)
                if H.norm(x) > 1e-9:
                    ratio = G.norm(L.apply(x)) / H.norm(x)
                    assert L.op_norm() >= ratio * (1 - 1e-9)

    def test_clustered_spectrum_norm_is_exact(self):
        L = LinearMap(Space(500), Space(200), clustered_matrix(200, 500, 1.0))
        assert L.op_norm() == pytest.approx(1.0, abs=1e-14)

    def test_weighted_metrics(self):
        g = rng()
        wd, wc = g.uniform(0.3, 2.0, size=30), g.uniform(0.3, 2.0, size=20)
        M = clustered_matrix(20, 30, 0.9) * np.sqrt(wd) / np.sqrt(wc)[:, None]
        L = LinearMap(Space(30, wd), Space(20, wc), M)
        assert L.op_norm() == pytest.approx(0.9, abs=1e-14)

    def test_norm_overflow_rejected(self):
        s = Space(2)
        with pytest.raises(ValidationError, match="overflow"):
            LinearMap(s, s, np.full((2, 2), 1.7e308))

    def test_vector_shaped_maps_take_their_length_without_svd(self, svd_calls):
        g = rng()
        norms, scaled = [], []
        for _ in range(100):
            for dom_dim, cod_dim in ((5, 1), (1, 5), (1, 1)):  # one row, one column, 1 x 1
                H, G = _random_space(g, max_dim=dom_dim), _random_space(g, max_dim=cod_dim)
                M = g.standard_normal((G.dim, H.dim))
                norms.append(LinearMap(H, G, M).op_norm())
                scaled.append(M * (np.sqrt(G.weights)[:, None] / np.sqrt(H.weights)))
        assert svd_calls == []
        for norm, A in zip(norms, scaled):
            exact = np.linalg.svd(A, compute_uv=False)[0]
            assert abs(norm - exact) <= 4 * np.finfo(float).eps * exact

    def test_huge_row_gets_its_length(self):
        L = LinearMap(Space(3), Space(1), [[1e200, 1e200, 1e200]])
        assert L.op_norm() == pytest.approx(np.sqrt(3.0) * 1e200, rel=4 * np.finfo(float).eps)

    def test_vector_shaped_overflow_through_the_metric_is_refused_at_construction(self):
        with pytest.raises(ValidationError, match="overflow"):
            LinearMap(Space(2), Space(1, [1e250]), [[1e200, 1e200]])
        with pytest.raises(ValidationError, match="overflow"):
            LinearMap(Space(1, [1e-250]), Space(2), [[1e200], [1e200]])

    @pytest.mark.parametrize("codomain, matrix, norm", [
        (Space(2, [1e308, 1.0]), [[0.0, 0.0], [0.0, 1.0]], 1.0),
        (Space(1, [1e308]), [[0.0, 1.0]], 1e154),
    ], ids=["zero-entry-against-overflowing-ratio", "finite-norm-beyond-the-ratio"])
    def test_metric_ratio_that_overflows_is_taken_factor_by_factor(self, codomain, matrix, norm):
        # sqrt(1e308) / sqrt(5e-324) overflows: a zero entry times that ratio would be NaN.
        L = LinearMap(Space(2, [5e-324, 1.0]), codomain, matrix)
        assert L.op_norm() == pytest.approx(norm, rel=4 * np.finfo(float).eps)

    def test_weighted_identity_norm_is_one_without_svd(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("identity_map took an SVD")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        I = identity_map(Space(4, [0.3, 2.0, 1e-8, 7e5]))
        assert I.op_norm() == 1.0
        assert np.array_equal(I.matrix, np.eye(4))
        # built with no entry scan, yet its methods still validate
        assert np.array_equal(I.apply([1.0, -2.0, 3.0, 0.5]), [1.0, -2.0, 3.0, 0.5])
        with pytest.raises(ValidationError, match="non-finite"):
            I.apply([1.0, np.nan, 0.0, 0.0])
        with pytest.raises(DimensionMismatchError):
            I.adjoint_apply([1.0, 2.0])

    def test_huge_entries_get_their_norm_and_fail_the_gate(self):
        s = Space(3)
        L = LinearMap(s, s, np.full((3, 3), 1e200))
        assert L.op_norm() == pytest.approx(3e200, rel=1e-12)
        with pytest.raises(ContractionConditionError):
            check_contraction([L])


class TestNormOnDemand:
    def test_construction_takes_no_svd(self, svd_calls):
        g = rng()
        LinearMap(Space(3, [0.5, 2.0, 1.0]), Space(2, [3.0, 0.2]), g.standard_normal((2, 3)))
        stack([LinearMap(Space(3), Space(2), g.standard_normal((2, 3)))] * 2, [0.5, 0.5])
        assert svd_calls == []

    def test_first_read_takes_the_svd_and_later_reads_none(self, svd_calls):
        H, G = Space(3, [0.5, 2.0, 1.0]), Space(2, [3.0, 0.2])
        M = rng().standard_normal((2, 3))
        L = LinearMap(H, G, M)
        norm = L.op_norm()
        assert svd_calls == [(2, 3)]
        assert L.op_norm() == norm  # the second read, from the cache
        assert svd_calls == [(2, 3)]
        scaled = np.sqrt(G.weights)[:, None] * M / np.sqrt(H.weights)
        assert norm == np.linalg.svd(scaled, compute_uv=False)[0]

    def test_repr_never_forces_the_norm(self, svd_calls):
        L = LinearMap(Space(3), Space(2), np.ones((2, 3)))
        assert repr(L) == "LinearMap(3 -> 2)"
        assert svd_calls == []
        L.op_norm()
        assert repr(L) == "LinearMap(3 -> 2, norm~2.45)"
        assert len(svd_calls) == 1

    def test_overflow_through_the_metric_is_refused_at_construction(self):
        with pytest.raises(ValidationError, match="overflow"):
            LinearMap(Space(2), Space(2, [1e250, 1e250]), np.full((2, 2), 1e200))
        with pytest.raises(ValidationError, match="overflow"):
            LinearMap(Space(2, [1e-250, 1e-250]), Space(2), np.full((2, 2), 1e200))

    @pytest.mark.parametrize("domain, codomain, matrix", [
        # adjoint entries scale as w_cod / w_dom, the norm only as its square root
        (Space(2, [1e-300, 1.0]), Space(2, [1e300, 1.0]), [[1e-100, 0.0], [0.0, 1.0]]),
        (Space(2, [1.0, 1e-300]), Space(2, [1.0, 1e300]), [[1.0, 0.0], [0.0, 1e-100]]),
        (Space(2), Space(2, [1e308, 1.0]), [[10.0, 0.0], [0.0, 1.0]]),
        (Space(2, [1e-308, 1.0]), Space(2), [[10.0, 0.0], [0.0, 1.0]]),
    ], ids=["heavy-codomain-light-domain", "mirrored", "heavy-codomain", "light-domain"])
    def test_overflowing_adjoint_is_refused_at_construction(self, domain, codomain, matrix):
        with pytest.raises(ValidationError, match="overflow"):
            LinearMap(domain, codomain, matrix)

    def test_zero_in_the_heavy_corner_is_accepted(self):
        L = LinearMap(Space(2, [1e-300, 1.0]), Space(2, [1e300, 1.0]), [[0.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(L.adjoint_matrix, [[0.0, 0.0], [0.0, 1.0]])
        assert L.op_norm() == 1.0

    def test_nonfinite_entries_are_refused(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValidationError, match="non-finite"):
                LinearMap(Space(2), Space(2), [[1.0, bad], [0.0, 1.0]])

    def test_weighted_identity_is_its_own_adjoint(self):
        w = np.array([0.3, 2.0, 1e-8, 7e5])
        I = identity_map(Space(4, w))
        assert I.adjoint_matrix is I.matrix
        assert np.array_equal(I.adjoint_matrix, (np.eye(4) * w[None, :]) / w[:, None])

    def test_instance_reads_only_the_stacked_norm(self, svd_calls, qr_calls):
        # Four per-block maps are never gated one by one: the R factor of the
        # subspace basis's one QR and the stacked map are the only SVDs.
        perms = [[0, 1, 2], [1, 2, 0], [2, 0, 1], [0, 2, 1]]
        spec = InstanceSpec.from_dict({
            "kind": "split-feasibility",
            "spaces": {"domain": {"dim": 3}},
            "maps": [(0.5 * np.eye(3)[p]).tolist() for p in perms],
            "sets": [{"tag": "singleton", "point": [float(k), 1.0, -1.0]} for k in range(4)],
            "weights": [0.25] * 4,
            "subspace": [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]],
        })
        generate_instance(spec)
        assert svd_calls == [(2, 2), (12, 3)]
        assert qr_calls == [(3, 2)]


class TestScaledMap:
    """``scaled(t)`` carries ``|t| ||L||`` when the norm is cached, and takes no SVD of its own."""

    @pytest.mark.parametrize("t", [0.5, -0.5, 3.0, 1e-150, 1e150])
    def test_carried_norm_is_a_fresh_svd_to_a_few_ulps(self, t):
        g = rng()
        for _ in range(200):
            H, G = _random_space(g), _random_space(g)
            L = LinearMap(H, G, g.standard_normal((G.dim, H.dim)))
            S = L.scaled(t)
            assert np.array_equal(S.matrix, L.matrix * t) and "norm" not in repr(S)
            L.op_norm()
            S = L.scaled(t)
            fresh = LinearMap(H, G, S.matrix).op_norm()
            assert abs(S.op_norm() - fresh) <= 10 * np.finfo(float).eps * fresh

    def test_takes_no_svd_and_carries_only_a_cached_norm(self, svd_calls):
        L = LinearMap(Space(3, [0.5, 2.0, 1.0]), Space(2, [3.0, 0.2]), rng().standard_normal((2, 3)))
        S = L.scaled(2.0)
        assert repr(S) == "LinearMap(3 -> 2)" and svd_calls == []
        norm = L.op_norm()
        T = L.scaled(-2.0)
        assert svd_calls == [(2, 3)]
        assert T.op_norm() == 2.0 * norm and svd_calls == [(2, 3)]
        assert identity_map(Space(2, [3.0, 0.2])).scaled(0.5).op_norm() == 0.5
        S.op_norm()  # not carried: its first read takes its own SVD
        assert svd_calls == [(2, 3)] * 2

    @pytest.mark.parametrize("t", [1e10, np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("cached", [False, True])
    def test_nonfinite_product_is_refused_as_the_constructor_refuses_it(self, t, cached):
        L = LinearMap(Space(2), Space(2), [[1e300, 0.0], [0.0, 0.0]])
        if cached:
            L.op_norm()
        with pytest.raises(ValidationError, match="non-finite entries"):
            L.scaled(t)
        with pytest.raises(ValidationError, match="non-finite entries"), \
                np.errstate(over="ignore", invalid="ignore"):
            LinearMap(Space(2), Space(2), L.matrix * t)

    @pytest.mark.parametrize("cached", [False, True])
    def test_overflowing_norm_is_refused_as_the_constructor_refuses_it(self, cached):
        # finite entries of 1e308, whose norm 2e308 overflows
        L = LinearMap(Space(2), Space(2), np.full((2, 2), 1e154))
        if cached:
            L.op_norm()
        with pytest.raises(ValidationError, match="overflow the norm computation"):
            L.scaled(1e154)
        with pytest.raises(ValidationError, match="overflow the norm computation"):
            LinearMap(Space(2), Space(2), L.matrix * 1e154)

    def test_zero_scale_gives_a_zero_map_that_the_gate_refuses(self):
        L = LinearMap(Space(2), Space(3), rng().standard_normal((3, 2)))
        L.op_norm()
        for Z in (L.scaled(0.0), L.scaled(-0.0), identity_map(Space(2)).scaled(0)):
            assert not Z.matrix.any() and Z.op_norm() == 0.0
            with pytest.raises(ContractionConditionError, match="nonzero map"):
                check_contraction([Z])

    @pytest.mark.parametrize("t", [True, "2", None])
    def test_a_non_number_is_refused(self, t):
        with pytest.raises(ValidationError, match="must be a number"):
            identity_map(Space(1)).scaled(t)


class TestGate:
    def test_mixture_sum(self):
        H = Space(2)
        maps = [LinearMap(H, Space(1), [[1.0, 0.0]]), identity_map(H)]
        check_contraction(maps, [0.5, 0.5])
        with pytest.raises(ContractionConditionError, match="sum_k w_k"):
            check_contraction(maps, [0.5, 0.6])
        check_contraction(maps, [0.5, 0.6], unsafe=True)

    def test_weights_must_be_positive_and_finite(self):
        I = identity_map(Space(1))
        for weights in ([-1.0, 1.5], [float("nan"), 0.5], [0.0, 1.0]):
            with pytest.raises(ValidationError, match="weights"):
                check_contraction([I, I], weights)

    def test_norm_just_above_one_is_printed_in_full(self):
        L = LinearMap(Space(20), Space(20), clustered_matrix(20, 20, 1 + 1.5e-8))
        with pytest.raises(ContractionConditionError, match="exceeds 1") as info:
            check_contraction([L])
        total = L.op_norm() ** 2
        assert total > 1.00000002
        assert repr(total) in str(info.value)

    def test_zero_map_is_refused(self):
        L = LinearMap(Space(2), Space(2), np.zeros((2, 2)))
        for unsafe in (False, True):
            with pytest.raises(ContractionConditionError, match="nonzero"):
                check_contraction([L], unsafe=unsafe)


class TestProjector:
    def test_projection_onto_diagonal(self):
        s = Space(2)
        P = SubspaceProjector(s, [[1.0, 1.0]])
        assert P.apply([2.0, 0.0]) == pytest.approx([1.0, 1.0])

    def test_idempotent_on_member(self):
        s = Space(2)
        P = SubspaceProjector(s, [[1.0, 1.0]])
        x = np.array([3.0, 3.0])
        assert P.apply(x) == pytest.approx(x)

    def test_full_space(self):
        s = Space(3, [2.0, 1.0, 0.5])
        P = SubspaceProjector.full(s)
        x = np.array([1.0, -2.0, 5.0])
        assert P.apply(x) == pytest.approx(x)
        assert P.rank == s.dim

    def test_residual_metric_orthogonal_to_basis(self):
        g = rng()
        for _ in range(30):
            dim = int(g.integers(2, 6))
            s = Space(dim, g.uniform(0.3, 2.0, size=dim))
            k = int(g.integers(1, dim))
            P = SubspaceProjector(s, [g.standard_normal(dim) for _ in range(k)])
            x = g.standard_normal(dim)
            r = x - P.apply(x)
            for b in P.basis:
                assert abs(s.inner(r, b)) <= 1e-12 * (1 + s.norm(x))

    def test_dependent_spanning_vectors_are_dropped(self):
        s = Space(3)
        spanning = [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        P = SubspaceProjector(s, spanning)
        assert (P.rank, P.dropped) == (2, 1)
        for v in spanning:  # the range still covers every input vector
            assert P.apply(v) == pytest.approx(v)

    def test_rejects_zero_spanning_set(self):
        with pytest.raises(ValidationError):
            SubspaceProjector(Space(2), [[0.0, 0.0]])

    def test_tiny_spanning_vector_is_kept(self):
        P = SubspaceProjector(Space(2), [[1e-11, 1e-11]])
        assert P.rank == 1
        assert P.apply([2.0, 0.0]) == pytest.approx([1.0, 1.0])

    def test_rank_does_not_depend_on_vector_scale(self):
        s = Space(2, [4.0, 0.25])
        for spanning in ([[1e-11, 1e-11], [1.0, 0.0]], [[1e-170, 0.0], [1e150, 1e150]]):
            P = SubspaceProjector(s, spanning)
            assert P.rank == 2
            assert P.apply([3.0, -5.0]) == pytest.approx([3.0, -5.0])

    def test_firmly_nonexpansive(self):
        res = suite_projector_firm(np.random.default_rng([7, 1]), 500)
        assert res.passed, res.line()

    def test_double_projection_idempotent(self):
        g = rng()
        s = Space(4, g.uniform(0.3, 2.0, size=4))
        P = SubspaceProjector(s, [g.standard_normal(4) for _ in range(2)])
        x = g.standard_normal(4)
        once, twice = P.apply(x), P.apply(P.apply(x))
        assert s.norm(once - twice) <= 1e-12

    def test_self_adjoint_in_metric(self):
        g = rng()
        for _ in range(20):
            s = Space(3, g.uniform(0.3, 2.0, size=3))
            P = SubspaceProjector(s, [g.standard_normal(3) for _ in range(2)])
            x, y = g.standard_normal(3), g.standard_normal(3)
            assert s.inner(P.apply(x), y) == pytest.approx(s.inner(x, P.apply(y)), abs=1e-11)


def reference_projector(space, vectors):
    """Rank and matrix of the projector from a full SVD of the scaled spanning set."""
    vectors = np.asarray(vectors, dtype=float)
    peak = np.abs(vectors).max(axis=1)
    root = np.sqrt(space.weights)
    rows = vectors[peak > 0] / peak[peak > 0, None] * root
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    _, sigma, vt = np.linalg.svd(rows, full_matrices=False)
    kept = vt[sigma > RANK_RTOL * sigma[0]]
    # P = W^{-1/2} V V^T W^{1/2} for the Euclidean basis V of the scaled span
    return len(kept), (kept.T @ kept) / root[:, None] * root[None, :]


def planted_spanning_set(g, n, rank, extra):
    """``rank`` random vectors in R^n and ``extra`` random combinations of them, shuffled."""
    base = g.standard_normal((rank, n))
    spanning = np.vstack([base, g.standard_normal((extra, rank)) @ base])
    return spanning[g.permutation(len(spanning))]


class TestSubspaceBasis:
    """The basis from one QR and sigma(R) against a reference SVD of the spanning set."""

    @staticmethod
    def assert_matches_reference(space, spanning, atol=1e-12):
        P = SubspaceProjector(space, spanning)
        rank, matrix = reference_projector(space, spanning)
        assert (P.rank, P.dropped) == (rank, len(spanning) - rank)
        assert np.abs(P.matrix - matrix).max() <= atol
        return P

    @staticmethod
    def assert_w_orthonormal(P):
        gram = P.basis @ (P.basis * P.space.weights).T
        assert np.abs(gram - np.eye(P.rank)).max() <= 1e-14 * np.sqrt(P.space.dim)

    def test_planted_dependencies(self):
        g = rng()
        for _ in range(40):
            n = int(g.integers(2, 30))
            rank = int(g.integers(1, n))
            space = Space(n, g.uniform(0.3, 2.0, size=n))
            P = self.assert_matches_reference(
                space, planted_spanning_set(g, n, rank, int(g.integers(1, 4))))
            assert P.rank == rank
            self.assert_w_orthonormal(P)

    def test_more_vectors_than_dimensions(self):
        g = rng()
        for n in (1, 2, 5, 17):
            space = Space(n, g.uniform(0.3, 2.0, size=n))
            P = self.assert_matches_reference(space, g.standard_normal((n + 3, n)))
            assert (P.rank, P.dropped) == (n, 3)
            self.assert_w_orthonormal(P)
            # n + 3 vectors spanning only a line: the rank-deficient path when n > 1
            line = np.outer(g.standard_normal(n + 3), g.standard_normal(n))
            P = self.assert_matches_reference(space, line)
            assert P.rank == 1
            self.assert_w_orthonormal(P)

    @pytest.mark.parametrize("ratio, rank", [(1e-9, 3), (1e-11, 2)])
    def test_planted_singular_value_either_side_of_the_cutoff(self, ratio, rank):
        # Rows a, b, a + t c with a, b, c orthonormal in the metric: the singular
        # values are about sqrt(2), 1 and t / sqrt(2), so the last is t / 2 of the first.
        g = rng()
        n = 6
        space = Space(n, g.uniform(0.3, 2.0, size=n))
        a, b, c = np.linalg.qr(g.standard_normal((n, 3)))[0].T
        rows = np.array([a, b, a + 2.0 * ratio * c])
        sigma = np.linalg.svd(rows / np.linalg.norm(rows, axis=1)[:, None], compute_uv=False)
        assert sigma[2] / sigma[0] == pytest.approx(ratio, rel=1e-3)
        spanning = rows / np.sqrt(space.weights)
        # A direction kept at 1e-9 is known only to about eps / 1e-9.
        P = self.assert_matches_reference(space, spanning, atol=1e-6 if rank == 3 else 1e-12)
        assert P.rank == rank
        self.assert_w_orthonormal(P)

    def test_vectors_scaled_over_the_whole_range(self):
        g = rng()
        for _ in range(10):
            n = int(g.integers(3, 12))
            space = Space(n, g.uniform(0.3, 2.0, size=n))
            spanning = planted_spanning_set(g, n, n - 1, 3)
            spanning *= 10.0 ** g.uniform(-170, 150, size=len(spanning))[:, None]
            P = self.assert_matches_reference(space, spanning)
            assert P.rank == n - 1
            self.assert_w_orthonormal(P)


class TestStack:
    def test_two_identities_average_adjoint(self):
        H = Space(1)
        L = stack([identity_map(H), identity_map(H)], [0.5, 0.5])
        assert L.adjoint_apply([1.0, 3.0]) == pytest.approx([2.0])

    def test_single_map_roundtrip(self):
        H, G = Space(2), Space(3)
        base = LinearMap(H, G, rng().standard_normal((3, 2)))
        L = stack([base], [1.0])
        x = np.array([1.0, -1.0])
        assert L.apply(x) == pytest.approx(base.apply(x))

    def test_coordinate_rows_norm(self):
        H = Space(2)
        L1 = LinearMap(H, Space(1), [[1.0, 0.0]])
        L2 = LinearMap(H, Space(1), [[0.0, 1.0]])
        L = stack([L1, L2], [0.5, 0.5])
        assert L.op_norm() == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-11)

    def test_rejects_empty_and_bad_weights(self):
        H = Space(1)
        with pytest.raises(ValidationError):
            stack([], [])
        with pytest.raises(ValidationError):
            stack([identity_map(H)], [-1.0])

    def test_norm_bound(self):
        res = suite_stack_norm(np.random.default_rng([7, 2]), 300)
        assert res.passed, res.line()


class TestProductSpace:
    def test_weights_multiply_block_metrics(self):
        s = product_space([Space(1, [2.0]), Space(2)], [0.5, 3.0])
        assert s.weights == pytest.approx([1.0, 3.0, 3.0])

    def test_compose_chains_maps(self):
        g = rng()
        H, G, K = Space(2), Space(3), Space(2)
        Q = LinearMap(H, G, g.standard_normal((3, 2)))
        L = LinearMap(G, K, g.standard_normal((2, 3)))
        x = g.standard_normal(2)
        assert L.compose(Q).apply(x) == pytest.approx(L.apply(Q.apply(x)))


class TestShiftedInverse:
    def test_sweep_past_cache_size_stays_exact(self):
        # the cache keeps the last scale only: each change of scale evicts
        M = np.array([[2.0, 1.0], [-1.0, 0.5]])
        inverse = shifted_inverse(M)
        gammas = [0.1 * (k + 1) for k in range(35)]
        for gamma in gammas + gammas[::-1]:
            assert inverse(gamma) @ (np.eye(2) + gamma * M) == pytest.approx(np.eye(2))

    def test_repeated_scale_reuses_matrix(self):
        inverse = shifted_inverse(np.diag([1.0, 3.0]))
        assert inverse(0.5) is inverse(0.5)
        assert inverse(2.0) == pytest.approx(np.diag([1.0 / 3.0, 1.0 / 7.0]))
