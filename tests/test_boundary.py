"""Validation at the public boundary, and the number of validations it costs.

Public entry points validate every vector once (shape, finiteness, float64);
the kernels behind them run on raw arrays.  These tests pin both halves:
bad input is still rejected at every entry point, and the number of
``Space.validate`` calls does not grow with iterations or power steps.
"""

import itertools
import json
import math

import numpy as np
import pytest

from rescomp.bench import InstanceSpec, run
from rescomp.compositions import resolvent_composition, resolvent_mixture, strong_monotonicity_modulus
from rescomp.errors import CapabilityError, DimensionMismatchError, ScaleRestrictionError, ValidationError
from rescomp.hilbert import (LinearMap, Space, SubspaceProjector, check_contraction,
                             check_monotone, identity_map, product_space)
from rescomp.operators import (
    linear_monotone,
    make_wiener,
    normal_cone,
    product_family,
    scaled_identity,
    subdifferential,
)
from rescomp.proxfun import indicator, moreau_envelope, one_norm, quadratic, separable
from rescomp.sets import AffineSubspace, Ball, Box, Halfspace, Singleton
from rescomp.solvers import RelaxedInstance, Schedule, proximal_point, solve_relaxed

H = Space(3, [1.0, 2.0, 0.5])
G = Space(2, [0.5, 1.5])

BAD = [
    ([np.nan, 0.0, 0.0], ValidationError),
    ([0.0, np.inf, 0.0], ValidationError),
    ([0.0, 0.0, -np.inf], ValidationError),
    ([1.0, 2.0], DimensionMismatchError),
    ([[1.0, 2.0, 3.0]], DimensionMismatchError),
    (5.0, DimensionMismatchError),
]


def one_block_config(kind, block, domain=None):
    """A one-block config on R^2 (``domain`` its space) whose block is ``block``, V the first axis."""
    return {"kind": kind, "spaces": {"domain": domain or {"dim": 2}}, "weights": [1.0],
            "subspace": [[1.0, 0.0]], "sets": [block], "schedule": {"max_iterations": 50}}


def wiener_scale_row(c):
    """A one-block Wiener config whose forward map is ``c Id``, and the message refusing ``c``."""
    return (one_block_config("wiener", {"f": {"tag": "scale", "c": c}, "point": [0.0, 0.0]}),
            f"wiener forward scale must lie in [0, 1] to be firmly nonexpansive, got {c}")


# One-block configs that the config boundary refuses, each with its message.  JSON
# readers accept NaN and Infinity; the finite matrices near 1e308 once overflowed
# W M and ran to "S1 attained"; a skew Q under tiny weights was once accepted; an
# out-of-range Wiener scale once named a spot check that never ran.
REFUSED_CONFIGS = {
    "linear-nan": (one_block_config("common-zero", {"tag": "linear",
                                                    "matrix": [[math.nan, 0.0], [0.0, 1.0]]}),
                   "linear operator has non-finite entries"),
    "quadratic-inf": (one_block_config("prox-mixture", {"tag": "quadratic",
                                                        "q": [[math.inf, 0.0], [0.0, 1.0]]}),
                      "quadratic form has non-finite entries"),
    "linear-concave": (one_block_config("common-zero", {"tag": "linear",
                                                        "matrix": [[-1e308, 0.0], [0.0, 1.0]]}),
                       "linear operator is not monotone in the metric"),
    "quadratic-concave": (one_block_config("prox-mixture", {"tag": "quadratic",
                                                            "q": [[-1e308, 0.0], [0.0, 1.0]]}),
                          "quadratic form is not monotone in the metric"),
    "quadratic-skew": (one_block_config("prox-mixture", {"tag": "quadratic",
                                                         "q": [[1e308, 1e308], [-1e308, 1e308]]}),
                       "quadratic form is not self-adjoint in the metric"),
    "quadratic-skew-tiny-weights": (
        one_block_config("prox-mixture", {"tag": "quadratic", "q": [[0.0, 1.0], [-1.0, 0.0]]},
                         {"dim": 2, "weights": [1e-11, 1e-11]}),
        "quadratic form is not self-adjoint in the metric"),
    "wiener-scale-above-one": wiener_scale_row(1.5),
    "wiener-scale-negative": wiener_scale_row(-0.5),
    "wiener-scale-nan": wiener_scale_row(math.nan),
}


@pytest.mark.parametrize("config, error", REFUSED_CONFIGS.values(), ids=list(REFUSED_CONFIGS))
def test_refused_one_block_config(tmp_path, config, error):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))  # json writes and reads NaN and Infinity
    lines = []
    assert run(str(path), out=lines.append) == 1
    assert lines == [f"error: field 'sets[0]': {error}"]


def _sets(space):
    return [
        Box(space, -1.0, 1.0),
        Ball(space, np.ones(space.dim), 0.5),
        Halfspace(space, np.ones(space.dim), 0.2),
        AffineSubspace(space, np.zeros(space.dim), [np.ones(space.dim)]),
        Singleton(space, np.arange(space.dim, dtype=float)),
    ]


def _product_cone():
    """The normal cone of a box times a ball, a product family on H."""
    blocks = [Space(1), Space(2, [2.0, 0.5])]
    return product_family([normal_cone(Box(blocks[0], 0.0, 1.0)),
                           normal_cone(Ball(blocks[1], [0.0, 0.0], 1.0))])


def _families():
    L = LinearMap(H, G, [[0.5, 0.0, 0.0], [0.0, 0.3, 0.1]])
    return [
        normal_cone(Box(H, -1.0, 1.0)),
        _product_cone(),
        linear_monotone(H, np.diag([1.0, 2.0, 3.0])),
        subdifferential(one_norm(H)),
        scaled_identity(H, 2.0).scaled(3.0),
        scaled_identity(H, 2.0).inverse(),
        product_family([scaled_identity(Space(1), 1.0), scaled_identity(Space(2), 0.5)]),
        resolvent_composition(L, scaled_identity(G, 1.0)),
    ]


def _functions():
    return [
        one_norm(H),
        indicator(Box(H, -1.0, 1.0)),
        quadratic(H, np.diag([1.0, 2.0, 3.0])),
        one_norm(H).conjugate(),
        separable([one_norm(Space(1)), one_norm(Space(2))], [1.0, 1.0]),
    ]


def _split_instance():
    """A 4-block split-feasibility instance through a product family."""
    rng = np.random.default_rng(7)
    n, m, p = 6, 3, 4
    dom = Space(n)
    blocks = [Space(m) for _ in range(p)]
    maps = [LinearMap(dom, g, 0.5 * rng.standard_normal((m, n))) for g in blocks]
    w = [1.0 / p] * p
    total = sum(wk * L.op_norm() ** 2 for wk, L in zip(w, maps))
    w = [wk / total for wk in w]
    sets = [Box(blocks[0], -0.1, 0.1), Ball(blocks[1], np.ones(m), 0.2),
            Singleton(blocks[2], rng.standard_normal(m)),
            Halfspace(blocks[3], np.ones(m), -1.0)]
    fams = [normal_cone(s) for s in sets]
    V = SubspaceProjector(dom, rng.standard_normal((4, n)))
    return RelaxedInstance.from_blocks(V, zip(maps, fams, w), 1.0, kind="split-feasibility")


class TestRejectsBadInput:
    @pytest.mark.parametrize("bad, err", BAD)
    def test_linear_map(self, bad, err):
        L = LinearMap(H, Space(3), 0.5 * np.eye(3))
        with pytest.raises(err):
            L.apply(bad)
        with pytest.raises(err):
            L.adjoint_apply(bad)

    @pytest.mark.parametrize("bad, err", BAD)
    def test_subspace_projector(self, bad, err):
        with pytest.raises(err):
            SubspaceProjector(H, [[1.0, 0.0, 0.0], bad])
        with pytest.raises(err):
            SubspaceProjector(H, [[1.0, 0.0, 0.0]]).apply(bad)

    @pytest.mark.parametrize("bad, err", BAD)
    def test_resolvents(self, bad, err):
        for fam in _families():
            with pytest.raises(err):
                fam.resolvent(1.0, bad)

    @pytest.mark.parametrize("bad, err", BAD)
    def test_proxes(self, bad, err):
        for g in _functions():
            with pytest.raises(err):
                g.prox(1.0, bad)

    @pytest.mark.parametrize("bad, err", BAD)
    def test_projections(self, bad, err):
        for cset in _sets(H):
            with pytest.raises(err):
                cset.project(bad)

    @pytest.mark.parametrize("bad, err", BAD)
    def test_solver_starts(self, bad, err):
        inst = _split_instance()
        bad_n = (np.resize(np.asarray(bad, dtype=float), 6)
                 if err is ValidationError else bad)
        with pytest.raises(err):
            solve_relaxed(inst, bad_n, Schedule(max_iterations=3))
        with pytest.raises(err):
            proximal_point(H, lambda v: 0.5 * v, bad, Schedule(max_iterations=3))

    def test_proximal_point_rejects_misshapen_step(self):
        with pytest.raises(DimensionMismatchError):
            proximal_point(H, lambda v: v[:, None], np.ones(3), Schedule(max_iterations=3))


BAD_SCALES = [np.nan, np.inf, -np.inf, 0.0, -1.0]


class TestScaleRule:
    """Every scale is read once, by ``hilbert._scale``: finite and positive, NaN refused."""

    @pytest.mark.parametrize("gamma", BAD_SCALES)
    def test_every_entry_point_refuses_a_bad_scale(self, gamma):
        R1 = Space(1)
        B = scaled_identity(R1, 1.0)
        refusals = [
            lambda: B.resolvent(gamma, [1.0]),
            lambda: one_norm(R1).prox(gamma, [1.0]),
            lambda: moreau_envelope(one_norm(R1), gamma, [1.0]),
            lambda: resolvent_composition(identity_map(R1), B, gamma=gamma),
            lambda: RelaxedInstance(SubspaceProjector.full(R1), identity_map(R1), B, gamma),
            lambda: B.scaled(gamma),
        ]
        for refused in refusals:
            with pytest.raises(ValidationError, match="finite and positive"):
                refused()

    def test_scale_restriction_is_a_validation_error(self):
        assert issubclass(ScaleRestrictionError, ValidationError)
        with pytest.raises(ScaleRestrictionError):
            scaled_identity(Space(1), 1.0).resolvent(np.nan, [1.0])

    @pytest.mark.parametrize("gamma", [True, "1.0", None])
    def test_a_non_number_is_refused(self, gamma):
        with pytest.raises(ScaleRestrictionError):
            scaled_identity(Space(1), 1.0).resolvent(gamma, [1.0])

    def test_the_scale_reaches_the_evaluator_as_a_float(self):
        seen = []
        B = scaled_identity(Space(1), 1.0)
        B._evaluator = lambda gamma, y: seen.append(gamma) or y
        B.resolvent(2, [1.0])
        B.resolvent(np.float32(0.5), [1.0])
        assert seen == [2.0, 0.5] and all(type(g) is float for g in seen)
        inst = RelaxedInstance(SubspaceProjector.full(Space(1)), identity_map(Space(1)),
                               scaled_identity(Space(1), 1.0), 3)
        assert type(inst.gamma) is float and inst.gamma == 3.0


def _scalar_readers():
    """``{name: build(v)}``: each constructor that reads a scalar ``v``, a weight or a number."""
    R1 = Space(1)
    half, B, g = identity_map(R1).scaled(0.5), scaled_identity(R1, 1.0), one_norm(R1)
    config = {"kind": "split-feasibility", "spaces": {"domain": {"dim": 1}},
              "sets": [{"tag": "singleton", "point": [1.0]}] * 2, "subspace": [[1.0]]}
    return {
        "product_space": lambda v: product_space([R1, R1], [v, 1.0]),
        "check_contraction": lambda v: check_contraction([half, half], [v, 0.25]),
        "resolvent_mixture": lambda v: resolvent_mixture([B, B], [half, half], [v, 0.25]),
        "separable": lambda v: separable([g, g], [v, 1.0]),
        "InstanceSpec": lambda v: InstanceSpec.from_dict({**config, "weights": [v, 0.25]}),
        "scaled_identity": lambda v: scaled_identity(R1, v),
        "Ball": lambda v: Ball(R1, [0.0], v),
        "Halfspace": lambda v: Halfspace(R1, [1.0], v),
        "modulus-alpha": lambda v: strong_monotonicity_modulus(v, 0.5),
        "modulus-norm": lambda v: strong_monotonicity_modulus(0.5, v),
    }


SCALAR_READERS = list(_scalar_readers())


class TestStrictScalars:
    """A weight is read by ``hilbert._scale`` and any other scalar by ``hilbert._real``."""

    @pytest.mark.parametrize("reader", SCALAR_READERS)
    @pytest.mark.parametrize("value", ["2", "0.5", True, None, [0.5]],
                             ids=["string-2", "string-0.5", "bool", "none", "list"])
    def test_a_non_number_is_refused(self, reader, value):
        with pytest.raises(ValidationError):
            _scalar_readers()[reader](value)

    @pytest.mark.parametrize("reader", SCALAR_READERS)
    def test_a_number_is_read(self, reader):
        for value in (0.5, np.float64(0.5), np.float32(0.5), 1):
            _scalar_readers()[reader](value)

    def test_a_weight_is_read_as_a_float(self):
        space = product_space([Space(1), Space(1)], [np.float64(0.5), 2])
        assert space.weights.tolist() == [0.5, 2.0]
        spec = InstanceSpec.from_dict({"kind": "feasibility-product",
                                       "spaces": {"domain": {"dim": 1}},
                                       "sets": [{"tag": "singleton", "point": [1.0]}] * 2,
                                       "weights": [1, 0.5]})
        assert all(type(w) is float for w in spec.weights)


class TestScaleFreeDecisions:
    """A decision on a matrix or a pinned scale reads the same at every scale of the input."""

    @pytest.mark.parametrize("t", [1e-12, 1.0, 1e12])
    def test_monotonicity_does_not_depend_on_the_scale(self, t):
        psd = np.array([[2.0, 1.0], [1.0, 1.0]])
        for build in (linear_monotone, quadratic):
            with pytest.raises(ValidationError, match="not monotone"):
                build(Space(2), -t * np.eye(2))
            build(Space(2), t * psd)
        # monotone in the metric of G, not symmetric: W M = t [[1, -1], [1, 0]]
        linear_monotone(G, t * np.array([[1.0, -1.0], [1.0, 0.0]]) / G.weights[:, None])

    @pytest.mark.parametrize("t", [1e-12, 1.0, 1e12])
    def test_quadratic_self_adjointness_does_not_depend_on_the_scale(self, t):
        # accepted once at t = 1e-12 by an absolute floor
        with pytest.raises(ValidationError, match="not self-adjoint"):
            quadratic(Space(2), t * np.array([[1.0, 0.9], [0.0, 1.0]]))

    @pytest.mark.parametrize("t", [1e-12, 1.0, 1e12])
    def test_quadratic_minimizer_does_not_depend_on_the_scale(self, t):
        # no minimizer once at t = 1e-12 by an absolute cut
        g = quadratic(Space(2), t * np.eye(2), [1.0, 0.0])
        assert g.minimizer() == pytest.approx([1.0 / t, 0.0], rel=1e-15)
        assert g.conjugate().value([0.0, 0.0]) == pytest.approx(0.5 / t, rel=1e-15)

    def test_check_monotone_reads_every_scale_alike(self):
        # M = W^-1 (P + K): monotone in the metric of G without being symmetric.
        rng = np.random.default_rng(7)
        A = rng.standard_normal((2, 2))
        K = rng.standard_normal((2, 2))
        M = (A @ A.T + K - K.T) / G.weights[:, None]
        _, lowest, skew = check_monotone(G, M, "M")
        assert lowest > 0.0 and skew > 1e-10
        for t, s in itertools.product((1e-300, 1.0, 1e300), repeat=2):
            space = Space(2, s * G.weights)
            _, low_t, skew_t = check_monotone(space, t * M, "M")
            assert abs(low_t - lowest) <= 1e-12 and abs(skew_t - skew) <= 1e-12
            with pytest.raises(ValidationError, match="M is not monotone in the metric"):
                check_monotone(space, -t * M, "M")

    @pytest.mark.parametrize("weights, Q", [
        ([1e-11, 1e-11], [[0.0, 1.0], [-1.0, 0.0]]),
        ([1.0, 1e-12], [[0.0, 1.0], [-1e12, 0.0]]),  # W Q the rotation generator
    ], ids=["tiny-weights", "uneven-weights"])
    def test_a_skew_matrix_under_small_weights(self, weights, Q):
        # sym(W Q) is zero: any nonzero skew is refused, however small the weights.
        with pytest.raises(ValidationError, match="quadratic form is not self-adjoint"):
            quadratic(Space(2, weights), Q)
        linear_monotone(Space(2, weights), Q)  # a skew operator is monotone

    def test_a_skew_matrix_under_huge_weights(self):
        # S - S^T overflows to inf here: refused, with no overflow warning.
        with pytest.raises(ValidationError, match="quadratic form is not self-adjoint"):
            quadratic(Space(2, [1e308, 1e308]), [[1.0, 1.0], [-1.0, 1.0]])

    def test_a_zero_matrix_stays_monotone(self):
        linear_monotone(Space(2), np.zeros((2, 2)))
        with pytest.raises(CapabilityError, match="no recorded minimizer"):
            quadratic(Space(2), np.zeros((2, 2))).minimizer()

    def test_a_tiny_nonmonotone_matrix_gets_no_resolvent(self):
        # accepted once by an absolute floor, its resolvent at gamma = 0.9e12 maps e1 to 10 e1
        with pytest.raises(ValidationError, match="not monotone"):
            linear_monotone(Space(2), -1e-12 * np.eye(2))

    @pytest.mark.parametrize("c", [1e-20, 1.0, 1e20])
    def test_a_pinned_scale_is_compared_relatively(self, c):
        B = make_wiener(Space(1), 0.5, [0.0]).scaled(c)
        d = B.scale_domain
        assert d == 1.0 / c
        with pytest.raises(ScaleRestrictionError, match="only supports scale"):
            B.resolvent(1.5 * d, [1.0])
        for gamma in (d * (1 + 1e-13), d * (1 - 1e-13)):
            assert B.resolvent(gamma, [1.0]) == pytest.approx([0.5])

    def test_a_tiny_pinned_scale_refuses_a_far_scale(self):
        with pytest.raises(ScaleRestrictionError):
            make_wiener(Space(1), 0.5, [0.0]).scaled(1e20).resolvent(5e-13, [1.0])


class TestNaNData:
    """A comparison that a NaN fails guards every scalar a set or modulus is built from, and
    a finiteness test every matrix of a monotone linear operator or quadratic form."""

    @pytest.mark.parametrize("lower, upper", [
        ([np.nan], [1.0]), ([0.0], [np.nan]), ([np.inf], [np.inf]), ([-np.inf], [-np.inf]),
    ], ids=["nan-lower", "nan-upper", "lower-plus-inf", "upper-minus-inf"])
    def test_box(self, lower, upper):
        with pytest.raises(ValidationError, match="empty box"):
            Box(Space(1), lower, upper)

    def test_ball(self):
        with pytest.raises(ValidationError, match="radius"):
            Ball(Space(1), [0.0], np.nan)

    def test_ball_infinite_radius(self):
        # The whole space is no ball: its support at 0 would read inf * 0 = nan.
        with pytest.raises(ValidationError, match="radius must be finite"):
            Ball(Space(1), [0.0], np.inf)
        assert indicator(Ball(Space(1), [0.0], 1e300)).conjugate().value([0.0]) == 0.0

    @pytest.mark.parametrize("offset", [np.nan, -np.inf])
    def test_halfspace(self, offset):
        with pytest.raises(ValidationError, match="offset"):
            Halfspace(Space(1), [1.0], offset)

    def test_scaled_identity(self):
        with pytest.raises(ValidationError, match="c >= 0"):
            scaled_identity(Space(1), np.nan)

    @pytest.mark.parametrize("alpha, norm_l", [(np.nan, 0.5), (0.5, np.nan)])
    def test_strong_monotonicity_modulus(self, alpha, norm_l):
        with pytest.raises(ValidationError):
            strong_monotonicity_modulus(alpha, norm_l)

    MATRICES = [(linear_monotone, "linear operator"), (quadratic, "quadratic form")]

    @pytest.mark.parametrize("build, what", MATRICES, ids=["linear", "quadratic"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
    def test_monotone_matrix(self, build, what, bad):
        # eigvalsh gives NaN here, and the monotonicity test alone would pass it.
        with pytest.raises(ValidationError, match=f"{what} has non-finite entries"):
            build(Space(2), [[bad, 0.0], [0.0, 1.0]])


class TestValidateConverts:
    @pytest.mark.parametrize("raw", [
        [1, 2, 3],
        [1.0, 2.0, 3.0],
        np.array([1, 2, 3]),
        np.array([1.0, 2.0, 3.0], dtype=np.float32),
        np.array([1.0, 2.0, 3.0], dtype=">f8"),
    ])
    def test_to_float64(self, raw):
        x = H.validate(raw)
        assert type(x) is np.ndarray
        assert x.dtype == np.float64 and x.dtype.isnative
        assert np.array_equal(x, [1.0, 2.0, 3.0])

    def test_float64_array_passes_through(self):
        x = np.array([1.0, 2.0, 3.0])
        assert H.validate(x) is x


class _Counter:
    def __init__(self, monkeypatch, owner, name):
        self.calls = 0
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


class TestValidationBudget:
    def test_solver_validations_do_not_grow_with_iterations(self, monkeypatch):
        counts = []
        for iterations in (10, 200):
            inst = _split_instance()
            counter = _Counter(monkeypatch, Space, "validate")
            x0 = inst.V.apply(np.ones(inst.space.dim))
            counter.calls = 0
            _, trace = solve_relaxed(inst, x0, Schedule(max_iterations=iterations, tol=0.0))
            assert trace.reason == "max_iterations"
            assert trace.iterations == iterations
            counts.append(counter.calls)
            monkeypatch.undo()
        assert counts[0] == counts[1]
        assert counts[0] <= 1

    def test_linear_map_validations_do_not_depend_on_the_spectrum(self, monkeypatch):
        rng = np.random.default_rng(3)
        q1, _ = np.linalg.qr(rng.standard_normal((20, 20)))
        q2, _ = np.linalg.qr(rng.standard_normal((20, 20)))
        easy = np.diag([1.0] + [0.01] * 19)
        clustered = (q1 * np.linspace(1.0, 0.999, 20)) @ q2.T
        dom = Space(20, rng.uniform(0.5, 2.0, size=20))
        validations = []
        for matrix in (easy, clustered):
            v = _Counter(monkeypatch, Space, "validate")
            LinearMap(dom, Space(20), matrix)
            validations.append(v.calls)
            monkeypatch.undo()
        assert validations[0] == validations[1]
        assert validations[0] <= 2

    def test_sample_graph_checks_its_scale_once_and_validates_nothing(self, monkeypatch):
        B = linear_monotone(G, np.eye(2))
        validations = _Counter(monkeypatch, Space, "validate")
        scale_checks = _Counter(monkeypatch, type(B), "_check_scale")
        assert len(B.sample_graph(11)) == 11
        assert (validations.calls, scale_checks.calls) == (0, 1)

    def test_subspace_projector_validates_the_spanning_set_once(self, monkeypatch):
        # One array check of shape and finiteness, never a pass per vector.
        rng = np.random.default_rng(4)
        counter = _Counter(monkeypatch, Space, "validate")
        SubspaceProjector(Space(8), rng.standard_normal((5, 8)))
        assert counter.calls == 0
        for spanning, err in (
            ([[1.0, 0.0, 0.0], [1.0, 0.0]], DimensionMismatchError),  # ragged
            ([1.0, 0.0, 0.0], DimensionMismatchError),  # a flat vector
            ([[1.0, 0.0], [0.0, 1.0]], DimensionMismatchError),  # wrong length
            ([[1.0, 0.0, 0.0], [0.0, np.nan, 0.0]], ValidationError),
            ([[1.0, 0.0, 0.0], [0.0, 0.0, -np.inf]], ValidationError),
            ([[0.0, 0.0, 0.0]] * 2, ValidationError),  # only zero vectors
            ([], ValidationError),
        ):
            with pytest.raises(err):
                SubspaceProjector(H, spanning)
        assert counter.calls == 0
