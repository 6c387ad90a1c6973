"""Validation at the public boundary, and the number of validations it costs.

Public entry points validate every vector once (shape, finiteness, float64);
the kernels behind them run on raw arrays.  These tests pin both halves:
bad input is still rejected at every entry point, and the number of
``Space.validate`` calls does not grow with iterations or power steps.
"""

import numpy as np
import pytest

from rescomp.compositions import resolvent_composition
from rescomp.errors import DimensionMismatchError, ValidationError
from rescomp.hilbert import LinearMap, Space, SubspaceProjector
from rescomp.operators import (
    linear_monotone,
    normal_cone,
    product_family,
    scaled_identity,
    subdifferential,
)
from rescomp.proxfun import indicator, one_norm, quadratic, separable
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
            _, trace = solve_relaxed(inst, x0, Schedule(max_iterations=iterations, tol=0.0),
                                     reference=np.zeros(inst.space.dim))
            assert trace.reason == "max_iterations"
            assert trace.iterations == iterations
            counts.append(counter.calls)
            monkeypatch.undo()
        assert counts[0] == counts[1]
        assert counts[0] <= 2

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
