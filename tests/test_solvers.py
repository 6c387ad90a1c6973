"""Proximal point engine, relaxed instances, residuals, verification."""

import csv
import math

import numpy as np
import pytest

from rescomp import solvers
from rescomp.bench import (
    InstanceSpec,
    certificates,
    generate_instance,
    least_squares_oracle,
    wiener_oracle,
)
from rescomp.compositions import _cocomposition_step
from rescomp.errors import ContractionConditionError, ScaleRestrictionError, ValidationError
from rescomp.hilbert import LinearMap, Space, SubspaceProjector, identity_map, product_space
from rescomp.operators import (
    ResolventFamily,
    linear_monotone,
    make_wiener,
    normal_cone,
    product_family,
    scaled_identity,
    subdifferential,
)
from rescomp.proxfun import one_norm
from rescomp.properties import (
    _random_split_instance,
    _random_wiener_instance,
    suite_block_stacked,
    suite_engine_equivalence,
    suite_fejer,
    suite_residual_agreement,
)
from rescomp.sets import Ball, Box, Halfspace, Singleton
from rescomp.solvers import (
    RelaxedInstance,
    Schedule,
    Trace,
    _iterate,
    _solve_in_coordinates,
    proximal_point,
    solve_blocks,
    solve_relaxed,
    variational_residual,
    verify_exact_relaxation,
)

from conftest import bare_wiener

R1 = Space(1)
R2 = Space(2)


def acceptance_instance(second_target=3.0):
    G1, G2 = Space(1), Space(1)
    L1 = LinearMap(R2, G1, [[1.0, 0.0]])
    L2 = LinearMap(R2, G2, [[0.0, 1.0]])
    V = SubspaceProjector(R2, [[1.0, 1.0]])
    fams = [
        normal_cone(Singleton(G1, [1.0])),
        normal_cone(Singleton(G2, [second_target])),
    ]
    return RelaxedInstance.from_blocks(V, [(L1, fams[0], 0.5), (L2, fams[1], 0.5)], 1.0,
                                       kind="split-feasibility")


def wiener_instance():
    V = SubspaceProjector(R2, [[1.0, 0.0]])
    p = np.array([3.0, 1.0])
    return RelaxedInstance.from_blocks(V, [(identity_map(R2), bare_wiener(R2, 0.5, p), 1.0)],
                                       1.0, kind="wiener")


def coordinate_instance(tags=("box", "ball", "point", "half"), scale=1.0):
    """Weighted metrics, n = 50, rank(V) = 25: one block of 25 rows per tag, block k
    the normal cone of a set of kind ``tags[k]``; the sets and ``x0`` are scaled by ``scale``."""
    rng = np.random.default_rng(2024)
    n, m, p, r = 50, 25, len(tags), 25
    H = Space(n, rng.uniform(0.5, 2.0, size=n))
    spaces = [Space(m, rng.uniform(0.5, 2.0, size=m)) for _ in range(p)]
    maps = [LinearMap(H, g, rng.standard_normal((m, n)) / np.sqrt(n)) for g in spaces]
    w = rng.uniform(0.5, 1.0, size=p)
    w = list(0.9 * w / sum(wk * L.op_norm() ** 2 for wk, L in zip(w, maps)))
    make = {
        "box": lambda g: Box(g, -0.1 * scale, 0.1 * scale),
        "ball": lambda g: Ball(g, scale * np.ones(m), 0.2 * scale),
        "point": lambda g: Singleton(g, scale * rng.standard_normal(m)),
        "origin": lambda g: Singleton(g, np.zeros(m)),
        "half": lambda g: Halfspace(g, np.ones(m), -1.0 * scale),
    }
    fams = [normal_cone(make[tag](g)) for tag, g in zip(tags, spaces)]
    V = SubspaceProjector(H, rng.standard_normal((r, n)))
    inst = RelaxedInstance.from_blocks(V, zip(maps, fams, w), 0.8, kind="split-feasibility")
    assert (V.rank, inst.L.matrix.shape) == (r, (p * m, n))
    return inst, V.apply(scale * H.random(rng))


def solve_unfolded(inst, x0, schedule):
    """The coordinate iteration with the step ``A* (J_{gamma B}(A c) - A c)``, nothing folded."""
    A, gamma, evaluate = inst.A, inst.gamma, inst.B._evaluator
    A_adj = A.T * inst.L.codomain.weights

    def step(c):
        y = A @ c
        return A_adj @ (evaluate(gamma, y) - y)

    return _solve_in_coordinates(inst, x0, schedule, step, None, True)


KINDS = ("split-feasibility", "common-zero", "feasibility-product", "wiener", "prox-mixture")


def kind_instance(kind, n):
    """A config-built instance of ``kind`` in weighted metrics: the domain of dimension n,
    four blocks of dimension n/2 with ``||L_k|| = 0.95``, and V spanned by n/2 vectors."""
    rng = np.random.default_rng([n, KINDS.index(kind)])
    m, p = n // 2, 4
    H = Space(n, rng.uniform(0.5, 2.0, size=n))
    config = {"kind": kind, "weights": [1.0 / p] * p,
              "spaces": {"domain": {"dim": n, "weights": H.weights.tolist()}}}
    if kind == "feasibility-product":
        config["sets"] = [{"tag": "ball", "center": H.random(rng).tolist(),
                           "radius": 0.25 * np.sqrt(n)} for _ in range(p)]
        return generate_instance(InstanceSpec.from_dict(config))
    blocks = [Space(m, rng.uniform(0.5, 2.0, size=m)) for _ in range(p)]
    maps = []
    for G in blocks:
        M = rng.standard_normal((m, n))
        maps.append((0.95 / LinearMap(H, G, M).op_norm() * M).tolist())

    def point(G):
        return G.random(rng).tolist()

    def ball(G):
        return {"tag": "ball", "center": point(G), "radius": 0.5}

    def box(G):
        c = G.random(rng)
        return {"tag": "box", "lower": (c - 0.5).tolist(), "upper": (c + 0.5).tolist()}

    def in_metric(G, P):  # W^-1 P: monotone (self-adjoint when P is) in G's metric
        return (P / G.weights[:, None]).tolist()

    S = rng.standard_normal((m, m))
    sets = {
        "split-feasibility": lambda: [box(blocks[0]), ball(blocks[1]),
                                      {"tag": "singleton", "point": point(blocks[2])},
                                      ball(blocks[3])],
        "common-zero": lambda: [
            {"tag": "linear", "matrix": in_metric(blocks[0], 0.5 * (S - S.T) + 0.1 * np.eye(m))},
            {"tag": "scaled-identity", "c": 0.5},
            {"tag": "normal-cone", "set": ball(blocks[2])},
            {"tag": "zero"},
        ],
        "wiener": lambda: [{"f": {"tag": "scale", "c": 0.6}, "point": point(G)} for G in blocks],
        "prox-mixture": lambda: [
            {"tag": "abs"},
            {"tag": "quadratic", "q": in_metric(blocks[1], S @ S.T / m + 0.1 * np.eye(m)),
             "b": point(blocks[1])},
            {"tag": "half-sq-dist", "point": point(blocks[2])},
            {"tag": "indicator", "set": box(blocks[3])},
        ],
    }[kind]()
    config["spaces"]["blocks"] = [{"dim": m, "weights": G.weights.tolist()} for G in blocks]
    config.update(maps=maps, sets=sets, subspace=[H.random(rng).tolist() for _ in range(m)])
    return generate_instance(InstanceSpec.from_dict(config))


def without_derivatives(inst):
    """``inst`` with each block's family rebuilt bare, declaring no derivative: the
    same steps, with nothing folded and no Newton candidate."""
    blocks = [(L, ResolventFamily(fam.space, fam.kind, fam._evaluator, fam.scale_domain), w)
              for L, fam, w in inst.blocks]
    return RelaxedInstance.from_blocks(inst.V, blocks, inst.gamma, kind=inst.kind)


def affine_singleton_instances():
    """All-affine split-feasibility instances with singleton targets, weighted metrics:
    the property-suite draws on which the plain steps stall (their seeds fail
    ``residual-agreement`` and ``oracle-agreement``), five more draws, and n = 50."""
    draws = [[1061143462, 24], [1112293236, 24], [1155723359, 26]] + [[7, i] for i in range(5)]
    out = [_random_split_instance(np.random.default_rng(d)) for d in draws]
    return out + [coordinate_instance(("point",) * 4)[0]]


class TestSchedule:
    def test_defaults(self):
        s = Schedule()
        assert s.lam == 1.0 and s.tol == 1e-10

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            Schedule(lam=2.5)
        with pytest.raises(ValidationError):
            Schedule(lam=1e-5)
        with pytest.raises(ValidationError):
            Schedule(lam=[1.0, 1.9995])

    def test_rejects_empty_list(self):
        with pytest.raises(ValidationError):
            Schedule(lam=[])

    def test_lambda_is_a_float(self):
        assert type(Schedule(lam=1).lam) is float and Schedule(lam=1).lam == 1.0
        assert type(Schedule(lam=np.float64(1.3)).lam) is float

    @pytest.mark.parametrize("kwargs", [
        {"max_iterations": "abc"}, {"max_iterations": 2.7}, {"max_iterations": -1},
        {"max_iterations": True}, {"lam": "abc"}, {"lam": [1.0, "abc"]},
        {"tol": float("nan")}, {"tol": "1e-10"}, {"lam": [1.0, 1.0]},
    ])
    def test_rejects_malformed_values(self, kwargs):
        with pytest.raises(ValidationError):
            Schedule(**kwargs)

    def test_integral_floats_are_counts(self):
        s = Schedule(max_iterations=1e5)
        assert s.max_iterations == 100_000 and type(s.max_iterations) is int


class TestProximalPoint:
    def test_constant_map_converges_in_one_step(self):
        target = np.array([5.0])
        x, trace = proximal_point(R1, lambda v: target, np.zeros(1), Schedule())
        assert x == pytest.approx([5.0])
        assert trace.iterations == 1
        assert trace.reason == "converged"

    def test_halving_map_geometric(self):
        x, trace = proximal_point(
            R1, lambda v: 0.5 * v, np.ones(1), Schedule(tol=1e-12), keep_iterates=True
        )
        for n, it in enumerate(trace.iterates[:12]):
            assert it == pytest.approx([0.5**n])
        ratios = np.array(trace.fp_residual[1:10]) / np.array(trace.fp_residual[:9])
        assert ratios == pytest.approx(0.5 * np.ones(9))

    def test_identity_map_terminates_immediately(self):
        x0 = np.array([1.0, 2.0])
        x, trace = proximal_point(R2, lambda v: v, x0, Schedule())
        assert trace.iterations == 0
        assert x == pytest.approx(x0)
        assert trace.fp_residual == [0.0]

    def test_removed_parameters(self):
        # The steps use exact evaluations of J: no error stream, and no sum of it.
        # The trace records only what the loop measures: no distance to a reference.
        for removed in ({"errors": [np.zeros(1)]}, {"reference": np.zeros(1)}):
            with pytest.raises(TypeError, match="unexpected keyword"):
                proximal_point(R1, lambda v: 0.5 * v, np.ones(1), Schedule(), **removed)
        for column in ("inexact_weighted_sum", "dist_ref", "var_residual"):
            assert not hasattr(Trace(), column)

    def test_max_iterations_reason(self):
        _, trace = proximal_point(
            R1, lambda v: 0.5 * v, np.ones(1), Schedule(max_iterations=3, tol=0.0)
        )
        assert trace.reason == "max_iterations"
        assert trace.iterations == 3

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_expansive_map_stops_non_finite(self):
        x, trace = proximal_point(R1, lambda v: -9.0 * v, np.ones(1), Schedule())
        assert trace.reason == "non-finite"
        assert trace.fp_residual[-1] == np.inf
        assert np.isfinite(x).all()
        assert len(trace.fp_residual) == trace.iterations + 1


class TestBuildRelaxed:
    def test_full_space_identity_map_reduces_to_resolvent(self):
        V = SubspaceProjector.full(R2)
        B = scaled_identity(R2, 2.0)
        inst = RelaxedInstance(V, identity_map(R2), B, 0.7)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = R2.random(rng)
            assert inst.relaxed_resolvent(x) == pytest.approx(B.resolvent(0.7, x))

    def test_acceptance_fixed_point(self):
        inst = acceptance_instance()
        x = np.array([2.0, 2.0])
        assert inst.fixed_point_residual(x) <= 1e-12

    def test_feasible_point_is_fixed(self):
        inst = acceptance_instance(second_target=1.0)
        xbar = np.array([1.0, 1.0])
        assert inst.fixed_point_residual(xbar) <= 1e-12

    def test_norm_gate(self):
        V = SubspaceProjector.full(R2)
        L = LinearMap(R2, R2, 2.0 * np.eye(2))
        with pytest.raises(ContractionConditionError):
            RelaxedInstance(V, L, scaled_identity(R2, 1.0), 1.0)

    def test_norm_just_above_one_rejected(self):
        # singular values spread over [0.999, 1] (1 + 1.5e-8)
        g = np.random.default_rng(0)
        u, _ = np.linalg.qr(g.standard_normal((20, 20)))
        v, _ = np.linalg.qr(g.standard_normal((20, 20)))
        H = Space(20)
        L = LinearMap(H, H, (u * np.linspace(1.0, 0.999, 20) * (1 + 1.5e-8)) @ v.T)
        with pytest.raises(ContractionConditionError, match="exceeds 1"):
            RelaxedInstance(SubspaceProjector.full(H), L, scaled_identity(H, 1.0), 1.0)

    def test_zero_map_rejected(self):
        V = SubspaceProjector.full(R2)
        L = LinearMap(R2, R2, np.zeros((2, 2)))
        with pytest.raises(ContractionConditionError):
            RelaxedInstance(V, L, scaled_identity(R2, 1.0), 1.0)

    def test_space_mismatch(self):
        V = SubspaceProjector.full(R2)
        with pytest.raises(ValidationError):
            RelaxedInstance(V, identity_map(R2), scaled_identity(Space(3), 1.0), 1.0)

    def test_blocks_agree_with_the_stacked_map_and_the_product(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            inst = _random_split_instance(rng)
            maps, fams, w = zip(*inst.blocks)
            assert np.array_equal(inst.L.matrix, np.vstack([L.matrix for L in maps]))
            assert [fam for fam, _sl in inst.B.factors] == list(fams)
            assert inst.L.codomain == inst.B.space == product_space([L.codomain for L in maps], w)

    def test_one_weighted_block_is_stacked(self):
        L = LinearMap(R2, R1, [[1.0, 0.0]])
        fam = normal_cone(Singleton(R1, [1.0]))
        V = SubspaceProjector(R2, [[1.0, 1.0]])
        inst = RelaxedInstance.from_blocks(V, [(L, fam, 0.5)], 1.0)
        assert inst.L.codomain == inst.B.space == Space(1, [0.5])
        x, trace = solve_relaxed(inst, R2.zeros(), Schedule(tol=1e-12))
        assert trace.reason == "converged" and x == pytest.approx([1.0, 1.0])

    def test_block_data_enter_only_through_from_blocks(self):
        L = LinearMap(R2, R1, [[1.0, 0.0]])
        V = SubspaceProjector(R2, [[1.0, 1.0]])
        one, five = normal_cone(Singleton(R1, [1.0])), normal_cone(Singleton(R1, [5.0]))
        with pytest.raises(TypeError):  # no second copy of L and B beside the blocks
            RelaxedInstance(V, L, one, 1.0, blocks=[(L, five, 1.0)])
        plain = RelaxedInstance(V, L, one, 1.0, kind="split-feasibility")
        assert plain.blocks is None
        with pytest.raises(ValidationError, match="block structure"):
            solve_blocks(plain, R2.zeros())
        with pytest.raises(ValidationError):
            least_squares_oracle(plain)
        inst = RelaxedInstance.from_blocks(V, [(L, five, 1.0)], 1.0, kind="split-feasibility")
        schedule = Schedule(tol=1e-12)
        for x in (solve_relaxed(inst, R2.zeros(), schedule)[0],
                  solve_blocks(inst, R2.zeros(), schedule)[0], least_squares_oracle(inst)[0]):
            assert x == pytest.approx([5.0, 5.0])

    def test_wiener_solve_and_verdict_read_one_c(self):
        # the step folds the form (1 - c, p), the verdict evaluates y - c y + p
        inst = RelaxedInstance.from_blocks(
            SubspaceProjector.full(R1), [(identity_map(R1), make_wiener(R1, 0.9, [1.0]), 1.0)],
            1.0, kind="wiener")
        x, trace = solve_relaxed(inst, R1.zeros(), Schedule(tol=1e-12))
        assert trace.reason == "converged" and x == pytest.approx([1.0 / 0.9])
        assert verify_exact_relaxation(inst, x, 1e-8).verdict == "S1 attained"


class TestSolveRelaxed:
    def test_hand_recursion(self):
        inst = acceptance_instance()
        _, trace = solve_relaxed(
            inst, R2.zeros(), Schedule(max_iterations=3, tol=0.0), keep_iterates=True
        )
        ts = [it[0] for it in trace.iterates]
        assert ts == pytest.approx([0.0, 1.0, 1.5, 1.75])

    def test_converges_to_least_squares_point(self):
        inst = acceptance_instance()
        x, trace = solve_relaxed(inst, R2.zeros(), Schedule())
        assert trace.reason == "converged"
        assert x == pytest.approx([2.0, 2.0], abs=1e-9)

    def test_consistent_instance_solves_original(self):
        inst = acceptance_instance(second_target=1.0)
        x, _ = solve_relaxed(inst, R2.zeros(), Schedule())
        assert inst.original_residual(x) <= 1e-9

    def test_starting_at_solution_takes_no_steps(self):
        inst = acceptance_instance()
        x, trace = solve_relaxed(inst, [2.0, 2.0], Schedule())
        assert trace.iterations == 0
        assert x == pytest.approx([2.0, 2.0])

    def test_x0_outside_v_is_projected(self):
        inst = acceptance_instance()
        _, trace = solve_relaxed(inst, [1.0, 0.0], Schedule(max_iterations=5),
                                 keep_iterates=True)
        assert trace.iterates[0] == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_residuals_nonincreasing_for_small_lambda(self):
        inst = acceptance_instance()
        for lam in (1.0, 0.7):
            _, trace = solve_relaxed(inst, R2.zeros(), Schedule(lam=lam))
            diffs = np.diff(trace.fp_residual)
            assert np.all(diffs <= 1e-9)

    def test_engine_equivalence_suite(self):
        res = suite_engine_equivalence(np.random.default_rng([19, 0]), 500)
        assert res.passed, res.line()

    def test_fejer_suite(self):
        res = suite_fejer(np.random.default_rng([19, 1]), 400)
        assert res.passed, res.line()


class TestSolveBlocks:
    def test_single_block_matches_stacked(self):
        inst = acceptance_instance()
        x0 = inst.V.apply(np.array([0.3, -0.7]))
        sched = Schedule(max_iterations=40, tol=1e-13)
        xa, ta = solve_relaxed(inst, x0, sched, keep_iterates=True)
        xb, tb = solve_blocks(inst, x0, sched, keep_iterates=True)
        assert len(ta.iterates) == len(tb.iterates)
        for u, v in zip(ta.iterates, tb.iterates):
            assert u == pytest.approx(v, abs=1e-13)

    def test_wiener_converges_to_stationary_point(self):
        inst = wiener_instance()
        x, trace = solve_blocks(inst, R2.zeros(), Schedule())
        assert trace.reason == "converged"
        assert x == pytest.approx([6.0, 0.0], abs=1e-8)

    def test_wiener_blockwise_equals_stacked(self):
        inst = wiener_instance()
        sched = Schedule(max_iterations=50, tol=1e-13)
        xa, ta = solve_relaxed(inst, R2.zeros(), sched, keep_iterates=True)
        xb, tb = solve_blocks(inst, R2.zeros(), sched, keep_iterates=True)
        n = min(len(ta.iterates), len(tb.iterates))
        for u, v in zip(ta.iterates[:n], tb.iterates[:n]):
            assert u == pytest.approx(v, abs=1e-12)

    def test_requires_block_structure(self):
        V = SubspaceProjector.full(R2)
        inst = RelaxedInstance(V, identity_map(R2), scaled_identity(R2, 1.0), 1.0)
        with pytest.raises(ValidationError):
            solve_blocks(inst, R2.zeros(), Schedule())

    def test_block_stacked_suite(self):
        res = suite_block_stacked(np.random.default_rng([19, 2]), 300)
        assert res.passed, res.line()


class TestCoordinateKernel:
    """The solvers iterate on V's coordinates and lift ``x = U c``."""

    SCHEDULE = Schedule(lam=1.3, max_iterations=80, tol=0.0)

    @pytest.mark.parametrize("solver", [solve_relaxed, solve_blocks])
    def test_iterates_stay_in_v(self, solver):
        inst, x0 = coordinate_instance()
        _, trace = solver(inst, x0, self.SCHEDULE, keep_iterates=True)
        assert len(trace.iterates) == 81
        for x in trace.iterates:
            assert inst.V.residual_norm(x) <= 1e-14 * (1.0 + inst.space.norm(x))

    @pytest.mark.parametrize("solver", [solve_relaxed, solve_blocks])
    def test_removed_parameters(self, solver):
        inst, x0 = coordinate_instance()
        with pytest.raises(TypeError, match="unexpected keyword"):
            solver(inst, x0, self.SCHEDULE, reference=x0)

    @pytest.mark.parametrize("solver", [solve_relaxed, solve_blocks])
    def test_var_residual_is_scaled_fp_residual(self, solver):
        # The membership term of the variational residual vanishes on the iterates U c.
        inst, x0 = coordinate_instance()
        _, trace = solver(inst, x0, self.SCHEDULE, keep_iterates=True)
        for x, r in zip(trace.iterates, trace.fp_residual, strict=True):
            assert variational_residual(inst, x) == pytest.approx(r / inst.gamma, rel=1e-12,
                                                                  abs=1e-15)

    @pytest.mark.parametrize("solver", [solve_relaxed, solve_blocks])
    def test_matches_proximal_point_on_relaxed_resolvent(self, solver):
        for tags in (("box", "ball", "point", "half"), ("point",) * 4):  # mixed, all affine
            inst, x0 = coordinate_instance(tags)
            _, ta = solver(inst, x0, self.SCHEDULE, keep_iterates=True)
            _, tb = proximal_point(inst.space, inst.relaxed_resolvent, x0, self.SCHEDULE,
                                   keep_iterates=True)
            assert ta.iterations == tb.iterations == 80
            for u, v in zip(ta.iterates, tb.iterates):
                assert inst.space.norm(u - v) <= 1e-12

    @staticmethod
    def check_every_update_uses_lambda(solver, lam, monkeypatch):
        # Record each point the coordinate step is taken at and the step there;
        # the run must move by ``lam * step`` at every update, bit for bit.
        calls, build = [], solvers._cocomposition_step

        def recording(*args):
            step, jacobian = build(*args)

            def recorded(c):
                s = step(c)
                calls.append((c.copy(), s.copy()))
                return s
            return recorded, jacobian
        monkeypatch.setattr(solvers, "_cocomposition_step", recording)
        inst, x0 = coordinate_instance()
        xa, ta = solver(inst, x0, Schedule(lam=lam, max_iterations=40, tol=0.0),
                        keep_iterates=True)
        assert (ta.reason, ta.iterations, len(calls)) == ("max_iterations", 40, 41)
        for (c, s), (c_next, _) in zip(calls, calls[1:]):
            assert np.array_equal(c_next, c + lam * s)
        assert np.array_equal(xa, calls[-1][0] @ inst.V.basis)

    @pytest.mark.parametrize("solver", [solve_relaxed, solve_blocks])
    def test_constant_lambda_moves_every_update(self, solver, monkeypatch):
        self.check_every_update_uses_lambda(solver, 1.3, monkeypatch)

    @pytest.mark.parametrize("solver", [solve_relaxed, solve_blocks])
    def test_unit_lambda_moves_every_update(self, solver, monkeypatch):
        # lambda = 1 updates as z + s, which equals z + 1.0 * s bit for bit
        self.check_every_update_uses_lambda(solver, 1.0, monkeypatch)

    @pytest.mark.parametrize("solver", [solve_relaxed, solve_blocks])
    def test_zero_start_is_the_origin_of_v(self, solver):
        inst, _ = coordinate_instance()
        _, trace = solver(inst, inst.space.zeros(), Schedule(max_iterations=2),
                          keep_iterates=True)
        assert not np.any(trace.iterates[0])
        A = inst.A
        step, _ = _cocomposition_step(A, A.T * inst.L.codomain.weights, inst.B, inst.gamma)
        assert trace.fp_residual[0] == pytest.approx(
            coordinate_norm(step(np.zeros(inst.V.rank))), rel=1e-12)

    @pytest.mark.parametrize("solver", [solve_relaxed, solve_blocks])
    def test_x0_off_v_is_projected(self, solver):
        inst, x0 = coordinate_instance()
        _, inside = solver(inst, x0, Schedule(max_iterations=2), keep_iterates=True)
        assert inside.iterates[0] == pytest.approx(x0, abs=1e-13)
        off = x0 + np.random.default_rng(1).standard_normal(inst.space.dim)
        _, trace = solver(inst, off, Schedule(max_iterations=2), keep_iterates=True)
        assert trace.iterates[0] == pytest.approx(inst.V.apply(off), abs=1e-13)


class TestAffineFold:
    """An affine ``B`` is folded into ``G c + h``; the iteration is unchanged."""

    VARIANTS = [("point",) * 4, ("box", "ball", "point", "ball"), ("box", "ball", "half", "ball")]
    IDS = ["affine", "mixed", "nonlinear"]
    # One nonlinear block, and affine blocks with h = 0.
    MORE = [("point", "box", "point", "point"), ("ball",), ("origin",) * 4,
            ("origin", "box", "origin", "origin")]
    MORE_IDS = ["one-nonlinear", "single-block", "affine-no-offset", "mixed-no-offset"]

    @pytest.mark.parametrize("solver", [solve_relaxed, solve_blocks])
    @pytest.mark.parametrize("tags", VARIANTS + MORE, ids=IDS + MORE_IDS)
    def test_matches_unfolded_step(self, solver, tags):
        inst, x0 = coordinate_instance(tags)
        schedule = Schedule(lam=1.3, max_iterations=80, tol=0.0)
        _, ta = solver(inst, x0, schedule, keep_iterates=True)
        _, tb = solve_unfolded(inst, x0, schedule)
        assert ta.iterations == tb.iterations == 80
        for u, v in zip(ta.iterates, tb.iterates):
            assert inst.space.norm(u - v) <= 1e-12

    @pytest.mark.parametrize("solver", [solve_relaxed, solve_blocks])
    @pytest.mark.parametrize("tags", VARIANTS + MORE, ids=IDS + MORE_IDS)
    def test_same_iterations_to_tolerance(self, solver, tags):
        inst, x0 = coordinate_instance(tags)
        schedule = Schedule(lam=1.0, max_iterations=3000, tol=1e-9)
        xa, ta = solver(inst, x0, schedule)
        xb, tb = solve_unfolded(inst, x0, schedule)
        assert (ta.reason, ta.iterations) == (tb.reason, tb.iterations)
        assert inst.space.norm(xa - xb) <= 1e-12 * (1.0 + inst.space.norm(xb))

    @pytest.mark.parametrize("solver", [solve_relaxed, solve_blocks])
    @pytest.mark.parametrize("tags, evaluations", [(VARIANTS[1], 11), (VARIANTS[0], 1)],
                             ids=["mixed", "affine"])
    def test_block_evaluations(self, solver, tags, evaluations, monkeypatch):
        # A mixed product is evaluated whole at each of the 11 steps; an all-affine one
        # once per block, at 0, for the offset J(0) of its fold.
        inst, x0 = coordinate_instance(tags)
        calls, points = {}, []
        for k, (_L, fam, _w) in enumerate(inst.blocks):
            def counted(gamma, y, k=k, evaluate=fam._evaluator):
                calls[k] = calls.get(k, 0) + 1
                points.append(y.copy())
                return evaluate(gamma, y)
            monkeypatch.setattr(fam, "_evaluator", counted)
        solver(inst, x0, Schedule(max_iterations=10, tol=0.0))
        assert calls == dict.fromkeys(range(4), evaluations)
        if evaluations == 1:
            assert not any(np.any(y) for y in points)

    def test_single_block_step_is_the_unfolded_step(self):
        inst, x0 = coordinate_instance(("ball",))
        schedule = Schedule(lam=1.0, max_iterations=60, tol=0.0)
        xa, ta = solve_relaxed(inst, x0, schedule, keep_iterates=True)
        xb, tb = solve_unfolded(inst, x0, schedule)
        assert ta.fp_residual == tb.fp_residual
        assert np.array_equal(xa, xb)

    @pytest.mark.parametrize("scale", [None, 0.5])
    def test_scale_checked_on_every_block(self, scale):
        # The product's one scale check covers its Wiener factor, pinned to scale 1.
        wiener = bare_wiener(R1, 0.5, [0.0]) if scale is None else make_wiener(R1, scale, [0.0])
        B = product_family([normal_cone(Singleton(R1, [1.0])), wiener])
        A = np.ones((2, 2))
        _cocomposition_step(A, A, B, 1.0)
        with pytest.raises(ScaleRestrictionError):
            _cocomposition_step(A, A, B, 2.0)

    def test_suite_wiener_blocks_are_evaluated(self):
        # suite_block_stacked's Wiener blocks declare no derivative, so the
        # cocomposition step evaluates them rather than folding them.
        rng = np.random.default_rng(7)
        for _ in range(20):
            for _L, fam, _w in _random_wiener_instance(rng).blocks:
                assert fam.derivative is None and not fam.constant_derivative


class TestCocompositionStep:
    """``_cocomposition_step`` against the written-out step ``A* (J(A c) - A c)`` and its
    Jacobian ``A* (D(A c) - I) A``, in each of its cases."""

    CASES = {
        "all-folded": ("point",) * 4,
        "none-folded": ("box", "ball", "half", "ball"),
        "mixed": ("box", "ball", "point", "ball"),
        "one-nonlinear": ("point", "box", "point", "point"),
        "single-block": ("ball",),
        "non-product": "ball",
        "non-product-affine": "point",
    }
    UNFOLDED = ["none-folded", "mixed", "one-nonlinear", "single-block", "non-product"]

    @staticmethod
    def written_out(case):
        """``(A, A*, B, gamma, c)``; a non-product ``B`` is the normal cone of one set."""
        tags = TestCocompositionStep.CASES[case]
        if isinstance(tags, tuple):
            inst, x0 = coordinate_instance(tags)
            A = inst.A
            return A, A.T * inst.L.codomain.weights, inst.B, inst.gamma, inst.V.basis @ (
                inst.space.weights * x0)
        rng = np.random.default_rng(7)
        G = Space(30, rng.uniform(0.5, 2.0, size=30))
        cset = Ball(G, np.ones(30), 0.2) if tags == "ball" else Singleton(G, G.random(rng))
        A = rng.standard_normal((30, 12)) / np.sqrt(30)
        return A, A.T * G.weights, normal_cone(cset), 0.8, rng.standard_normal(12)

    @pytest.mark.parametrize("case", CASES)
    def test_matches_the_written_out_forms(self, case):
        A, A_adj, B, gamma, c = self.written_out(case)
        step, jacobian = _cocomposition_step(A, A_adj, B, gamma)
        for z in (c, 0.0 * c, 3.0 * c):
            y = A @ z
            want_step = A_adj @ (B._evaluator(gamma, y) - y)
            want_jacobian = A_adj @ B.derivative(gamma, y, A)
            assert np.max(np.abs(step(z) - want_step)) <= 1e-12 * np.max(np.abs(want_step))
            assert np.max(np.abs(jacobian(z) - want_jacobian)) <= \
                1e-12 * np.max(np.abs(want_jacobian))

    @pytest.mark.parametrize("case", UNFOLDED)
    def test_nothing_folded_is_the_written_out_forms_bit_for_bit(self, case):
        A, A_adj, B, gamma, c = self.written_out(case)
        step, jacobian = _cocomposition_step(A, A_adj, B, gamma)
        y = A @ c
        assert np.array_equal(step(c), A_adj @ (B._evaluator(gamma, y) - y))
        assert np.array_equal(jacobian(c), A_adj @ B.derivative(gamma, y, A))

    def test_kinds_small_updates(self, workloads, solve_calls):
        # The benchmark's kinds-small configs of seed 0, from x0 = 0: every update is a
        # Newton candidate, and each takes one LU solve.
        pins, solves = {}, 0
        for name, config in workloads.kinds_small(0):
            spec = InstanceSpec.from_dict(config)
            inst = generate_instance(spec)
            before = len(solve_calls)
            _, trace = solve_relaxed(inst, inst.space.zeros(), spec.build_schedule())
            solves += len(solve_calls) - before
            assert trace.reason == "converged"
            pins[name] = (trace.iterations, trace.newton_candidates, trace.fallbacks)
        assert pins == {f"{kind}-n{n}": (k, k, 0) for n in (4, 50) for kind, k in [
            ("split-feasibility-mixed", 4), ("split-feasibility-singletons", 1),
            ("common-zero", 4), ("feasibility-product", 3), ("wiener", 1),
            ("prox-mixture", 1 if n == 4 else 2)]}
        assert sum(k for k, _, _ in pins.values()) == solves == 29


def coordinate_norm(g):
    return math.sqrt(g.dot(g))


class TestNewton:
    """``Schedule(newton=True)``: safeguarded semismooth Newton candidates on the coordinate step."""

    @pytest.mark.parametrize("solver", [solve_relaxed, solve_blocks])
    def test_default_schedule_is_the_plain_steps(self, solver):
        for tags in (("box", "ball", "point", "half"), ("point",) * 4):  # mixed, all affine
            inst, x0 = coordinate_instance(tags)
            xa, ta = solver(inst, x0, Schedule(), keep_iterates=True)
            xb, tb = solver(inst, x0, Schedule(newton=False), keep_iterates=True)
            assert np.array_equal(xa, xb)
            assert (ta.reason, ta.iterations, ta.fallbacks) == (tb.reason, tb.iterations, 0)
            assert (ta.newton_candidates, ta.rank_G) == (tb.newton_candidates, tb.rank_G) \
                == (0, None)
            assert ta.fp_residual == tb.fp_residual
            assert all(np.array_equal(u, v)
                       for u, v in zip(ta.iterates, tb.iterates, strict=True))

    # feasibility-product has no block structure for solve_blocks
    @pytest.mark.parametrize("kind, n, solver", [
        (kind, n, solver) for kind in KINDS for n in (4, 50)
        for solver in (solve_relaxed, solve_blocks)
        if kind != "feasibility-product" or solver is solve_relaxed
    ])
    def test_ends_near_the_plain_steps_on_every_kind(self, kind, n, solver):
        # The plain steps, run to tol / 1000, contract by q per step at the end:
        # a point with residual tol lies within tol / (1 - q) of the fixed point.
        # 1 - q is sigma_min(L U)^2 for singleton targets and smaller when a
        # block's resolvent displacement has less curvature (zero, scaled
        # identity, boxes, the l1 norm).
        inst = kind_instance(kind, n)
        tol = 1e-10
        x_km, km = solver(inst, inst.space.zeros(), Schedule(tol=tol / 1000))
        x, trace = solver(inst, inst.space.zeros(), Schedule(tol=tol, newton=True))
        assert km.reason == trace.reason == "converged"
        assert trace.iterations < km.iterations
        q = km.fp_residual[-1] / km.fp_residual[-2]
        sigma = certificates(inst)["sigma_min_LU"]
        assert 1.0 - q <= sigma**2 * (1.0 + 1e-6)
        assert inst.space.norm(x - x_km) <= tol / (1.0 - q)

    @pytest.mark.parametrize("solver", [solve_relaxed, solve_blocks])
    def test_reaches_the_least_squares_oracle_on_affine_instances(self, solver):
        # Every block affine: the first candidate is the Newton point
        # c_0 - G^-1 step(c_0), the oracle's point, so one update reaches tol
        # 1e-12, the three stalling property-suite draws included.  G has
        # condition up to 1 / sigma_min(L U)^2 (4.8e4 on the first draw), so in
        # float64 a solve is exact to about eps / sigma_min^2 relative, not to 1e-12.
        cases = [(inst, least_squares_oracle(inst)[0]) for inst in affine_singleton_instances()]
        cases += [(inst, wiener_oracle(inst)[0])
                  for inst in (kind_instance("wiener", 4), kind_instance("wiener", 50))]
        for inst, ref in cases:
            x, trace = solver(inst, inst.space.zeros(), Schedule(tol=1e-12, newton=True))
            assert (trace.reason, trace.iterations, trace.fallbacks) == ("converged", 1, 0)
            assert trace.newton_candidates == 1 and trace.rank_G == inst.V.rank
            limit = max(1e-12, np.finfo(float).eps / certificates(inst)["sigma_min_LU"] ** 2)
            assert inst.space.norm(x - ref) <= limit * inst.space.norm(ref)

    @pytest.mark.parametrize("solver", [solve_relaxed, solve_blocks])
    def test_zero_cap_takes_no_exact_update(self, solver):
        inst = affine_singleton_instances()[0]
        x, trace = solver(inst, inst.space.zeros(), Schedule(max_iterations=0, newton=True))
        assert (trace.reason, trace.iterations, trace.rank_G) == ("max_iterations", 0, None)
        assert trace.newton_candidates == 0 and not np.any(x)

    @pytest.mark.parametrize("solver", [solve_relaxed, solve_blocks])
    def test_exact_fixed_point_scales_with_the_targets(self, solver):
        inst, x0 = coordinate_instance(("point",) * 4)
        x, trace = solver(inst, x0, Schedule(newton=True))
        for t in (1e-6, 1e6):
            inst_t, x0_t = coordinate_instance(("point",) * 4, scale=t)
            x_t, trace_t = solver(inst_t, x0_t, Schedule(tol=1e-10 * t, newton=True))
            assert (trace_t.reason, trace_t.iterations, trace_t.rank_G) == \
                (trace.reason, trace.iterations, trace.rank_G) == ("converged", 1, 25)
            assert inst.space.norm(x_t - t * x) <= 1e-12 * t * inst.space.norm(x)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("solver", [solve_relaxed, solve_blocks])
    def test_affine_step_without_a_fixed_point_runs_out(self, solver):
        # B_2 = (Id + 1)^{-1} - Id is the constant -1: it has no zero.  So
        # G = diag(-1/2, 0) and h = (1/2, 1/2) is not in range(G).  The exact
        # candidate is the least-squares point, and the run ends at the cap.
        maps = [LinearMap(R2, R1, [[1.0, 0.0]]), LinearMap(R2, R1, [[0.0, 1.0]])]
        fams = [normal_cone(Singleton(R1, [1.0])), make_wiener(R1, 0.0, [1.0])]
        inst = RelaxedInstance.from_blocks(SubspaceProjector.full(R2),
                                           zip(maps, fams, [0.5, 0.5]), 1.0)
        x, trace = solver(inst, R2.zeros(), Schedule(max_iterations=200, newton=True))
        assert (trace.reason, trace.iterations, trace.rank_G) == ("max_iterations", 200, 1)
        assert trace.fp_residual[-1] == pytest.approx(0.5, rel=1e-12)
        assert x[0] == pytest.approx(1.0, rel=1e-12) and np.all(np.isfinite(x))

    # D = 0.01 rejects Newton candidates that D = 0.1 would take on this instance.
    @pytest.mark.parametrize("D", [solvers._SAFEGUARD_D, 0.01], ids=["default", "binding"])
    @pytest.mark.parametrize("solver", [solve_relaxed, solve_blocks])
    def test_accepted_candidates_meet_the_safeguard(self, solver, D, monkeypatch):
        records = []  # (c, step(c)) and (c, None) for jacobian(c), in the order the loop asked
        build = solvers._cocomposition_step

        def recording(*args):
            step, jacobian = build(*args)

            def recorded(c):
                s = step(c)
                records.append((c.copy(), s))
                return s

            def recorded_jacobian(c):
                records.append((c.copy(), None))
                return jacobian(c)
            return recorded, None if jacobian is None else recorded_jacobian

        monkeypatch.setattr(solvers, "_cocomposition_step", recording)
        monkeypatch.setattr(solvers, "_SAFEGUARD_D", D)
        inst, x0 = coordinate_instance(("box", "ball", "point", "ball"))
        _, trace = solver(inst, x0, Schedule(newton=True))
        # Replay: from an iterate (z, s) each update asks jacobian(z), then
        # evaluates its Newton candidate c (none when the direction is zero)
        # and, when c is rejected, the plain step z + s.  A taken candidate is
        # followed by jacobian(c), or ends the run.
        (z, s), rest = records[0], records[1:]
        first, steps, taken, rejected = coordinate_norm(s), 0, 0, 0
        for i, (c, sc) in enumerate(rest):
            if sc is None:
                assert np.array_equal(c, z)
                continue
            if not np.array_equal(c, z + s):
                assert rest[i - 1][1] is None  # right after jacobian(z)
                if i + 1 < len(rest) and rest[i + 1][1] is not None:
                    rejected += 1
                    continue
                bound = D * first * (taken + 1) ** -(1 + solvers._SAFEGUARD_EPS)
                assert coordinate_norm(sc) <= bound
                assert coordinate_norm(sc) < coordinate_norm(s)  # it lowers the residual
                taken += 1
            z, s = c, sc
            steps += 1
        assert trace.reason == "converged"
        assert (steps, rejected, taken) == \
            (trace.iterations, trace.fallbacks, trace.newton_candidates)
        assert taken > 0 and (rejected > 0) == (D < 1.0)
        # Without derivatives there is no candidate: every evaluation is the plain z + s.
        records.clear()
        _, plain = solver(without_derivatives(inst), x0, Schedule(newton=True))
        (z, s), rest = records[0], records[1:]
        for c, sc in rest:
            assert sc is not None and np.array_equal(c, z + s)
            z, s = c, sc
        assert plain.reason == "converged" and len(rest) == plain.iterations
        assert plain.fallbacks == plain.newton_candidates == 0

    # feasibility-product has no blocks to strip of their derivatives
    @pytest.mark.parametrize("kind, n, solver", [
        (kind, n, solver) for kind in KINDS if kind != "feasibility-product"
        for n in (4, 50) for solver in (solve_relaxed, solve_blocks)
    ])
    def test_newton_and_the_plain_steps_reach_the_same_point(self, kind, n, solver):
        # Stripped of its derivatives, an instance takes the plain steps alone.
        inst = kind_instance(kind, n)
        schedule = Schedule(tol=1e-13, newton=True)
        x, trace = solver(inst, inst.space.zeros(), schedule)
        x_aa, aa = solver(without_derivatives(inst), inst.space.zeros(), schedule)
        assert trace.reason == aa.reason == "converged"
        assert aa.newton_candidates == 0 and aa.rank_G is None
        assert 0 < trace.newton_candidates <= trace.iterations <= aa.iterations
        assert inst.space.norm(x - x_aa) <= 1e-10

    @pytest.mark.parametrize("solver", [solve_relaxed, solve_blocks])
    @pytest.mark.parametrize("variant", ["catalog", "scaled(1.0)", "inverse"])
    def test_a_block_built_through_the_calculus_keeps_its_newton_candidates(self, variant,
                                                                               solver, workloads):
        # The kinds-small common-zero-n50 instance of the benchmark, block 0 (linear, matrix
        # M) as the catalog member, as B.scaled(1.0) and as linear_monotone(M^-1).inverse():
        # each declares its derivative, so all three take the catalog's 4 Newton updates.
        config = dict(workloads.kinds_small(0))["common-zero-n50"]
        inst = generate_instance(InstanceSpec.from_dict(config))
        (L0, B0, w0), *rest = inst.blocks
        B = {"catalog": B0, "scaled(1.0)": B0.scaled(1.0),
             "inverse": linear_monotone(B0.space, np.linalg.inv(config["sets"][0]["matrix"]))
             .inverse()}[variant]
        assert B.constant_derivative
        derived = RelaxedInstance.from_blocks(inst.V, [(L0, B, w0), *rest], inst.gamma,
                                              kind=inst.kind)
        schedule = Schedule(tol=1e-9, max_iterations=100_000, newton=True)
        x, trace = solver(derived, derived.space.zeros(), schedule)
        assert (trace.reason, trace.iterations, trace.newton_candidates) == ("converged", 4, 4)
        x_catalog, _ = solver(inst, inst.space.zeros(), schedule)
        assert inst.space.norm(x - x_catalog) <= 1e-8

    def test_newton_candidate_must_lower_the_residual(self):
        # step(z) = b - z with a Jacobian 100 times too small: every Newton
        # candidate z + 100 step(z) has 99 times the residual, well inside the
        # summable bound, so only the descent test rejects it.
        b = np.array([1.0, -2.0])
        schedule = Schedule(newton=True, tol=1e-12)
        z, trace = _iterate(lambda z: b - z, np.zeros(2), schedule, coordinate_norm,
                            jacobian=lambda z: -0.01 * np.eye(2))
        assert trace.reason == "converged" and np.allclose(z, b, atol=1e-12)
        assert trace.newton_candidates == 0 and trace.fallbacks == trace.iterations > 0
        assert trace.rank_G == 2

    @pytest.mark.filterwarnings("error")
    def test_zero_newton_direction_is_not_tried(self):
        # While every |L x_i| exceeds the soft threshold the l1 block is the
        # constant displacement -gamma sign(L x) / w: its Jacobian is 0 and so
        # is the least-squares Newton direction.  That candidate would be the
        # iterate itself, which the summable bound alone accepts about 1e6
        # times, so it is not tried, and the plain steps go on until the
        # threshold is met.
        H = Space(2, [0.5, 2.0])
        L = LinearMap(H, H, 0.9 * np.eye(2))
        inst = RelaxedInstance.from_blocks(SubspaceProjector.full(H),
                                           [(L, subdifferential(one_norm(H)), 1.0)], 1.0)
        x0 = np.array([100.0, 50.0])
        x, trace = solve_relaxed(inst, x0, Schedule(newton=True))
        _, plain = solve_relaxed(inst, x0, Schedule())
        assert trace.reason == plain.reason == "converged"
        assert trace.iterations <= plain.iterations
        assert trace.fallbacks == 0 and trace.newton_candidates > 0
        assert inst.space.norm(x) <= 1e-10

    def test_non_finite_candidate_is_never_accepted(self):
        # The plain map z -> (z + b) / 2, whose step is NaN away from its plain
        # iterates: each update's Newton candidate, the fixed point b, reads NaN.
        b = np.array([1.0, -2.0])
        last = []

        def step(z):
            if last and not np.array_equal(z, last[-1][0] + last[-1][1]):
                return np.full_like(z, np.nan)
            s = 0.5 * (b - z)
            last.append((z, s))
            return s

        z, trace = _iterate(step, np.zeros(2), Schedule(newton=True), coordinate_norm,
                            jacobian=lambda z: -0.5 * np.eye(2))
        last.clear()
        z_km, km = _iterate(step, np.zeros(2), Schedule(), coordinate_norm)
        assert trace.reason == km.reason == "converged"
        assert np.array_equal(z, z_km) and trace.fp_residual == km.fp_residual
        assert trace.fallbacks == trace.iterations > 0 and trace.newton_candidates == 0

    @pytest.mark.parametrize("solver", [solve_relaxed, solve_blocks])
    @pytest.mark.parametrize("tags", TestAffineFold.VARIANTS, ids=TestAffineFold.IDS)
    def test_scaling_the_data_changes_no_decision(self, solver, tags):
        # Powers of two near 1e-6 and 1e6 scale every float exactly, so any
        # absolute threshold in the Newton stage would show as a changed step.
        inst, x0 = coordinate_instance(tags)
        x, trace = solver(inst, x0, Schedule(newton=True))
        for scale in (2.0**-20, 2.0**20):
            inst_t, x0_t = coordinate_instance(tags, scale=scale)
            x_t, trace_t = solver(inst_t, x0_t, Schedule(tol=1e-10 * scale, newton=True))
            assert (trace_t.reason, trace_t.iterations, trace_t.fallbacks) == \
                (trace.reason, trace.iterations, trace.fallbacks)
            assert np.array_equal(x_t, scale * x)

    @pytest.mark.parametrize("tags", TestAffineFold.VARIANTS, ids=TestAffineFold.IDS)
    def test_stacked_and_blockwise_agree_at_convergence(self, tags):
        inst, x0 = coordinate_instance(tags)
        schedule = Schedule(tol=1e-13, newton=True)
        xa, ta = solve_relaxed(inst, x0, schedule)
        xb, tb = solve_blocks(inst, x0, schedule)
        assert ta.reason == tb.reason == "converged"
        assert inst.space.norm(xa - xb) <= 1e-10

    def test_proximal_point_refuses_newton(self):
        with pytest.raises(ValidationError, match="newton"):
            proximal_point(R1, lambda v: 0.5 * v, np.ones(1), Schedule(newton=True))


class TestResidualsAndVerification:
    def test_variational_residual_at_solution(self):
        inst = acceptance_instance()
        assert variational_residual(inst, [2.0, 2.0]) <= 1e-12

    def test_variational_residual_detects_membership_defect(self):
        inst = acceptance_instance()
        x = np.array([1.0, 0.0])
        assert variational_residual(inst, x) >= inst.V.residual_norm(x)

    def test_consistent_solution_has_zero_residual(self):
        inst = acceptance_instance(second_target=1.0)
        assert variational_residual(inst, [1.0, 1.0]) <= 1e-12

    def test_verify_consistent(self):
        inst = acceptance_instance(second_target=1.0)
        x, _ = solve_relaxed(inst, R2.zeros(), Schedule())
        report = verify_exact_relaxation(inst, x, 1e-8, known_feasible=[1.0, 1.0])
        assert report.verdict == "S1 attained"
        assert report.original_residual <= 1e-8

    def test_verify_inconsistent(self):
        inst = acceptance_instance()
        x, _ = solve_relaxed(inst, R2.zeros(), Schedule())
        report = verify_exact_relaxation(inst, x, 1e-8)
        assert report.verdict == "relaxed only"
        # || L x - J(L x) || in the (1/2, 1/2)-weighted metric at x = (2, 2)
        assert report.original_residual == pytest.approx(1.0, abs=1e-8)

    def test_verify_random_point_fails(self):
        inst = acceptance_instance()
        report = verify_exact_relaxation(inst, [4.0, -1.0], 1e-8)
        assert report.verdict == "not a solution"

    def test_bad_certificate_rejected(self):
        inst = acceptance_instance()
        x, _ = solve_relaxed(inst, R2.zeros(), Schedule())
        with pytest.raises(ValidationError):
            verify_exact_relaxation(inst, x, 1e-8, known_feasible=[9.0, 9.0])

    def test_residual_agreement_suite(self):
        res = suite_residual_agreement(np.random.default_rng([19, 3]), 400)
        assert res.passed, res.line()


def divergent_instance():
    """||L|| = 3 with the gate bypassed: ``c <- -8 c + h`` diverges."""
    L = LinearMap(R2, R2, 3.0 * np.eye(2))
    B = normal_cone(Singleton(R2, [1.0, 1.0]))
    return RelaxedInstance.from_blocks(SubspaceProjector.full(R2), [(L, B, 1.0)], 1.0,
                                       unsafe=True)


class TestTraceInvariants:
    """Every column has one row per evaluated iterate, whatever stopped the run."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("keep", [False, True], ids=["no-iterates", "iterates"])
    @pytest.mark.parametrize("reason", ["converged", "max_iterations", "non-finite"])
    @pytest.mark.parametrize("solver", [solve_relaxed, solve_blocks, proximal_point])
    def test_columns(self, solver, reason, keep):
        inst = divergent_instance() if reason == "non-finite" else acceptance_instance()
        schedule = Schedule(max_iterations=5, tol=0.0) if reason == "max_iterations" else Schedule()
        if solver is proximal_point:
            _, trace = proximal_point(inst.space, inst.relaxed_resolvent, R2.zeros(), schedule,
                                      keep_iterates=keep)
        else:
            _, trace = solver(inst, R2.zeros(), schedule, keep_iterates=keep)
        assert trace.reason == reason
        rows = trace.iterations + 1
        assert len(trace.fp_residual) == len(trace.wall_ns) == rows
        assert len(trace.iterates) == (rows if keep else 0)
        assert all(np.isfinite(x).all() for x in trace.iterates)


class TestTrace:
    @pytest.mark.parametrize("solver", [solve_relaxed, proximal_point])
    def test_csv_round_trip(self, tmp_path, solver):
        inst = acceptance_instance()
        if solver is proximal_point:
            _, trace = proximal_point(inst.space, inst.relaxed_resolvent, R2.zeros(), Schedule())
        else:
            _, trace = solve_relaxed(inst, R2.zeros(), Schedule())
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iter", "fp_residual", "wall_ns"]
        assert rows[1:] == [[str(i), repr(r), str(ns)] for i, (r, ns)
                            in enumerate(zip(trace.fp_residual, trace.wall_ns, strict=True))]

    def test_file_mode_is_that_of_a_plain_open(self, tmp_path):
        # A new file gets 0o666 less the umask, an existing one keeps its mode.
        _, trace = proximal_point(R1, lambda v: 0.5 * v, np.ones(1), Schedule())
        with open(tmp_path / "plain.csv", "w"):
            pass
        trace.to_csv(tmp_path / "t.csv")
        assert (tmp_path / "t.csv").stat().st_mode == (tmp_path / "plain.csv").stat().st_mode
        (tmp_path / "t.csv").chmod(0o640)
        trace.to_csv(tmp_path / "t.csv")
        assert (tmp_path / "t.csv").stat().st_mode & 0o777 == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["plain.csv", "t.csv"]

    @pytest.mark.parametrize("short", ["fp_residual", "wall_ns"])
    def test_ragged_columns_raise(self, tmp_path, short):
        trace = Trace(fp_residual=[1.0, 0.5], wall_ns=[10, 20])
        setattr(trace, short, [])
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError):
            trace.to_csv(path)
        assert list(tmp_path.iterdir()) == []
