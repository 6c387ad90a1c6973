"""Proximal point engine, relaxed instances, residuals, verification."""

import csv

import numpy as np
import pytest

from rescomp.errors import ContractionConditionError, ScaleRestrictionError, ValidationError
from rescomp.hilbert import LinearMap, Space, SubspaceProjector, identity_map, stack
from rescomp.operators import make_wiener, normal_cone, product_family, scaled_identity
from rescomp.properties import (
    suite_block_stacked,
    suite_engine_equivalence,
    suite_fejer,
    suite_residual_agreement,
)
from rescomp.sets import Ball, Box, Halfspace, Singleton
from rescomp.solvers import (
    RelaxedInstance,
    Schedule,
    _coordinate_step,
    _solve_in_coordinates,
    build_relaxed,
    proximal_point,
    solve_blocks,
    solve_relaxed,
    variational_residual,
    verify_exact_relaxation,
)

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
    stacked = stack([L1, L2], [0.5, 0.5])
    B = product_family(fams, [0.5, 0.5])
    return RelaxedInstance(
        V, stacked, B, 1.0, kind="split-feasibility",
        blocks=[(L1, fams[0], 0.5), (L2, fams[1], 0.5)],
    )


def wiener_instance():
    V = SubspaceProjector(R2, [[1.0, 0.0]])
    p = np.array([3.0, 1.0])
    fwd = lambda y: 0.5 * y
    B = make_wiener(R2, fwd, p)
    return RelaxedInstance(
        V, identity_map(R2), B, 1.0, kind="wiener", blocks=[(identity_map(R2), B, 1.0)],
        wiener_terms=[(0.5, p)],
    )


def coordinate_instance(tags=("box", "ball", "point", "half")):
    """Weighted metrics, n = 50, rank(V) = 25, m = 100: four blocks of 25 rows, block k
    the normal cone of a set of kind ``tags[k]``."""
    rng = np.random.default_rng(2024)
    n, m, p, r = 50, 25, 4, 25
    H = Space(n, rng.uniform(0.5, 2.0, size=n))
    spaces = [Space(m, rng.uniform(0.5, 2.0, size=m)) for _ in range(p)]
    maps = [LinearMap(H, g, rng.standard_normal((m, n)) / np.sqrt(n)) for g in spaces]
    w = rng.uniform(0.5, 1.0, size=p)
    w = list(0.9 * w / sum(wk * L.op_norm() ** 2 for wk, L in zip(w, maps)))
    make = {
        "box": lambda g: Box(g, -0.1, 0.1),
        "ball": lambda g: Ball(g, np.ones(m), 0.2),
        "point": lambda g: Singleton(g, rng.standard_normal(m)),
        "half": lambda g: Halfspace(g, np.ones(m), -1.0),
    }
    fams = [normal_cone(make[tag](g)) for tag, g in zip(tags, spaces)]
    V = SubspaceProjector(H, rng.standard_normal((r, n)))
    inst = RelaxedInstance(V, stack(maps, w), product_family(fams, w), 0.8,
                           kind="split-feasibility", blocks=list(zip(maps, fams, w)))
    assert (V.rank, inst.L.matrix.shape) == (r, (p * m, n))
    return inst, V.apply(H.random(rng))


def solve_unfolded(inst, x0, schedule):
    """The coordinate iteration with the step ``A* (J_{gamma B}(A c) - A c)``, nothing folded."""
    A, gamma, evaluate = inst.A, inst.gamma, inst.B._evaluator
    A_adj = A.T * inst.L.codomain.weights

    def step(c):
        y = A @ c
        return A_adj @ (evaluate(gamma, y) - y)

    return _solve_in_coordinates(inst, x0, schedule, step, None, True)


class TestSchedule:
    def test_defaults(self):
        s = Schedule()
        assert s.lambda_at(0) == 1.0 and s.tol == 1e-10

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            Schedule(lam=2.5)
        with pytest.raises(ValidationError):
            Schedule(lam=1e-5)
        with pytest.raises(ValidationError):
            Schedule(lam=[1.0, 1.9995])

    def test_list_schedule_caps_updates(self):
        s = Schedule(lam=[1.0, 1.5, 0.5], max_iterations=100)
        assert s.update_cap() == 3
        assert s.lambda_at(1) == 1.5

    def test_rejects_empty_list(self):
        with pytest.raises(ValidationError):
            Schedule(lam=[])


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

    def test_inexact_evaluations_are_logged(self):
        errs = [np.array([0.5**n]) for n in range(50)]
        x, trace = proximal_point(
            R1, lambda v: 0.5 * v, np.ones(1), Schedule(max_iterations=30, tol=1e-15),
            errors=errs,
        )
        expected = sum(np.abs(errs[n][0]) for n in range(trace.iterations))
        assert trace.inexact_weighted_sum == pytest.approx(expected)

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
        inst = build_relaxed(V, identity_map(R2), B, 0.7)
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
            build_relaxed(V, L, scaled_identity(R2, 1.0), 1.0)

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
            build_relaxed(V, L, scaled_identity(R2, 1.0), 1.0)

    def test_space_mismatch(self):
        V = SubspaceProjector.full(R2)
        with pytest.raises(ValidationError):
            build_relaxed(V, identity_map(R2), scaled_identity(Space(3), 1.0), 1.0)


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

    def test_x0_outside_v_is_projected_and_flagged(self):
        inst = acceptance_instance()
        _, trace = solve_relaxed(inst, [1.0, 0.0], Schedule(max_iterations=5))
        assert trace.x0_projected

    def test_residuals_nonincreasing_for_small_lambda(self):
        inst = acceptance_instance()
        for lam in (1.0, 0.7):
            _, trace = solve_relaxed(inst, R2.zeros(), Schedule(lam=lam))
            diffs = np.diff(trace.fp_residual)
            assert np.all(diffs <= 1e-9)

    def test_lambda_list_schedule(self):
        inst = acceptance_instance()
        lams = [1.5, 1.0, 0.5, 1.0, 1.2] * 20
        x, trace = solve_relaxed(inst, R2.zeros(), Schedule(lam=lams, tol=1e-10))
        assert trace.reason == "converged"
        assert x == pytest.approx([2.0, 2.0], abs=1e-8)

    def test_inexact_resolvent_hook_still_converges(self):
        # summable perturbations of the relaxed resolvent keep convergence
        inst = acceptance_instance()
        rng = np.random.default_rng(5)
        direction = inst.V.apply(rng.standard_normal(2))
        errs = lambda n: (0.5**n) * direction
        x, trace = proximal_point(
            R2, inst.relaxed_resolvent, R2.zeros(), Schedule(tol=1e-12), errors=errs
        )
        assert trace.reason == "converged"
        assert x == pytest.approx([2.0, 2.0], abs=1e-6)
        assert trace.inexact_weighted_sum <= 2.0 * R2.norm(direction) + 1e-9

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
        inst = build_relaxed(V, identity_map(R2), scaled_identity(R2, 1.0), 1.0)
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
    def test_var_residual_is_scaled_fp_residual(self, solver):
        inst, x0 = coordinate_instance()
        _, trace = solver(inst, x0, self.SCHEDULE)
        assert trace.var_residual == [r / inst.gamma for r in trace.fp_residual]

    @pytest.mark.parametrize("solver", [solve_relaxed, solve_blocks])
    def test_matches_proximal_point_on_relaxed_resolvent(self, solver):
        inst, x0 = coordinate_instance()
        _, ta = solver(inst, x0, self.SCHEDULE, keep_iterates=True)
        _, tb = proximal_point(inst.space, inst.relaxed_resolvent, x0, self.SCHEDULE,
                               keep_iterates=True)
        assert ta.iterations == tb.iterations == 80
        for u, v in zip(ta.iterates, tb.iterates):
            assert inst.space.norm(u - v) <= 1e-12

    @pytest.mark.parametrize("solver", [solve_relaxed, solve_blocks])
    def test_constant_lambda_equals_list(self, solver):
        inst, x0 = coordinate_instance()
        xa, ta = solver(inst, x0, Schedule(lam=1.3, max_iterations=40, tol=0.0),
                        keep_iterates=True)
        xb, tb = solver(inst, x0, Schedule(lam=[1.3] * 40, tol=0.0), keep_iterates=True)
        assert np.array_equal(xa, xb)
        assert ta.fp_residual == tb.fp_residual and ta.var_residual == tb.var_residual
        assert ta.reason == tb.reason and ta.iterations == tb.iterations == 40
        assert all(np.array_equal(u, v) for u, v in zip(ta.iterates, tb.iterates))

    @pytest.mark.parametrize("solver", [solve_relaxed, solve_blocks])
    def test_x0_off_v_is_projected_and_flagged(self, solver):
        inst, x0 = coordinate_instance()
        _, inside = solver(inst, x0, Schedule(max_iterations=2), keep_iterates=True)
        assert not inside.x0_projected
        off = x0 + np.random.default_rng(1).standard_normal(inst.space.dim)
        _, trace = solver(inst, off, Schedule(max_iterations=2), keep_iterates=True)
        assert trace.x0_projected
        assert trace.iterates[0] == pytest.approx(inst.V.apply(off), abs=1e-13)


class TestAffineFold:
    """Affine blocks are folded into ``G c + h``; the iteration is unchanged."""

    VARIANTS = [("point",) * 4, ("box", "ball", "point", "ball"), ("box", "ball", "half", "ball")]

    @pytest.mark.parametrize("solver", [solve_relaxed, solve_blocks])
    @pytest.mark.parametrize("tags", VARIANTS, ids=["affine", "mixed", "nonlinear"])
    def test_matches_unfolded_step(self, solver, tags):
        inst, x0 = coordinate_instance(tags)
        schedule = Schedule(lam=1.3, max_iterations=80, tol=0.0)
        _, ta = solver(inst, x0, schedule, keep_iterates=True)
        _, tb = solve_unfolded(inst, x0, schedule)
        assert ta.iterations == tb.iterations == 80
        for u, v in zip(ta.iterates, tb.iterates):
            assert inst.space.norm(u - v) <= 1e-12

    @pytest.mark.parametrize("solver", [solve_relaxed, solve_blocks])
    @pytest.mark.parametrize("tags", VARIANTS, ids=["affine", "mixed", "nonlinear"])
    def test_same_iterations_to_tolerance(self, solver, tags):
        inst, x0 = coordinate_instance(tags)
        schedule = Schedule(lam=1.0, max_iterations=3000, tol=1e-9)
        xa, ta = solver(inst, x0, schedule)
        xb, tb = solve_unfolded(inst, x0, schedule)
        assert (ta.reason, ta.iterations) == (tb.reason, tb.iterations)
        assert inst.space.norm(xa - xb) <= 1e-12 * (1.0 + inst.space.norm(xb))

    @pytest.mark.parametrize("solver", [solve_relaxed, solve_blocks])
    def test_affine_blocks_are_not_evaluated(self, solver, monkeypatch):
        inst, x0 = coordinate_instance(self.VARIANTS[1])
        calls = {}
        for k, (_L, fam, _w) in enumerate(inst.blocks):
            if fam.affine is not None:
                monkeypatch.setattr(fam, "_evaluator", lambda gamma, y: 1 / 0)
            else:
                def counted(gamma, y, k=k, evaluate=fam._evaluator):
                    calls[k] = calls.get(k, 0) + 1
                    return evaluate(gamma, y)
                monkeypatch.setattr(fam, "_evaluator", counted)
        solver(inst, x0, Schedule(max_iterations=10, tol=0.0))
        assert calls == {0: 11, 1: 11, 3: 11}

    @pytest.mark.parametrize("scale", [None, 0.5])
    def test_scale_checked_on_every_block(self, scale):
        A, A_adj = np.ones((1, 2)), np.ones((2, 1))
        pieces = [(A, A_adj, normal_cone(Singleton(R1, [1.0]))),
                  (A, A_adj, make_wiener(R1, lambda y: 0.5 * y, [0.0], scale=scale))]
        _coordinate_step(pieces, 1.0, 2)
        with pytest.raises(ScaleRestrictionError):
            _coordinate_step(pieces, 2.0, 2)


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


class TestTrace:
    def test_csv_round_trip(self, tmp_path):
        inst = acceptance_instance()
        ref = np.array([2.0, 2.0])
        _, trace = solve_relaxed(inst, R2.zeros(), Schedule(), reference=ref)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iter", "fp_residual", "var_residual", "dist_ref", "wall_ns"]
        assert len(rows) - 1 == len(trace.fp_residual)
        assert float(rows[1][1]) == trace.fp_residual[0]
        assert float(rows[1][3]) == pytest.approx(R2.norm(ref))

    def test_missing_columns_are_empty(self, tmp_path):
        _, trace = proximal_point(R1, lambda v: 0.5 * v, np.ones(1), Schedule())
        path = tmp_path / "t.csv"
        trace.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][2] == "" and rows[1][3] == ""
