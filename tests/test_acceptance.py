"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance here is fixed; the randomized criteria use frozen seeds.
"""

import time

import numpy as np
import pytest

from rescomp.bench import InstanceSpec, generate_instance, least_squares_oracle, wiener_oracle
from rescomp.compositions import resolvent_composition, strong_monotonicity_modulus
from rescomp.hilbert import LinearMap, Space
from rescomp.operators import scaled_identity
from rescomp.properties import (
    ACCEPTANCE_SPEC_DICT,
    suite_argmin_composition,
    suite_argmin_transport,
    suite_block_stacked,
    suite_chaining,
    suite_cocomposition_gradient,
    suite_composed_firm,
    suite_inverse_duality,
    suite_isometry_collapse,
    suite_moreau_decomposition,
    suite_moreau_identity,
    suite_prox_firm,
    suite_resolvent_average,
    suite_resolvent_rule,
)
from rescomp.solvers import Schedule, solve_blocks, solve_relaxed, variational_residual, verify_exact_relaxation

SEED = 20_240_601


def announce(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}  {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def make_spec(second_target=3.0):
    data = dict(ACCEPTANCE_SPEC_DICT)
    data["sets"] = [
        {"tag": "singleton", "point": [1.0]},
        {"tag": "singleton", "point": [second_target]},
    ]
    return InstanceSpec.from_dict(data)


def test_criterion_1_relaxed_split_feasibility_oracle_match():
    inst = generate_instance(make_spec())
    start = time.perf_counter()
    x, trace = solve_relaxed(
        inst, inst.space.zeros(), Schedule(lam=1.0, max_iterations=200, tol=1e-10)
    )
    elapsed = time.perf_counter() - start
    ref, _ = least_squares_oracle(inst)
    dist = inst.space.norm(x - ref)
    var = variational_residual(inst, x)
    ok = (
        trace.reason == "converged"
        and trace.iterations <= 200
        and dist <= 1e-6
        and var <= 1e-8
        and elapsed < 1.0
    )
    announce(
        1, ok,
        f"|x - oracle| = {dist:.2e} (tol 1e-6), {trace.iterations} iterations, "
        f"variational residual {var:.2e} (tol 1e-8), {elapsed:.3f}s",
    )


def test_criterion_2_exact_relaxation_when_consistent():
    inst = generate_instance(make_spec(second_target=1.0))
    x, _ = solve_relaxed(inst, inst.space.zeros(), Schedule(lam=1.0, tol=1e-10))
    report = verify_exact_relaxation(inst, x, 1e-8, known_feasible=[1.0, 1.0])
    membership = inst.V.residual_norm(x)
    ok = report.original_residual <= 1e-8 and membership <= 1e-10
    announce(
        2, ok,
        f"original residual {report.original_residual:.2e} (tol 1e-8), "
        f"membership defect {membership:.2e} (tol 1e-10), verdict {report.verdict!r}",
    )


@pytest.mark.parametrize(
    "index, label, suite",
    [
        (0, "a:resolvent-rule", suite_resolvent_rule),
        (1, "b:inverse-duality", suite_inverse_duality),
        (2, "c:isometry-collapse", suite_isometry_collapse),
        (3, "d:chaining", suite_chaining),
        (4, "e:resolvent-average", suite_resolvent_average),
        (5, "f:moreau-resolvent-identity", suite_moreau_identity),
        (6, "g:prox-decomposition", suite_moreau_decomposition),
    ],
)
def test_criterion_3_identity_suites(index, label, suite):
    res = suite(np.random.default_rng([SEED, 3, index]), 1000)
    ok = res.passed and res.worst <= 1e-10
    announce(f"3{label[:1]}", ok, f"{label[2:]} worst defect {res.worst:.2e} over 1000 trials (tol 1e-10)")


def test_criterion_4_firm_nonexpansiveness():
    composed = suite_composed_firm(np.random.default_rng([SEED, 4]), 1000)
    prox = suite_prox_firm(np.random.default_rng([SEED, 44]), 1000)
    worst = max(composed.worst, prox.worst)
    ok = composed.passed and prox.passed and worst <= 1e-10
    announce(4, ok, f"composed/prox firm-nonexpansiveness worst defect {worst:.2e} on 1000 pairs (tol 1e-10)")


def test_criterion_5_strong_monotonicity_modulus():
    space = Space(3)
    rng = np.random.default_rng(SEED)
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    L = LinearMap(space, space, q / np.sqrt(2.0))
    B = scaled_identity(space, 2.0)
    beta = strong_monotonicity_modulus(2.0, L.op_norm())
    assert beta == pytest.approx(5.0, abs=1e-9)
    A = resolvent_composition(L, B)
    pts = A.sample_graph(1001, seed=SEED)
    worst = -np.inf
    for a, b in zip(pts, pts[1:]):
        dx = a.x - b.x
        worst = max(worst, 5.0 * space.inner(dx, dx) - space.inner(dx, a.xstar - b.xstar))
    ok = worst <= 1e-8
    announce(5, ok, f"beta=5 inequality worst defect {worst:.2e} on 1000 pairs (slack tol 1e-8)")


def test_criterion_6_gradient_identity_and_argmin():
    grad = suite_cocomposition_gradient(np.random.default_rng([SEED, 6]), 1000)
    transport = suite_argmin_transport(np.random.default_rng([SEED, 66]), 1000)
    argmin = suite_argmin_composition(np.random.default_rng([SEED, 666]), 1000)
    ok = (
        grad.passed and grad.worst <= 1e-10
        and transport.passed and transport.worst <= 1e-10
        and argmin.passed and argmin.worst <= 1e-8
    )
    announce(
        6, ok,
        f"gradient identity worst {grad.worst:.2e} (tol 1e-10), "
        f"argmin transport worst {transport.worst:.2e} (tol 1e-10), "
        f"quadratic argmin vs least-squares worst {argmin.worst:.2e} (tol 1e-8)",
    )


def test_criterion_7_wiener_instance():
    spec = InstanceSpec.from_dict({
        "kind": "wiener",
        "spaces": {"domain": {"dim": 2}, "blocks": [{"dim": 2}]},
        "maps": None,
        "sets": [{"f": {"tag": "scale", "c": 0.5}, "point": [3.0, 1.0]}],
        "weights": [1.0],
        "subspace": [[1.0, 0.0]],
    })
    inst = generate_instance(spec)
    start = time.perf_counter()
    x, trace = solve_blocks(inst, inst.space.zeros(), Schedule(lam=1.0, tol=1e-10))
    elapsed = time.perf_counter() - start
    ref, rank_deficient = wiener_oracle(inst)
    dist = inst.space.norm(x - ref)
    ok = (
        trace.reason == "converged"
        and not rank_deficient
        and dist <= 1e-6
        and np.allclose(ref, [6.0, 0.0])
        and elapsed < 1.0
    )
    announce(7, ok, f"|x - oracle| = {dist:.2e} (tol 1e-6), oracle ({ref[0]:g}, {ref[1]:g}), {elapsed:.3f}s")


def test_criterion_8_blockwise_equals_stacked():
    res = suite_block_stacked(np.random.default_rng([SEED, 8]), 1000)
    ok = res.passed and res.worst <= 1e-12
    announce(8, ok, f"blockwise vs stacked worst iterate gap {res.worst:.2e} on 10 instances (tol 1e-12)")
