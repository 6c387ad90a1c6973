"""Tests of the benchmark itself: seeds, the correctness gate, metric names, tracing.

Run from the repository root with ``python3 -m pytest benchmarks -q``.
"""

import io
import json
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import perf
import workloads

HELD_OUT_SEED = 20_261_017
SPEC = json.loads(perf.SPEC.read_text())

sys.path.insert(0, str(perf.SRC))


def _shape(value):
    """The structure of a config with every number list replaced by its shape."""
    if isinstance(value, dict):
        return {k: _shape(v) for k, v in value.items()}
    if isinstance(value, list) and value and isinstance(value[0], (list, float, int)):
        if all(isinstance(v, (int, float)) for v in np.ravel(np.asarray(value, dtype=object))):
            return ("array", np.shape(value))
    if isinstance(value, list):
        return [_shape(v) for v in value]
    return type(value).__name__


def test_same_seed_gives_byte_identical_configs():
    first = [workloads.dump(c) for _, c in workloads.configs("kinds-small", 7)]
    second = [workloads.dump(c) for _, c in workloads.configs("kinds-small", 7)]
    assert first == second
    assert workloads.props_seeds(7) == workloads.props_seeds(7)


def test_held_out_seed_gives_same_shapes_and_new_numbers():
    base = workloads.configs("kinds-small", 0)
    held = workloads.configs("kinds-small", HELD_OUT_SEED)
    assert [name for name, _ in base] == [name for name, _ in held]
    for (_, a), (_, b) in zip(base, held):
        assert _shape(a) == _shape(b)
        assert workloads.dump(a) != workloads.dump(b)
    assert workloads.props_seeds(0) != workloads.props_seeds(HELD_OUT_SEED)


def test_kinds_small_has_every_kind_at_both_sizes():
    names = [name for name, _ in workloads.configs("kinds-small", 0)]
    assert len(names) == 12
    kinds = {c["kind"] for _, c in workloads.configs("kinds-small", 0)}
    assert kinds == {"split-feasibility", "common-zero", "feasibility-product", "wiener",
                     "prox-mixture"}


def test_held_out_seed_passes_the_gate(tmp_path):
    gate = perf.Gate()
    w = perf.SolveWorkload("kinds-small", HELD_OUT_SEED, tmp_path, gate)
    w.run_pass()
    for _ in w.paths:
        w.cli_sample()
    assert gate.failed == 0, gate.notes
    assert gate.attempted == len(w.paths) * 2


def test_held_out_seed_passes_the_props_gate(tmp_path):
    gate = perf.Gate()
    w = perf.PropsWorkload(HELD_OUT_SEED, tmp_path, gate)
    w.warm_up()
    for _ in w.seeds:
        w.cli_sample()
    assert gate.failed == 0, gate.notes
    assert gate.attempted == workloads.PROPS_SEEDS * (28 + 1 + 1)


def test_gate_counts_a_wrong_cli_answer(tmp_path):
    gate = perf.Gate()
    w = perf.SolveWorkload("kinds-small", 0, tmp_path, gate)
    w.paths = w.paths[:1]
    w.run_pass()
    iterations, x = w.reference[w.paths[0]]
    w.reference[w.paths[0]] = (iterations + 1, x)
    w.cli_sample()
    assert gate.failed == 1 and gate.attempted == 2


def _run(argv, monkeypatch):
    def minimal(plan):
        return {u: (share, 1) for u, (share, _) in plan.items()}

    monkeypatch.setattr(perf, "PLANS", {w: minimal(p) for w, p in perf.PLANS.items()})
    monkeypatch.setattr(perf, "TRACED_PLAN", minimal(perf.TRACED_PLAN))
    out = io.StringIO()
    with redirect_stdout(out):
        code = perf.main(argv)
    return code, out.getvalue().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_exactly_those_of_benchmark_json(trace, monkeypatch):
    code, lines = _run(["--workload", "kinds-small", "--seed", "0", "--seconds", "0",
                        "--trace", str(trace)], monkeypatch)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    printed = [json.loads(line[len("# metric "):])["name"] for line in lines
               if line.startswith("# metric ")]
    assert printed == [m["name"] for m in declared]


def test_a_hanging_child_is_killed_and_reaped(tmp_path, monkeypatch):
    monkeypatch.setattr(perf, "CHILD_TIMEOUT_S", 0.5)
    wall, _rss, code, _out = perf.run_child(["-c", "import time; time.sleep(30)"], tmp_path)
    assert code != 0 and wall < 10


def test_every_workload_is_declared():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_tracer_wraps_every_namespace_and_restores_it():
    from tracer import Tracer

    import rescomp
    from rescomp import bench, hilbert, properties, solvers

    def snapshot():
        return [(m, dict(vars(m))) for m in (rescomp, bench, hilbert, properties, solvers)] + [
            (c, dict(vars(c))) for c in (hilbert.LinearMap, hilbert.Space, solvers.Trace)]

    before = snapshot()
    suites = list(properties.SUITES)
    original = solvers.solve_relaxed
    tracer = Tracer()
    tracer.install()
    try:
        for namespace in (solvers, bench, properties, rescomp):
            assert namespace.solve_relaxed.__wrapped__ is original
        assert all(s.__wrapped__ is o for s, o in zip(properties.SUITES, suites))
        with tracer.span("bench.pass"):
            rescomp.hilbert.Space(2).validate([1.0, 2.0])
    finally:
        tracer.uninstall()
    assert properties.SUITES == suites
    for owner, attrs in before:
        assert dict(vars(owner)) == attrs, owner
    assert [tracer.names[i] for i in tracer.nid] == ["bench.pass", "hilbert.validate"]
    assert list(tracer.parent) == [-1, 0]


def test_interleave_rescales_by_the_probe_and_stops_at_the_limit(monkeypatch):
    probes = iter([0.010, 0.005, 0.005])  # before unit 1, after unit 1, after unit 2
    monkeypatch.setattr(perf, "host_probe", lambda: next(probes))
    now = time.perf_counter()
    samples = perf.interleave({"u": (1.0, 2)}, {"u": lambda: {"t": 1.0}}, now - 1, now + 60)
    nominal = perf.PROBE_NOMINAL_S
    assert samples["u"] == [({"t": 1.0}, pytest.approx(2 * nominal / 0.015)),
                            ({"t": 1.0}, pytest.approx(nominal / 0.005))]
    monkeypatch.setattr(perf, "host_probe", lambda: 0.005)
    assert perf.interleave({"u": (1.0, 2)}, {"u": lambda: {"t": 1.0}}, now - 1, now - 1) == \
        {"u": []}


def test_median_report_tail_percentile():
    assert "p50" in perf.median_report(range(20))
    report = perf.median_report(range(100))
    assert report["p90"] == 89 and report["n"] == 100
    assert set(perf.median_report(range(10))) == {"median", "n"}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(perf.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(perf.HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf.py", "--workload", "kinds-small", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (Path(tmp_path) / ".bench_tmp").exists()
