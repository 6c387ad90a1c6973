"""The rescomp benchmark: one command for every workload and metric.

    python3 benchmarks/perf.py --workload <kinds-small|props> \\
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout; it imports the package from
``src/`` and runs ``python -m rescomp.cli`` children against the same tree.

* ``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with the
  package unmodified: in-process passes (set-up, solve, verify) alternate with
  CLI child processes until ``--seconds`` have passed and every sample count
  has reached its minimum.
* ``--trace 1`` alternates untraced passes with passes run under
  ``tracer.Tracer`` and reports the per-layer metrics, including the traced
  over untraced wall time.

End-to-end timings are rescaled to a nominal host speed with a probe timed
around every unit of work (see ``interleave`` and NOTES.md).  Every
operation goes through the correctness gate (see ``Gate``).  Lines starting
with ``#`` give the environment, each metric's median, tail percentile and
sample count (and for rescaled timings the same figures as measured), and the
gate's failures; the last line is the JSON result.  Inputs are generated from
``--seed`` by ``workloads``.
"""

from __future__ import annotations

import os

# Cap BLAS threads before numpy loads; children inherit the same cap.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("RESCOMP_SEED", None)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_tmp"   # configs, CLI traces; removed at exit
OUT = ROOT / ".bench_out"    # spans of the first traced pass of the last traced run
CHILD_TIMEOUT_S = 30

# Time shares and minimum counts of the units a run interleaves; a "cli"
# count of kinds-small is in sweeps over its configs.  Every run starts with
# uncounted warm-up passes (the workload's ``warm_up``).
PLANS = {
    "kinds-small": {"pass": (0.5, 3), "cli": (0.5, 3)},
    "props": {"pass": (0.45, 3), "cli": (0.35, 3), "import": (0.2, 5)},
}
TRACED_PLAN = {"pass": (0.4, 2), "traced": (0.45, 2), "import": (0.15, 3)}
# No unit starts later than this many seconds after the deadline, minimum
# counts or not, so a run whose operations hang or crawl still ends within
# three minutes.
GRACE_S = 40
# The host probe (``host_probe``): steps of a pure-Python loop and numpy calls
# on small vectors, like the per-call work both workloads spend their time
# on, and its seconds on an uncontended core of the reference host.
PROBE_LOOPS = 50_000
PROBE_DOTS = 2_000
PROBE_DIM = 500
PROBE_NOMINAL_S = 0.005

IMPORT_PROBE = ("import time; t = time.perf_counter(); import rescomp.cli; "
                "print(time.perf_counter() - t)")
SUITE_GROUPS = ("hilbert", "operators", "compositions", "proxfun", "solvers", "bench")
SOLVER_SUITES = ("solvers", "bench")  # props: suites that drive the solvers
# Spans counted per loop evaluation of solve_relaxed (metric "<name>.calls_per_iter").
KERNELS = ("hilbert.validate", "hilbert.apply", "hilbert.adjoint_apply", "hilbert.proj_apply",
           "operators.resolvent", "sets.project")


def ns():
    return time.perf_counter_ns()


class Gate:
    """Counts operations and failures for the result line.

    An operation fails when it raises, stops short of ``converged``, gets
    the verdict ``not a solution``, misses its oracle by more than
    ``ORACLE_MATCH_TOL``, or (CLI) exits nonzero or reports other iterations
    or another final iterate than the in-process run; a property suite fails
    when it prints FAIL.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


def median_report(samples):
    """Median, the highest percentile with >= 10 samples beyond it, and n."""
    xs = sorted(samples)
    n = len(xs)
    out = {"median": statistics.median(xs), "n": n}
    if n >= 11:
        k = n - 10  # nearest-rank order statistic with ten samples above it
        out[f"p{100 * k // n}"] = xs[k - 1]
    return out


def child_env():
    """An explicit environment for children: no RESCOMP_SEED, capped BLAS."""
    env = {"PATH": os.environ.get("PATH", os.defpath), "PYTHONPATH": str(SRC), "LC_ALL": "C"}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(args, workdir):
    """Run ``python args...``; returns ``(wall_s, peak_rss_mb, returncode, stdout)``.

    A child still running after ``CHILD_TIMEOUT_S`` is killed (and fails the
    gate through its exit code); every child is reaped with ``os.wait4``,
    which also gives its own peak RSS.
    """
    chunks = []
    with open(workdir / "child.err", "wb") as err:
        t0 = ns()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err)
        try:
            fd = proc.stdout.fileno()
            deadline = time.monotonic() + CHILD_TIMEOUT_S
            while True:
                left = deadline - time.monotonic()
                if left <= 0 or not select.select([fd], [], [], left)[0]:
                    proc.kill()
                    break
                data = os.read(fd, 1 << 16)
                if not data:
                    break
                chunks.append(data)
        except BaseException:
            proc.kill()
            raise
        finally:
            proc.stdout.close()
            _pid, status, usage = os.wait4(proc.pid, 0)
        wall = (ns() - t0) / 1e9
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, b"".join(chunks).decode()


def environment():
    """Versions, BLAS and its thread cap, CPUs, CPU model and cache sizes."""
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.machine(),
        "caches": {},
    }
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        env["caches"][f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    return env


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class SolveWorkload:
    """kinds-small: configs solved in-process and by the CLI."""

    def __init__(self, name, seed, workdir, gate):
        self.gate = gate
        self.workdir = workdir
        self.paths = []
        self.with_oracle = set()
        for i, (label, config) in enumerate(workloads.configs(name, seed)):
            path = workdir / f"{i:02d}-{label}.json"
            path.write_text(workloads.dump(config))
            self.paths.append(path)
            if workloads.has_oracle(config):
                self.with_oracle.add(path)
        self.reference = {}  # path -> (iterations, final iterate) of the first pass
        self.shapes = []     # per instance of the last pass: shape of L, dim of V
        self.cli_runs = 0

    @staticmethod
    def _oracle_distance(inst, x):
        from rescomp import bench
        from rescomp.errors import ValidationError

        oracle = {"split-feasibility": bench.least_squares_oracle,
                  "wiener": bench.wiener_oracle}.get(inst.kind)
        if oracle is None:
            return None
        try:
            ref = oracle(inst)
        except ValidationError:
            return None
        ref = ref[0] if isinstance(ref, tuple) else ref
        return inst.space.norm(x - ref)

    def run_pass(self, write_traces=False):
        """One in-process pass over every config; returns its stage times in seconds.

        Each instance is built, solved and verified once; each stage time is
        summed over the instances.
        """
        from rescomp import bench, solvers

        setup = solve = verify = 0
        iters = 0
        shapes = []
        for path in self.paths:
            try:
                t0 = ns()
                spec = bench.load_spec(path)
                inst = bench.generate_instance(spec)
                t1 = ns()
                x, trace = solvers.solve_relaxed(inst, inst.space.zeros(), spec.build_schedule())
                t2 = ns()
                check = solvers.verify_exact_relaxation(inst, x, tol=bench.EXACTNESS_TOL)
                var = solvers.variational_residual(inst, x)
                dist = self._oracle_distance(inst, x)
                t3 = ns()
            except Exception as exc:  # the gate records any failure and the run goes on
                self.gate.check(False, f"{path.name}: {type(exc).__name__}: {exc}")
                continue
            setup += t1 - t0
            solve += t2 - t1
            verify += t3 - t2
            if write_traces:
                trace.to_csv(self.workdir / "trace.csv")
            iters += trace.iterations
            shapes.append((inst.L.matrix.shape, inst.V.matrix.shape[0]))
            result = (trace.iterations, x.tolist())
            ref = self.reference.setdefault(path, result)
            self.gate.check(
                trace.reason == "converged"
                and check.verdict != "not a solution"
                and math.isfinite(var)
                and (dist is not None or path not in self.with_oracle)
                and (dist is None or dist <= bench.ORACLE_MATCH_TOL)
                and result == ref,
                f"{path.name}: reason={trace.reason} verdict={check.verdict} "
                f"oracle={dist} repeatable={result == ref}",
            )
        self.shapes = shapes
        return {"setup_s": setup / 1e9, "solve_s": solve / 1e9, "verify_s": verify / 1e9,
                "wall_s": (setup + solve + verify) / 1e9, "iters": iters}

    def warm_up(self):
        self.run_pass()

    def cli_sample(self):
        """``rescomp solve`` on the next config in turn; returns its wall and peak RSS."""
        path = self.paths[self.cli_runs % len(self.paths)]
        self.cli_runs += 1
        wall, peak, code, out = run_child(
            ["-m", "rescomp.cli", "solve", str(path), "--trace",
             str(self.workdir / "cli-trace.csv")], self.workdir)
        ref = self.reference.get(path)
        try:
            report = json.loads(out)
            same = ref is not None and (report["iterations"], report["final_iterate"]) == ref
        except (ValueError, KeyError, TypeError):
            same = False
        self.gate.check(code == 0 and same,
                        f"cli {path.name}: exit {code}, matches in-process run: {same}")
        return {"config": path, "cli_wall_s": wall, "cli_peak_rss_mb": peak}


class PropsWorkload:
    """props: ``run_properties`` in-process, and ``rescomp props`` children.

    Passes and children take the run's props seeds in turn.  The seeds are
    drawn from the run's seed alone, so the inputs of a run do not depend on
    how many passes fit into it; ``warm_up`` runs each of them once.
    """

    def __init__(self, seed, workdir, gate):
        self.seeds = workloads.props_seeds(seed)
        self.workdir = workdir
        self.gate = gate
        self.lines = {}  # props seed -> lines printed by its first in-process pass
        self.passes = 0
        self.cli_samples = 0

    def warm_up(self):
        for _ in self.seeds:
            self.run_pass()

    def run_pass(self, write_traces=False):
        """``run_properties`` on the next props seed; returns its stage times in seconds.

        ``write_traces`` is accepted for symmetry with ``SolveWorkload``: the
        suites write no traces.
        """
        from rescomp import properties

        seed = self.seeds[self.passes % len(self.seeds)]
        self.passes += 1
        lines, stamps = [], []

        def out(line):
            stamps.append(ns())
            lines.append(line)

        t0 = ns()
        try:
            code = properties.run_properties(seed=seed, trials=workloads.PROPS_TRIALS, out=out)
        except Exception as exc:  # the gate records any failure and the run goes on
            self.gate.check(False, f"props seed {seed}: {type(exc).__name__}: {exc}")
            return None
        t1 = ns()
        groups = dict.fromkeys(SUITE_GROUPS, 0)
        previous = t0
        for line, stamp in zip(lines, stamps):
            fields = line.split()
            if fields and fields[0] in ("PASS", "FAIL"):
                groups[fields[1].split("/")[0]] += stamp - previous
                self.gate.check(fields[0] == "PASS", f"props seed {seed}: {line}")
            previous = stamp
        self.gate.check(code == 0, f"props seed {seed}: run_properties returned {code}")
        self.lines.setdefault(seed, lines)
        solve = sum(groups[g] for g in SOLVER_SUITES)
        return {"solve_s": solve / 1e9, "verify_s": (sum(groups.values()) - solve) / 1e9,
                "wall_s": (t1 - t0) / 1e9}

    def cli_sample(self):
        """``rescomp props`` on the next props seed; returns its wall and peak RSS."""
        seed = self.seeds[self.cli_samples % len(self.seeds)]
        self.cli_samples += 1
        wall, peak, code, out = run_child(
            ["-m", "rescomp.cli", "props", "--seed", str(seed), "--trials",
             str(workloads.PROPS_TRIALS)], self.workdir)
        same = self.lines.get(seed) == out.splitlines()
        self.gate.check(code == 0 and same,
                        f"cli props seed {seed}: exit {code}, matches in-process run: {same}")
        return {"cli_wall_s": wall, "cli_peak_rss_mb": peak}


def import_sample(workdir, gate):
    """``{"import_s": seconds}`` for ``import rescomp.cli`` in a fresh interpreter."""
    _wall, _rss, code, out = run_child(["-c", IMPORT_PROBE], workdir)
    try:
        value = float(out.strip())
    except ValueError:
        value = None
    gate.check(code == 0 and value is not None, f"import probe: exit {code}")
    return None if value is None else {"import_s": value}


# ---------------------------------------------------------------------------
# scheduling
# ---------------------------------------------------------------------------


def host_probe():
    """Seconds for the probe's fixed work, the faster of two runs: the host's speed now.

    The probe shares no state with the program, so nothing the program does
    makes it faster.
    """
    x = np.linspace(0.0, 1.0, PROBE_DIM)
    best = math.inf
    for _ in range(2):
        t0 = ns()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i
        for _ in range(PROBE_DOTS):
            acc += float(np.dot(x * x, x))
        best = min(best, ns() - t0)
    return best / 1e9


def interleave(plan, units, deadline, limit):
    """Run units until ``deadline`` and their minimum counts, or until ``limit``.

    Both are ``perf_counter`` times.  The next unit is the one furthest below
    its time share, so slow phases of a shared machine spread over every kind
    of sample.  Once every minimum is met, a unit whose mean duration would
    end past the deadline is not started; after ``limit`` none is.  Each
    sample is kept as ``(value, scale)``: ``scale`` is the probe's nominal
    time over the mean of its times just before and just after the unit.
    """
    spent = dict.fromkeys(plan, 0.0)
    runs = dict.fromkeys(plan, 0)
    samples = {u: [] for u in plan}
    before = host_probe()
    while True:
        now = time.perf_counter()
        short = [u for u in plan if runs[u] < plan[u][1]]
        pool = list(plan) if now < deadline else short
        if not pool or now > limit:
            return samples
        unit = min(pool, key=lambda u: spent[u] / plan[u][0])
        if not short and now + spent[unit] / max(1, runs[unit]) > deadline:
            return samples
        value = units[unit]()
        after = host_probe()
        spent[unit] += time.perf_counter() - now
        runs[unit] += 1
        if value is not None:
            samples[unit].append((value, 2 * PROBE_NOMINAL_S / (before + after)))
        before = after


# ---------------------------------------------------------------------------
# per-layer analysis of one traced pass
# ---------------------------------------------------------------------------


def layer_metrics(tracer, shapes):
    """Per-layer values of one traced pass from its spans."""
    from tracer import SOLVE

    nid, _parent, start, end, _run, outer, self_ns = tracer.arrays()
    dur = (end - start).astype(float)
    ids = {name: i for i, name in enumerate(tracer.names)}
    k = len(tracer.names)
    calls = np.bincount(nid, minlength=k)
    incl = np.bincount(nid, weights=dur * outer, minlength=k)
    selfs = np.bincount(nid, weights=self_ns, minlength=k)

    def c(name):
        return int(calls[ids[name]]) if name in ids else 0

    def s(name, table=incl):
        return float(table[ids[name]]) / 1e9 if name in ids else 0.0

    def us_per_call(name):
        return s(name) * 1e6 / c(name) if c(name) else 0.0

    # spans inside solve_relaxed calls, and the loop evaluations they made
    solve_idx = np.flatnonzero(nid == ids.get(SOLVE, -1))
    iterations = [tracer.results.get(int(i), 0) for i in solve_idx]
    evaluations = sum(iterations) + len(iterations)
    owner = np.searchsorted(start[solve_idx], start, side="right") - 1
    ok = owner >= 0
    inside = np.zeros(len(nid), dtype=bool)
    inside[ok] = end[ok] <= end[solve_idx][owner[ok]]
    inside[solve_idx] = False

    m = {}
    for name in KERNELS:
        n_in = int(np.count_nonzero(inside & (nid == ids.get(name, -1))))
        m[f"{name}.calls_per_iter"] = n_in / evaluations if evaluations else 0.0

    # computed kernel cost from the matrix shapes of each solved instance
    flops = nbytes = 0.0
    if len(shapes) == len(solve_idx):
        for j, ((rows, cols), n) in enumerate(shapes):
            mine = inside & (owner == j)
            maps = sum(int(np.count_nonzero(mine & (nid == ids.get(kname, -1))))
                       for kname in ("hilbert.apply", "hilbert.adjoint_apply"))
            projs = int(np.count_nonzero(mine & (nid == ids.get("hilbert.proj_apply", -1))))
            flops += 2.0 * (maps * rows * cols + projs * n * n)
            nbytes += 8.0 * (maps * (rows * cols + rows + cols) + projs * (n * n + 2 * n))
    m["computed.flops_per_iter"] = flops / evaluations if evaluations and flops else 0.0
    m["computed.bytes_per_iter"] = nbytes / evaluations if evaluations and nbytes else 0.0

    m.update({
        "hilbert.linearmap_init.s": s("hilbert.linearmap_init"),
        "hilbert.linearmap_init.calls": c("hilbert.linearmap_init"),
        "hilbert.op_norm.s": s("hilbert.op_norm"),
        "hilbert.subspace_init.s": s("hilbert.subspace_init"),
        "hilbert.stack.s": s("hilbert.stack"),
        "hilbert.apply.us": us_per_call("hilbert.apply"),
        "hilbert.adjoint_apply.us": us_per_call("hilbert.adjoint_apply"),
        "hilbert.proj_apply.us": us_per_call("hilbert.proj_apply"),
        "hilbert.validate.s": s("hilbert.validate"),
        "hilbert.inner.s": s("hilbert.inner"),
        "hilbert.inner.calls": c("hilbert.inner"),
        "sets.project.s": s("sets.project"),
        "sets.project.calls": c("sets.project"),
        "operators.resolvent.self_s": s("operators.resolvent", selfs),
        "operators.resolvent.calls": c("operators.resolvent"),
        "operators.construct.s": s("operators.construct"),
        "proxfun.prox.s": s("proxfun.prox"),
        "proxfun.prox.calls": c("proxfun.prox"),
        "proxfun.composition_value.s": s("proxfun.composition_value"),
        "compositions.construct.s": s("compositions.construct"),
        "compositions.construct.calls": c("compositions.construct"),
        "solvers.iters": sum(iterations),
        "solvers.us_per_iter": s(SOLVE) * 1e6 / sum(iterations) if sum(iterations) else 0.0,
        "solvers.loop_self.s": s(SOLVE, selfs),
        "solvers.relaxed_instance_init.s": s("solvers.relaxed_instance_init"),
        "solvers.verify.s": s("solvers.verify"),
        "solvers.proximal_point.s": s("solvers.proximal_point"),
        "bench.load_spec.s": s("bench.load_spec"),
        "bench.generate_instance.self_s": s("bench.generate_instance", selfs),
        "bench.oracle.s": s("bench.oracle"),
        "cli.trace_write.s": s("cli.trace_write"),
    })
    for group in SUITE_GROUPS:
        m[f"properties.suite.{group}.s"] = s(f"properties.suite.{group}")
    return m


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


class Derived:
    """A metric computed from other samples, with the number it rests on."""

    def __init__(self, value, n, how):
        self.value, self.n, self.how = value, n, how


def _scaled(pairs, key, raw=False):
    """The samples of ``key``, each rescaled to the probe's nominal host speed unless ``raw``."""
    return [value[key] * (1.0 if raw else scale) for value, scale in pairs]


def _per_config(pairs, key, raw=False):
    """Max over configs of the per-config median of RSS; sum of per-config medians of time."""
    by_config = {}
    for value, scale in pairs:
        factor = 1.0 if raw or key == "cli_peak_rss_mb" else scale
        by_config.setdefault(value["config"], []).append(value[key] * factor)
    medians = [statistics.median(v) for v in by_config.values()]
    return max(medians) if key == "cli_peak_rss_mb" else sum(medians)


def measure(workload, seed, deadline, limit, workdir, gate):
    """Untraced run: the end-to-end metrics as ``name -> samples or Derived``.

    Returns them twice: rescaled to the probe's nominal host speed, and as
    measured.
    """
    plan = dict(PLANS[workload])
    if workload == "props":
        w = PropsWorkload(seed, workdir, gate)
        units = {"pass": w.run_pass, "cli": w.cli_sample,
                 "import": lambda: import_sample(workdir, gate)}
    else:
        w = SolveWorkload(workload, seed, workdir, gate)
        share, sweeps = plan["cli"]
        plan["cli"] = (share, sweeps * len(w.paths))
        units = {"pass": w.run_pass, "cli": w.cli_sample}
    w.warm_up()  # not counted
    samples = interleave(plan, units, deadline, limit)

    out = []
    for raw in (False, True):
        series = {key: _scaled(samples["pass"], key, raw)
                  for key in ("solve_s", "verify_s", "wall_s")}
        if workload == "props":
            series["setup_s"] = _scaled(samples["import"], "import_s", raw)
            series["cli_wall_s"] = _scaled(samples["cli"], "cli_wall_s", raw)
            series["cli_peak_rss_mb"] = _scaled(samples["cli"], "cli_peak_rss_mb", raw=True)
        else:
            series["setup_s"] = _scaled(samples["pass"], "setup_s", raw)
            for key, how in (("cli_wall_s", "sum over configs of per-config medians"),
                             ("cli_peak_rss_mb", "max of per-config medians")):
                series[key] = Derived(_per_config(samples["cli"], key, raw),
                                      len(samples["cli"]), how)
        out.append(series)
    return out


def measure_traced(workload, seed, deadline, limit, workdir, gate):
    """Traced run: per-layer metrics, and the overhead of tracing."""
    from tracer import Tracer

    if workload == "props":
        w = PropsWorkload(seed, workdir, gate)
    else:
        w = SolveWorkload(workload, seed, workdir, gate)
    one_pass = w.run_pass
    tracer = Tracer()
    layers = []
    kept = {}  # spans of the first traced pass, written when the run ends

    def traced():
        tracer.reset()
        tracer.set_run(len(layers) + 1)
        tracer.install()
        try:
            with tracer.span("bench.pass"):
                result = one_pass(write_traces=True)
        finally:
            restored = tracer.uninstall()
        gate.check(restored > 0 and not tracer.installed(), "tracer left wrappers installed")
        if result is not None:
            if not layers:
                kept.update(tracer.snapshot(), seed=seed)
            layers.append(layer_metrics(tracer, getattr(w, "shapes", [])))
        return result

    w.warm_up()  # not counted
    units = {"pass": one_pass, "traced": traced, "import": lambda: import_sample(workdir, gate)}
    pairs = interleave(TRACED_PLAN, units, deadline, limit)
    samples = {unit: [value for value, _scale in got] for unit, got in pairs.items()}
    if kept:
        OUT.mkdir(exist_ok=True)
        np.savez_compressed(OUT / f"spans-{workload}.npz", **kept)

    series = {name: [layer[name] for layer in layers] for name in layers[0]} if layers else {}
    untraced_wall = statistics.median(p["wall_s"] for p in samples["pass"])
    traced_wall = statistics.median(p["wall_s"] for p in samples["traced"])
    series["trace_overhead_frac"] = Derived(traced_wall / untraced_wall - 1.0,
                                            len(samples["traced"]),
                                            "median traced over median untraced pass wall, - 1")
    series["cli.import.s"] = [i["import_s"] for i in samples["import"]]
    if workload != "props":  # time per iteration without the tracer's cost
        series["solvers.us_per_iter"] = [p["solve_s"] * 1e6 / p["iters"]
                                         for p in samples["pass"] if p["iters"]]
    return series


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()  # set-up and warm-up count too
    deadline = start + args.seconds
    limit = deadline + GRACE_S

    if not (SRC / "rescomp" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: no rescomp source tree with BENCHMARK.json at {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; one of {names}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rescomp

    if SRC not in Path(rescomp.__file__).resolve().parents:
        print(f"error: imported rescomp from {rescomp.__file__}, not {SRC}", file=sys.stderr)
        return 2

    declared = spec["per_layer" if args.trace else "end_to_end"]
    print("# env " + json.dumps(environment(), sort_keys=True))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    gate = Gate()
    try:
        run = (args.workload, args.seed, deadline, limit, workdir, gate)
        if args.trace:
            series, measured = measure_traced(*run), {}
        else:
            series, measured = measure(*run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass

    metrics = {}
    for entry in declared:
        values = series.get(entry["name"])
        as_measured = measured.get(entry["name"])
        if isinstance(values, Derived):
            report = {"value": values.value, "n": values.n, "how": values.how}
            value = values.value
            if as_measured is not None:
                report["as_measured"] = as_measured.value
        elif values:
            report = median_report(values)
            value = report["median"]
            if as_measured is not None:
                report["as_measured"] = median_report(as_measured)
        else:
            print(f"error: metric {entry['name']} was not measured", file=sys.stderr)
            return 2
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print("# metric " + json.dumps({"name": entry["name"], "unit": entry["unit"], **report}))
    undeclared = sorted(set(series) - {entry["name"] for entry in declared})
    if undeclared:
        print(f"error: measured metrics missing from BENCHMARK.json: {undeclared}",
              file=sys.stderr)
        return 2
    for note in gate.notes:
        print("# failed " + note)
    print(f"# fail_frac {gate.failed / max(1, gate.attempted)!r} "
          f"({gate.failed} of {gate.attempted} operations)")
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
