"""Instance generators, oracles, and the configuration-driven runner.

A run is described by one JSON document with the top-level keys

    kind, spaces, maps, sets, weights, subspace, gamma, schedule, seed, output

where ``kind`` is one of ``split-feasibility``, ``common-zero``,
``feasibility-product``, ``wiener`` or ``prox-mixture`` and the entries of
``sets`` are block descriptors whose meaning depends on the kind (convex
sets, operators, Wiener blocks or convex functions; see README).
``schedule`` holds ``lambda``, ``max_iterations`` and ``tol``, each
validated when the config is read; ``output`` holds the optional string
paths ``trace`` and ``report``.  A run takes the Anderson stage of the
solver, except with the norm gate bypassed (``unsafe``), where the steps
need not be nonexpansive and the plain relaxed steps run instead.

Exit-code contract of :func:`run`: 0 on success, 1 on structural errors
(unparseable config, dimension mismatches, failed norm gates), 2 on
tolerance failures (no convergence, a non-finite residual, a verdict of
"not a solution", oracle mismatch).  File outputs are written atomically.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import operators, proxfun
from .errors import RescompError, ValidationError
from .hilbert import LinearMap, Space, SubspaceProjector, _count, _real, _scale, identity_map
from .sets import AffineSubspace, Ball, Box, Halfspace, Singleton
from .solvers import (
    ANDERSON_MEMORY,
    RelaxedInstance,
    Schedule,
    solve_relaxed,
    variational_residual,
    verify_exact_relaxation,
    write_atomically,
)

INSTANCE_KINDS = (
    "split-feasibility",
    "common-zero",
    "feasibility-product",
    "wiener",
    "prox-mixture",
)

ORACLE_MATCH_TOL = 1e-6
EXACTNESS_TOL = 1e-8


def _numbers(value):
    """``value``, None or a number or nested lists of numbers, read as strictly as a scalar.

    A bool, a string or a None inside it raises ``TypeError``, which
    :func:`_field` turns into an error naming the field.
    """
    if value is not None and not _numeric(value):
        raise TypeError("expected a number or a list of numbers; a string or a bool is neither")
    return value


def _numeric(value):
    if isinstance(value, list):  # a row of plain numbers is checked in one pass
        return {*map(type, value)} <= {int, float} or all(map(_numeric, value))
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _all_finite(value):
    """Whether every number of ``value``, read by :func:`_numbers`, is finite."""
    return bool(np.isfinite(np.asarray(_numbers(value), dtype=float)).all())


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass
class InstanceSpec:
    """Parsed, validated form of a run configuration."""

    kind: str
    spaces: dict
    maps: list | None
    sets: list
    weights: list | None
    subspace: list
    gamma: float = 1.0
    schedule: dict = field(default_factory=dict)
    seed: int = 0
    output: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ValidationError("config root must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"unknown config fields: {sorted(unknown)}")
        required = ["kind", "spaces", "sets"]
        if data.get("kind") != "feasibility-product":
            # the product construction implies the diagonal subspace
            required.append("subspace")
        for field_name in required:
            if field_name not in data:
                raise ValidationError(f"missing config field {field_name!r}")
        for name in ("schedule", "output"):
            if not isinstance(data.get(name, {}), dict):
                raise ValidationError(f"field {name!r}: must be a JSON object")
        spec = cls(
            kind=data["kind"],
            spaces=data["spaces"],
            maps=data.get("maps"),
            sets=data["sets"],
            weights=data.get("weights"),  # one per block by default, filled in by validate
            subspace=data.get("subspace", []),
            gamma=data.get("gamma", 1.0),
            schedule=dict(data.get("schedule", {})),
            seed=_count("field 'seed'", data.get("seed", 0)),
            output=dict(data.get("output", {})),
        )
        spec.validate()
        return spec

    def validate(self):
        if self.kind not in INSTANCE_KINDS:
            raise ValidationError(
                f"field 'kind': {self.kind!r} is not one of {INSTANCE_KINDS}"
            )
        if not isinstance(self.spaces, dict) or "domain" not in self.spaces:
            raise ValidationError("field 'spaces': needs a 'domain' entry")
        if not isinstance(self.sets, list) or not self.sets:
            raise ValidationError("field 'sets': a list of at least one block is required")
        if self.weights is None:
            self.weights = [1.0] * len(self.sets)
        _list("weights", self.weights)
        _list("maps", self.maps)
        _list("spaces.blocks", self.spaces.get("blocks"))
        if len(self.weights) != len(self.sets):
            raise ValidationError("field 'weights': one weight per block is required")
        for i, w in enumerate(self.weights):
            if not np.isfinite(_real(f"field 'weights[{i}]'", w)) or w <= 0:
                raise ValidationError(f"field 'weights[{i}]': must be finite and positive")
        self.gamma = _scale("field 'gamma'", self.gamma)
        if not self.subspace and self.kind != "feasibility-product":
            raise ValidationError("field 'subspace': spanning vectors are required")
        if not _field("subspace", _all_finite, self.subspace):
            raise ValidationError("field 'subspace': non-finite entry")
        for i, m in enumerate(self.maps or []):  # finiteness: LinearMap checks it
            _field(f"maps[{i}]", _numbers, m)
        try:
            self.build_schedule()
        except ValidationError as exc:
            raise ValidationError(f"field 'schedule': {exc}") from exc
        unknown = set(self.output) - {"trace", "report"}
        if unknown:
            raise ValidationError(f"field 'output': unknown fields {sorted(unknown)}")
        for key, path in self.output.items():
            if not isinstance(path, str):
                raise ValidationError(f"field 'output': {key!r} must be a string path, got {path!r}")

    def build_schedule(self, unsafe=False):
        """The run's :class:`Schedule`: Anderson, or the plain steps when ``unsafe``.

        With the norm gate bypassed the step need not be nonexpansive, so
        the safeguard's convergence guarantee does not hold, and the plain
        steps show what the unchecked data do (e.g. diverge).
        """
        unknown = set(self.schedule) - {"lambda", "max_iterations", "tol"}
        if unknown:
            raise ValidationError(f"unknown fields {sorted(unknown)}")
        return Schedule(
            lam=self.schedule.get("lambda", 1.0),
            max_iterations=self.schedule.get("max_iterations", 100_000),
            tol=self.schedule.get("tol", 1e-10),
            anderson=not unsafe,
        )


def load_spec(path):
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc
    return InstanceSpec.from_dict(data)


# ---------------------------------------------------------------------------
# descriptor -> object builders
# ---------------------------------------------------------------------------


def _field(name, build, *args):
    """``build(*args)``; a value it cannot read raises a ``ValidationError`` naming the field."""
    try:
        return build(*args)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"field {name!r}: {exc}") from exc


def _list(name, value):
    """Refuse a config field that is present but not a JSON list, naming the field."""
    if value is not None and not isinstance(value, list):
        raise ValidationError(f"field {name!r}: must be a JSON list, got {value!r}")


def _object(desc):
    """``desc`` if it is a JSON object; a descriptor of another type raises ``TypeError``."""
    if not isinstance(desc, dict):
        raise TypeError(f"a descriptor must be a JSON object, got {desc!r}")
    return desc


def _build_space(desc):
    return Space(_count("dim", _object(desc)["dim"]), _numbers(desc.get("weights")))


def _build_set(desc, space):
    tag = _object(desc).get("tag")
    if tag == "singleton":
        return Singleton(space, _numbers(desc["point"]))
    if tag == "box":
        return Box(space, _numbers(desc["lower"]), _numbers(desc["upper"]))
    if tag == "ball":
        return Ball(space, _numbers(desc["center"]), _real("radius", desc["radius"]))
    if tag == "halfspace":
        return Halfspace(space, _numbers(desc["normal"]), _real("offset", desc["offset"]))
    if tag == "affine":
        return AffineSubspace(space, _numbers(desc["anchor"]), _numbers(desc["directions"]))
    raise ValidationError(f"unknown set tag {tag!r}")


def _build_operator(desc, space):
    tag = _object(desc).get("tag")
    if tag == "zero":
        return operators.zero_operator(space)
    if tag == "scaled-identity":
        return operators.scaled_identity(space, _real("c", desc["c"]))
    if tag == "linear":
        return operators.linear_monotone(space, _numbers(desc["matrix"]))
    if tag == "normal-cone":
        return operators.normal_cone(_build_set(desc["set"], space))
    raise ValidationError(f"unknown operator tag {tag!r}")


def _build_function(desc, space):
    tag = _object(desc).get("tag")
    if tag == "abs":
        return proxfun.one_norm(space)
    if tag == "quadratic":
        return proxfun.quadratic(space, _numbers(desc["q"]), _numbers(desc.get("b")))
    if tag == "half-sq-dist":
        return proxfun.half_squared_distance(space, _numbers(desc["point"]))
    if tag == "indicator":
        return proxfun.indicator(_build_set(desc["set"], space))
    raise ValidationError(f"unknown function tag {tag!r}")


def _build_wiener_forward(desc, space):
    """The forward map of a Wiener block: the number ``c`` of ``c Id``, or a projection.

    The projection is the set's raw one, as it runs inside the solver's
    kernel; ``make_wiener`` validates its outputs in its spot checks.
    """
    tag = _object(desc).get("tag", "scale")
    if tag == "scale":
        return _real("c", desc["c"])
    if tag == "projection":
        return _build_set(desc["set"], space)._project
    raise ValidationError(f"unknown wiener forward tag {tag!r}")


def _build_wiener(desc, space):
    if "f" not in _object(desc):
        raise ValidationError("a Wiener block needs its forward map under 'f'")
    forward = _build_wiener_forward(desc["f"], space)
    return operators.make_wiener(space, forward, _numbers(desc["point"]))


# The block operator of each kind but feasibility-product, from its descriptor.
_BLOCK_BUILDERS = {
    "split-feasibility": lambda desc, space: operators.normal_cone(_build_set(desc, space)),
    "common-zero": _build_operator,
    "wiener": _build_wiener,
    "prox-mixture": lambda desc, space: operators.subdifferential(_build_function(desc, space)),
}


def _build_maps(spec, domain, block_spaces):
    descs = spec.maps if spec.maps is not None else [None] * len(block_spaces)
    if len(descs) != len(block_spaces):
        raise ValidationError("field 'maps': one matrix (or null) per block is required")
    out = []
    for i, (desc, g) in enumerate(zip(descs, block_spaces)):
        if desc is None:
            if g.dim != domain.dim:
                raise ValidationError(
                    f"field 'maps[{i}]': identity requested but block dim {g.dim} "
                    f"differs from domain dim {domain.dim}"
                )
            out.append(LinearMap(domain, g, np.eye(g.dim)))
        else:
            out.append(_field(f"maps[{i}]", LinearMap, domain, g, desc))
    return out


# ---------------------------------------------------------------------------
# instance generation
# ---------------------------------------------------------------------------


def generate_instance(spec, unsafe=False):
    """Build the relaxed instance described by ``spec`` (deterministic)."""
    domain = _field("spaces.domain", _build_space, spec.spaces["domain"])
    weights = [float(w) for w in spec.weights]

    if spec.kind == "feasibility-product":
        B = operators.product_family(
            [operators.normal_cone(_field(f"sets[{i}]", _build_set, d, domain))
             for i, d in enumerate(spec.sets)], weights)
        diagonal = np.tile(np.eye(domain.dim), len(spec.sets))  # rows (e_i, ..., e_i)
        V = SubspaceProjector(B.space, diagonal)
        return RelaxedInstance(V, identity_map(B.space), B, spec.gamma, kind=spec.kind,
                               unsafe=unsafe)

    V = _field("subspace", SubspaceProjector, domain, spec.subspace)
    block_descs = spec.spaces.get("blocks")
    if block_descs is None:
        block_spaces = [domain] * len(spec.sets)
    else:
        block_spaces = [_field(f"spaces.blocks[{i}]", _build_space, d)
                        for i, d in enumerate(block_descs)]
    if len(block_spaces) != len(spec.sets):
        raise ValidationError("field 'spaces.blocks': one space per block is required")
    maps = _build_maps(spec, domain, block_spaces)
    fams = [_field(f"sets[{i}]", _BLOCK_BUILDERS[spec.kind], d, g)
            for i, (d, g) in enumerate(zip(spec.sets, block_spaces))]
    return RelaxedInstance.from_blocks(V, zip(maps, fams, weights), spec.gamma, kind=spec.kind,
                                       unsafe=unsafe)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def normal_equations(basis, terms):
    """``M = sum_k a_k A_k* A_k`` and ``rhs = sum_k b_k A_k* p_k`` with ``A_k = L_k U``.

    ``basis`` holds the orthonormal basis ``U`` of V in its rows and
    ``terms`` yields ``(L_k, p_k, a_k, b_k)``.  Row ``i`` of
    ``A_k = basis @ L_k.matrix.T`` is ``L_k u_i``, so
    ``M[i, j] = sum_k a_k <L_k u_i, L_k u_j>_{G_k}`` in the metric of each
    codomain ``G_k``, and likewise for ``rhs``.
    """
    k = basis.shape[0]
    M = np.zeros((k, k))
    rhs = np.zeros(k)
    for L_k, p_k, a_k, b_k in terms:
        A = basis @ L_k.matrix.T
        AW = A * L_k.codomain.weights
        M += a_k * (AW @ A.T)
        rhs += b_k * (AW @ p_k)
    return M, rhs


def least_squares_oracle(inst):
    """Normal-equations solution of the singleton split-feasibility relaxation.

    Minimizes ``sum_k w_k ||L_k x - p_k||^2`` over ``x in V`` directly in
    the coordinates of V's orthonormal basis; fully independent of the
    iterative solver.  Returns ``(x, rank_deficient_flag)``.
    """
    if inst.kind != "split-feasibility" or not inst.blocks:
        raise ValidationError("least_squares_oracle needs a split-feasibility instance")
    terms = []
    for L_k, fam, w_k in inst.blocks:
        if not isinstance(fam.cset, Singleton):
            raise ValidationError("least_squares_oracle needs singleton target sets")
        terms.append((L_k, fam.cset.point, w_k, w_k))
    basis = inst.V.basis  # rows
    M, rhs = normal_equations(basis, terms)
    flag = False
    try:
        coeffs = np.linalg.solve(M, rhs)
        if np.linalg.cond(M) > 1e12:
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        coeffs, *_ = np.linalg.lstsq(M, rhs, rcond=None)
        flag = True
    return basis.T @ coeffs, flag


def wiener_oracle(inst):
    """Direct solve of the Wiener stationarity system over V, for linear blocks.

    Only available when every forward map is a scaled identity ``c_k Id``,
    whose family declares the constant derivative ``M_k = 1 - c_k`` of its
    resolvent ``M_k y + p_k``, with ``p_k = J_1(0)``; the stationarity
    condition ``sum_k w_k L_k* (c_k L_k x - p_k) = 0`` restricted to V's
    basis is then a small linear system.
    """
    if inst.kind != "wiener" or not inst.blocks:
        raise ValidationError("wiener_oracle needs a wiener instance built from blocks")
    if not all(B_k.constant_derivative for _L_k, B_k, _w_k in inst.blocks):
        raise ValidationError("wiener_oracle needs scaled-identity forward maps")
    terms = []
    for L_k, B_k, w_k in inst.blocks:
        origin = B_k.space.zeros()
        M_k, p_k = B_k.derivative(1.0, origin), B_k._evaluator(1.0, origin)
        terms.append((L_k, p_k, w_k * (1.0 - M_k), w_k))
    basis = inst.V.basis
    coeffs = np.linalg.solve(*normal_equations(basis, terms))
    return basis.T @ coeffs


def _oracle(inst):
    """``(point, rank_deficient)`` from the closed-form oracle, or None for kinds without one."""
    if inst.kind == "split-feasibility":
        ref, flag = least_squares_oracle(inst)
        return ref, bool(flag)
    if inst.kind == "wiener":
        return wiener_oracle(inst), False
    return None


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


@dataclass
class RunReport:
    """Summary of one configuration-driven solve."""

    kind: str
    seed: int
    converged: bool
    reason: str
    iterations: int
    final_iterate: list
    fp_residual: float
    var_residual: float
    original_residual: float
    membership_defect: float
    verdict: str
    oracle: dict | None
    trace_path: str | None
    x0_projected: bool
    certificates: dict
    memory: int     # the Anderson window of the run; 0: the plain relaxed steps
    fallbacks: int  # Newton and Anderson candidates the safeguard rejected
    newton_candidates: int  # Newton candidates taken
    rank_G: int | None      # rank the last Newton solve reported; None: none tried

    def to_json(self):
        """Strict JSON: a non-finite number is written as ``null``."""
        return json.dumps(_finite_or_null(dataclasses.asdict(self)), indent=2,
                          sort_keys=True, allow_nan=False)


def _finite_or_null(value):
    """``value`` with every non-finite float inside dicts and lists replaced by None."""
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def certificates(inst):
    """The rank r of V, its dropped spanning vectors, ``sigma_min(L U)`` and ``||L||^2``.

    ``dropped_vectors`` counts the spanning vectors of V beyond its rank,
    zero and dependent ones alike.  ``norm_L_sq`` is the ``||L||^2`` the
    instance's norm gate read (above 1 only under ``--unsafe-norm``).

    ``sigma_min`` is the smallest singular value of ``A = L U`` from ``R^r``
    into the codomain metric (0 when ``A`` has fewer than r rows).  A run
    of plain steps (``--unsafe-norm``) with ``lambda = 1`` contracts by
    about ``1 - sigma_min^2`` per step, or more slowly when the blocks have
    less curvature; the Anderson stage of the other runs usually needs far
    fewer steps.
    """
    r = inst.V.rank
    s = np.linalg.svd(inst.A * np.sqrt(inst.L.codomain.weights)[:, None], compute_uv=False)
    norm = inst.L.op_norm()  # cached by the instance's gate: no factorization
    return {"rank_V": r, "dropped_vectors": inst.V.dropped,
            "sigma_min_LU": float(s[-1]) if len(s) == r else 0.0, "method": "svd",
            "norm_L_sq": norm * norm}  # overflows to inf (written null), where ** 2 raises


def execute(spec, unsafe=False):
    """Build, solve and verify an instance; returns ``(report, trace)``."""
    inst = generate_instance(spec, unsafe=unsafe)
    schedule = spec.build_schedule(unsafe=unsafe)
    x0 = inst.space.zeros()
    x, trace = solve_relaxed(inst, x0, schedule)
    # After a non-finite run the residuals of the (finite, huge) last iterate
    # overflow too; the report carries them as null, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        report_check = verify_exact_relaxation(inst, x, tol=EXACTNESS_TOL)
        try:
            found = _oracle(inst)
        except ValidationError:
            found = None
        oracle_entry = None if found is None else {
            "point": list(found[0]),
            "distance": inst.space.norm(x - found[0]),
            "rank_deficient": found[1],
        }

        report = RunReport(
            kind=inst.kind,
            seed=spec.seed,
            converged=trace.reason == "converged",
            reason=trace.reason,
            iterations=trace.iterations,
            final_iterate=list(x),
            fp_residual=trace.fp_residual[-1],
            var_residual=variational_residual(inst, x),
            original_residual=report_check.original_residual,
            membership_defect=report_check.membership_defect,
            verdict=report_check.verdict,
            oracle=oracle_entry,
            trace_path=None,
            x0_projected=trace.x0_projected,
            certificates=certificates(inst),
            memory=ANDERSON_MEMORY if schedule.anderson else 0,
            fallbacks=trace.fallbacks,
            newton_candidates=trace.newton_candidates,
            rank_G=trace.rank_G,
        )
    return report, trace


def run(config_path, trace_path=None, unsafe=False, out=print):
    """CLI body for ``rescomp solve``; returns the process exit code."""
    try:
        spec = load_spec(config_path)
        report, trace = execute(spec, unsafe=unsafe)
    except (RescompError, OSError, KeyError, TypeError) as exc:
        out(f"error: {exc}")
        return 1
    trace_target = trace_path or spec.output.get("trace")
    report_target = spec.output.get("report")
    try:
        if trace_target:
            trace.to_csv(trace_target)
            report.trace_path = trace_target
        if report_target:
            write_atomically(report_target, lambda fh: fh.write(report.to_json() + "\n"))
    except OSError as exc:
        out(f"error: {exc}")
        return 1
    out(report.to_json())
    if report.reason == "non-finite":
        out(f"tolerance failure: the residual went non-finite at iteration {report.iterations}")
        return 2
    if not report.converged:
        out("tolerance failure: did not converge within the iteration budget")
        return 2
    if report.verdict == "not a solution":
        out(f"tolerance failure: the output is not a relaxed solution within {EXACTNESS_TOL}")
        return 2
    if report.oracle is not None and report.oracle["distance"] > ORACLE_MATCH_TOL:
        out(
            f"tolerance failure: distance to oracle {report.oracle['distance']:.3g} "
            f"exceeds {ORACLE_MATCH_TOL}"
        )
        return 2
    return 0


def oracle_command(config_path, out=print):
    """CLI body for ``rescomp oracle``: print the closed-form reference."""
    try:
        spec = load_spec(config_path)
        inst = generate_instance(spec)
        found = _oracle(inst)
        if found is None:
            out(f"error: no closed-form oracle for kind {inst.kind!r}")
            return 1
        out(json.dumps({"point": list(found[0]), "rank_deficient": found[1]}))
    except (RescompError, OSError, KeyError, TypeError) as exc:
        out(f"error: {exc}")
        return 1
    return 0
