"""Instance generators, oracles, and the configuration-driven runner.

A run is described by one JSON document with the top-level keys

    kind, spaces, maps, sets, weights, subspace, gamma, schedule, seed, output

where ``kind`` is one of ``split-feasibility``, ``common-zero``,
``feasibility-product``, ``wiener`` or ``prox-mixture`` and the entries of
``sets`` are block descriptors whose meaning depends on the kind (convex
sets, operators, Wiener blocks or convex functions; see README).
``schedule`` holds ``lambda`` (the ``lam`` of :class:`Schedule`),
``max_iterations`` and ``tol``; ``output`` the optional string paths
``trace`` and ``report``.  A run takes the solver's Newton candidates,
except with the norm gate bypassed (``unsafe``), where the steps need not
be nonexpansive and the plain relaxed steps run instead.

Each config key is declared once, with its default: as a field of
:class:`InstanceSpec` or :class:`Schedule`, or in a descriptor tag's
``(build, *keys)`` entry in ``_TAGS``; :func:`_build` refuses any other key.
:meth:`InstanceSpec.validate` checks the top-level values and the library
constructors the rest; each error names its field (:func:`_field`).
Both oracles return ``(x, rank_deficient)`` from one normal-equations solve.

Exit-code contract of :func:`run`: 0 on success, 1 on structural errors
(unparseable config, a missing key, dimension mismatches, failed norm
gates), 2 on tolerance failures (no convergence, a non-finite residual, a
verdict of "not a solution", oracle mismatch).  File outputs are written
atomically.
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
from .hilbert import LinearMap, Space, SubspaceProjector, _count, _scale, identity_map
from .sets import AffineSubspace, Ball, Box, Halfspace, Singleton
from .solvers import (
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

# The errors that end a run with exit code 1: bad input, a failed gate, a file
# that cannot be read or written.
_STRUCTURAL_ERRORS = (RescompError, OSError, KeyError, TypeError)


def _numbers(value, what="every entry"):
    """``value``, None or a number or nested lists of numbers, read as strictly as a scalar.

    A bool, a string or a None inside it raises a ``TypeError`` naming
    ``what``, which :func:`_field` turns into an error naming the field too.
    """
    if value is not None and not _numeric(value):
        raise TypeError(f"{what} must be a number or a list of numbers, not a string or a bool")
    return value


def _numeric(value):
    if isinstance(value, list):  # a row of plain numbers is checked in one pass
        return {*map(type, value)} <= {int, float} or all(map(_numeric, value))
    if type(value) in (int, float):  # a plain scalar needs no isinstance of the ABC
        return True
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(kw_only=True)
class InstanceSpec:
    """Parsed, validated form of a run configuration; its fields are the config's keys."""

    kind: str
    spaces: dict
    maps: list | None = None  # None: an identity map per block
    sets: list
    weights: list | None = None  # None: 1 per block, filled in by validate
    subspace: list = field(default_factory=list)
    gamma: float = 1.0
    schedule: dict = field(default_factory=dict)
    seed: int = 0
    output: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data):
        fields = dataclasses.fields(cls)
        _known("config", data, {f.name for f in fields})
        for f in fields:  # a field without a default is required
            if f.name not in data and f.default is f.default_factory is dataclasses.MISSING:
                raise ValidationError(f"missing config field {f.name!r}")
        spec = cls(**data)
        spec.validate()
        return spec

    def validate(self):
        if self.kind not in INSTANCE_KINDS:
            raise ValidationError(
                f"field 'kind': {self.kind!r} is not one of {INSTANCE_KINDS}"
            )
        _field("spaces", _known, "spaces", self.spaces, {"domain", "blocks"})
        if "domain" not in self.spaces:
            raise ValidationError("field 'spaces': needs a 'domain' entry")
        product = self.kind == "feasibility-product"  # its L and V are built from the domain
        unread = {"maps": self.maps, "subspace": self.subspace,
                  "spaces.blocks": self.spaces.get("blocks")}
        for name, value in unread.items() if product else ():
            if value:
                raise ValidationError(f"field {name!r}: a feasibility-product config takes none")
        if not isinstance(self.sets, list) or not self.sets:
            raise ValidationError("field 'sets': a list of at least one block is required")
        if self.weights is None:
            self.weights = [1.0] * len(self.sets)
        for name, value in (("weights", self.weights), ("maps", self.maps),
                            ("spaces.blocks", self.spaces.get("blocks"))):
            if value is not None and not isinstance(value, list):
                raise ValidationError(f"field {name!r}: must be a JSON list, got {value!r}")
            if value is not None and len(value) != len(self.sets):
                raise ValidationError(f"field {name!r}: one entry per block is required, "
                                      f"got {len(value)} for {len(self.sets)} blocks")
        self.weights = [_scale(f"field 'weights[{i}]'", w) for i, w in enumerate(self.weights)]
        self.gamma = _scale("field 'gamma'", self.gamma)
        self.seed = _count("field 'seed'", self.seed)
        if not self.subspace and not product:
            raise ValidationError("field 'subspace': spanning vectors are required")
        _field("subspace", _numbers, self.subspace)  # finiteness: SubspaceProjector checks it
        for i, m in enumerate(self.maps or []):  # finiteness: LinearMap checks it
            _field(f"maps[{i}]", _numbers, m)
        _field("schedule", self.build_schedule)
        _field("output", _known, "output", self.output, {"trace", "report"})
        for key, path in self.output.items():
            if not isinstance(path, str):
                raise ValidationError(f"field 'output': {key!r} must be a string path, got {path!r}")

    def build_schedule(self, unsafe=False):
        """The run's :class:`Schedule`, from its keys: Newton, or the plain steps when ``unsafe``.

        With the norm gate bypassed the step need not be nonexpansive, so
        the safeguard's convergence guarantee does not hold, and the plain
        steps show what the unchecked data do (e.g. diverge).
        """
        _known("schedule", self.schedule, {"lambda", "max_iterations", "tol"})
        keys = {"lam" if key == "lambda" else key: value for key, value in self.schedule.items()}
        return Schedule(**keys, newton=not unsafe)


def _known(what, data, keys):
    """Refuse ``data`` unless it is a JSON object whose every key is in the set ``keys``."""
    if not isinstance(data, dict):
        raise ValidationError(f"{what} must be a JSON object, got {data!r}")
    if not data.keys() <= keys:
        raise ValidationError(f"unknown {what} fields {sorted(data.keys() - keys)}")


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
    """``build(*args)``; a value it cannot read raises a ``ValidationError`` naming the field.

    So does a key that a descriptor lacks: ``field 'sets[0]': missing key 'point'``.
    """
    try:
        return build(*args)
    except KeyError as exc:
        raise ValidationError(f"field {name!r}: missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"field {name!r}: {exc}") from exc


def _build(what, desc, space):
    """The object that a ``what`` descriptor describes in ``space``, built by its tag's entry.

    The tag is read from ``desc["tag"]``; a Wiener forward map without one is
    a ``scale``, and spaces and Wiener blocks take no tag.  A key that the
    entry does not declare is refused.
    """
    if not isinstance(desc, dict):
        raise TypeError(f"a descriptor must be a JSON object, got {desc!r}")
    tag = desc.get("tag", "scale" if what == "wiener forward" else None)
    try:
        build, *keys = _TAGS[what][tag]
    except (KeyError, TypeError):  # TypeError: a tag that is a list or an object
        raise ValidationError(f"unknown {what} tag {tag!r}") from None
    _known(f"{what} {tag!r}" if tag else what, desc, _KEYS[what, tag])
    return build(space, *[_read(desc, key, space) for key in keys])


def _read(desc, key, space):
    """``desc[key]`` read by :func:`_numbers`, or built if nested; None for an absent ``key?``."""
    if key[-1] == "?":
        return _numbers(desc.get(key[:-1]), key[:-1])
    nested = _NESTED.get(key)
    return _numbers(desc[key], key) if nested is None else _build(nested, desc[key], space)


# The entry ``(build, *keys)`` of each tag, per descriptor kind: ``build(space,
# *values)`` gets each key's value, read by ``_read``; ``?`` marks an optional
# key.  The README's key table is checked against this one.
_TAGS = {
    "space": {None: (lambda _, dim, weights: Space(dim, weights), "dim", "weights?")},
    "set": {
        "singleton": (Singleton, "point"),
        "box": (Box, "lower", "upper"),
        "ball": (Ball, "center", "radius"),
        "halfspace": (Halfspace, "normal", "offset"),
        "affine": (AffineSubspace, "anchor", "directions"),
    },
    "operator": {
        "zero": (operators.zero_operator,),
        "scaled-identity": (operators.scaled_identity, "c"),
        "linear": (operators.linear_monotone, "matrix"),
        "normal-cone": (lambda _, cset: operators.normal_cone(cset), "set"),
    },
    "function": {
        "abs": (proxfun.one_norm,),
        "quadratic": (proxfun.quadratic, "q", "b?"),
        "half-sq-dist": (proxfun.half_squared_distance, "point"),
        "indicator": (lambda _, cset: proxfun.indicator(cset), "set"),
    },
    # The number c of c Id, or the set whose projection is the forward map:
    # make_wiener decides either exactly and declares its derivative.
    "wiener forward": {
        "scale": (lambda _, c: c, "c"),
        "projection": (lambda _, cset: cset, "set"),
    },
    "wiener block": {None: (operators.make_wiener, "f", "point")},
}

_NESTED = {"set": "set", "f": "wiener forward"}  # the descriptor kind of each nested key
# The keys of each entry, without their "?", and the "tag" that picks it, computed once.
_KEYS = {(what, tag): {"tag", *(key.rstrip("?") for key in keys)}
         for what, entries in _TAGS.items() for tag, (_, *keys) in entries.items()}


# The block operator of each instance kind, from its descriptor.
_BLOCKS = {
    "split-feasibility": lambda desc, space: operators.normal_cone(_build("set", desc, space)),
    "common-zero": lambda desc, space: _build("operator", desc, space),
    "wiener": lambda desc, space: _build("wiener block", desc, space),
    "prox-mixture": lambda desc, space: operators.subdifferential(_build("function", desc, space)),
}
_BLOCKS["feasibility-product"] = _BLOCKS["split-feasibility"]  # the factors are normal cones too


# ---------------------------------------------------------------------------
# instance generation
# ---------------------------------------------------------------------------


def generate_instance(spec, unsafe=False):
    """Build the relaxed instance described by ``spec`` (deterministic)."""
    domain = _field("spaces.domain", _build, "space", spec.spaces["domain"], None)
    block_descs = spec.spaces.get("blocks")  # never in a feasibility product
    spaces = [domain] * len(spec.sets) if block_descs is None else [
        _field(f"spaces.blocks[{i}]", _build, "space", d, None) for i, d in enumerate(block_descs)]
    fams = [_field(f"sets[{i}]", _BLOCKS[spec.kind], d, g)
            for i, (d, g) in enumerate(zip(spec.sets, spaces))]
    if spec.kind == "feasibility-product":
        B = operators.product_family(fams, spec.weights)
        diagonal = np.tile(np.eye(domain.dim), len(spec.sets))  # rows (e_i, ..., e_i)
        return RelaxedInstance(SubspaceProjector(B.space, diagonal), identity_map(B.space), B,
                               spec.gamma, kind=spec.kind, unsafe=unsafe)

    V = _field("subspace", SubspaceProjector, domain, spec.subspace)
    maps = []
    for i, (desc, g) in enumerate(zip(spec.maps or [None] * len(spaces), spaces)):
        if desc is None and g.dim != domain.dim:
            raise ValidationError(f"field 'maps[{i}]': identity requested but block dim "
                                  f"{g.dim} differs from domain dim {domain.dim}")
        maps.append(_field(f"maps[{i}]", LinearMap, domain, g,
                           np.eye(g.dim) if desc is None else desc))
    return RelaxedInstance.from_blocks(V, zip(maps, fams, spec.weights), spec.gamma,
                                       kind=spec.kind, unsafe=unsafe)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def normal_equations(basis, terms):
    """``M = sum_k a_k A_k* A_k`` and ``rhs = sum_k b_k A_k* p_k`` with ``A_k = L_k U``.

    ``basis`` holds the orthonormal basis ``U`` of V in its rows and
    ``terms`` yields ``(L_k, p_k, a_k, b_k)``.  Row ``i`` of
    ``A_k = basis @ L_k.matrix.T`` is ``L_k u_i``, so
    ``M[i, j] = sum_k a_k <L_k u_i, L_k u_j>_{G_k}`` in the metric of each
    codomain ``G_k``, and likewise for ``rhs``.  The ``A_k`` are stacked side
    by side, from the stacked ``L_k``, and each column is weighted by its
    codomain's metric and its block's ``a_k`` or ``b_k``, so the sums over
    ``k`` are one product each.
    """
    maps, points, a, b = zip(*terms)
    A = basis @ np.vstack([L_k.matrix for L_k in maps]).T
    W = [L_k.codomain.weights for L_k in maps]
    M = (A * np.concatenate([a_k * W_k for a_k, W_k in zip(a, W)])) @ A.T
    rhs = A @ np.concatenate([b_k * W_k * p_k for b_k, W_k, p_k in zip(b, W, points)])
    return M, rhs


def _solve_normal_equations(basis, terms):
    """``(x, rank_deficient)``: the point of V that solves :func:`normal_equations`.

    An LU solve, unless it fails or ``cond(M) > 1e12``: then ``lstsq`` gives
    the least-squares coefficients and ``rank_deficient`` is True.  ``M`` is
    symmetric positive semidefinite, so ``cond(M)`` is the ratio of its
    extreme eigenvalues (``eigvalsh`` costs less than an SVD).
    """
    M, rhs = normal_equations(basis, terms)
    try:
        coeffs = np.linalg.solve(M, rhs)
        low, high = np.linalg.eigvalsh(M)[[0, -1]]
        if high > 1e12 * low:  # a rounded eigenvalue at or below 0 counts too
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        coeffs, *_ = np.linalg.lstsq(M, rhs, rcond=None)
        return basis.T @ coeffs, True
    return basis.T @ coeffs, False


def least_squares_oracle(inst):
    """Normal-equations solution of the singleton split-feasibility relaxation.

    Minimizes ``sum_k w_k ||L_k x - p_k||^2`` over ``x in V`` directly in
    the coordinates of V's orthonormal basis; fully independent of the
    iterative solver.  Returns ``(x, rank_deficient)``.
    """
    if inst.kind != "split-feasibility" or not inst.blocks:
        raise ValidationError("least_squares_oracle needs a split-feasibility instance")
    terms = []
    for L_k, fam, w_k in inst.blocks:
        if not isinstance(fam.cset, Singleton):
            raise ValidationError("least_squares_oracle needs singleton target sets")
        terms.append((L_k, fam.cset.point, w_k, w_k))
    return _solve_normal_equations(inst.V.basis, terms)


def wiener_oracle(inst):
    """Direct solve of the Wiener stationarity system over V, for linear blocks.

    Only available when every forward map is a scaled identity ``c_k Id``
    (a number, or the projection onto a singleton, ``c_k = 0``): its family
    declares the constant derivative ``(1 - c_k) Id`` of its resolvent
    ``(1 - c_k) y + p_k``, with ``p_k = J_1(0)``, so ``D - I`` read on the
    block's identity matrix is exactly ``-c_k I``; any other block raises
    ``ValidationError``.  The stationarity condition
    ``sum_k w_k L_k* (c_k L_k x - p_k) = 0`` restricted to V's basis is
    then a small linear system.  Returns ``(x, rank_deficient)``.
    The system is singular when some direction of V is mapped to 0 by every
    ``L_k`` with ``c_k > 0`` (as when every ``c_k = 0``); ``x`` is then its
    least-squares solution.
    """
    if inst.kind != "wiener" or not inst.blocks:
        raise ValidationError("wiener_oracle needs a wiener instance built from blocks")
    terms = []
    for L_k, B_k, w_k in inst.blocks:
        origin, eye = B_k.space.zeros(), np.eye(B_k.space.dim)
        D = B_k.derivative(1.0, origin, eye) if B_k.constant_derivative else None
        if D is None or not np.array_equal(D, D[0, 0] * eye):
            raise ValidationError("wiener_oracle needs scaled-identity forward maps")
        terms.append((L_k, B_k._evaluator(1.0, origin), w_k * -float(D[0, 0]), w_k))
    return _solve_normal_equations(inst.V.basis, terms)


def _oracle_of(kind):
    """The closed-form oracle of an instance kind, or None for kinds without one."""
    return {"split-feasibility": least_squares_oracle, "wiener": wiener_oracle}.get(kind)


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
    certificates: dict
    newton: bool    # whether the run tried Newton candidates; False: the plain relaxed steps
    fallbacks: int  # Newton candidates the safeguard rejected
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
    less curvature; the Newton candidates of the other runs usually need
    far fewer steps.
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
        oracle = _oracle_of(inst.kind)
        try:
            found = None if oracle is None else oracle(inst)
        except ValidationError:  # e.g. a split-feasibility target that is no singleton
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
            certificates=certificates(inst),
            newton=schedule.newton,
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
    except _STRUCTURAL_ERRORS as exc:
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
        oracle = _oracle_of(inst.kind)
        if oracle is None:
            out(f"error: no closed-form oracle for kind {inst.kind!r}")
            return 1
        point, rank_deficient = oracle(inst)
        out(json.dumps({"point": list(point), "rank_deficient": rank_deficient}))
    except _STRUCTURAL_ERRORS as exc:
        out(f"error: {exc}")
        return 1
    return 0
