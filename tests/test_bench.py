"""Configuration parsing, instance generation, oracles, runner, CLI."""

import dataclasses
import gc
import itertools
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from rescomp import cli, properties
from rescomp.bench import (
    EXACTNESS_TOL,
    InstanceSpec,
    execute,
    generate_instance,
    least_squares_oracle,
    normal_equations,
    oracle_command,
    run,
    wiener_oracle,
)
from rescomp.cli import main
from rescomp.errors import ValidationError
from rescomp.hilbert import LinearMap, Space, SubspaceProjector, identity_map
from rescomp.operators import normal_cone
from rescomp.properties import ACCEPTANCE_SPEC_DICT, run_properties, suite_determinism, suite_oracle_agreement
from rescomp.sets import AffineSubspace, Ball, ConvexSet, Halfspace, Singleton
from rescomp.solvers import (
    RelaxedInstance,
    Schedule,
    solve_relaxed,
    verify_exact_relaxation,
)
from test_boundary import REFUSED_CONFIGS  # the refused one-block configs and their messages


# ||L|| = 3 with the gate bypassed (--unsafe-norm): x <- -8 x + 3 p diverges.
NONFINITE_SPEC_DICT = {
    "kind": "split-feasibility",
    "spaces": {"domain": {"dim": 2}},
    "maps": [[[3, 0], [0, 3]]],
    "sets": [{"tag": "singleton", "point": [1, 1]}],
    "weights": [1],
    "subspace": [[1, 0], [0, 1]],
}


# Schedules that the config boundary refuses with ValidationError.
BAD_SCHEDULES = [
    {"max_iterations": "abc"}, {"lambda": "abc"}, {"tol": float("nan")}, {"max_iterations": 2.7},
    {"memory": 0}, {"anderson": False}, [1.0], {"lambda": [1.0, 1.0]},
]


# The acceptance config as a feasibility product: its sets in R^1 and nothing else.
PRODUCT = {"kind": "feasibility-product", "spaces": {"domain": {"dim": 1}}, "maps": None,
           "subspace": []}

# Configs whose values do not convert, or that hold a key nothing reads: each is a
# structural error at the config boundary, not a ValueError traceback, and none
# runs with a silently changed or ignored value.
BAD_VALUES = {
    "gamma-string": {"gamma": "abc"},
    "gamma-bool": {"gamma": True},
    "seed-string": {"seed": "x"},
    "seed-fraction": {"seed": 2.7},
    "block-dim-string": {"spaces": {"domain": {"dim": 2}, "blocks": [{"dim": "abc"}, {"dim": 1}]}},
    "ball-radius-string": {"sets": [{"tag": "ball", "center": [1.0], "radius": "abc"},
                                    {"tag": "singleton", "point": [3.0]}]},
    "point-string": {"sets": [{"tag": "singleton", "point": ["a"]},
                              {"tag": "singleton", "point": [3.0]}]},
    "map-string": {"maps": [[["a", 0.0]], [[0.0, 1.0]]]},
    "set-not-object": {"sets": [1, {"tag": "singleton", "point": [3.0]}]},
    "block-space-not-object": {"spaces": {"domain": {"dim": 2}, "blocks": [1, {"dim": 1}]}},
    "nested-set-not-object": {"kind": "common-zero",
                              "sets": [{"tag": "normal-cone", "set": [1.0]}, {"tag": "zero"}]},
    "wiener-forward-not-object": {"kind": "wiener",
                                  "sets": [{"f": 0.5, "point": [1.0]},
                                           {"f": {"tag": "scale", "c": 0.5}, "point": [3.0]}]},
    "point-numeric-string": {"sets": [{"tag": "singleton", "point": ["1.0"]},
                                      {"tag": "singleton", "point": [3.0]}]},
    "point-bool": {"sets": [{"tag": "singleton", "point": [True]},
                            {"tag": "singleton", "point": [3.0]}]},
    "map-numeric-strings": {"maps": [[["1.0", "0.0"]], [[0.0, 1.0]]]},
    "subspace-numeric-strings": {"subspace": [["1.0", "1.0"]]},
    "weights-number": {"weights": 5},
    "maps-number": {"maps": 5},
    "blocks-number": {"spaces": {"domain": {"dim": 2}, "blocks": 5}},
    "space-weights-string": {"spaces": {"domain": {"dim": 2, "weights": ["1", 1.0]},
                                        "blocks": [{"dim": 1}, {"dim": 1}]}},
    "output-string": {"output": "ab"},
    "output-list": {"output": ["ab"]},
    "output-trace-number": {"output": {"trace": 5}},
    "output-report-number": {"output": {"report": 5}},
    "output-unknown-key": {"output": {"log": "run.txt"}},
    "wiener-block-without-f": {"kind": "wiener",
                               "sets": [{"f": {"tag": "scale", "c": 0.5}, "point": [1.0]},
                                        {"c": 0.5, "point": [3.0]}]},
    "wiener-projection-block-without-f": {
        "kind": "wiener",
        "sets": [{"f": {"tag": "scale", "c": 0.5}, "point": [1.0]},
                 {"tag": "projection", "set": {"tag": "singleton", "point": [0.0]},
                  "point": [3.0]}]},
    "maps-length": {"maps": [[[1.0, 0.0]]]},
    "blocks-length": {"spaces": {"domain": {"dim": 2}, "blocks": [{"dim": 1}]}},
    "quadratic-b-typo": {"kind": "prox-mixture",
                         "sets": [{"tag": "quadratic", "q": [[1.0]], "B": [4.0]}, {"tag": "abs"}]},
    "space-weights-typo": {"spaces": {"domain": {"dim": 2, "wieghts": [1.0, 1.0]},
                                      "blocks": [{"dim": 1}, {"dim": 1}]}},
    "nested-set-extra-key": {"kind": "common-zero",
                             "sets": [{"tag": "normal-cone",
                                       "set": {"tag": "singleton", "point": [0.0], "radius": 1.0}},
                                      {"tag": "zero"}]},
    "wiener-forward-extra-key": {"kind": "wiener",
                                 "sets": [{"f": {"tag": "scale", "c": 0.5, "point": [0.0]},
                                           "point": [1.0]},
                                          {"f": {"tag": "scale", "c": 0.5}, "point": [3.0]}]},
    "spaces-block-typo": {"spaces": {"domain": {"dim": 2}, "block": [{"dim": 1}, {"dim": 1}]}},
    "product-maps": {**PRODUCT, "maps": [[[5.0]], [[7.0]]]},
    "product-subspace": {**PRODUCT, "subspace": [[9.0]]},
    "product-blocks": {**PRODUCT, "spaces": {"domain": {"dim": 1},
                                             "blocks": [{"dim": 4}, {"dim": 4}]}},
}

# The field that the error of each of these BAD_VALUES cases names.
BAD_VALUE_FIELDS = {
    "output-string": "output", "output-list": "output", "output-trace-number": "output",
    "output-report-number": "output", "output-unknown-key": "output",
    "wiener-block-without-f": "sets[1]", "wiener-projection-block-without-f": "sets[1]",
    "maps-length": "maps", "blocks-length": "spaces.blocks",
    "quadratic-b-typo": "sets[0]", "space-weights-typo": "spaces.domain",
    "nested-set-extra-key": "sets[0]", "wiener-forward-extra-key": "sets[0]",
    "spaces-block-typo": "spaces", "product-maps": "maps", "product-subspace": "subspace",
    "product-blocks": "spaces.blocks",
}


def _second(kind):
    """A well-formed second block of a two-block config of ``kind``."""
    return {"split-feasibility": {"tag": "singleton", "point": [3.0]},
            "common-zero": {"tag": "zero"}, "prox-mixture": {"tag": "abs"},
            "wiener": {"f": {"tag": "scale", "c": 0.5}, "point": [3.0]}}[kind]


# A descriptor without one of the keys it reads: (kind, first block, key).  Each
# run exits 1 naming the field and the key.
MISSING_KEYS = {
    "singleton-point": ("split-feasibility", {"tag": "singleton"}, "point"),
    "box-lower": ("split-feasibility", {"tag": "box", "upper": [1.0]}, "lower"),
    "box-upper": ("split-feasibility", {"tag": "box", "lower": [0.0]}, "upper"),
    "ball-center": ("split-feasibility", {"tag": "ball", "radius": 1.0}, "center"),
    "ball-radius": ("split-feasibility", {"tag": "ball", "center": [0.0]}, "radius"),
    "halfspace-normal": ("split-feasibility", {"tag": "halfspace", "offset": 1.0}, "normal"),
    "halfspace-offset": ("split-feasibility", {"tag": "halfspace", "normal": [1.0]}, "offset"),
    "affine-anchor": ("split-feasibility", {"tag": "affine", "directions": [[1.0]]}, "anchor"),
    "affine-directions": ("split-feasibility", {"tag": "affine", "anchor": [0.0]}, "directions"),
    "scaled-identity-c": ("common-zero", {"tag": "scaled-identity"}, "c"),
    "linear-matrix": ("common-zero", {"tag": "linear"}, "matrix"),
    "normal-cone-set": ("common-zero", {"tag": "normal-cone"}, "set"),
    "normal-cone-set-point": ("common-zero", {"tag": "normal-cone", "set": {"tag": "singleton"}},
                              "point"),
    "quadratic-q": ("prox-mixture", {"tag": "quadratic"}, "q"),
    "half-sq-dist-point": ("prox-mixture", {"tag": "half-sq-dist"}, "point"),
    "indicator-set": ("prox-mixture", {"tag": "indicator"}, "set"),
    "wiener-point": ("wiener", {"f": {"tag": "scale", "c": 0.5}}, "point"),
    "wiener-f": ("wiener", {"point": [1.0]}, "f"),
    "wiener-f-c": ("wiener", {"f": {"tag": "scale"}, "point": [1.0]}, "c"),
    "wiener-f-c-untagged": ("wiener", {"f": {}, "point": [1.0]}, "c"),
    "wiener-f-set": ("wiener", {"f": {"tag": "projection"}, "point": [1.0]}, "set"),
}

# A space descriptor without its dim: (spaces, field).
MISSING_DIMS = {
    "domain": ({"domain": {}, "blocks": [{"dim": 1}, {"dim": 1}]}, "spaces.domain"),
    "block": ({"domain": {"dim": 2}, "blocks": [{"dim": 1}, {"weights": [1.0]}]},
              "spaces.blocks[1]"),
}

# The README config with the second block's map replaced by the first's, so
# that L U = 0 on V = span{e2}: the Wiener normal equations are singular.
SINGULAR_WIENER = {
    "kind": "wiener",
    "spaces": {"domain": {"dim": 2}, "blocks": [{"dim": 1}, {"dim": 1}]},
    "maps": [[[1.0, 0.0]], [[1.0, 0.0]]], "weights": [0.5, 0.5], "subspace": [[0.0, 1.0]],
    "sets": [{"f": {"tag": "scale", "c": 0.5}, "point": [1.0]},
             {"f": {"tag": "scale", "c": 0.5}, "point": [3.0]}],
}

# The README maps with c = 0: every block's resolvent is a translation, so
# the normal matrix is zero and the iteration has no fixed point.
ZERO_WIENER = {
    "kind": "wiener",
    "spaces": {"domain": {"dim": 2}, "blocks": [{"dim": 1}, {"dim": 1}]},
    "maps": [[[1.0, 0.0]], [[0.0, 1.0]]], "weights": [0.5, 0.5], "subspace": [[1.0, 1.0]],
    "sets": [{"f": {"tag": "scale", "c": 0.0}, "point": [1.0]},
             {"f": {"tag": "scale", "c": 0.0}, "point": [3.0]}],
    "schedule": {"max_iterations": 50},
}


# A Wiener block whose forward map projects onto a line: its derivative is
# constant but no scaled identity, so the instance has no closed-form oracle.
AFFINE_WIENER = {
    "kind": "wiener", "spaces": {"domain": {"dim": 2}, "blocks": [{"dim": 2}, {"dim": 2}]},
    "weights": [0.5, 0.5], "subspace": [[1.0, 1.0]],
    "sets": [{"f": {"tag": "projection", "set": {"tag": "affine", "anchor": [0.0, 1.0],
                                                 "directions": [[1.0, 0.0]]}},
              "point": [1.0, 0.0]},
             {"f": {"tag": "scale", "c": 0.5}, "point": [3.0, 1.0]}],
    "schedule": {"max_iterations": 200},
}

# Forward sets of R^3 for Wiener projection blocks, the last three affine.
FORWARD_SETS = {
    "singleton": {"tag": "singleton", "point": [1.0, 0.0, 0.0]},
    "box": {"tag": "box", "lower": [-1.0, 0.0, 0.0], "upper": [0.0, 1.0, 2.0]},
    "ball": {"tag": "ball", "center": [0.0, 1.0, 0.0], "radius": 1.0},
    "halfspace": {"tag": "halfspace", "normal": [1.0, 1.0, 0.0], "offset": 1.0},
    "line": {"tag": "affine", "anchor": [0.0, 1.0, 0.0], "directions": [[1.0, 0.0, 0.0]]},
    "plane": {"tag": "affine", "anchor": [0.0, 0.0, 1.0],
              "directions": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]},
}


def corrupt_adjoint(monkeypatch):
    """Break ``LinearMap.adjoint_apply`` by 1e-3 in its first entry (a negative control)."""
    adjoint_apply = LinearMap.adjoint_apply

    def corrupted(self, y):
        out = adjoint_apply(self, y).copy()
        out[0] += 1e-3
        return out

    monkeypatch.setattr(LinearMap, "adjoint_apply", corrupted)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def acceptance_dict(**overrides):
    data = json.loads(json.dumps(ACCEPTANCE_SPEC_DICT))
    data.update(overrides)
    return data


class TestInstanceSpec:
    def test_round_trip(self):
        spec = InstanceSpec.from_dict(acceptance_dict())
        again = InstanceSpec.from_dict(dataclasses.asdict(spec))
        assert again == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(ValidationError, match="unknown config fields"):
            InstanceSpec.from_dict(acceptance_dict(bogus=1))

    def test_missing_field_rejected(self):
        data = acceptance_dict()
        del data["subspace"]
        with pytest.raises(ValidationError, match="subspace"):
            InstanceSpec.from_dict(data)

    def test_bad_kind(self):
        with pytest.raises(ValidationError, match="kind"):
            InstanceSpec.from_dict(acceptance_dict(kind="mystery"))

    @pytest.mark.parametrize("overrides, name", [
        ({"weights": 5}, "weights"),
        ({"weights": "ab"}, "weights"),
        ({"maps": 5}, "maps"),
        ({"spaces": {"domain": {"dim": 2}, "blocks": 5}}, "spaces.blocks"),
        ({"sets": 5}, "sets"),
    ], ids=["weights-number", "weights-string", "maps-number", "blocks-number", "sets-number"])
    def test_list_fields_must_be_lists(self, overrides, name):
        with pytest.raises(ValidationError, match=f"field '{re.escape(name)}'"):
            InstanceSpec.from_dict(acceptance_dict(**overrides))

    @pytest.mark.parametrize("overrides, name", [
        ({"weights": [0.5]}, "weights"),
        ({"maps": [[[1.0, 0.0]]]}, "maps"),
        ({"maps": [[[1.0, 0.0]], None, None]}, "maps"),
        ({"spaces": {"domain": {"dim": 2}, "blocks": [{"dim": 1}]}}, "spaces.blocks"),
        ({"spaces": {"domain": {"dim": 2}, "blocks": [{"dim": 1}] * 3}}, "spaces.blocks"),
    ], ids=["weights-short", "maps-short", "maps-long", "blocks-short", "blocks-long"])
    def test_one_entry_per_block(self, overrides, name):
        with pytest.raises(ValidationError,
                           match=f"field '{re.escape(name)}': one entry per block is required"):
            InstanceSpec.from_dict(acceptance_dict(**overrides))

    def test_bad_weights(self):
        with pytest.raises(ValidationError, match="weights"):
            InstanceSpec.from_dict(acceptance_dict(weights=[0.5, -0.5]))
        with pytest.raises(ValidationError, match="weights"):
            InstanceSpec.from_dict(acceptance_dict(weights=[0.5]))

    def test_bad_gamma(self):
        with pytest.raises(ValidationError, match="gamma"):
            InstanceSpec.from_dict(acceptance_dict(gamma=0.0))

    def test_nonfinite_entries(self, tmp_path):
        # The types are read at load and the finiteness where the projector is built.
        data = acceptance_dict(subspace=[[1.0, float("nan")]])
        with pytest.raises(ValidationError, match="field 'subspace': .*non-finite"):
            generate_instance(InstanceSpec.from_dict(data))
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(data))
        lines = []
        assert run(str(cfg), out=lines.append) == 1
        assert lines == ["error: field 'subspace': spanning set has non-finite entries"]

    def test_subspace_types_are_read_at_load(self):
        with pytest.raises(ValidationError, match="field 'subspace': every entry must be a number"):
            InstanceSpec.from_dict(acceptance_dict(**BAD_VALUES["subspace-numeric-strings"]))

    @pytest.mark.parametrize("schedule", BAD_SCHEDULES)
    def test_bad_schedule(self, schedule):
        with pytest.raises(ValidationError, match="schedule"):
            InstanceSpec.from_dict(acceptance_dict(schedule=schedule))

    def test_config_runs_newton_unless_unsafe(self):
        absent = {k: v for k, v in acceptance_dict().items() if k != "schedule"}
        for data in (acceptance_dict(schedule={}), absent):  # Schedule holds the defaults
            spec = InstanceSpec.from_dict(data)
            assert spec.build_schedule() == Schedule(newton=True)
            assert spec.build_schedule(unsafe=True) == Schedule()


class TestGenerate:
    def test_acceptance_instance(self):
        inst = generate_instance(InstanceSpec.from_dict(acceptance_dict()))
        assert inst.kind == "split-feasibility"
        x, trace = solve_relaxed(inst, inst.space.zeros(), Schedule())
        assert x == pytest.approx([2.0, 2.0], abs=1e-8)

    def test_feasibility_product(self):
        spec = InstanceSpec.from_dict({
            "kind": "feasibility-product",
            "spaces": {"domain": {"dim": 1}},
            "sets": [
                {"tag": "box", "lower": [0.0], "upper": [2.0]},
                {"tag": "box", "lower": [1.0], "upper": [3.0]},
            ],
            "weights": [1.0, 1.0],
        })
        inst = generate_instance(spec)
        assert inst.space.dim == 2
        x, trace = solve_relaxed(inst, inst.space.zeros(), Schedule())
        assert trace.reason == "converged"
        # the two copies agree and land in the intersection [1, 2]
        assert abs(x[0] - x[1]) <= 1e-9
        assert 1.0 - 1e-9 <= x[0] <= 2.0 + 1e-9
        assert inst.original_residual(x) <= 1e-8

    def test_feasibility_product_is_a_product_of_normal_cones(self):
        balls = [{"tag": "ball", "center": c, "radius": 0.5}
                 for c in ([2.0, 0.0], [-1.0, 1.5], [0.0, -2.0])]
        spec = InstanceSpec.from_dict({
            "kind": "feasibility-product",
            "spaces": {"domain": {"dim": 2}},
            "sets": balls,
            "weights": [0.5, 0.25, 0.25],
        })
        B = generate_instance(spec).B
        assert B.kind == "product" and len(B.factors) == len(balls)
        for k, ((fam, sl), desc) in enumerate(zip(B.factors, balls)):
            assert fam.kind == "normal-cone(ball)" and sl == slice(2 * k, 2 * k + 2)
            assert isinstance(fam.cset, Ball)
            assert np.array_equal(fam.cset.center, desc["center"])
            assert fam.cset.radius == desc["radius"]
        # the balls miss each other, so the run ends at a relaxed solution only
        report, _ = execute(spec)
        assert report.converged and report.verdict == "relaxed only"
        assert report.newton_candidates > 0

    def test_wiener_kind(self):
        spec = InstanceSpec.from_dict({
            "kind": "wiener",
            "spaces": {"domain": {"dim": 2}, "blocks": [{"dim": 2}]},
            "maps": None,
            "sets": [{"f": {"tag": "scale", "c": 0.5}, "point": [3.0, 1.0]}],
            "weights": [1.0],
            "subspace": [[1.0, 0.0]],
        })
        inst = generate_instance(spec)
        x, _ = solve_relaxed(inst, inst.space.zeros(), Schedule())
        assert x == pytest.approx([6.0, 0.0], abs=1e-8)
        ref, rank_deficient = wiener_oracle(inst)
        assert ref == pytest.approx([6.0, 0.0], abs=1e-12) and not rank_deficient

    def test_wiener_scale_forward_is_declared_affine(self):
        def spec(forward):
            return InstanceSpec.from_dict({
                "kind": "wiener",
                "spaces": {"domain": {"dim": 2}, "blocks": [{"dim": 2}]},
                "sets": [{"f": forward, "point": [3.0, 1.0]}],
                "weights": [1.0],
                "subspace": [[1.0, 0.0]],
            })

        scaled = generate_instance(spec({"tag": "scale", "c": 0.5})).blocks[0][1]
        assert scaled.constant_derivative
        box = {"tag": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]}
        projected = generate_instance(spec({"tag": "projection", "set": box})).blocks[0][1]
        assert projected.derivative is not None and not projected.constant_derivative
        point = {"tag": "singleton", "point": [0.0, 1.0]}
        assert generate_instance(spec({"tag": "projection", "set": point})).blocks[0][1] \
            .constant_derivative
        with pytest.raises(ValidationError, match=r"scale must lie in \[0, 1\]"):
            generate_instance(spec({"tag": "scale", "c": 1.5}))

    def test_wiener_projection_forward_is_not_validated_per_step(self, monkeypatch):
        spec = InstanceSpec.from_dict({
            "kind": "wiener",
            "spaces": {"domain": {"dim": 2}, "blocks": [{"dim": 2}, {"dim": 2}]},
            "sets": [
                {"f": {"tag": "projection",
                       "set": {"tag": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]}},
                 "point": [3.0, 1.0]},
                {"f": {"tag": "scale", "c": 0.5}, "point": [0.0, 1.0]},
            ],
            "weights": [0.5, 0.5],
            "subspace": [[1.0, 0.0], [0.0, 1.0]],
        })

        calls = []
        project = ConvexSet.project
        monkeypatch.setattr(ConvexSet, "project",
                            lambda self, x: calls.append(x) or project(self, x))
        report, trace = execute(spec)
        plain, _ = execute(spec, unsafe=True)  # the plain steps
        assert calls == []
        assert report.converged and plain.converged
        # The box block declares its derivative, so every update is a Newton candidate.
        assert 0 < trace.newton_candidates == report.iterations < plain.iterations
        assert report.fallbacks == 0
        assert np.linalg.norm(np.subtract(report.final_iterate, plain.final_iterate)) <= 1e-8

    def test_halfspace_and_affine_set_tags(self):
        spec = InstanceSpec.from_dict(acceptance_dict(
            spaces={"domain": {"dim": 2}, "blocks": [{"dim": 1}, {"dim": 2}]},
            maps=[[[1.0, 0.0]], None],
            sets=[{"tag": "halfspace", "normal": [1.0], "offset": -1.0},
                  {"tag": "affine", "anchor": [0.0, 3.0], "directions": [[1.0, 0.0]]}],
        ))
        inst = generate_instance(spec)
        half, line = (fam.cset for _L, fam, _w in inst.blocks)
        assert isinstance(half, Halfspace) and half.offset == -1.0
        assert np.array_equal(half.normal, [1.0])
        assert isinstance(line, AffineSubspace) and np.array_equal(line.anchor, [0.0, 3.0])
        x, trace = solve_relaxed(inst, inst.space.zeros(), Schedule())
        # on the diagonal t: min 0.5 max(t + 1, 0)^2 + 0.5 (t - 3)^2 at t = 1
        assert trace.reason == "converged" and x == pytest.approx([1.0, 1.0], abs=1e-8)

    @pytest.mark.parametrize("kind, block", [("common-zero", "operator"),
                                             ("prox-mixture", "function")])
    def test_a_set_is_not_an_operator_or_a_function(self, kind, block):
        # a set descriptor takes the normal-cone or indicator tag around it
        spec = InstanceSpec.from_dict(acceptance_dict(kind=kind, sets=[
            {"tag": "singleton", "point": [1.0]}, {"tag": "singleton", "point": [3.0]}]))
        with pytest.raises(ValidationError, match=f"unknown {block} tag 'singleton'"):
            generate_instance(spec)

    def test_default_identity_maps_respect_domain_metric(self):
        spec = InstanceSpec.from_dict({
            "kind": "wiener",
            "spaces": {"domain": {"dim": 2, "weights": [2.0, 1.0]}, "blocks": [{"dim": 2}]},
            "sets": [{"f": {"tag": "scale", "c": 0.5}, "point": [3.0, 1.0]}],
            "weights": [1.0],
            "subspace": [[1.0, 0.0]],
        })
        inst = generate_instance(spec)
        assert inst.L.domain == inst.V.space
        x, _ = solve_relaxed(inst, inst.space.zeros(), Schedule())
        assert x == pytest.approx([6.0, 0.0], abs=1e-8)

    def test_common_zero_kind(self):
        spec = InstanceSpec.from_dict({
            "kind": "common-zero",
            "spaces": {"domain": {"dim": 2}},
            "sets": [
                {"tag": "scaled-identity", "c": 1.0},
                {"tag": "normal-cone", "set": {"tag": "singleton", "point": [0.0, 0.0]}},
            ],
            "weights": [0.5, 0.5],
            "subspace": [[1.0, 0.0]],
        })
        inst = generate_instance(spec)
        x, _ = solve_relaxed(inst, np.array([5.0, 0.0]), Schedule())
        assert x == pytest.approx([0.0, 0.0], abs=1e-8)

    def test_prox_mixture_kind(self):
        spec = InstanceSpec.from_dict({
            "kind": "prox-mixture",
            "spaces": {"domain": {"dim": 2}},
            "sets": [
                {"tag": "abs"},
                {"tag": "half-sq-dist", "point": [1.0, 1.0]},
            ],
            "weights": [0.5, 0.5],
            "subspace": [[1.0, 1.0]],
            "gamma": 2.0,
        })
        inst = generate_instance(spec)
        x, trace = solve_relaxed(inst, inst.space.zeros(), Schedule())
        assert trace.reason == "converged"


class TestOracle:
    def test_acceptance_point(self):
        inst = generate_instance(InstanceSpec.from_dict(acceptance_dict()))
        ref, flag = least_squares_oracle(inst)
        assert not flag
        assert ref == pytest.approx([2.0, 2.0], abs=1e-12)

    def test_reachable_targets_interpolate(self):
        spec = acceptance_dict()
        spec["sets"] = [
            {"tag": "singleton", "point": [2.0]},
            {"tag": "singleton", "point": [2.0]},
        ]
        inst = generate_instance(InstanceSpec.from_dict(spec))
        ref, _ = least_squares_oracle(inst)
        assert ref == pytest.approx([2.0, 2.0], abs=1e-12)
        assert inst.original_residual(ref) <= 1e-12

    def test_full_space_identity(self):
        H = Space(2)
        fam = normal_cone(Singleton(H, [0.3, -0.7]))
        inst = RelaxedInstance.from_blocks(
            SubspaceProjector.full(H), [(identity_map(H), fam, 1.0)], 1.0,
            kind="split-feasibility",
        )
        ref, _ = least_squares_oracle(inst)
        assert ref == pytest.approx([0.3, -0.7])

    def test_rank_deficient_flagged(self):
        H = Space(2)
        G = Space(1)
        L = LinearMap(H, G, [[1.0, 0.0]])
        fam = normal_cone(Singleton(G, [1.0]))
        V = SubspaceProjector(H, [[0.0, 1.0]])  # L vanishes on V
        inst = RelaxedInstance.from_blocks(V, [(L, fam, 1.0)], 1.0, kind="split-feasibility")
        ref, flag = least_squares_oracle(inst)
        assert flag
        assert ref == pytest.approx([0.0, 0.0])

    def test_requires_singletons(self):
        spec = acceptance_dict()
        spec["sets"][0] = {"tag": "box", "lower": [0.0], "upper": [1.0]}
        inst = generate_instance(InstanceSpec.from_dict(spec))
        with pytest.raises(ValidationError):
            least_squares_oracle(inst)

    def test_singular_wiener_system_is_flagged(self):
        report, _ = execute(InstanceSpec.from_dict(SINGULAR_WIENER))
        assert report.converged and report.verdict == "relaxed only"
        assert report.oracle == {"point": [0.0, 0.0], "distance": 0.0, "rank_deficient": True}
        ref, rank_deficient = wiener_oracle(generate_instance(InstanceSpec.from_dict(SINGULAR_WIENER)))
        assert rank_deficient and ref.tolist() == [0.0, 0.0]

    def test_zero_wiener_system_is_flagged_and_the_run_does_not_converge(self):
        report, _ = execute(InstanceSpec.from_dict(ZERO_WIENER))
        assert not report.converged and report.reason == "max_iterations"
        assert report.iterations == 50
        assert report.oracle["rank_deficient"] and report.oracle["point"] == [0.0, 0.0]

    def test_oracle_agreement_suite(self):
        res = suite_oracle_agreement(np.random.default_rng([23, 0]), 300)
        assert res.passed, res.line()


class TestNormalEquations:
    def test_matches_loop_formula_in_weighted_metric(self):
        rng = np.random.default_rng(5)
        H = Space(5, rng.uniform(0.5, 2.0, size=5))
        V = SubspaceProjector(H, [H.random(rng) for _ in range(3)])
        terms = []
        for dim in (2, 4):
            G = Space(dim, rng.uniform(0.5, 2.0, size=dim))
            L = LinearMap(H, G, rng.standard_normal((dim, 5)))
            terms.append((L, G.random(rng), float(rng.uniform(0.1, 1.0)),
                          float(rng.uniform(0.1, 1.0))))
        M, rhs = normal_equations(V.basis, terms)
        k = V.rank
        M_ref, rhs_ref = np.zeros((k, k)), np.zeros(k)
        for L, p, a, b in terms:
            G = L.codomain
            lb = [L.apply(u) for u in V.basis]
            for i in range(k):
                rhs_ref[i] += b * G.inner(lb[i], p)
                for j in range(k):
                    M_ref[i, j] += a * G.inner(lb[i], lb[j])
        assert np.max(np.abs(M - M_ref)) <= 1e-12 * np.max(np.abs(M_ref))
        assert np.max(np.abs(rhs - rhs_ref)) <= 1e-12 * np.max(np.abs(rhs_ref))


class TestReportJson:
    def test_finite_report_unchanged(self):
        report, _ = execute(InstanceSpec.from_dict(acceptance_dict()))
        expected = json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True)
        assert report.to_json() == expected


    def test_certificates_present_and_strict(self):
        report, _ = execute(InstanceSpec.from_dict(acceptance_dict()))
        parsed = json.loads(report.to_json(), parse_constant=_reject_constant)
        # V = span{(1, 1)}, L = diag(1, 1) into the (1/2, 1/2)-weighted metric
        assert parsed["certificates"] == {
            "rank_V": 1, "dropped_vectors": 0,
            "sigma_min_LU": pytest.approx(np.sqrt(0.5), abs=1e-15), "method": "svd",
            "norm_L_sq": pytest.approx(0.5, abs=1e-15),
        }

    def test_certificates_count_dropped_spanning_vectors(self):
        # a multiple and a zero vector of (1, 1) add nothing to V
        spanning = [[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]]
        report, _ = execute(InstanceSpec.from_dict(acceptance_dict(subspace=spanning)))
        assert report.certificates["rank_V"] == 1
        assert report.certificates["dropped_vectors"] == 2

    def test_nonfinite_config_takes_the_folded_step(self):
        inst = generate_instance(InstanceSpec.from_dict(NONFINITE_SPEC_DICT), unsafe=True)
        assert inst.blocks[0][1].constant_derivative
        _, trace = execute(InstanceSpec.from_dict(NONFINITE_SPEC_DICT), unsafe=True)
        assert trace.reason == "non-finite"
        assert trace.fp_residual[-1] == np.inf
        assert len(trace.fp_residual) == trace.iterations + 1

    def test_report_names_the_path_that_ran(self):
        # The gate passes either way; unsafe only switches to the plain steps.
        spec = InstanceSpec.from_dict(acceptance_dict())
        finals = []
        # Both blocks are affine, so the first run's one update is the Newton
        # candidate, the exact fixed point.
        for unsafe, newton, candidates, rank in ((False, True, 1, 1), (True, False, 0, None)):
            report, trace = execute(spec, unsafe=unsafe)
            parsed = json.loads(report.to_json(), parse_constant=_reject_constant)
            assert parsed["newton"] is newton and "memory" not in parsed
            assert parsed["fallbacks"] == trace.fallbacks
            assert (parsed["newton_candidates"], parsed["rank_G"]) == (candidates, rank)
            assert (trace.newton_candidates, trace.rank_G) == (candidates, rank)
            assert "exact_candidate" not in parsed
            assert parsed["converged"] and parsed["oracle"]["distance"] <= 1e-6
            finals.append(np.array(parsed["final_iterate"]))
        assert parsed["fallbacks"] == 0 and parsed["iterations"] == 34
        assert np.linalg.norm(finals[0] - finals[1]) <= 1e-8

    def test_newton_solves_the_expansive_instance(self):
        # The Newton candidates, which config runs take only with the gate in
        # force, converge where the plain steps of the unsafe run diverge.
        spec = InstanceSpec.from_dict(NONFINITE_SPEC_DICT)
        inst = generate_instance(spec, unsafe=True)
        x, trace = solve_relaxed(inst, inst.space.zeros(), Schedule(newton=True))
        assert trace.reason == "converged"
        assert x == pytest.approx([1 / 3, 1 / 3], abs=1e-10)
        assert verify_exact_relaxation(inst, x, EXACTNESS_TOL).verdict == "S1 attained"

    def test_certificates_of_nonfinite_run_are_strict(self):
        report, trace = execute(InstanceSpec.from_dict(NONFINITE_SPEC_DICT), unsafe=True)
        assert trace.reason == "non-finite"
        parsed = json.loads(report.to_json(), parse_constant=_reject_constant)
        assert parsed["certificates"]["rank_V"] == 2
        assert parsed["certificates"]["sigma_min_LU"] == pytest.approx(3.0)


def projection_wiener(workloads, n, seed, forward_set):
    """The kinds-small ``wiener-n<n>`` config of seed 0 with each block's forward map, in
    block order, the projection onto ``forward_set(c)``, ``c`` a standard normal draw from
    ``default_rng(seed)``."""
    config = dict(workloads.kinds_small(0))[f"wiener-n{n}"]
    rng = np.random.default_rng(seed)
    for block, space in zip(config["sets"], config["spaces"]["blocks"]):
        block["f"] = {"tag": "projection", "set": forward_set(rng.standard_normal(space["dim"]))}
    return config


def far_box_wiener(workloads):
    """Unit boxes at ``default_rng(17)`` centres with V the whole space: no solution; 2000 updates."""
    config = projection_wiener(
        workloads, 4, 17,
        lambda c: {"tag": "box", "lower": (c - 0.5).tolist(), "upper": (c + 0.5).tolist()})
    config["subspace"] = np.eye(4).tolist()
    config["schedule"]["max_iterations"] = 2000
    return config


class TestProjectionWiener:
    """Config Wiener blocks whose forward map is the projection onto a set."""

    def test_solvable_ball_forward_takes_one_newton_update(self, workloads):
        spec = InstanceSpec.from_dict(projection_wiener(
            workloads, 4, 1, lambda c: {"tag": "ball", "center": c.tolist(), "radius": 30.0}))
        report, trace = execute(spec)
        plain, _ = execute(spec, unsafe=True)  # the plain steps
        assert (report.reason, report.iterations, trace.newton_candidates) == ("converged", 1, 1)
        assert plain.converged and plain.iterations > 1
        assert np.linalg.norm(np.subtract(report.final_iterate, plain.final_iterate)) <= 1e-8

    def test_affine_forward_has_no_oracle(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(AFFINE_WIENER))
        lines = []
        assert run(str(path), out=lines.append) == 0
        report = json.loads(lines[0])
        assert (report["verdict"], report["oracle"]) == ("relaxed only", None)
        lines = []
        assert oracle_command(str(path), out=lines.append) == 1
        assert lines == ["error: wiener_oracle needs scaled-identity forward maps"]

    def test_every_pair_of_forward_sets_runs_without_raising(self, tmp_path):
        # Only a pair of singletons (c = 0 twice) has an oracle; its system is singular.
        path = tmp_path / "config.json"
        for first, second in itertools.product(FORWARD_SETS, repeat=2):
            path.write_text(json.dumps({
                "kind": "wiener",
                "spaces": {"domain": {"dim": 3}, "blocks": [{"dim": 3}, {"dim": 3}]},
                "weights": [0.5, 0.5], "subspace": [[1.0, 1.0, 1.0]],
                "sets": [{"f": {"tag": "projection", "set": FORWARD_SETS[first]},
                          "point": [1.0, 0.0, 2.0]},
                         {"f": {"tag": "projection", "set": FORWARD_SETS[second]},
                          "point": [3.0, 1.0, 0.0]}],
                "schedule": {"max_iterations": 200},
            }))
            has_oracle = first == second == "singleton"
            for unsafe in (False, True):
                lines = []
                assert run(str(path), unsafe=unsafe, out=lines.append) in (0, 2)
                assert (json.loads(lines[0])["oracle"] is not None) == has_oracle
            lines = []
            assert oracle_command(str(path), out=lines.append) == (0 if has_oracle else 1)
            assert lines[0].startswith("{" if has_oracle else "error: wiener_oracle needs")

    def test_far_box_forward_runs_out_with_exit_two(self, workloads, tmp_path, monkeypatch):
        # Unit boxes at standard normal centres with V the whole space: no
        # relaxed solution, and the iterates run off to ||x|| ~ 1e16, where the
        # displacement y - P_C(y) + p - y can round to an exact 0.  No candidate
        # may stop the run there: it exits 2 at the cap.  Out there every
        # Jacobian is zero, and a zero Jacobian takes no least-squares solve.
        lstsq, calls = np.linalg.lstsq, []
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(far_box_wiener(workloads)))
        lines = []
        assert run(str(path), out=lines.append) == 2
        report = json.loads(lines[0], parse_constant=_reject_constant)
        assert (report["reason"], report["iterations"]) == ("max_iterations", 2000)
        assert lines[1:] == ["tolerance failure: did not converge within the iteration budget"]
        assert len(calls) <= 5


class TestRun:
    def write_config(self, tmp_path, data, name="config.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    def test_acceptance_run_exit_zero(self, tmp_path):
        report_path = tmp_path / "report.json"
        trace_path = tmp_path / "trace.csv"
        cfg = acceptance_dict(output={"report": str(report_path), "trace": str(trace_path)})
        lines = []
        assert run(self.write_config(tmp_path, cfg), out=lines.append) == 0
        report = json.loads(report_path.read_text())
        assert report["converged"]
        assert report["oracle"]["distance"] <= 1e-6
        assert report["verdict"] == "relaxed only"
        for key in ("fp_residual", "var_residual", "original_residual", "membership_defect"):
            assert report[key] >= 0.0
        assert trace_path.exists()
        header = trace_path.read_text().splitlines()[0]
        assert header == "iter,fp_residual,var_residual,dist_ref,wall_ns"

    def test_consistent_run_reports_exactness(self, tmp_path):
        cfg = acceptance_dict()
        cfg["sets"][1] = {"tag": "singleton", "point": [1.0]}
        lines = []
        assert run(self.write_config(tmp_path, cfg), out=lines.append) == 0
        report = json.loads("\n".join(lines))
        assert report["verdict"] == "S1 attained"
        assert report["original_residual"] <= EXACTNESS_TOL

    def test_run_and_verification_give_one_verdict(self):
        cfg = acceptance_dict()
        cfg["sets"][1] = {"tag": "singleton", "point": [1.0]}
        spec = InstanceSpec.from_dict(cfg)
        report, _ = execute(spec)
        check = verify_exact_relaxation(generate_instance(spec), report.final_iterate,
                                        EXACTNESS_TOL)
        assert report.verdict == check.verdict == "S1 attained"

    def test_feasibility_product_run(self, tmp_path):
        cfg = {
            "kind": "feasibility-product",
            "spaces": {"domain": {"dim": 1}},
            "sets": [
                {"tag": "box", "lower": [0.0], "upper": [2.0]},
                {"tag": "box", "lower": [1.0], "upper": [3.0]},
            ],
        }
        lines = []
        assert run(self.write_config(tmp_path, cfg), out=lines.append) == 0
        report = json.loads("\n".join(lines))
        assert report["verdict"] == "S1 attained"

    def test_norm_gate_exit_one(self, tmp_path):
        cfg = acceptance_dict(maps=[[[2.0, 0.0]], [[0.0, 1.0]]], weights=[1.0, 1.0])
        lines = []
        assert run(self.write_config(tmp_path, cfg), out=lines.append) == 1
        assert any("exceeds 1" in line for line in lines)

    def test_unsafe_norm_bypasses_gate(self, tmp_path):
        cfg = acceptance_dict(maps=[[[2.0, 0.0]], [[0.0, 1.0]]], weights=[1.0, 1.0])
        cfg["schedule"] = {"lambda": 1.0, "max_iterations": 50, "tol": 1e-10}
        lines = []
        code = run(self.write_config(tmp_path, cfg), unsafe=True, out=lines.append)
        assert code == 2  # diverges without the contraction property
        assert any("tolerance failure" in line for line in lines)

    def test_unreadable_config_exit_one(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert run(missing, out=lambda *_: None) == 1
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        lines = []
        assert run(str(bad), out=lines.append) == 1
        assert "error" in lines[0]

    def test_determinism(self):
        res = suite_determinism(np.random.default_rng([23, 1]), 1)
        assert res.passed, res.line()


SUITE_NAMES = [
    "hilbert/adjoint-identity", "hilbert/projector-firm", "hilbert/stack-norm",
    "operators/monotone-graph", "operators/moreau-identity",
    "operators/zeros-vs-fixed-points", "operators/yosida-cocoercive",
    "compositions/resolvent-rule", "compositions/firmly-nonexpansive",
    "compositions/monotone-graph", "compositions/inverse-duality",
    "compositions/isometry-collapse", "compositions/chaining",
    "compositions/zero-transport", "compositions/strong-monotonicity",
    "compositions/resolvent-average",
    "proxfun/moreau-decomposition", "proxfun/envelope-sum",
    "proxfun/cocomposition-gradient", "proxfun/argmin-transport",
    "proxfun/argmin-composition", "proxfun/prox-firm",
    "solvers/engine-equivalence", "solvers/fejer-monotone",
    "solvers/residual-agreement", "solvers/block-stacked",
    "bench/oracle-agreement", "bench/determinism",
]


# The functions behind SUITE_NAMES, in the order they are defined and registered.
SUITE_FUNCTIONS = [
    "suite_adjoint_identity", "suite_projector_firm", "suite_stack_norm",
    "suite_monotone_graph", "suite_moreau_identity", "suite_zeros_fixed_points",
    "suite_yosida_cocoercive", "suite_resolvent_rule", "suite_composed_firm",
    "suite_composed_monotone", "suite_inverse_duality", "suite_isometry_collapse",
    "suite_chaining", "suite_zero_transport", "suite_strong_monotonicity",
    "suite_resolvent_average", "suite_moreau_decomposition", "suite_envelope_sum",
    "suite_cocomposition_gradient", "suite_argmin_transport", "suite_argmin_composition",
    "suite_prox_firm", "suite_engine_equivalence", "suite_fejer",
    "suite_residual_agreement", "suite_block_stacked", "suite_oracle_agreement",
    "suite_determinism",
]


class TestProperties:
    def test_registry_holds_each_suite_once_in_definition_order(self):
        # Suite i draws from the stream [seed, i], so the order fixes every suite's input.
        assert properties.SUITES == [getattr(properties, name) for name in SUITE_FUNCTIONS]

    @pytest.mark.parametrize("seed, trials", [
        (0, -3), (-1, 5), (0, 2.5), (True, 5), (0, "5"),
    ], ids=["negative-trials", "negative-seed", "fraction", "bool", "string"])
    def test_bad_seed_or_trials_is_refused_before_any_suite(self, seed, trials):
        lines = []
        with pytest.raises(ValidationError, match="must be a"):
            run_properties(seed=seed, trials=trials, out=lines.append)
        assert lines == []

    def test_a_seed_beyond_float_range_is_accepted(self):
        assert run_properties(seed=10**400, trials=0, out=lambda line: None) == 0

    def test_zero_trials_vacuous_pass(self):
        lines = []
        assert run_properties(seed=0, trials=0, out=lines.append) == 0
        assert any("vacuous" in line for line in lines)
        assert any("warning" in line for line in lines)

    def test_zero_trials_lists_every_suite_in_order(self):
        lines = []
        run_properties(seed=0, trials=0, out=lines.append)
        suites = lines[1:-1]
        assert [line.split()[1] for line in suites] == SUITE_NAMES
        assert all(line.startswith("PASS") and "vacuous" in line for line in suites)
        assert lines[-1] == "28/28 property suites passed"

    def test_a_raising_suite_is_a_fail_line(self, monkeypatch):
        def raising(*args):
            raise RuntimeError("no defect")

        # The three firm-nonexpansiveness suites raise; the others still run.
        monkeypatch.setattr(properties, "_firm_defect", raising)
        lines = []
        assert run_properties(seed=0, trials=20, out=lines.append) == 2
        assert [line.split()[1] for line in lines[:-1]] == SUITE_NAMES
        failed = [line for line in lines if line.startswith("FAIL")]
        assert [line.split()[1] for line in failed] == [
            "hilbert/projector-firm", "compositions/firmly-nonexpansive", "proxfun/prox-firm"]
        assert all("(raised RuntimeError: no defect)" in line for line in failed)
        assert lines[-1] == "25/28 property suites passed"
        with pytest.raises(RuntimeError, match="no defect"):  # called directly, it raises
            properties.suite_projector_firm(np.random.default_rng(0), 5)

    @pytest.mark.parametrize("target, nan_defect, suites", [
        ("_iterate_gap", lambda space, ta, tb: math.nan,
         ["solvers/engine-equivalence", "solvers/block-stacked"]),
        ("_firm_defect", lambda space, T, a, b: np.full(np.shape(a)[:-1], math.nan),
         ["hilbert/projector-firm", "compositions/firmly-nonexpansive", "proxfun/prox-firm"]),
    ], ids=["iterate-gap", "firm-defect"])
    def test_a_nan_defect_fails_its_suite(self, monkeypatch, target, nan_defect, suites):
        # max(worst, nan) keeps worst, so a running max alone would pass these suites.
        monkeypatch.setattr(properties, target, nan_defect)
        lines = []
        assert run_properties(seed=0, trials=20, out=lines.append) == 2
        failed = [line for line in lines if line.startswith("FAIL")]
        assert [line.split()[1] for line in failed] == suites
        assert all("worst defect nan " in line for line in failed)
        assert lines[-1] == f"{28 - len(suites)}/28 property suites passed"

    def test_rescaled_and_identity_maps_take_no_svd(self, svd_calls):
        # The generators' rescaled maps carry their norms, so the gate does not
        # factor them again, and a one-row or one-column map's norm is its
        # length; 381 SVDs before norms were carried, 279 before that.
        assert run_properties(seed=0, trials=20, out=lambda line: None) == 0
        assert len(svd_calls) <= 229

    def test_corrupted_adjoint_fails(self, monkeypatch):
        corrupt_adjoint(monkeypatch)
        lines = []
        assert run_properties(seed=0, trials=40, out=lines.append) == 2
        assert any(line.startswith("FAIL") and "adjoint" in line for line in lines)


class TestCli:
    def test_solve_and_oracle(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(ACCEPTANCE_SPEC_DICT))
        assert main(["solve", str(cfg)]) == 0
        assert main(["oracle", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "2.0" in out

    def test_solve_trace_flag(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(ACCEPTANCE_SPEC_DICT))
        trace = tmp_path / "t.csv"
        assert main(["solve", str(cfg), "--trace", str(trace)]) == 0
        assert trace.exists()

    def test_oracle_without_closed_form(self, tmp_path, capsys):
        cfg_data = {
            "kind": "prox-mixture",
            "spaces": {"domain": {"dim": 1}},
            "sets": [{"tag": "abs"}],
            "weights": [1.0],
            "subspace": [[1.0]],
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(cfg_data))
        assert main(["oracle", str(cfg)]) == 1

    def test_props_quick(self, capsys):
        assert main(["props", "--trials", "5", "--seed", "3"]) == 0

    def test_props_negative_control(self, capsys, monkeypatch):
        corrupt_adjoint(monkeypatch)
        assert main(["props", "--trials", "20"]) == 2

    @pytest.mark.parametrize("argv, name", [
        (["props", "--trials", "-3"], "trials"), (["props", "--seed", "-1"], "seed"),
    ])
    def test_props_bad_count_exits_one(self, capsys, argv, name):
        # once exit 0 having checked nothing (trials), or 28 FAIL lines and exit 2 (seed)
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert out == f"error: {name} must be a nonnegative integer, got {argv[-1]}\n"

    @pytest.mark.parametrize("argv", [[], ["solve"], ["props", "--seed", "x"], ["bogus"]],
                             ids=["no-command", "no-config", "non-integer", "unknown-command"])
    def test_usage_error_exits_one(self, capsys, argv):
        # exit 2 is reserved for tolerance failures
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "error: " in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: rescomp")

    @pytest.mark.parametrize("schedule", BAD_SCHEDULES)
    def test_bad_schedule_exits_one(self, tmp_path, capsys, schedule):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(acceptance_dict(schedule=schedule)))
        assert main(["solve", str(cfg)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("error: ") and "schedule" in out

    @pytest.mark.parametrize("overrides", BAD_VALUES.values(), ids=BAD_VALUES.keys())
    def test_bad_value_exits_one(self, tmp_path, capsys, overrides):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(acceptance_dict(**overrides)))
        assert main(["solve", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("error: field ")
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("case", BAD_VALUE_FIELDS)
    def test_bad_value_names_its_field(self, tmp_path, capsys, case):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(acceptance_dict(**BAD_VALUES[case])))
        assert main(["solve", str(cfg)]) == 1
        assert capsys.readouterr().out.startswith(f"error: field '{BAD_VALUE_FIELDS[case]}'")

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    @pytest.mark.parametrize("case", MISSING_KEYS)
    def test_missing_key_exits_one_naming_field_and_key(self, tmp_path, capsys, case, command):
        kind, first, key = MISSING_KEYS[case]
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(acceptance_dict(kind=kind, sets=[first, _second(kind)])))
        assert main([command, str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == f"error: field 'sets[0]': missing key '{key}'\n"
        assert captured.err == ""

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    @pytest.mark.parametrize("case", MISSING_DIMS)
    def test_missing_dim_exits_one_naming_the_space(self, tmp_path, capsys, case, command):
        spaces, name = MISSING_DIMS[case]
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(acceptance_dict(spaces=spaces)))
        assert main([command, str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == f"error: field '{name}': missing key 'dim'\n"
        assert captured.err == ""

    def test_singular_wiener_solve_and_oracle_exit_zero(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        report_path = tmp_path / "report.json"
        cfg.write_text(json.dumps({**SINGULAR_WIENER, "output": {"report": str(report_path)}}))
        assert main(["solve", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["oracle"]["rank_deficient"] is True
        assert json.loads(report_path.read_text()) == report
        assert main(["oracle", str(cfg)]) == 0
        assert capsys.readouterr().out == '{"point": [0.0, 0.0], "rank_deficient": true}\n'

    def test_zero_wiener_solve_exits_two_and_oracle_exits_zero(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        report_path = tmp_path / "report.json"
        cfg.write_text(json.dumps({**ZERO_WIENER, "output": {"report": str(report_path)}}))
        assert main(["solve", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1] == (
            "tolerance failure: did not converge within the iteration budget")
        assert json.loads(report_path.read_text())["oracle"]["rank_deficient"] is True
        assert main(["oracle", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["rank_deficient"] is True

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    def test_non_utf8_config_exits_one_naming_the_path(self, tmp_path, capsys, command):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(json.dumps(acceptance_dict(kind="split-feasibility\u00ff"),
                                   ensure_ascii=False).encode("latin-1"))
        assert b"\xff" in cfg.read_bytes()
        assert main([command, str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith(f"error: {cfg}: not UTF-8 text")
        assert "Traceback" not in captured.out + captured.err

    def test_nan_box_bound_exits_one_naming_the_set(self, tmp_path, capsys):
        # json reads the NaN literal; the box refuses it at construction.
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(acceptance_dict(sets=[
            {"tag": "box", "lower": [float("nan")], "upper": [1.0]},
            {"tag": "singleton", "point": [3.0]},
        ])))
        assert "NaN" in cfg.read_text()
        assert main(["solve", str(cfg)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("error: field 'sets[0]'") and "empty box" in out

    def test_infinite_ball_radius_exits_one_naming_the_set(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(acceptance_dict(sets=[
            {"tag": "ball", "center": [0.0], "radius": float("inf")},
            {"tag": "singleton", "point": [3.0]},
        ])))
        assert "Infinity" in cfg.read_text()
        assert main(["solve", str(cfg)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("error: field 'sets[0]'") and "radius must be finite" in out

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
    def test_nonfinite_gamma_exits_one(self, tmp_path, capsys, gamma):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(acceptance_dict(gamma=gamma)))
        assert main(["solve", str(cfg)]) == 1
        assert capsys.readouterr().out.startswith("error: field 'gamma'")

    def test_gate_is_on_the_stacked_map(self, tmp_path, capsys):
        # orthogonal blocks: ||L||^2 = 0.9, though sum_k w_k ||L_k||^2 = 1.8
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(acceptance_dict(weights=[0.9, 0.9])))
        assert main(["solve", str(cfg)]) == 0
        cfg.write_text(json.dumps(acceptance_dict(weights=[1.1, 0.9])))
        assert main(["solve", str(cfg)]) == 1
        assert "exceeds 1" in capsys.readouterr().out

    def test_wiener_scale_forward_solve_and_oracle(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "kind": "wiener",
            "spaces": {"domain": {"dim": 2}, "blocks": [{"dim": 1}, {"dim": 1}]},
            "maps": [[[1.0, 0.0]], [[0.0, 1.0]]],
            "sets": [{"f": {"tag": "scale", "c": 0.5}, "point": [1.0]},
                     {"f": {"tag": "scale", "c": 0.6}, "point": [3.0]}],
            "weights": [0.5, 0.5],
            "subspace": [[1.0, 1.0]],
        }))
        assert main(["solve", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        # stationarity on the diagonal: 0.5 (0.5 t - 1) + 0.5 (0.6 t - 3) = 0
        assert report["oracle"]["point"] == pytest.approx([4.0 / 1.1, 4.0 / 1.1], abs=1e-12)
        assert report["oracle"]["distance"] <= 1e-6
        assert main(["oracle", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["point"] == report["oracle"]["point"]

    def test_one_weighted_block_solves(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(acceptance_dict(
            spaces={"domain": {"dim": 2}, "blocks": [{"dim": 1}]}, maps=[[[1.0, 0.0]]],
            sets=[{"tag": "singleton", "point": [1.0]}], weights=[0.5])))
        assert main(["solve", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["final_iterate"] == pytest.approx([1.0, 1.0])

    def test_missing_config(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "missing.json")]) == 1

    def test_missing_trace_directory(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(ACCEPTANCE_SPEC_DICT))
        trace = tmp_path / "missing" / "t.csv"
        assert main(["solve", str(cfg), "--trace", str(trace)]) == 1
        assert capsys.readouterr().out.startswith("error: ")
        assert not trace.parent.exists()

    def test_missing_report_directory(self, tmp_path, capsys):
        report = tmp_path / "missing" / "report.json"
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(acceptance_dict(output={"report": str(report)})))
        assert main(["solve", str(cfg)]) == 1
        assert capsys.readouterr().out.startswith("error: ")
        assert not report.parent.exists()

    def test_converged_run_that_is_not_a_solution_exits_two(self, tmp_path, capsys):
        # The README config with targets 1e7 and 3e7 converges, but its
        # relaxed residual stays above EXACTNESS_TOL: verdict "not a solution".
        report = tmp_path / "report.json"
        trace = tmp_path / "t.csv"
        cfg = acceptance_dict(output={"report": str(report), "trace": str(trace)})
        cfg["sets"] = [{"tag": "singleton", "point": [1e7]},
                       {"tag": "singleton", "point": [3e7]}]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["solve", str(path)]) == 2
        written = json.loads(report.read_text())
        assert written["converged"]
        assert written["verdict"] == "not a solution"
        assert len(trace.read_text().splitlines()) == written["iterations"] + 2
        assert capsys.readouterr().out.splitlines()[-1].startswith("tolerance failure: ")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nonfinite_run_keeps_trace_and_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(NONFINITE_SPEC_DICT))
        trace = tmp_path / "t.csv"
        assert main(["solve", str(cfg), "--trace", str(trace), "--unsafe-norm"]) == 2
        out = capsys.readouterr().out
        report = json.loads(out[:out.rindex("}") + 1])
        assert report["reason"] == "non-finite"
        assert not report["converged"]
        assert report["verdict"] == "not a solution"
        assert all(np.isfinite(report["final_iterate"]))
        rows = trace.read_text().splitlines()
        assert len(rows) == report["iterations"] + 2  # header + iterations 0..n
        assert rows[-1].split(",")[1] == "inf"
        assert "non-finite" in out

    def test_nonfinite_run_is_silent_and_strict_json(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(NONFINITE_SPEC_DICT))
        trace = tmp_path / "t.csv"
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "rescomp.cli", "solve", str(cfg),
             "--trace", str(trace), "--unsafe-norm"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr == ""
        assert trace.exists()
        out = proc.stdout
        report = json.loads(out[:out.rindex("}") + 1], parse_constant=_reject_constant)
        assert report["reason"] == "non-finite"
        assert report["fp_residual"] is None
        assert report["var_residual"] is None

    def test_cli_import_does_not_load_scipy(self):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        probe = ("import sys, rescomp.cli; "
                 "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout
        assert out.strip() == "[]"


class TestProcessEntry:
    """``rescomp`` and ``python -m rescomp.cli`` run ``cli.entry``, which freezes the collector on exit."""

    # (command, config, flags, code): config None is malformed JSON, and a callable
    # builds the config from the benchmark's generator.
    @pytest.mark.parametrize("command, config, flags, code", [
        ("solve", ACCEPTANCE_SPEC_DICT, [], 0),
        ("solve", None, [], 1),
        ("solve", NONFINITE_SPEC_DICT, ["--unsafe-norm"], 2),
        ("solve", acceptance_dict(output="ab"), [], 1),
        ("solve", acceptance_dict(sets=[{"tag": "singleton"}, *ACCEPTANCE_SPEC_DICT["sets"][1:]]),
         [], 1),
        ("solve", acceptance_dict(**BAD_VALUES["quadratic-b-typo"]), [], 1),
        ("solve", acceptance_dict(schedule={"lambda": [1.0, 1.0]}), [], 1),
        ("solve", ZERO_WIENER, [], 2),
        ("solve", far_box_wiener, [], 2),
        ("solve", AFFINE_WIENER, [], 0),
        ("oracle", AFFINE_WIENER, [], 1),
        *(("solve", config, [], 1) for config, _ in REFUSED_CONFIGS.values()),
    ], ids=["acceptance", "malformed", "non-finite", "bad-output", "missing-point",
            "quadratic-typo", "lambda-list", "zero-wiener", "far-box-wiener", "affine-wiener",
            "affine-wiener-oracle", *REFUSED_CONFIGS])
    def test_process_matches_in_process_run(self, tmp_path, capsys, workloads, command, config,
                                            flags, code):
        cfg = tmp_path / "config.json"
        if callable(config):
            config = config(workloads)
        cfg.write_text("{" if config is None else json.dumps(config))
        trace = tmp_path / "t.csv"
        argv = [command, str(cfg), *(["--trace", str(trace)] if command == "solve" else []), *flags]
        assert main(argv) == code
        expected = capsys.readouterr().out.encode()
        rows = trace.read_text().splitlines() if trace.exists() else None
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "rescomp.cli", *argv],
                              env=env, capture_output=True, timeout=60)
        assert proc.returncode == code
        assert proc.stdout == expected
        assert proc.stderr == b""
        if rows is None:
            assert not trace.exists()
            return
        text = trace.read_text()
        assert text.endswith("\n")
        written = text.splitlines()
        assert len(written) == json.loads(expected[:expected.rindex(b"}") + 1])["iterations"] + 2
        # every column but wall_ns is deterministic
        assert [r.rsplit(",", 1)[0] for r in written] == [r.rsplit(",", 1)[0] for r in rows]

    def test_main_does_not_freeze(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(ACCEPTANCE_SPEC_DICT))
        before = gc.get_freeze_count()
        assert main(["solve", str(cfg)]) == 0
        assert gc.get_freeze_count() == before

    def test_entry_freezes_after_main_and_returns_its_code(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 2)
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        assert cli.entry() == 2
        assert calls == ["main", "freeze"]

    def test_console_script_is_the_entry_point(self):
        with open(os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")) as fh:
            text = fh.read()
        assert re.search(r'^\[project\.scripts\]\nrescomp = "rescomp\.cli:entry"\n\n', text, re.MULTILINE)
