"""Seeded generators for the benchmark's workloads.

Every workload is a pure function of its seed: the same seed gives
byte-identical JSON configurations.  The program under test only ever sees
these configurations (written to files) or, for ``props``, the seed and
trial count handed to ``run_properties``.

Workloads
---------
kinds-small
    Twelve configurations: each instance kind at n = 4 and n = 50, with
    split-feasibility twice (mixed box/ball/singleton sets, and singletons
    only so that the least-squares oracle runs).  p = 4 blocks of dimension
    n/2, V of rank n/2 from random spanning vectors, tol 1e-9, lambda 1.
    Per-call Python overhead dominates.
props
    ``run_properties`` at a fixed trial count on three seeds drawn from the
    run's seed: thousands of tiny maps, and the only workload that exercises
    ``compositions`` and most of ``proxfun``.
"""

from __future__ import annotations

import json
import zlib

import numpy as np

KINDS_SMALL = "kinds-small"
PROPS = "props"
WORKLOADS = (KINDS_SMALL, PROPS)

TOL = 1e-9
# Instances are drawn once from this seed; --seed moves their coordinates.
BASE_SEED = 0
MAX_ITERATIONS = 100_000
SMALL_DIMS = (4, 50)
SMALL_BLOCKS = 4
# Smallest eigenvalue allowed for (L U)*(L U) on the compact V-coordinates of
# a kinds-small instance.  Below it the least-squares oracle distance at
# tol 1e-9 approaches ORACLE_MATCH_TOL and iteration counts grow without
# bound; draws under it are replaced by the next draw of the same stream.
SMALL_MIN_CURVATURE = 0.02
PROPS_TRIALS = 100
# Props seeds per run: the run's median pass then stays with the typical seeds
# when one of them needs many solver iterations.
PROPS_SEEDS = 3


def _stream(seed, *tags):
    """An independent generator for one seed and one named part of a workload."""
    return np.random.default_rng([int(seed)] + [zlib.crc32(t.encode()) for t in tags])


def _orthonormal(rng, n, k):
    q, r = np.linalg.qr(rng.standard_normal((n, k)))
    return q * np.sign(np.diag(r))


def _spectral_map(rng, rows, cols, sigma):
    """A ``rows x cols`` matrix with the given singular values (len = min(rows, cols))."""
    k = len(sigma)
    return (_orthonormal(rng, rows, k) * np.asarray(sigma)) @ _orthonormal(rng, cols, k).T


def _curvature(maps, weights, span):
    """Smallest eigenvalue of ``sum_k w_k (L_k U)^T (L_k U)`` for an orthonormal basis U of V."""
    U, _ = np.linalg.qr(np.asarray(span).T)
    gram = sum(w * (M @ U).T @ (M @ U) for M, w in zip(maps, weights))
    return float(np.linalg.eigvalsh(gram)[0])


def _unit(rng, m):
    v = rng.standard_normal(m)
    return v / np.linalg.norm(v)


def _lists(a):
    return np.asarray(a).tolist()


def _signed_permutation(rng, m):
    return rng.permutation(m), rng.choice([-1.0, 1.0], size=m)


def _move_block(desc, perm, signs):
    """Apply the signed permutation ``y -> signs * y[perm]`` to a block descriptor."""
    out = {}
    for key, value in desc.items():
        if key in ("point", "center", "b"):
            out[key] = _lists(signs * np.asarray(value)[perm])
        elif key in ("matrix", "q"):
            M = np.asarray(value)[perm][:, perm]
            out[key] = _lists(signs[:, None] * M * signs[None, :])
        elif key == "lower":
            lo, hi = np.asarray(desc["lower"])[perm], np.asarray(desc["upper"])[perm]
            out["lower"] = _lists(np.where(signs > 0, lo, -hi))
            out["upper"] = _lists(np.where(signs > 0, hi, -lo))
        elif key == "upper":
            continue
        elif isinstance(value, dict):
            out[key] = _move_block(value, perm, signs)
        else:
            out[key] = value
    return out


def _small_base(kind, n, variant):
    """The seed-independent kinds-small instance that every seed re-expresses."""
    rng = _stream(BASE_SEED, KINDS_SMALL, kind, variant, str(n))
    m, r, p = n // 2, n // 2, SMALL_BLOCKS
    weights = [1.0 / p] * p
    config = {
        "kind": kind,
        "gamma": 1.0,
        "weights": weights,
        "schedule": {"lambda": 1.0, "max_iterations": MAX_ITERATIONS, "tol": TOL},
        "seed": 0,
    }
    if kind == "feasibility-product":
        # Four balls in R^n whose radii are smaller than their spread, so the
        # product problem is inconsistent and its minimizer lies outside them.
        config["spaces"] = {"domain": {"dim": n}}
        config["sets"] = [
            {"tag": "ball", "center": _lists(rng.standard_normal(n)),
             "radius": 0.25 * float(np.sqrt(n))}
            for _ in range(p)
        ]
        return config

    while True:
        maps = [_spectral_map(rng, m, n, np.linspace(1.0, 0.3, m)) for _ in range(p)]
        span = rng.standard_normal((r, n))
        if _curvature(maps, weights, span) >= SMALL_MIN_CURVATURE:
            break
    config["spaces"] = {"domain": {"dim": n}, "blocks": [{"dim": m}] * p}
    config["maps"] = [_lists(M) for M in maps]
    config["subspace"] = _lists(span)

    def point():
        return _lists(rng.standard_normal(m))

    def box():
        c = rng.standard_normal(m)
        return {"tag": "box", "lower": _lists(c - 0.5), "upper": _lists(c + 0.5)}

    def ball():
        return {"tag": "ball", "center": point(), "radius": 0.5}

    if kind == "split-feasibility" and variant == "singletons":
        sets = [{"tag": "singleton", "point": point()} for _ in range(p)]
    elif kind == "split-feasibility":
        sets = [box(), ball(), {"tag": "singleton", "point": point()}, ball()]
    elif kind == "common-zero":
        g = rng.standard_normal((m, m))
        sets = [
            {"tag": "linear", "matrix": _lists(0.5 * (g - g.T) + 0.1 * np.eye(m))},
            {"tag": "scaled-identity", "c": 0.5},
            # a ball that misses the origin, so x0 = 0 is not already a zero
            {"tag": "normal-cone", "set": {"tag": "ball", "center": _lists(1.5 * _unit(rng, m)),
                                           "radius": 0.5}},
            {"tag": "zero"},
        ]
    elif kind == "wiener":
        sets = [{"f": {"tag": "scale", "c": 0.6}, "point": point()} for _ in range(p)]
    elif kind == "prox-mixture":
        g = rng.standard_normal((m, m))
        sets = [
            {"tag": "abs"},
            {"tag": "quadratic", "q": _lists(g @ g.T / m + 0.1 * np.eye(m)), "b": point()},
            {"tag": "half-sq-dist", "point": point()},
            {"tag": "indicator", "set": box()},
        ]
    else:
        raise ValueError(f"unknown kind {kind!r}")
    config["sets"] = sets
    return config


def _recoordinate(config, rng):
    """The same instance in coordinates drawn from ``rng``.

    The domain gets a Haar-random rotation Q and every block a random signed
    permutation P_k (which keeps boxes boxes and the l1 norm invariant), so
    ``L_k -> P_k L_k Q^T``, ``V -> Q V`` and every block datum moves with its
    block.  All metrics are Euclidean and x0 = 0, so in exact arithmetic the
    iterates are ``Q x_n`` and every seed needs the same iterations: the seed
    changes the numbers the program reads, not the difficulty of the work.
    """
    n = config["spaces"]["domain"]["dim"]
    Q = _orthonormal(rng, n, n)
    if config["kind"] == "feasibility-product":
        for s in config["sets"]:
            s["center"] = _lists(Q @ np.asarray(s["center"]))
        return config
    moves = [_signed_permutation(rng, d["dim"]) for d in config["spaces"]["blocks"]]
    config["maps"] = [
        _lists((signs[:, None] * np.asarray(M)[perm]) @ Q.T)
        for M, (perm, signs) in zip(config["maps"], moves)
    ]
    config["subspace"] = _lists(np.asarray(config["subspace"]) @ Q.T)
    config["sets"] = [_move_block(d, *mv) for d, mv in zip(config["sets"], moves)]
    return config


def kinds_small(seed):
    """The twelve kinds-small configurations as ``[(name, config_dict)]``."""
    out = []
    for n in SMALL_DIMS:
        for kind, variant in (
            ("split-feasibility", "mixed"),
            ("split-feasibility", "singletons"),
            ("common-zero", ""),
            ("feasibility-product", ""),
            ("wiener", ""),
            ("prox-mixture", ""),
        ):
            name = f"{kind}{'-' + variant if variant else ''}-n{n}"
            rng = _stream(seed, KINDS_SMALL, "coordinates", kind, variant, str(n))
            out.append((name, _recoordinate(_small_base(kind, n, variant), rng)))
    return out


def configs(workload, seed):
    """Configurations of a solve workload; ``props`` has none."""
    if workload == KINDS_SMALL:
        return kinds_small(seed)
    if workload == PROPS:
        return []
    raise ValueError(f"unknown workload {workload!r}")


def has_oracle(config):
    """Whether ``rescomp`` has a closed-form reference for this configuration."""
    if config["kind"] == "split-feasibility":
        return all(s["tag"] == "singleton" for s in config["sets"])
    if config["kind"] == "wiener":
        return all(s.get("f", s).get("tag", "scale") == "scale" for s in config["sets"])
    return False


def props_seeds(seed):
    """The PROPS_SEEDS seeds handed in turn to ``run_properties`` in a run."""
    return [int(v) for v in _stream(seed, PROPS).integers(0, 2**31 - 1, size=PROPS_SEEDS)]


def dump(config):
    """Canonical JSON text of a configuration (floats round-trip exactly)."""
    return json.dumps(config, sort_keys=True)
