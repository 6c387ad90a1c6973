"""Finite-dimensional real Hilbert spaces with diagonal metrics.

Everything else in the package is built on the three objects defined here:

* :class:`Space` -- a dimension plus strictly positive diagonal metric
  weights.  ``weights = ones`` is the standard Euclidean space; weighted
  product spaces (used by mixtures and averages) stay diagonal, which is
  why no general Gram matrix is supported.
* :class:`LinearMap` -- a dense matrix between two spaces, with the
  metric-aware adjoint ``W_dom^-1 M^T W_cod`` and a cached, deterministic
  power-iteration estimate of the operator norm.
* :class:`SubspaceProjector` -- the metric-orthogonal projector onto the
  span of a set of vectors, orthonormalized by Gram-Schmidt.

:func:`shifted_inverse` gives ``gamma -> (Id + gamma M)^{-1}`` for a
monotone ``M``, cached per scale; the linear resolvents and quadratic proxes
are built on it.

Vectors are plain 1-D ``numpy`` arrays, validated once at the public
boundary: public methods and constructors pass them through
:meth:`Space.validate` (shape, finiteness, float64).  The kernels behind
them -- power iteration, Gram-Schmidt, the solver loops, the catalog
evaluators -- work on raw arrays through ``matrix``/``adjoint_matrix`` and the
unchecked :meth:`Space._inner` / :meth:`Space._norm`.  A value that goes
non-finite inside a loop is caught by the loop's finiteness test on its
residual scalar.

All objects are immutable after construction and all operations are pure,
so values can be shared freely between threads.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractionConditionError, DimensionMismatchError, ValidationError

# Seed for the power-iteration start vector; fixed so norm certificates
# are reproducible across runs.
POWER_ITERATION_SEED = 1729
_POWER_TOL = 1e-12
_POWER_MAXIT = 10_000

# Vectors with metric norm below the drop tolerance are discarded during
# Gram-Schmidt as linearly dependent.
GRAM_SCHMIDT_DROP_TOL = 1e-10

# Slack allowed on every ||L|| <= 1 gate, absorbing power-iteration noise.
NORM_GATE_TOL = 1e-9

# Scales whose inverse shifted_inverse keeps; a full cache is emptied, so a
# caller sweeping many scales holds at most this many matrices.
INVERSE_CACHE_SIZE = 16


def check_contraction(L, unsafe=False, require_nonzero=False):
    """Gate ``||L|| <= 1 + tol`` (and optionally ``L != 0``) or raise."""
    n = L.op_norm()
    if require_nonzero and n == 0.0:
        raise ContractionConditionError("a nonzero map is required here")
    if n > 1.0 + NORM_GATE_TOL and not unsafe:
        raise ContractionConditionError(
            f"operator norm {n:.6g} exceeds 1; pass unsafe=True to override"
        )


class Space:
    """A finite-dimensional real Hilbert space with a diagonal metric.

    The inner product is ``<x, y> = sum_i weights[i] * x[i] * y[i]``.
    """

    def __init__(self, dim, weights=None):
        if dim <= 0 or int(dim) != dim:
            raise ValidationError(f"space dimension must be a positive integer, got {dim}")
        self.dim = int(dim)
        if weights is None:
            weights = np.ones(self.dim)
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (self.dim,):
            raise DimensionMismatchError(
                f"expected {self.dim} metric weights, got shape {weights.shape}"
            )
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0.0):
            raise ValidationError("metric weights must be finite and strictly positive")
        self.weights = weights

    def validate(self, x):
        """Return ``x`` as a float array after checking it belongs to this space.

        A float64 ``ndarray`` of the right shape is returned as is (no copy).
        """
        if type(x) is not np.ndarray or x.dtype != np.float64:
            x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DimensionMismatchError(
                f"vector of shape {x.shape} does not live in a space of dimension {self.dim}"
            )
        if not np.isfinite(x).all():
            raise ValidationError("vector has non-finite entries")
        return x

    def inner(self, x, y):
        """Metric inner product ``sum_i w_i x_i y_i``."""
        return self._inner(self.validate(x), self.validate(y))

    def norm(self, x):
        return self._norm(self.validate(x))

    # Raw forms for kernels: the caller guarantees validated arrays.
    # ``ndarray.dot`` is ``np.dot`` without the dispatch wrapper.

    def _inner(self, x, y):
        return float((self.weights * x).dot(y))

    def _norm(self, x):
        return math.sqrt((self.weights * x).dot(x))

    def zeros(self):
        return np.zeros(self.dim)

    def random(self, rng, scale=1.0):
        """A standard-normal sample, used by property suites and samplers."""
        return scale * rng.standard_normal(self.dim)

    def __eq__(self, other):
        return (
            isinstance(other, Space)
            and self.dim == other.dim
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self):
        return hash((self.dim, self.weights.tobytes()))

    def __repr__(self):
        if np.all(self.weights == 1.0):
            return f"Space(dim={self.dim})"
        return f"Space(dim={self.dim}, weights={self.weights!r})"


def product_space(spaces, weights=None):
    """Weighted product of spaces, with block ``k`` scaled by ``weights[k]``.

    The inner product is ``sum_k weights[k] * <y_k, y_k'>_k``, which is again
    diagonal: the block metrics are simply multiplied by the block weights.
    ``weights=None`` gives the standard (unweighted) direct sum.
    """
    spaces = list(spaces)
    if not spaces:
        raise ValidationError("product of zero spaces")
    if weights is None:
        weights = [1.0] * len(spaces)
    weights = [float(w) for w in weights]
    if len(weights) != len(spaces):
        raise DimensionMismatchError("one weight per block is required")
    if any(not np.isfinite(w) or w <= 0.0 for w in weights):
        raise ValidationError("block weights must be finite and strictly positive")
    diag = np.concatenate([w * s.weights for w, s in zip(weights, spaces)])
    return Space(sum(s.dim for s in spaces), diag)


def block_slices(spaces):
    """Index slices of each block inside ``product_space(spaces, ...)``."""
    out = []
    start = 0
    for s in spaces:
        out.append(slice(start, start + s.dim))
        start += s.dim
    return out


class LinearMap:
    """A dense linear map between two spaces.

    The adjoint is taken with respect to the metrics:
    ``adjoint_matrix = W_dom^-1 @ matrix.T @ W_cod``, so that
    ``<L x, y>_cod == <x, L* y>_dom`` for all x, y.
    """

    def __init__(self, domain, codomain, matrix):
        self.domain = domain
        self.codomain = codomain
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != (codomain.dim, domain.dim):
            raise DimensionMismatchError(
                f"matrix shape {matrix.shape} does not map "
                f"dim {domain.dim} into dim {codomain.dim}"
            )
        if not np.all(np.isfinite(matrix)):
            raise ValidationError("matrix has non-finite entries")
        self.matrix = matrix
        self.adjoint_matrix = (matrix.T * codomain.weights[None, :]) / domain.weights[:, None]
        self.norm_estimate = self._power_norm()

    def apply(self, x):
        x = self.domain.validate(x)
        return self.matrix @ x

    __call__ = apply

    def adjoint_apply(self, y):
        y = self.codomain.validate(y)
        return self.adjoint_matrix @ y

    def op_norm(self):
        """Certified operator norm (cached at construction)."""
        return self.norm_estimate

    def _power_norm(self):
        # Power iteration on L* L, which is self-adjoint PSD in the domain
        # metric; the Rayleigh quotient converges to ||L||^2.  The matrix was
        # validated on entry, so the loop runs on raw vectors.
        gram = self.adjoint_matrix @ self.matrix
        dom = self.domain
        rng = np.random.default_rng(POWER_ITERATION_SEED)
        v = rng.standard_normal(dom.dim)
        nv = dom._norm(v)
        if nv == 0.0:
            v = np.ones(dom.dim)
            nv = dom._norm(v)
        v = v / nv
        lam = 0.0
        for _ in range(_POWER_MAXIT):
            w = gram @ v
            lam_new = dom._inner(v, w)
            nw = dom._norm(w)
            if nw == 0.0:
                return 0.0
            if not math.isfinite(nw):
                raise ValidationError("matrix entries overflow the norm computation")
            v = w / nw
            if abs(lam_new - lam) <= _POWER_TOL * max(1.0, abs(lam_new)):
                lam = lam_new
                break
            lam = lam_new
        return float(np.sqrt(max(lam, 0.0)))

    def compose(self, inner):
        """The map ``self o inner`` (apply ``inner`` first)."""
        if inner.codomain != self.domain:
            raise DimensionMismatchError("spaces do not chain in compose()")
        return LinearMap(inner.domain, self.codomain, self.matrix @ inner.matrix)

    def is_isometry(self, tol=1e-10):
        """Whether L* L == Id holds numerically."""
        gram = self.adjoint_matrix @ self.matrix
        return bool(np.max(np.abs(gram - np.eye(self.domain.dim))) <= tol)

    def __repr__(self):
        return f"LinearMap({self.domain.dim} -> {self.codomain.dim}, norm~{self.norm_estimate:.3g})"


def identity_map(space):
    return LinearMap(space, space, np.eye(space.dim))


def shifted_inverse(M):
    """``gamma -> (Id + gamma M)^{-1}`` as a dense matrix, cached per ``gamma``.

    ``M`` must be monotone in some diagonal metric ``W`` (callers check
    this).  Then ``<(Id + gamma M) x, x>_W >= ||x||_W^2``, so the inverse has
    W-norm at most 1 and condition number at most ``1 + gamma ||M||``: one
    explicit inverse per scale is as accurate as a factorization, and each
    later evaluation is a single matrix-vector product.  Filling the cache
    twice for one scale is harmless, so concurrent callers need no lock.
    """
    M = np.asarray(M, dtype=float)
    eye = np.eye(M.shape[0])
    cache = {}

    def inverse(gamma):
        inv = cache.get(gamma)
        if inv is None:
            if len(cache) >= INVERSE_CACHE_SIZE:
                cache.clear()
            inv = np.linalg.inv(eye + gamma * M)
            cache[gamma] = inv
        return inv

    return inverse


def stack(maps, weights):
    """Stack maps ``L_k: H -> G_k`` into ``L: H -> prod_k (G_k, w_k)``.

    The codomain is the weighted product space, so the adjoint is
    ``y -> sum_k w_k L_k* y_k`` and ``||L||^2 <= sum_k w_k ||L_k||^2``.
    """
    maps = list(maps)
    if not maps:
        raise ValidationError("cannot stack an empty list of maps")
    weights = [float(w) for w in weights]
    if len(weights) != len(maps):
        raise DimensionMismatchError("one weight per stacked map is required")
    if any(not np.isfinite(w) or w <= 0.0 for w in weights):
        raise ValidationError("stack weights must be strictly positive")
    domain = maps[0].domain
    for L in maps[1:]:
        if L.domain != domain:
            raise DimensionMismatchError("stacked maps must share their domain")
    codomain = product_space([L.codomain for L in maps], weights)
    matrix = np.vstack([L.matrix for L in maps])
    return LinearMap(domain, codomain, matrix)


class SubspaceProjector:
    """Metric-orthogonal projector onto the span of the given vectors.

    The spanning set may be redundant; Gram-Schmidt in the space metric
    drops dependent vectors (tolerance ``GRAM_SCHMIDT_DROP_TOL``).
    """

    def __init__(self, space, spanning_vectors):
        self.space = space
        basis = []
        for v in spanning_vectors:
            v = space.validate(v).copy()
            scale = space._norm(v)
            for b in basis:
                v -= space._inner(v, b) * b
            # second pass stabilizes near-dependent inputs
            for b in basis:
                v -= space._inner(v, b) * b
            nv = space._norm(v)
            if nv > GRAM_SCHMIDT_DROP_TOL * max(1.0, scale):
                basis.append(v / nv)
        if not basis:
            raise ValidationError("spanning set only contains (numerically) zero vectors")
        self.basis = np.array(basis)  # rows are orthonormal basis vectors
        self.rank = len(basis)
        # P x = sum_j <x, b_j> b_j, as a dense matrix
        self.matrix = self.basis.T @ (self.basis * space.weights[None, :])

    @classmethod
    def full(cls, space):
        return cls(space, np.eye(space.dim))

    def apply(self, x):
        x = self.space.validate(x)
        return self.matrix @ x

    __call__ = apply

    def as_map(self):
        """The projector as a LinearMap of the space into itself."""
        return LinearMap(self.space, self.space, self.matrix)

    def is_full(self):
        return self.rank == self.space.dim

    def residual_norm(self, x):
        """Metric distance from ``x`` to the subspace."""
        x = self.space.validate(x)
        return self.space._norm(x - self.matrix @ x)

    def __repr__(self):
        return f"SubspaceProjector(rank={self.rank} in dim {self.space.dim})"
