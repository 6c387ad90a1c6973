"""Finite-dimensional real Hilbert spaces with diagonal metrics.

Everything else in the package is built on the three objects defined here:

* :class:`Space` -- a dimension plus strictly positive diagonal metric
  weights.  ``weights = ones`` is the standard Euclidean space; weighted
  product spaces (used by mixtures and averages) stay diagonal, which is
  why no general Gram matrix is supported.
* :class:`LinearMap` -- a dense matrix between two spaces, with the
  metric-aware adjoint ``W_dom^-1 M^T W_cod`` and its operator norm, the
  largest singular value of ``W_cod^{1/2} M W_dom^{-1/2}``, computed once,
  on first use (with one row or one column that matrix is a vector, and its
  norm is its ``math.hypot`` length: no SVD).  :meth:`LinearMap.scaled`
  gives ``t L`` carrying ``|t| ||L||`` when that norm is cached (exact up
  to the rounding of ``t M``, about ``sqrt(min(m, n)) eps`` relative), and
  :func:`identity_map` is built with no arithmetic: its norm is exactly 1
  and its adjoint the matrix itself in any diagonal metric.
* :class:`SubspaceProjector` -- the metric-orthogonal projector onto the
  span of a set of vectors, with an orthonormal basis from one QR.

:func:`check_contraction` is the one gate on the theory's hypothesis
``0 < sum_k w_k ||L_k||^2 <= 1`` (``0 < ||L|| <= 1`` for a single map);
:func:`_real` and :func:`_count` read a scalar strictly (a bool is refused);
:func:`_scale` is the one reader of a resolvent scale or a weight, finite and positive.

:func:`check_monotone` tests that a finite matrix ``M`` is monotone in a metric and
:func:`shifted_inverse` gives ``gamma -> (Id + gamma M)^{-1}``, kept for the
last scale; the linear resolvents and quadratic proxes are built on both.

Vectors are plain 1-D ``numpy`` arrays, validated once at the public
boundary: public methods and constructors pass them through
:meth:`Space.validate` (shape, finiteness, float64), and a spanning set
or a stack of outputs (:meth:`Space.validate_rows`) is checked the same
way as one array.  A finite length (``math.hypot`` of a short vector,
``np.vdot(x, x)`` of a longer one) proves every entry finite; only a
NaN, an inf or huge entries take the entrywise test.  The kernels behind
them -- the solver loops, the catalog evaluators -- work on raw arrays
through ``matrix``/``adjoint_matrix`` and the unchecked
:meth:`Space._inner`, :meth:`Space._norm` and
:meth:`Space._squared_norms`.  A value that goes non-finite inside a
loop is caught by the loop's finiteness test on its residual scalar.

All objects are immutable after construction and all operations are pure,
so values can be shared freely between threads.  The one cache a map fills
later, its norm, holds the same value whoever fills it: two threads that
race on it only compute it twice.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys

import numpy as np

from .errors import (ContractionConditionError, DimensionMismatchError, ScaleRestrictionError,
                     ValidationError)

# Singular values of the normalised spanning set below this fraction of the
# largest one are dropped as linear dependence.  The cutoff is relative, so
# the rank of V does not depend on the scale of the spanning vectors.
RANK_RTOL = 1e-10

# Slack on sum_k w_k ||L_k||^2 <= 1, absorbing rounding in the computed norms.
NORM_GATE_TOL = 1e-9

# A norm bound below this is comfortably finite: the factor 2 below DBL_MAX
# absorbs the rounding of the bound and of the SVD that may later compute it.
NORM_BOUND_LIMIT = 0.5 * sys.float_info.max

# Space.validate takes the math.hypot of a vector up to this length as a Python
# list, cheaper than np.vdot below about 30 entries; a longer one takes np.vdot.
SHORT_VECTOR = 16


def check_contraction(maps, weights=None, unsafe=False):
    """Gate ``0 < sum_k w_k ||L_k||^2 <= 1 + NORM_GATE_TOL`` or raise.

    ``weights=None`` gives every map weight 1, so one map is gated on
    ``||L||^2``.  Weights are read by :func:`_scale`.  A zero total is
    always refused; ``unsafe`` lifts only the upper bound.
    """
    if weights is None:
        weights = [1.0] * len(maps)
    weights = [_scale("mixture weights", w) for w in weights]
    # n * n, not n ** 2: a float product overflows to inf instead of raising.
    total = sum(w * n * n for w, n in zip(weights, (L.op_norm() for L in maps)))
    if total == 0.0:
        raise ContractionConditionError("a nonzero map is required here")
    if total > 1.0 + NORM_GATE_TOL and not unsafe:
        name = "||L||^2" if len(maps) == 1 else "sum_k w_k ||L_k||^2"
        raise ContractionConditionError(
            f"{name} = {total!r} exceeds 1; pass unsafe=True to override"
        )


def _real(name, value):
    """``value`` as a float; a bool or a non-number raises ``ValidationError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    return float(value)


def _count(name, value):
    """``value`` as an int; a bool, a non-number, a negative number or a fraction raises."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 0:
        return int(value)  # exact, even beyond float range
    if not (_real(name, value) >= 0 and float(value).is_integer()):
        raise ValidationError(f"{name} must be a nonnegative integer, got {value!r}")
    return int(value)


def _scale(name, value):
    """``value`` as a float when it is a finite positive number, else ``ScaleRestrictionError``.

    The one reader of a resolvent scale and of a block or mixture weight.
    """
    # A float or np.float64, the usual scale or weight, skips the slow ABC check of numbers.Real.
    number = isinstance(value, float) or not isinstance(value, bool) and isinstance(value, numbers.Real)
    if not (number and 0.0 < value < math.inf):  # NaN fails too
        raise ScaleRestrictionError(f"{name} must be finite and positive, got {value!r}")
    return float(value)


class Space:
    """A finite-dimensional real Hilbert space with a diagonal metric.

    The inner product is ``<x, y> = sum_i weights[i] * x[i] * y[i]``.
    ``weight_min`` and ``weight_max`` are the extreme weights.
    """

    def __init__(self, dim, weights=None):
        if type(dim) is not int:
            dim = _count("space dimension", dim)
        if dim <= 0:
            raise ValidationError(f"space dimension must be a positive integer, got {dim}")
        self.dim = dim
        if weights is None:
            weights = np.ones(dim)
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (dim,):
            raise DimensionMismatchError(
                f"expected {dim} metric weights, got shape {weights.shape}"
            )
        # NaN fails both comparisons below.
        self.weight_min = float(np.minimum.reduce(weights))  # ndarray.min without its wrapper
        self.weight_max = float(np.maximum.reduce(weights))
        if not (0.0 < self.weight_min and self.weight_max < math.inf):
            raise ValidationError("metric weights must be finite and strictly positive")
        self.weights = weights

    def validate(self, x):
        """Return ``x`` as a float array after checking it belongs to this space.

        A float64 ``ndarray`` of the right shape is returned as is (no copy).
        Only a vector whose length is not finite takes the entrywise test.
        """
        if type(x) is not np.ndarray or x.dtype != np.float64:
            x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DimensionMismatchError(
                f"vector of shape {x.shape} does not live in a space of dimension {self.dim}"
            )
        # A finite length proves every entry finite; np.vdot, unlike
        # ndarray.dot, does not warn when huge finite entries overflow it.
        length = math.hypot(*x.tolist()) if self.dim <= SHORT_VECTOR else np.vdot(x, x)
        if not math.isfinite(length) and not np.isfinite(x).all():
            raise ValidationError("vector has non-finite entries")
        return x

    def validate_rows(self, rows):
        """``rows`` as a ``(k, dim)`` float array, after checking each one belongs to this space."""
        try:
            x = np.array(rows, dtype=float)
        except ValueError:  # rows of different shapes, or an entry that is not a number
            x = np.empty(0)
        if x.ndim != 2 or x.shape[1] != self.dim:
            shapes = sorted({np.shape(r) for r in rows})
            raise DimensionMismatchError(f"rows of shapes {shapes} are not vectors of dim {self.dim}")
        if not math.isfinite(np.vdot(x, x)) and not np.isfinite(x).all():
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

    def _squared_norms(self, x):
        """``||x||^2`` of one point, or of each row of a ``(k, dim)`` stack."""
        return (x * x).dot(self.weights)

    def zeros(self):
        return np.zeros(self.dim)

    def random(self, rng, scale=1.0):
        """A standard-normal sample, used by property suites and samplers."""
        x = rng.standard_normal(self.dim)
        return x if scale == 1.0 else scale * x

    def __eq__(self, other):
        return other is self or (
            isinstance(other, Space)
            and self.dim == other.dim
            and self.weights.tobytes() == other.weights.tobytes()
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
    weights = [_scale("block weights", w) for w in weights]
    if len(weights) != len(spaces):
        raise DimensionMismatchError("one weight per block is required")
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

    The operator norm is computed on first use.  Construction bounds it by
    ``sqrt(size) * max|M_ij| * sqrt(max w_cod / min w_dom)``, which bounds the
    Frobenius norm of the metric-scaled matrix, and takes the SVD at once
    only when that bound is not below ``NORM_BOUND_LIMIT``: a norm that
    overflows is refused here, never at a later read.  So is an adjoint
    that overflows, looked for only when the bound on its entries,
    ``max|M_ij| * max w_cod * max(1, 1 / min w_dom)``, is not below that limit.
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
        # One reduction both refuses NaN and inf and gives the peak entry.
        peak = float(np.abs(matrix).max(initial=0.0))
        if not peak < math.inf:
            raise ValidationError("matrix has non-finite entries")
        self.matrix = matrix
        self._cached_norm = None
        bound = math.sqrt(matrix.size) * peak * math.sqrt(codomain.weight_max / domain.weight_min)
        if not bound < NORM_BOUND_LIMIT:  # a NaN bound (0 * inf) takes the SVD too
            # The metric-scaled product may overflow here; inf entries give an inf norm, refused.
            with np.errstate(over="ignore"):
                self._cached_norm = self._power_norm()
        # Adjoint entries are M_ji w_cod_j / w_dom_i, formed in that order; below this
        # bound neither step overflows, above it the adjoint may where the norm did not.
        if peak * codomain.weight_max * max(1.0, 1.0 / domain.weight_min) < NORM_BOUND_LIMIT:
            self.adjoint_matrix = self._adjoint()
        else:
            with np.errstate(over="ignore"):
                self.adjoint_matrix = self._adjoint()
            if not np.abs(self.adjoint_matrix).max(initial=0.0) < math.inf:
                raise ValidationError("matrix entries overflow the metric adjoint")

    def apply(self, x):
        x = self.domain.validate(x)
        return self.matrix @ x

    __call__ = apply

    def adjoint_apply(self, y):
        y = self.codomain.validate(y)
        return self.adjoint_matrix @ y

    def op_norm(self):
        """Operator norm between the metrics, computed once, on first use."""
        if self._cached_norm is None:
            self._cached_norm = self._power_norm()
        return self._cached_norm

    def _adjoint(self):
        """The matrix of the metric adjoint, ``W_dom^-1 M^T W_cod``."""
        return (self.matrix.T * self.codomain.weights[None, :]) / self.domain.weights[:, None]

    def _power_norm(self):
        """The operator norm, exact to rounding.

        It is the largest singular value of ``W_cod^{1/2} M W_dom^{-1/2}``,
        the matrix of L between the Euclidean images of the two metrics;
        when it has one row or one column, its ``math.hypot`` length (within
        about an ulp, with no SVD).  Raises ``ValidationError`` when the norm
        overflows.
        """
        # Each entry of the scaled product is at most the constructor's bound
        # sqrt(size) max|M_ij| sqrt(max w_cod / min w_dom), so below
        # NORM_BOUND_LIMIT nothing overflows: only the eager branch above that
        # limit needs np.errstate (and np.linalg.svd sets its own).
        cod, dom = np.sqrt(self.codomain.weights)[:, None], np.sqrt(self.domain.weights)
        # The largest ratio cod / dom overflows for a subnormal w_dom against a huge w_cod,
        # where a zero entry would meet 0 * inf = NaN: then scale by each factor in turn.
        peak_ratio = math.sqrt(self.codomain.weight_max) / math.sqrt(self.domain.weight_min)
        scaled = self.matrix * (cod / dom) if peak_ratio < math.inf else self.matrix * cod / dom
        if 1 in scaled.shape:  # a vector: its length, inf when that overflows
            norm = math.hypot(*scaled.ravel().tolist())
        else:
            norm = float(np.linalg.svd(scaled, compute_uv=False)[0])
        if not math.isfinite(norm):
            raise ValidationError("matrix entries overflow the norm computation")
        return norm

    def scaled(self, t):
        """The map ``t L``, carrying ``|t| ||L||`` when ``||L||`` is already cached.

        The norm is positively homogeneous, so the carried value needs no SVD.
        The matrix is ``M * t`` rounded entry by entry, a relative change of at
        most ``eps / 2`` per entry, which moves the norm by at most about
        ``sqrt(min(m, n)) * eps`` relative (while ``t M`` stays in the normal
        range): the order of the SVD's own rounding and far inside
        ``NORM_GATE_TOL``.  ``scaled`` takes no SVD of its own: a map whose
        norm is not cached gets its SVD on first read, as any other, and only
        a ``t M`` whose norm bound reaches ``NORM_BOUND_LIMIT`` takes the
        constructor's eager one.  An overflowing or non-finite ``t M`` is
        refused as the constructor refuses it, and ``t = 0`` gives a zero
        map, which the gate refuses.
        """
        t = _real("scale factor", t)
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN entries are refused below
            matrix = self.matrix * t
        out = LinearMap(self.domain, self.codomain, matrix)
        # Below the eager bound |t| ||L|| cannot overflow; above it the constructor took the SVD.
        if out._cached_norm is None and self._cached_norm is not None:
            out._cached_norm = abs(t) * self._cached_norm
        return out

    def compose(self, inner):
        """The map ``self o inner`` (apply ``inner`` first)."""
        if inner.codomain != self.domain:
            raise DimensionMismatchError("spaces do not chain in compose()")
        return LinearMap(inner.domain, self.codomain, self.matrix @ inner.matrix)

    def is_isometry(self):
        """Whether L* L == Id holds numerically (entrywise within 1e-10)."""
        gram = self.adjoint_matrix @ self.matrix
        return bool(np.max(np.abs(gram - np.eye(self.domain.dim))) <= 1e-10)

    def __repr__(self):
        # A repr never forces the SVD: the norm shows once something has read it.
        norm = "" if self._cached_norm is None else f", norm~{self._cached_norm:.3g}"
        return f"LinearMap({self.domain.dim} -> {self.codomain.dim}{norm})"


class _IdentityMap(LinearMap):
    """The identity of a space, built with no arithmetic.

    In a diagonal metric ``W^{1/2} I W^{-1/2} = I``, so the norm is exactly 1,
    and ``W^-1 I W = I`` entry for entry, so the adjoint is the matrix itself:
    there is no entry to scan, no bound to take and no broadcast to form.
    """

    def __init__(self, space):
        self.domain = self.codomain = space
        self.matrix = self.adjoint_matrix = np.eye(space.dim)
        self._cached_norm = 1.0


def identity_map(space):
    return _IdentityMap(space)


def check_monotone(space, M, what):
    """``(M, least eigenvalue of the symmetric part of W M)``; raises unless M is monotone in W."""
    M = np.asarray(M, dtype=float)
    if M.shape != (space.dim, space.dim):
        raise ValidationError(f"{what} has wrong shape")
    if not np.isfinite(M).all():  # eigvalsh gives NaN, which no comparison refuses
        raise ValidationError(f"{what} has non-finite entries")
    WM = space.weights[:, None] * M
    sym = 0.5 * (WM + WM.T)
    min_eig = float(np.min(np.linalg.eigvalsh(sym)))
    # Relative to the largest entry, so the verdict does not depend on the scale
    # of M; a zero matrix (0 < -0.0 is false) stays monotone.
    if min_eig < -1e-10 * np.max(np.abs(sym)):
        raise ValidationError(f"{what} is not monotone in the metric")
    return M, min_eig


def shifted_inverse(M):
    """``gamma -> (Id + gamma M)^{-1}`` as a dense matrix, kept for the last ``gamma``.

    ``M`` must be monotone in some diagonal metric ``W`` (callers check
    this with :func:`check_monotone`).  Then
    ``<(Id + gamma M) x, x>_W >= ||x||_W^2``, so the inverse has W-norm at
    most 1 and condition number at most ``1 + gamma ||M||``: one explicit
    inverse per scale is as accurate as a factorization, and each later
    evaluation is a single matrix-vector product.  The solvers and property
    suites evaluate each family at one scale, so one entry is the whole
    cache; the ``lru_cache`` that holds it is thread-safe.
    """
    M = np.asarray(M, dtype=float)
    eye = np.eye(M.shape[0])

    @functools.lru_cache(maxsize=1)
    def inverse(gamma):
        return np.linalg.inv(eye + gamma * M)

    return inverse


def stack(maps, weights):
    """Stack maps ``L_k: H -> G_k`` into ``L: H -> prod_k (G_k, w_k)``.

    The codomain is the weighted product space, so the adjoint is
    ``y -> sum_k w_k L_k* y_k`` and ``||L||^2 <= sum_k w_k ||L_k||^2``.
    """
    maps = list(maps)
    if not maps:
        raise ValidationError("cannot stack an empty list of maps")
    domain = maps[0].domain
    for L in maps[1:]:
        if L.domain != domain:
            raise DimensionMismatchError("stacked maps must share their domain")
    codomain = product_space([L.codomain for L in maps], weights)
    matrix = np.vstack([L.matrix for L in maps])
    return LinearMap(domain, codomain, matrix)


class SubspaceProjector:
    """Metric-orthogonal projector onto the span of the given vectors.

    The spanning set may be redundant.  Each vector is taken into the
    metric (``* sqrt(W)``) and scaled to unit length, so only directions
    count.  One Householder QR of the scaled vectors gives ``Q R``; the
    singular values of the small factor ``R`` are those of the scaled set
    (Chan's R-SVD), and the directions whose value exceeds ``RANK_RTOL``
    times the largest are kept, so the rank does not depend on the scale
    of the vectors.  Exact zero vectors are dropped; ``dropped`` counts the
    spanning vectors beyond the rank, zero and dependent ones alike.
    """

    def __init__(self, space, spanning_vectors):
        self.space = space
        try:
            vectors = np.asarray(spanning_vectors, dtype=float)
        except ValueError as exc:  # a ragged set, or an entry that is not a number
            raise DimensionMismatchError(
                f"spanning vectors do not form an array of numbers: {exc}"
            ) from None
        if vectors.size and (vectors.ndim != 2 or vectors.shape[1] != space.dim):
            raise DimensionMismatchError(
                f"spanning set of shape {vectors.shape} is not a list of vectors "
                f"of dimension {space.dim}"
            )
        vectors = vectors.reshape(-1, space.dim)  # an empty set has no rows
        # Dividing by the largest entry first keeps the squares below from
        # overflowing or underflowing, whatever the scale of the vector.  The
        # same reduction refuses NaN and inf: no peak is below inf then.
        peak = np.abs(vectors).max(axis=1, initial=0.0)
        if not (peak < math.inf).all():
            raise ValidationError("spanning set has non-finite entries")
        root = np.sqrt(space.weights)
        rows = vectors[peak > 0.0] / peak[peak > 0.0, None] * root
        if not len(rows):
            raise ValidationError("spanning set only contains zero vectors")
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        # Householder QR is backward stable, so sigma(R) are the singular values
        # of a matrix within rounding of the scaled set, and Q is orthonormal to
        # working precision: on a full-rank set Q is the basis as it stands.
        q, r = np.linalg.qr(rows.T)
        s = np.linalg.svd(r, compute_uv=False)
        keep = s > RANK_RTOL * s[0]
        if not keep.all():
            # The range of rows.T is Q times that of R; one QR of the kept
            # directions restores the orthonormality the SVD's vectors lack.
            u = np.linalg.svd(r, full_matrices=False)[0]
            q, _ = np.linalg.qr(q @ u[:, keep])
        self.basis = q.T / root  # rows are W-orthonormal basis vectors
        self.rank = len(self.basis)
        self.dropped = len(vectors) - self.rank
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

    def residual_norm(self, x):
        """Metric distance from ``x`` to the subspace."""
        return self._residual_norm(self.space.validate(x))

    def _residual_norm(self, x):
        return self.space._norm(x - self.matrix @ x)

    def __repr__(self):
        return f"SubspaceProjector(rank={self.rank} in dim {self.space.dim})"
