"""Point-wise Riemannian computations.

Metric inverse, Riemannian gradient, Christoffel symbols, magnetic tensor of
a one-form, and the cotangent norm of contracted forms; the metric inner
product and norm work row-wise over many points at once. Everything is
dense; the dimension is capped at 16 since all target problems are tiny.

A metric's entries compile into one generated function, which gives g and
its partials in one call, and a one-form's components into another. The
metric is factored once per point: the last point's g, partials and inverse
are kept, so the inverse and the Christoffel symbols at one point share one
Cholesky factorization. The linear algebra is numpy's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    GradientTooSmall,
    NonFiniteResult,
    SingularMetric,
    format_point,
)
from .expr import MAX_DIMENSION, ScalarField, compile_fields

# Smallest admissible Cholesky pivot; defines "positive definite at this
# point" operationally.
PIVOT_FLOOR = 1e-12

# Smallest admissible gradient norm of a candidate function f.
GRADIENT_FLOOR = 1e-6

# A sum of terms at most this fraction of the sum of their magnitudes is
# float-cancellation noise of an exact zero.
NOISE_RELATIVE = 1e-13


def _spd_inverse(matrix, point):
    """Inverse of a positive-definite matrix from its Cholesky factor."""
    try:
        chol = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        raise SingularMetric(f"metric is not positive definite at point "
                             f"{format_point(point)}") from exc
    if min(chol.diagonal().tolist()) ** 2 < PIVOT_FLOOR:
        raise SingularMetric(f"Cholesky pivot below {PIVOT_FLOOR:.0e} at "
                             f"point {format_point(point)}")
    chol_inv = np.linalg.inv(chol)
    inverse = chol_inv.T @ chol_inv
    inverse.flags.writeable = False
    return inverse


class MetricSpec:
    """Symmetric positive-definite coefficient matrix of scalar fields.

    Only the upper triangle is stored, so symmetry holds structurally. The
    Euclidean case is flagged and short-circuits every computation. The
    arrays that ``value`` and ``inverse`` return are read-only: they are
    kept for the next call at the same point, and a Euclidean metric
    returns one identity and one zero Christoffel array at every point.
    """

    def __init__(self, dimension, upper_entries=None):
        if not 1 <= dimension <= MAX_DIMENSION:
            raise ValueError(f"dimension must be in 1..{MAX_DIMENSION}")
        self.dimension = dimension
        self.euclidean = upper_entries is None
        self._upper = upper_entries  # dict[(i, j)] -> field, i <= j
        self._entries = None  # compiled upper entries, made on first use
        self._local = None  # [point bytes, g, dg, g^-1 or None]
        if upper_entries is None:
            self._identity = np.eye(dimension)
            self._flat = np.zeros((dimension,) * 3)
            self._identity.flags.writeable = self._flat.flags.writeable = False
        else:
            upper = list(upper_entries)
            self._slots = np.array([  # entry number of each (a, b), row-major
                upper.index((min(a, b), max(a, b)))
                for a in range(dimension) for b in range(dimension)])

    @classmethod
    def identity(cls, dimension):
        return cls(dimension)

    @classmethod
    def from_sources(cls, dimension, sources):
        """Build from a full n x n nested list of expression sources.

        Every entry must parse; those below the diagonal are then ignored,
        so symmetry is by construction.
        """
        rows = [[ScalarField.parse(src, dimension) for src in row]
                for row in sources]
        return cls(dimension, {(i, j): rows[i][j] for i in range(dimension)
                               for j in range(i, dimension)})

    def entry(self, i, j):
        if self.euclidean:
            raise ValueError("euclidean metric has no expression entries")
        return self._upper[(min(i, j), max(i, j))]

    def _at(self, point):
        """``[key, g, dg, g^-1]`` at ``point``, dg[c, a, b] = ∂_c g_{ab}.

        One compiled call per new point, keyed on its exact coordinates;
        g^-1 is None until ``_factored`` asks for it.
        """
        x = np.asarray(point, dtype=float)
        key = x.tobytes()
        local = self._local
        if local is not None and local[0] == key:
            return local
        n = self.dimension
        if self._entries is None:
            self._entries = compile_fields(list(self._upper.values()), n)
        values, jac = self._entries(x)
        g = values[self._slots].reshape(n, n)
        g.flags.writeable = False
        dg = jac.T[:, self._slots].reshape(n, n, n)
        self._local = [key, g, dg, None]
        return self._local

    def _factored(self, point):
        local = self._at(point)
        if local[3] is None:
            local[3] = _spd_inverse(local[1], point)
        return local

    def value(self, point) -> np.ndarray:
        if self.euclidean:
            return self._identity
        return self._at(point)[1]

    def inverse(self, point) -> np.ndarray:
        if self.euclidean:
            return self._identity
        return self._factored(point)[3]

    def christoffel(self, point) -> np.ndarray:
        """Levi-Civita symbols Gamma[a, m, n], symmetric in (m, n)."""
        if self.euclidean:
            return self._flat
        _key, _g, dg, ginv = self._factored(point)
        # Gamma^a_{mn} = 1/2 g^{ab} (g_{bm,n} + g_{bn,m} - g_{mn,b})
        braces = (
            np.transpose(dg, (1, 2, 0))   # g_{bm,n} indexed [b, m, n]
            + np.transpose(dg, (1, 0, 2))  # g_{bn,m}
            - dg                           # g_{mn,b} with b first
        )
        return 0.5 * np.einsum("ab,bmn->amn", ginv, braces)

    def inner(self, points, u, v) -> np.ndarray:
        """g(u, v) row by row over (m, n) points and vectors."""
        points, u, v = np.atleast_2d(points, u, v)
        n = self.dimension
        if self.euclidean:
            g = self._identity
        else:
            g = np.empty((len(points), n, n))
            for (i, j), fld in self._upper.items():
                g[:, i, j] = g[:, j, i] = fld.vectorized()(points)
        return (u[:, None, :] @ g @ v[:, :, None])[:, 0, 0]

    def norm(self, points, v) -> np.ndarray:
        return np.sqrt(np.maximum(self.inner(points, v, v), 0.0))


@dataclass
class OneForm:
    """Component scalar fields of a differential one-form."""

    dimension: int
    components: list
    _compiled: object = field(default=None, init=False, repr=False,
                              compare=False)

    def __post_init__(self):
        if len(self.components) != self.dimension:
            raise ValueError("component count must equal the dimension")

    @classmethod
    def from_sources(cls, sources):
        n = len(sources)
        return cls(n, [ScalarField.parse(src, n) for src in sources])

    def jacobian(self, point) -> np.ndarray:
        """jac[b, a] = ∂_a A_b from one compiled call."""
        if self._compiled is None:
            self._compiled = compile_fields(self.components, self.dimension)
        return self._compiled(point)[1]


def gradient_data(metric, fld, point, floor=0.0):
    """(df, grad f, |grad f|^2) of ``fld`` at ``point``.

    grad f is the vector field metrically dual to the differential df.
    Raises GradientTooSmall where |grad f| is below ``floor``.
    """
    df = fld.grad(point)
    grad = df if metric.euclidean else metric.inverse(point) @ df
    norm_sq = float(np.vdot(df, grad))  # as df @ grad, but never warns
    if not math.isfinite(norm_sq):
        raise NonFiniteResult(f"|grad|^2 of {fld.label} is not finite at "
                              f"point {format_point(point)}")
    if norm_sq < floor ** 2:
        raise GradientTooSmall(point, math.sqrt(max(norm_sq, 0.0)))
    return df, grad, norm_sq


def riemannian_gradient(metric, fld, point) -> np.ndarray:
    """Vector field metrically dual to the differential of ``fld``."""
    return gradient_data(metric, fld, point)[1]


def normalized_gradient(metric, fld, point, floor) -> np.ndarray:
    """X = grad f / |grad f|^2; GradientTooSmall where |grad f| < floor."""
    _df, grad, norm_sq = gradient_data(metric, fld, point, floor)
    return grad / norm_sq


def normalized_gradient_jacobian(metric, fld, point, floor):
    """(X, DX) with DX[a, c] = ∂_c X^a, exact from the Hessian H of f.

    With h = G⁻¹df and s = df·h, D(G⁻¹) = −G⁻¹(∂G)G⁻¹ gives
    ∂_c h = G⁻¹(H e_c − (∂_c G) h) and ∂_c s = 2 h·H e_c − h·(∂_c G) h.
    """
    _df, grad, norm_sq = gradient_data(metric, fld, point, floor)
    hess = fld.hessian(point)  # hess[a, c] = ∂_c ∂_a f
    dgrad = bent = hess  # bent[:, c] = H e_c − (∂_c G) h
    if not metric.euclidean:
        bent = hess - np.einsum("cab,b->ac", metric._at(point)[2], grad)
        dgrad = metric.inverse(point) @ bent
    vec = grad / norm_sq
    return vec, (dgrad - np.outer(vec, grad @ hess + grad @ bent)) / norm_sq


def magnetic_tensor(form, point) -> np.ndarray:
    """F[a, b] = ∂_a A_b − ∂_b A_a (exactly antisymmetric by assembly)."""
    jac = form.jacobian(point)  # jac[b, a] = ∂_a A_b
    return jac.T - jac


def guard_cancellation(values, scale):
    """Zero the entries of ``values`` that are float-cancellation noise.

    Exact hypotheses cancel term by term, so a sum within NOISE_RELATIVE of
    ``scale``, the sum of its terms' magnitudes, is taken as zero; dividing
    such residues by a vanishing potential would fabricate divergence.
    """
    return np.where(np.abs(values) <= NOISE_RELATIVE * scale, 0.0, values)


def contracted_form_norm(metric, f_tensor, vector, point) -> float:
    """Cotangent norm of ``vector`` contracted into the two-form F."""
    v = np.asarray(vector)
    covector = guard_cancellation(v @ f_tensor,  # c_b = F_{ab} v^a
                                  np.abs(v) @ np.abs(f_tensor))
    ginv = metric.inverse(point)
    return float(np.sqrt(max(covector @ ginv @ covector, 0.0)))


def two_form_norm(metric, f_tensor, point) -> float:
    """Canonical norm of the two-form F on the second exterior power."""
    ginv = metric.inverse(point)
    raised = ginv @ f_tensor @ ginv  # F^{ab}
    return float(np.sqrt(max(0.5 * np.sum(f_tensor * raised), 0.0)))
