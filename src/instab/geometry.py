"""Point-wise Riemannian computations.

Metric inverse, Riemannian gradient, Christoffel symbols, magnetic tensor of
a one-form, and the cotangent norm of contracted forms; the metric inner
product and norm work row-wise over many points at once. Everything is
dense; the dimension is capped at 16 since all target problems are tiny.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import SingularMetric
from .expr import MAX_DIMENSION, ScalarField

# Smallest admissible Cholesky pivot; defines "positive definite at this
# point" operationally.
PIVOT_FLOOR = 1e-12

# Smallest admissible gradient norm of a candidate function f.
GRADIENT_FLOOR = 1e-6

# A sum of terms at most this fraction of the sum of their magnitudes is
# float-cancellation noise of an exact zero.
NOISE_RELATIVE = 1e-13


def _spd_cholesky(matrix):
    try:
        chol = scipy.linalg.cholesky(matrix, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise SingularMetric(str(exc)) from exc
    if np.min(np.diag(chol)) ** 2 < PIVOT_FLOOR:
        raise SingularMetric(
            f"Cholesky pivot below {PIVOT_FLOOR:.0e}"
        )
    return chol


class MetricSpec:
    """Symmetric positive-definite coefficient matrix of scalar fields.

    Only the upper triangle is stored, so symmetry holds structurally. The
    Euclidean case is flagged and short-circuits every computation.
    """

    def __init__(self, dimension, upper_entries=None):
        if not 1 <= dimension <= MAX_DIMENSION:
            raise ValueError(f"dimension must be in 1..{MAX_DIMENSION}")
        self.dimension = dimension
        self.euclidean = upper_entries is None
        self._upper = upper_entries  # dict[(i, j)] -> field, i <= j

    @classmethod
    def identity(cls, dimension):
        return cls(dimension)

    @classmethod
    def from_fields(cls, dimension, rows):
        """Build from a full n x n nested sequence of scalar fields.

        Entries below the diagonal are ignored; symmetry is by construction.
        """
        upper = {}
        for i in range(dimension):
            for j in range(i, dimension):
                upper[(i, j)] = rows[i][j]
        return cls(dimension, upper)

    @classmethod
    def from_sources(cls, dimension, sources):
        rows = [
            [ScalarField.parse(src, dimension) for src in row]
            for row in sources
        ]
        return cls.from_fields(dimension, rows)

    def entry(self, i, j):
        if self.euclidean:
            raise ValueError("euclidean metric has no expression entries")
        return self._upper[(min(i, j), max(i, j))]

    def value(self, point) -> np.ndarray:
        n = self.dimension
        if self.euclidean:
            return np.eye(n)
        g = np.empty((n, n))
        for (i, j), fld in self._upper.items():
            g[i, j] = g[j, i] = fld.eval(point)
        return g

    def inverse(self, point) -> np.ndarray:
        if self.euclidean:
            return np.eye(self.dimension)
        g = self.value(point)
        chol = _spd_cholesky(g)
        identity = np.eye(self.dimension)
        return scipy.linalg.cho_solve((chol, True), identity)

    def check_positive_definite(self, point):
        if not self.euclidean:
            _spd_cholesky(self.value(point))

    def partials(self, point) -> np.ndarray:
        """dg[c, a, b] = ∂_c g_{ab}."""
        n = self.dimension
        dg = np.zeros((n, n, n))
        if self.euclidean:
            return dg
        for (i, j), fld in self._upper.items():
            grad = fld.grad(point)
            dg[:, i, j] = grad
            dg[:, j, i] = grad
        return dg

    def christoffel(self, point) -> np.ndarray:
        """Levi-Civita symbols Gamma[a, m, n], symmetric in (m, n)."""
        n = self.dimension
        if self.euclidean:
            return np.zeros((n, n, n))
        ginv = self.inverse(point)
        dg = self.partials(point)
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
            g = np.eye(n)
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

    def __post_init__(self):
        if len(self.components) != self.dimension:
            raise ValueError("component count must equal the dimension")

    @classmethod
    def from_sources(cls, sources):
        n = len(sources)
        return cls(n, [ScalarField.parse(src, n) for src in sources])


def gradient_data(metric, fld, point):
    """(df, grad f, |grad f|^2) of ``fld`` at ``point``.

    grad f is the vector field metrically dual to the differential df.
    """
    df = fld.grad(point)
    grad = df if metric.euclidean else metric.inverse(point) @ df
    return df, grad, float(df @ grad)


def riemannian_gradient(metric, fld, point) -> np.ndarray:
    """Vector field metrically dual to the differential of ``fld``."""
    return gradient_data(metric, fld, point)[1]


def magnetic_tensor(form, point) -> np.ndarray:
    """F[a, b] = ∂_a A_b − ∂_b A_a (exactly antisymmetric by assembly)."""
    n = form.dimension
    jac = np.empty((n, n))  # jac[a, b] = ∂_a A_b
    for b, comp in enumerate(form.components):
        jac[:, b] = comp.grad(point)
    return jac - jac.T


def guard_cancellation(values, scale):
    """Zero the entries of ``values`` that are float-cancellation noise.

    Exact hypotheses cancel term by term, so a sum within NOISE_RELATIVE of
    ``scale``, the sum of its terms' magnitudes, is taken as zero; dividing
    such residues by a vanishing potential would fabricate divergence.
    """
    return np.where(np.abs(values) <= NOISE_RELATIVE * scale, 0.0, values)


def contracted_form_norm(metric, form, vector, point) -> float:
    """Cotangent norm of the contraction of d(form) with ``vector``."""
    f_tensor = magnetic_tensor(form, point)
    v = np.asarray(vector)
    covector = guard_cancellation(v @ f_tensor,  # c_b = F_{ab} v^a
                                  np.abs(v) @ np.abs(f_tensor))
    ginv = metric.inverse(point)
    return float(np.sqrt(max(covector @ ginv @ covector, 0.0)))


def two_form_norm(metric, form, point) -> float:
    """Canonical norm of d(form) on the second exterior power."""
    f_tensor = magnetic_tensor(form, point)
    ginv = metric.inverse(point)
    raised = ginv @ f_tensor @ ginv  # F^{ab}
    return float(np.sqrt(max(0.5 * np.sum(f_tensor * raised), 0.0)))

