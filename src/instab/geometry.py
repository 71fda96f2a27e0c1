"""Point-wise Riemannian computations.

Metric inverse, Riemannian gradient, Christoffel symbols and magnetic tensor
of a one-form at a point. The metric inner product and norm, the gradient
(``gradient_rows``), the norms of two-forms and of their contractions, and
``rowdot`` work row-wise over many points at once; each row keeps the bits
of the point-by-point product, and ``mend_rows`` gives a row that a pass
cannot take the point's own value or error.
Everything is dense; the dimension is capped at 16 since all target
problems are tiny.

A curved metric compiles into one generated kernel (``expr.compile_kernel``)
that gives, in one call per point, g, its partials, g^-1 from a Cholesky
factorization written out as ASTs, and the Christoffel symbols; the last
point's outputs are kept as one flat read-only array, and ``value``,
``inverse`` and ``christoffel`` at one point return views of it. Where a
pivot is at or within rounding of PIVOT_FLOOR, or a check fails, the
numpy path decides (each entry's ``value_and_grad``, numpy's Cholesky and
inverse, an einsum), which raises SingularMetric, DomainError and
NonFiniteResult as it always has. ``MetricSpec.rows`` gives g and g^-1 at
many points from one compiled row pass of that kernel's register program
(``native.program_rows``), with the kernel's bits; a point the pass
declines, and every point without the compiled loop, takes the point-wise
path as a fallback. A one-form's field strength F = dA is
stated once, as ASTs (``field_strength``); its magnetic tensor is one
generated call of them per point, or one numpy call per set of points,
with the bits of the component-wise ``jac.T - jac``.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import native
from .errors import (
    GradientTooSmall,
    InstabError,
    NonFiniteResult,
    SingularMetric,
    format_point,
)
from .expr import (
    MAX_DIMENSION,
    Bin,
    Fun,
    Num,
    ScalarField,
    compile_kernel,
    compile_vectorized_kernel,
    derivative,
    fold,
    total,
)

# Smallest admissible Cholesky pivot; defines "positive definite at this
# point" operationally.
PIVOT_FLOOR = 1e-12

# A pivot d_j computed in two orders differs by a few roundings of g_jj, so
# the generated factorization leaves one within this share of g_jj above
# the floor to numpy's, which decides as it always has.
PIVOT_SLACK = 1e-14

# Smallest admissible gradient norm of a candidate function f.
GRADIENT_FLOOR = 1e-6

# A sum of terms at most this fraction of the sum of their magnitudes is
# float-cancellation noise of an exact zero.
NOISE_RELATIVE = 1e-13

_ZERO = Num(0.0)


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
    return chol_inv.T @ chol_inv


def _reference_factors(p, metric):
    """g, dg, g^-1 and Gamma at p, flat, from the entries' own
    ``value_and_grad``, ``_spd_inverse`` and an einsum; what the metric
    kernel's ``decide`` gives.

    Where g does not factor, the tuple stops after dg, and ``inverse``
    raises ``_spd_inverse``'s SingularMetric.
    """
    n = metric.dimension
    values, grads = zip(*(fld.value_and_grad(p)
                          for fld in metric._upper.values()))
    g = np.array(values)[metric._slots].reshape(n, n)
    dg = np.array(grads).T[:, metric._slots].reshape(n, n, n)
    flat = g.ravel().tolist() + dg.ravel().tolist()
    try:
        ginv = _spd_inverse(g, p)
    except SingularMetric:
        return tuple(flat)
    # Gamma^a_{mn} = 1/2 g^{ab} (g_{bm,n} + g_{bn,m} - g_{mn,b})
    braces = (
        np.transpose(dg, (1, 2, 0))   # g_{bm,n} indexed [b, m, n]
        + np.transpose(dg, (1, 0, 2))  # g_{bn,m}
        - dg                           # g_{mn,b} with b first
    )
    gamma = 0.5 * np.einsum("ab,bmn->amn", ginv, braces)
    return tuple(flat + ginv.ravel().tolist() + gamma.ravel().tolist())


def _factor_kernel(metric):
    """One generated call per point: g, dg, g^-1 and Gamma, flat, as
    ``_reference_factors`` lays them out.

    The outputs are ASTs over the entries' values and partials, with
    literal zeros folded away: the Cholesky factor L of g, with pivots
    d_j = g_jj - sum_k L_jk^2 and L_jj = sqrt(d_j); M = L^-1 by forward
    substitution; g^-1 = M^T M; and Gamma^a_mn = 1/2 sum_b g^ab (∂_n g_bm
    + ∂_m g_bn - ∂_b g_mn). Each pivot is guarded a hair above PIVOT_FLOOR
    (see PIVOT_SLACK), so at and within rounding of the floor the reference
    decides, and SingularMetric keeps its class and message.
    """
    n = metric.dimension
    entries = list(metric._upper.values())
    bodies = [fld.body for fld in entries]
    index = metric._slots.reshape(n, n)
    g = [[bodies[index[a, b]] for b in range(n)] for a in range(n)]
    dg = [[[derivative(g[a][b], c) for b in range(n)] for a in range(n)]
          for c in range(n)]
    chol = [[_ZERO] * n for _ in range(n)]
    pivots = []
    for j in range(n):
        pivots.append(fold("-", g[j][j], total(
            fold("*", chol[j][k], chol[j][k]) for k in range(j))))
        chol[j][j] = Fun("sqrt", pivots[j])
        for i in range(j + 1, n):
            chol[i][j] = fold("/", fold("-", g[i][j], total(
                fold("*", chol[i][k], chol[j][k]) for k in range(j))),
                chol[j][j])
    low_inv = [[_ZERO] * n for _ in range(n)]
    for j in range(n):
        low_inv[j][j] = Bin("/", Num(1.0), chol[j][j])
        for i in range(j + 1, n):
            low_inv[i][j] = fold("-", _ZERO, fold("/", total(
                fold("*", chol[i][k], low_inv[k][j]) for k in range(j, i)),
                chol[i][i]))
    ginv = [[None] * n for _ in range(n)]
    gamma = [[[None] * n for _ in range(n)] for _ in range(n)]
    for a, b in itertools.combinations_with_replacement(range(n), 2):
        ginv[a][b] = ginv[b][a] = total(
            fold("*", low_inv[k][a], low_inv[k][b]) for k in range(b, n))
    for a, m, k in itertools.product(range(n), repeat=3):
        if m <= k:
            brace = [fold("-", fold("+", dg[k][b][m], dg[m][b][k]),
                          dg[b][m][k]) for b in range(n)]
            gamma[a][m][k] = gamma[a][k][m] = fold("*", Num(0.5), total(
                fold("*", ginv[a][b], brace[b]) for b in range(n)))
    out = [node for plane in (g, *dg, ginv, *gamma)
           for row in plane for node in row]
    floor = PIVOT_FLOOR * (1.0 + 1e-9)
    return compile_kernel(entries, n, out, _reference_factors, guards=[
        (fold("-", d, fold("*", Num(PIVOT_SLACK), g[j][j])), floor)
        for j, d in enumerate(pivots)], program=native.program)


class MetricSpec:
    """Symmetric positive-definite coefficient matrix of scalar fields.

    Only the upper triangle is stored, so symmetry holds structurally. The
    Euclidean case is flagged and short-circuits every computation. The
    arrays that ``value``, ``inverse`` and ``christoffel`` return are
    read-only views of the factor kernel's output at the last point, which
    is kept for the next call there; each call builds only the view it
    returns. A Euclidean metric returns one identity and one zero
    Christoffel array at every point.
    """

    def __init__(self, dimension, upper=None):
        if not 1 <= dimension <= MAX_DIMENSION:
            raise ValueError(f"dimension must be in 1..{MAX_DIMENSION}")
        self.dimension = dimension
        self.euclidean = upper is None
        self._upper = upper  # dict[(i, j)] -> field, i <= j
        self._key = self._flat = None  # the last point's bytes and its _at
        if upper is None:
            self._identity = np.eye(dimension)
            self._gamma = np.zeros((dimension,) * 3)
            for kept in (self._identity, self._gamma):
                kept.flags.writeable = False
        else:
            n = dimension
            keys = list(upper)
            self._slots = np.array([  # entry number of each (a, b), row-major
                keys.index((min(a, b), max(a, b)))
                for a in range(n) for b in range(n)])
            self._parts = {}  # name -> (slice, shape) in _at's array
            start = 0
            for name, shape in (("g", (n, n)), ("dg", (n, n, n)),
                                ("ginv", (n, n)), ("gamma", (n, n, n))):
                stop = start + math.prod(shape)
                self._parts[name] = (slice(start, stop), shape)
                start = stop

    @functools.cached_property
    def factors(self):
        """The factor kernel (``_factor_kernel``), made on first use."""
        return _factor_kernel(self)

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
        """The factor kernel's flat read-only array at ``point``: g, dg with
        dg[c, a, b] = ∂_c g_{ab}, then g^-1 and Gamma where g factors, from
        one kernel call per new point, keyed on its exact coordinates."""
        x = np.asarray(point, dtype=float)
        key = x.tobytes()
        if key == self._key:
            return self._flat
        out = self.factors(x.tolist(), self)
        flat = np.frombuffer(struct.pack(f"{len(out)}d", *out))  # read-only
        self._key, self._flat = key, flat
        return flat

    def _view(self, flat, name):
        part, shape = self._parts[name]
        return flat[part].reshape(shape)

    def _factored(self, point):
        flat = self._at(point)
        if len(flat) < self._parts["ginv"][0].stop:  # g does not factor
            _spd_inverse(self._view(flat, "g"), point)  # raises
        return flat

    def _partials(self, point) -> np.ndarray:
        """dg[c, a, b] = ∂_c g_{ab}, read-only."""
        return self._view(self._at(point), "dg")

    def value(self, point) -> np.ndarray:
        if self.euclidean:
            return self._identity
        return self._view(self._at(point), "g")

    def inverse(self, point) -> np.ndarray:
        if self.euclidean:
            return self._identity
        return self._view(self._factored(point), "ginv")

    def christoffel(self, point) -> np.ndarray:
        """Levi-Civita symbols Gamma[a, m, n], symmetric in (m, n)."""
        if self.euclidean:
            return self._gamma
        return self._view(self._factored(point), "gamma")

    def rows(self, points, names, skip=()):
        """``value`` ("g") and ``inverse`` ("ginv"), as ``names`` lists
        them, at each of (m, n) ``points`` of a curved metric, (m, n, n)
        each, from one ``native.program_rows`` pass of the factor kernel's
        program; then each row that pass declines, in order, from ``_at``
        or ``_factored``, the point-wise path, whose error it raises, or
        leaves the row nan where that is one of ``skip``. Returns the
        arrays, then the mask of declined rows and that of nan rows."""
        n = self.dimension
        picks = np.r_[tuple(self._parts[name][0] for name in names)]
        flat, declined = native.program_rows(
            self.factors, points, picks, self._parts["gamma"][0].stop)
        parts = [flat[:, k * n * n:(k + 1) * n * n].reshape(-1, n, n)
                 for k in range(len(names))]
        failed = mend_rows(points, declined.copy(), lambda x: [
            self._view(self._factored(x) if name == "ginv" else self._at(x),
                       name) for name in names], parts, skip)
        return (*parts, declined, failed)

    def inner(self, points, u, v) -> np.ndarray:
        """g(u, v) row by row over (m, n) points and vectors."""
        points, u, v = np.atleast_2d(points, u, v)
        if self.euclidean:
            return rowdot(u, v)
        n = self.dimension
        g = np.empty((len(points), n, n))
        for (i, j), fld in self._upper.items():
            g[:, i, j] = g[:, j, i] = fld.vectorized()(points)[0]
        return (u[:, None, :] @ g @ v[:, :, None])[:, 0, 0]


def field_strength(form):
    """F_ab = ∂_a A_b − ∂_b A_a of ``form``: n×n ASTs over the components'
    ``derivative`` ASTs, a structural zero on the diagonal and where both
    partials are structural zeros, and ∂_a A_b alone where ∂_b A_a is one,
    since x − 0.0 is x in IEEE arithmetic (0.0 − x is not −x at x = 0.0).
    The toolkit's one statement of F."""
    n = form.dimension
    jac = [[derivative(fld.body, a) for a in range(n)]
           for fld in form.components]  # jac[b][a] = ∂_a A_b
    return [[_ZERO if a == b or jac[b][a] == _ZERO == jac[a][b]
             else jac[b][a] if jac[a][b] == _ZERO
             else Bin("-", jac[b][a], jac[a][b]) for b in range(n)]
            for a in range(n)]


@dataclass
class OneForm:
    """Component scalar fields of a differential one-form."""

    dimension: int
    components: list
    _kernel: object = field(default=None, init=False, repr=False,
                            compare=False)  # see magnetic_tensor
    _rows: object = field(default=None, init=False, repr=False,
                          compare=False)  # see magnetic_tensor_rows

    def __post_init__(self):
        if len(self.components) != self.dimension:
            raise ValueError("component count must equal the dimension")

    @classmethod
    def from_sources(cls, sources):
        n = len(sources)
        return cls(n, [ScalarField.parse(src, n) for src in sources])


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


def mend_rows(points, bad, scalar, columns, skip=()):
    """Give each bad row of ``columns``, in order, the row ``scalar(x)``.

    ``scalar`` is the scalar path at one point: it raises the error that
    path raises there, or supplies the row. A row where it raises one of
    ``skip`` stays bad. Returns the mask of rows still bad.
    """
    for k in np.flatnonzero(bad):
        try:
            row = scalar(points[k])
        except skip:
            continue
        for column, value in zip(columns, row):
            column[k] = value
        bad[k] = False
    return bad


def gradient_rows(metric, f, points, floor=None):
    """grad f, |grad f|^2 and g^-1 rows at (m, n) ``points``, and the mask
    of bad rows, first those where f's numpy row is nan.

    g^-1 is MetricSpec.inverse at each point, from one compiled row pass
    (``MetricSpec.rows``) with the point-wise path for the rows it
    declines, nan in f's nan rows; on a Euclidean metric one read-only
    identity viewed as every row. A row where it raises turns bad, as does
    one where |grad f|^2 is not finite or below a given ``floor``^2
    (GradientTooSmall).
    """
    values, df = f.vectorized()(points)
    bad = np.isnan(values)
    m, n = points.shape
    if metric.euclidean:
        inverse, grad = np.broadcast_to(metric._identity, (m, n, n)), df
    else:
        inverse, _declined, failed = metric.rows(points, ["ginv"],
                                                 skip=InstabError)
        inverse[bad] = np.nan
        bad |= failed
        grad = (inverse @ df[:, :, None])[:, :, 0]
    norm_sq = rowdot(df, grad)
    low = False if floor is None else norm_sq < floor ** 2
    return grad, norm_sq, inverse, bad | ~np.isfinite(norm_sq) | low


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
    Raises NonFiniteResult naming the field and the point where a term
    overflows though f, its gradient and its Hessian are finite.
    """
    _df, grad, norm_sq = gradient_data(metric, fld, point, floor)
    hess = fld.hessian(point)  # hess[a, c] = ∂_c ∂_a f
    dgrad = bent = hess  # bent[:, c] = H e_c − (∂_c G) h
    with np.errstate(all="ignore"):
        if not metric.euclidean:
            bent = hess - np.einsum("cab,b->ac", metric._partials(point),
                                    grad)
            dgrad = metric.inverse(point) @ bent
        vec = grad / norm_sq
        dvec = (dgrad - np.outer(vec, grad @ hess + grad @ bent)) / norm_sq
    if not np.isfinite(dvec).all():
        raise NonFiniteResult(f"Jacobian of the normalized gradient of "
                              f"{fld.label} is not finite at point "
                              f"{format_point(point)}")
    return vec, dvec


def magnetic_tensor(form, point) -> np.ndarray:
    """F[a, b] = ∂_a A_b − ∂_b A_a, ``field_strength``, from one generated
    call per point, bit for bit the component-wise ``jac.T - jac``, so
    exactly antisymmetric; where a component or its partial is undefined,
    the first such component's error, as ``value_and_grad`` raises it."""
    n = form.dimension
    if form._kernel is None:
        form._kernel = compile_kernel(form.components, n, [
            node for row in field_strength(form) for node in row])
    out = form._kernel(np.asarray(point, dtype=float).tolist(), None)
    return np.fromiter(out, float, n * n).reshape(n, n)


def magnetic_tensor_rows(form, points):
    """``magnetic_tensor`` at each of (m, n) ``points``, (m, n, n), from one
    generated numpy function of ``field_strength``, and the mask of its nan
    rows, those where a component's ``value_and_grad`` raises."""
    if form._rows is None:
        form._rows = compile_vectorized_kernel(
            [fld.body for fld in form.components], form.dimension,
            [node for row in field_strength(form) for node in row])
    rows = form._rows(points)
    m, n = points.shape
    return rows.reshape(m, n, n), np.isnan(rows).any(axis=1)


def guard_cancellation(values, scale):
    """Zero the entries of ``values`` that are float-cancellation noise.

    Exact hypotheses cancel term by term, so a sum within NOISE_RELATIVE of
    ``scale``, the sum of its terms' magnitudes, is taken as zero; dividing
    such residues by a vanishing potential would fabricate divergence. An
    overflowed sum, whose scale is not finite, stays as it is.
    """
    return np.where((np.abs(values) <= NOISE_RELATIVE * scale)
                    & np.isfinite(scale), 0.0, values)


def rowdot(a, b) -> np.ndarray:
    """a[k] @ b[k] for each row k of two (m, n) arrays; never warns.

    A batched matmul sums each row as ``a[k] @ b[k]`` does, so the rows
    keep the point-by-point bits; einsum may sum in another order.
    """
    with np.errstate(all="ignore"):
        return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _clamped_sqrt(values):
    """sqrt(max(v, 0.0)) of each entry, as Python's max: nan and -0.0
    pass through."""
    return np.sqrt(np.where(values < 0.0, 0.0, values))


def contracted_form_norm(inverse, f_tensor, vector) -> np.ndarray:
    """Cotangent norms of vectors contracted into two-forms, row by row.

    ``vector`` is (m, n) and ``f_tensor`` (m, n, n); ``inverse`` holds the
    inverse metrics, (m, n, n), or one (n, n) for every row. Never warns.
    A covector with an infinite entry and no nan one has an infinite norm
    under a positive-definite g^-1, where the products would give inf * 0.
    """
    v = np.asarray(vector)[:, None, :]
    with np.errstate(all="ignore"):
        covector = guard_cancellation(v @ f_tensor,  # c_b = F_{ab} v^a
                                      np.abs(v) @ np.abs(f_tensor))[:, 0]
        raised = (covector[:, None, :] @ inverse)[:, 0]
    norms = _clamped_sqrt(rowdot(raised, covector))
    nan = np.isnan(norms)
    if nan.any():  # inf * 0 in the products, or a nan entry
        norms[nan & np.isinf(covector).any(axis=1)
              & ~np.isnan(covector).any(axis=1)] = math.inf
    return norms


def two_form_norm(inverse, f_tensor) -> np.ndarray:
    """Canonical norms of two-forms F on the second exterior power, row by
    row, with ``inverse`` and ``f_tensor`` as in contracted_form_norm;
    never warns, an overflow giving inf."""
    with np.errstate(all="ignore"):
        raised = inverse @ f_tensor @ inverse  # F^{ab}
        return _clamped_sqrt(0.5 * (f_tensor * raised).sum(axis=(1, 2)))
