"""Ambient Riemannian manifolds with explicit isometric embeddings into R^d.

Each model knows how to embed points, produce orthonormal tangent frames,
evaluate the second fundamental form of the embedding, and recover curvature
through the Gauss equation.  All evaluations are pure functions of
(model, point, vectors); models are immutable after construction.

Every geometry method takes leading batch axes: points of shape (..., k)
(k = m + 1 complex coordinates on CP^m, the d ambient coordinates on the
other models) and ambient vectors of shape (..., d) broadcast against each
other, and scalar results have shape (...).  A single point is the case
without batch axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class AmbientError(Exception):
    """Invalid model parameters or chart-domain violations."""


#: largest residual that passes (model self-checks, the hypersurface checks
#: of `identities`), the looser one of the self-check keys backed by finite
#: differences, the steps of those oracles, ii_quad_fd and
#: j_parallel_residual, and the random draws of the self-checks
IDENTITY_TOL = 1e-8
FD_IDENTITY_TOL = 1e-4
_FD_CHECKS = frozenset({"gauss_fd_closure", "complex_parallel"})
_II_FD_STEP = 1e-4
_J_FD_STEP = 1e-5
_VERIFY_SAMPLES = 200


@dataclass
class IdentityReport:
    """Max residuals of the self-checks of a model over random samples."""

    kind: str
    sample_count: int
    residuals: dict = field(default_factory=dict)

    @property
    def failures(self):
        return {k: v for k, v in self.residuals.items()
                if v > (FD_IDENTITY_TOL if k in _FD_CHECKS else IDENTITY_TOL)}

    @property
    def ok(self):
        return not self.failures


def _dot(a, b):
    """Inner product over the last axis, broadcasting the leading ones."""
    return np.einsum("...d,...d->...", a, b)


def _unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


class AmbientModel:
    """Base class; subclasses fill in the embedding geometry."""

    kind = "abstract"
    einstein_constant = None
    #: for a quotient given by its double cover, the deck: a linear involution
    #: of R^d applied to (..., d) positions and vectors; else None
    involution = None

    def __init__(self, intrinsic_dim, embed_dim):
        if intrinsic_dim < 1:
            raise AmbientError("intrinsic dimension must be >= 1")
        self.intrinsic_dim = int(intrinsic_dim)
        self.embed_dim = int(embed_dim)

    # -- points, for a subclass with a `point` map onto the model -------------
    def random_point(self, rng):
        """A random point, from the subclass's `point` of a normal draw."""
        return self.point(rng.standard_normal(self.embed_dim))

    def position(self, point):
        """The ambient R^d position of a point: the point itself."""
        return point

    def curve(self, point, X, t):
        """The subclass's `point` of point + tX: a curve on the manifold with
        initial velocity X, for the finite-difference oracle for II, which
        needs no particular one."""
        return self.point(point + t * X)

    # -- required per subclass ------------------------------------------------
    def tangent_frame(self, point):
        """Orthonormal basis of the tangent space, shape (..., intrinsic_dim, d)."""
        raise NotImplementedError

    def ii_quad(self, point, X):
        """II(X, X) as an ambient R^d vector."""
        raise NotImplementedError

    # -- shared operations ----------------------------------------------------
    def project_tangent(self, point, v):
        frame = self.tangent_frame(point)
        coords = np.einsum("...ad,...d->...a", frame, v)
        return np.einsum("...ad,...a->...d", frame, coords)

    def tangency_residual(self, point, v):
        nv = np.linalg.norm(v, axis=-1)
        off = np.linalg.norm(v - self.project_tangent(point, v), axis=-1)
        return np.where(nv == 0.0, 0.0, off / np.where(nv == 0.0, 1.0, nv))

    def ii(self, point, X, Y):
        """Second fundamental form II(X, Y), by polarization of ii_quad."""
        return 0.25 * (self.ii_quad(point, X + Y) - self.ii_quad(point, X - Y))

    def ii_quad_fd(self, point, X):
        """Finite-difference oracle: normal part of the acceleration of a curve
        with velocity X, second-order central differences with one Richardson
        extrapolation level."""

        def accel(step):
            return (
                self.curve(point, X, step)
                - 2.0 * self.position(point)
                + self.curve(point, X, -step)
            ) / step**2

        a = (4.0 * accel(_II_FD_STEP) - accel(2.0 * _II_FD_STEP)) / 3.0
        return a - self.project_tangent(point, a)

    def riemann_xyxy(self, point, X, Y):
        """Rm(X, Y, X, Y) of the ambient metric via the Gauss equation."""
        iixy = self.ii(point, X, Y)
        return _dot(self.ii_quad(point, X), self.ii_quad(point, Y)) - _dot(iixy, iixy)

    def ricci(self, point, X):
        """Ric(X, X), summing sectional terms over an orthonormal frame."""
        if np.any(np.linalg.norm(X, axis=-1) == 0.0):
            raise AmbientError("cannot complete a frame around the zero vector")
        frame = self.tangent_frame(point)
        rm = self.riemann_xyxy(point[..., None, :], X[..., None, :], frame)
        return rm.sum(axis=-1)

    def ii_frame_pairs(self, point, frame=None):
        """II(e_a, e_b) over all pairs of the tangent frame (or of `frame`),
        (..., k, k, d), from ii_quad on each e_a and on e_a + e_b for a < b."""
        frame = self.tangent_frame(point) if frame is None else frame
        k = frame.shape[-2]
        a, b = np.triu_indices(k, 1)
        diag = self.ii_quad(point[..., None, :], frame)
        sums = self.ii_quad(point[..., None, :], frame[..., a, :] + frame[..., b, :])
        pairs = np.concatenate(
            [diag, 0.5 * (sums - diag[..., a, :] - diag[..., b, :])], axis=-2)
        where = np.diag(np.arange(k))  # position in `pairs` of each (a, b)
        where[a, b] = where[b, a] = np.arange(k, k + len(a))
        return np.take(pairs, where, axis=-2)


def _orthonormal_complement(vectors):
    """Rows orthonormal, spanning the complement of the rows of `vectors`
    (..., r, dim) in R^dim (or C^dim); shape (..., dim - r, dim)."""
    r, dim = vectors.shape[-2:]
    eye = np.broadcast_to(np.eye(dim, dtype=vectors.dtype),
                          vectors.shape[:-2] + (dim, dim))
    q, _ = np.linalg.qr(np.concatenate([np.swapaxes(vectors, -1, -2), eye], axis=-1))
    # first columns of q reproduce the span of `vectors`; the rest complete it
    return np.swapaxes(q[..., :, r:], -1, -2)


class SphereModel(AmbientModel):
    """Round unit sphere S^dim in R^{dim+1}; totally umbilic, |II(X,Y)| = |<X,Y>|."""

    kind = "sphere"

    def __init__(self, dim):
        if dim < 2:
            raise AmbientError("sphere dimension must be >= 2")
        super().__init__(dim, dim + 1)
        self.einstein_constant = float(dim - 1)

    def point(self, x):
        return _unit(np.asarray(x, dtype=float))

    def tangent_frame(self, point):
        return _orthonormal_complement(point[..., None, :])

    def ii_quad(self, point, X):
        return -_dot(X, X)[..., None] * point


class RealProjectiveModel(SphereModel):
    """RP^dim represented by its two-to-one sphere cover with the antipodal map."""

    kind = "real_projective"
    involution = np.negative


class ComplexProjectiveVeroneseModel(AmbientModel):
    """CP^m embedded in the (m+1)^2-dimensional space of Hermitian matrices
    by [z] -> z z*.

    Points are unit vectors z of C^{m+1} (modulo phase); ambient coordinates
    flatten Hermitian matrices isometrically for the metric
    <A, B> = Re tr(AB) / 2.  Sectional curvatures lie in [1, 4]; the metric
    is Einstein with constant 2m + 2, and the complex structure acts on
    horizontal lifts by i.
    """

    kind = "complex_projective_veronese"

    def __init__(self, m):
        if m < 1:
            raise AmbientError("complex projective dimension must be >= 1")
        self.m = int(m)
        super().__init__(2 * m, (m + 1) ** 2)
        self.einstein_constant = float(2 * m + 2)
        self._iu = np.triu_indices(m + 1, k=1)

    # flattening: diagonal / sqrt(2), then Re and Im of the upper triangle;
    # position and tangent_from_horizontal write those entries of z z* and
    # z v* + v z* straight from z and v, without the (..., m+1, m+1) matrix
    def position(self, z):
        i, j = self._iu
        off = z[..., i] * np.conj(z[..., j])
        return np.concatenate([np.real(z * np.conj(z)) / np.sqrt(2.0),
                               off.real, off.imag], axis=-1)

    def tangent_from_horizontal(self, z, v):
        i, j = self._iu
        off = z[..., i] * np.conj(v[..., j]) + v[..., i] * np.conj(z[..., j])
        # Re(z_i v_i* + v_i z_i*) is 2 Re(z_i v_i*) exactly; halved by sqrt 2
        # after the doubling, as the matrix form rounds it
        return np.concatenate([2.0 * np.real(z * np.conj(v)) / np.sqrt(2.0),
                               off.real, off.imag], axis=-1)

    def unflatten(self, a):
        n1 = self.m + 1
        k = len(self._iu[0])
        A = np.zeros(a.shape[:-1] + (n1, n1), dtype=complex)
        idx = np.arange(n1)
        A[..., idx, idx] = a[..., :n1] * np.sqrt(2.0)
        off = a[..., n1 : n1 + k] + 1j * a[..., n1 + k :]
        A[..., self._iu[0], self._iu[1]] = off
        A[..., self._iu[1], self._iu[0]] = np.conj(off)
        return A

    def norm_sq(self, z):
        return np.real(np.einsum("...i,...i->...", np.conj(z), z))

    def point_from_homogeneous(self, z):
        z = np.asarray(z, dtype=complex)
        return z / np.sqrt(self.norm_sq(z))[..., None]

    def horizontal_from_ambient(self, z, X):
        """Recover the horizontal lift v from an ambient tangent vector X: the
        Hermitian matrix of X applied to z, less its part along z."""
        v = np.einsum("...ij,...j->...i", self.unflatten(X), z)
        return v - z * np.einsum("...i,...i->...", np.conj(z), v)[..., None]

    def random_point(self, rng):
        z = rng.standard_normal(self.m + 1) + 1j * rng.standard_normal(self.m + 1)
        return self.point_from_homogeneous(z)

    def tangent_frame(self, z):
        # rows of w span the complex orthogonal complement of z; the frame is
        # w_1, i w_1, w_2, i w_2, ... carried to the ambient space
        w = _orthonormal_complement(z[..., None, :])
        lifts = np.stack([w, 1j * w], axis=-2).reshape(
            w.shape[:-2] + (2 * self.m, self.m + 1)
        )
        return self.tangent_from_horizontal(z[..., None, :], lifts)

    def ii_quad(self, z, X):
        v = self.horizontal_from_ambient(z, X)
        return 2.0 * (self.position(v)
                      - self.norm_sq(v)[..., None] * self.position(z))

    def curve(self, z, X, t):
        v = self.horizontal_from_ambient(z, X)
        s = np.sqrt(self.norm_sq(v))[..., None]
        zt = np.cos(s * t) * z + np.sin(s * t) * v / np.where(s == 0.0, 1.0, s)
        return self.position(zt)

    def complex_structure(self, z, X):
        v = self.horizontal_from_ambient(z, X)
        return self.tangent_from_horizontal(z, 1j * v)

    def sectional_formula(self, z, X, Y):
        """1 + 3 g(X, JY)^2 for orthonormal X, Y."""
        return 1.0 + 3.0 * _dot(X, self.complex_structure(z, Y)) ** 2

    def j_parallel_residual(self, z, X, Y):
        """|nabla_X (J W) - J nabla_X W| at z, where W is the tangent part of
        the frozen ambient vector Y along the geodesic with velocity X."""
        v = self.horizontal_from_ambient(z, X)
        s = np.sqrt(self.norm_sq(v))[..., None]

        # W(t): projection of the frozen ambient vector Y onto the tangent space
        def W(t):
            zt = self.point_from_homogeneous(np.cos(s * t) * z + np.sin(s * t) * v / s)
            w = self.horizontal_from_ambient(zt, Y)
            return self.tangent_from_horizontal(zt, w), zt

        def JW(t):
            w, zt = W(t)
            return self.complex_structure(zt, w)

        h = _J_FD_STEP
        dW = (W(h)[0] - W(-h)[0]) / (2 * h)
        dJW = (JW(h) - JW(-h)) / (2 * h)
        nab_W = self.project_tangent(z, dW)
        nab_JW = self.project_tangent(z, dJW)
        return np.linalg.norm(nab_JW - self.complex_structure(z, nab_W), axis=-1)


class CircleTimesSphereModel(AmbientModel):
    """S^1 x S^n embedded blockwise in R^2 x R^{n+1}; the flat circle factor
    makes Ric only non-negative."""

    kind = "circle_times_sphere"

    def __init__(self, n):
        if n < 2:
            raise AmbientError("sphere factor dimension must be >= 2")
        super().__init__(n + 1, n + 3)
        self.n = int(n)

    def point(self, x):
        c, s = self.factors(np.asarray(x, dtype=float))
        return np.concatenate([_unit(c), _unit(s)], axis=-1)

    @staticmethod
    def factors(v):
        """The circle and sphere blocks of a (..., n + 3) array."""
        return v[..., :2], v[..., 2:]

    def tangent_frame(self, point):
        c, s = self.factors(point)
        frame = np.zeros(point.shape[:-1] + (self.intrinsic_dim, self.embed_dim))
        # the circle's unit tangent (-x1, x0), then the sphere factor's frame
        frame[..., 0, 0] = -c[..., 1]
        frame[..., 0, 1] = c[..., 0]
        frame[..., 1:, 2:] = _orthonormal_complement(s[..., None, :])
        return frame

    def ii_quad(self, point, X):
        c, s = self.factors(point)
        X1, X2 = self.factors(X)
        return np.concatenate(
            [-_dot(X1, X1)[..., None] * c, -_dot(X2, X2)[..., None] * s], axis=-1
        )

    def riemann_product_formula(self, point, X, Y):
        """|pi2 X|^2 |pi2 Y|^2 - <pi2 X, pi2 Y>^2: the sphere factor's
        curvature alone, the circle being flat."""
        X2, Y2 = self.factors(X)[1], self.factors(Y)[1]
        return _dot(X2, X2) * _dot(Y2, Y2) - _dot(X2, Y2) ** 2


class EllipsoidModel(AmbientModel):
    """Ellipsoid sum x_i^2 / a_i^2 = 1 in R^{n+2}, with outward normal and
    shape operator available for the pinching checks."""

    kind = "ellipsoid"

    def __init__(self, semi_axes):
        semi_axes = np.asarray(semi_axes, dtype=float)
        if semi_axes.ndim != 1 or len(semi_axes) < 3:
            raise AmbientError("need at least three semi-axes")
        if not np.all(np.isfinite(semi_axes) & (semi_axes > 0)):
            raise AmbientError("semi-axes must be finite and positive")
        super().__init__(len(semi_axes) - 1, len(semi_axes))
        self.semi_axes = semi_axes
        self._g = 1.0 / semi_axes**2

    def point(self, x):
        x = np.asarray(x, dtype=float)
        return x / np.sqrt(np.sum(x**2 * self._g, axis=-1, keepdims=True))

    def outward_normal(self, point):
        return _unit(self._g * point)

    def tangent_frame(self, point):
        return _orthonormal_complement(self.outward_normal(point)[..., None, :])

    def ii_quad(self, point, X):
        nu = self.outward_normal(point)
        accel = -_dot(X * self._g, X)[..., None] * point
        return _dot(accel, nu)[..., None] * nu

    def principal_curvatures(self, point):
        """Eigenvalues of the shape operator w.r.t. the outward normal
        (positive on convex bodies), ascending."""
        frame = self.tangent_frame(point)
        scale = np.linalg.norm(self._g * point, axis=-1)[..., None, None]
        W = np.einsum("...ad,...bd->...ab", frame * self._g, frame) / scale
        return np.linalg.eigvalsh(W)


@dataclass(frozen=True)
class AmbientKind:
    """One ambient kind; adding a kind is adding an entry to AMBIENT_KINDS.

    `model` is built by keyword from `params`, which maps each parameter to
    the converter of its INI value.  `margins` names the bounds margins that
    `bounds.application_margins` runs.
    """

    model: type
    params: dict
    margins: tuple


AMBIENT_KINDS = {
    "sphere": AmbientKind(SphereModel, {"dim": int}, ("sphere", "scalar3")),
    "real_projective": AmbientKind(
        RealProjectiveModel, {"dim": int}, ("sphere", "scalar3")),
    "complex_projective_veronese": AmbientKind(
        ComplexProjectiveVeroneseModel, {"m": int}, ("cross", "scalar3")),
    "circle_times_sphere": AmbientKind(
        CircleTimesSphereModel, {"n": int}, ("product_q", "scalar3")),
    "ellipsoid": AmbientKind(
        EllipsoidModel, {"semi_axes": lambda s: [float(x) for x in s.split()]},
        ("convex", "scalar3")),
}


def verify_model_identities(model, seed=0):
    """Random-sample self-checks of a model; returns an IdentityReport whose
    residuals are maxima over `_VERIFY_SAMPLES` (point, orthonormal pair)
    draws.

    The samples are drawn one at a time (the point, the coefficients of X and
    Y in the tangent frame, and for a complex structure those of the two
    tangents of the parallelism check); every check then runs once on the
    whole batch.
    """
    rng = np.random.default_rng(seed)
    n_tangents = 4 if isinstance(model, ComplexProjectiveVeroneseModel) else 2
    points, coeffs = [], []
    for _ in range(_VERIFY_SAMPLES):
        points.append(model.random_point(rng))
        coeffs.append([rng.standard_normal(model.intrinsic_dim)
                       for _ in range(n_tangents)])
    p = np.array(points)
    frame = model.tangent_frame(p)
    V = np.einsum("sta,sad->std", np.array(coeffs), frame)
    X = _unit(V[:, 0])
    Y = _unit(V[:, 1] - _dot(V[:, 1], X)[:, None] * X)
    res = {}

    def bump(key, values):
        res[key] = float(np.max(np.abs(values)))

    iixx, iiyy, iixy = model.ii_quad(p, X), model.ii_quad(p, Y), model.ii(p, X, Y)
    # tangency of the frame against computed normal directions
    bump("frame_tangency", np.einsum("sad,sd->sa", frame, iixx))
    bump("ii_symmetry", np.linalg.norm(iixy - model.ii(p, Y, X), axis=-1))
    c = 1.7
    bump("ii_scaling",
         np.linalg.norm(model.ii_quad(p, c * X) - c**2 * iixx, axis=-1))
    bump("gauss_fd_closure",
         np.linalg.norm(iixx - model.ii_quad_fd(p, X), axis=-1))

    if model.einstein_constant is not None:
        bump("einstein", model.ricci(p, X) - model.einstein_constant)

    rm = model.riemann_xyxy(p, X, Y)
    if isinstance(model, SphereModel):
        bump("umbilicity", np.linalg.norm(iixy, axis=-1) - np.abs(_dot(X, Y)))
        bump("sectional_one", rm - 1.0)

    if isinstance(model, ComplexProjectiveVeroneseModel):
        A = model.unflatten(model.position(p))
        bump("variety_projector", A @ A - A)
        bump("variety_trace", np.trace(A, axis1=-2, axis2=-1).real - 1.0)
        bump("veronese_ii_quad", _dot(iixx, iixx) - 4.0)
        bump("veronese_polarized", _dot(iixx, iiyy) + 2.0 * _dot(iixy, iixy) - 4.0)
        bump("veronese_mixed", _dot(iixy, iixy) - (4.0 - rm) / 3.0)
        bump("sectional_range_low", np.maximum(0.0, 1.0 - rm))
        bump("sectional_range_high", np.maximum(0.0, rm - 4.0))
        bump("sectional_formula", rm - model.sectional_formula(p, X, Y))
        JX = model.complex_structure(p, X)
        bump("complex_isometry",
             np.linalg.norm(JX, axis=-1) - np.linalg.norm(X, axis=-1))
        bump("complex_square",
             np.linalg.norm(model.complex_structure(p, JX) + X, axis=-1))
        bump("complex_parallel",
             model.j_parallel_residual(p, _unit(V[:, 2]), _unit(V[:, 3])))

    if isinstance(model, CircleTimesSphereModel):
        bump("product_curvature", rm - model.riemann_product_formula(p, X, Y))

    if isinstance(model, EllipsoidModel):
        nu = model.outward_normal(p)
        bump("shape_vs_ii", _dot(iixx, nu) + _dot(model._g * X, X)
             / np.linalg.norm(model._g * p, axis=-1))
        if np.allclose(model.semi_axes, model.semi_axes[0]):
            k = model.principal_curvatures(p)
            bump("round_umbilic", k.max(axis=-1) - k.min(axis=-1))

    return IdentityReport(model.kind, _VERIFY_SAMPLES, res)
