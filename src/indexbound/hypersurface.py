"""Discrete closed minimal hypersurfaces inside the ambient models.

A hypersurface is a map from a structured parameter grid onto points of the
ambient model, whose `position` in R^d is its chart, with a unit normal field
(tangent to the ambient manifold) and the stability potential Ric(N, N) +
|A|^2, a number: every catalog surface is homogeneous, so it is constant.
Geometry at the nodes — orthonormal tangent frames, the shape operator,
curvature traces — is recovered by small-step central differences of the
chart, which keeps every catalog entry expressible in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .ambient import AmbientError, Draws
from .elements import Axis, FemSystem, TensorGrid

#: Gram-Schmidt length below which a chart Jacobian row is degenerate, the
#: chart central-difference step per shortest axis length, and the interior
#: nodes drawn for the pointwise tangency and potential checks
_FRAME_TOL = 1e-10
_FD_STEP_FRAC = 1e-6
_POINTWISE_SAMPLE = 200
#: rows of the mesh dump formatted at once, whose Python numbers all live,
#: and the nodes whose chart geometry and ambient curvature are evaluated at
#: once (the borderline residuals difference as many)
_DUMP_ROWS = 1024
_NODE_CHUNK = 2048


# ---------------------------------------------------------------------------
# spherical charts

def spherical_chart(angles):
    """Standard angular chart of S^k: (..., k) angles -> (..., k+1) unit vectors.

    The first k-1 angles run over [0, pi] and the last over [0, 2 pi).
    """
    angles = np.asarray(angles)
    k = angles.shape[-1]
    out = np.empty(angles.shape[:-1] + (k + 1,))
    sin_prod = np.ones(angles.shape[:-1])
    for i in range(k):
        out[..., i] = sin_prod * np.cos(angles[..., i])
        sin_prod = sin_prod * np.sin(angles[..., i])
    out[..., k] = sin_prod
    return out


def spherical_metric(angles):
    """Round metric of S^k in the angular chart, (..., k, k) diagonal."""
    angles = np.asarray(angles)
    k = angles.shape[-1]
    g = np.zeros(angles.shape[:-1] + (k, k))
    diag = np.ones(angles.shape[:-1])
    for i in range(k):
        g[..., i, i] = diag
        diag = diag * np.sin(angles[..., i]) ** 2
    return g


def spherical_axes(k, nodes):
    axes = [Axis(f"theta{i + 1}", np.pi, nodes) for i in range(k - 1)]
    axes.append(Axis("phi", 2.0 * np.pi, nodes, periodic=True))
    return axes


# ---------------------------------------------------------------------------
# batched differential geometry of a chart

def chart_jacobian(fn, params, step):
    """Central-difference parameter derivatives of a batched map,
    shape (..., k, out_dim)."""
    params = np.asarray(params, dtype=float)
    k = params.shape[-1]
    cols = []
    for i in range(k):
        e = np.zeros(k)
        e[i] = step
        cols.append((fn(params + e) - fn(params - e)) / (2.0 * step))
    return np.stack(cols, axis=-2)


def orthonormal_frames(jac):
    """Row-wise Gram-Schmidt of chart Jacobians.

    Returns (frames, coeffs, ok) with frames = coeffs @ jac orthonormal;
    `ok` is False where the Jacobian is numerically degenerate.
    """
    jac = np.asarray(jac)
    k = jac.shape[-2]
    frames = np.zeros_like(jac)
    coeffs = np.zeros(jac.shape[:-1] + (k,))
    ok = np.ones(jac.shape[:-2], dtype=bool)
    for a in range(k):
        v = jac[..., a, :].copy()
        c = np.zeros(jac.shape[:-2] + (k,))
        c[..., a] = 1.0
        for b in range(a):
            proj = np.einsum("...d,...d->...", frames[..., b, :], v)
            v -= proj[..., None] * frames[..., b, :]
            c -= proj[..., None] * coeffs[..., b, :]
        nv = np.linalg.norm(v, axis=-1)
        ok &= nv > _FRAME_TOL
        nv_safe = np.where(nv > _FRAME_TOL, nv, 1.0)
        frames[..., a, :] = v / nv_safe[..., None]
        coeffs[..., a, :] = c / nv_safe[..., None]
    return frames, coeffs, ok


def _by_chunks(evaluate, arrays):
    """Fill `arrays`, each over all nodes along its first axis, with what
    `evaluate(part)` returns for one slice `part` of `_NODE_CHUNK` nodes at a
    time.  `evaluate` treats each node on its own, so no sum crosses a
    chunk, and its temporaries are freed before the next chunk's."""
    arrays = list(arrays)
    for at in range(0, len(arrays[0]), _NODE_CHUNK):
        part = slice(at, at + _NODE_CHUNK)
        for out, value in zip(arrays, evaluate(part)):
            out[part] = value


class AmbientCurvature(NamedTuple):
    """Ambient curvature at the nodes, through the Gauss equation.  For a
    vector w with surface frame components c, c^T ii_ew c is
    sum_k |II(e_k, w)|^2 and c^T rm_ew c is Ric(w, w) - Rm(N, w, N, w)."""

    ii_ew: np.ndarray  # (n_nodes, n, n)
    rm_ew: np.ndarray  # (n_nodes, n, n)
    ii_en: np.ndarray  # sum_k |II(e_k, N)|^2
    ric_nn: np.ndarray  # Ric(N, N)
    scal: np.ndarray  # ambient scalar curvature


class DiscreteHypersurface:
    """A closed minimal hypersurface sampled on a structured parameter grid.

    `point_fn` maps (..., k) chart parameters to points of the ambient model
    (unit vectors of C^{m+1} on CP^m, the R^d position on the other models).
    `harmonic_axes` are the periodic chart axes whose angle differentials
    d(theta_k) span its harmonic one-forms, so b1 is their count.  Each
    d(theta_k) is closed; it is co-closed, hence harmonic, when the metric
    does not depend on theta_k and has no cross terms between theta_k and
    the other axes, as in a Riemannian product with the circle of axis k.
    """

    def __init__(self, name, ambient, axes, point_fn, normal_fn,
                 metric_fn=None, potential=None, harmonic_axes=()):
        self.name = name
        self.ambient = ambient
        self.axes = list(axes)
        self.point_fn = point_fn
        self.normal_fn = normal_fn
        self._metric_fn = metric_fn
        self.potential = potential  # the constant potential, or None
        self.harmonic_axes = tuple(harmonic_axes)
        self.fd_step = _FD_STEP_FRAC * min(a.length for a in self.axes)

        self.grid = TensorGrid(self.axes)
        self.node_params = self.grid.node_params
        self.positions = self.chart_fn(self.node_params)
        self.normals = normal_fn(self.node_params)
        self._fem = None
        self._fields = None
        self._curvature = None

    # -- dimensions -----------------------------------------------------------
    @property
    def betti_one(self):
        return len(self.harmonic_axes)

    @property
    def dim(self):
        return len(self.axes)

    @property
    def embed_dim(self):
        return self.ambient.embed_dim

    # -- chart-derived fields -------------------------------------------------
    def chart_fn(self, params):
        """The R^d positions of the points at chart parameters `params`."""
        return self.ambient.position(self.point_fn(params))

    def metric_fn(self, params):
        if self._metric_fn is not None:
            return self._metric_fn(params)
        jac = chart_jacobian(self.chart_fn, params, self.fd_step)
        return np.einsum("...ad,...bd->...ab", jac, jac)

    def fem(self):
        if self._fem is None:
            self._fem = FemSystem(self.grid, self.metric_fn, self.positions,
                                  potential=self.potential or 0.0)
        return self._fem

    def node_fields(self):
        """Frames, shape operator, and potential ingredients at grid nodes,
        and the Gram matrix of the chart's central differences ('metric').

        Chart-degenerate nodes (poles, seams) are flagged in 'interior' and
        carry zeros in the derived tensors.  Evaluated once, by `_by_chunks`.
        """
        if self._fields is not None:
            return self._fields
        n, k, d = self.grid.n_nodes, self.dim, self.embed_dim
        fields = {"metric": np.empty((n, k, k)), "frames": np.empty((n, k, d)),
                  "coeffs": np.empty((n, k, k)), "interior": np.empty(n, bool),
                  "shape_operator": np.empty((n, k, k)),
                  "shape_asymmetry": np.empty(n)}
        _by_chunks(self._chart_geometry, fields.values())
        fields["a_norm_sq"] = np.einsum(
            "...ab,...ab->...", fields["shape_operator"], fields["shape_operator"]
        )
        fields["mean_curvature"] = np.einsum(
            "...aa->...", fields["shape_operator"]
        )
        self._fields = fields
        return fields

    def _chart_geometry(self, part):
        """The first six `node_fields` arrays at the nodes `part`."""
        p = self.node_params[part]
        jac = chart_jacobian(self.chart_fn, p, self.fd_step)
        frames, coeffs, ok = orthonormal_frames(jac)
        njac = chart_jacobian(self.normal_fn, p, self.fd_step)
        dn = np.einsum("...ab,...bd->...ad", coeffs, njac)
        A = -np.einsum("...ad,...bd->...ab", dn, frames)
        a_sym = 0.5 * (A + np.swapaxes(A, -1, -2))
        a_asym = np.abs(A - np.swapaxes(A, -1, -2)).max(axis=(-1, -2))
        return (np.einsum("...ad,...bd->...ab", jac, jac), frames, coeffs, ok,
                np.where(ok[..., None, None], a_sym, 0.0),
                np.where(ok, a_asym, 0.0))

    def ambient_curvature(self):
        """The ambient II over pairs of the ambient's tangent frame F at every
        node, contracted into an AmbientCurvature.  A sum over the surface
        frame e_k is the sum over F less its N term.  Evaluated once, by
        `_by_chunks`."""
        if self._curvature is not None:
            return self._curvature
        n, k = self.grid.n_nodes, self.dim
        cv = AmbientCurvature(np.empty((n, k, k)), np.empty((n, k, k)),
                              np.empty(n), np.empty(n), np.empty(n))
        _by_chunks(self._curvature_at, cv)
        self._curvature = cv  # cached only once every chunk is filled
        return cv

    def _curvature_at(self, part):
        """The AmbientCurvature fields at the nodes `part`."""
        model = self.ambient
        pt = self.point_fn(self.node_params[part])
        F = model.tangent_frame(pt)  # (n_nodes, m, d)
        n_nodes, m = F.shape[:2]
        Ft = F.swapaxes(1, 2)
        T = model.ii_frame_pairs(pt, F)  # II(F_i, F_j), (n_nodes, m, m, d)
        rows = T.reshape(n_nodes, m, -1)  # row i: II(F_i, F_j) over j
        E = self.node_fields()["frames"][part] @ Ft  # e_a in the frame F
        nu = self.normals[part, None, :] @ Ft  # N in F, (n_nodes, 1, m)
        TN = (nu @ rows).reshape(n_nodes, m, -1)  # II(N, F_j)
        tnn = (nu @ TN)[:, 0]  # II(N, N)
        H = np.einsum("niid->nd", T)  # mean curvature vector
        S = rows @ rows.swapaxes(1, 2)  # <II(F_i, .), II(F_i, .)> summed over i
        R = TN @ TN.swapaxes(1, 2)  # <II(N, .), II(N, .)>
        # Ric(X, X) - Rm(N, X, N, X) = <H - II(N, N), II(X, X)> - S + R
        HT = (T.reshape(n_nodes, m * m, -1) @ (H - tnn)[:, :, None]
              ).reshape(n_nodes, m, m)
        s_nn = np.trace(R, axis1=1, axis2=2)  # sum_i |II(F_i, N)|^2
        Et = E.swapaxes(1, 2)
        return (E @ (S - R) @ Et, E @ (HT - S + R) @ Et,
                s_nn - np.einsum("nd,nd->n", tnn, tnn),
                np.einsum("nd,nd->n", H, tnn) - s_nn,
                np.einsum("nd,nd->n", H, H) - np.trace(S, axis1=1, axis2=2))

    def ric_nn(self, node_indices):
        """Ambient Ricci in the normal direction at selected nodes."""
        points = self.point_fn(self.node_params[node_indices])
        return self.ambient.ricci(points, self.normals[node_indices])

    def pointwise_checks(self, seed=0):
        """Max residuals of the defining properties at interior nodes, from
        the cached `node_fields()`; `metric_consistency` compares its
        'metric' with the closed-form one."""
        f = self.node_fields()
        ok = f["interior"]
        res = {}
        res["normal_unit"] = float(
            np.abs(np.linalg.norm(self.normals, axis=-1) - 1.0).max()
        )
        res["normal_vs_frame"] = float(
            np.abs(
                np.einsum("...ad,...d->...a", f["frames"], self.normals)[ok]
            ).max()
        )
        # normal must be tangent to the ambient manifold
        idx = np.flatnonzero(ok)
        idx = Draws(seed).choice(idx, min(_POINTWISE_SAMPLE, len(idx)))
        tang = self.ambient.tangency_residual(
            self.point_fn(self.node_params[idx]), self.normals[idx]
        )
        res["normal_ambient_tangency"] = float(tang.max())
        res["shape_asymmetry"] = float(f["shape_asymmetry"][ok].max())
        res["minimality"] = float(np.abs(f["mean_curvature"][ok]).max())
        if self._metric_fn is not None:
            g_an = self._metric_fn(self.node_params[ok])
            res["metric_consistency"] = float(
                np.abs(g_an - f["metric"][ok]).max())
        if self.potential is not None:
            generic = self.ric_nn(idx) + f["a_norm_sq"][idx]
            res["potential_consistency"] = float(
                np.abs(self.potential - generic).max())
        return res

    # -- plain-text mesh dump -------------------------------------------------
    def mesh_dump(self, out):
        """Write the node / cell / weight table as plain text to the text
        stream `out`, `_DUMP_ROWS` rows per write: no whole dump is held."""
        fem = self.fem()
        k, d = self.dim, self.embed_dim
        out.write(f"# surface {self.name}\n")
        out.write(f"# nodes {self.grid.n_nodes} dofs {fem.n_dofs} "
                  f"dim {k} embed {d}\n")
        out.write("# node: index dof param_1..param_k x_1..x_d weight\n")
        # each column's distinct values, told apart by their bits so that
        # -0.0 prints as -0, are formatted once
        texts, picks = [], []
        for column in (*self.node_params.T, *self.positions.T,
                       fem.node_weights[fem.fuse]):
            bits, pick = np.unique(np.ascontiguousarray(column).view(np.int64),
                                   return_inverse=True)
            texts.append(np.array(
                ["%.12g" % v for v in bits.view(np.float64).tolist()],
                dtype=object))
            picks.append(pick)
        line = "node %d %d" + " %s" * (k + d + 1) + "\n"
        for at in range(0, self.grid.n_nodes, _DUMP_ROWS):
            part = slice(at, at + _DUMP_ROWS)
            out.write("".join(line % (i, f, *r) for i, f, *r in zip(
                range(at, part.stop), fem.fuse[part].tolist(),
                *(t[p[part]].tolist() for t, p in zip(texts, picks)))))
        out.write("# cell: index node_indices\n")
        conn = self.grid.cell_connectivity()
        line = "cell %d" + " %d" * conn.shape[1] + "\n"
        for at in range(0, len(conn), _DUMP_ROWS):
            out.write("".join(line % (c, *r) for c, r in enumerate(
                conn[at:at + _DUMP_ROWS].tolist(), at)))


# ---------------------------------------------------------------------------
# catalog

def clifford_torus(ambient, nodes):
    """The square torus S^1(1/sqrt2) x S^1(1/sqrt2) inside the 3-sphere
    `ambient`, or its image in RP^3 when `ambient` is projective: the n = 2
    generalized Clifford torus."""
    if ambient.intrinsic_dim != 3:
        raise AmbientError("the Clifford torus needs an ambient of dimension 3")
    surface = generalized_clifford(ambient, nodes)
    surface.name = "clifford_torus"
    return surface


def _last_axis_normal(d):
    """The constant unit normal along the last of d embedding axes."""
    def normal(p):
        out = np.zeros(p.shape[:-1] + (d,))
        out[..., -1] = 1.0
        return out
    return normal


def _hyperplane_section(name, ambient, nodes, scale, **kwargs):
    """The section {x_last = 0} of `ambient`: the angular chart of S^n times
    `scale` per axis, padded with a zero last coordinate, and the constant
    unit normal along the last axis.  `kwargs` go to DiscreteHypersurface."""
    def point(p):
        x = spherical_chart(p) * scale
        pad = np.zeros(x.shape[:-1] + (1,))
        return np.concatenate([x, pad], axis=-1)

    return DiscreteHypersurface(
        name, ambient, spherical_axes(ambient.intrinsic_dim - 1, nodes), point,
        _last_axis_normal(ambient.embed_dim), **kwargs,
    )


def equator_in_sphere(ambient, nodes):
    """Totally geodesic S^n inside the sphere S^{n+1} `ambient`, n >= 2;
    potential is the constant n."""
    n = ambient.intrinsic_dim - 1
    if n < 2:
        raise AmbientError("the equator needs a sphere of dimension >= 3")
    return _hyperplane_section(f"equator_s{n}", ambient, nodes, 1.0,
                               metric_fn=spherical_metric, potential=float(n))


def _circle_times_sphere(name, ambient, nodes, n, r, s, g, normal, potential):
    """S^1(r) x S^{n-1}(s): the circle of radius r times the angular chart of
    S^{n-1} scaled by s, padded with zeros to the ambient's embedding
    dimension, with the metric diag(g[0], g[1] g_round) and the unit
    `normal` (a function of the chart parameters)."""
    def point(p):
        circ = np.stack([np.cos(p[..., 0]), np.sin(p[..., 0])], axis=-1) * r
        w = spherical_chart(p[..., 1:])
        pad = np.zeros(w.shape[:-1] + (ambient.embed_dim - 2 - n,))
        return np.concatenate([circ, s * w, pad], axis=-1)

    def metric(p):
        out = np.zeros(p.shape[:-1] + (n, n))
        out[..., 0, 0] = g[0]
        out[..., 1:, 1:] = g[1] * spherical_metric(p[..., 1:])
        return out

    axes = [Axis("alpha", 2 * np.pi, nodes, periodic=True)]
    axes += spherical_axes(n - 1, nodes)
    return DiscreteHypersurface(
        name, ambient, axes, point, normal, metric_fn=metric,
        potential=potential,
        harmonic_axes=(0, 1) if n == 2 else (0,),  # n = 2: phi is a circle too
    )


def generalized_clifford(ambient, nodes):
    """S^1(r) x S^{n-1}(s) in the sphere S^{n+1} `ambient`, n >= 2, with
    r = 1/sqrt(n) and s = sqrt(n - 1)/sqrt(n); potential 2n."""
    n = ambient.intrinsic_dim - 1
    if n < 2:
        raise AmbientError("S^1 x S^(n-1) needs a sphere of dimension >= 3")
    r = 1.0 / np.sqrt(n)
    s = np.sqrt(n - 1.0) / np.sqrt(n)

    def normal(p):
        circ = np.stack([np.cos(p[..., 0]), np.sin(p[..., 0])], axis=-1) * s
        return np.concatenate([circ, -r * spherical_chart(p[..., 1:])], axis=-1)

    return _circle_times_sphere(
        f"generalized_clifford_s1xs{n - 1}", ambient, nodes, n, r, s,
        (1.0 / n, (n - 1.0) / n), normal, 2.0 * n)


def circle_times_equator(ambient, nodes):
    """S^1 x S^{n-1} sitting in the product `ambient` S^1 x S^n; the normal
    points along the sphere factor, so the potential is n - 1."""
    n = ambient.n
    return _circle_times_sphere(
        f"circle_times_equator_s{n - 1}", ambient, nodes, n, 1.0, 1.0,
        (1.0, 1.0), _last_axis_normal(ambient.embed_dim), n - 1.0)


def geodesic_sphere_cp2(ambient, nodes, radius=None):
    """Geodesic sphere of the minimal radius about a point of the CP^2
    `ambient` (or of `radius`, a probe for the minimal one).

    The chart runs over the unit 3-sphere of horizontal directions
    u = (e^{i xi1} cos eta, e^{i xi2} sin eta) in angular coordinates
    (xi1, xi2, eta), and z = (cos r, sin r u) is the point at distance r.
    The normal is the velocity of the radial geodesic, in closed form through
    the Veronese embedding.  The metric is the closed-form Berger metric of a
    geodesic sphere (Cecil & Ryan, Geometry of Hypersurfaces, 2015, 6.1):
    sin^2 r (g_S3 - sin^2 r alpha (x) alpha), with the round metric g_S3 of
    the u sphere and its Hopf form alpha = Im <u, du> = cos^2 eta dxi1 +
    sin^2 eta dxi2: the Hopf circle has length 2 pi sin r cos r, its
    orthogonal complement is scaled by sin r.
    """
    if ambient.m != 2:
        raise AmbientError("the geodesic sphere of CP^2 needs m = 2")
    r = np.pi / 3.0 if radius is None else float(radius)
    cr, sr = np.cos(r), np.sin(r)

    def horizontal(p):
        xi1, xi2, eta = p[..., 0], p[..., 1], p[..., 2]
        return np.stack([np.exp(1j * xi1) * np.cos(eta),
                         np.exp(1j * xi2) * np.sin(eta)], axis=-1)

    def along(u, c, s):  # (c, s u)
        return np.concatenate([np.full(u.shape[:-1] + (1,), c), s * u], axis=-1)

    def point(p):
        return along(horizontal(p), cr, sr)

    def normal(p):
        u = horizontal(p)
        return ambient.tangent_from_horizontal(along(u, cr, sr),
                                               along(u, -sr, cr))

    def metric(p):
        eta = p[..., 2]
        alpha = np.stack([np.cos(eta) ** 2, np.sin(eta) ** 2,
                          np.zeros_like(eta)], axis=-1)
        round_s3 = (alpha + [0.0, 0.0, 1.0])[..., None] * np.eye(3)
        return sr**2 * (round_s3 - sr**2 * alpha[..., :, None] * alpha[..., None, :])

    axes = [
        Axis("xi1", 2 * np.pi, nodes, periodic=True),
        Axis("xi2", 2 * np.pi, nodes, periodic=True),
        Axis("eta", np.pi / 2, max(4, nodes // 2)),
    ]
    return DiscreteHypersurface(
        "geodesic_sphere_cp2", ambient, axes, point, normal, metric_fn=metric,
        # Einstein constant 6 plus |A|^2 = 4 cot(2r)^2 + 2 cot(r)^2
        potential=float(6.0 + 4.0 / np.tan(2 * r) ** 2 + 2.0 / np.tan(r) ** 2),
    )


def ellipsoid_section(ambient, nodes):
    """Hyperplane section {x_last = 0} of the ellipsoid `ambient`: totally
    geodesic, with constant unit normal along the last axis."""
    return _hyperplane_section("ellipsoid_section", ambient, nodes,
                               ambient.semi_axes[:-1])


# ---------------------------------------------------------------------------
# registry: what the scenario runner needs to know about each catalog kind

@dataclass(frozen=True)
class SurfaceKind:
    """One catalog kind; adding a kind is adding an entry to SURFACE_KINDS.

    `build(ambient, nodes)` returns the surface in the model `ambient`, with
    its dimensions read from that model; it raises AmbientError for a
    dimension it cannot build.  `ambients` are the ambient kinds it lives
    in; in one whose model has an involution it is the double cover of its
    quotient.  Its harmonic one-forms are no part of the entry: the surface
    that `build` returns names the chart axes that carry them
    (`harmonic_axes`).
    """

    build: Callable
    ambients: tuple


SURFACE_KINDS = {
    "clifford_torus": SurfaceKind(clifford_torus, ("sphere", "real_projective")),
    "equator": SurfaceKind(equator_in_sphere, ("sphere",)),
    "generalized_clifford": SurfaceKind(generalized_clifford, ("sphere",)),
    "circle_times_equator": SurfaceKind(circle_times_equator,
                                        ("circle_times_sphere",)),
    "geodesic_sphere_cp2": SurfaceKind(geodesic_sphere_cp2,
                                       ("complex_projective_veronese",)),
    "ellipsoid_section": SurfaceKind(ellipsoid_section, ("ellipsoid",)),
}
