"""Harmonic one-forms on discrete hypersurfaces.

For two-dimensional surfaces b1 comes from the Euler characteristic of the
triangulated grid, and the basis from its tree-cotree generators: one closed
edge cochain per generator, made harmonic for the lowest-order edge-element
(Whitney) Hodge Laplacian by one scalar Poisson solve.  In higher dimensions
each catalog kind's registry entry gives its harmonic forms in closed form
(circle-factor forms dt).  Also provides the integrated Bochner identity
residual used to reject non-harmonic probes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .hypersurface import SURFACE_KINDS


class HodgeError(Exception):
    pass


@dataclass
class DiscreteOneForm:
    """A one-form sampled at grid nodes through its frame components."""

    surface: object
    components: np.ndarray  # (n_nodes, n) values omega(e_k)

    def __post_init__(self):
        if not np.all(np.isfinite(self.components)):
            raise HodgeError("one-form has non-finite components")

    @property
    def sharp(self):
        """Ambient vectors of the metric dual, (n_nodes, d)."""
        frames = self.surface.node_fields()["frames"]
        return np.einsum("na,nad->nd", self.components, frames)

    @property
    def norm_sq(self):
        return np.einsum("na,na->n", self.components, self.components)

    def l2_inner(self, other):
        fem = self.surface.fem()
        vals = np.einsum("na,na->n", self.components, other.components)
        return fem.integrate(fem.to_dof(vals))

    def l2_norm_sq(self):
        return self.l2_inner(self)

    def scaled(self, c):
        return DiscreteOneForm(self.surface, c * self.components)


def combine(basis, coefficients):
    """Linear combination of one-forms over a shared surface."""
    if len(basis) != len(coefficients):
        raise HodgeError("coefficient count does not match basis size")
    comp = sum(c * w.components for c, w in zip(coefficients, basis))
    return DiscreteOneForm(basis[0].surface, comp)


def _orthonormalize(basis):
    out = []
    for w in basis:
        comp = w.components.copy()
        for u in out:
            comp = comp - u.l2_inner(
                DiscreteOneForm(w.surface, comp)
            ) * u.components
        cand = DiscreteOneForm(w.surface, comp)
        nrm = np.sqrt(cand.l2_norm_sq())
        if nrm < 1e-10:
            raise HodgeError("harmonic basis is numerically dependent")
        out.append(cand.scaled(1.0 / nrm))
    return out


def one_form_from_sharp(surface, sharp_nodes):
    """Frame components of a one-form given its ambient metric dual at nodes."""
    frames = surface.node_fields()["frames"]
    comp = np.einsum("nad,nd->na", frames, np.asarray(sharp_nodes))
    return DiscreteOneForm(surface, comp)


# ---------------------------------------------------------------------------
# Whitney edge-element solver (surfaces only)

# local edges (a, b) of a triangle; local edge k runs from corner k to k + 1
_LOCAL_EDGES = np.array([[0, 1], [1, 2], [2, 0]])


class _WhitneyMesh(NamedTuple):
    """Triangulated fused mesh: incidences, Whitney mass and the
    per-triangle data that evaluates an edge cochain."""

    edges: np.ndarray  # (E, 2) vertex pairs a < b, sorted
    tris: np.ndarray  # (T, 3) vertex labels
    tri_edges: np.ndarray  # (T, 3) edge of each local edge
    tri_signs: np.ndarray  # (T, 3) +1 where the local edge runs a -> b
    d0: sp.csr_matrix  # (E, V) vertex -> edge coboundary
    d1: sp.csr_matrix  # (T, E) edge -> face coboundary
    M1: sp.csr_matrix  # (E, E) Whitney one-form mass
    grads: np.ndarray  # (T, 3, 2) barycentric gradients, parameter covectors
    area: np.ndarray  # (T,) metric areas


def _triangulate(surface):
    """Split the fine node lattice into triangles on fused vertex labels.

    Returns (triangles, tri_params): vertex triples into DOF labels and the
    parameter coordinates of their corners (seam-consistent).
    """
    grid = surface.grid
    shape = grid.shape
    spans = [n if ax.periodic else n - 1 for ax, n in zip(grid.axes, shape)]
    h = np.array([ax.length / s for ax, s in zip(grid.axes, spans)])
    # two triangles per lattice square, as (di, dj) corner offsets
    offs = np.array([[[0, 0], [1, 0], [1, 1]], [[0, 0], [1, 1], [0, 1]]])
    ii, jj = np.meshgrid(np.arange(spans[0]), np.arange(spans[1]), indexing="ij")
    ci = (ii[..., None, None] + offs[..., 0]) % shape[0]
    cj = (jj[..., None, None] + offs[..., 1]) % shape[1]
    tris = surface.fem().fuse[np.ravel_multi_index((ci, cj), shape)].reshape(-1, 3)
    base = grid.node_params.reshape(shape + (2,))[ii, jj]
    params = (base[:, :, None, None, :] + offs * h).reshape(-1, 3, 2)
    # drop triangles that are degenerate at a fused pole
    keep = np.all(np.diff(np.sort(tris, axis=1), axis=1) != 0, axis=1)
    return tris[keep], params[keep]


def _whitney_matrices(surface):
    """d0, d1 and M1 on the triangulated fused mesh, as a _WhitneyMesh."""
    tris, tparams = _triangulate(surface)
    n_v, n_t = surface.fem().n_dofs, len(tris)

    # edge table: one row per sorted vertex pair
    ends = tris[:, _LOCAL_EDGES]  # (T, 3, 2)
    tri_signs = np.where(ends[..., 0] < ends[..., 1], 1.0, -1.0)
    keys = ends.min(axis=-1) * n_v + ends.max(axis=-1)
    edge_keys, tri_edges = np.unique(keys, return_inverse=True)
    tri_edges = tri_edges.reshape(tris.shape)
    edges = np.stack(np.divmod(edge_keys, n_v), axis=-1)
    n_e = len(edges)

    d0 = sp.csr_matrix(
        (np.tile([-1.0, 1.0], n_e), (np.repeat(np.arange(n_e), 2), edges.ravel())),
        shape=(n_e, n_v),
    )
    d1 = sp.csr_matrix(
        (tri_signs.ravel(), (np.repeat(np.arange(n_t), 3), tri_edges.ravel())),
        shape=(n_t, n_e),
    )

    # per-triangle metric from the surface chart at the centroid
    g = surface.metric_fn(tparams.mean(axis=1))  # (T, 2, 2)
    ginv = np.linalg.inv(g)
    E = tparams[:, 1:, :] - tparams[:, :1, :]  # (T, 2, 2) edge param vectors
    area = 0.5 * np.abs(np.linalg.det(E)) * np.sqrt(np.linalg.det(g))

    # barycentric gradients as parameter covectors: rows of inverse(E)^T
    grad12 = np.swapaxes(np.linalg.inv(E), -1, -2)  # (T, lambda_1,2, comps)
    grad0 = -grad12.sum(axis=1, keepdims=True)
    grads = np.concatenate([grad0, grad12], axis=1)  # (T, 3, 2)

    # Whitney one-forms at edge midpoints; 3-midpoint rule is exact here
    lam_mid = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])  # (q, v)
    a, b = _LOCAL_EDGES.T
    W = (  # (T, q, edge, comp)
        lam_mid[None, :, a, None] * grads[:, None, b, :]
        - lam_mid[None, :, b, None] * grads[:, None, a, :]
    )
    inner = np.einsum("tqac,tcd,tqbd->tqab", W, ginv, W)
    M1_loc = (area[:, None, None] / 3.0) * inner.sum(axis=1)
    M1_loc *= tri_signs[:, :, None] * tri_signs[:, None, :]

    rows = np.repeat(tri_edges[:, :, None], 3, axis=2).ravel()
    cols = np.repeat(tri_edges[:, None, :], 3, axis=1).ravel()
    M1 = sp.coo_matrix((M1_loc.ravel(), (rows, cols)), shape=(n_e, n_e)).tocsr()
    return _WhitneyMesh(edges, tris, tri_edges, tri_signs, d0, d1, M1, grads, area)


def _edge_cochain_to_nodes(surface, mesh, omega_e):
    """Whitney evaluation of an edge cochain at the vertices, averaged over
    incident triangles, returned as frame components at grid nodes."""
    fem = surface.fem()
    vals = omega_e[mesh.tri_edges] * mesh.tri_signs  # oriented, per local edge
    # at corner c (lambda_c = 1) only the local edges c -> c+1 and c+2 -> c
    # are nonzero, as +grad lambda_{c+1} and -grad lambda_{c+2}
    contrib = (
        vals[:, :, None] * np.roll(mesh.grads, -1, axis=1)
        - np.roll(vals, 1, axis=1)[:, :, None] * np.roll(mesh.grads, 1, axis=1)
    )  # (T, corner, comp)
    w = np.repeat(mesh.area / 3.0, 3)
    v = mesh.tris.ravel()
    wsum = np.bincount(v, weights=w, minlength=fem.n_dofs)
    cov = np.stack(
        [np.bincount(v, weights=w * contrib[..., i].ravel(), minlength=fem.n_dofs)
         for i in range(2)],
        axis=-1,
    ) / wsum[:, None]

    # parameter covector -> frame components via the frame coefficient matrix
    C = surface.node_fields()["coeffs"]
    return np.einsum("nai,ni->na", C, cov[fem.fuse])


def harmonic_one_forms(surface):
    """L2-orthonormal basis of harmonic one-forms on a catalog hypersurface: the
    Whitney solve on surfaces, its SURFACE_KINDS entry's closed forms above."""
    if surface.dim == 2:
        return _harmonic_forms_whitney(surface)
    if surface.betti_one == 0:
        return []
    sharps = getattr(SURFACE_KINDS.get(surface.kind), "harmonic_sharps", None)
    if sharps is None:
        raise HodgeError(
            f"no harmonic-form catalog entry for surface {surface.name!r}")
    return _orthonormalize([one_form_from_sharp(surface, sharp)
                            for sharp in sharps(surface)])


def _euler_betti_one(mesh):
    """b1 = 2 - (V - E + F) of the closed orientable triangulated surface."""
    return 2 - (mesh.d0.shape[1] - len(mesh.edges) + len(mesh.tris))


def _bfs_tree_edges(n_nodes, links, link_ids):
    """Ids of the links, (m, 2) node pairs, of a BFS spanning tree from node 0."""
    # imported here so that runs without a Whitney solve do not load csgraph
    from scipy.sparse.csgraph import breadth_first_order

    graph = sp.csr_matrix(
        (np.ones(len(links)), (links[:, 0], links[:, 1])), shape=(n_nodes, n_nodes)
    )
    order, pred = breadth_first_order(graph, 0, directed=False)
    if len(order) != n_nodes:
        raise HodgeError("the triangulated surface is not connected")
    child = order[1:]
    key = np.minimum(child, pred[child]) * n_nodes + np.maximum(child, pred[child])
    link_keys = links.min(axis=1) * n_nodes + links.max(axis=1)
    by_key = np.argsort(link_keys, kind="stable")
    return link_ids[by_key[np.searchsorted(link_keys[by_key], key)]]


def _tree_cotree(mesh):
    """(cotree, generators) edge ids.  The cotree is a BFS spanning tree of
    the faces across the edges off a BFS spanning tree of the vertices; the
    b1 generators are the edges in neither tree."""
    n_v, n_e, n_t = mesh.d0.shape[1], len(mesh.edges), len(mesh.tris)
    d1c = mesh.d1.tocsc()
    if np.any(np.diff(d1c.indptr) != 2):
        raise HodgeError("the triangulated surface is not closed")
    faces = d1c.indices.reshape(n_e, 2)  # the two faces of each edge
    tree = _bfs_tree_edges(n_v, mesh.edges, np.arange(n_e))
    free = np.ones(n_e, dtype=bool)
    free[tree] = False
    rest = np.flatnonzero(free)
    cotree = _bfs_tree_edges(n_t, faces[rest], rest)
    free[cotree] = False
    return cotree, np.flatnonzero(free)


def _harmonic_cochains(mesh):
    """(E, b1) harmonic edge cochains, one per tree-cotree generator."""
    cotree, gens = _tree_cotree(mesh)
    # closed cochains: 1 on a generator, 0 on the tree and the other
    # generators; d1 omega = 0 fixes the cotree values.  The cotree columns
    # of d1 without the root face (row 0) form a nonsingular tree incidence.
    d0, d1, M1 = mesh.d0, mesh.d1, mesh.M1
    omega = np.zeros((d1.shape[1], len(gens)))
    omega[gens, np.arange(len(gens))] = 1.0
    cotree_lu = spla.splu(d1[1:][:, cotree].tocsc())
    omega[cotree] = cotree_lu.solve(-d1[1:][:, gens].toarray())

    # harmonic representatives omega - d0 f, (d0^T M1 d0) f = d0^T M1 omega,
    # with f pinned to 0 at vertex 0
    poisson_lu = spla.splu((d0.T @ M1 @ d0).tocsc()[1:, 1:],
                           permc_spec="MMD_AT_PLUS_A",
                           options={"SymmetricMode": True})
    f = np.zeros((d0.shape[1], len(gens)))
    f[1:] = poisson_lu.solve((d0.T @ (M1 @ omega))[1:])
    return omega - d0 @ f


def _harmonic_forms_whitney(surface):
    mesh = _whitney_matrices(surface)
    b1 = _euler_betti_one(mesh)
    if b1 != surface.betti_one:
        raise HodgeError(
            f"Euler characteristic gives b1 = {b1}, but the surface declares "
            f"the first Betti number {surface.betti_one}"
        )
    if b1 == 0:
        return []
    return _orthonormalize([
        DiscreteOneForm(surface, _edge_cochain_to_nodes(surface, mesh, h))
        for h in _harmonic_cochains(mesh).T
    ])


# ---------------------------------------------------------------------------
# Bochner residual

def _grid_gradient(surface, node_field):
    """Parameter-direction central differences of a per-node array,
    shape (n_nodes, n_axes) + field shape."""
    grid = surface.grid
    shape = grid.shape
    f = np.asarray(node_field).reshape(shape + node_field.shape[1:])
    out = []
    for ax_i, ax in enumerate(grid.axes):
        h = ax.length / (shape[ax_i] if ax.periodic else shape[ax_i] - 1)
        if ax.periodic:
            d = (np.roll(f, -1, axis=ax_i) - np.roll(f, 1, axis=ax_i)) / (2 * h)
        else:
            d = np.gradient(f, h, axis=ax_i)
        out.append(d.reshape((grid.n_nodes,) + node_field.shape[1:]))
    return np.stack(out, axis=1)


def _ricci_m(surface, c):
    """Intrinsic Ricci Ric^M(w, w) at the nodes, for the frame components c
    of w, via the traced Gauss identity for minimal hypersurfaces:
    Ric(w, w) - Rm(N, w, N, w) - |A w|^2."""
    rm_ew = surface.ambient_curvature().rm_ew
    Ac = np.einsum("nab,nb->na", surface.node_fields()["shape_operator"], c)
    return np.einsum("na,nab,nb->n", c, rm_ew, c) - np.einsum("na,na->n", Ac, Ac)


def bochner_residual(surface, form):
    """| ∫|∇ω|² + ∫Ric^M(ω♯, ω♯) | / ∫|ω|² — near zero exactly for harmonic ω."""
    fem = surface.fem()
    fields = surface.node_fields()
    frames = fields["frames"]
    ok = fields["interior"]
    C = fields["coeffs"]

    sharp = form.sharp
    dsharp = _grid_gradient(surface, sharp)  # (n, axes, d)
    along_frame = np.einsum("nab,nbd->nad", C, dsharp)
    proj = np.einsum("nad,nbd->nab", along_frame, frames)
    grad_sq = np.einsum("nab,nab->n", proj, proj)

    ric_term = _ricci_m(surface, form.components)
    grad_sq = np.where(ok, grad_sq, 0.0)
    ric_term = np.where(ok, ric_term, 0.0)

    num = fem.integrate(fem.to_dof(grad_sq)) + fem.integrate(fem.to_dof(ric_term))
    den = fem.integrate(fem.to_dof(np.where(ok, form.norm_sq, 0.0)))
    return abs(num) / den
