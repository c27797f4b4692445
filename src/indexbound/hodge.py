"""Harmonic one-forms on discrete hypersurfaces.

Every catalog surface with b1 > 0 is a flat torus or a product with a circle,
so its harmonic one-forms are the angle differentials d(theta_k) of the
periodic chart axes it declares (`harmonic_axes`), taken in closed form from
the chart's frame coefficients.  On a two-dimensional surface the declared
b1 is checked against the exact 2 - (V - E + F) of the triangulated grid.
Also provides the integrated Bochner identity residual used to reject
non-harmonic probes.
"""

from __future__ import annotations

import numpy as np


class HodgeError(Exception):
    pass


def sharp(surface, form):
    """Ambient vectors (n_nodes, d) of the metric dual of the one-form of
    frame components `form`, (n_nodes, n)."""
    return np.einsum("na,nad->nd", form, surface.node_fields()["frames"])


def l2_inner(surface, a, b):
    """L2 inner product of two one-forms given by their frame components."""
    fem = surface.fem()
    return fem.integrate(fem.to_dof(np.einsum("na,na->n", a, b)))


def combine(basis, coefficients):
    """Linear combination of one-forms given by their frame components."""
    if len(basis) != len(coefficients):
        raise HodgeError("coefficient count does not match basis size")
    return sum(c * w for c, w in zip(coefficients, basis))


def _orthonormalize(surface, basis):
    out = []
    for comp in basis:
        for u in out:
            comp = comp - l2_inner(surface, u, comp) * u
        nrm = np.sqrt(l2_inner(surface, comp, comp))
        if nrm < 1e-10:
            raise HodgeError("harmonic basis is numerically dependent")
        out.append((1.0 / nrm) * comp)
    return out


# local edges (a, b) of a triangle
_LOCAL_EDGES = np.array([[0, 1], [1, 2], [2, 0]])


def _triangulate(surface):
    """Split the fine node lattice of a surface into triangles, as vertex
    triples of fused DOF labels."""
    grid = surface.grid
    shape = grid.shape
    spans = [n if ax.periodic else n - 1 for ax, n in zip(grid.axes, shape)]
    # two triangles per lattice square, as (di, dj) corner offsets
    offs = np.array([[[0, 0], [1, 0], [1, 1]], [[0, 0], [1, 1], [0, 1]]])
    ii, jj = np.meshgrid(np.arange(spans[0]), np.arange(spans[1]), indexing="ij")
    ci = (ii[..., None, None] + offs[..., 0]) % shape[0]
    cj = (jj[..., None, None] + offs[..., 1]) % shape[1]
    tris = surface.fem().fuse[np.ravel_multi_index((ci, cj), shape)].reshape(-1, 3)
    # drop triangles that are degenerate at a fused pole
    keep = np.all(np.diff(np.sort(tris, axis=1), axis=1) != 0, axis=1)
    return tris[keep]


def _count_edges(tris, n_v):
    """Distinct edges of triangles over `n_v` vertices, counted as the
    changes in their sorted keys."""
    ends = tris[:, _LOCAL_EDGES]
    keys = np.sort((ends.min(axis=-1) * n_v + ends.max(axis=-1)).ravel())
    return int(np.count_nonzero(np.diff(keys))) + (len(keys) > 0)


def _euler_betti_one(surface):
    """b1 = 2 - (V - E + F) of the closed orientable triangulated surface."""
    tris = _triangulate(surface)
    n_v = surface.fem().n_dofs
    return 2 - (n_v - _count_edges(tris, n_v) + len(tris))


def harmonic_one_forms(surface):
    """L2-orthonormal basis of harmonic one-forms on a catalog hypersurface:
    the angle differentials d(theta_k) of its `harmonic_axes`.  The frame
    components of d(theta_k) are the k-th column of the chart's frame
    coefficients, exact for any metric.  On a surface the declared b1 must
    equal the Euler characteristic's."""
    if surface.dim == 2:
        b1 = _euler_betti_one(surface)
        if b1 != surface.betti_one:
            raise HodgeError(
                f"Euler characteristic gives b1 = {b1}, but the surface "
                f"declares the first Betti number {surface.betti_one}"
            )
    basis = [surface.node_fields()["coeffs"][..., k]
             for k in surface.harmonic_axes]
    if not np.all(np.isfinite(basis)):
        raise HodgeError("one-form has non-finite components")
    return _orthonormalize(surface, basis)


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

    dsharp = _grid_gradient(surface, sharp(surface, form))  # (n, axes, d)
    along_frame = np.einsum("nab,nbd->nad", C, dsharp)
    proj = np.einsum("nad,nbd->nab", along_frame, frames)
    grad_sq = np.einsum("nab,nab->n", proj, proj)

    ric_term = _ricci_m(surface, form)
    grad_sq = np.where(ok, grad_sq, 0.0)
    ric_term = np.where(ok, ric_term, 0.0)

    num = fem.integrate(fem.to_dof(grad_sq)) + fem.integrate(fem.to_dof(ric_term))
    norm_sq = np.einsum("na,na->n", form, form)
    den = fem.integrate(fem.to_dof(np.where(ok, norm_sq, 0.0)))
    return abs(num) / den
