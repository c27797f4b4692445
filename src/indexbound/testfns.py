"""Coordinate test functions built from a harmonic one-form and the unit
normal, the two-sided evaluation of the index-form identities, and the
integrand quadratic form over a space of harmonic forms.

The functions are the Euclidean coordinates of omega-sharp (surface case) or
of the wedge N ^ omega-sharp (general case); summing the index form over them
collapses, after the Bochner formula, to a curvature/second-fundamental-form
integral.  Its integrand is a per-node quadratic form in the frame components
of the form, built from the surface's one evaluation of the ambient second
fundamental form (`DiscreteHypersurface.ambient_curvature`).
"""

from __future__ import annotations

import numpy as np

from .hodge import bochner_residual, sharp

#: largest integrated Bochner residual of a form taken as harmonic, and
#: largest condition number of the mass Gram matrix of a harmonic basis
_BOCHNER_TOL = 1e-6
_COND_LIMIT = 1e8


class TestFunctionError(Exception):
    pass


def test_functions(surface, form, mode):
    """The coordinate test functions of `form` on `surface`, (n_nodes, count).

    mode 'Prop31' gives the d coordinates of omega-sharp, 'Prop32' the
    d(d-1)/2 coordinates of N wedge omega-sharp.
    """
    w = sharp(surface, form)
    if mode == "Prop31":
        return w
    if mode != "Prop32":
        raise TestFunctionError(f"unknown mode {mode!r}")
    N = surface.normals
    iu, ju = np.triu_indices(surface.embed_dim, k=1)
    return N[:, iu] * w[:, ju] - N[:, ju] * w[:, iu]


# ---------------------------------------------------------------------------
# the curvature integrands as per-node quadratic forms in frame components

#: the surface Hodge star on frame components, a quarter turn
_STAR = np.array([[0.0, -1.0], [1.0, 0.0]])


def integrand_holds(surface, mode):
    """Whether the integrand `mode` holds: Prop31 and Prop43 need n = 2."""
    return mode == "Prop32" or surface.dim == 2


def integrand_matrices(surface, mode):
    """Per-node (n, n) matrices Q whose quadratic form c^T Q c, for the frame
    components c of omega, is the curvature integrand of `mode`; the ambient
    curvature is the surface's one cached evaluation."""
    if mode not in ("Prop32", "Prop31", "Prop43"):
        raise TestFunctionError(f"unknown integrand mode {mode!r}")
    if not integrand_holds(surface, mode):
        raise TestFunctionError(f"the {mode} integrand needs a surface (n = 2)")
    cv = surface.ambient_curvature()
    eye = np.eye(surface.dim)
    if mode == "Prop32":
        scalar = cv.ii_en - cv.ric_nn
        return cv.ii_ew - cv.rm_ew + scalar[:, None, None] * eye
    if mode == "Prop31":
        return cv.ii_ew - 0.5 * cv.scal[:, None, None] * eye
    # Prop43: ii_ew of omega and of its star, minus scal |omega|^2
    return cv.ii_ew + _STAR.T @ cv.ii_ew @ _STAR - cv.scal[:, None, None] * eye


def _rhs_integrand(surface, form, mode):
    return np.einsum("na,nab,nb->n", form, integrand_matrices(surface, mode),
                     form)


def q_identity_report(surface, form):
    """Both sides of the summed index-form identity and their mismatch, one
    report for each mode that holds, keyed by mode: the wedge mode Prop32,
    and on a surface (n = 2) the coordinate mode Prop31 of omega-sharp.

    lhs sums Q over the test functions, cell by cell, through the cell
    matrices of the surface's K - P, formed once for all modes; rhs
    integrates the ambient curvature integrand by quadrature.
    Non-harmonic forms are rejected through the Bochner residual.
    """
    modes = [m for m in ("Prop32", "Prop31") if integrand_holds(surface, m)]
    res = bochner_residual(surface, form)
    if res > _BOCHNER_TOL:
        raise TestFunctionError(
            f"form is not harmonic: integrated Bochner residual {res:.3e}"
        )
    fem = surface.fem()
    cells = fem.index_form
    norm_sq = fem.integrate(fem.to_dof(np.einsum("na,na->n", form, form)))
    reports = {}
    for mode in modes:
        lhs = cells.quadratic_form(fem.to_dof(test_functions(surface, form, mode)))
        rhs = fem.integrate(fem.to_dof(_rhs_integrand(surface, form, mode)))
        reports[mode] = {
            "mode": mode,
            "lhs": lhs,
            "rhs": rhs,
            "norm_sq_integral": norm_sq,
            "relative_residual": abs(lhs - rhs) / norm_sq,
            "bochner_residual": res,
        }
    return reports


# ---------------------------------------------------------------------------
# integrand quadratic form over a basis of harmonic forms

def integrand_quadratic_form(surface, basis, mode="Prop32"):
    """The integrand Gram matrix on a basis of harmonic forms and their L2
    mass matrix, as (gram, mass): c^T gram c integrates the curvature
    integrand of `mode` for omega = sum c_a omega_a, c^T mass c integrates
    |omega|^2.  Both are integrated from pairs c_a^T Q c_b at the nodes."""
    if not basis:
        raise TestFunctionError("empty basis of harmonic forms")
    C = np.stack(basis)  # (q, n_nodes, n)
    if np.any(np.abs(C).max(axis=(1, 2)) == 0.0):
        raise TestFunctionError("zero form not allowed in a basis")
    fem = surface.fem()

    def gram(X, Y):
        pairs = fem.to_dof(np.einsum("pna,qna->npq", X, Y))
        return np.einsum("n,npq->pq", fem.node_weights, pairs)

    QC = np.einsum("nab,qnb->qna", integrand_matrices(surface, mode), C)
    G = gram(C, QC)
    M = gram(C, C)
    if np.linalg.cond(M) > _COND_LIMIT:
        raise TestFunctionError("harmonic basis is ill-conditioned")
    return 0.5 * (G + G.T), M
