"""Coordinate test functions built from a harmonic one-form and the unit
normal, the two-sided evaluation of the index-form identities, and the
integrand quadratic form over a space of harmonic forms.

The functions are the Euclidean coordinates of omega-sharp (surface case) or
of the wedge N ^ omega-sharp (general case); summing the index form over them
collapses, after the Bochner formula, to a curvature/second-fundamental-form
integral evaluated here independently through the ambient model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ambient import SphereModel, _ProductSphereModel
from .hodge import bochner_residual, combine, hodge_star_surface
from .spectral import assemble_jacobi


class TestFunctionError(Exception):
    pass


@dataclass
class TestFunctionSet:
    """Node-sampled test functions u_i or u_ij with their norm identity."""

    mode: str
    surface: object
    functions: np.ndarray  # (n_nodes, count)
    form_norm_sq: np.ndarray  # |omega|^2 at nodes

    @property
    def count(self):
        return self.functions.shape[1]

    def norm_identity_residual(self):
        """max over nodes of | sum_i u_i^2 - |omega|^2 | (must be ~1e-12)."""
        total = np.einsum("ni,ni->n", self.functions, self.functions)
        return float(np.abs(total - self.form_norm_sq).max())


def test_functions(surface, form, mode, rotation=None):
    """Build the coordinate test functions of `form` on `surface`.

    mode 'Prop31' uses the d coordinates of omega-sharp, 'Prop31-star' those
    of the starred form (surfaces only), 'Prop32' the d(d-1)/2 coordinates of
    N wedge omega-sharp.  `rotation` optionally rotates the Euclidean axes
    (the sums of squares are invariant under it).
    """
    d = surface.embed_dim
    if rotation is not None:
        rotation = np.asarray(rotation)
        if rotation.shape != (d, d):
            raise TestFunctionError("rotation must be a d x d matrix")

    if mode in ("Prop31", "Prop31-star"):
        src = form
        if mode == "Prop31-star":
            if surface.dim != 2:
                raise TestFunctionError("the starred mode needs a surface (n = 2)")
            src = hodge_star_surface(surface, form)
        sharp = src.sharp
        if rotation is not None:
            sharp = sharp @ rotation.T
        funcs = sharp
    elif mode == "Prop32":
        sharp = form.sharp
        N = surface.normals
        if rotation is not None:
            sharp = sharp @ rotation.T
            N = N @ rotation.T
        iu, ju = np.triu_indices(d, k=1)
        funcs = N[:, iu] * sharp[:, ju] - N[:, ju] * sharp[:, iu]
    else:
        raise TestFunctionError(f"unknown mode {mode!r}")
    return TestFunctionSet(
        mode=mode, surface=surface, functions=funcs, form_norm_sq=form.norm_sq
    )


# ---------------------------------------------------------------------------
# ambient integrand pieces at the nodes

def integrand_fields(surface, sharp):
    """Batched node fields entering the curvature integrands:
    sum_k |II(e_k, w)|^2, sum_k |II(e_k, N)|^2, sum_k Rm(e_k, w, e_k, w),
    Ric(N, N), and the ambient scalar curvature."""
    model = surface.ambient
    frames = surface.node_fields()["frames"]
    N = surface.normals
    n_nodes = len(N)

    if isinstance(model, SphereModel):
        # II(X, Y) = -<X, Y> x on the unit sphere
        comp = np.einsum("nad,nd->na", frames, sharp)
        ii_ew = np.einsum("na,na->n", comp, comp)
        ii_en = np.zeros(n_nodes)  # frames orthogonal to the ambient-tangent N
        w_sq = np.einsum("nd,nd->n", sharp, sharp)
        rm_ew = surface.dim * w_sq - ii_ew
        dim = model.intrinsic_dim
        ric_nn = np.full(n_nodes, float(dim - 1))
        scal = np.full(n_nodes, float(dim * (dim - 1)))
        return ii_ew, ii_en, rm_ew, ric_nn, scal

    if isinstance(model, _ProductSphereModel):
        s = model.split

        def split(v):
            return v[..., :s], v[..., s:]

        e1, e2 = split(frames)
        w1, w2 = split(sharp)
        n1, n2 = split(N)
        # II((X1,X2),(Y1,Y2)) = (-<X1,Y1> c, -<X2,Y2> s), unit factor points
        a1 = np.einsum("nad,nd->na", e1, w1)
        a2 = np.einsum("nad,nd->na", e2, w2)
        ii_ew = np.einsum("na,na->n", a1, a1) + np.einsum("na,na->n", a2, a2)
        b1 = np.einsum("nad,nd->na", e1, n1)
        b2 = np.einsum("nad,nd->na", e2, n2)
        ii_en = np.einsum("na,na->n", b1, b1) + np.einsum("na,na->n", b2, b2)

        rm_ew = np.zeros(n_nodes)
        for (e, wf, dimf) in ((e2, w2, model.intrinsic_dim - model.dim1),
                              (e1, w1, model.dim1)):
            if dimf < 2:
                continue
            ee = np.einsum("nad,nad->na", e, e)
            ww = np.einsum("nd,nd->n", wf, wf)
            ew = np.einsum("nad,nd->na", e, wf)
            rm_ew += np.einsum("na,n->n", ee, ww) - np.einsum("na,na->n", ew, ew)

        ric_nn = np.zeros(n_nodes)
        scal = np.zeros(n_nodes)
        for (nf, dimf) in ((n2, model.intrinsic_dim - model.dim1),
                           (n1, model.dim1)):
            if dimf < 2:
                continue
            ric_nn += (dimf - 1) * np.einsum("nd,nd->n", nf, nf)
            scal += dimf * (dimf - 1)
        return ii_ew, ii_en, rm_ew, ric_nn, scal

    # generic fallback: one batched call per field over the interior nodes
    ii_ew, ii_en, rm_ew, ric_nn, scal = np.zeros((5, n_nodes))
    i = np.flatnonzero(surface.node_fields()["interior"])
    pt = surface.model_point_fn(surface.node_params[i])
    pt_e = np.expand_dims(pt, 1)  # broadcasts against the frame axis
    e, w = frames[i], sharp[i, None]
    ii_w, ii_n = model.ii(pt_e, e, w), model.ii(pt_e, e, N[i, None])
    ii_ew[i] = np.einsum("nad,nad->n", ii_w, ii_w)
    ii_en[i] = np.einsum("nad,nad->n", ii_n, ii_n)
    rm_ew[i] = model.riemann_xyxy(pt_e, e, w).sum(axis=-1)
    ric_nn[i] = model.ricci(pt, N[i])
    scal[i] = model.scalar_curvature(pt)
    return ii_ew, ii_en, rm_ew, ric_nn, scal


def _rhs_integrand(surface, form, mode):
    sharp = form.sharp
    w_sq = form.norm_sq
    ii_ew, ii_en, rm_ew, ric_nn, scal = integrand_fields(surface, sharp)
    if mode == "Prop32":
        return ii_ew + ii_en * w_sq - rm_ew - ric_nn * w_sq
    if mode == "Prop31":
        return ii_ew - 0.5 * scal * w_sq
    if mode == "Prop43":
        star_sharp = hodge_star_surface(surface, form).sharp
        ii_ew_star = integrand_fields(surface, star_sharp)[0]
        return ii_ew + ii_ew_star - scal * w_sq
    raise TestFunctionError(f"unknown integrand mode {mode!r}")


def q_identity_report(surface, form, mode, system=None, bochner_tol=1e-6):
    """Both sides of the summed index-form identity and their mismatch.

    lhs sums Q over the test functions through the assembled discrete
    matrices; rhs integrates the ambient curvature integrand by quadrature.
    Non-harmonic forms are rejected through the Bochner residual.
    """
    if mode == "Prop31" and surface.dim != 2:
        raise TestFunctionError(
            "the coordinate identity for omega-sharp holds for surfaces "
            "in three-dimensional ambients only (n = 2)"
        )
    res = bochner_residual(surface, form)
    if res > bochner_tol:
        raise TestFunctionError(
            f"form is not harmonic: integrated Bochner residual {res:.3e}"
        )
    system = system or assemble_jacobi(surface)
    fem = surface.fem()
    tf = test_functions(surface, form, mode)
    lhs = sum(
        system.q_value(fem.to_dof(tf.functions[:, i])) for i in range(tf.count)
    )
    integrand = _rhs_integrand(surface, form, mode)
    rhs = fem.integrate(fem.to_dof(integrand))
    norm_sq = fem.integrate(fem.to_dof(form.norm_sq))
    return {
        "mode": mode,
        "lhs": lhs,
        "rhs": rhs,
        "norm_sq_integral": norm_sq,
        "relative_residual": abs(lhs - rhs) / norm_sq,
        "bochner_residual": res,
    }


# ---------------------------------------------------------------------------
# integrand quadratic form over a basis of harmonic forms

@dataclass
class IntegrandForm:
    """Gram matrix of the certificate integrand over a harmonic basis.

    c^T gram c integrates the curvature integrand for omega = sum c_a omega_a;
    c^T mass c integrates |omega|^2.
    """

    mode: str
    gram: np.ndarray
    mass: np.ndarray

    @property
    def q(self):
        return self.gram.shape[0]

    def hypothesis_margin(self, eta):
        """Largest eigenvalue of gram - eta * mass (Prop41) or
        gram - 2 eta * mass (Prop43, preserving the verbatim factor)."""
        factor = 2.0 if self.mode == "Prop43" else 1.0
        vals = np.linalg.eigvalsh(self.gram - factor * eta * self.mass)
        return float(vals[-1])


def integrand_quadratic_form(surface, basis, mode="Prop32", cond_limit=1e8):
    """Assemble the integrand Gram matrix on a basis of harmonic forms by
    polarization of the pointwise-quadratic integrand."""
    if not basis:
        raise TestFunctionError("empty basis of harmonic forms")
    if mode == "Prop43" and surface.dim != 2:
        raise TestFunctionError("the starred certificate needs a surface (n = 2)")
    fem = surface.fem()
    q = len(basis)

    def integral(form):
        if np.abs(form.components).max() == 0.0:
            raise TestFunctionError("zero form not allowed in a basis")
        return fem.integrate(fem.to_dof(_rhs_integrand(surface, form, mode)))

    diag = [integral(w) for w in basis]
    G = np.zeros((q, q))
    M = np.zeros((q, q))
    for a in range(q):
        G[a, a] = diag[a]
        M[a, a] = basis[a].l2_norm_sq()
        for b in range(a + 1, q):
            s = combine([basis[a], basis[b]], [1.0, 1.0])
            G[a, b] = G[b, a] = 0.5 * (
                fem.integrate(fem.to_dof(_rhs_integrand(surface, s, mode)))
                - diag[a] - diag[b]
            )
            M[a, b] = M[b, a] = basis[a].l2_inner(basis[b])
    if np.linalg.cond(M) > cond_limit:
        raise TestFunctionError("harmonic basis is ill-conditioned")
    return IntegrandForm(mode=mode, gram=G, mass=M)
