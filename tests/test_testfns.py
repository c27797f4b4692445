import tracemalloc

import numpy as np
import pytest

from indexbound import hodge, hypersurface as hyp, testfns
from indexbound.ambient import (
    CircleTimesSphereModel,
    ComplexProjectiveVeroneseModel,
    SphereModel,
)
from indexbound.spectral import SpectralSystem
from oracles import (
    gradient_one_form,
    scalar_and_mean_curvature,
    whole_grid_index_form_sum,
)


@pytest.fixture(scope="module")
def torus_forms(torus48):
    return hodge.harmonic_one_forms(torus48)


@pytest.fixture(scope="module")
def torus_system(torus48):
    return SpectralSystem(torus48)


def test_wedge_family_counts(torus48, torus_forms):
    w = torus_forms[0]
    fam32 = testfns.test_functions(torus48, w, "Prop32")
    assert fam32.shape == (torus48.grid.n_nodes, 4 * 3 // 2)  # pairs in R^4
    fam31 = testfns.test_functions(torus48, w, "Prop31")
    assert fam31.shape == (torus48.grid.n_nodes, 4)


def test_norm_identity(torus48, torus_forms):
    form = torus_forms[0]
    for mode in ("Prop32", "Prop31"):
        fam = testfns.test_functions(torus48, form, mode)
        # max over nodes of | sum_i u_i^2 - |omega|^2 |
        total = np.einsum("ni,ni->n", fam, fam)
        assert np.abs(total - np.einsum("na,na->n", form, form)).max() < 1e-12


def test_rotation_invariance(torus48, torus_forms, torus_system, rng):
    w = torus_forms[0]
    a = rng.standard_normal((4, 4))
    rot = np.linalg.qr(a)[0]
    base = testfns.test_functions(torus48, w, "Prop32")
    # the wedge functions of the rotated sharp and normal
    sharp, N = hodge.sharp(torus48, w) @ rot.T, torus48.normals @ rot.T
    iu, ju = np.triu_indices(4, k=1)
    rotd = N[:, iu] * sharp[:, ju] - N[:, ju] * sharp[:, iu]
    fem = torus_system.fem
    q, q_rotated = fem.index_form_sums([fem.to_dof(base), fem.to_dof(rotd)])
    assert abs(q - q_rotated) < 1e-10


def test_energy_identity_wedge(torus48, torus_forms):
    rep = testfns.q_identity_report(torus48, torus_forms[0], 1e-4)["Prop32"]
    assert rep["relative_residual"] < 1e-4
    assert abs(rep["rhs"] / rep["norm_sq_integral"] + 2.0) < 1e-6


def test_energy_identity_coordinates(torus48, torus_forms):
    rep = testfns.q_identity_report(torus48, torus_forms[0], 1e-4)["Prop31"]
    assert rep["relative_residual"] < 1e-4


def test_identity_modes_in_one_call_match_single_calls(torus48, torus_forms):
    # one formation of each chunk of K - P cells and one Bochner residual
    # serve both modes of a surface, with the numbers of each mode's own
    # sums, bit for bit; the chunked sum is the whole grid's to roundoff
    form = torus_forms[0]
    both = testfns.q_identity_report(torus48, form, 1e-4)
    assert list(both) == ["Prop32", "Prop31"]
    fem = torus48.fem()
    for mode, rep in both.items():
        U = fem.to_dof(testfns.test_functions(torus48, form, mode))
        [lhs] = fem.index_form_sums([U])
        rhs = fem.integrate(fem.to_dof(
            testfns._rhs_integrand(torus48, form, mode)))
        assert (rep["lhs"], rep["rhs"]) == (lhs, rhs)
        assert rep["bochner_residual"] == hodge.bochner_residual(torus48, form)
        whole = whole_grid_index_form_sum(fem, U)
        assert abs(lhs - whole) <= 1e-13 * abs(whole)


def test_identity_heap_peak():
    """The traced heap of both identities on the bundled 96-node Clifford
    torus (9,216 nodes, 2,304 cells), every cache warm, stays under 2.5 MiB;
    it reads 1.97 MiB, and with the cells of K - P of the whole grid formed
    at once it read 3.75 MiB."""
    surface = hyp.clifford_torus(SphereModel(3), 96)
    form = hodge.combine(hodge.harmonic_one_forms(surface), [0.3, -1.1])
    testfns.q_identity_report(surface, form, 1e-4)
    tracemalloc.start()
    try:
        testfns.q_identity_report(surface, form, 1e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20


def test_identity_rejects_gradient_probe(torus48):
    probe = gradient_one_form(
        torus48, lambda p: np.sin(p[:, 0]) * np.cos(p[:, 1])
    )
    with pytest.raises(testfns.TestFunctionError):
        testfns.q_identity_report(torus48, probe, 1e-4)


def test_coordinate_mode_needs_dimension_two():
    # the coordinate identity holds on surfaces (n = 2) only, so a
    # three-dimensional hypersurface reports the wedge identity alone
    surf = hyp.generalized_clifford(SphereModel(4), 12)
    forms = hodge.harmonic_one_forms(surf)
    assert list(testfns.q_identity_report(surf, forms[0], 1e-4)) == ["Prop32"]


def test_starred_integrand_needs_dimension_two():
    # refused by the integrand itself, so every caller reads the reason
    surf = hyp.generalized_clifford(SphereModel(4), 8)
    with pytest.raises(testfns.TestFunctionError, match="n = 2"):
        testfns.integrand_matrices(surf, "Prop43")


def test_quadratic_form_torus(torus48, torus_forms):
    gram, mass = testfns.integrand_quadratic_form(torus48, torus_forms, "Prop32")
    assert np.abs(gram - np.diag([-2.0, -2.0])).max() < 1e-5
    assert np.abs(mass - np.eye(2)).max() < 1e-10
    gram, _ = testfns.integrand_quadratic_form(torus48, torus_forms, "Prop43")
    assert np.abs(gram - np.diag([-4.0, -4.0])).max() < 1e-5


def test_hypothesis_margin(torus48, torus_forms):
    # the largest eigenvalue of gram - eta * mass, the Prop41 hypothesis
    gram, mass = testfns.integrand_quadratic_form(torus48, torus_forms, "Prop32")
    margin = lambda eta: np.linalg.eigvalsh(gram - eta * mass)[-1]
    assert margin(0.0) < 0.0
    assert margin(-2.0 + 1e-3) < 0.0
    assert margin(-2.1) > 0.0


def test_higher_dimension_identity():
    surf = hyp.generalized_clifford(SphereModel(4), 20)
    forms = hodge.harmonic_one_forms(surf)
    rep = testfns.q_identity_report(surf, forms[0], 5e-3)["Prop32"]
    assert rep["relative_residual"] < 5e-3
    assert abs(rep["rhs"] / rep["norm_sq_integral"] + 4.0) < 1e-6


def _closed_form_fields(surface, sharp):
    """The sphere and circle-product integrand fields in closed form:
    sum_k |II(e_k, w)|^2, sum_k |II(e_k, N)|^2, sum_k Rm(e_k, w, e_k, w),
    Ric(N, N) and the ambient scalar curvature at every node."""
    model = surface.ambient
    frames = surface.node_fields()["frames"]
    N = surface.normals
    n_nodes = len(N)
    if isinstance(model, SphereModel):
        # II(X, Y) = -<X, Y> x on the unit sphere
        comp = np.einsum("nad,nd->na", frames, sharp)
        ii_ew = np.einsum("na,na->n", comp, comp)
        w_sq = np.einsum("nd,nd->n", sharp, sharp)
        dim = model.intrinsic_dim
        return (ii_ew, np.zeros(n_nodes), surface.dim * w_sq - ii_ew,
                np.full(n_nodes, dim - 1.0), np.full(n_nodes, dim * (dim - 1.0)))
    # II((X1, X2), (Y1, Y2)) = (-<X1, Y1> c, -<X2, Y2> s)
    e1, e2 = model.factors(frames)
    w1, w2 = model.factors(sharp)
    n1, n2 = model.factors(N)
    a1 = np.einsum("nad,nd->na", e1, w1)
    a2 = np.einsum("nad,nd->na", e2, w2)
    b1 = np.einsum("nad,nd->na", e1, n1)
    b2 = np.einsum("nad,nd->na", e2, n2)
    ii_ew = np.einsum("na,na->n", a1, a1) + np.einsum("na,na->n", a2, a2)
    ii_en = np.einsum("na,na->n", b1, b1) + np.einsum("na,na->n", b2, b2)
    # the curvature is the sphere factor's alone, the circle being flat
    ee = np.einsum("nad,nad->na", e2, e2)
    ww = np.einsum("nd,nd->n", w2, w2)
    ew = np.einsum("nad,nd->na", e2, w2)
    n = model.n
    rm_ew = np.einsum("na,n->n", ee, ww) - np.einsum("na,na->n", ew, ew)
    ric_nn = (n - 1) * np.einsum("nd,nd->n", n2, n2)
    return ii_ew, ii_en, rm_ew, ric_nn, np.full(n_nodes, n * (n - 1.0))


def _closed_form_ricci_m(surface, U):
    """Ric^M(U, U) = Ric(U, U) - Rm(U, N, U, N) - |A U|^2 in closed form."""
    model = surface.ambient
    fields = surface.node_fields()
    N = surface.normals
    Uf = np.einsum("nad,nd->na", fields["frames"], U)
    AU = np.einsum("nab,nb->na", fields["shape_operator"], Uf)
    dot = lambda x, y: np.einsum("nd,nd->n", x, y)
    if isinstance(model, SphereModel):
        ric_u, rm_unun = model.einstein_constant * dot(U, U), dot(U, U)
    else:
        U2, N2 = model.factors(U)[1], model.factors(N)[1]
        ric_u = (model.n - 1) * dot(U2, U2)
        rm_unun = dot(U2, U2) * dot(N2, N2) - dot(U2, N2) ** 2
    return ric_u - rm_unun - dot(AU, AU)


@pytest.mark.parametrize("make", [
    lambda: hyp.clifford_torus(SphereModel(3), 24),
    lambda: hyp.circle_times_equator(CircleTimesSphereModel(3), 10),
    lambda: hyp.generalized_clifford(SphereModel(4), 12),
])
def test_generic_integrand_matches_closed_forms(make):
    """The one curvature evaluation against the closed forms, at every node
    (chart poles included)."""
    surf = make()
    c = hodge.harmonic_one_forms(surf)[0]
    cv = surf.ambient_curvature()
    generic = (np.einsum("na,nab,nb->n", c, cv.ii_ew, c), cv.ii_en,
               np.einsum("na,nab,nb->n", c, cv.rm_ew, c), cv.ric_nn, cv.scal)
    sharp = hodge.sharp(surf, c)
    for a, b in zip(_closed_form_fields(surf, sharp), generic):
        assert np.abs(a - b).max() < 1e-12
    ric_m = hodge._ricci_m(surf, c)
    assert np.abs(_closed_form_ricci_m(surf, sharp) - ric_m).max() < 1e-12
    assert surf.ambient_curvature() is cv  # evaluated once per surface


def test_curvature_on_cp2_geodesic_sphere():
    surf = hyp.geodesic_sphere_cp2(ComplexProjectiveVeroneseModel(2), 12)
    cv = surf.ambient_curvature()
    model = surf.ambient
    assert np.abs(cv.ric_nn - model.einstein_constant).max() < 1e-12
    assert model.einstein_constant == 6.0
    scal, _ = scalar_and_mean_curvature(
        model, surf.point_fn(surf.node_params))
    assert np.abs(cv.scal - scal).max() < 1e-12


@pytest.mark.parametrize("mode", ["Prop32", "Prop43"])
def test_gram_matches_polarization(torus48, torus_forms, mode):
    """The Gram matrix from one contraction against the polarization of the
    integrated integrand."""
    fem = torus48.fem()

    def integral(form):
        return fem.integrate(fem.to_dof(testfns._rhs_integrand(torus48, form, mode)))

    a, b = torus_forms
    ref = np.diag([integral(a), integral(b)])
    ref[0, 1] = ref[1, 0] = 0.5 * (
        integral(hodge.combine([a, b], [1.0, 1.0])) - ref[0, 0] - ref[1, 1])
    gram, _ = testfns.integrand_quadratic_form(torus48, torus_forms, mode)
    assert np.abs(gram - ref).max() < 1e-12 * np.abs(ref).max()
