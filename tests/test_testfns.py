import copy

import numpy as np
import pytest

from indexbound import hodge, hypersurface as hyp, testfns
from indexbound.ambient import AmbientModel
from indexbound.spectral import SpectralSystem


@pytest.fixture(scope="module")
def torus_forms(torus48):
    return hodge.harmonic_one_forms(torus48)


@pytest.fixture(scope="module")
def torus_system(torus48):
    return SpectralSystem(torus48)


def test_wedge_family_counts(torus48, torus_forms):
    w = torus_forms[0]
    fam32 = testfns.test_functions(torus48, w, "Prop32")
    assert fam32.count == 4 * 3 // 2  # antisymmetric pairs in R^4
    fam31 = testfns.test_functions(torus48, w, "Prop31")
    assert fam31.count == 4
    star = testfns.test_functions(torus48, w, "Prop31-star")
    assert star.count == 4


def test_norm_identity(torus48, torus_forms):
    for mode in ("Prop32", "Prop31", "Prop31-star"):
        fam = testfns.test_functions(torus48, torus_forms[0], mode)
        assert fam.norm_identity_residual() < 1e-12


def test_rotation_invariance(torus48, torus_forms, torus_system, rng):
    w = torus_forms[0]
    a = rng.standard_normal((4, 4))
    rot = np.linalg.qr(a)[0]
    base = testfns.test_functions(torus48, w, "Prop32")
    rotd = testfns.test_functions(torus48, w, "Prop32", rotation=rot)
    q = lambda fam: sum(torus_system.q_value(torus48.fem().to_dof(f))
                        for f in fam.functions.T)
    assert abs(q(base) - q(rotd)) < 1e-10


def test_energy_identity_wedge(torus48, torus_forms, torus_system):
    rep = testfns.q_identity_report(
        torus48, torus_forms[0], "Prop32", system=torus_system
    )
    assert rep["relative_residual"] < 1e-4
    assert abs(rep["rhs"] / rep["norm_sq_integral"] + 2.0) < 1e-6


def test_energy_identity_coordinates(torus48, torus_forms, torus_system):
    rep = testfns.q_identity_report(
        torus48, torus_forms[0], "Prop31", system=torus_system
    )
    assert rep["relative_residual"] < 1e-4


def test_identity_rejects_gradient_probe(torus48, torus_system):
    probe = hodge.gradient_one_form(
        torus48, lambda p: np.sin(p[:, 0]) * np.cos(p[:, 1])
    )
    with pytest.raises(testfns.TestFunctionError):
        testfns.q_identity_report(torus48, probe, "Prop32",
                                  system=torus_system)


def test_coordinate_mode_needs_dimension_two():
    surf = hyp.generalized_clifford(3, 12)
    forms = hodge.harmonic_one_forms(surf)
    with pytest.raises(testfns.TestFunctionError):
        testfns.test_functions(surf, forms[0], "Prop31-star")
    with pytest.raises(testfns.TestFunctionError):
        testfns.q_identity_report(surf, forms[0], "Prop31")


def test_quadratic_form_torus(torus48, torus_forms):
    g32 = testfns.integrand_quadratic_form(torus48, torus_forms, "Prop32")
    assert np.abs(g32.gram - np.diag([-2.0, -2.0])).max() < 1e-5
    assert np.abs(g32.mass - np.eye(2)).max() < 1e-10
    g43 = testfns.integrand_quadratic_form(torus48, torus_forms, "Prop43")
    assert np.abs(g43.gram - np.diag([-4.0, -4.0])).max() < 1e-5


def test_hypothesis_margin(torus48, torus_forms):
    g = testfns.integrand_quadratic_form(torus48, torus_forms, "Prop32")
    assert g.hypothesis_margin(0.0) < 0.0
    assert g.hypothesis_margin(-2.0 + 1e-3) < 0.0
    assert g.hypothesis_margin(-2.1) > 0.0


def test_higher_dimension_identity():
    surf = hyp.generalized_clifford(3, 20)
    forms = hodge.harmonic_one_forms(surf)
    rep = testfns.q_identity_report(surf, forms[0], "Prop32")
    assert rep["relative_residual"] < 5e-3
    assert abs(rep["rhs"] / rep["norm_sq_integral"] + 4.0) < 1e-6


class _Opaque(AmbientModel):
    """Forwards the embedding geometry of a model without its type, so that
    the integrand code takes its generic batched path."""

    def __init__(self, inner):
        super().__init__(inner.intrinsic_dim, inner.embed_dim)
        self.inner = inner
        self.einstein_constant = inner.einstein_constant

    def tangent_frame(self, point):
        return self.inner.tangent_frame(point)

    def ii_quad(self, point, X):
        return self.inner.ii_quad(point, X)


@pytest.mark.parametrize("make", [
    lambda: hyp.clifford_torus(24),
    lambda: hyp.circle_times_equator(3, 10),
])
def test_generic_integrand_matches_closed_forms(make):
    surf = make()
    opaque = copy.copy(surf)
    opaque.ambient = _Opaque(surf.ambient)
    ok = surf.node_fields()["interior"]
    sharp = hodge.harmonic_one_forms(surf)[0].sharp
    closed = testfns.integrand_fields(surf, sharp)
    generic = testfns.integrand_fields(opaque, sharp)
    for a, b in zip(closed, generic):
        assert np.abs(a - b)[ok].max() < 1e-12
    ric_closed = hodge._ricci_m(surf, sharp)
    ric_generic = hodge._ricci_m(opaque, sharp)
    assert np.abs(ric_closed - ric_generic)[ok].max() < 1e-12
