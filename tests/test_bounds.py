from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from indexbound import bounds, hodge, hypersurface as hyp
from indexbound.ambient import (
    AMBIENT_KINDS,
    CircleTimesSphereModel,
    ComplexProjectiveVeroneseModel,
    EllipsoidModel,
    SphereModel,
)
from indexbound.spectral import SpectralSystem
from oracles import CAYLEY_PLANE, QUATERNIONIC_PLANE


@pytest.fixture(scope="module")
def torus_forms(torus48):
    return hodge.harmonic_one_forms(torus48)


@pytest.fixture(scope="module")
def torus_spectrum(torus48):
    return SpectralSystem(torus48).spectrum(how_many=16)


def test_certificate_at_zero(torus48, torus_forms, torus_spectrum):
    d = bounds.concentration_certificate(
        torus48, torus_forms, 0.0, mode="Prop41", spectrum=torus_spectrum
    )
    assert d["required"] == 1
    assert d["actual"] == 5
    assert d["margin"] < 0.0
    assert d["verdict"] == "pass"


def test_certificate_near_cluster(torus48, torus_forms, torus_spectrum):
    d = bounds.concentration_certificate(
        torus48, torus_forms, -2.0 + 1e-3, mode="Prop41",
        spectrum=torus_spectrum,
    )
    assert d["actual"] == 5
    assert d["margin"] < 0.0
    assert d["verdict"] == "pass"


def test_certificate_equality_never_passes(torus48, torus_forms,
                                           torus_spectrum):
    # at the exact cluster value the hypothesis margin is zero up to roundoff
    d = bounds.concentration_certificate(
        torus48, torus_forms, -2.0, mode="Prop41", spectrum=torus_spectrum
    )
    assert abs(d["margin"]) < 1e-10
    assert d["counts_ok"]
    assert d["verdict"] == "fail"  # strict inequality required


def test_starred_certificate(torus48, torus_forms, torus_spectrum):
    d = bounds.concentration_certificate(
        torus48, torus_forms, 0.0, mode="Prop43", spectrum=torus_spectrum
    )
    assert d["required"] == 1
    assert abs(d["required_real"] - 2.0 / 8.0) < 1e-12
    assert d["actual"] == 5
    assert d["margin"] < 0.0
    assert abs(d["normalized_margin"] - d["margin"] / 2.0) < 1e-12
    assert d["verdict"] == "pass"


def test_unknown_certificate_mode_is_refused_first():
    # the mode is checked before any integrand is formed: on a 3-D surface,
    # where the starred integrand does not exist, an unknown mode is named
    surf = hyp.generalized_clifford(SphereModel(4), 8)
    spectrum = SimpleNamespace(count_below=lambda eta: 0)
    with pytest.raises(bounds.BoundsError, match="unknown certificate mode"):
        bounds.concentration_certificate(
            surf, hodge.harmonic_one_forms(surf), 0.0, mode="Prop99",
            spectrum=spectrum)


def test_constant_table():
    assert bounds.theorem_constant(SphereModel(dim=3)) == Fraction(1, 6)
    assert bounds.theorem_constant(
        ComplexProjectiveVeroneseModel(m=2)
    ) == Fraction(1, 36)
    assert bounds.theorem_constant(
        CircleTimesSphereModel(n=3)
    ) == Fraction(1, 15)
    # HP^2 and S^2 x S^3 have no ambient model: their constants close at
    # embedding dimensions (2p+1)(p+1) = 15 and p+q+2 = 7
    assert Fraction(1, 105) == Fraction(2, 15 * 14)
    assert Fraction(1, 21) == Fraction(2, 7 * 6)


def test_constant_closure_families():
    for m in range(1, 7):
        bounds.theorem_constant(ComplexProjectiveVeroneseModel(m=m))
    # HP^p has no ambient model: its constant closes at embedding dimension
    # (2p+1)(p+1), as the Cayley plane's 1/351 does at 27
    for p in range(1, 5):
        d = (2 * p + 1) * (p + 1)
        assert (Fraction(2, (2 * p + 3) * (2 * p + 1) * (p + 1) * p)
                == Fraction(2, d * (d - 1)))
    d = 27
    assert Fraction(1, 351) == Fraction(2, d * (d - 1))


def test_index_bound_table(torus48, torus_spectrum):
    rep = bounds.index_bound_report(torus48, spectrum=torus_spectrum)
    assert rep["constant"] == "1/6"
    assert rep["bound"] == 5  # ceil(2/6) + n + 2
    assert rep["index"] == 5
    assert rep["consistent"] and rep["tight"]


def test_index_bound_reads_the_declared_potential():
    # in a sphere the n + 2 term applies unless the surface is totally
    # geodesic, which its declared potential says: P = Ric(N, N) + |A|^2
    # equals the Einstein constant exactly when |A|^2 = 0
    spectrum = SimpleNamespace(morse_index=0)
    bound = lambda surf: bounds.index_bound_report(surf, spectrum)["bound"]
    assert bound(hyp.equator_in_sphere(SphereModel(3), 8)) == 0
    torus = hyp.clifford_torus(SphereModel(3), 8)
    assert bound(torus) == 5  # ceil(2/6) + 4
    torus.potential = 2.0  # the Einstein constant of S^3
    assert bound(torus) == 1
    assert bound(hyp.generalized_clifford(SphereModel(4), 8)) == 6  # 1 + 5


@pytest.mark.parametrize("multiple, verdict", [
    (-2.0, "pass"), (-0.5, "borderline"), (0.5, "borderline"), (2.0, "fail"),
])
def test_strict_rule_at_the_tolerance(multiple, verdict):
    # a rank-one stub with n = 3: margin (8/3)(6 - K) on the scale
    # (8/3)(6 + |K|), about 32, so K = 6 - 12 x tol puts the margin at
    # x tol of its scale
    K = 6.0 - 12.0 * multiple * bounds.STRICT_TOL
    stub = SimpleNamespace(einstein_constant=K, intrinsic_dim=4, kind="stub")
    rep = bounds.margins_cross(stub)
    ratio = rep["values"]["margin"] / (8.0 / 3.0 * (6.0 + K))
    assert abs(ratio / bounds.STRICT_TOL - multiple) < 1e-3
    assert rep["verdict"].split(":")[0] == verdict


def test_margins_sphere(torus48, torus_forms):
    rep = bounds.margins_sphere(torus48, torus_forms[0])
    assert rep["verdict"] == "pass"
    assert rep["values"]["max_deviation"] < 1e-8


def test_margins_cross():
    cp2 = bounds.margins_cross(ComplexProjectiveVeroneseModel(m=2))
    assert cp2["values"]["margin"] == 0.0
    assert cp2["verdict"].startswith("borderline")
    hp2 = bounds.margins_cross(QUATERNIONIC_PLANE)
    assert abs(hp2["values"]["margin"] + 16.0) < 1e-12
    assert hp2["verdict"] == "pass"
    cayley = bounds.margins_cross(CAYLEY_PLANE)
    assert abs(cayley["values"]["margin"] + 48.0) < 1e-12
    assert cayley["verdict"] == "pass"


def test_q_profile_minimum(torus48, torus_forms):
    surf = hyp.circle_times_equator(CircleTimesSphereModel(3), 8)
    form = hodge.harmonic_one_forms(surf)[0]
    rep = bounds.margins_product_q(surf, form)
    assert abs(rep["values"]["q_min"] - 7.0 / 8.0) < 1e-4
    assert rep["values"]["closed_form_agreement"] < 1e-12
    # the minimiser satisfies cos^2(theta) = 1/4 at phi = pi/2
    assert abs(np.cos(rep["values"]["argmin_theta"]) ** 2 - 0.25) < 1e-2
    assert abs(rep["values"]["argmin_phi"] - np.pi / 2) < 1e-2
    assert rep["values"]["integrand_max_circle_times_equator_s2"] < 0.0
    assert rep["verdict"] == "pass"
    assert rep["thresholds"]["q_min_tol"] == 1e-6
    assert rep["thresholds"]["tol"] == bounds.STRICT_TOL
    # the product margin is run on S^1 x S^n only
    assert "product_q" not in bounds.application_margins(torus48, torus_forms)


@pytest.mark.parametrize("nodes", [12, 16, 24])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_product_margin_at_n2_is_borderline(monkeypatch, nodes, sign):
    # at n = 2 the wedge integrand is zero up to roundoff (about 1e-17),
    # against a scale from its curvature terms that does not vanish: the
    # verdict is borderline whatever the sign of that roundoff
    surf = hyp.circle_times_equator(CircleTimesSphereModel(2), nodes)
    integrand = bounds._rhs_integrand
    monkeypatch.setattr(bounds, "_rhs_integrand",
                        lambda *args: sign * integrand(*args))
    rep = bounds.margins_product_q(surf, hodge.harmonic_one_forms(surf)[0])
    value = rep["values"]["integrand_max_circle_times_equator_s1"]
    scale = rep["thresholds"]["integrand_scale"]
    assert abs(value) <= bounds.STRICT_TOL * scale
    assert scale > 1e-2
    assert rep["verdict"].startswith("borderline")


def test_margins_convex():
    round_s = bounds.margins_convex(
        EllipsoidModel(semi_axes=[1, 1, 1, 1]))
    assert abs(round_s["values"]["ratio_max"] - 1.0) < 1e-10
    assert round_s["verdict"] == "pass"
    mild = bounds.margins_convex(
        EllipsoidModel(semi_axes=[1, 1, 1, 1.1]))
    assert mild["verdict"] == "pass"
    assert mild["values"]["ratio_max"] < np.sqrt(1.5)
    elongated = bounds.margins_convex(
        EllipsoidModel(semi_axes=[1, 1, 1, 2.0]))
    assert elongated["verdict"] == "fail"


def test_margins_scalar3():
    rep = bounds.margins_scalar3(SphereModel(dim=3))
    assert abs(rep["values"]["min_2R_minus_H2"] - 3.0) < 1e-10
    assert rep["values"]["contraction_residual"] < 1e-8
    assert rep["verdict"] == "pass"


@pytest.mark.parametrize("kind,params", [
    ("sphere", {"dim": 3}),
    ("complex_projective_veronese", {"m": 2}),
])
def test_scalar3_contraction_catches_a_wrong_pair_table(monkeypatch, kind,
                                                        params):
    # R from the Ricci sums does not read ii_frame_pairs, so a pair table
    # whose diagonal is off by 1e-6 breaks the contraction identity
    ambient = AMBIENT_KINDS[kind].model(**params)
    pairs = type(ambient).ii_frame_pairs

    def scaled(self, point, frame=None):
        T = pairs(self, point, frame)
        k = np.arange(T.shape[-2])
        T[..., k, k, :] *= 1.0 + 1e-6
        return T

    monkeypatch.setattr(type(ambient), "ii_frame_pairs", scaled)
    rep = bounds.margins_scalar3(ambient)
    assert rep["values"]["contraction_residual"] > 1e-8
    assert rep["verdict"] == "fail"


def test_application_dispatch(torus48, torus_forms):
    # the margins the sphere's entry lists, each its own function's report
    margins = bounds.application_margins(torus48, torus_forms, seed=5)
    assert list(margins) == ["sphere", "scalar3"]
    assert margins["sphere"] == bounds.margins_sphere(torus48, torus_forms[0])
    assert margins["scalar3"] == bounds.margins_scalar3(torus48.ambient, seed=5)
    # the form margins have nothing to be taken on when b1 = 0
    assert list(bounds.application_margins(torus48, [])) == ["scalar3"]
    product = hyp.circle_times_equator(CircleTimesSphereModel(3), 8)
    assert list(bounds.application_margins(product, [])) == ["scalar3"]


def test_borderline_residuals(geodesic_cp2):
    rep = bounds.borderline_cp_report(geodesic_cp2)
    assert rep["div_jn_residual"] < 1e-8
    assert 0.0 < rep["decomposition_residual"] < 2e-7
    assert rep["traced_gauss_residual"] < 1e-10


def test_borderline_decomposition_catches_a_scaled_structure(monkeypatch,
                                                            geodesic_cp2):
    # |JN| = 1 enters the norm decomposition; a complex structure scaled by
    # 1 + 1e-4 moves |Xf|^2 |JN|^2 off |Xf|^2 and fails the 1e-5 tolerance
    model = ComplexProjectiveVeroneseModel
    structure = model.complex_structure
    monkeypatch.setattr(model, "complex_structure",
                        lambda self, z, X: (1.0 + 1e-4) * structure(self, z, X))
    rep = bounds.borderline_cp_report(geodesic_cp2)
    assert rep["decomposition_residual"] > 1e-5


def test_borderline_decay_under_refinement():
    coarse, fine = (
        bounds.borderline_cp_report(
            hyp.geodesic_sphere_cp2(ComplexProjectiveVeroneseModel(2), nodes))
        for nodes in (12, 24))
    assert fine["decomposition_residual"] < coarse["decomposition_residual"]
    assert fine["step"] < coarse["step"]


def test_borderline_requires_complex_ambient(torus48):
    # the lemmas hold in a complex projective ambient only: a skipped block
    assert bounds.borderline_cp_report(torus48) == {
        "skipped": "ambient is not complex projective"}


def test_certificate_roundoff_margin_fails(monkeypatch):
    # a hypothesis margin of -1e-16 of the mass scale is roundoff and fails;
    # one of -1e-3 passes, with the same counts
    surface = SimpleNamespace(dim=2, embed_dim=4)
    spectrum = SimpleNamespace(count_below=lambda eta: 5)
    for margin, verdict in ((-1e-16, "fail"), (-1e-3, "pass")):
        # at eta = 0 the hypothesis margin is the top eigenvalue of gram
        pair = (3.0 * margin * np.eye(2), 3.0 * np.eye(2))
        monkeypatch.setattr(bounds, "integrand_quadratic_form",
                            lambda *args: pair)
        rep = bounds.concentration_certificate(surface, [None, None], 0.0,
                                               spectrum=spectrum)
        assert (rep["required"], rep["actual"]) == (1, 5)
        assert rep["normalized_margin"] == margin
        assert rep["tol"] == bounds.STRICT_TOL
        assert rep["verdict"] == verdict


def _scalar3_ref(ambient, samples, seed):
    """min 2R - |H|^2 and the contraction residual, one sample at a time."""
    rng = np.random.default_rng(seed)
    min_margin, max_contraction = np.inf, 0.0
    for _ in range(samples):
        p = ambient.random_point(rng)
        frame = ambient.tangent_frame(p)
        R = sum(ambient.riemann_xyxy(p, e, f) for e in frame for f in frame)
        H = sum(ambient.ii_quad(p, e) for e in frame)
        ii_sq = sum(float(ambient.ii(p, e, f) @ ambient.ii(p, e, f))
                    for e in frame for f in frame)
        min_margin = min(min_margin, 2.0 * R - float(H @ H))
        max_contraction = max(max_contraction, abs(R - (float(H @ H) - ii_sq)))
    return min_margin, max_contraction


@pytest.mark.parametrize("kind,params", [
    ("complex_projective_veronese", {"m": 2}),
    ("sphere", {"dim": 3}),
    ("circle_times_sphere", {"n": 3}),
])
def test_scalar3_matches_pointwise_loop(kind, params):
    ambient = AMBIENT_KINDS[kind].model(**params)
    rep = bounds.margins_scalar3(ambient, seed=12345)
    min_margin, contraction = _scalar3_ref(ambient, 200, 12345)
    assert abs(rep["values"]["min_2R_minus_H2"] - min_margin) < 1e-12
    assert abs(rep["values"]["contraction_residual"] - contraction) < 1e-12
    if kind == "complex_projective_veronese":
        assert rep["verdict"].startswith("borderline")


def test_traced_gauss_matches_pointwise_loop(geodesic_cp2):
    model = geodesic_cp2.ambient
    rep = bounds.borderline_cp_report(geodesic_cp2)
    params = geodesic_cp2.node_params
    ok = geodesic_cp2.node_fields()["interior"]
    rng = np.random.default_rng(0)
    idx = rng.choice(np.flatnonzero(ok), size=min(200, int(ok.sum())),
                     replace=False)
    worst = 0.0
    for i in idx:
        z = model.point_from_homogeneous(geodesic_cp2.point_fn(params[i]))
        N = geodesic_cp2.normals[i]
        jn = model.tangent_from_horizontal(
            z, 1j * model.horizontal_from_ambient(z, N))
        frame = model.tangent_frame(z)
        ric = sum(model.riemann_xyxy(z, jn, e) for e in frame)
        worst = max(worst, abs(ric - model.riemann_xyxy(z, jn, N) - 2.0))
    assert abs(rep["traced_gauss_residual"] - worst) < 1e-12
