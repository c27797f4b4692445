"""End-to-end acceptance checks.

Each test covers one acceptance criterion, prints a single pass/fail line
with the measured quantities, and asserts the stated tolerances and runtime
budgets.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from indexbound import bounds, cli, hodge, hypersurface as hyp, testfns
from indexbound.ambient import (
    CircleTimesSphereModel,
    ComplexProjectiveVeroneseModel,
    EllipsoidModel,
    SphereModel,
)
from indexbound.spectral import SpectralSystem
from oracles import (
    CAYLEY_PLANE,
    minimal_geodesic_sphere_radius,
    random_orthonormal_pair,
    rayleigh_quotient,
)


@pytest.fixture(scope="module")
def t96_forms(torus96):
    return hodge.harmonic_one_forms(torus96)


@pytest.fixture(scope="module")
def t96_system(torus96):
    return SpectralSystem(torus96)


@pytest.fixture(scope="module")
def t96_spectrum(t96_system):
    return t96_system.spectrum(how_many=16)


def _report(num, label, ok, detail, capsys):
    with capsys.disabled():
        print(f"\ncriterion {num:2d} ({label}): "
              f"{'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {num}: {detail}"


def _angle_one_form(surface):
    """The first angle differential on the Clifford torus, exactly sampled:
    frame components (sqrt(2), 0), squared norm 2."""
    comps = np.zeros((surface.grid.n_nodes, 2))
    comps[:, 0] = np.sqrt(2.0)
    return comps


def test_criterion_01_wedge_energy_identity(torus96, t96_forms, capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    forms = [_angle_one_form(torus96)]
    forms += [hodge.combine(t96_forms, rng.standard_normal(2))
              for _ in range(5)]
    worst = 0.0
    ratio_err = 0.0
    for w in forms:
        rep = testfns.q_identity_report(torus96, w)["Prop32"]
        worst = max(worst, rep["relative_residual"])
        ratio_err = max(
            ratio_err, abs(rep["rhs"] / rep["norm_sq_integral"] + 2.0)
        )
    dt = time.perf_counter() - t0
    ok = worst < 1e-4 and ratio_err < 1e-6 and dt < 30.0
    _report(1, "wedge-coordinate energy identity, Clifford torus", ok,
            f"max rel residual {worst:.2e} < 1e-4, "
            f"rhs/|w|^2 off -2 by {ratio_err:.2e} < 1e-6, {dt:.1f}s < 30s",
            capsys)


def test_criterion_02_coordinate_energy_identity(torus96, t96_forms, capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    forms = [_angle_one_form(torus96)]
    forms += [hodge.combine(t96_forms, rng.standard_normal(2))
              for _ in range(5)]
    worst = 0.0
    ratio_err = 0.0
    for w in forms:
        rep = testfns.q_identity_report(torus96, w)["Prop31"]
        worst = max(worst, rep["relative_residual"])
        # integrand sum_k |II(e_k, w)|^2 - (R/2)|w|^2 with R = 6 gives -2|w|^2
        ratio_err = max(
            ratio_err, abs(rep["rhs"] / rep["norm_sq_integral"] + 2.0)
        )
    dt = time.perf_counter() - t0
    ok = worst < 1e-4 and ratio_err < 1e-6 and dt < 30.0
    _report(2, "coordinate energy identity, ambient scalar curvature 6", ok,
            f"max rel residual {worst:.2e} < 1e-4, "
            f"rhs/|w|^2 off -2 by {ratio_err:.2e}, {dt:.1f}s < 30s", capsys)


def test_criterion_03_spectrum_oracle(torus96, capsys):
    t0 = time.perf_counter()
    spec = SpectralSystem(torus96).spectrum(how_many=16)
    vals = spec.eigenvalues
    oracle = np.array([-4.0] + [-2.0] * 4 + [0.0] * 4)
    rel_err = max(
        abs(vals[0] + 4.0) / 4.0, np.abs(vals[1:5] + 2.0).max() / 2.0
    )
    zero_err = np.abs(vals[5:9]).max()
    eq_errs = []
    eq_idx = []
    for n, nodes in ((2, 33), (3, 17)):
        s = SpectralSystem(
            hyp.equator_in_sphere(SphereModel(n + 1), nodes)
        ).spectrum(how_many=6)
        eq_errs.append(abs(s.eigenvalues[0] + n) / n)
        eq_idx.append(s.morse_index)
    dt = time.perf_counter() - t0
    ok = (
        rel_err < 0.01 and zero_err < 0.05 and spec.morse_index == 5
        and max(eq_errs) < 0.01 and eq_idx == [1, 1] and dt < 120.0
    )
    _report(3, "Jacobi spectrum against analytic oracles", ok,
            f"torus rel err {rel_err:.2e} < 1%, zero cluster {zero_err:.2e} "
            f"< 0.05, index {spec.morse_index} == 5; equator rel err "
            f"{max(eq_errs):.2e} < 1%, indices {eq_idx} == [1, 1]; "
            f"{dt:.1f}s < 120s", capsys)


def test_criterion_04_count_vs_lower_bound(torus96, t96_system, t96_spectrum,
                                           capsys):
    fem = torus96.fem()
    required = math.ceil(Fraction(2, 12) * 2) + 2 + 2
    index = t96_spectrum.morse_index
    rq_err = 0.0
    for i in range(4):
        f = fem.to_dof(torus96.normals[:, i])
        rq = rayleigh_quotient(t96_system, f)
        rq_err = max(rq_err, abs(rq + 2.0) / 2.0)
    ok = index >= required == 5 and rq_err < 0.01
    _report(4, "index against the ceiling-plus-(n+2) lower bound", ok,
            f"index {index} >= {required}, normal-coordinate Rayleigh "
            f"quotients off -2 by {rq_err:.2e} < 1%", capsys)


def test_criterion_05_concentration_certificates(torus96, t96_forms,
                                                 t96_spectrum, capsys):
    t0 = time.perf_counter()
    c41 = bounds.concentration_certificate(
        torus96, t96_forms, 0.0, mode="Prop41", spectrum=t96_spectrum
    )
    c43 = bounds.concentration_certificate(
        torus96, t96_forms, 0.0, mode="Prop43", spectrum=t96_spectrum
    )
    strict = bounds.concentration_certificate(
        torus96, t96_forms, -2.0 + 1e-6, mode="Prop41", spectrum=t96_spectrum
    )
    dt = time.perf_counter() - t0
    ok = (
        c41["verdict"] == "pass" and c41["margin"] < 0
        and c41["required"] == 1 and c41["actual"] == 5
        and c43["verdict"] == "pass" and c43["margin"] < 0
        and c43["required"] == 1 and c43["actual"] == 5
        and strict["verdict"] == "pass" and strict["actual"] == 5
        and dt < 60.0
    )
    _report(5, "concentration-of-spectrum certificates", ok,
            f"plain: margin {c41['margin']:.2f} < 0, {c41['actual']} >= "
            f"{c41['required']}; starred: margin {c43['margin']:.2f} < 0, "
            f"{c43['actual']} >= {c43['required']}; near-cluster threshold "
            f"counts {strict['actual']}; {dt:.1f}s < 60s", capsys)


def test_criterion_06_projective_embedding_identities(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for m in (2, 3):
        model = ComplexProjectiveVeroneseModel(m=m)
        rng = np.random.default_rng(600 + m)
        einstein = 2.0 * m + 2.0  # n + 3 with hypersurface dim n = 2m - 1
        for _ in range(1000):
            z = model.random_point(rng)
            X, Y = random_orthonormal_pair(model, z, rng)
            iixx = model.ii_quad(z, X)
            iiyy = model.ii_quad(z, Y)
            iixy = model.ii(z, X, Y)
            rm = model.riemann_xyxy(z, X, Y)
            jy = model.complex_structure(z, Y)
            worst = max(
                worst,
                abs(iixx @ iixx - 4.0),
                abs(iixx @ iiyy + 2.0 * iixy @ iixy - 4.0),
                abs(iixy @ iixy - (4.0 - rm) / 3.0),
                abs(rm - (1.0 + 3.0 * float(X @ jy) ** 2)),
                abs(model.ricci(z, X) - einstein),
            )
    dt = time.perf_counter() - t0
    ok = worst < 1e-8 and dt < 60.0
    _report(6, "isometric projective embeddings: curvature identities", ok,
            f"complex max residual {worst:.2e} < 1e-8, {dt:.1f}s < 60s",
            capsys)


def test_criterion_07_geodesic_sphere_borderline(capsys):
    t0 = time.perf_counter()
    r = minimal_geodesic_sphere_radius()
    r_err = abs(r - np.pi / 3.0)
    surf = hyp.geodesic_sphere_cp2(ComplexProjectiveVeroneseModel(2), 32)
    minimality = surf.pointwise_checks(seed=7)["minimality"]
    rep = bounds.borderline_cp_report(surf)
    res_max = max(rep["div_jn_residual"], rep["decomposition_residual"],
                  rep["traced_gauss_residual"])
    # decay under refinement: the report's non-constant weight makes the
    # finite-difference truncation visible above roundoff
    coarse, fine = (
        bounds.borderline_cp_report(
            hyp.geodesic_sphere_cp2(ComplexProjectiveVeroneseModel(2), nodes))
        for nodes in (16, 32))
    decays = fine["decomposition_residual"] < coarse["decomposition_residual"]
    dt = time.perf_counter() - t0
    ok = (r_err < 1e-10 and minimality < 1e-6 and res_max < 1e-5
          and decays and dt < 120.0)
    _report(7, "minimal geodesic sphere and its residual identities", ok,
            f"radius err {r_err:.1e} < 1e-10, mean curvature "
            f"{minimality:.1e} < 1e-6, residuals {res_max:.1e} < 1e-5, "
            f"decay {coarse['decomposition_residual']:.1e} -> "
            f"{fine['decomposition_residual']:.1e}, {dt:.1f}s < 120s",
            capsys)


def test_criterion_08_product_profile(capsys):
    reps = []
    for n in (3, 4):
        surf = hyp.circle_times_equator(CircleTimesSphereModel(n), 14)
        reps.append(bounds.margins_product_q(
            surf, hodge.harmonic_one_forms(surf)[0]))
    v = reps[0]["values"]
    q_err = abs(v["q_min"] - 7.0 / 8.0)
    neg = [val for rep in reps for key, val in rep["values"].items()
           if key.startswith("integrand_max")]
    ok = (
        q_err < 1e-6 and v["closed_form_agreement"] < 1e-12
        and len(neg) == 2 and all(x < 0 for x in neg)
    )
    _report(8, "product-profile minimum and pointwise negativity", ok,
            f"grid min off 7/8 by {q_err:.1e} < 1e-6, closed-form agreement "
            f"{v['closed_form_agreement']:.1e} < 1e-12, integrand maxima "
            f"{[f'{x:.2f}' for x in neg]} all < 0", capsys)


def test_criterion_09_pinching_checkers(capsys):
    round_rep = bounds.margins_convex(
        EllipsoidModel(semi_axes=[1.0, 1.0, 1.0, 1.0])
    )
    scenario = cli.Scenario(cli.bundled_config("ellipsoid-elongated.cfg"))
    elong_rep = bounds.margins_convex(scenario.ambient)
    scalar = bounds.margins_scalar3(SphereModel(dim=3))
    margin = scalar["values"]["min_2R_minus_H2"]
    contraction = scalar["values"]["contraction_residual"]
    ok = (
        round_rep["verdict"] == "pass"
        and elong_rep["verdict"] == "fail"
        and abs(margin - 3.0) < 1e-10 and margin > 0
        and contraction < 1e-8
    )
    _report(9, "curvature pinching checkers", ok,
            f"round sphere {round_rep['verdict']}, bundled elongated ellipsoid "
            f"{elong_rep['verdict']}, scalar margin {margin:.6f} == 3 > 0, "
            f"contraction residual {contraction:.1e} < 1e-8", capsys)


def test_criterion_10_constant_table(capsys):
    checks = []
    for dim in range(2, 8):
        n = dim - 1
        c = bounds.theorem_constant(SphereModel(dim=dim))
        checks.append(c == Fraction(2, (n + 2) * (n + 1)))
    for n in range(2, 7):
        c = bounds.theorem_constant(CircleTimesSphereModel(n=n))
        checks.append(c == Fraction(2, (n + 3) * (n + 2)))
    for m in range(1, 7):
        c = bounds.theorem_constant(
            ComplexProjectiveVeroneseModel(m=m)
        )
        checks.append(c == Fraction(2, m * (m + 2) * (m + 1) ** 2))
    # HP^p and S^p x S^q have no ambient model: 2/(d(d-1)) at their
    # embedding dimensions (2p+1)(p+1) and p+q+2 against the constants
    # written out
    for p, stated in ((1, Fraction(1, 15)), (2, Fraction(1, 105)),
                      (3, Fraction(1, 378)), (4, Fraction(1, 990)),
                      (5, Fraction(1, 2145))):
        d = (2 * p + 1) * (p + 1)
        checks.append(Fraction(2, d * (d - 1)) == stated)
    for p, q, stated in ((2, 2, Fraction(1, 15)), (2, 3, Fraction(1, 21)),
                         (3, 4, Fraction(1, 36))):
        d = p + q + 2
        checks.append(Fraction(2, d * (d - 1)) == stated)
    # the Cayley plane: margin -48, and 1/351 = 2/(d(d-1)) at embedding
    # dimension 27
    cayley = bounds.margins_cross(CAYLEY_PLANE)
    checks.append(cayley["values"]["margin"] == -48.0
                  and cayley["verdict"] == "pass")
    checks.append(Fraction(1, 351) == Fraction(2, 27 * 26))
    ok = all(checks)
    _report(10, "exact rational constant table", ok,
            f"{sum(checks)}/{len(checks)} closures hold, including 1/351 at "
            f"embedding dimension 27", capsys)


def test_criterion_11_harmonic_form_solver(torus96, t96_forms, equator2,
                                           capsys):
    kernel_torus = len(t96_forms)
    kernel_sphere = len(hodge.harmonic_one_forms(equator2))
    # L2 distance of the exact normalized angle forms to the solver span
    vol = torus96.fem().node_weights.sum()
    dist = 0.0
    for k in range(2):
        w = np.zeros((torus96.grid.n_nodes, 2))
        w[:, k] = np.sqrt(2.0 / vol)  # unit L2 norm
        coeffs = np.array([hodge.l2_inner(torus96, w, b) for b in t96_forms])
        dist = max(dist, np.sqrt(abs(hodge.l2_inner(torus96, w, w)
                                     - coeffs @ coeffs)))
    ok = kernel_torus == 2 and kernel_sphere == 0 and dist < 1e-4
    _report(11, "harmonic one-form solver", ok,
            f"kernel dims torus {kernel_torus} == 2, sphere {kernel_sphere} "
            f"== 0, span distance {dist:.1e} < 1e-4", capsys)
