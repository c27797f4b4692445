"""Index lower bounds: concentration-of-spectrum certificates, the theorem
constant as an exact rational, per-application pointwise margins, and the
borderline complex-projective residual checks.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .ambient import AMBIENT_KINDS, ComplexProjectiveVeroneseModel, Draws
from .hypersurface import _by_chunks, chart_jacobian
from .testfns import _rhs_integrand, integrand_holds, integrand_quadratic_form


class BoundsError(Exception):
    pass


# Relative tolerance of the paper's strict inequalities: a margin within
# STRICT_TOL of zero, relative to its scale, is roundoff and never passes.
STRICT_TOL = 1e-12
#: bound that each borderline residual passes below, stated as `tolerance`
BORDERLINE_TOL = 1e-5
#: what the margins judge by and state in `thresholds`: the bounds of the
#: `sphere` deviation, the `scalar3` contraction residual and the `product_q`
#: closed-form agreement, and q's minimum 7/8 on the `product_q` grid
SPHERE_TOL = 1e-8
CONTRACTION_TOL = 1e-8
Q_AGREEMENT_TOL = 1e-12
Q_MIN = 0.875

#: margin sample sizes (the product profile's (theta, phi) grid and random
#: draws, the ambient points of `convex` and `scalar3`), the tolerance of the
#: profile's grid minimum, and the central-difference step of the borderline
#: residuals per mesh spacing
_Q_GRID_POINTS = 2001
_Q_SAMPLES = 10000
_Q_MIN_TOL = 1e-6
_CONVEX_SAMPLES = 400
_SCALAR3_SAMPLES = 200
_BORDERLINE_STEP = 1e-3


def _strict(margin, scale, borderline):
    """Verdict of the strict inequality margin < 0: "pass" below
    -STRICT_TOL * scale, `borderline` within STRICT_TOL * scale of zero,
    "fail" above it."""
    tol = STRICT_TOL * scale
    return "pass" if margin < -tol else borderline if margin <= tol else "fail"


# ---------------------------------------------------------------------------
# certificates

def concentration_certificate(surface, basis, eta, mode="Prop41", *, spectrum):
    """Certificate that at least a fixed fraction of dim(V) eigenvalues of the
    Jacobi operator lie strictly below eta, counted in `spectrum`, the
    SpectrumReport of the run's pencil (the quotient's, for a quotient).

    The hypothesis is that the integrand Gram form minus eta (Prop41) or
    2 eta (Prop43, the paper's factor kept verbatim) times the L2 mass is
    negative definite; the conclusion compares count_below(eta) with the
    ceiling of the paper fraction.  Returns the certificate's report block.
    """
    q = len(basis)
    d = surface.embed_dim
    if mode == "Prop41":
        integrand_mode, factor = "Prop32", 1.0
        required_real = 2.0 * q / (d * (d - 1))
    elif mode == "Prop43":
        integrand_mode, factor = "Prop43", 2.0
        required_real = q / (2.0 * d)
    else:
        raise BoundsError(f"unknown certificate mode {mode!r}")
    gram, mass = integrand_quadratic_form(surface, basis, integrand_mode)
    margin = float(np.linalg.eigvalsh(gram - factor * eta * mass)[-1])
    # normalized margin: per unit of L2 mass, with the Prop43 factor divided out
    normalized = margin / (factor * np.linalg.eigvalsh(mass)[-1])
    required = math.ceil(required_real)
    actual = spectrum.count_below(eta)
    passed = _strict(normalized, 1.0, "fail") == "pass" and actual >= required
    return {
        "mode": mode, "eta": float(eta), "q": q, "d": d,
        "required": required, "required_real": required_real,
        "actual": actual, "counts_ok": actual >= required,
        "margin": margin, "normalized_margin": normalized,
        "tol": STRICT_TOL, "verdict": "pass" if passed else "fail",
    }


def certificates(surface, basis, eta, *, spectrum):
    """The certificate blocks that apply to `surface`, by report key: Prop41,
    and Prop43 where its integrand holds (n = 2)."""
    modes = {"certificate": "Prop41"}
    if integrand_holds(surface, "Prop43"):
        modes["certificate_starred"] = "Prop43"
    return {key: concentration_certificate(surface, basis, eta, mode,
                                           spectrum=spectrum)
            for key, mode in modes.items()}


# ---------------------------------------------------------------------------
# theorem constant (an exact rational)

def theorem_constant(ambient):
    """The paper's constant 2/(d(d-1)) for an ambient embedded in R^d, as an
    exact Fraction; every application it states reduces to this value."""
    d = ambient.embed_dim
    return Fraction(2, d * (d - 1))


def index_bound_report(surface, spectrum):
    """Theorem-constant lower bound for the surface against the Morse index of
    `spectrum`, the SpectrumReport of the run's pencil."""
    ambient = surface.ambient
    C = theorem_constant(ambient)
    b1 = surface.betti_one
    # in a sphere (not its quotient RP^n) |A|^2 = P - Ric(N, N) = P - K, so a
    # surface is totally geodesic exactly when its declared potential is K
    curved = (ambient.kind == "sphere"
              and surface.potential != ambient.einstein_constant)
    terms = {"ceil(constant * betti_one)": math.ceil(C * b1),
             "n + 2 in a sphere, where potential != einstein_constant":
                 (surface.dim + 2) * curved}
    bound = sum(terms.values())
    index = spectrum.morse_index
    return {
        "surface": surface.name,
        "ambient": ambient.kind,
        "constant": str(C),
        "betti_one": b1,
        "terms": terms,
        "bound": bound,
        "index": index,
        "consistent": index >= bound,
        "tight": index == bound,
        "verdict": "pass" if index >= bound else "fail",
    }


# ---------------------------------------------------------------------------
# application margins

def q_closed_form(theta, phi):
    """q = 1 + sin^2(phi) cos^2(theta) (2 cos^2(theta) - 1)."""
    c2 = np.cos(theta) ** 2
    return 1.0 + np.sin(phi) ** 2 * c2 * (2.0 * c2 - 1.0)


def q_defining_expression(theta, phi):
    c2, s2 = np.cos(theta) ** 2, np.sin(theta) ** 2
    cp2, sp2 = np.cos(phi) ** 2, np.sin(phi) ** 2
    return (
        c2 + s2 * cp2 + sp2 + c2**2 + s2**2 - 1.0 + 2.0 * c2 * s2 * cp2
    )


def margins_sphere(surface, form):
    """Deviation of the wedge-coordinate integrand from its constant sphere
    value -(2n-2)|omega|^2."""
    fields = surface.node_fields()
    ok = fields["interior"]
    integrand = _rhs_integrand(surface, form, "Prop32")
    n = surface.dim
    target = -(2.0 * n - 2.0) * np.einsum("na,na->n", form, form)
    dev = np.abs(integrand - target)[ok]
    values = {
        "max_deviation": float(dev.max()),
        "mean_deviation": float(dev.mean()),
    }
    verdict = "pass" if values["max_deviation"] < SPHERE_TOL else "fail"
    return {"values": values, "thresholds": {"max_deviation": SPHERE_TOL},
            "verdict": verdict}


def margins_cross(ambient):
    """Einstein margin (8/3)(n+3-K) of a rank-one ambient; zero flags the
    borderline complex-projective case."""
    K = ambient.einstein_constant
    n = ambient.intrinsic_dim - 1
    margin = (8.0 / 3.0) * (n + 3 - K)
    scale = (8.0 / 3.0) * (n + 3 + abs(K))
    values = {"einstein_constant": float(K), "margin": margin,
              "kind": ambient.kind}
    return {"values": values, "thresholds": {"margin": 0.0, "tol": STRICT_TOL},
            "verdict": _strict(margin, scale, "borderline: strict by the "
                               "projective-space residual checks")}


def margins_product_q(surface, form, seed=0):
    """Grid minimum of q(theta, phi), closed-form agreement, and pointwise
    negativity of the wedge integrand of `form` on a surface of S^1 x S^n,
    on the scale of its curvature terms, which stays off zero at n = 2, where
    the integrand is zero to roundoff."""
    t = np.linspace(0.0, np.pi, _Q_GRID_POINTS)
    qv = q_closed_form(t[:, None], t[None, :])  # the (theta, phi) grid
    i_min = np.unravel_index(np.argmin(qv), qv.shape)
    ths, phs = Draws(seed).uniform(0, np.pi, (2, _Q_SAMPLES))
    agree = float(
        np.abs(q_closed_form(ths, phs) - q_defining_expression(ths, phs)).max()
    )
    interior = surface.node_fields()["interior"]
    integrand_max = float(_rhs_integrand(surface, form, "Prop32")[interior].max())
    cv = surface.ambient_curvature()
    sizes = (np.abs(cv.ii_ew).sum(axis=(1, 2)) + np.abs(cv.rm_ew).sum(axis=(1, 2))
             + np.abs(cv.ii_en) + np.abs(cv.ric_nn))
    scale = float((np.einsum("na,na->n", form, form) * sizes)[interior].max())
    values = {
        "q_min": float(qv[i_min]),
        "argmin_theta": float(t[i_min[0]]),
        "argmin_phi": float(t[i_min[1]]),
        "closed_form_agreement": agree,
        f"integrand_max_{surface.name}": integrand_max,
    }
    ok = abs(values["q_min"] - Q_MIN) < _Q_MIN_TOL and agree < Q_AGREEMENT_TOL
    verdict = _strict(integrand_max, scale, "borderline: the wedge integrand "
                      "vanishes to roundoff") if ok else "fail"
    return {
        "values": values,
        "thresholds": {"q_min": Q_MIN, "q_min_tol": _Q_MIN_TOL,
                       "closed_form_agreement": Q_AGREEMENT_TOL,
                       "integrand_max": 0.0,
                       "integrand_scale": scale, "tol": STRICT_TOL},
        "verdict": verdict,
    }


def margins_convex(ambient, seed=0):
    """Pointwise pinching of a convex hypersurface of Euclidean space:
    ratio k_{n+1}/k_1 below sqrt((n+1)/2), or below sqrt(5/3) for n = 2
    (which every ratio below sqrt(3/2) also is), and the margin
    4 k_{n+1}^2 - 2(n+1) k_1^2."""
    n = ambient.intrinsic_dim - 1
    k = ambient.principal_curvatures(
        ambient.random_point(Draws(seed), (_CONVEX_SAMPLES,)))
    ratio_max = float((k[:, -1] / k[:, 0]).max())
    margin_max = float((4 * k[:, -1] ** 2 - 2 * (n + 1) * k[:, 0] ** 2).max())
    thresholds = {"ratio": math.sqrt((n + 1) / 2.0)}
    if n == 2:
        thresholds["ratio_refined"] = math.sqrt(5.0 / 3.0)
    limit = thresholds.get("ratio_refined", thresholds["ratio"])
    thresholds["tol"] = STRICT_TOL
    values = {"ratio_max": ratio_max, "margin_max": margin_max,
              "semi_axes": list(map(float, ambient.semi_axes))}
    return {"values": values, "thresholds": thresholds,
            "verdict": _strict(ratio_max - limit, limit, "fail")}


def margins_scalar3(ambient, seed=0):
    """Scalar-curvature condition 2 R - |H|^2 > 0 on random samples of the
    ambient embedding, R, H and |II|^2 contracted from one evaluation of II
    over pairs of the tangent frame F; the contraction identity
    R = |H|^2 - |II|^2 is checked against R as the sum of Ric(F_a, F_a),
    whose sectional terms come from the polarized II, not that evaluation."""
    p = ambient.random_point(Draws(seed), (_SCALAR3_SAMPLES,))
    F = ambient.tangent_frame(p)
    ii = ambient.ii_frame_pairs(p, F)
    ii_sq = np.einsum("...abd,...abd->...", ii, ii)
    R = np.einsum("...aad,...bbd->...", ii, ii) - ii_sq
    H = np.einsum("...aad->...d", ii)
    h_sq = np.einsum("sd,sd->s", H, H)
    margin = 2.0 * R - h_sq
    i = np.argmin(margin)
    min_margin, scale = margin[i], 2.0 * abs(R[i]) + h_sq[i]
    ric = ambient.ricci(p[:, None, :], F).sum(axis=-1)
    max_contraction = np.abs(ric - (h_sq - ii_sq)).max()
    values = {"min_2R_minus_H2": float(min_margin),
              "contraction_residual": float(max_contraction)}
    # 2R - |H|^2 > 0 is the strict inequality -min_margin < 0
    verdict = "fail" if max_contraction >= CONTRACTION_TOL else _strict(
        -min_margin, scale, "borderline: 2R - |H|^2 vanishes to roundoff")
    return {"values": values,
            "thresholds": {"margin": 0.0, "tol": STRICT_TOL,
                           "contraction": CONTRACTION_TOL},
            "verdict": verdict}


def application_margins(surface, basis, seed=0):
    """Every margin that the AMBIENT_KINDS entry of the surface's ambient
    lists, keyed by name: `sphere` and `product_q` are taken on the first
    form of the harmonic `basis` and left out when it is empty (b1 = 0), the
    others on the surface's ambient."""
    ambient = surface.ambient
    margins = {
        "sphere": lambda: margins_sphere(surface, basis[0]),
        "product_q": lambda: margins_product_q(surface, basis[0], seed=seed),
        "cross": lambda: margins_cross(ambient),
        "convex": lambda: margins_convex(ambient, seed=seed),
        "scalar3": lambda: margins_scalar3(ambient, seed=seed),
    }
    return {name: margins[name]() for name in AMBIENT_KINDS[ambient.kind].margins
            if basis or name not in ("sphere", "product_q")}


# ---------------------------------------------------------------------------
# borderline complex-projective residuals

def _weight(p):
    """The weight f of omega-sharp = f JN: non-constant, so that the two
    sides of the norm decomposition are differenced apart."""
    return 1.0 + 0.3 * np.sin(p[..., 0]) * np.cos(p[..., 2])


def borderline_cp_report(surface):
    """Residuals of the computable borderline lemmas on a minimal hypersurface
    of a complex projective ambient, for omega-sharp = f JN with f `_weight`.

    Derivatives use central differences with a step tied to the mesh spacing,
    so the residuals decay under refinement.  JN, f JN and f are differenced
    as one stacked field along the surface's own frames, a chunk of nodes
    at a time (`hypersurface._by_chunks`).  Off a complex projective
    ambient, where the lemmas do not apply, the block is skipped.
    """
    model = surface.ambient
    if not isinstance(model, ComplexProjectiveVeroneseModel):
        return {"skipped": "ambient is not complex projective"}

    params = surface.node_params
    h_min = min(ax.h for ax in surface.axes)
    step = _BORDERLINE_STEP * h_min

    def z_of(p):
        return model.point_from_homogeneous(surface.point_fn(p))

    def jn_field(p):
        return model.complex_structure(z_of(p), surface.normal_fn(p))

    def stacked(p):  # [JN, f JN, f]
        jn, f = jn_field(p), _weight(p)[..., None]
        return np.concatenate([jn, f * jn, f], axis=-1)

    fields = surface.node_fields()
    frames, coeffs, ok = fields["frames"], fields["coeffs"], fields["interior"]
    D = model.embed_dim

    def mismatches(part):  # per node: div JN, largest decomposition mismatch
        p, F = params[part], frames[part]
        # frame derivatives X of the stacked field, sliced into d(JN),
        # d(f JN), X f
        d = coeffs[part] @ chart_jacobian(stacked, p, step)
        d_jn, d_fjn, xf = d[..., :D], d[..., D:2 * D], d[..., 2 * D]
        # (i) divergence of JN
        div_jn = np.einsum("nad,nad->n", d_jn, F)
        # (ii) norm decomposition |grad_X (f JN)|^2 = |X f|^2 + f^2
        # |grad_X JN|^2, of the derivatives' tangential parts, by their
        # orthonormal-frame components
        F_t = np.swapaxes(F, -1, -2)
        jn_t, omega_t = d_jn @ F_t, d_fjn @ F_t
        lhs = np.einsum("nab,nab->na", omega_t, omega_t)
        rhs = xf**2 + _weight(p)[:, None] ** 2 * np.einsum(
            "nab,nab->na", jn_t, jn_t)
        return div_jn, np.abs(lhs - rhs).max(axis=-1)

    div_jn, decomposition = np.empty(len(params)), np.empty(len(params))
    _by_chunks(mismatches, (div_jn, decomposition))
    div_residual = float(np.abs(div_jn[ok]).max(initial=0.0))
    decomposition_residual = float(decomposition[ok].max(initial=0.0))

    # (iii) traced Gauss with U = JN: Ric(U,U) - Rm(U,N,U,N) must equal 2m-2
    idx = Draws(0).choice(np.flatnonzero(ok), min(200, int(ok.sum())))
    z, jn = z_of(params[idx]), jn_field(params[idx])
    ric = model.ricci(z, jn)
    rm = model.riemann_xyxy(z, jn, surface.normals[idx])
    gauss_res = np.abs(ric - rm - (2.0 * model.m - 2.0)).max()

    residuals = {"div_jn_residual": div_residual,
                 "decomposition_residual": decomposition_residual,
                 "traced_gauss_residual": float(gauss_res)}
    passed = all(r < BORDERLINE_TOL for r in residuals.values())
    return {"surface": surface.name, **residuals, "step": step,
            "tolerance": BORDERLINE_TOL,
            "verdict": "pass" if passed else "fail"}
