import numpy as np
import pytest

from indexbound.ambient import (
    _FD_CHECKS,
    AMBIENT_KINDS,
    AmbientError,
    CircleTimesSphereModel,
    ComplexProjectiveVeroneseModel,
    EllipsoidModel,
    RealProjectiveModel,
    SphereModel,
    verify_model_identities,
)
from oracles import (
    nabla_j_residual,
    random_orthonormal_pair,
    random_tangent,
    scalar_and_mean_curvature,
    veronese_chart,
    veronese_flatten,
    veronese_outer,
)

ALL_KINDS = [
    ("sphere", {"dim": 3}),
    ("real_projective", {"dim": 3}),
    ("complex_projective_veronese", {"m": 2}),
    ("complex_projective_veronese", {"m": 3}),
    ("circle_times_sphere", {"n": 2}),
    ("circle_times_sphere", {"n": 3}),
    ("ellipsoid", {"semi_axes": [1.0, 1.0, 1.0, 1.2]}),
]


@pytest.mark.parametrize("kind,params", ALL_KINDS)
def test_identity_report_passes(kind, params):
    model = AMBIENT_KINDS[kind].model(**params)
    report = verify_model_identities(model, seed=3)
    assert report.ok, report.failures


def test_embed_dims():
    assert SphereModel(dim=3).embed_dim == 4
    assert RealProjectiveModel(dim=4).embed_dim == 5
    assert ComplexProjectiveVeroneseModel(m=2).embed_dim == 9
    assert CircleTimesSphereModel(n=3).embed_dim == 6
    assert EllipsoidModel(semi_axes=[1, 1, 1, 2]).embed_dim == 4


def test_model_parameter_validation():
    # each model refuses its own bad parameters; an unknown kind or a
    # missing parameter is the config's error (test_cli)
    with pytest.raises(AmbientError):
        SphereModel(dim=1)
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(AmbientError):
            EllipsoidModel(semi_axes=[1.0, bad, 1.0, 2.0])


def test_sphere_umbilicity_and_einstein(rng):
    model = SphereModel(dim=4)
    p = model.random_point(rng)
    X, Y = random_orthonormal_pair(model, p, rng)
    assert abs(np.linalg.norm(model.ii(p, X, Y)) - abs(X @ Y)) < 1e-12
    assert abs(np.linalg.norm(model.ii_quad(p, X)) - 1.0) < 1e-12
    assert abs(model.ricci(p, X) - 3.0) < 1e-10
    assert abs(model.riemann_xyxy(p, X, Y) - 1.0) < 1e-12


def test_veronese_metric_and_variety(rng):
    model = ComplexProjectiveVeroneseModel(m=2)
    z = model.random_point(rng)
    A = model.unflatten(model.position(z))
    # projector onto the line: A^2 = A, tr A = 1
    assert np.abs(A @ A - A).max() < 1e-12
    assert abs(np.trace(A).real - 1.0) < 1e-12
    # flattening realizes <A,B> = Re tr(AB) / 2
    w = model.random_point(rng)
    B = model.unflatten(model.position(w))
    lhs = model.position(z) @ model.position(w)
    assert abs(lhs - 0.5 * np.real(np.trace(A @ B))) < 1e-12


@pytest.mark.parametrize("m", [2, 3])
def test_fused_veronese_kernels_match_matrix_forms(m, rng):
    # position and tangent_from_horizontal, written from z and v, against the
    # flattened matrices z z* and z v* + v z*, also broadcast as in
    # tangent_frame: one point against a stack of horizontal vectors
    model = ComplexProjectiveVeroneseModel(m=m)
    z, v, lifts = (rng.standard_normal(s) + 1j * rng.standard_normal(s)
                   for s in ((500, m + 1), (500, m + 1), (500, 2 * m, m + 1)))
    for got, want in (
            (model.position(z), veronese_flatten(veronese_chart(z))),
            (model.tangent_from_horizontal(z, v),
             veronese_flatten(veronese_outer(z, v))),
            (model.tangent_from_horizontal(z[:, None, :], lifts),
             veronese_flatten(veronese_outer(z[:, None, :], lifts)))):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
    assert np.abs(model.unflatten(model.position(z)) - veronese_chart(z)).max() < 1e-14


def test_veronese_ii_identities(rng):
    model = ComplexProjectiveVeroneseModel(m=3)
    z = model.random_point(rng)
    X, Y = random_orthonormal_pair(model, z, rng)
    iixx = model.ii_quad(z, X)
    iiyy = model.ii_quad(z, Y)
    iixy = model.ii(z, X, Y)
    rm = model.riemann_xyxy(z, X, Y)
    assert abs(iixx @ iixx - 4.0) < 1e-10
    assert abs(iixx @ iiyy + 2.0 * iixy @ iixy - 4.0) < 1e-10
    assert abs(iixy @ iixy - (4.0 - rm) / 3.0) < 1e-10
    assert 1.0 - 1e-10 <= rm <= 4.0 + 1e-10
    assert abs(rm - model.sectional_formula(z, X, Y)) < 1e-10


def test_complex_structure(rng):
    model = ComplexProjectiveVeroneseModel(m=2)
    z = model.random_point(rng)
    X = random_tangent(model, z, rng)
    JX = model.complex_structure(z, X)
    assert abs(np.linalg.norm(JX) - 1.0) < 1e-10
    assert np.linalg.norm(model.complex_structure(z, JX) + X) < 1e-10
    assert nabla_j_residual(model, z, rng) < 1e-4


def test_product_flat_directions(rng):
    model = CircleTimesSphereModel(n=2)
    p = model.random_point(rng)
    frame = model.tangent_frame(p)
    circle_dir = frame[0]
    sphere_dir = frame[1]
    assert np.linalg.norm(model.ii(p, circle_dir, sphere_dir)) < 1e-12
    assert abs(model.riemann_xyxy(p, circle_dir, sphere_dir)) < 1e-12


def test_ellipsoid_principal_curvatures(rng):
    model = EllipsoidModel(semi_axes=[1.0, 1.0, 1.0, 2.0])
    # at the end of the long axis the curvatures are a4 / a_i^2 = 2
    p = model.point([0.0, 0.0, 0.0, 2.0])
    k = model.principal_curvatures(p)
    assert np.abs(k - 2.0).max() < 1e-10
    # at the end of a short axis: 1, 1, 1/4
    p = model.point([1.0, 0.0, 0.0, 0.0])
    k = model.principal_curvatures(p)
    assert np.allclose(np.sort(k), [0.25, 1.0, 1.0], atol=1e-10)


def test_fd_oracle_closure(rng):
    for kind, params in ALL_KINDS:
        model = AMBIENT_KINDS[kind].model(**params)
        p = model.random_point(rng)
        X = random_tangent(model, p, rng)
        assert (
            np.linalg.norm(model.ii_quad(p, X) - model.ii_quad_fd(p, X)) < 1e-6
        ), kind


def test_tangency_check(rng):
    model = SphereModel(dim=3)
    p = model.random_point(rng)
    # the position itself is normal, a random tangent vector tangent
    assert abs(model.tangency_residual(p, p) - 1.0) < 1e-12
    assert model.tangency_residual(p, random_tangent(model, p, rng)) < 1e-12


def test_riemann_scaling_symmetry(rng):
    # S^1 x S^2: the curvature is the sphere factor's alone
    n = 2
    model = CircleTimesSphereModel(n=n)
    p = model.random_point(rng)
    X, Y = random_orthonormal_pair(model, p, rng)
    r = model.riemann_xyxy(p, X, Y)
    assert abs(model.riemann_xyxy(p, 1.7 * X, Y) - 1.7**2 * r) < 1e-10
    assert abs(model.riemann_xyxy(p, Y, X) - r) < 1e-10
    X2 = model.factors(X)[1]
    assert abs(model.ricci(p, X) - (n - 1) * X2 @ X2) < 1e-10
    scal, H = scalar_and_mean_curvature(model, p)
    assert abs(scal - n * (n - 1)) < 1e-10
    c, s = model.factors(p)
    assert np.abs(H + np.concatenate([c, n * s])).max() < 1e-10


# ---------------------------------------------------------------------------
# batched geometry against the per-point formulas

def _riemann_ref(model, p, X, Y):
    iixy = model.ii(p, X, Y)
    return float(model.ii_quad(p, X) @ model.ii_quad(p, Y) - iixy @ iixy)


def _ricci_ref(model, p, X):
    return sum(_riemann_ref(model, p, X, e) for e in model.tangent_frame(p))


def _scalar_ref(model, p):
    frame = model.tangent_frame(p)
    return sum(_riemann_ref(model, p, e, f) for e in frame for f in frame)


def _batch(model, rng, shape=(3, 5)):
    """Points of the given batch shape with an orthonormal tangent pair each."""
    p = np.array([model.random_point(rng) for _ in range(np.prod(shape))])
    X, Y = random_orthonormal_pair(model, p, rng)
    unflat = lambda a: a.reshape(shape + a.shape[1:])
    return unflat(p), unflat(X), unflat(Y)


@pytest.mark.parametrize("kind,params", ALL_KINDS)
def test_batched_frame_orthonormal_and_tangent(kind, params, rng):
    model = AMBIENT_KINDS[kind].model(**params)
    p, _, _ = _batch(model, rng)
    frame = model.tangent_frame(p)
    k = model.intrinsic_dim
    assert frame.shape == (3, 5, k, model.embed_dim)
    gram = np.einsum("...ad,...bd->...ab", frame, frame)
    assert np.abs(gram - np.eye(k)).max() < 1e-12
    # the frame is orthogonal to the normal directions II(e_a, e_b) ...
    ii = model.ii(np.expand_dims(p, (2, 3)), frame[..., :, None, :],
                  frame[..., None, :, :])
    assert np.abs(np.einsum("...cd,...abd->...abc", frame, ii)).max() < 1e-12
    # ... and each frame vector is the velocity of a curve in the manifold
    h = 1e-5
    pe = np.expand_dims(p, 2)
    vel = (model.curve(pe, frame, h) - model.curve(pe, frame, -h)) / (2 * h)
    assert np.abs(vel - frame).max() < 1e-8
    for i in np.ndindex(3, 5):
        assert np.abs(frame[i] - model.tangent_frame(p[i])).max() < 1e-12


@pytest.mark.parametrize("kind,params", ALL_KINDS)
def test_batched_curvature_matches_pointwise(kind, params, rng):
    model = AMBIENT_KINDS[kind].model(**params)
    p, X, Y = _batch(model, rng)
    ric, rm = model.ricci(p, X), model.riemann_xyxy(p, X, Y)
    scal, _ = scalar_and_mean_curvature(model, p)
    assert ric.shape == rm.shape == scal.shape == (3, 5)
    for i in np.ndindex(3, 5):
        assert abs(ric[i] - _ricci_ref(model, p[i], X[i])) < 1e-12
        assert abs(rm[i] - _riemann_ref(model, p[i], X[i], Y[i])) < 1e-12
        assert abs(scal[i] - _scalar_ref(model, p[i])) < 1e-12


def test_batched_sphere_closed_forms(rng):
    model = SphereModel(dim=4)
    p, X, Y = _batch(model, rng)
    assert np.abs(model.riemann_xyxy(p, X, Y) - 1.0).max() < 1e-12
    assert np.abs(model.ricci(p, X) - 3.0).max() < 1e-12
    scal, H = scalar_and_mean_curvature(model, p)
    assert np.abs(scal - 12.0).max() < 1e-12
    assert np.abs(H + 4.0 * p).max() < 1e-12


@pytest.mark.parametrize("kind,params", [
    ("circle_times_sphere", {"n": 3}),
])
def test_batched_product_closed_forms(kind, params, rng):
    model = AMBIENT_KINDS[kind].model(**params)
    n = model.n
    p, X, Y = _batch(model, rng)
    rm = model.riemann_xyxy(p, X, Y)
    assert np.abs(rm - model.riemann_product_formula(p, X, Y)).max() < 1e-12
    X2 = model.factors(X)[1]
    ric = (n - 1) * np.sum(X2 * X2, axis=-1)
    assert np.abs(model.ricci(p, X) - ric).max() < 1e-12
    scal = n * (n - 1)
    assert np.abs(scalar_and_mean_curvature(model, p)[0] - scal).max() < 1e-12


def _verify_ref(model, sample_count, seed):
    """The self-checks one sample at a time, as the reference for the batch."""
    rng = np.random.default_rng(seed)
    res = {}

    def bump(key, value):
        res[key] = max(res.get(key, 0.0), abs(float(value)))

    for _ in range(sample_count):
        p = model.random_point(rng)
        X, Y = random_orthonormal_pair(model, p, rng)
        iixx, iiyy, iixy = model.ii_quad(p, X), model.ii_quad(p, Y), model.ii(p, X, Y)
        bump("frame_tangency", np.abs(model.tangent_frame(p) @ iixx).max())
        bump("ii_symmetry", np.linalg.norm(iixy - model.ii(p, Y, X)))
        bump("ii_scaling", np.linalg.norm(model.ii_quad(p, 1.7 * X) - 1.7**2 * iixx))
        bump("gauss_fd_closure", np.linalg.norm(iixx - model.ii_quad_fd(p, X)))
        if model.einstein_constant is not None:
            bump("einstein", _ricci_ref(model, p, X) - model.einstein_constant)
        rm = _riemann_ref(model, p, X, Y)
        if isinstance(model, SphereModel):
            bump("umbilicity", np.linalg.norm(iixy) - abs(float(X @ Y)))
            bump("sectional_one", rm - 1.0)
        if isinstance(model, ComplexProjectiveVeroneseModel):
            A = model.unflatten(model.position(p))
            bump("variety_projector", np.abs(A @ A - A).max())
            bump("variety_trace", np.trace(A).real - 1.0)
            bump("veronese_ii_quad", iixx @ iixx - 4.0)
            bump("veronese_polarized", iixx @ iiyy + 2.0 * iixy @ iixy - 4.0)
            bump("veronese_mixed", iixy @ iixy - (4.0 - rm) / 3.0)
            bump("sectional_range_low", max(0.0, 1.0 - rm))
            bump("sectional_range_high", max(0.0, rm - 4.0))
            bump("sectional_formula", rm - model.sectional_formula(p, X, Y))
            JX = model.complex_structure(p, X)
            bump("complex_isometry", np.linalg.norm(JX) - np.linalg.norm(X))
            bump("complex_square", np.linalg.norm(model.complex_structure(p, JX) + X))
            bump("complex_parallel", nabla_j_residual(model, p, rng))
        if hasattr(model, "riemann_product_formula"):
            bump("product_curvature", rm - model.riemann_product_formula(p, X, Y))
        if model.kind == "ellipsoid":
            nu = model.outward_normal(p)
            bump("shape_vs_ii", iixx @ nu + float((model._g * X) @ X)
                 / np.linalg.norm(model._g * p))
            if np.allclose(model.semi_axes, model.semi_axes[0]):
                k = model.principal_curvatures(p)
                bump("round_umbilic", k.max() - k.min())
    return res


@pytest.mark.parametrize("kind,params", ALL_KINDS + [
    ("ellipsoid", {"semi_axes": [1.0, 1.0, 1.0, 1.0]}),
])
def test_verify_matches_pointwise_loop(kind, params):
    model = AMBIENT_KINDS[kind].model(**params)
    batched = verify_model_identities(model, seed=12345)
    reference = _verify_ref(model, 200, 12345)
    assert set(batched.residuals) == set(reference)
    for key, value in reference.items():
        tol = 1e-6 if key in _FD_CHECKS else 1e-12
        assert abs(batched.residuals[key] - value) <= tol, key
    assert batched.sample_count == 200 and batched.ok
