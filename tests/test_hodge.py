import numpy as np
import pytest

from indexbound import hodge, hypersurface as hyp
from indexbound.ambient import CircleTimesSphereModel, EllipsoidModel, SphereModel
from oracles import gradient_one_form


@pytest.fixture(scope="module")
def torus_forms(torus48):
    return hodge.harmonic_one_forms(torus48)


def test_torus_kernel_dimension(torus_forms):
    assert len(torus_forms) == 2


def test_torus_basis_orthonormal(torus48, torus_forms):
    gram = np.array(
        [[hodge.l2_inner(torus48, a, b) for b in torus_forms]
         for a in torus_forms]
    )
    assert np.abs(gram - np.eye(2)).max() < 1e-10


def test_torus_basis_spans_coordinate_forms(torus48, torus_forms):
    # the basis is the two angle differentials of the square torus, each of
    # frame component sqrt(2) along its own axis, L2-normalized
    area = torus48.fem().node_weights.sum()
    for k, w in enumerate(torus_forms):
        exact = np.zeros((torus48.grid.n_nodes, 2))
        exact[:, k] = 1.0 / np.sqrt(area)
        assert np.abs(w - exact).max() < 1e-10


def test_sphere_kernel_trivial(equator2):
    assert hodge.harmonic_one_forms(equator2) == []


def test_bochner_residual_harmonic(torus48, torus_forms):
    for w in torus_forms:
        assert hodge.bochner_residual(torus48, w) < 1e-6


def test_bochner_rejects_gradient_probe(torus48):
    probe = gradient_one_form(
        torus48, lambda p: np.sin(p[:, 0]) * np.cos(p[:, 1])
    )
    assert hodge.bochner_residual(torus48, probe) > 0.1


def test_catalog_forms_circle_factor():
    surf = hyp.circle_times_equator(CircleTimesSphereModel(3), 12)
    forms = hodge.harmonic_one_forms(surf)
    assert len(forms) == 1
    w = forms[0]
    assert abs(hodge.l2_inner(surf, w, w) - 1.0) < 1e-10
    assert hodge.bochner_residual(surf, w) < 1e-8


def test_sharp_duality(torus48, torus_forms):
    w = torus_forms[0]
    # pairing the form with its own sharp reproduces the squared norm
    frames = torus48.node_fields()["frames"]
    back = np.einsum("nad,nd->na", frames, hodge.sharp(torus48, w))
    assert np.abs(back - w).max() < 1e-10


def test_combine(torus48, torus_forms):
    a, b = torus_forms
    c = hodge.combine([a, b], [0.6, -0.8])
    assert abs(hodge.l2_inner(torus48, c, c) - 1.0) < 1e-10


def test_kernel_mismatch_raises():
    # a torus that declares one harmonic axis fails the Euler check
    surf = hyp.clifford_torus(SphereModel(3), 24)
    surf.harmonic_axes = (0,)
    with pytest.raises(hodge.HodgeError, match="Euler"):
        hodge.harmonic_one_forms(surf)


def test_euler_characteristic_betti_one(torus48, equator2):
    ellipsoid = hyp.ellipsoid_section(EllipsoidModel([1.0, 1.2, 1.5, 2.0]), 12)
    for surf, b1 in ((torus48, 2), (equator2, 0), (ellipsoid, 0)):
        assert hodge._euler_betti_one(surf) == b1
    # the sphere charts fuse each pole row into one vertex
    for surf in (equator2, ellipsoid):
        assert surf.fem().n_dofs == surf.grid.n_nodes - 2 * (surf.grid.shape[1] - 1)



def test_edge_count_matches_unique(torus96, equator2):
    # the sphere chart fuses each pole row into one vertex, whose edges the
    # triangles of that row share
    counts = []
    for surf in (torus96, equator2):
        tris, n_v = hodge._triangulate(surf), surf.fem().n_dofs
        ends = tris[:, hodge._LOCAL_EDGES]
        keys = ends.min(axis=-1) * n_v + ends.max(axis=-1)
        counts.append(hodge._count_edges(tris, n_v))
        assert counts[-1] == len(np.unique(keys))
    # the bundled torus, 96 x 96 nodes: E = 3 V
    assert counts[0] == 27648 == 3 * torus96.fem().n_dofs
