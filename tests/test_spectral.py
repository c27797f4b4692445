import re

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from indexbound import hypersurface as hyp
from indexbound.spectral import (
    SpectralError,
    SpectralSystem,
    _negative_pivots,
    _symmetric_lu,
)


@pytest.fixture(scope="module")
def torus_system(torus48):
    return SpectralSystem(torus48)


@pytest.fixture(scope="module")
def torus_spectrum(torus_system):
    return torus_system.spectrum(how_many=16)


def test_torus_eigenvalues(torus_spectrum):
    vals = torus_spectrum.eigenvalues
    assert abs(vals[0] + 4.0) < 0.04
    assert np.abs(vals[1:5] + 2.0).max() < 0.02
    assert np.abs(vals[5:9]).max() < 0.05
    assert np.abs(vals[9:13] - 4.0).max() < 0.04


def test_torus_morse_index(torus_spectrum):
    assert torus_spectrum.morse_index == 5


def test_torus_clusters(torus_spectrum):
    ids = torus_spectrum.cluster_ids
    assert list(ids[:13]) == [0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3]


def test_residuals_small(torus_spectrum):
    assert torus_spectrum.residuals.max() < 1e-8


def test_count_below(torus_spectrum):
    assert torus_spectrum.count_below(-1.0) == 5
    assert torus_spectrum.count_below(-3.0) == 1
    assert torus_spectrum.count_below(-5.0) == 0


def test_count_below_requires_coverage(torus_spectrum):
    with pytest.raises(SpectralError):
        # the threshold exceeds the computed part of the spectrum
        torus_spectrum.count_below(1e6)


def test_csv_format(torus_spectrum):
    lines = torus_spectrum.to_csv().strip().splitlines()
    assert lines[0] == "index,eigenvalue,residual,cluster id"
    assert len(lines) == len(torus_spectrum.eigenvalues) + 1
    row = lines[1].split(",")
    assert int(row[0]) == 0
    assert abs(float(row[1]) - torus_spectrum.eigenvalues[0]) < 1e-12


def test_rayleigh_quotient_matches_spectrum(torus_system, torus_spectrum):
    v = torus_system.eigenvectors[:, 0]
    rq = torus_system.rayleigh_quotient(v)
    assert abs(rq - torus_spectrum.eigenvalues[0]) < 1e-8


def test_equator_first_eigenvalue(equator2):
    spec = SpectralSystem(equator2).spectrum(how_many=6)
    assert abs(spec.eigenvalues[0] + 2.0) < 0.02
    assert spec.morse_index == 1


def test_variational_upper_bound(torus48, torus_system, torus_spectrum):
    # any trial function bounds the lowest eigenvalue from above
    params = torus48.grid.node_params
    trial = torus48.fem().to_dof(np.cos(params[:, 0] - params[:, 1]))
    assert torus_system.rayleigh_quotient(trial) >= torus_spectrum.eigenvalues[0]


def test_discrete_eigenvalues_bound_exact_from_above(torus48):
    # conforming discretization: coarser grids give larger eigenvalues
    coarse = SpectralSystem(hyp.clifford_torus(24)).spectrum(how_many=6)
    fine = SpectralSystem(hyp.clifford_torus(48)).spectrum(how_many=6)
    # the lowest mode is exact on both grids; compare the next cluster,
    # where the variational bound is strict and approaches -2 from above
    assert coarse.eigenvalues[1] >= fine.eigenvalues[1] >= -2.0


def test_odd_parity_spectrum(torus_projective):
    surface, lift = torus_projective
    spec = SpectralSystem(surface, parity="odd", lift=lift).spectrum(how_many=8)
    # the lowest odd modes are the four first-order Fourier modes
    assert np.abs(spec.eigenvalues[:4] + 2.0).max() < 0.05
    assert spec.morse_index == 4
    assert spec.eigenvalues[4] > 1.0


def test_matches_dense_oracle():
    # the generalized symmetric eigenproblem solved densely on a small grid
    system = SpectralSystem(hyp.clifford_torus(32))
    spec = system.spectrum(how_many=16)
    A = (system.stiffness - system.potential).toarray()
    oracle = scipy.linalg.eigh(A, system.mass.toarray(), eigvals_only=True)
    assert np.abs(spec.eigenvalues - oracle[:16]).max() < 1e-9


def test_inertia_matches_index(torus_spectrum, equator2, torus_projective):
    assert torus_spectrum.inertia_index == torus_spectrum.morse_index == 5
    spec = SpectralSystem(equator2).spectrum(how_many=6)
    assert spec.inertia_index == spec.morse_index == 1
    surface, lift = torus_projective
    spec = SpectralSystem(surface, parity="odd", lift=lift).spectrum(how_many=8)
    assert spec.inertia_index == spec.morse_index == 4


def test_spectrum_is_deterministic(torus_system, torus_spectrum):
    again = torus_system.spectrum(how_many=16)
    assert np.array_equal(again.eigenvalues, torus_spectrum.eigenvalues)


def test_inertia_needs_diagonal_pivots():
    with pytest.raises(SpectralError, match="off-diagonal pivot"):
        _negative_pivots(_symmetric_lu(sp.csc_matrix([[0.0, 1.0], [1.0, 0.0]])))
    with pytest.raises(SpectralError, match="singular"):
        _symmetric_lu(sp.csc_matrix([[1.0, 1.0], [1.0, 1.0]]))
    indefinite = sp.csc_matrix([[2.0, 0.0, 1.0], [0.0, -3.0, 0.0], [1.0, 0.0, 1.0]])
    assert _negative_pivots(_symmetric_lu(indefinite)) == 1


@pytest.fixture(scope="module")
def cp2_system(geodesic_cp2):
    return SpectralSystem(geodesic_cp2)


@pytest.fixture(scope="module")
def cp2_spectrum(cp2_system):
    return cp2_system.spectrum(how_many=24)


def _dense_window(system, k):
    A = (system.stiffness - system.potential).toarray()
    return scipy.linalg.eigh(A, system.mass.toarray(), eigvals_only=True)[:k]


def test_full_window_matches_dense_oracle(cp2_system, cp2_spectrum):
    # every eigenvalue of the window, including the top one: on the torus the
    # window of 24 ends inside the 8-fold cluster near 6.0042, on CP^2 the
    # pencil is factored in nested-dissection order
    torus = SpectralSystem(hyp.clifford_torus(32))
    spec = torus.spectrum(how_many=24)
    assert spec.ordering == "mmd_at_plus_a"
    assert np.abs(spec.eigenvalues - _dense_window(torus, 24)).max() < 1e-9
    assert np.sum(np.abs(spec.eigenvalues - 6.0042) < 1e-3) == 8
    assert cp2_spectrum.ordering == "nested_dissection"
    oracle = _dense_window(cp2_system, 24)
    assert np.abs(cp2_spectrum.eigenvalues - oracle).max() < 1e-9


def _mmd_fill(system, shift):
    A = (system.stiffness - system.potential - shift * system.mass).tocsc()
    lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    return lu.L.nnz + lu.U.nnz


def test_nested_dissection_permutation(cp2_system, cp2_spectrum):
    q = cp2_system.permutation
    assert np.array_equal(np.sort(q), np.arange(cp2_system.n_dofs))
    # the tensor-grid ordering fills less than minimum degree on a 3-D grid
    assert cp2_spectrum.factor_nnz < _mmd_fill(cp2_system, cp2_spectrum.shift)
    assert cp2_spectrum.inertia_index == cp2_spectrum.morse_index == 1


def test_surface_pencil_keeps_mmd(torus_system, torus_spectrum):
    assert torus_system.permutation is None
    assert torus_spectrum.ordering == "mmd_at_plus_a"
    assert torus_spectrum.factor_nnz == _mmd_fill(torus_system,
                                                  torus_spectrum.shift)


def test_odd_parity_on_three_axes_matches_dense_oracle():
    # an odd-parity column is placed at its first DOF; the antipodal map
    # pairs DOFs across the grid, so the adjacency check builds the separators
    surface = hyp.equator_in_sphere(3, 13)
    lift = hyp.DoubleCoverLift(surface, lambda p: np.stack(
        [np.pi - p[:, 0], np.pi - p[:, 1], p[:, 2] + np.pi], axis=1))
    system = SpectralSystem(surface, parity="odd", lift=lift)
    spec = system.spectrum(how_many=12)
    assert spec.ordering == "nested_dissection"
    assert np.array_equal(np.sort(system.permutation),
                          np.arange(system.n_dofs))
    assert np.abs(spec.eigenvalues - _dense_window(system, 12)).max() < 1e-9
    assert spec.inertia_index == spec.morse_index == 0


def test_shift_above_lambda_one_is_refused():
    # one DOF with a large potential pulls lambda_1 far below the mean
    # potential density that the shift is taken from
    system = SpectralSystem(hyp.clifford_torus(16))
    n = system.n_dofs
    system.potential = system.potential + sp.csr_matrix(
        ([1e3], ([0], [0])), shape=(n, n))
    with pytest.raises(SpectralError, match="not below the spectrum") as err:
        system.spectrum(how_many=8)
    shift, count = re.search(r"shift (\S+) .* has (\d+) negative pivots",
                             str(err.value)).groups()
    A = (system.stiffness - system.potential).toarray()
    oracle = scipy.linalg.eigh(A, system.mass.toarray(), eigvals_only=True)
    assert int(count) == np.sum(oracle < float(shift)) >= 1


def test_parity_pencils_sum_to_the_cover(torus_projective):
    # the S^3 cover of the Clifford torus in RP^3 splits into its even and odd
    # functions: the DOFs, the Morse index and the low clusters add up
    surface, lift = torus_projective
    cover, even, odd = (
        SpectralSystem(surface, parity=p, lift=lift).spectrum(how_many=16)
        for p in (None, "even", "odd")
    )
    assert (cover.n_dofs, even.n_dofs, odd.n_dofs) == (1024, 512, 512)
    assert (cover.morse_index, even.morse_index, odd.morse_index) == (5, 1, 4)
    for spec in (cover, even, odd):
        assert spec.inertia_index == spec.morse_index
    # through the 4-fold cluster at 4.004, below the cover's truncated 6.004
    merged = np.sort(np.concatenate([even.eigenvalues, odd.eigenvalues]))
    assert np.abs(merged[:13] - cover.eigenvalues[:13]).max() < 1e-9
    # the two-sided quotient keeps the even pencil: -4, then the four
    # Killing-field modes just above zero
    assert lift.quotient_parity() == "even"
    assert abs(even.eigenvalues[0] + 4.0) < 1e-9
    assert np.all((even.eigenvalues[1:5] > 0) & (even.eigenvalues[1:5] < 1e-3))
