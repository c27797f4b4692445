import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import indexbound
from indexbound import hypersurface as hyp, spectral
from indexbound.ambient import (
    CircleTimesSphereModel,
    RealProjectiveModel,
    SphereModel,
)
from indexbound.spectral import (
    INVARIANCE_TOL,
    SpectralError,
    SpectralSystem,
    _inertia,
    _symmetric_lu,
)
from oracles import (
    deck_permutation,
    deck_sign_spectrum,
    dense_spectrum,
    half_turn,
    parity_basis,
    rayleigh_quotient,
    with_involution,
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
    # the block spectrum is the whole spectrum: a threshold above it counts
    # every DOF
    assert torus_spectrum.count_below(1e6) == torus_spectrum.n_dofs == 48 * 48


def test_csv_format(torus_spectrum):
    lines = torus_spectrum.to_csv().strip().splitlines()
    assert lines[0] == "index,eigenvalue,residual,cluster id"
    assert len(lines) == len(torus_spectrum.eigenvalues) + 1
    row = lines[1].split(",")
    assert int(row[0]) == 0
    assert abs(float(row[1]) - torus_spectrum.eigenvalues[0]) < 1e-12


def test_rayleigh_quotient_matches_spectrum(torus_system, torus_spectrum):
    # the constant function is the lowest eigenfunction: K 1 = 0 and P = 4 M
    rq = rayleigh_quotient(torus_system, np.ones(torus_system.fem.n_dofs))
    assert abs(rq + 4.0) < 1e-12
    assert abs(rq - torus_spectrum.eigenvalues[0]) < 1e-8


def test_equator_first_eigenvalue(equator2):
    spec = SpectralSystem(equator2).spectrum(how_many=6)
    assert abs(spec.eigenvalues[0] + 2.0) < 0.02
    assert spec.morse_index == 1


def test_variational_upper_bound(torus48, torus_system, torus_spectrum):
    # any trial function bounds the lowest eigenvalue from above
    params = torus48.grid.node_params
    trial = torus48.fem().to_dof(np.cos(params[:, 0] - params[:, 1]))
    assert rayleigh_quotient(torus_system, trial) >= torus_spectrum.eigenvalues[0]


def test_discrete_eigenvalues_bound_exact_from_above(torus48):
    # conforming discretization: coarser grids give larger eigenvalues
    coarse, fine = (
        SpectralSystem(hyp.clifford_torus(SphereModel(3), nodes)).spectrum(how_many=6)
        for nodes in (24, 48))
    # the lowest mode is exact on both grids; compare the next cluster,
    # where the variational bound is strict and approaches -2 from above
    assert coarse.eigenvalues[1] >= fine.eigenvalues[1] >= -2.0


def test_odd_parity_spectrum(torus_projective):
    vals, _, _ = deck_sign_spectrum(SpectralSystem(torus_projective), -1)
    # the lowest odd modes are the four first-order Fourier modes
    assert np.abs(vals[:4] + 2.0).max() < 0.05
    assert np.sum(vals < 0) == 4
    assert vals[4] > 1.0


def test_matches_dense_oracle():
    # the generalized symmetric eigenproblem solved densely on a small grid
    system = SpectralSystem(hyp.clifford_torus(SphereModel(3), 32))
    spec = system.spectrum(how_many=16)
    A = (system.stiffness - system.potential).toarray()
    oracle = scipy.linalg.eigh(A, system.mass.toarray(), eigvals_only=True)
    assert len(spec.eigenvalues) >= 16
    assert np.abs(spec.eigenvalues - oracle[:len(spec.eigenvalues)]).max() < 1e-9


def test_inertia_matches_index(torus_spectrum, equator2, torus_projective):
    assert torus_spectrum.inertia_index == torus_spectrum.morse_index == 5
    spec = SpectralSystem(equator2).spectrum(how_many=6)
    assert spec.inertia_index == spec.morse_index == 1
    # a quotient's inertia is the cover's: the negative pivots of its K - P,
    # and the negative eigenvalues of all characters
    system = SpectralSystem(torus_projective)
    spec = system.spectrum(how_many=8)
    assert (spec.inertia_index, spec.morse_index) == (5, 1)
    odd, _, negative = deck_sign_spectrum(system, -1)
    assert (negative, np.sum(odd < 0)) == (5, 4)


def test_spectrum_is_deterministic(torus_system, torus_spectrum):
    again = torus_system.spectrum(how_many=16)
    assert np.array_equal(again.eigenvalues, torus_spectrum.eigenvalues)


def test_blocks_gathered_in_chunks_match(monkeypatch):
    # a gather budget of one block solves each character on its own
    system = SpectralSystem(hyp.circle_times_equator(CircleTimesSphereModel(3), 8))
    whole = system.spectrum()
    monkeypatch.setattr(spectral, "_GATHER_ENTRIES", 1)
    chunked = system.spectrum()
    assert np.array_equal(np.sort(chunked.block_sizes), np.sort(whole.block_sizes))
    assert np.abs(chunked.all_eigenvalues - whole.all_eigenvalues).max() < 1e-12


def test_inertia_needs_diagonal_pivots():
    with pytest.raises(SpectralError, match="off-diagonal pivot"):
        _inertia(_symmetric_lu(sp.csc_matrix([[0.0, 1.0], [1.0, 0.0]])))
    with pytest.raises(SpectralError, match="singular"):
        _symmetric_lu(sp.csc_matrix([[1.0, 1.0], [1.0, 1.0]]))
    indefinite = sp.csc_matrix([[2.0, 0.0, 1.0], [0.0, -3.0, 0.0], [1.0, 0.0, 1.0]])
    lu = _symmetric_lu(indefinite)
    assert _inertia(lu) == (1, lu.L.nnz + lu.U.nnz)


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
    # every reported eigenvalue, through the end of the last cluster: on the
    # torus 24 ends in the 4-fold cluster near 12, after all 8 copies near
    # 6.0042; on CP^2 the inertia factor is in nested-dissection order
    torus = SpectralSystem(hyp.clifford_torus(SphereModel(3), 32))
    spec = torus.spectrum(how_many=24)
    assert spec.ordering == "mmd_at_plus_a"
    assert len(spec.eigenvalues) == 25
    assert np.abs(spec.eigenvalues - _dense_window(torus, 25)).max() < 1e-9
    assert np.sum(np.abs(spec.eigenvalues - 6.0042) < 1e-3) == 8
    assert cp2_spectrum.ordering == "nested_dissection"
    assert len(cp2_spectrum.eigenvalues) >= 24
    oracle = _dense_window(cp2_system, len(cp2_spectrum.eigenvalues))
    assert np.abs(cp2_spectrum.eigenvalues - oracle).max() < 1e-9


def _mmd_fill(system, shift):
    A = (system.stiffness - system.potential - shift * system.mass).tocsc()
    lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    return lu.L.nnz + lu.U.nnz


def test_nested_dissection_permutation(cp2_system, cp2_spectrum):
    q = cp2_system.permutation
    assert np.array_equal(np.sort(q), np.arange(cp2_system.fem.n_dofs))
    # the tensor-grid ordering fills less than minimum degree on a 3-D grid
    assert cp2_spectrum.factor_nnz < _mmd_fill(cp2_system, 0.0)
    assert cp2_spectrum.inertia_index == cp2_spectrum.morse_index == 1


def test_surface_pencil_keeps_mmd(torus_system, torus_spectrum):
    assert torus_system.permutation is None
    assert torus_spectrum.ordering == "mmd_at_plus_a"
    assert torus_spectrum.factor_nnz == _mmd_fill(torus_system, 0.0)


def test_odd_parity_on_three_axes_matches_dense_oracle():
    # a half turn about the polar axes pairs DOFs across the grid and fixes
    # the fused poles, which the odd characters drop
    # (the deck reverses the normal coordinate, so the quotient is odd)
    surface = half_turn(hyp.equator_in_sphere(SphereModel(4), 13), -1.0)
    system = SpectralSystem(surface)
    spec = system.spectrum(how_many=12)
    assert spec.quotient["functions"] == "odd"
    assert spec.ordering == "nested_dissection"
    assert np.array_equal(np.sort(system.permutation),
                          np.arange(system.fem.n_dofs))
    oracle = dense_spectrum(
        system, parity_basis(surface.fem(), deck_permutation(surface), "odd"))
    assert spec.n_dofs == len(oracle)
    assert np.abs(spec.all_eigenvalues - oracle).max() < 1e-9
    # the cover's index 1 is the even constant function
    assert (spec.inertia_index, spec.morse_index) == (1, 0)


def test_non_translation_deck_is_refused():
    # the antipodal map of the equator reflects the polar angle
    surface = with_involution(hyp.equator_in_sphere(SphereModel(3), 13),
                              lambda x: -x)
    with pytest.raises(SpectralError, match="not a whole-cell shift"):
        SpectralSystem(surface).spectrum()
    # with 17 cells per axis the half-period shift moves vertex nodes onto
    # cell midpoints
    surface = hyp.clifford_torus(RealProjectiveModel(3), 34)
    assert surface.grid.axes[0].n_cells == 17
    with pytest.raises(SpectralError, match="not a whole-cell shift"):
        SpectralSystem(surface).spectrum()


def test_deck_without_normal_line_field_is_refused():
    # a half turn that sends the normal coordinate to 0 moves the unit
    # normal to neither sign
    surface = half_turn(hyp.equator_in_sphere(SphereModel(3), 13), 0.0)
    with pytest.raises(SpectralError, match="no normal line field"):
        SpectralSystem(surface).spectrum()


def test_shift_that_splits_a_dof_is_refused():
    # fuse two nodes whose one-cell shifts land on two different DOFs
    fem = hyp.clifford_torus(SphereModel(3), 16).fem()
    fuse = fem.fuse.copy()
    fuse[1] = fuse[0]
    broken = SimpleNamespace(grid=fem.grid, fuse=fuse, n_dofs=fem.n_dofs,
                             _first_node=fem._first_node)
    with pytest.raises(SpectralError, match="two nodes of one DOF"):
        spectral._CellShifts(broken)


def _torus_shift_defect(X, nodes):
    """max |S X S^T - X| / max |X| over the one-cell shifts S of the torus
    grid, whose DOFs are its nodes in C order, on a dense X."""
    T = X.reshape(nodes, nodes, nodes, nodes)
    moved = (np.roll(T, 2, axis=(a, a + 2)) for a in (0, 1))
    return max(np.abs(m - T).max() for m in moved) / np.abs(X).max()


def test_perturbed_potential_is_refused_by_the_invariance_defect():
    # one DOF with a large potential breaks the symmetry the blocks need
    system = SpectralSystem(hyp.clifford_torus(SphereModel(3), 16))
    n = system.fem.n_dofs
    A = (system.stiffness - system.potential).toarray()
    assert _torus_shift_defect(A, 16) < 1e-15
    system.potential = system.potential + sp.csr_matrix(
        ([1e3], ([0], [0])), shape=(n, n))
    with pytest.raises(SpectralError, match="invariance defect") as err:
        system.spectrum(how_many=8)
    defect = float(re.search(r"invariance defect (\S+)", str(err.value))[1])
    A = (system.stiffness - system.potential).toarray()
    assert defect > INVARIANCE_TOL
    # the message rounds to 3 digits
    assert abs(defect - _torus_shift_defect(A, 16)) < 5e-3 * defect


def test_parity_pencils_sum_to_the_cover(torus_projective):
    # the S^3 cover of the Clifford torus in RP^3 splits into its even and odd
    # functions: the DOFs, the Morse index and the low clusters add up
    cover = SpectralSystem(
        hyp.clifford_torus(SphereModel(3), 32)).spectrum(how_many=16)
    system = SpectralSystem(torus_projective)
    even = system.spectrum(how_many=16)
    odd, _, negative = deck_sign_spectrum(system, -1)
    assert (cover.n_dofs, even.n_dofs, len(odd)) == (1024, 512, 512)
    assert (cover.morse_index, even.morse_index, np.sum(odd < 0)) == (5, 1, 4)
    assert cover.inertia_index == even.inertia_index == negative == 5
    # the whole spectra, every eigenvalue of the cover once
    merged = np.sort(np.concatenate([even.all_eigenvalues, odd]))
    assert np.abs(merged - cover.all_eigenvalues).max() < 1e-9
    # the two-sided quotient keeps the even pencil: -4, then the four
    # Killing-field modes just above zero
    assert even.quotient == {"shift_cells": [8, 8], "functions": "even"}
    assert abs(even.eigenvalues[0] + 4.0) < 1e-9
    assert np.all((even.eigenvalues[1:5] > 0) & (even.eigenvalues[1:5] < 1e-3))


#: the spectrum of circle_times_equator in S^1 x S^3 at 14 nodes, in a
#: fresh interpreter
_PROBE = """
import json
from indexbound import hypersurface as hyp
from indexbound.ambient import CircleTimesSphereModel
from indexbound.spectral import SpectralSystem
surface = hyp.circle_times_equator(CircleTimesSphereModel(3), 14)
rep = SpectralSystem(surface).spectrum(how_many=12)
print(json.dumps([rep.eigenvalues.tolist(), rep.count_below(1.5)]))
"""


def _probe_at_blas_threads(threads):
    src = str(Path(indexbound.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads), PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_spectrum_is_complete_at_one_and_two_blas_threads():
    # a shift-invert Lanczos window found only 3 of the 4 copies near
    # 1.0022165 at one BLAS thread, and counted 11 eigenvalues below 1.5
    vals, below = _probe_at_blas_threads(1)
    assert np.sum(np.abs(np.array(vals) - 1.0022165) < 1e-7) == 4
    surface = hyp.circle_times_equator(CircleTimesSphereModel(3), 14)
    oracle = dense_spectrum(SpectralSystem(surface), count=20)
    assert np.abs(np.array(vals) - oracle[:len(vals)]).max() < 1e-9
    assert below == 12 == np.sum(oracle < 1.5) < len(oracle)
    # JSON floats round-trip exactly: the two runs agree bit for bit
    assert _probe_at_blas_threads(2) == [vals, below]
