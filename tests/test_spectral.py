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

import indexbound
from indexbound import hypersurface as hyp, spectral
from indexbound.ambient import (
    CircleTimesSphereModel,
    ComplexProjectiveVeroneseModel,
    RealProjectiveModel,
    SphereModel,
)
from indexbound.elements import FemSystem
from indexbound.spectral import (
    INVARIANCE_TOL,
    SpectralError,
    SpectralSystem,
)
from oracles import (
    clifford_torus_spectrum,
    deck_permutation,
    deck_sign_spectrum,
    dense,
    dense_spectrum,
    global_inertia,
    half_turn,
    parity_basis,
    pencil,
    rayleigh_quotient,
    searched_invariance_defect,
    whole_cell_gathered,
    whole_cell_spectrum,
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
    assert row[1] == f"{torus_spectrum.eigenvalues[0]:.12g}"


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
    oracle = scipy.linalg.eigh(*pencil(system), eigvals_only=True)
    assert len(spec.eigenvalues) >= 16
    assert np.abs(spec.eigenvalues - oracle[:len(spec.eigenvalues)]).max() < 1e-9


def test_inertia_matches_index(torus_spectrum, equator2, torus_projective,
                               cp2_system, cp2_spectrum):
    # the negative eigenvalues of K - P over every character, against one
    # dense solve of the whole unsplit K - P
    assert torus_spectrum.inertia_index == torus_spectrum.morse_index == 5
    torus = SpectralSystem(hyp.clifford_torus(SphereModel(3), 32))
    spec = torus.spectrum(how_many=6)
    assert spec.inertia_index == spec.morse_index == global_inertia(torus) == 5
    system = SpectralSystem(equator2)
    spec = system.spectrum(how_many=6)
    assert spec.inertia_index == spec.morse_index == global_inertia(system) == 1
    # a quotient's inertia is the cover's: the negative eigenvalues of all
    # characters, and of the cover's K - P
    system = SpectralSystem(torus_projective)
    spec = system.spectrum(how_many=8)
    assert (spec.inertia_index, spec.morse_index) == (5, 1)
    assert global_inertia(system) == 5
    odd, _, negative = deck_sign_spectrum(system, -1)
    assert (negative, np.sum(odd < 0)) == (5, 4)
    # the CP^2 sphere, whose poles are fused, small enough to solve densely
    assert cp2_system.fem.n_dofs <= 2000
    assert cp2_spectrum.inertia_index == cp2_spectrum.morse_index == 1
    assert global_inertia(cp2_system) == 1


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


@pytest.fixture(scope="module")
def cp2_system(geodesic_cp2):
    return SpectralSystem(geodesic_cp2)


@pytest.fixture(scope="module")
def cp2_spectrum(cp2_system):
    return cp2_system.spectrum(how_many=24)


def _dense_window(system, k):
    return scipy.linalg.eigh(*pencil(system), eigvals_only=True)[:k]


def test_full_window_matches_dense_oracle(cp2_system, cp2_spectrum):
    # every reported eigenvalue, through the end of the last cluster: on the
    # torus 24 ends in the 4-fold cluster near 12, after all 8 copies near
    # 6.0042
    torus = SpectralSystem(hyp.clifford_torus(SphereModel(3), 32))
    spec = torus.spectrum(how_many=24)
    assert len(spec.eigenvalues) == 25
    assert np.abs(spec.eigenvalues - _dense_window(torus, 25)).max() < 1e-9
    assert np.sum(np.abs(spec.eigenvalues - 6.0042) < 1e-3) == 8
    assert len(cp2_spectrum.eigenvalues) >= 24
    oracle = _dense_window(cp2_system, len(cp2_spectrum.eigenvalues))
    assert np.abs(cp2_spectrum.eigenvalues - oracle).max() < 1e-9


def test_cp2_pencil_is_invariant_to_roundoff(cp2_spectrum):
    # with the closed-form metric only roundoff breaks the symmetry of the
    # cell shifts; a metric from the chart's central differences leaves 5e-11
    assert cp2_spectrum.invariance_defect <= 1e-14


def test_odd_parity_on_three_axes_matches_dense_oracle():
    # a half turn about the polar axes pairs DOFs across the grid and fixes
    # the fused poles, which the odd characters drop
    # (the deck reverses the normal coordinate, so the quotient is odd)
    surface = half_turn(hyp.equator_in_sphere(SphereModel(4), 13), -1.0)
    system = SpectralSystem(surface)
    spec = system.spectrum(how_many=12)
    assert spec.quotient["functions"] == "odd"
    oracle = dense_spectrum(
        system, parity_basis(surface.fem(), deck_permutation(surface), "odd"))
    assert spec.n_dofs == len(oracle)
    assert np.abs(spec.all_eigenvalues - oracle).max() < 1e-9
    # the cover's index 1 is the even constant function
    assert (spec.inertia_index, spec.morse_index) == (1, 0)


def test_counts_below_eta_are_checked_per_character(cp2_system):
    # every block counts its eigenvalues below 0 and below eta twice, and the
    # kept characters' sums are the counts the report states
    for eta, count in ((2.0, 5), (6.0, 8)):
        spec = cp2_system.spectrum(eta=eta)
        assert spec.inertia_counts == {0.0: 1, eta: count}
        assert spec.count_below(eta) == count


def test_count_disagreeing_with_inertia_is_refused(monkeypatch):
    # lowered by 1, the four Killing-field modes just above 0 of the torus
    # fall below 0 while the inertia of their blocks does not move
    system = SpectralSystem(hyp.clifford_torus(SphereModel(3), 16))
    stack_values = spectral._stack_values
    monkeypatch.setattr(spectral, "_stack_values",
                        lambda A, M: stack_values(A, M) - 1.0)
    with pytest.raises(SpectralError, match=r"character \(\d+, \d+\) has "
                       r"\d+ eigenvalues below 0 "):
        system.spectrum()


def _lowest_per_character(system):
    """The lowest eigenvalue of the block of each character that is solved,
    the first of each conjugate pair k, -k in C order."""
    shifts = spectral._CellShifts(system.fem)
    gathered = spectral._gathered(shifts)[0]
    chars = np.arange(shifts.order)
    conjugate = np.ravel_multi_index(
        np.mod(-shifts.multi(chars), np.array(shifts.cells)[:, None]),
        shifts.cells)
    lowest = []
    for k in chars[chars <= conjugate]:
        keep = np.ix_(shifts.fixes[k], shifts.fixes[k])
        BA, BM = (shifts.blocks(g, [k])[0][keep] for g in gathered)
        lowest.append(scipy.linalg.eigh(BA, BM, eigvals_only=True)[0])
    return np.array(lowest)


def test_eigenvectors_only_of_the_window_characters(cp2_system, cp2_spectrum,
                                                    monkeypatch):
    # every block is solved for eigenvalues only; the window's residuals form
    # again one block per character that owns a reported eigenvalue, and no
    # other
    lowest = _lowest_per_character(cp2_system)
    owners = np.flatnonzero(lowest <= cp2_spectrum.eigenvalues[-1] + 1e-9)
    formed = []
    stacks = spectral._stacks

    def recording(shifts, gathered, chars):
        formed.append(np.array(chars))
        return stacks(shifts, gathered, chars)

    monkeypatch.setattr(spectral, "_stacks", recording)
    spec = cp2_system.spectrum(how_many=24)
    assert np.array_equal(spec.eigenvalues, cp2_spectrum.eigenvalues)
    solved, window = formed  # by the eigenvalue solve, then the residuals
    assert len(solved) == len(lowest)
    assert np.array_equal(window, solved[owners])
    assert len(window) < len(lowest) // 2


def test_residuals_are_those_of_the_reported_eigenvalues(cp2_system,
                                                         cp2_spectrum,
                                                         monkeypatch):
    # eigenvalues moved by one part in 10^6 inside the eigenvalue-only solve
    # cross neither 0 nor eta, so every count still agrees, but the residual
    # of each reported value against its eigenvector shows the move
    assert cp2_spectrum.residuals.max() < 1e-10
    stack_values = spectral._stack_values
    monkeypatch.setattr(spectral, "_stack_values",
                        lambda A, M: stack_values(A, M) * (1.0 + 1e-6))
    spec = cp2_system.spectrum(how_many=24)
    assert spec.morse_index == spec.inertia_index == 1
    moved = np.abs(spec.eigenvalues) > 0.1
    assert moved.sum() > 20
    assert spec.residuals[moved].min() > 1e-8


@pytest.mark.parametrize("budget", [None, 24 * 24 * 5])
def test_blocks_stay_within_the_gather_budget(cp2_system, cp2_spectrum, budget,
                                              monkeypatch):
    # the default budget, and one of five blocks of 24 orbits, which splits
    # the 34 solved characters of the CP^2 grid into seven batches
    if budget is not None:
        monkeypatch.setattr(spectral, "_GATHER_ENTRIES", budget)
    held = []
    blocks = spectral._CellShifts.blocks

    def recording(self, gathered, chars):
        B = blocks(self, gathered, chars)
        held.append(B.size)
        return B

    monkeypatch.setattr(spectral._CellShifts, "blocks", recording)
    spec = cp2_system.spectrum(how_many=24)
    assert max(held) <= spectral._GATHER_ENTRIES
    assert len(held) >= (16 if budget else 4)
    assert np.abs(spec.all_eigenvalues - cp2_spectrum.all_eigenvalues).max() < 1e-12
    assert spec.inertia_counts == cp2_spectrum.inertia_counts


def _drop_orbit(shifts, F, rel):
    """The gathered sums without any entry of the smallest orbit (a fused
    pole on CP^2): its Fourier vector left out of every block."""
    n = len(shifts.reps)
    o = int(np.argmin(shifts.size))
    rows = np.arange(n * n)
    keep = (rows // n != o) & (rows % n != o)
    return F * keep[:, None], rel


def _scale_element(shifts, F, rel):
    """The gathered sums with those of the last relative element scaled."""
    scale = np.ones(len(rel))
    scale[-1] = 1.001
    return F * scale, rel


@pytest.mark.parametrize("corrupt, message", [
    (_drop_orbit, "not positive definite"),
    (_scale_element, "Parseval residual"),
])
@pytest.mark.parametrize("surface", ["torus", "cp2"])
def test_corrupted_gather_is_refused(surface, corrupt, message, monkeypatch,
                                     cp2_system):
    system = cp2_system if surface == "cp2" else SpectralSystem(
        hyp.clifford_torus(SphereModel(3), 16))
    assert system.spectrum().parseval_residual < 1e-14
    gathered = spectral._gathered

    def corrupted(shifts):
        sums, *rest = gathered(shifts)
        return [corrupt(shifts, *g) for g in sums], *rest

    monkeypatch.setattr(spectral, "_gathered", corrupted)
    with pytest.raises(SpectralError, match=message):
        system.spectrum()


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


def test_shift_off_the_cells_is_refused():
    # two cells whose DOFs trade places: the shift of a cell's DOFs is no
    # longer the DOFs of its image cell
    fem = hyp.clifford_torus(SphereModel(3), 16).fem()
    conn = fem._cell_dofs.copy()
    conn[[0, 5]] = conn[[5, 0]]
    broken = SimpleNamespace(grid=fem.grid, fuse=fem.fuse, n_dofs=fem.n_dofs,
                             _first_node=fem._first_node, _cell_dofs=conn)
    with pytest.raises(SpectralError, match="onto those of a cell"):
        spectral._CellShifts(broken)


def _torus_shift_defect(X, nodes):
    """max |S X S^T - X| / max |X| over the one-cell shifts S of the torus
    grid, whose DOFs are its nodes in C order, on a dense X."""
    T = X.reshape(nodes, nodes, nodes, nodes)
    moved = (np.roll(T, 2, axis=(a, a + 2)) for a in (0, 1))
    return max(np.abs(m - T).max() for m in moved) / np.abs(X).max()


def test_perturbed_metric_is_refused_by_the_invariance_defect():
    # a metric stretched along the first axis on part of one cell breaks the
    # symmetry the blocks need
    surface = hyp.clifford_torus(SphereModel(3), 16)
    assert _torus_shift_defect(pencil(SpectralSystem(surface))[0], 16) < 1e-15
    surface = hyp.clifford_torus(SphereModel(3), 16)
    metric = surface.metric_fn
    stretch = np.diag([1e3, 0.0])
    surface.metric_fn = lambda p: metric(p) + stretch * (
        np.abs(p).max(axis=-1) < 0.3)[:, None, None]
    system = SpectralSystem(surface)
    with pytest.raises(SpectralError, match="invariance defect") as err:
        system.spectrum(how_many=8)
    defect = float(re.search(r"invariance defect (\S+)", str(err.value))[1])
    shifts = spectral._CellShifts(system.fem)
    A, M = system.fem.cells(slice(None))
    cells = whole_cell_gathered(shifts)[1]
    assert defect > INVARIANCE_TOL
    # the message rounds to 3 digits
    assert abs(defect - cells) < 5e-3 * defect
    assert cells == searched_invariance_defect(shifts, A, M)
    # an entry of the summed K - P sums the entries of at most four cells,
    # so a shift moves it by at most four times the cell defect
    X = dense(A)
    moved = _torus_shift_defect(X, 16) * np.abs(X).max()
    assert INVARIANCE_TOL < moved <= 4 * cells * np.abs(A.data).max()


@pytest.mark.parametrize("scale, refused", [(1e-6, True), (1e-9, False)])
def test_perturbed_cell_is_refused(scale, refused, monkeypatch):
    # one entry of one mass cell moved by `scale` of the largest: the cell
    # defect sees the move, and refuses the pencil above INVARIANCE_TOL
    system = SpectralSystem(hyp.clifford_torus(SphereModel(3), 16))
    largest = np.abs(system.fem.cells(slice(None))[1].data).max()
    cells = FemSystem.cells

    def perturbed(fem, at):
        A, M = cells(fem, at)
        if at.start <= 5 < at.stop:
            M.data[5 - at.start, 0, 0] += scale * largest
        return A, M

    monkeypatch.setattr(FemSystem, "cells", perturbed)
    if refused:
        with pytest.raises(SpectralError, match="invariance defect 1e-06 "):
            system.spectrum(how_many=8)
    else:
        defect = system.spectrum(how_many=8).invariance_defect
        assert abs(defect - scale) < 1e-3 * scale


@pytest.mark.parametrize("surface", [
    pytest.param(lambda: hyp.clifford_torus(SphereModel(3), 16), id="torus16"),
    pytest.param(lambda: hyp.geodesic_sphere_cp2(
        ComplexProjectiveVeroneseModel(2), 8), id="cp2"),
    pytest.param(lambda: hyp.clifford_torus(RealProjectiveModel(3), 32),
                 id="rp3-cover"),
])
def test_cell_images_give_the_searched_defect(surface):
    # the images read off the cell grid give the defect of a search for each
    # shifted cell among the cells' DOFs, bit for bit; the cells of one
    # orbit of the shifts are equal bit for bit
    system = SpectralSystem(surface())
    shifts = spectral._CellShifts(system.fem)
    defect = system.spectrum(how_many=8).invariance_defect
    cells = system.fem.cells(slice(None))
    assert defect == searched_invariance_defect(shifts, *cells) == 0.0


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


def test_clifford_spectrum_matches_the_closed_form(torus96):
    # the bundled Clifford run (96 nodes, 9,216 DOFs) and its quotient in
    # RP^3, every eigenvalue against the Kronecker sum of the 1-D Bloch
    # pencil; roundoff leaves 7.2e-12 relative to max(1, |lambda|)
    quotient = hyp.clifford_torus(RealProjectiveModel(3), 96)
    for surface, even, index in ((torus96, False, 5), (quotient, True, 1)):
        spec = SpectralSystem(surface).spectrum(how_many=16)
        oracle = clifford_torus_spectrum(96, even)
        assert spec.n_dofs == len(oracle) == 9216 // (1 + even)
        error = np.abs(spec.all_eigenvalues - oracle)
        assert (error / np.maximum(1.0, np.abs(oracle))).max() < 1e-10
        for eta, count in ((0.0, index), (1.0, index + 4)):
            assert spec.count_below(eta) == np.sum(oracle < eta) == count
        window = oracle[:len(spec.eigenvalues)]
        assert np.array_equal(spectral._cluster(window), spec.cluster_ids)


def _held_arrays(*owners):
    """The arrays among the attributes of `owners`, and among those of the
    tuples and objects they hold."""
    values = [v for owner in owners for v in vars(owner).values()]
    values += [x for v in values for x in (
        v if isinstance(v, (tuple, list)) else getattr(v, "__dict__", {})
        .values())]
    return [v for v in values if isinstance(v, np.ndarray)]


def test_spectrum_keeps_no_cell_stack(monkeypatch):
    # after spectrum() neither the system nor its FEM system holds an array
    # of C L^2 entries, one per cell entry, and the stage sorts none
    surface = hyp.geodesic_sphere_cp2(ComplexProjectiveVeroneseModel(2), 8)
    C, L = surface.fem().cells(slice(None))[0].dofs.shape
    sorted_sizes = []
    for name in ("unique", "argsort"):
        def counting(a, *args, _sort=getattr(np, name), **kwargs):
            sorted_sizes.append(np.size(a))
            return _sort(a, *args, **kwargs)

        monkeypatch.setattr(np, name, counting)
    system = SpectralSystem(surface)
    assert system.spectrum().morse_index == 1
    assert 0 < max(sorted_sizes) < C * L * L
    held = _held_arrays(system, system.fem)
    assert len(held) > 5 and max(v.size for v in held) < C * L * L


@pytest.mark.parametrize("surface", ["geodesic_cp2", "torus48",
                                     "torus_projective"])
def test_spectrum_forms_one_chunk_of_cells_at_a_time(surface, request,
                                                     monkeypatch):
    # every cell array that spectrum() forms covers at most one chunk, and
    # each chunk is formed once for K - P and once for M; the spectrum, its
    # counts and its cell defect are those of the cells formed at once
    system = SpectralSystem(request.getfixturevalue(surface))
    shifts = spectral._CellShifts(system.fem)
    chunk = max(at.stop - at.start for at in shifts.chunks)
    assert 1 < len(shifts.chunks) and chunk * len(shifts.chunks) == len(
        system.fem._cell_dofs)
    formed = []
    cells = FemSystem._cells

    def recording(fem, *args, **kwargs):
        X = cells(fem, *args, **kwargs)
        formed.append(len(X.data))
        return X

    monkeypatch.setattr(FemSystem, "_cells", recording)
    spec = system.spectrum(how_many=8, eta=1.0)
    assert len(formed) == 2 * len(shifts.chunks) and max(formed) <= chunk
    vals, counts, defect = whole_cell_spectrum(system, 1.0)
    assert np.array_equal(spec.all_eigenvalues, vals)
    assert spec.inertia_counts == counts
    assert spec.invariance_defect == defect


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


#: CPU seconds of the process over a 0.3 s sleep right after the CP^2
#: spectrum of cp2-borderline.cfg, in a fresh interpreter; the sleep after
#: the import lets numpy's own start-up spin end first
_IDLE_PROBE = """
import resource, time
from indexbound import hypersurface as hyp
from indexbound.ambient import ComplexProjectiveVeroneseModel
from indexbound.spectral import SpectralSystem
time.sleep(0.3)
surface = hyp.geodesic_sphere_cp2(ComplexProjectiveVeroneseModel(2), 32)
SpectralSystem(surface).spectrum()

def cpu():
    use = resource.getrusage(resource.RUSAGE_SELF)
    return use.ru_utime + use.ru_stime

before = cpu()
time.sleep(0.3)
print(cpu() - before)
"""


def _openblas():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.skipif(not _openblas() or len(os.sched_getaffinity(0)) < 2,
                    reason="needs OpenBLAS and two CPUs")
def test_spectrum_leaves_no_blas_worker_spinning():
    # an OpenBLAS worker woken by a threaded call busy-waits about 0.13 s
    # before it sleeps; the spectrum's products and solves are small enough
    # to stay on the calling thread, so the process idles after it
    src = str(Path(indexbound.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _IDLE_PROBE],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout.splitlines()[-1]) < 0.02
