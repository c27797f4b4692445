"""Reference computations and probes that only the tests need, built from the
package's public pieces."""

from types import SimpleNamespace

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.optimize import brentq

from indexbound import hypersurface as hyp, spectral
from indexbound.ambient import ComplexProjectiveVeroneseModel
from indexbound.elements import Axis, CellMatrices, _reference_tensors


#: the Cayley plane OP^2 for the rank-one margin: dimension 16, Einstein
#: constant 36; the package has no model of it
CAYLEY_PLANE = SimpleNamespace(kind="cayley_plane", intrinsic_dim=16,
                               einstein_constant=36)

#: the quaternionic projective plane HP^2 for the rank-one margin: dimension
#: 8, Einstein constant 4p + 8 = 16; the package has no model of it
QUATERNIONIC_PLANE = SimpleNamespace(kind="quaternionic_projective_plane",
                                     intrinsic_dim=8, einstein_constant=16)


def dense(X):
    """The dense array of the fused-DOF matrix summed from the cell matrices
    X, by scipy's COO to CSR conversion."""
    rows, cols = np.broadcast_arrays(X.dofs[:, :, None], X.dofs[:, None, :])
    return sp.coo_matrix((X.data.ravel(), (rows.ravel(), cols.ravel()))
                         ).tocsr().toarray()


def pencil(system):
    """The dense K - P and M of a SpectralSystem, summed from its cells."""
    return tuple(map(dense, system.fem.cells(slice(None))))


def cells_by_einsum(surface):
    """The cell matrices of K - P and of M of the FemSystem of `surface`,
    each from one einsum over the quadrature points of the metric, evaluated
    there anew, its inverse and determinant (by LAPACK), the shape gradients
    and values, and the potential."""
    fem, axes = surface.fem(), surface.grid.axes
    hs = np.array([a.h for a in axes])
    gauss_local, w, vals, grads = _reference_tensors(len(axes))
    qp = surface.grid.cell_origins()[:, None, :] + gauss_local * hs
    g = surface.metric_fn(qp.reshape(-1, len(axes))).reshape(
        qp.shape + (len(axes),))
    scale = w * np.sqrt(np.linalg.det(g)) * np.prod(hs)
    grads = grads / hs
    K = np.einsum("cg,gia,cgab,gjb->cij", scale, grads, np.linalg.inv(g), grads)
    P, M = (np.einsum("cg,gi,gj->cij", s, vals, vals)
            for s in (scale * fem.potential, scale))
    return K - P, M


def fusion_labels_by_unique(positions, tol):
    """DOF labels of nodes whose positions agree when rounded to `tol`,
    numbered by first appearance, from np.unique over the rows."""
    keys = np.round(np.asarray(positions) / tol).astype(np.int64)
    _, first, labels = np.unique(keys, axis=0, return_index=True,
                                 return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[labels.ravel()]


def veronese_chart(z):
    """The Hermitian matrix z z* of points z of C^(m+1), (..., m+1, m+1)."""
    return z[..., :, None] * np.conj(z)[..., None, :]


def veronese_outer(z, w):
    """The Hermitian matrix z w* + w z*, (..., m+1, m+1)."""
    return (z[..., :, None] * np.conj(w)[..., None, :]
            + w[..., :, None] * np.conj(z)[..., None, :])


def veronese_flatten(A):
    """The ambient vector of Hermitian matrices A of the complex projective
    Veronese model: the diagonal over sqrt(2), then the real and imaginary
    parts of the upper triangle."""
    iu = np.triu_indices(A.shape[-1], k=1)
    off = A[..., iu[0], iu[1]]
    return np.concatenate([np.real(np.diagonal(A, axis1=-2, axis2=-1))
                           / np.sqrt(2.0), off.real, off.imag], axis=-1)


def whole_grid_index_form_sum(fem, U):
    """sum_j U[:, j]^T (K - P) U[:, j] over the columns of U, (n_dofs, q),
    from the cell matrices of K - P of the whole grid formed at once."""
    return fem.cells(slice(None))[0].quadratic_form(U)


def rayleigh_quotient(system, u):
    """Index form over squared L2 norm of a DOF vector, from the cell
    matrices of a SpectralSystem: u^T (K - P) u / u^T M u."""
    A, M = system.fem.cells(slice(None))
    u = np.asarray(u)[:, None]
    return A.quadratic_form(u) / M.quadratic_form(u)


def parity_basis(fem, node_permutation, parity):
    """Orthonormal columns spanning the even or odd DOF vectors of a double
    cover whose deck permutes the nodes by `node_permutation`: e_i +- e_j per
    DOF pair {i, j}, and e_i per fixed DOF when even."""
    perm = np.empty(fem.n_dofs, dtype=np.int64)
    perm[fem.fuse] = fem.fuse[node_permutation]
    dof = np.arange(fem.n_dofs)
    first = np.flatnonzero(dof <= perm if parity == "even" else dof < perm)
    sign = 1.0 if parity == "even" else -1.0
    w = np.where(perm[first] == first, 0.5, 1.0 / np.sqrt(2.0))
    col = np.arange(len(first))
    return sp.csr_matrix(
        (np.concatenate([w, sign * w]),
         (np.concatenate([first, perm[first]]), np.tile(col, 2))),
        shape=(fem.n_dofs, len(first)))


def dense_spectrum(system, basis=None, count=None):
    """The eigenvalues of the pencil of a SpectralSystem by one dense solve,
    on the columns of `basis` when given: all, or the lowest `count`."""
    A, M = pencil(system)
    if basis is not None:
        B = basis.toarray()
        A, M = B.T @ A @ B, B.T @ M @ B
    subset = None if count is None else [0, count - 1]
    return scipy.linalg.eigh(A, M, eigvals_only=True, subset_by_index=subset)


def periodic_q2_bloch(cells, length):
    """The two eigenvalues, smallest first, of the 1-D periodic Q2 pencil
    K v = mu M v on `cells` cells of a circle of `length`, per Bloch wave
    number k = 0 .. cells - 1: (cells, 2).  The element matrices are the
    closed forms h/30 [[4, 2, -1], [2, 16, 2], [-1, 2, 4]] and
    1/(3h) [[7, -8, 1], [-8, 16, -8], [1, -8, 7]], not a quadrature; the
    third node of a cell is the first of the next, so a Bloch mode with
    phase z = exp(2 pi i k / cells) per cell reads (v, m, z v) on a cell."""
    h = length / cells
    M = h / 30.0 * np.array([[4.0, 2.0, -1.0], [2.0, 16.0, 2.0],
                             [-1.0, 2.0, 4.0]])
    K = 1.0 / (3.0 * h) * np.array([[7.0, -8.0, 1.0], [-8.0, 16.0, -8.0],
                                    [1.0, -8.0, 7.0]])
    P = np.zeros((cells, 3, 2), dtype=complex)
    P[:, 0, 0] = P[:, 1, 1] = 1.0
    P[:, 2, 0] = np.exp(2j * np.pi * np.arange(cells) / cells)
    KB, MB = (P.conj().swapaxes(1, 2) @ X @ P for X in (K, M))
    L = np.linalg.cholesky(MB)
    return np.linalg.eigvalsh(
        np.linalg.solve(L, np.linalg.solve(L, KB).conj().swapaxes(1, 2)))


def clifford_torus_spectrum(nodes, even=False):
    """Every eigenvalue, smallest first, of the Jacobi pencil of the Clifford
    torus of S^3 at `nodes` nodes per axis, or of its functions that the
    half-period shift of both axes keeps (the quotient in RP^3), in closed
    form.  The metric (du^2 + dv^2) / 2 and the potential 4 are constant,
    so the pencil is a Kronecker sum with eigenvalues 2 (mu_a + mu_b) - 4
    over the 1-D Bloch eigenvalues mu; the shift multiplies the Bloch mode of
    wave numbers (k1, k2) by (-1)^(k1 + k2)."""
    cells = nodes // 2
    mu = periodic_q2_bloch(cells, 2.0 * np.pi)
    lam = 2.0 * (mu[:, None, :, None] + mu[None, :, None, :]) - 4.0
    if even:
        k = np.arange(cells)
        lam = lam[(k[:, None] + k[None, :]) % 2 == 0]
    return np.sort(lam.ravel())


def with_involution(surface, involution):
    """`surface` with `involution` as the deck of its ambient model."""
    surface.ambient.involution = involution
    return surface


def half_turn(surface, normal_sign):
    """`surface` of S^n inside S^(n+1) with the half turn of its last angle
    as the deck: a sign map of the embedding space that flips the two
    coordinates of that angle and multiplies the normal coordinate, the
    last, by `normal_sign`."""
    signs = np.ones(surface.embed_dim)
    signs[-3:] = -1.0, -1.0, normal_sign
    return with_involution(surface, lambda x: x * signs)


def deck(surface):
    """The cell shifts of the surface's grid, and the deck element and sign
    they find from the involution of its ambient."""
    shifts = spectral._CellShifts(surface.fem())
    return (shifts, *shifts.deck(surface))


def deck_permutation(surface):
    """The node permutation of the deck of the surface's ambient."""
    shifts, element, _ = deck(surface)
    return shifts.shift_nodes(element)


def deck_sign_spectrum(system, sign):
    """Every eigenvalue of the pencil of a SpectralSystem on the functions of
    one sign, +1 (even) or -1 (odd), under its deck, whichever sign the unit
    normal picks; their block sizes, and the negative eigenvalues of the
    whole cover."""
    shifts, element, _ = deck(system.surface)
    gathered, _, cell_side = spectral._gathered(shifts)
    vals, _, sizes, below, _ = spectral._block_spectrum(
        shifts, gathered, cell_side, shifts.deck_signs(element) == sign, [0.0])
    return vals, sizes, below[0.0][1]


def whole_cell_gathered(shifts):
    """What `spectral._gathered` returns, from the cells of K - P and of M
    formed over the whole grid at once, the defect not checked: the cell
    defect max |X[image] - X| / max |X| over the generators' cell images,
    the sums gathered from the chunks of the whole arrays, and the cell side
    of the Parseval identities with one bincount of the diagonal entries."""
    cells = shifts.fem.cells(slice(None))
    defect = max(np.abs(X.data[image] - X.data).max() / np.abs(X.data).max()
                 for X in cells for image in shifts.cell_images)
    n = len(shifts.reps)
    F = np.zeros((2, n * n * len(shifts.rel)))
    for at in shifts.chunks:
        shifts.gather(F, *(CellMatrices(X.dofs[at], X.data[at])
                           for X in cells))
    x, y = spectral._probe(shifts.fem.n_dofs)
    whole = []
    for X in cells:
        conn, E = X.dofs, X.data
        same = conn[:, :, None] == conn[:, None, :]
        diagonal = np.bincount(
            np.broadcast_to(conn[:, :, None], E.shape)[same], E[same], len(x))
        probe = scale = 0.0
        for at in shifts.chunks:
            xc, Ec, yc = x[conn[at]], E[at], y[conn[at]]
            probe += np.einsum("ci,cij,cj->", xc, Ec, yc)
            scale += np.einsum("ci,cij,cj->", np.abs(xc), np.abs(Ec),
                               np.abs(yc))
        whole.append([diagonal.sum(), np.abs(diagonal).sum(), probe, scale])
    return ([(f.reshape(n * n, -1), shifts.rel) for f in F], float(defect),
            (np.array(whole), shifts.fourier(x), shifts.fourier(y)))


def whole_cell_spectrum(system, eta):
    """Every eigenvalue of a SpectralSystem's pencil, its counts below 0 and
    `eta`, and its cell defect, from `whole_cell_gathered`; a quotient keeps
    the characters its deck's sign picks, as `spectrum()` does."""
    shifts = spectral._CellShifts(system.fem)
    kept = np.ones(shifts.order, dtype=bool)
    if system.surface.ambient.involution is not None:
        element, sign = shifts.deck(system.surface)
        kept = shifts.deck_signs(element) == sign
    gathered, defect, cell_side = whole_cell_gathered(shifts)
    vals, _, _, below, _ = spectral._block_spectrum(
        shifts, gathered, cell_side, kept, sorted({0.0, float(eta)}))
    return vals, {e: n for e, (n, _) in below.items()}, defect


def searched_invariance_defect(shifts, *matrices):
    """max |X_s(c) - X_c| / max |X| over the generators of the cell shifts
    `shifts` and the cell matrices X of `matrices`, where s(c) is the cell
    whose DOFs are the generator's images of the DOFs of cell c, found by a
    search among the DOF tuples of all cells."""
    conn = matrices[0].dofs
    at = {tuple(dofs): c for c, dofs in enumerate(conn.tolist())}
    worst = 0.0
    for perm in shifts.generators:
        image = [at[tuple(dofs)] for dofs in perm[conn].tolist()]
        for X in matrices:
            worst = max(worst, np.abs(X.data[image] - X.data).max()
                        / np.abs(X.data).max())
    return float(worst)


def global_inertia(system):
    """The negative eigenvalues of the whole K - P of a SpectralSystem, from
    one dense solve of the unsplit matrix: the cover's Morse index."""
    return int(np.sum(np.linalg.eigvalsh(pencil(system)[0]) < 0))


def classify(node_permutation, node_field, tol=1e-8):
    """'even', 'odd' or 'mixed' for a per-node field (any trailing shape)
    under a node permutation."""
    f = np.asarray(node_field)
    g = f[node_permutation]
    even, odd = 0.5 * (f + g), 0.5 * (f - g)
    scale = max(float(np.abs(f).max()), 1.0)
    if np.abs(odd).max() <= tol * scale:
        return "even"
    if np.abs(even).max() <= tol * scale:
        return "odd"
    return "mixed"


def descend(node_permutation, node_field, tol=1e-8):
    """Values of an even field on the quotient, one per node pair; ValueError
    for a field that is odd or mixed."""
    if classify(node_permutation, node_field, tol) != "even":
        raise ValueError("field is odd or mixed; it does not descend")
    keep = np.arange(len(node_permutation)) < node_permutation
    return np.asarray(node_field)[keep]


def with_resolution(surface, scale):
    """A re-sampled copy of a catalog surface with node counts times `scale`."""
    axes = [Axis(a.name, a.length, max(4, int(round(a.nodes * scale))),
                 periodic=a.periodic) for a in surface.axes]
    return hyp.DiscreteHypersurface(
        surface.name, surface.ambient, axes, surface.point_fn,
        surface.normal_fn, metric_fn=surface._metric_fn,
        potential=surface.potential, harmonic_axes=surface.harmonic_axes)


def random_tangent(model, point, rng, unit=True):
    """A random tangent vector of an ambient model at `point`, of unit length
    when `unit`."""
    frame = model.tangent_frame(point)
    v = np.einsum("...a,...ad->...d", rng.standard_normal(frame.shape[:-1]), frame)
    return v / np.linalg.norm(v, axis=-1, keepdims=True) if unit else v


def random_orthonormal_pair(model, point, rng):
    """Two orthonormal random tangent vectors of an ambient model at `point`."""
    X = random_tangent(model, point, rng)
    Y = random_tangent(model, point, rng, unit=False)
    Y = Y - np.einsum("...d,...d->...", Y, X)[..., None] * X
    return X, Y / np.linalg.norm(Y, axis=-1, keepdims=True)


def nabla_j_residual(model, z, rng):
    """Finite-difference residual of the parallelism of J along a random
    curve of a complex projective model."""
    X = random_tangent(model, z, rng)
    Y = random_tangent(model, z, rng)
    return model.j_parallel_residual(z, X, Y)


def scalar_and_mean_curvature(model, point):
    """The scalar curvature R and the mean curvature vector H of the embedding
    of an ambient model at `point` (batched), contracted from its II over
    pairs of the tangent frame: R = sum <II(e_a, e_a), II(e_b, e_b)> -
    |II(e_a, e_b)|^2 and H = sum II(e_a, e_a)."""
    ii = model.ii_frame_pairs(point)
    R = (np.einsum("...aad,...bbd->...", ii, ii)
         - np.einsum("...abd,...abd->...", ii, ii))
    return R, np.einsum("...aad->...d", ii)


def gradient_one_form(surface, f_fn):
    """df for a scalar function of the grid parameters (a non-harmonic probe)."""
    df = hyp.chart_jacobian(lambda p: f_fn(p)[..., None], surface.node_params,
                            surface.fd_step)
    return np.einsum("nai,ni->na", surface.node_fields()["coeffs"], df[..., 0])


def minimal_geodesic_sphere_radius(lo=0.3, hi=1.3):
    """Radius at which the geodesic sphere about a point of CP^2 is minimal,
    found by root-bracketing on its numerically computed mean curvature."""
    def mean_curv(r):
        surf = hyp.geodesic_sphere_cp2(ComplexProjectiveVeroneseModel(2), 8,
                                       radius=r)
        f = surf.node_fields()
        return float(f["mean_curvature"][f["interior"]].mean())

    return brentq(mean_curv, lo, hi, xtol=1e-10)


def node_fields(surface):
    """The chunked `DiscreteHypersurface.node_fields` arrays, each from one
    pass over every node at once."""
    jac = hyp.chart_jacobian(surface.chart_fn, surface.node_params,
                             surface.fd_step)
    frames, coeffs, ok = hyp.orthonormal_frames(jac)
    njac = hyp.chart_jacobian(surface.normal_fn, surface.node_params,
                              surface.fd_step)
    dn = np.einsum("...ab,...bd->...ad", coeffs, njac)
    A = -np.einsum("...ad,...bd->...ab", dn, frames)
    shape = np.where(ok[..., None, None], 0.5 * (A + np.swapaxes(A, -1, -2)),
                     0.0)
    return {
        "metric": np.einsum("...ad,...bd->...ab", jac, jac),
        "frames": frames,
        "coeffs": coeffs,
        "interior": ok,
        "shape_operator": shape,
        "shape_asymmetry": np.where(
            ok, np.abs(A - np.swapaxes(A, -1, -2)).max(axis=(-1, -2)), 0.0),
        "a_norm_sq": np.einsum("...ab,...ab->...", shape, shape),
        "mean_curvature": np.einsum("...aa->...", shape),
    }


def ambient_curvature(surface):
    """The chunked `DiscreteHypersurface.ambient_curvature`, from one pass
    over every node at once, with the frames of `node_fields` above."""
    model = surface.ambient
    pt = surface.point_fn(surface.node_params)
    F = model.tangent_frame(pt)
    n_nodes, m = F.shape[:2]
    Ft = F.swapaxes(1, 2)
    T = model.ii_frame_pairs(pt, F)
    rows = T.reshape(n_nodes, m, -1)
    E = node_fields(surface)["frames"] @ Ft
    nu = surface.normals[:, None, :] @ Ft
    TN = (nu @ rows).reshape(n_nodes, m, -1)
    tnn = (nu @ TN)[:, 0]
    H = np.einsum("niid->nd", T)
    S = rows @ rows.swapaxes(1, 2)
    R = TN @ TN.swapaxes(1, 2)
    HT = (T.reshape(n_nodes, m * m, -1) @ (H - tnn)[:, :, None]
          ).reshape(n_nodes, m, m)
    s_nn = np.trace(R, axis1=1, axis2=2)
    Et = E.swapaxes(1, 2)
    return hyp.AmbientCurvature(
        ii_ew=E @ (S - R) @ Et,
        rm_ew=E @ (HT - S + R) @ Et,
        ii_en=s_nn - np.einsum("nd,nd->n", tnn, tnn),
        ric_nn=np.einsum("nd,nd->n", H, tnn) - s_nn,
        scal=np.einsum("nd,nd->n", H, H) - np.trace(S, axis1=1, axis2=2),
    )
