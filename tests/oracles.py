"""Reference computations and probes that only the tests need, built from the
package's public pieces."""

from types import SimpleNamespace

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.optimize import brentq

from indexbound import hypersurface as hyp, spectral
from indexbound.ambient import ComplexProjectiveVeroneseModel
from indexbound.elements import Axis
from indexbound.hodge import DiscreteOneForm


#: the Cayley plane OP^2 for the rank-one margin: dimension 16, Einstein
#: constant 36; the package has no model of it
CAYLEY_PLANE = SimpleNamespace(kind="cayley_plane", intrinsic_dim=16,
                               einstein_constant=36)


def dense(X):
    """The dense array of a matrix held as triplets."""
    A = np.zeros((X.n, X.n))
    A[X.rows, X.cols] = X.data
    return A


def summed_by_scipy(fem, E):
    """The fused-DOF matrix of the cell entries E of a FemSystem, (C, L, L)
    in the order of its cell DOFs, summed by scipy's COO to CSR conversion."""
    conn = fem._cell_dofs
    L = conn.shape[1]
    rows = np.repeat(conn[:, :, None], L, axis=2).ravel()
    cols = np.repeat(conn[:, None, :], L, axis=1).ravel()
    return sp.coo_matrix((E.ravel(), (rows, cols)),
                         shape=(fem.n_dofs, fem.n_dofs)).tocsr()


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


def rayleigh_quotient(system, u):
    """Index form over squared L2 norm of a DOF vector, from the matrices of a
    SpectralSystem: u^T (K - P) u / u^T M u."""
    u = np.asarray(u)
    q = u @ (system.stiffness @ u) - u @ (system.potential @ u)
    return float(q / (u @ (system.mass @ u)))


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
    A = dense(system.stiffness - system.potential)
    M = dense(system.mass)
    if basis is not None:
        B = basis.toarray()
        A, M = B.T @ A @ B, B.T @ M @ B
    subset = None if count is None else [0, count - 1]
    return scipy.linalg.eigh(A, M, eigvals_only=True, subset_by_index=subset)


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
    A = system.stiffness - system.potential
    vals, _, sizes, below, _ = spectral._block_spectrum(
        shifts, shifts.gather(A, system.mass), A, system.mass,
        shifts.deck_signs(element) == sign, [0.0])
    return vals, sizes, below[0.0][1]


def searched_invariance_defect(shifts, *matrices):
    """max |S X S^T - X| / max |X| over the generators S of the cell shifts
    `shifts` and `matrices`, triplets on one pattern in increasing order of
    row * n + col, from a search of each image among the keys row * n + col;
    an entry whose image under S, or whose preimage, lies off the pattern
    counts in full."""
    X = matrices[0]
    keys = X.rows * X.n + X.cols
    worst = 0.0
    for perm in shifts.generators:
        moved = perm[X.rows] * X.n + perm[X.cols]
        at = np.minimum(np.searchsorted(keys, moved), X.nnz - 1)
        off = keys[at] != moved
        missed = np.ones(X.nnz, dtype=bool)
        missed[at[~off]] = False
        for Y in matrices:
            d = Y.data[at] - Y.data
            d[off] = Y.data[off]
            whole = np.abs(Y.data).max()
            worst = max(worst, max(np.abs(d).max(),
                                   np.abs(Y.data[missed]).max(initial=0.0))
                        / whole)
    return float(worst)


def global_inertia(system):
    """The negative eigenvalues of the whole K - P of a SpectralSystem, from
    one dense solve of the unsplit matrix: the cover's Morse index."""
    A = dense(system.stiffness - system.potential)
    return int(np.sum(np.linalg.eigvalsh(A) < 0))


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
        surface.name, surface.ambient, axes, surface.chart_fn,
        surface.normal_fn, metric_fn=surface._metric_fn,
        potential_fn=surface.potential_fn,
        model_point_fn=surface.model_point_fn,
        harmonic_axes=surface.harmonic_axes)


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
    comp = np.einsum("nai,ni->na", surface.node_fields()["coeffs"], df[..., 0])
    return DiscreteOneForm(surface, comp)


def minimal_geodesic_sphere_radius(lo=0.3, hi=1.3):
    """Radius at which the geodesic sphere about a point of CP^2 is minimal,
    found by root-bracketing on its numerically computed mean curvature."""
    def mean_curv(r):
        surf = hyp.geodesic_sphere_cp2(ComplexProjectiveVeroneseModel(2), 8,
                                       radius=r)
        f = surf.node_fields()
        return float(f["mean_curvature"][f["interior"]].mean())

    return brentq(mean_curv, lo, hi, xtol=1e-10)
