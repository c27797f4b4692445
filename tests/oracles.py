"""Reference computations and probes that only the tests need, built from the
package's public pieces."""

from types import SimpleNamespace

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.optimize import brentq

from indexbound import hypersurface as hyp
from indexbound.ambient import make_ambient
from indexbound.elements import Axis
from indexbound.hodge import DiscreteOneForm


#: the Cayley plane OP^2 for the rank-one margin: dimension 16, Einstein
#: constant 36; the package has no model of it
CAYLEY_PLANE = SimpleNamespace(kind="cayley_plane", intrinsic_dim=16,
                               einstein_constant=36)


def rayleigh_quotient(system, u):
    """Index form over squared L2 norm of a DOF vector, from the matrices of a
    SpectralSystem: u^T (K - P) u / u^T M u."""
    u = np.asarray(u)
    q = u @ (system.stiffness @ u) - u @ (system.potential @ u)
    return float(q / (u @ (system.mass @ u)))


def parity_basis(fem, lift, parity):
    """Orthonormal columns spanning the even or odd DOF vectors of a double
    cover: e_i +- e_j per DOF pair {i, j}, and e_i per fixed DOF when even."""
    perm = np.empty(fem.n_dofs, dtype=np.int64)
    perm[fem.fuse] = fem.fuse[lift.node_permutation]
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
    A = system.stiffness - system.potential
    M = system.mass
    if basis is not None:
        A, M = basis.T @ A @ basis, basis.T @ M @ basis
    subset = None if count is None else [0, count - 1]
    return scipy.linalg.eigh(A.toarray(), M.toarray(), eigvals_only=True,
                             subset_by_index=subset)


def clifford_torus_projective(nodes):
    """The Clifford torus in RP^3 with the deck involution of its registry
    entry."""
    surface = hyp.clifford_torus(nodes, make_ambient("real_projective", dim=3))
    deck = hyp.SURFACE_KINDS["clifford_torus"].ambients["real_projective"]
    return surface, hyp.DoubleCoverLift(surface, deck)


def descend(lift, node_field, tol=1e-8):
    """Values of an even field on the quotient, one per node pair; ValueError
    for a field that is odd or mixed."""
    if lift.classify(node_field, tol) != "even":
        raise ValueError("field is odd or mixed; it does not descend")
    keep = np.arange(len(lift.node_permutation)) < lift.node_permutation
    return np.asarray(node_field)[keep]


def with_resolution(surface, scale):
    """A re-sampled copy of a catalog surface with node counts times `scale`."""
    axes = [Axis(a.name, a.length, max(4, int(round(a.nodes * scale))),
                 periodic=a.periodic, lo=a.lo) for a in surface.axes]
    return hyp.DiscreteHypersurface(
        surface.name, surface.ambient, axes, surface.chart_fn,
        surface.normal_fn, metric_fn=surface._metric_fn,
        potential_fn=surface.potential_fn,
        model_point_fn=surface.model_point_fn, betti_one=surface.betti_one,
        kind=surface.kind)


def random_orthonormal_pair(model, point, rng):
    """Two orthonormal random tangent vectors of an ambient model at `point`."""
    X = model.random_tangent(point, rng)
    Y = model.random_tangent(point, rng, unit=False)
    Y = Y - np.einsum("...d,...d->...", Y, X)[..., None] * X
    return X, Y / np.linalg.norm(Y, axis=-1, keepdims=True)


def nabla_j_residual(model, z, rng, h=1e-5):
    """Finite-difference residual of the parallelism of J along a random
    curve of a complex projective model."""
    X = model.random_tangent(z, rng)
    Y = model.random_tangent(z, rng)
    return model.j_parallel_residual(z, X, Y, h)


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
        surf = hyp.geodesic_sphere_cp2(nodes=8, radius=r)
        f = surf.node_fields()
        return float(f["mean_curvature"][f["interior"]].mean())

    return brentq(mean_curv, lo, hi, xtol=1e-10)
