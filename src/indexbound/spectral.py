"""Index form and Jacobi spectrum of a discrete hypersurface.

The Galerkin matrices of the surface give the symmetric pencil
(K - P) phi = lambda M phi whose negative eigenvalues count unstable
deformation directions (the Morse index).  Odd-parity restriction onto the
double-cover subspace handles one-sided quotients.

The low end of the spectrum comes from one symmetric shift-invert Lanczos
solve below the spectrum (Ericsson & Ruhe 1980, "The spectral transformation
Lanczos method").  The Morse index is then counted a second time, without
eigenvectors, from the inertia of K - P (Sylvester's law): the negative
pivots of its symmetric factorization.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SpectralError(Exception):
    pass


@dataclass
class SpectrumReport:
    """Low end of the Jacobi spectrum with residuals and multiplicity clusters."""

    surface: str
    eigenvalues: np.ndarray
    residuals: np.ndarray
    cluster_ids: np.ndarray
    n_dofs: int
    inertia_index: int  # negative pivots of K - P, checked against the index
    shift: float  # shift-invert point of the Lanczos solve
    factor_nnz: int  # nonzeros of the shift factor, L.nnz + U.nnz
    cluster_gap: float = 1e-3

    @property
    def morse_index(self):
        return self.count_below(0.0)

    def count_below(self, eta):
        """Number of eigenvalues strictly below eta (raises if the computed
        window may not cover them all)."""
        eta = float(eta)
        if len(self.eigenvalues) and eta > self.eigenvalues[-1]:
            raise SpectralError(
                "threshold exceeds the computed spectral window; "
                "request more eigenvalues"
            )
        return int(np.sum(self.eigenvalues < eta))

    def to_csv(self):
        buf = io.StringIO()
        buf.write("index,eigenvalue,residual,cluster id\n")
        for i, (lam, r, c) in enumerate(
            zip(self.eigenvalues, self.residuals, self.cluster_ids)
        ):
            buf.write(f"{i},{lam:.12g},{r:.3g},{c}\n")
        return buf.getvalue()


def _cluster(eigenvalues, gap):
    ids = np.zeros(len(eigenvalues), dtype=int)
    for i in range(1, len(eigenvalues)):
        scale = max(1.0, abs(eigenvalues[i]), abs(eigenvalues[i - 1]))
        ids[i] = ids[i - 1] + (
            eigenvalues[i] - eigenvalues[i - 1] > gap * scale
        )
    return ids


class SpectralSystem:
    """Assembled index-form pencil for one hypersurface (optionally restricted
    to the odd-parity subspace of a double cover)."""

    def __init__(self, surface, parity=None, lift=None):
        fem = surface.fem()
        if fem.potential is None:
            raise SpectralError(
                f"surface {surface.name!r} carries no potential; "
                "the index form needs Ric(N,N) + |A|^2"
            )
        self.surface = surface
        self.fem = fem
        self.parity = parity
        K, P, M = fem.stiffness, fem.potential, fem.mass
        if parity is None:
            self.basis = None
        elif parity == "odd":
            if lift is None:
                raise SpectralError("odd-parity restriction needs a DoubleCoverLift")
            B = lift.odd_projector(fem)
            K, P, M = (B.T @ A @ B for A in (K, P, M))
            self.basis = B
        else:
            raise SpectralError(f"unknown parity {parity!r}")
        self.stiffness = K.tocsr()
        self.potential = P.tocsr()
        self.mass = M.tocsr()

    @property
    def n_dofs(self):
        return self.stiffness.shape[0]

    def q_value(self, dof_vector):
        """Index form Q(u, u) of a nodal vector through the discrete matrices."""
        u = np.asarray(dof_vector)
        return float(u @ (self.stiffness @ u) - u @ (self.potential @ u))

    def l2_norm_sq(self, dof_vector):
        u = np.asarray(dof_vector)
        return float(u @ (self.mass @ u))

    def rayleigh_quotient(self, dof_vector):
        return self.q_value(dof_vector) / self.l2_norm_sq(dof_vector)

    def spectrum(self, how_many=24, cluster_gap=1e-3):
        """Lowest eigenvalues of (K - P) phi = lambda M phi, smallest first.

        Raises SpectralError when the inertia of K - P disagrees with the
        number of eigenvalues found below zero.
        """
        A = (self.stiffness - self.potential).tocsc()
        M = self.mass.tocsc()
        n = self.n_dofs
        how_many = min(how_many, n - 1)  # ARPACK needs k < n
        # shift below the spectrum: lambda_1 >= -max potential density
        sigma = -float(
            np.abs(self.potential.diagonal()).sum()
            / max(self.mass.diagonal().sum(), 1e-300)
        ) - 1.0
        lu = _symmetric_lu(A - sigma * M)
        factor_nnz = lu.L.nnz + lu.U.nnz
        OPinv = spla.LinearOperator((n, n), matvec=lu.solve, dtype=A.dtype)
        # fixed seed: reruns give bitwise-equal eigenvalues.  Gaussian, not
        # constant: a constant vector is M-orthogonal to every nonconstant
        # torus mode, which Lanczos then recovers only through roundoff.
        v0 = np.random.default_rng(0).standard_normal(n)
        try:
            vals, vecs = spla.eigsh(A, k=how_many, M=M, sigma=sigma,
                                    OPinv=OPinv, v0=v0)
        except spla.ArpackNoConvergence as exc:
            raise SpectralError(
                f"eigensolver failed to converge: {exc}"
            ) from exc
        del lu, OPinv  # only one factor alive at a time
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
        inertia = _negative_pivots(_symmetric_lu(A))
        below = int(np.sum(vals < 0))
        # fewer eigenvalues than pivots below zero is fine only when the
        # computed window ends below zero
        if below > inertia or (below < inertia and vals[-1] >= 0):
            raise SpectralError(
                f"inertia of K - P gives {inertia} negative eigenvalues, "
                f"the eigensolver found {below}"
            )
        MV = M @ vecs
        res = np.linalg.norm(A @ vecs - MV * vals, axis=0) / np.maximum(
            np.linalg.norm(MV, axis=0), 1e-300
        )
        self.eigenvectors = vecs
        return SpectrumReport(
            surface=self.surface.name,
            eigenvalues=vals,
            residuals=res,
            cluster_ids=_cluster(vals, cluster_gap),
            n_dofs=n,
            inertia_index=inertia,
            shift=sigma,
            factor_nnz=factor_nnz,
            cluster_gap=cluster_gap,
        )


def _symmetric_lu(A):
    """Sparse LU of a symmetric matrix with diagonal pivots only, so that
    P A P^T = L D L^T and diag(U) = D carries the inertia of A."""
    try:
        return spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})
    except RuntimeError as exc:  # SuperLU: factor is exactly singular
        raise SpectralError(f"singular factor: {exc}") from exc


def _negative_pivots(lu):
    """Number of negative eigenvalues of the factored symmetric matrix."""
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SpectralError("off-diagonal pivot; inertia undefined")
    return int(np.sum(lu.U.diagonal() < 0))


def assemble_jacobi(surface, parity=None, lift=None):
    return SpectralSystem(surface, parity=parity, lift=lift)
