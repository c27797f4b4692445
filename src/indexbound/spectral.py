"""Index form and Jacobi spectrum of a discrete hypersurface.

The Galerkin matrices of the surface give the symmetric pencil
(K - P) phi = lambda M phi whose negative eigenvalues count unstable
deformation directions (the Morse index).  Restriction to the even or odd
functions of a double cover gives the pencil of a two-sided or a one-sided
quotient.

The low end of the spectrum comes from one symmetric shift-invert Lanczos
solve below the spectrum (Ericsson & Ruhe 1980, "The spectral transformation
Lanczos method").  The Morse index is then counted a second time, without
eigenvectors, from the inertia of K - P (Sylvester's law): the negative
pivots of its symmetric factorization.

Both factorizations share one fill-reducing ordering.  On a grid of three or
more axes it is a nested dissection of the tensor grid (George 1973, "Nested
dissection of a regular finite element mesh"); on a surface grid SuperLU's
minimum degree ordering of A^T + A fills less and is kept.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np
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
    inertia_index: int  # negative pivots of K - P: the Morse index
    shift: float  # shift-invert point of the Lanczos solve
    factor_nnz: int  # nonzeros of the shift factor, L.nnz + U.nnz
    ordering: str  # fill-reducing ordering of both factors

    @property
    def morse_index(self):
        """The inertia count, which spectrum() has checked against the
        eigenvalues wherever the computed window reaches zero."""
        return self.inertia_index

    def count_below(self, eta):
        """Number of eigenvalues strictly below eta: the inertia count at
        eta = 0, else counted in the window (raises if the computed window
        may not cover them all)."""
        eta = float(eta)
        if eta == 0.0:
            return self.inertia_index
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


#: relative gap between consecutive eigenvalues that starts a new cluster
CLUSTER_GAP = 1e-3


def _cluster(eigenvalues):
    ids = np.zeros(len(eigenvalues), dtype=int)
    for i in range(1, len(eigenvalues)):
        scale = max(1.0, abs(eigenvalues[i]), abs(eigenvalues[i - 1]))
        ids[i] = ids[i - 1] + (
            eigenvalues[i] - eigenvalues[i - 1] > CLUSTER_GAP * scale
        )
    return ids


class SpectralSystem:
    """Assembled index-form pencil for one hypersurface (optionally restricted
    to the even or odd functions of a double cover, `parity`)."""

    def __init__(self, surface, parity=None, lift=None):
        fem = surface.fem()
        if fem.potential is None:
            raise SpectralError(
                f"surface {surface.name!r} carries no potential; "
                "the index form needs Ric(N,N) + |A|^2"
            )
        self.surface = surface
        self.fem = fem
        K, P, M = fem.stiffness, fem.potential, fem.mass
        self.basis = None
        if parity is not None:
            if parity not in ("even", "odd") or lift is None:
                raise SpectralError(f"parity {parity!r} is not 'even' or "
                                    "'odd', or has no DoubleCoverLift")
            self.basis = B = lift.parity_projector(fem, parity)
            K, P, M = (B.T @ A @ B for A in (K, P, M))
        self.stiffness = K.tocsr()
        self.potential = P.tocsr()
        self.mass = M.tocsr()
        # one symmetric permutation for both factors, or None for SuperLU's own
        self.permutation = None
        if fem.grid.ndim >= 3:
            pattern = abs(self.stiffness) + abs(self.potential) + abs(self.mass)
            self.permutation = _nested_dissection(fem, pattern, self.basis)

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

    def spectrum(self, how_many=24):
        """Lowest eigenvalues of (K - P) phi = lambda M phi, smallest first.

        Raises SpectralError when the shift factor has a negative pivot (the
        shift is not below the spectrum), or when the inertia of K - P
        disagrees with the number of eigenvalues found below zero.
        """
        A = (self.stiffness - self.potential).tocsc()
        M = self.mass.tocsc()
        n = self.n_dofs
        how_many = min(how_many, n - 1)  # ARPACK needs k < n
        # below the spectrum (checked by inertia), not at 0: on CP^2 the indefinite
        # factor at 0 has max |L| = 166 and leaves Lanczos residuals near 1e-3
        sigma = -float(
            np.abs(self.potential.diagonal()).sum()
            / max(self.mass.diagonal().sum(), 1e-300)
        ) - 1.0
        q = self.permutation
        lu = _symmetric_lu(A - sigma * M, q)
        negative = _negative_pivots(lu)
        if negative:
            raise SpectralError(
                f"shift {sigma:.6g} is not below the spectrum: the factor of "
                f"K - P - shift M has {negative} negative pivots"
            )
        factor_nnz = lu.L.nnz + lu.U.nnz
        if q is None:
            solve = lu.solve
        else:
            def solve(b):
                x = np.empty(n)
                x[q] = lu.solve(np.ravel(b)[q])
                return x
        OPinv = spla.LinearOperator((n, n), matvec=solve, dtype=A.dtype)
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
        del lu, solve, OPinv  # only one factor alive at a time
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
        inertia = _negative_pivots(_symmetric_lu(A, q))
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
            cluster_ids=_cluster(vals),
            n_dofs=n,
            inertia_index=inertia,
            shift=sigma,
            factor_nnz=factor_nnz,
            ordering="mmd_at_plus_a" if q is None else "nested_dissection",
        )


#: parts of at most this many DOFs are not dissected further
_ND_LEAF = 64


def _nested_dissection(fem, pattern, basis=None):
    """Nested-dissection order of the DOFs of a pencil on `fem.grid`.

    A DOF sits at the grid multi-index of its first node; a parity column of
    `basis` sits at its first DOF.  A part is split across its longest
    extent at an even grid index, a Q2 cell-boundary plane, so the cut is one
    node layer thick; a periodic axis not yet opened is cut at 0 and at its
    middle.  The separator is the cut plus every DOF of one side still adjacent
    to the other side in the symmetric `pattern` (fused pole DOFs, or any
    coordinates that do not follow the graph).  The order is [side A, side B,
    separator], recursively; separators and small parts keep grid order.
    """
    grid = fem.grid
    node = fem._first_node
    if basis is not None:
        B = basis.tocsc()
        B.sort_indices()
        node = node[B.indices[B.indptr[:-1]]]
    coords = np.stack(np.unravel_index(node, grid.shape), axis=1)
    period = np.array([a.n_nodes for a in grid.axes])
    pattern = pattern.tocsr()
    local = np.full(len(coords), -1)  # index within the current part, or -1
    order = []

    def dissect(part, closed):
        c = coords[part]
        lo, hi = c.min(axis=0), c.max(axis=0)
        ax = int(np.argmax(np.where(closed, period, hi - lo + 1)))
        x = c[:, ax]
        if closed[ax]:
            mid = 2 * (period[ax] // 4)
            in_a, in_b = (x > 0) & (x < mid), x > mid
            closed = closed.copy()
            closed[ax] = False
        else:
            mid = (lo[ax] + hi[ax]) // 2
            mid += mid % 2 if mid + 1 < hi[ax] else -(mid % 2)
            in_a, in_b = x < mid, x > mid
        a = part[in_a]
        rows = pattern[a]
        local[part] = np.arange(len(part))
        nbr = local[rows.indices]
        cross = np.append(in_b, False)[nbr]
        a_touch = np.unique(np.repeat(np.flatnonzero(in_a),
                                      np.diff(rows.indptr))[cross])
        b_touch = np.unique(nbr[cross])
        local[part] = -1
        if len(a_touch) <= len(b_touch):
            in_a[a_touch] = False
        else:
            in_b[b_touch] = False
        if not (in_a.any() and in_b.any()):
            order.append(part)
            return
        for side in (part[in_a], part[in_b]):
            if len(side) <= _ND_LEAF:
                order.append(side)
            else:
                dissect(side, closed)
        order.append(part[~(in_a | in_b)])

    dissect(np.arange(len(coords)), np.array([a.periodic for a in grid.axes]))
    return np.concatenate(order)


def _symmetric_lu(A, q=None):
    """Sparse LU of a symmetric matrix with diagonal pivots only, so that
    P A P^T = L D L^T and diag(U) = D carries the inertia of A.

    With a permutation q the factor is of A[q][:, q] in that order; without
    one SuperLU orders A by minimum degree on A^T + A."""
    if q is None:
        spec = "MMD_AT_PLUS_A"
    else:
        A, spec = A[q][:, q], "NATURAL"
    try:
        return spla.splu(A, permc_spec=spec, diag_pivot_thresh=0.0,
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
