"""Index form and Jacobi spectrum of a discrete hypersurface.

The Galerkin matrices of the surface give the symmetric pencil
(K - P) phi = lambda M phi whose negative eigenvalues count unstable
deformation directions (the Morse index).

A shift by one Q2 cell (two nodes) along a periodic axis of the grid permutes
the DOFs and, on every catalog surface, commutes with K - P and M, so the
pencil splits into one Hermitian block per character of the group of shifts
(Bossavit 1986, "Symmetry, groups, and boundary value problems"), on one
Fourier vector per orbit of DOFs; an orbit drops out of a character that is
nontrivial on its stabilizer (a fused pole).  Each block is solved densely,
so every eigenvalue and every copy of a cluster is found.  The split is
refused when a shift moves K - P or M by more than INVARIANCE_TOL of its
largest entry.  In an ambient with an involution the surface double covers a
quotient, whose deck is the cell shift that moves the nodes as the involution
does; the quotient keeps the characters that are +1 on it (even functions)
when the unit normal descends, else those that are -1 (odd).

The negative eigenvalues of all characters are counted a second time from the
inertia of the grid pencil's K - P (Sylvester's law), factored in a nested
dissection of the tensor grid on three or more axes (George 1973, "Nested
dissection of a regular finite element mesh"), else in SuperLU's minimum
degree order.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SpectralError(Exception):
    pass


#: largest invariance defect max|S X S^T - X| / max|X| of X = K - P and X = M
#: under a cell shift S at which the pencil is still split into blocks
INVARIANCE_TOL = 1e-8

#: largest distance, relative to the largest coordinate of the image, between
#: an ambient involution's image of a node (or unit normal) and its deck shift's
DECK_TOL = 1e-9

#: complex entries of the block gather held at once
_GATHER_ENTRIES = 1 << 21


@dataclass
class SpectrumReport:
    """The whole Jacobi spectrum; its low end with residuals and clusters."""

    surface: str
    eigenvalues: np.ndarray  # the lowest, through the end of the last cluster
    residuals: np.ndarray
    cluster_ids: np.ndarray
    all_eigenvalues: np.ndarray  # every eigenvalue, smallest first
    block_sizes: np.ndarray  # DOFs of each symmetry block
    invariance_defect: float  # of the pencil under the cell shifts
    inertia_index: int  # negative pivots of the grid pencil's K - P
    factor_nnz: int  # nonzeros of the inertia factor, L.nnz + U.nnz
    ordering: str  # fill-reducing ordering of the inertia factor
    quotient: dict | None = None  # the deck's shift and the functions kept

    @property
    def n_dofs(self):
        return len(self.all_eigenvalues)

    @property
    def morse_index(self):
        return self.count_below(0.0)

    def count_below(self, eta):
        """Number of eigenvalues strictly below eta."""
        return int(np.searchsorted(self.all_eigenvalues, float(eta)))

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
    scale = np.maximum(1.0, np.maximum(np.abs(eigenvalues[1:]),
                                       np.abs(eigenvalues[:-1])))
    gaps = np.diff(eigenvalues) > CLUSTER_GAP * scale
    return np.concatenate([[0], np.cumsum(gaps)])


class SpectralSystem:
    """Assembled index-form pencil for one hypersurface, or for its quotient
    by the involution of its ambient."""

    def __init__(self, surface):
        fem = surface.fem()
        if fem.potential is None:
            raise SpectralError(
                f"surface {surface.name!r} carries no potential; "
                "the index form needs Ric(N,N) + |A|^2"
            )
        self.surface, self.fem = surface, fem
        self.stiffness, self.potential = fem.stiffness, fem.potential
        self.mass = fem.mass
        # the inertia factor's symmetric permutation, or None for SuperLU's own
        self.permutation = None
        if fem.grid.ndim >= 3:
            pattern = abs(self.stiffness) + abs(self.potential) + abs(self.mass)
            self.permutation = _nested_dissection(fem, pattern)

    def spectrum(self, how_many=24):
        """Every eigenvalue of (K - P) phi = lambda M phi, reported from the
        lowest `how_many` through the end of the cluster the last falls in.

        Raises SpectralError when a cell shift moves the pencil by more than
        INVARIANCE_TOL, when a quotient's deck is not a cell shift or moves
        the unit normal off its line, or when the inertia of K - P disagrees
        with the negative eigenvalues of all characters.
        """
        shifts = _CellShifts(self.fem)
        kept, quotient = np.ones(shifts.order, dtype=bool), None
        if self.surface.ambient.involution is not None:
            element, sign = shifts.deck(self.surface)
            kept = shifts.deck_signs(element) == sign
            quotient = {"shift_cells": element.tolist(),
                        "functions": "even" if sign > 0 else "odd"}
        A = (self.stiffness - self.potential).tocsc()  # the factor's format
        M = self.mass
        # the factor first: the block temporaries then reuse its memory
        lu = _symmetric_lu(A, self.permutation)
        inertia, factor_nnz = _inertia(lu)
        del lu
        defect = shifts.invariance_defect(A, M)
        if defect > INVARIANCE_TOL:
            raise SpectralError(
                f"invariance defect {defect:.3g} of the pencil under a cell "
                f"shift exceeds {INVARIANCE_TOL:g}; it does not split into "
                "symmetry blocks"
            )
        vals, res, sizes, negative = _block_spectrum(A, M, shifts, kept)
        if inertia != negative:
            raise SpectralError(
                f"inertia of K - P gives {inertia} negative eigenvalues, "
                f"the symmetry blocks {negative}"
            )
        ids = _cluster(vals)
        k = min(how_many, len(vals))
        end = int(np.searchsorted(ids, ids[k - 1], side="right")) if k else 0
        return SpectrumReport(
            surface=self.surface.name,
            eigenvalues=vals[:end],
            residuals=res[:end],
            cluster_ids=ids[:end],
            all_eigenvalues=vals,
            block_sizes=sizes,
            invariance_defect=defect,
            inertia_index=inertia,
            factor_nnz=factor_nnz,
            ordering=("mmd_at_plus_a" if self.permutation is None
                      else "nested_dissection"),
            quotient=quotient,
        )


class _CellShifts:
    """The group of whole-cell shifts along the periodic axes of a FEM grid
    acting on its DOFs, a product of cyclic groups of `cells` elements; its
    elements and characters are numbered in C order.  `generators` permute
    the DOFs by one cell.  DOF d lies in `orbit[d]`, and `element[d]` takes
    the orbit's representative to d.  `fixes[k, o]` says whether character k
    is trivial on orbit o's stabilizer: whether o has a Fourier vector of k.
    """

    def __init__(self, fem):
        grid = fem.grid
        self.axes = tuple(d for d, a in enumerate(grid.axes) if a.periodic)
        if not self.axes:
            raise SpectralError("no periodic axis to split the pencil along")
        self.cells = tuple(grid.axes[d].n_cells for d in self.axes)
        self.order = int(np.prod(self.cells))
        self.nodes = np.arange(grid.n_nodes).reshape(grid.shape)
        self.generators = []
        for step in np.eye(len(self.axes), dtype=int):
            image = fem.fuse[self.shift_nodes(step)]
            perm = np.empty(fem.n_dofs, dtype=np.int64)
            perm[fem.fuse] = image
            if np.any(perm[fem.fuse] != image):
                raise SpectralError("a cell shift maps two nodes of one DOF "
                                    "to two DOFs")
            self.generators.append(perm)
        # a DOF's first node with its periodic coordinates reduced mod 2 is a
        # node of its orbit's representative
        first = np.array(np.unravel_index(fem._first_node, grid.shape))
        first[list(self.axes)] %= 2
        self.reps = np.unique(fem.fuse[np.ravel_multi_index(first, grid.shape)])
        images = self.reps  # of each representative under each element
        for perm, m in zip(self.generators, self.cells):
            layers = [images]
            for _ in range(m - 1):
                layers.append(perm[layers[-1]])
            images = np.stack(layers, axis=-2)
        images = images.reshape(self.order, -1)
        n = len(self.reps)
        self.orbit = np.empty(fem.n_dofs, dtype=np.int64)
        self.orbit[images] = np.arange(n)
        self.element = np.empty(fem.n_dofs, dtype=np.int64)
        self.element[images] = np.arange(self.order)[:, None]
        if np.any(self.orbit[self.reps] != np.arange(n)):
            raise SpectralError("two orbit representatives share an orbit")
        # over a subgroup a character sums to the subgroup's order if it is
        # trivial on it, else to zero
        fixed = images == self.reps
        sums = np.fft.fftn(fixed.reshape(self.cells + (n,)),
                           axes=range(len(self.cells))).real
        self.fixes = sums.reshape(self.order, n) > 0.5 * fixed.sum(axis=0)
        self.size = self.order // fixed.sum(axis=0)  # of each orbit

    def shift_nodes(self, element):
        """Grid node indices of the images of all nodes under `element`."""
        return np.roll(self.nodes, tuple(-2 * np.asarray(element)),
                       self.axes).ravel()

    def multi(self, flat):
        """Multi-indices of flat element or character numbers, (n_axes, n)."""
        return np.array(np.unravel_index(flat, self.cells))

    def deck(self, surface):
        """The nonzero element whose shift moves the nodes of `surface` as the
        involution of its ambient moves them, tried at the cells of the nodes
        at node 0's image, and the sign, +1 or -1, by which it moves the unit
        normals: the value on it of the characters a quotient keeps."""
        turn, positions = surface.ambient.involution, surface.positions
        image = turn(positions)

        def close(a, b):
            return np.abs(a - b).max(axis=-1) <= DECK_TOL * np.abs(b).max()

        for node in np.flatnonzero(close(positions, image[0])):
            index = np.unravel_index(node, self.nodes.shape)
            element = np.array(index)[list(self.axes)] // 2
            moved = self.shift_nodes(element)
            if element.any() and close(positions[moved], image).all():
                break
        else:
            raise SpectralError("the deck involution is not a whole-cell "
                                "shift along the periodic axes")
        for sign in (1, -1):
            if close(surface.normals[moved], sign * turn(surface.normals)).all():
                return element, sign
        raise SpectralError("the deck moves the unit normal to neither sign; "
                            "the quotient has no normal line field")

    def deck_signs(self, element):
        """The value, +1 or -1, of every character on an order-two element."""
        turns = (element / self.cells) @ self.multi(np.arange(self.order))
        return np.rint(np.cos(2.0 * np.pi * turns)).astype(int)

    def invariance_defect(self, *matrices):
        """max |S X S^T - X| / max |X| over the generators S and `matrices`."""
        worst = 0.0
        for X in map(sp.coo_matrix, matrices):
            for perm in self.generators:
                moved = sp.csr_matrix((X.data, (perm[X.row], perm[X.col])),
                                      shape=X.shape)
                worst = max(worst, abs(moved - X).max() / abs(X.data).max())
        return float(worst)

    def gather(self, X):
        """X summed onto (orbit o, orbit p, element[d'] - element[d]) over
        d in o and d' in p and scaled by 1 / sqrt(|o| |p|): a sparse
        (n_orbits**2, len(rel)) matrix, and the relative elements `rel`."""
        X = X.tocoo()
        n = len(self.reps)
        o, p = self.orbit[X.row], self.orbit[X.col]
        rel = np.ravel_multi_index(np.mod(
            self.multi(self.element[X.col]) - self.multi(self.element[X.row]),
            np.array(self.cells)[:, None]), self.cells)
        F = sp.csr_matrix((X.data / np.sqrt(self.size[o] * self.size[p]),
                           (o * n + p, rel)), shape=(n * n, self.order))
        rel, cols = np.unique(F.indices, return_inverse=True)
        return sp.csr_matrix((F.data, cols, F.indptr), shape=(n * n, len(rel))), rel

    def blocks(self, gathered, chars):
        """The Hermitian blocks u_o^H X u_p of the characters `chars` on the
        orthonormal Fourier vectors u_o = sum_(d in o) chi(element[d])^* e_d
        / sqrt(|o|) of all orbits, (len(chars), n_orbits, n_orbits)."""
        F, rel = gathered
        turns = (self.multi(rel).T / self.cells) @ self.multi(chars)
        n = len(self.reps)
        B = (F @ np.exp(-2j * np.pi * turns)).T.reshape(len(chars), n, n)
        return 0.5 * (B + B.conj().swapaxes(1, 2))


def _block_spectrum(A, M, shifts, kept):
    """Eigenvalues of the `kept` characters, smallest first, their residuals,
    the sizes of their blocks, and the negative eigenvalues of all characters.
    Of each conjugate pair k, -k, whose blocks are conjugate, one block is
    solved and counted twice; blocks that keep the same orbits form a stack.
    """
    conjugate = np.ravel_multi_index(
        np.mod(-shifts.multi(np.arange(shifts.order)),
               np.array(shifts.cells)[:, None]), shifts.cells)
    solved = np.flatnonzero(np.arange(shifts.order) <= conjugate)
    copies = np.where(conjugate[solved] == solved, 1, 2)
    gathered = shifts.gather(A), shifts.gather(M)
    step = max(1, _GATHER_ENTRIES // len(shifts.reps) ** 2)
    vals, res, sizes = [], [], []
    negative = 0
    for start in range(0, len(solved), step):
        chars = solved[start:start + step]
        BA, BM = (shifts.blocks(g, chars) for g in gathered)
        patterns, which = np.unique(shifts.fixes[chars], axis=0,
                                    return_inverse=True)
        for member, pattern in enumerate(patterns):
            idx = np.flatnonzero(which.ravel() == member)
            block = np.ix_(idx, np.flatnonzero(pattern), np.flatnonzero(pattern))
            lam, r = _eigh_stack(BA[block], BM[block])
            c = copies[start + idx]
            negative += int((c * (lam < 0).sum(axis=1)).sum())
            take = np.repeat(np.flatnonzero(kept[chars[idx]]),
                             c[kept[chars[idx]]])
            vals.append(lam[take].ravel())
            res.append(r[take].ravel())
            sizes.append(np.full(len(take), lam.shape[1]))
    vals, res = np.concatenate(vals), np.concatenate(res)
    order = np.argsort(vals, kind="stable")
    return vals[order], res[order], np.concatenate(sizes), negative


def _eigh_stack(A, M):
    """Eigenvalues and relative residuals |A x - lambda M x| / |M x| of a stack
    of Hermitian pencils with M positive definite, by Cholesky reduction to
    L^-1 A L^-H with M = L L^H."""
    L = np.linalg.cholesky(M)
    C = np.linalg.solve(L, np.linalg.solve(L, A).conj().swapaxes(1, 2))
    lam, Y = np.linalg.eigh(C)
    X = np.linalg.solve(L.conj().swapaxes(1, 2), Y)
    MX = M @ X
    res = np.linalg.norm(A @ X - MX * lam[:, None, :], axis=1)
    return lam, res / np.linalg.norm(MX, axis=1)


#: parts of at most this many DOFs are not dissected further
_ND_LEAF = 64


def _nested_dissection(fem, pattern):
    """Nested-dissection order of the DOFs of a pencil on `fem.grid`.

    A DOF sits at the grid multi-index of its first node.  A part is split
    across its longest extent at an even grid index, a Q2 cell-boundary plane,
    so the cut is one node layer thick; a periodic axis not yet opened is cut
    at 0 and at its middle.  The separator is the cut plus every DOF of one
    side still adjacent to the other side in the symmetric `pattern` (fused
    pole DOFs, or any coordinates that do not follow the graph).  The order is
    [side A, side B, separator], recursively; separators and small parts keep
    grid order.
    """
    grid = fem.grid
    coords = np.stack(np.unravel_index(fem._first_node, grid.shape), axis=1)
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


def _inertia(lu):
    """Negative eigenvalues of the factored symmetric matrix, and L.nnz + U.nnz
    from the one copy lu.U makes: with diagonal pivots L has U^T's pattern."""
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SpectralError("off-diagonal pivot; inertia undefined")
    U = lu.U
    return int(np.sum(U.diagonal() < 0)), 2 * U.nnz


def assemble_jacobi(surface):
    return SpectralSystem(surface)
