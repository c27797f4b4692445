"""Index form and Jacobi spectrum of a discrete hypersurface.

The Galerkin matrices of the surface give the symmetric pencil
(K - P) phi = lambda M phi whose negative eigenvalues count unstable
deformation directions (the Morse index).

A shift by one Q2 cell (two nodes) along a periodic axis of the grid permutes
the DOFs and, on every catalog surface, commutes with K - P and M, so the
pencil splits into one Hermitian block per character of the group of shifts
(Bossavit 1986, "Symmetry, groups, and boundary value problems"), on one
Fourier vector per orbit of DOFs; an orbit drops out of a character that is
nontrivial on its stabilizer (a fused pole).  Each block is solved densely
for its eigenvalues only, so every eigenvalue and every copy of a cluster is
found; the blocks are formed at most _GATHER_ENTRIES complex entries at a
time.  Eigenvectors are taken only in the blocks of the characters that own
the reported low end of the spectrum, formed again, and each reported
residual is that of the reported eigenvalue itself.  The split is
refused when a shift moves K - P or M by more than INVARIANCE_TOL of its
largest entry.  That defect is read off the cell grid: a shift takes each
cell to its neighbour along the axis, so it maps the entries of a cell onto
those of the image cell, and a pencil off the cells' pattern is refused.
In an ambient with an involution the surface double covers a
quotient, whose deck is the cell shift that moves the nodes as the involution
does; the quotient keeps the characters that are +1 on it (even functions)
when the unit normal descends, else those that are -1 (odd).

Every count the report states is taken a second time, block by block: at
eta = 0 and at the run's eta, the eigenvalues of a block's pencil below eta
must number the negative eigenvalues of its B(K - P) - eta B(M), which a
routine without the Cholesky reduction finds (Sylvester's law of inertia for
a definite pencil).  Summed over every character, the count at 0 is the
cover's index.  The split itself is checked by Parseval: over all
characters, the traces and the squared Frobenius norms of the blocks of
K - P and of M sum to those of the whole matrices.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np


class SpectralError(Exception):
    pass


#: largest invariance defect max|S X S^T - X| / max|X| of X = K - P and X = M
#: under a cell shift S at which the pencil is still split into blocks
INVARIANCE_TOL = 1e-8

#: largest distance, relative to the largest coordinate of the image, between
#: an ambient involution's image of a node (or unit normal) and its deck shift's
DECK_TOL = 1e-9

#: largest relative residual of the Parseval identities of the split,
#: sum_k tr B_k = tr X and sum_k |B_k|_F^2 = |X|_F^2 over every character k,
#: of X = K - P and X = M; the trace residual is relative to sum |X_ii|
PARSEVAL_TOL = 1e-10

#: complex entries of the blocks formed at once
_GATHER_ENTRIES = 1 << 18


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
    inertia_index: int  # negative eigenvalues of K - P over every character
    inertia_counts: dict  # eta -> kept characters' negative B(K - P - eta M)
    parseval_residual: float  # largest residual of the split's identities
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

    def spectrum(self, how_many=24, eta=0.0):
        """Every eigenvalue of (K - P) phi = lambda M phi, reported from the
        lowest `how_many` through the end of the cluster the last falls in;
        the counts below 0 and below `eta` are checked block by block.

        Raises SpectralError when K - P and M lie on different patterns or
        off the pattern of the grid's cells, when a cell shift moves the
        pencil by more than INVARIANCE_TOL, when a quotient's deck is not a
        cell shift or moves the unit normal off its line, when a block's
        count below 0 or `eta` disagrees with its inertia, or when the blocks
        miss a Parseval identity by more than PARSEVAL_TOL.
        """
        shifts = _CellShifts(self.fem)
        kept, quotient = np.ones(shifts.order, dtype=bool), None
        if self.surface.ambient.involution is not None:
            element, sign = shifts.deck(self.surface)
            kept = shifts.deck_signs(element) == sign
            quotient = {"shift_cells": element.tolist(),
                        "functions": "even" if sign > 0 else "odd"}
        A = self.stiffness - self.potential
        M = self.mass
        defect = shifts.invariance_defect(A, M)
        if defect > INVARIANCE_TOL:
            raise SpectralError(
                f"invariance defect {defect:.3g} of the pencil under a cell "
                f"shift exceeds {INVARIANCE_TOL:g}; it does not split into "
                "symmetry blocks"
            )
        gathered = shifts.gather(A, M)
        vals, owners, sizes, below, parseval = _block_spectrum(
            shifts, gathered, A, M, kept, sorted({0.0, float(eta)}))
        ids = _cluster(vals)
        k = min(how_many, len(vals))
        end = int(np.searchsorted(ids, ids[k - 1], side="right")) if k else 0
        return SpectrumReport(
            surface=self.surface.name,
            eigenvalues=vals[:end],
            residuals=_window_residuals(shifts, gathered, vals[:end],
                                        owners[:end]),
            cluster_ids=ids[:end],
            all_eigenvalues=vals,
            block_sizes=sizes,
            invariance_defect=defect,
            inertia_index=below[0.0][1],
            inertia_counts={e: n for e, (n, _) in below.items()},
            parseval_residual=parseval,
            quotient=quotient,
        )


class _CellShifts:
    """The group of whole-cell shifts along the periodic axes of a FEM grid
    acting on its DOFs, a product of cyclic groups of `cells` elements; its
    elements and characters are numbered in C order.  `generators` permute
    the DOFs by one cell, and `cell_images[i]` is the cell to which the i-th
    generator takes each cell.  DOF d lies in `orbit[d]`, and `element[d]`
    takes the orbit's representative to d.  `fixes[k, o]` says whether
    character k is trivial on orbit o's stabilizer: whether o has a Fourier
    vector of k.
    """

    def __init__(self, fem):
        grid = fem.grid
        self.axes = tuple(d for d, a in enumerate(grid.axes) if a.periodic)
        if not self.axes:
            raise SpectralError("no periodic axis to split the pencil along")
        self.cells = tuple(grid.axes[d].n_cells for d in self.axes)
        self.order = int(np.prod(self.cells))
        self.nodes = np.arange(grid.n_nodes).reshape(grid.shape)
        self.fem = fem
        cells = [a.n_cells for a in grid.axes]
        cells = np.arange(np.prod(cells)).reshape(cells)
        self.generators, self.cell_images = [], []
        for axis, step in zip(self.axes, np.eye(len(self.axes), dtype=int)):
            image = fem.fuse[self.shift_nodes(step)]
            perm = np.empty(fem.n_dofs, dtype=np.int64)
            perm[fem.fuse] = image
            if np.any(perm[fem.fuse] != image):
                raise SpectralError("a cell shift maps two nodes of one DOF "
                                    "to two DOFs")
            self.generators.append(perm)
            # the shift moves each cell one step along its axis
            moved = np.roll(cells, -1, axis).ravel()
            conn = fem._cell_dofs
            if not np.array_equal(conn[moved], perm[conn]):
                raise SpectralError("a cell shift does not map the DOFs of "
                                    "each cell onto those of a cell")
            self.cell_images.append(moved)
        # a DOF's first node with its periodic coordinates reduced mod 2 is a
        # node of its orbit's representative
        first = np.array(np.unravel_index(fem._first_node, grid.shape))
        first[list(self.axes)] %= 2
        self.reps = np.flatnonzero(np.bincount(
            fem.fuse[np.ravel_multi_index(first, grid.shape)]))
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
        """max |S X S^T - X| / max |X| over the generators S and `matrices`,
        triplets on the pattern of the cells of the FEM grid.  S maps the
        entries of a cell onto those of its image cell, so the image of every
        entry is read off the cell grid; a pencil off that pattern, whose
        extra entries the cells cannot map, is refused."""
        X = _one_pattern(matrices)
        rows, cols, positions = self.fem._pattern
        if not (np.array_equal(X.rows, rows) and np.array_equal(X.cols, cols)):
            raise SpectralError("the pencil does not lie on the cell pattern "
                                "of its grid; the cell shifts cannot map it")
        positions = positions.reshape(len(self.cell_images[0]), -1)
        at = np.empty(X.nnz, dtype=np.int64)  # the position of each image
        worst = 0.0
        for image in self.cell_images:
            at[positions] = positions[image]
            for Y in matrices:
                d = Y.data[at]
                d -= Y.data
                worst = max(worst, _abs_max(d) / _abs_max(Y.data))
        return float(worst)

    def gather(self, *matrices):
        """Each of `matrices`, triplets on one pattern, summed onto (orbit o,
        orbit p, element[d'] - element[d]) over d in o and d' in p and scaled
        by 1 / sqrt(|o| |p|): a dense (n_orbits**2, len(rel)) array, with the
        relative elements `rel` that occur."""
        X = _one_pattern(matrices)
        n = len(self.reps)
        # in place, so that no more than a few per-entry arrays live at once
        o, p = self.orbit[X.rows], self.orbit[X.cols]
        root = np.sqrt(self.size[o] * self.size[p])
        at = o * n
        at += p
        del o, p
        rel = np.zeros(X.nnz, dtype=np.int64)  # in C order, axis by axis
        for e, m in zip(self.multi(self.element), self.cells):
            d = e[X.cols]
            d -= e[X.rows]
            d[d < 0] += m
            rel *= m
            rel += d
        occurs = np.bincount(rel, minlength=self.order) > 0
        at *= occurs.sum()
        at += (np.cumsum(occurs) - 1)[rel]
        rel = np.flatnonzero(occurs)
        return [(np.bincount(at, Y.data / root, n * n * len(rel))
                 .reshape(n * n, len(rel)), rel) for Y in matrices]

    def blocks(self, gathered, chars):
        """The Hermitian blocks u_o^H X u_p of the characters `chars` on the
        orthonormal Fourier vectors u_o = sum_(d in o) chi(element[d])^* e_d
        / sqrt(|o|) of all orbits, (len(chars), n_orbits, n_orbits)."""
        F, rel = gathered
        turns = (self.multi(rel).T / self.cells) @ self.multi(chars)
        n = len(self.reps)
        B = (F @ np.exp(-2j * np.pi * turns)).T.reshape(len(chars), n, n)
        B += B.conj().swapaxes(1, 2)
        B *= 0.5
        return B


def _abs_max(x):
    """max |x|, 0 for an empty x, without an array of |x|."""
    return max(x.max(initial=0.0), -x.min(initial=0.0))


def _one_pattern(matrices):
    """The first of `matrices`, triplets that must share its pattern."""
    X = matrices[0]
    if not all(X.same_pattern(Y) for Y in matrices[1:]):
        raise SpectralError("the matrices of the pencil lie on different "
                            "patterns")
    return X


def _stacks(shifts, gathered, chars):
    """The blocks of the gathered B(A), B(M) of the characters `chars`, formed
    at most _GATHER_ENTRIES complex entries at a time, in stacks of the
    characters that keep the same orbits: (their positions in `chars`, the
    stack of B(A), the stack of B(M)) for each stack."""
    step = max(1, _GATHER_ENTRIES // len(shifts.reps) ** 2)
    for start in range(0, len(chars), step):
        batch = chars[start:start + step]
        BA, BM = (shifts.blocks(g, batch) for g in gathered)
        patterns, which = np.unique(shifts.fixes[batch], axis=0,
                                    return_inverse=True)
        for member, pattern in enumerate(patterns):
            idx = np.flatnonzero(which.ravel() == member)
            keep = np.flatnonzero(pattern)
            block = np.ix_(idx, keep, keep)
            yield start + idx, BA[block], BM[block]


def _block_spectrum(shifts, gathered, A, M, kept, etas):
    """Eigenvalues of the `kept` characters from the gathered A, M, smallest
    first, the solved character and the position in its block's spectrum of
    each, (n, 2), and the sizes of their blocks; for each of `etas`, the
    eigenvalues below it of the kept characters and of all characters,
    [kept, all], each block's count checked against the inertia of its
    B(A) - eta B(M); and the largest Parseval residual of the split, checked
    against PARSEVAL_TOL.
    Of each conjugate pair k, -k, whose blocks are conjugate, one block is
    solved and counted twice.
    """
    conjugate = np.ravel_multi_index(
        np.mod(-shifts.multi(np.arange(shifts.order)),
               np.array(shifts.cells)[:, None]), shifts.cells)
    solved = np.flatnonzero(np.arange(shifts.order) <= conjugate)
    copies = np.where(conjugate[solved] == solved, 1, 2)
    vals, owners, sizes = [], [], []
    below = np.zeros((2, len(etas)), dtype=int)
    sums = np.zeros((2, 2))  # traces and squared norms of the blocks of A, M
    for idx, SA, SM in _stacks(shifts, gathered, solved):
        lam = _stack_values(SA, SM)
        chars, c, keep = solved[idx], copies[idx], kept[solved[idx]]
        counts = _checked_counts(lam, SA, SM, etas, shifts.multi(chars))
        below += [c[keep] @ counts[keep], c @ counts]
        for i, S in enumerate((SA, SM)):
            sums[i] += (c @ np.trace(S, axis1=1, axis2=2).real,
                        c @ (np.abs(S) ** 2).sum(axis=(1, 2)))
        take = np.repeat(np.flatnonzero(keep), c[keep])
        n = lam.shape[1]
        vals.append(lam[take].ravel())
        owners.append(np.column_stack([np.repeat(chars[take], n),
                                       np.tile(np.arange(n), len(take))]))
        sizes.append(np.full(len(take), n))
    parseval = max(_parseval_residual(X, *s) for X, s in zip((A, M), sums))
    if parseval > PARSEVAL_TOL:
        raise SpectralError(
            f"Parseval residual {parseval:.3g} of the symmetry blocks exceeds "
            f"{PARSEVAL_TOL:g}; the split lost or changed part of the pencil")
    vals = np.concatenate(vals)
    order = np.argsort(vals, kind="stable")
    below = {eta: below[:, j].tolist() for j, eta in enumerate(etas)}
    return (vals[order], np.concatenate(owners)[order], np.concatenate(sizes),
            below, parseval)


def _window_residuals(shifts, gathered, vals, owners):
    """Relative residuals |B(A) x - lambda B(M) x| / |B(M) x| of eigenvalues
    `vals` of the gathered pencil, x the eigenvector at the position in the
    spectrum of the block of the character that `owners` gives with it; only
    the blocks of those characters are formed again."""
    chars, inverse = np.unique(owners[:, 0], return_inverse=True)
    res = np.empty(len(vals))
    for idx, SA, SM in _stacks(shifts, gathered, chars):
        C, L = _reduced(SA, SM)
        X = np.linalg.solve(L.conj().swapaxes(1, 2), np.linalg.eigh(C)[1])
        for s, i in enumerate(idx):
            at = inverse == i
            x = X[s][:, owners[at, 1]]
            MX = SM[s] @ x
            R = SA[s] @ x - MX * vals[at]
            res[at] = np.linalg.norm(R, axis=0) / np.linalg.norm(MX, axis=0)
    return res


def _checked_counts(lam, A, M, etas, chars):
    """Eigenvalues `lam` of a stack of pencils (A, M) below each of `etas`,
    (n_blocks, len(etas)), each equal to the number of negative eigenvalues
    of A - eta M by Sylvester's law, else a SpectralError naming the
    character, from the multi-indices `chars`, and eta."""
    counts = (lam[:, :, None] < np.asarray(etas)).sum(axis=1)
    for j, eta in enumerate(etas):
        inertia = (np.linalg.eigvalsh(A - eta * M) < 0).sum(axis=1)
        bad = np.flatnonzero(inertia != counts[:, j])
        if len(bad):
            b = bad[0]
            raise SpectralError(
                f"character {tuple(chars[:, b].tolist())} has {counts[b, j]} "
                f"eigenvalues below {eta:g} but B(K - P) - {eta:g} B(M) has "
                f"{inertia[b]} negative ones")
    return counts


def _parseval_residual(X, trace, square):
    """Largest relative residual of sum_k tr B_k = tr X, relative to
    sum |X_ii|, and of sum_k |B_k|_F^2 = |X|_F^2, given the two sums over the
    blocks B_k of X."""
    d = X.data[X.rows == X.cols]
    # numpy's pairwise sum, not a BLAS dot, whose sum depends on the threads
    whole = float(np.sum(X.data * X.data))
    return max(abs(trace - d.sum()) / np.abs(d).sum(),
               abs(square - whole) / whole)


def _reduced(A, M):
    """L^-1 A L^-H and L, with M = L L^H, of a stack of Hermitian pencils."""
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"a mass block of the symmetry split is not "
                            f"positive definite: {exc}") from exc
    return np.linalg.solve(L, np.linalg.solve(L, A).conj().swapaxes(1, 2)), L


def _stack_values(A, M):
    """Eigenvalues, smallest first, of a stack of Hermitian pencils with M
    positive definite."""
    return np.linalg.eigvalsh(_reduced(A, M)[0])


def assemble_jacobi(surface):
    return SpectralSystem(surface)
