"""Index form and Jacobi spectrum of a discrete hypersurface.

The cell matrices of the surface give the symmetric pencil
(K - P) phi = lambda M phi whose negative eigenvalues count unstable
deformation directions (the Morse index).

A shift by one Q2 cell (two nodes) along a periodic axis of the grid maps
the DOFs of each cell onto those of the next and, on every catalog surface,
commutes with K - P and M, so the pencil splits into one Hermitian block per
character of the group of shifts (Bossavit 1986, "Symmetry, groups, and
boundary value problems"), on one Fourier vector per orbit of DOFs; an orbit
drops out of a character that is nontrivial on its stabilizer (a fused
pole).  No global matrix is formed, nor the cell matrices of the whole grid:
they are formed a chunk of cells (a run of whole slabs) at a time, and in
one pass over each chunk its cell defect, its Parseval sums and its sums
onto (orbit, orbit, relative element) arrays are taken before it is freed.
The blocks are formed from those real sums, at most _GATHER_ENTRIES = 2^14
complex entries at a time, by one real product per orbit row of at most
_GATHER_ENTRIES * len(rel) / n_orbits multiply-adds (24k on CP^2), and solved
for their eigenvalues only.  Eigenvectors, by inverse iteration, are taken only
in the blocks of the characters that own the reported low end of the spectrum,
for the residuals of the reported eigenvalues.  The split is refused when a
shift moves a cell matrix of K - P or M by more than INVARIANCE_TOL of its
largest entry (the cell defect); an entry of the summed pencil sums cell
entries, so it moves by at most the sum of their moves.  In an ambient with an
involution the surface double covers a quotient, whose deck is the cell shift
that moves the nodes as the involution does; the quotient keeps the characters
that are +1 on it (even functions) when the unit normal descends, else those
that are -1 (odd).

Every count the report states is taken a second time, block by block: at
eta = 0 and at the run's eta, the eigenvalues of a block's pencil below eta
must number the negative eigenvalues of its B(K - P) - eta B(M), which a
routine without the Cholesky reduction finds (Sylvester's law of inertia for
a definite pencil).  Summed over every character, the count at 0 is the
cover's index.  The split is checked by Parseval for X = K - P and X = M,
against sums over the cells: the traces of the blocks B_k sum to tr X, and
for two fixed random vectors x and y the forms x_k^H B_k y_k of their Fourier
coefficients sum to x^T X y, a probe of the gather and the Fourier step end
to end (Freivalds 1977, "Probabilistic machines can use less running time").
"""

from __future__ import annotations

import io
import math
import random
from dataclasses import dataclass

import numpy as np


class SpectralError(Exception):
    pass


#: largest cell defect max|X_s(c) - X_c| / max|X_c| of the cell matrices X_c
#: of K - P and of M under a cell shift s at which the pencil is still split
#: into blocks
INVARIANCE_TOL = 1e-8

#: largest distance, relative to the largest coordinate of the image, between
#: an ambient involution's image of a node (or unit normal) and its deck shift's
DECK_TOL = 1e-9

#: largest relative residual of the Parseval identities of the split,
#: sum_k tr B_k = tr X and sum_k x_k^H B_k y_k = x^T X y over every character
#: k, of X = K - P and X = M; the trace residual is relative to sum |X_ii|,
#: the probe's to sum_c |x_c|^T |X_c| |y_c| over the cells c
PARSEVAL_TOL = 1e-10

#: complex entries of the blocks formed at once
_GATHER_ENTRIES = 1 << 14
#: inverse iteration's shift below a reported eigenvalue, per max(1, |lambda|):
#: above its roundoff, so that no pivot is zero, and so far below its gaps to
#: the other eigenvalues of its block that two solves reach roundoff
_INVERSE_SHIFT = 1e-10


@dataclass
class SpectrumReport:
    """The whole Jacobi spectrum; its low end with residuals and clusters."""

    surface: str
    eigenvalues: np.ndarray  # the lowest, through the end of the last cluster
    residuals: np.ndarray
    cluster_ids: np.ndarray
    all_eigenvalues: np.ndarray  # every eigenvalue, smallest first
    block_sizes: np.ndarray  # DOFs of each symmetry block
    invariance_defect: float  # of the cell matrices under the cell shifts
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
    """Index-form pencil for one hypersurface, or for its quotient by the
    involution of its ambient."""

    def __init__(self, surface):
        if surface.potential is None:
            raise SpectralError(f"surface {surface.name!r} carries no "
                                "potential; the index form needs Ric(N,N) "
                                "+ |A|^2")
        self.surface, self.fem = surface, surface.fem()

    def spectrum(self, how_many=24, eta=0.0):
        """Every eigenvalue of (K - P) phi = lambda M phi, reported from the
        lowest `how_many` through the end of the cluster the last falls in;
        the counts below 0 and below `eta` are checked block by block.

        Raises SpectralError when a cell shift moves a cell matrix by more
        than INVARIANCE_TOL, when a quotient's deck is not a cell shift or
        moves the unit normal off its line, when a block's count below 0 or
        `eta` disagrees with its inertia, or when the blocks miss a Parseval
        identity by more than PARSEVAL_TOL.
        """
        shifts = _CellShifts(self.fem)
        kept, quotient = np.ones(shifts.order, dtype=bool), None
        if self.surface.ambient.involution is not None:
            element, sign = shifts.deck(self.surface)
            kept = shifts.deck_signs(element) == sign
            quotient = {"shift_cells": element.tolist(),
                        "functions": "even" if sign > 0 else "odd"}
        gathered, defect, cell_side = _gathered(shifts)
        vals, owners, sizes, below, parseval = _block_spectrum(
            shifts, gathered, cell_side, kept, sorted({0.0, float(eta)}))
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


def _gathered(shifts):
    """The gathered cell matrices of K - P and of M, their cell defect,
    checked against INVARIANCE_TOL, and the cell side of the Parseval
    identities: [tr X, sum |X_ii|, x^T X y, sum_c |x_c|^T |X_c| |y_c|] of
    each, with the Fourier coefficients of the probe's x and y.

    The cells are formed one chunk at a time (`_CellShifts.chunks`), and in
    one pass each chunk is compared with its images under every generator,
    which lie in it and in the next chunk (the first, after the last),
    summed into the Parseval sums and gathered.  A chunk is formed for the
    pass over the chunk before it and freed after its own pass; only the
    first is kept to the end, for the wrap."""
    fem, chunks = shifts.fem, shifts.chunks
    x, y = _probe(fem.n_dofs)
    F = np.zeros((2, len(shifts.reps) ** 2 * len(shifts.rel)))
    diagonal = np.zeros((2, fem.n_dofs))
    moved, largest, probe = np.zeros(2), np.zeros(2), np.zeros((2, 2))
    first = here = fem.cells(chunks[0])
    for i, at in enumerate(chunks):
        after = fem.cells(chunks[i + 1]) if i + 1 < len(chunks) else first
        # each generator's image of each cell `at`, in `here` + `after`; an
        # image wraps to the first chunk only from the last
        images = [np.where(image[at] < at.start, image[at] + at.stop,
                           image[at]) - at.start
                  for image in shifts.cell_images]
        for j, (X, Y) in enumerate(zip(here, after)):
            both = np.concatenate([X.data, Y.data])
            moved[j] = max(moved[j], *(np.abs(both[image] - X.data).max()
                                       for image in images))
            largest[j] = max(largest[j], X.data.max(), -X.data.min())
            probe[j] += _cell_sums(X, x, y, diagonal[j])
        shifts.gather(F, *here)
        here = after
    defect = float(max(moved / largest))
    if defect > INVARIANCE_TOL:
        raise SpectralError(
            f"invariance defect {defect:.3g} of the pencil under a cell "
            f"shift exceeds {INVARIANCE_TOL:g}; it does not split into "
            "symmetry blocks")
    whole = np.column_stack(
        [diagonal.sum(axis=1), np.abs(diagonal).sum(axis=1), probe])
    n = len(shifts.reps)
    return ([(f.reshape(n * n, len(shifts.rel)), shifts.rel) for f in F],
            defect, (whole, shifts.fourier(x), shifts.fourier(y)))


def _cell_sums(X, x, y, diagonal):
    """[x^T X y, sum_c |x_c|^T |X_c| |y_c|] over the cells of the cell
    matrices X, whose diagonal entries are added to the DOF vector
    `diagonal` in cell order: a cell entry lies on the diagonal when its two
    DOFs agree."""
    conn, E = X.dofs, X.data
    same = conn[:, :, None] == conn[:, None, :]
    np.add.at(diagonal, np.broadcast_to(conn[:, :, None], E.shape)[same],
              E[same])
    xc, yc = x[conn], y[conn]
    return (np.einsum("ci,cij,cj->", xc, E, yc),
            np.einsum("ci,cij,cj->", np.abs(xc), np.abs(E), np.abs(yc)))


def _probe(n):
    """The probe's two vectors of n entries, uniform on [-1/2, 1/2), of a
    fixed seed as every report is fixed; stdlib random is loaded anyway,
    numpy.random is not."""
    bits = random.Random(1601).randbytes(16 * n)
    return (np.frombuffer(bits, "<u8") >> 11).reshape(2, -1) * 2.0**-53 - 0.5


class _CellShifts:
    """The group of whole-cell shifts along the periodic axes of a FEM grid
    acting on its DOFs, a product of cyclic groups of `cells` elements; its
    elements and characters are numbered in C order.  `generators` permute
    the DOFs by one cell, and `cell_images[i]` is the cell to which the i-th
    generator takes each cell.  DOF d lies in `orbit[d]`, and `element[d]`
    takes the orbit's representative to d.  `fixes[k, o]` says whether
    character k is trivial on orbit o's stabilizer: whether o has a Fourier
    vector of k.  `chunks` are runs of whole slabs of cells along grid axis
    0, and `rel` the relative elements element[d'] - element[d] of the DOF
    pairs (d, d') of the cells, in C order.
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
        # sums over the cells run over about sqrt(order) chunks of cells,
        # then over the chunks: with the periodic axes first, a sum over the
        # translates of a cell adds about 2 sqrt(order) terms in a row, not
        # order.  A chunk is a run of whole slabs along grid axis 0, so each
        # generator takes it into itself and the next chunk
        slab = cells.size // len(cells)
        step = slab * max(1, -(-cells.size // math.isqrt(self.order)) // slab)
        self.chunks = [slice(c, min(c + step, cells.size))
                       for c in range(0, cells.size, step)]
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
        # element[d'] - element[d] + cells - 1, digits in [0, 2 cells - 2],
        # is code[d'] - code[d] + offset in that mixed radix, and `wrap`
        # takes it to the relative element, in C order; `rel` holds those
        # that occur, which a first pass over the cells' DOFs finds
        cells = np.array(self.cells)[:, None]
        radix = 2 * cells[:, 0] - 1
        self._code = np.ravel_multi_index(self.multi(self.element), radix)
        self._offset = np.ravel_multi_index(cells[:, 0] - 1, radix)
        digits = np.unravel_index(np.arange(radix.prod()), radix)
        wrap = np.ravel_multi_index((digits - cells + 1) % cells, self.cells)
        seen = np.zeros(radix.prod(), dtype=bool)
        for at in self.chunks:
            seen[self._unwrapped(fem._cell_dofs[at])] = True
        occurs = np.zeros(self.order, dtype=bool)
        occurs[wrap[seen]] = True
        self.rel = np.flatnonzero(occurs)
        self._column = (np.cumsum(occurs) - 1)[wrap]

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

    def _unwrapped(self, dofs):
        """element[d'] - element[d] + cells - 1 of the DOF pairs (d, d') of
        cells of DOFs `dofs`, in the mixed radix of `_code`."""
        c = self._code[dofs]
        return c[:, None, :] - c[:, :, None] + self._offset

    def gather(self, F, *matrices):
        """Add each of `matrices`, cell matrices of the same cells, to its
        row of F, summed onto (orbit o, orbit p, element[d'] - element[d])
        over the cell entries at each (d, d'), d in o and d' in p, and scaled
        by 1 / sqrt(|o| |p|): (n_orbits**2 * len(rel)) entries, in C
        order."""
        n, dofs = len(self.reps), matrices[0].dofs
        o = self.orbit[dofs]
        index = ((o[:, :, None] * n + o[:, None, :]) * len(self.rel)
                 + self._column[self._unwrapped(dofs)])
        root = np.sqrt(self.size[o])
        root = root[:, :, None] * root[:, None, :]
        for f, X in zip(F, matrices):
            f += np.bincount(index.ravel(), (X.data / root).ravel(), len(f))

    def fourier(self, x):
        """The coefficients u_o^H x of a DOF vector x on the Fourier vectors
        u_o of every character (see `blocks`), (order, n_orbits), and 0 where
        a character has no Fourier vector on an orbit."""
        n = len(self.reps)
        sums = np.bincount(self.orbit * self.order + self.element, x,
                           n * self.order).reshape((n,) + self.cells)
        # chi(g) = exp(2 pi i g.k / cells), the conjugate of the FFT's kernel
        coef = np.fft.fftn(sums, axes=range(1, len(self.cells) + 1)).conj()
        return coef.reshape(n, self.order).T / np.sqrt(self.size) * self.fixes

    def blocks(self, gathered, chars):
        """The Hermitian blocks u_o^H X u_p of the characters `chars` on the
        orthonormal Fourier vectors u_o = sum_(d in o) chi(element[d])^* e_d
        / sqrt(|o|) of all orbits, (len(chars), n_orbits, n_orbits)."""
        F, rel = gathered
        turns = (self.multi(rel).T / self.cells) @ self.multi(chars)
        n, E = len(self.reps), np.exp(-2j * np.pi * turns)
        # the real and imaginary parts of the Hermitian part of (F E)^T, each
        # by one small real product (chars, rel) @ (rel, n) per orbit row
        B = np.empty((len(chars), n, n), dtype=complex)
        for part, W, add in ((B.real, E.real, np.add),
                             (B.imag, E.imag, np.subtract)):
            P = (W.T @ F.reshape(n, n, -1).swapaxes(1, 2)).swapaxes(0, 1)
            add(P, P.swapaxes(1, 2), out=part)
        B *= 0.5
        return B


def _stacks(shifts, gathered, chars):
    """The blocks of the gathered B(A), B(M) of the characters `chars`, formed
    at most _GATHER_ENTRIES complex entries at a time, in stacks of the
    characters that keep the same orbits: (their positions in `chars`, the
    orbits they keep, the stack of B(A), the stack of B(M)) for each
    stack."""
    step = max(1, _GATHER_ENTRIES // len(shifts.reps) ** 2)
    for start in range(0, len(chars), step):
        batch = chars[start:start + step]
        BA, BM = (shifts.blocks(g, batch) for g in gathered)
        patterns, which = np.unique(shifts.fixes[batch], axis=0,
                                    return_inverse=True)
        for member, pattern in enumerate(patterns):
            idx = np.flatnonzero(which.ravel() == member)
            keep = np.flatnonzero(pattern)
            if not pattern.all():
                block = np.ix_(idx, keep, keep)
            else:  # every orbit: the stack itself when it is the batch
                block = idx if len(patterns) > 1 else slice(None)
            yield start + idx, keep, BA[block], BM[block]


def _block_spectrum(shifts, gathered, cell_side, kept, etas):
    """Eigenvalues of the `kept` characters from the gathered A, M, smallest
    first, the solved character of each, and the sizes of their blocks; for
    each of `etas`, the eigenvalues below it of the kept characters and of
    all characters, [kept, all], each block's count checked against the
    inertia of its B(A) - eta B(M); and the largest Parseval residual of the
    split against the `cell_side` of `_gathered`, checked against
    PARSEVAL_TOL.  Of each conjugate pair k, -k, whose blocks are conjugate,
    one block is solved and counted twice.
    """
    conjugate = np.ravel_multi_index(
        np.mod(-shifts.multi(np.arange(shifts.order)),
               np.array(shifts.cells)[:, None]), shifts.cells)
    solved = np.flatnonzero(np.arange(shifts.order) <= conjugate)
    copies = np.where(conjugate[solved] == solved, 1, 2)
    whole, xh, yh = cell_side
    vals, owners, sizes = [], [], []
    below = np.zeros((2, len(etas)), dtype=int)
    sums = np.zeros((2, 2))  # traces and probes of the blocks of A, M
    for idx, orbits, SA, SM in _stacks(shifts, gathered, solved):
        lam = _stack_values(SA, SM)
        chars, c, keep = solved[idx], copies[idx], kept[solved[idx]]
        counts = _checked_counts(lam, SA, SM, etas, shifts.multi(chars))
        below += [c[keep] @ counts[keep], c @ counts]
        xk, yk = xh[np.ix_(chars, orbits)], yh[np.ix_(chars, orbits)]
        for i, S in enumerate((SA, SM)):
            probe = np.einsum("so,sop,sp->s", xk.conj(), S, yk).real
            sums[i] += (c @ np.trace(S, axis1=1, axis2=2).real, c @ probe)
        take = np.repeat(np.flatnonzero(keep), c[keep])
        vals.append(lam[take].ravel())
        owners.append(np.repeat(chars[take], lam.shape[1]))
        sizes.append(np.full(len(take), lam.shape[1]))
    trace, diagonal, probe, scale = whole.T
    parseval = float(max((np.abs(sums[:, 0] - trace) / diagonal).max(),
                         (np.abs(sums[:, 1] - probe) / scale).max()))
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
    `vals` of the gathered pencil: x = L^-H y, y by two inverse iteration
    solves from a fixed start (Parlett 1998, ch. 4) on C = L^-1 B(A) L^-H of
    the character `owners` gives with lambda, whose blocks alone are formed."""
    chars, inverse = np.unique(owners, return_inverse=True)
    res = np.empty(len(vals))
    for idx, _, SA, SM in _stacks(shifts, gathered, chars):
        C, L = _reduced(SA, SM)
        at = np.flatnonzero(np.isin(inverse, idx))
        s, lam = np.searchsorted(idx, inverse[at]), vals[at, None, None]
        sigma = lam - _INVERSE_SHIFT * np.maximum(1.0, np.abs(lam))
        shifted, start = C[s] - sigma * np.eye(len(C[0])), _probe(len(C[0]))[0]
        y = np.linalg.solve(shifted, np.linalg.solve(shifted, start[:, None]))
        x = np.linalg.solve(L[s].conj().swapaxes(1, 2), y)
        MX = SM[s] @ x
        res[at] = (np.linalg.norm(SA[s] @ x - lam * MX, axis=(1, 2))
                   / np.linalg.norm(MX, axis=(1, 2)))
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
