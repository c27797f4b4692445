"""Tensor-product quadratic (Q2) conforming finite elements on structured
parameter grids.

The grid lives on a box in parameter space; axes may be periodic, and nodes
whose chart images coincide (poles of spherical charts, seams) are fused into
single degrees of freedom.  Mass, stiffness and potential are integrated with
3-point Gauss quadrature per direction (consistent mass), so the discrete
eigenvalues of the Galerkin pencil sit above their continuous counterparts.
No matrix is summed: each is held as its cell matrices, (C, L, L) for C
cells of L local DOFs, with the fused DOFs of each cell, and its consumers
sum the cell entries onto what they need (the symmetry blocks of the Jacobi
pencil, a slice of cells at a time; a quadratic form).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

# 3-point Gauss rule on [0, 1]
_GP = 0.5 + np.sqrt(0.15) * np.array([-1.0, 0.0, 1.0])
_GW = np.array([5.0, 8.0, 5.0]) / 18.0

#: cells whose element matrices are formed at once
_CELL_CHUNK = 256

#: grid nodes whose chart images agree to this rounding share one DOF
_FUSE_TOL = 1e-8


def shape1d(x):
    """Values of the three quadratic nodal shapes on [0, 1] at x, shape (..., 3)."""
    x = np.asarray(x)
    return np.stack(
        [2.0 * (x - 0.5) * (x - 1.0), -4.0 * x * (x - 1.0), 2.0 * x * (x - 0.5)],
        axis=-1,
    )


def dshape1d(x):
    x = np.asarray(x)
    return np.stack([4.0 * x - 3.0, 4.0 - 8.0 * x, 4.0 * x - 1.0], axis=-1)


@dataclass(frozen=True)
class Axis:
    """One direction of the parameter box, from 0 to `length`.

    `nodes` is the requested resolution (nodes per direction); the actual node
    count is rounded to fit whole quadratic cells.
    """

    name: str
    length: float
    nodes: int
    periodic: bool = False

    @property
    def n_cells(self):
        if self.periodic:
            return max(2, self.nodes // 2)
        return max(1, (self.nodes - 1) // 2)

    @property
    def n_nodes(self):
        return 2 * self.n_cells if self.periodic else 2 * self.n_cells + 1

    @property
    def h(self):
        return self.length / self.n_cells

    @property
    def coords(self):
        n = self.n_nodes
        denom = n if self.periodic else n - 1
        return self.length * np.arange(n) / denom

    def cell_conn(self):
        """Per-cell node triples along this axis, shape (n_cells, 3)."""
        base = 2 * np.arange(self.n_cells)[:, None] + np.arange(3)
        if self.periodic:
            base %= self.n_nodes
        return base


class TensorGrid:
    """Structured tensor-product grid over a list of axes."""

    def __init__(self, axes):
        self.axes = list(axes)
        self.shape = tuple(a.n_nodes for a in self.axes)
        self.n_nodes = int(np.prod(self.shape))
        coords = [a.coords for a in self.axes]
        mesh = np.meshgrid(*coords, indexing="ij")
        self.node_params = np.stack([m.ravel() for m in mesh], axis=-1)

    @property
    def ndim(self):
        return len(self.axes)

    def cell_connectivity(self):
        """Global node indices per cell, shape (n_cells_total, 3**ndim).

        Cells and their local nodes both run in C order of their multi-index.
        """
        k = self.ndim
        per_axis = []
        for d, a in enumerate(self.axes):
            shape = [1] * (2 * k)
            shape[d], shape[k + d] = a.n_cells, 3
            per_axis.append(a.cell_conn().reshape(shape))
        conn = np.ravel_multi_index(np.broadcast_arrays(*per_axis), self.shape)
        return conn.reshape(-1, 3**k)

    def cell_origins(self):
        """Lower corner parameter values of each cell, shape (n_cells_total, ndim)."""
        per_axis = [a.h * np.arange(a.n_cells) for a in self.axes]
        mesh = np.meshgrid(*per_axis, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


def _reference_tensors(ndim):
    """Tensor-product shape values / gradients at the Gauss points.

    Returns (gauss_local, weights, vals, grads) with shapes
    (G, ndim), (G,), (G, L), (G, L, ndim) for G = L = 3**ndim; points and
    local nodes both run in C order of their multi-index.
    """
    gauss_local = np.array(list(itertools.product(*[_GP] * ndim)))
    sv, sg = shape1d(_GP), dshape1d(_GP)  # (3, 3): point, node

    def kron(factors):
        return functools.reduce(np.kron, factors)

    grads = [kron([sg if dd == d else sv for dd in range(ndim)])
             for d in range(ndim)]
    return gauss_local, kron([_GW] * ndim), kron([sv] * ndim), np.stack(grads, -1)


def _inverse_and_det(g):
    """Inverses and determinants of a stack of k x k metrics, (..., k, k),
    by Gauss-Jordan elimination without pivoting: k elementwise passes over
    the stack, one per pivot, whose sums do not depend on the BLAS thread
    count.  The pivots are the ratios of the leading principal
    minors, so they are all positive exactly when a symmetric metric is
    positive definite (Sylvester's criterion); a ValueError is raised at any
    other pivot."""
    k = g.shape[-1]
    n = g.size // (k * k)
    # rows[i, j] is entry (i, j) of [g | I] of every matrix, contiguous
    rows = np.empty((k, 2 * k, n))
    rows[:, :k] = g.reshape(n, k, k).transpose(1, 2, 0)
    rows[:, k:] = np.eye(k)[:, :, None]
    det = np.ones(n)
    for j in range(k):
        pivot = rows[j, j].copy()
        if not np.all(pivot > 0):
            raise ValueError("metric is not positive definite at a "
                             "quadrature point")
        det *= pivot
        rows[j] /= pivot
        for i in range(k):
            if i != j:
                rows[i] -= rows[i, j] * rows[j]
    inverse = rows[:, k:].transpose(2, 0, 1).reshape(g.shape)
    return inverse, det.reshape(g.shape[:-2])


@dataclass(frozen=True, eq=False)
class CellMatrices:
    """A fused-DOF matrix held as its cell matrices, unsummed: `data[c]`,
    (L, L), sits at the DOFs `dofs[c]` of cell c, and an entry of the matrix
    is the sum of the cell entries at its position.  The cells may be a
    slice of the grid's, whose consumer sums them onto what it needs and
    frees them before the next slice is formed."""

    dofs: np.ndarray
    data: np.ndarray

    @property
    def nnz(self):  # the cell entries, summed or not
        return self.data.size

    def quadratic_form(self, U):
        """sum_j U[:, j]^T X U[:, j] over the columns of U, (n_dofs, q),
        summed cell by cell."""
        Uc = np.asarray(U)[self.dofs]  # one small product per cell, one thread
        return float(np.einsum("ciq,ciq->", Uc, self.data @ Uc))


class FemSystem:
    """Galerkin matrices for -div(grad) - V, V the constant `potential`, on
    a curved chart.

    `stiffness` and `index_form` are the cell matrices of every cell, and
    `cells(at)` those of K - P and of M on a slice of cells, formed at each
    call; none is kept, and the quadrature weights `node_weights` (the mass
    matrix's row sums) need none.  The metric is evaluated at the quadrature
    points once, at construction, a chunk of cells at a time; its
    determinant and inverse come from a Gauss-Jordan elimination without
    pivoting, and a metric with a pivot that is not positive, one that is
    not positive definite by Sylvester's criterion, raises ValueError.
    `fuse` maps grid nodes to DOFs.
    """

    def __init__(self, grid, metric_fn, positions, potential=0.0):
        self.grid = grid
        self.potential = potential
        ndim = grid.ndim
        hs = np.array([a.h for a in grid.axes])
        gauss_local, w, self._vals, grads = _reference_tensors(ndim)
        # physical gradients: reference gradient scaled by 1/h per axis
        self._grads = grads / hs[None, None, :]
        # the metric's inverse and determinant at the quadrature points in
        # parameter space, a chunk of cells at a time; the stiffness term
        # scale * metric^-1 is kept, (C, G, ndim, ndim)
        origins = grid.cell_origins()
        C, G = len(origins), len(w)
        self._metric = np.empty((C, G, ndim, ndim))
        detg = np.empty((C, G))
        for c in range(0, C, _CELL_CHUNK):
            at = slice(c, c + _CELL_CHUNK)
            qp = origins[at, None, :] + gauss_local * hs
            self._metric[at], detg[at] = _inverse_and_det(np.reshape(
                metric_fn(qp.reshape(-1, ndim)), (-1, G, ndim, ndim)))
        self._scale = w[None, :] * np.sqrt(detg) * float(np.prod(hs))  # (C, G)
        self._metric *= self._scale[:, :, None, None]

        self.fuse = self._fusion_labels(positions)
        self.n_dofs = int(self.fuse.max()) + 1
        _, self._first_node = np.unique(self.fuse, return_index=True)
        self._cell_dofs = self.fuse[grid.cell_connectivity()]  # (C, L)
        # the mass matrix's row sums without the matrix: each cell's row
        # sums, gathered over the cells
        rows = np.einsum("cg,gi->ci", self._scale, self._vals).ravel()
        self.node_weights = np.bincount(self._cell_dofs.ravel(), rows, self.n_dofs)

    def _cells(self, at, weight, stiffness):
        """Cell matrices of the cells `at`, a slice, with entries
        sum_g weight phi_i phi_j, left out when `weight`, that of each cell
        `at` at each quadrature point, is None, plus, when `stiffness`,
        sum_g scale metric^-1(grad phi_i, grad phi_j)."""
        # one small product per cell runs on one BLAS thread, so the sums do
        # not depend on the thread count; chunks keep the temporaries small
        L, metric = self._vals.shape[1], self._metric[at]  # a view
        E = np.zeros((len(metric), L, L))
        for c in range(0, len(E), _CELL_CHUNK):
            part = slice(c, c + _CELL_CHUNK)
            if weight is not None:  # V^T diag(weight) V
                E[part] += ((self._vals.T * weight[part][:, None, :])
                            @ self._vals)
            if stiffness:  # sum_g grads (scale ginv) grads^T
                T = metric[part] @ self._grads.transpose(0, 2, 1)
                E[part] += (self._grads.transpose(1, 0, 2)
                            .reshape(L, -1) @ T.reshape(len(T), -1, L))
        return CellMatrices(self._cell_dofs[at], E)

    def cells(self, at):
        """The cells `at`, a slice, of K - P and of M: stiffness cells minus
        the mass cells times the constant `potential`, and the mass cells."""
        s = self._scale[at]
        return (self._cells(at, -s * self.potential, True),
                self._cells(at, s, False))

    @property
    def stiffness(self):
        return self._cells(slice(None), None, True)

    @property
    def index_form(self):
        """The cells of K - P over the whole grid."""
        return self._cells(slice(None), -self._scale * self.potential, True)

    @staticmethod
    def _fusion_labels(positions):
        keys = np.round(np.asarray(positions) / _FUSE_TOL).astype(np.int64)
        # equal keys are adjacent in a stable sort, in node order
        order = np.lexsort(keys.T)
        starts = np.ones(len(keys), dtype=bool)
        starts[1:] = np.any(np.diff(keys[order], axis=0) != 0, axis=1)
        labels = np.empty(len(keys), dtype=np.int64)
        labels[order] = np.cumsum(starts) - 1
        # relabel so that DOF order follows first appearance in node order
        rank = np.empty(int(starts.sum()), dtype=np.int64)
        rank[np.argsort(order[starts])] = np.arange(len(rank))
        return rank[labels]

    # -- helpers --------------------------------------------------------------
    def to_dof(self, node_values):
        """Restrict per-node values to DOFs, taking the first representative."""
        return np.asarray(node_values)[self._first_node]

    def integrate(self, dof_values):
        """Integral over the surface of a function given by DOF values."""
        return float(self.node_weights @ np.asarray(dof_values))
