"""Tensor-product quadratic (Q2) conforming finite elements on structured
parameter grids.

The grid lives on a box in parameter space; axes may be periodic, and nodes
whose chart images coincide (poles of spherical charts, seams) are fused into
single degrees of freedom.  Mass matrices are consistent, and stiffness /
potential matrices are assembled with 3-point Gauss quadrature per direction,
so the discrete eigenvalues of the Galerkin pencil sit above their continuous
counterparts.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from functools import cached_property

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
class Triplets:
    """A square matrix of order `n` as its entries `data` at (`rows`, `cols`),
    one per position, in increasing order of rows * n + cols."""

    rows: np.ndarray
    cols: np.ndarray
    data: np.ndarray
    n: int

    @property
    def nnz(self):
        return len(self.data)

    def same_pattern(self, other):
        """Whether `other` has its entries at the same positions."""
        return (np.array_equal(self.rows, other.rows)
                and np.array_equal(self.cols, other.cols))

    def __sub__(self, other):
        if not self.same_pattern(other):
            raise ValueError("the two matrices have different patterns")
        return Triplets(self.rows, self.cols, self.data - other.data, self.n)

    def __matmul__(self, x):
        """The product with a vector, or with each column of a 2-D array."""
        x = np.asarray(x)
        if x.ndim == 2:
            return np.stack([self @ column for column in x.T], axis=1)
        return np.bincount(self.rows, self.data * x[self.cols], self.n)


class FemSystem:
    """Galerkin matrices for -div(grad) + V on a curved chart.

    `mass`, `stiffness` and `potential` are assembled on first use, from the
    metric evaluated once at construction: only the index-form pencil reads
    them.  The quadrature weights need no matrix.  The metric's determinant
    (at construction) and inverse (while `stiffness` is assembled, one chunk
    of cells at a time, never kept) come from a Gauss-Jordan elimination
    without pivoting; a metric with a pivot that is not positive, one that
    is not positive definite by Sylvester's criterion, raises ValueError.

    Attributes
    ----------
    stiffness, mass, potential : Triplets at fused-DOF level, all on one
        pattern (`potential` is None without a potential function)
    fuse : (n_nodes,) int array mapping grid nodes to DOFs
    node_weights : (n_dofs,) quadrature weights (consistent-mass row sums)
    """

    def __init__(self, grid, metric_fn, positions, potential_fn=None):
        self.grid = grid
        self._potential_fn = potential_fn
        ndim = grid.ndim
        hs = np.array([a.h for a in grid.axes])
        gauss_local, w, self._vals, grads = _reference_tensors(ndim)
        # physical gradients: reference gradient scaled by 1/h per axis
        self._grads = grads / hs[None, None, :]
        # quadrature points in parameter space, (C, G, ndim)
        origins = grid.cell_origins()
        qp = origins[:, None, :] + gauss_local[None, :, :] * hs[None, None, :]
        C, G = qp.shape[:2]
        self._qp = qp.reshape(-1, ndim)
        self._g = np.asarray(metric_fn(self._qp)).reshape(C, G, ndim, ndim)
        detg = _inverse_and_det(self._g)[1]
        self._scale = w[None, :] * np.sqrt(detg) * float(np.prod(hs))  # (C, G)

        self.fuse = self._fusion_labels(positions)
        self.n_dofs = int(self.fuse.max()) + 1
        _, self._first_node = np.unique(self.fuse, return_index=True)
        self._cell_dofs = self.fuse[grid.cell_connectivity()]  # (C, L)
        # the mass matrix's row sums without the matrix: each cell's row
        # sums, gathered over the cells
        rows = np.einsum("cg,gi->ci", self._scale, self._vals).ravel()
        self.node_weights = np.bincount(self._cell_dofs.ravel(), rows, self.n_dofs)

    @cached_property
    def _pattern(self):
        """The rows and columns of the positions that the cells touch, and
        the position of each cell entry, (C, L, L) in C order, among them."""
        conn, n = self._cell_dofs, self.n_dofs
        keys, inverse = np.unique(conn[:, :, None] * n + conn[:, None, :],
                                  return_inverse=True)
        return keys // n, keys % n, inverse.ravel()

    def _assemble(self, scale, metric=None):
        """Fused-DOF matrix with cell entries sum_g scale phi_i phi_j, or
        sum_g scale metric^-1(grad phi_i, grad phi_j) when `metric` is
        given."""
        # one small product per cell runs on one BLAS thread, so the sums do
        # not depend on the thread count; chunks keep the temporaries small
        L = self._vals.shape[1]
        E = np.empty((len(scale), L, L))
        for c in range(0, len(scale), _CELL_CHUNK):
            s = scale[c:c + _CELL_CHUNK]
            if metric is None:  # V^T diag(scale) V
                E[c:c + _CELL_CHUNK] = (self._vals.T * s[:, None, :]) @ self._vals
            else:  # sum_g grads[g] (scale ginv)[g] grads[g]^T
                ginv = _inverse_and_det(metric[c:c + _CELL_CHUNK])[0]
                T = ((s[:, :, None, None] * ginv)
                     @ self._grads.transpose(0, 2, 1))
                E[c:c + _CELL_CHUNK] = (self._grads.transpose(1, 0, 2)
                                        .reshape(L, -1) @ T.reshape(len(s), -1, L))
        return self._summed(E)

    def _summed(self, E):
        """The matrix whose entries sum the cell entries E, in cell order."""
        rows, cols, inverse = self._pattern
        return Triplets(rows, cols, np.bincount(inverse, E.ravel(), len(rows)),
                        self.n_dofs)

    @cached_property
    def mass(self):
        return self._assemble(self._scale)

    @cached_property
    def stiffness(self):
        return self._assemble(self._scale, self._g)

    @cached_property
    def potential(self):
        if self._potential_fn is None:
            return None
        V = np.asarray(self._potential_fn(self._qp)).reshape(self._scale.shape)
        return self._assemble(self._scale * V)

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
