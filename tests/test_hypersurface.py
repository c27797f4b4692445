import io
import itertools
import tracemalloc

import numpy as np
import pytest

from indexbound import hypersurface as hyp
from indexbound.ambient import (
    AmbientError,
    CircleTimesSphereModel,
    ComplexProjectiveVeroneseModel,
    EllipsoidModel,
    RealProjectiveModel,
    SphereModel,
)
from indexbound.elements import (
    _FUSE_TOL,
    Axis,
    FemSystem,
    TensorGrid,
    _inverse_and_det,
)
from indexbound.spectral import SpectralError, SpectralSystem
import oracles
from oracles import (
    cells_by_einsum,
    classify,
    deck,
    deck_permutation,
    dense,
    descend,
    fusion_labels_by_unique,
    half_turn,
    minimal_geodesic_sphere_radius,
    with_involution,
    with_resolution,
)


def test_axis_cell_counts():
    ax = Axis("u", 2.0 * np.pi, 16, periodic=True)
    assert ax.n_cells == 8
    assert ax.n_nodes == 16
    ax = Axis("v", 1.0, 17, periodic=False)
    assert ax.n_cells == 8
    assert ax.n_nodes == 17


def test_fem_flat_torus_spectrum():
    axes = [
        Axis("u", 2 * np.pi, 32, periodic=True),
        Axis("v", 2 * np.pi, 32, periodic=True),
    ]
    grid = TensorGrid(axes)
    n = grid.node_params.shape[0]
    fem = FemSystem(
        grid,
        metric_fn=lambda p: np.tile(np.eye(2), (p.shape[0], 1, 1)),
        positions=grid.node_params,
    )
    from scipy.linalg import eigh

    K, M = map(dense, fem.cells(slice(None)))
    vals = eigh(K, M, eigvals_only=True)[:6]
    # flat-torus Laplacian: 0, then 1 with multiplicity four
    assert abs(vals[0]) < 1e-10
    assert np.abs(vals[1:5] - 1.0).max() < 1e-4
    assert abs(fem.node_weights.sum() - 4 * np.pi**2) < 1e-10


def test_fem_integrates_exactly():
    axes = [Axis("u", 2 * np.pi, 24, periodic=True)]
    grid = TensorGrid(axes)
    fem = FemSystem(
        grid,
        metric_fn=lambda p: np.ones((p.shape[0], 1, 1)),
        positions=grid.node_params,
    )
    f = fem.to_dof(np.cos(grid.node_params[:, 0]))
    assert abs(fem.integrate(f)) < 1e-12
    assert abs(fem.integrate(f * f) - np.pi) < 1e-6


def test_indefinite_metric_with_positive_determinant_is_refused():
    # diag(-1, -1, 1) has determinant 1 but two negative eigenvalues: its
    # first pivot is negative
    axes = [Axis(name, 2 * np.pi, 4, periodic=True) for name in "uvw"]
    grid = TensorGrid(axes)
    with pytest.raises(ValueError, match="not positive definite"):
        FemSystem(grid, metric_fn=lambda p: np.tile(
            np.diag([-1.0, -1.0, 1.0]), (p.shape[0], 1, 1)),
            positions=grid.node_params)


@pytest.mark.parametrize("k", [2, 3])
def test_metric_elimination_matches_lapack(k, rng):
    X = rng.standard_normal((500, 4, k, k))
    g = X @ X.swapaxes(-1, -2) + 0.1 * np.eye(k)
    inverse, det = _inverse_and_det(g)
    expected = np.linalg.inv(g)
    scale = np.abs(expected).max(axis=(-1, -2))
    error = np.abs(inverse - expected).max(axis=(-1, -2)) / scale
    assert error.max() < 1e-13
    assert (np.abs(det / np.linalg.det(g) - 1.0)).max() < 1e-13


def test_torus_volume_and_minimality(torus48):
    fem = torus48.fem()
    assert abs(fem.node_weights.sum() - 2 * np.pi**2) < 1e-10
    checks = torus48.pointwise_checks(seed=1)
    assert checks["minimality"] < 1e-9
    assert checks["normal_unit"] < 1e-12
    assert checks["normal_ambient_tangency"] < 1e-9
    assert checks["potential_consistency"] < 1e-8


def test_torus_second_fundamental_form(torus48):
    fields = torus48.node_fields()
    a2 = fields["a_norm_sq"]
    mask = fields["interior"]
    assert np.abs(a2[mask] - 2.0).max() < 1e-6
    assert fields["shape_asymmetry"][mask].max() < 1e-6


def test_equator_potential(equator2):
    fields = equator2.node_fields()
    assert equator2.potential == 2.0
    assert fields["a_norm_sq"][fields["interior"]].max() < 1e-8


def test_generalized_clifford_geometry():
    surf = hyp.generalized_clifford(SphereModel(4), 12)
    checks = surf.pointwise_checks(seed=2)
    assert checks["minimality"] < 1e-8
    assert checks["potential_consistency"] < 1e-7
    assert abs(surf.fem().node_weights.sum() - 16 * np.pi**2 / (3 * np.sqrt(3))) < 1e-5


@pytest.mark.parametrize("model", [SphereModel, RealProjectiveModel])
def test_clifford_torus_is_the_square_generalized_torus(model):
    # the n = 2 generalized Clifford torus, bit for bit the closed form
    surf = hyp.clifford_torus(model(3), 16)
    assert surf.name == "clifford_torus"
    assert surf.harmonic_axes == (0, 1)
    assert all(a.periodic and a.length == 2 * np.pi for a in surf.axes)
    u, v = surf.node_params.T
    r = 1.0 / np.sqrt(2.0)
    for field, sign in ((surf.positions, 1.0), (surf.normals, -1.0)):
        expected = np.stack([np.cos(u), np.sin(u),
                             sign * np.cos(v), sign * np.sin(v)], -1) * r
        assert np.array_equal(field, expected)
    assert np.array_equal(surf.metric_fn(surf.node_params),
                          np.broadcast_to(0.5 * np.eye(2), (len(u), 2, 2)))
    assert surf.potential == 4.0
    with pytest.raises(AmbientError, match="dimension 3"):
        hyp.clifford_torus(model(4), 16)


def test_circle_times_equator_geometry():
    surf = hyp.circle_times_equator(CircleTimesSphereModel(3), 12)
    checks = surf.pointwise_checks(seed=2)
    assert checks["minimality"] < 1e-8
    assert checks["potential_consistency"] < 1e-7


def _circle_product_pins(surf, r, s, g):
    """Positions (r cos t, r sin t, s w, 0...) of S^1(r) x S^{n-1}(s) and the
    metric diag(g[0], g[1] g_round), bit for bit; returns the nodes' circle
    points and sphere points w for the normal's pin."""
    t, angles = surf.node_params[:, 0], surf.node_params[:, 1:]
    circ = np.stack([np.cos(t), np.sin(t)], axis=-1)
    w = hyp.spherical_chart(angles)
    pad = np.zeros((len(t), surf.embed_dim - 2 - w.shape[1]))
    assert np.array_equal(surf.positions,
                          np.concatenate([circ * r, s * w, pad], axis=-1))
    metric = np.zeros((len(t), surf.dim, surf.dim))
    metric[:, 0, 0] = g[0]
    metric[:, 1:, 1:] = g[1] * hyp.spherical_metric(angles)
    assert np.array_equal(surf.metric_fn(surf.node_params), metric)
    return circ, w


@pytest.mark.parametrize("n", [2, 3])
def test_circle_times_equator_is_pinned(n):
    # S^1 x S^{n-1} in S^1 x S^n: unit radii, the last axis as normal
    surf = hyp.circle_times_equator(CircleTimesSphereModel(n), 10)
    _circle_product_pins(surf, 1.0, 1.0, (1.0, 1.0))
    e_last = np.zeros(n + 3)
    e_last[-1] = 1.0
    assert np.array_equal(surf.normals,
                          np.broadcast_to(e_last, surf.normals.shape))
    assert surf.potential == n - 1
    assert surf.harmonic_axes == ((0, 1) if n == 2 else (0,))


def test_generalized_clifford_is_pinned():
    # S^1(1/sqrt3) x S^2(sqrt2/sqrt3) in S^4, metric diag(1/3, 2/3 g_round)
    surf = hyp.generalized_clifford(SphereModel(4), 10)
    r, s = 1.0 / np.sqrt(3.0), np.sqrt(2.0) / np.sqrt(3.0)
    circ, w = _circle_product_pins(surf, r, s, (1.0 / 3.0, 2.0 / 3.0))
    assert np.array_equal(surf.normals,
                          np.concatenate([circ * s, -r * w], axis=-1))
    assert surf.potential == 6.0
    assert surf.harmonic_axes == (0,)


def test_ellipsoid_section_totally_geodesic():
    surf = hyp.ellipsoid_section(EllipsoidModel([1.0, 1.0, 1.0, 1.4]), 12)
    fields = surf.node_fields()
    assert fields["a_norm_sq"][fields["interior"]].max() < 1e-8


def test_with_resolution(torus48):
    finer = with_resolution(torus48, 1.5)
    assert finer.axes[0].n_nodes == 72
    assert abs(finer.fem().node_weights.sum() - 2 * np.pi**2) < 1e-10


def test_geodesic_sphere_radius():
    r = minimal_geodesic_sphere_radius()
    assert abs(r - np.pi / 3) < 1e-9


def test_geodesic_sphere_minimality(geodesic_cp2):
    checks = geodesic_cp2.pointwise_checks(seed=3)
    assert checks["minimality"] < 1e-5
    assert checks["normal_unit"] < 1e-10
    assert abs(geodesic_cp2.potential - 8.0) < 1e-10


@pytest.mark.parametrize("radius", [np.pi / 3, 1.0])
def test_geodesic_sphere_metric_is_the_chart_gram(radius):
    # the closed-form Berger metric against the Gram matrix of the chart's
    # central differences at the quadrature points, at the minimal radius and
    # at a probe; the FEM system reads the metric without the chart
    surf = hyp.geodesic_sphere_cp2(ComplexProjectiveVeroneseModel(2), 16,
                                   radius=radius)
    chart, calls = surf.chart_fn, []
    surf.chart_fn = lambda p: calls.append(p) or chart(p)
    metric, points = surf.metric_fn, []
    surf.metric_fn = lambda p: points.append(p) or metric(p)
    surf.fem()
    assert calls == []
    [qp] = points
    jac = hyp.chart_jacobian(chart, qp, surf.fd_step)
    gram = np.einsum("...ad,...bd->...ab", jac, jac)
    assert np.abs(metric(qp) - gram).max() < 1e-9
    assert surf.pointwise_checks(seed=3)["metric_consistency"] < 1e-9


def test_mesh_dump_format(equator2):
    buf = io.StringIO()
    equator2.mesh_dump(buf)
    text = buf.getvalue()
    lines = text.strip().splitlines()
    node_lines = [l for l in lines if l.startswith("node ")]
    cell_lines = [l for l in lines if l.startswith("cell ")]
    assert len(node_lines) == equator2.grid.n_nodes
    assert len(cell_lines) == len(equator2.grid.cell_connectivity())
    # node lines carry: index, dof, params, embedded position, weight
    first = node_lines[0].split()
    assert len(first) == 4 + equator2.dim + equator2.embed_dim


def test_double_cover_parity(torus_projective):
    perm = deck_permutation(torus_projective)
    params = torus_projective.grid.node_params
    even = np.sin(params[:, 0] + params[:, 1])
    odd = np.sin(params[:, 0])
    assert classify(perm, even) == "even"
    assert classify(perm, odd) == "odd"
    assert classify(perm, even + odd) == "mixed"


def test_double_cover_descend(torus_projective):
    perm = deck_permutation(torus_projective)
    params = torus_projective.grid.node_params
    even = np.cos(2.0 * params[:, 0])
    down = descend(perm, even)
    assert down.shape[0] * 2 == even.shape[0]
    with pytest.raises(ValueError):
        descend(perm, np.sin(params[:, 0]))


def test_free_involution_required():
    # the identity fixes every node; only nonzero shifts are tried
    surf = with_involution(hyp.clifford_torus(SphereModel(3), 16), lambda x: x)
    with pytest.raises(SpectralError, match="not a whole-cell shift"):
        deck(surf)


def test_fusion_labels_and_to_dof_match_node_loop(equator2):
    # reference: the node-by-node loops the vectorized code replaces
    fem = equator2.fem()
    keys = np.round(equator2.positions / 1e-8).astype(np.int64)
    _, labels = np.unique(keys, axis=0, return_inverse=True)
    order, expected = {}, []
    for lab in labels.ravel():
        expected.append(order.setdefault(lab, len(order)))
    assert np.array_equal(fem.fuse, expected)
    assert fem.n_dofs < equator2.grid.n_nodes  # the poles are fused

    values = equator2.positions
    first = np.empty((fem.n_dofs, values.shape[1]))
    seen = set()
    for i, d in enumerate(fem.fuse):
        if d not in seen:
            first[d] = values[i]
            seen.add(d)
    assert np.array_equal(fem.to_dof(values), first)


def _deck_permutation_ref(surface, tol=1e-9):
    """Node pairing of the ambient involution's images of the node positions
    by a dict of rounded position keys, one node at a time."""
    image = surface.ambient.involution(surface.positions)
    scale = 1.0 / tol
    key = {tuple(np.round(x * scale).astype(np.int64)): i
           for i, x in enumerate(surface.positions)}
    return np.array([key[tuple(np.round(x * scale).astype(np.int64))]
                     for x in image])


@pytest.mark.parametrize("nodes", [16, 24])
def test_double_cover_permutation_matches_node_loop(nodes):
    surface = hyp.clifford_torus(RealProjectiveModel(3), nodes)
    ref = _deck_permutation_ref(surface)
    assert np.array_equal(deck_permutation(surface), ref)


def _turn_first_circle(angle):
    """Rotation by `angle` of the first circle factor of the Clifford torus."""
    c, s = np.cos(angle), np.sin(angle)
    return lambda x: np.stack([c * x[..., 0] - s * x[..., 1],
                               s * x[..., 0] + c * x[..., 1],
                               x[..., 2], x[..., 3]], axis=-1)


def test_double_cover_rejects_bad_maps():
    for involution in (
        _turn_first_circle(0.1),  # off the grid nodes
        _turn_first_circle(2.0 * np.pi / 16),  # one node, half a cell
        lambda x: x * np.array([1.0, 1.0, 1.0, -1.0]),  # v -> -v fixes node 0
    ):
        surf = with_involution(hyp.clifford_torus(SphereModel(3), 16), involution)
        with pytest.raises(SpectralError, match="not a whole-cell shift"):
            deck(surf)


def test_ric_nn_matches_pointwise(geodesic_cp2):
    idx = np.arange(0, geodesic_cp2.grid.n_nodes, 37)
    model = geodesic_cp2.ambient
    ref = [model.ricci(geodesic_cp2.point_fn(geodesic_cp2.node_params[i]),
                       geodesic_cp2.normals[i]) for i in idx]
    assert np.abs(geodesic_cp2.ric_nn(idx) - ref).max() < 1e-12
    assert np.abs(geodesic_cp2.ric_nn(idx) - 6.0).max() < 1e-10


def _cell_connectivity_ref(grid):
    """Cell connectivity by one itertools loop per cell."""
    per_axis = [a.cell_conn() for a in grid.axes]
    conns = []
    for cell in itertools.product(*[range(a.n_cells) for a in grid.axes]):
        local = [per_axis[d][cell[d]] for d in range(grid.ndim)]
        combos = np.array(list(itertools.product(*local)))
        conns.append(np.ravel_multi_index(combos.T, grid.shape))
    return np.asarray(conns)


def _mesh_dump_ref(surface):
    """Mesh dump formatted one node and one cell per iteration."""
    fem = surface.fem()
    buf = io.StringIO()
    buf.write(f"# surface {surface.name}\n")
    buf.write(f"# nodes {surface.grid.n_nodes} dofs {fem.n_dofs} "
              f"dim {surface.dim} embed {surface.embed_dim}\n")
    buf.write("# node: index dof param_1..param_k x_1..x_d weight\n")
    wnode = fem.node_weights[fem.fuse]
    for i in range(surface.grid.n_nodes):
        p = " ".join(f"{v:.12g}" for v in surface.node_params[i])
        x = " ".join(f"{v:.12g}" for v in surface.positions[i])
        buf.write(f"node {i} {fem.fuse[i]} {p} {x} {wnode[i]:.12g}\n")
    buf.write("# cell: index node_indices\n")
    for c, conn in enumerate(_cell_connectivity_ref(surface.grid)):
        buf.write("cell %d %s\n" % (c, " ".join(map(str, conn))))
    return buf.getvalue()


@pytest.mark.parametrize("make", [
    lambda: hyp.clifford_torus(SphereModel(3), 16),
    lambda: hyp.geodesic_sphere_cp2(ComplexProjectiveVeroneseModel(2), 12),
], ids=["clifford_torus16", "geodesic_sphere_cp2_12"])
def test_mesh_dump_and_connectivity_match_loops(make, tmp_path):
    surface = make()
    conn = surface.grid.cell_connectivity()
    ref = _cell_connectivity_ref(surface.grid)
    assert conn.dtype == ref.dtype
    assert np.array_equal(conn, ref)
    # -0.0 equals 0.0 but prints as -0: one coordinate column holds both
    surface.positions[1:3, 0] = -0.0, 0.0
    path = tmp_path / "mesh.txt"
    with open(path, "w") as fh:  # streamed, as the command line writes it
        surface.mesh_dump(fh)
    assert path.read_bytes() == _mesh_dump_ref(surface).encode()
    x1 = 3 + surface.dim  # the column after "node", index, DOF, params
    lines = path.read_text().splitlines()
    assert [line.split()[x1] for line in lines[4:6]] == ["-0", "0"]


def test_mesh_dump_writes_at_most_dump_rows_at_once(torus48):
    rows = []

    class Stream(io.StringIO):
        def write(self, text):
            rows.append(text.count("\n"))
            return super().write(text)

    torus48.mesh_dump(Stream())
    n_cells = len(torus48.grid.cell_connectivity())
    assert torus48.grid.n_nodes > 2 * hyp._DUMP_ROWS
    assert max(rows) == hyp._DUMP_ROWS
    assert sum(rows) == 4 + torus48.grid.n_nodes + n_cells  # and 4 headers


@pytest.mark.parametrize("fixture", ["torus48", "torus96", "torus_projective"])
def test_chunked_geometry_is_the_whole_array_pass(fixture, request):
    """Five, two and one chunks of nodes: bit for bit the single pass."""
    surface = request.getfixturevalue(fixture)
    fields, whole = surface.node_fields(), oracles.node_fields(surface)
    assert fields.keys() == whole.keys()
    for key, value in whole.items():
        assert fields[key].dtype == value.dtype
        assert (fields[key] == value).all(), key
    cv = surface.ambient_curvature()
    for name, value in zip(cv._fields, oracles.ambient_curvature(surface)):
        assert (getattr(cv, name) == value).all(), name


@pytest.mark.parametrize("make", [
    lambda request: request.getfixturevalue("geodesic_cp2"),
    lambda request: hyp.geodesic_sphere_cp2(ComplexProjectiveVeroneseModel(2),
                                            20),
], ids=["geodesic_cp2", "geodesic_sphere_cp2_20"])
def test_chunked_cp2_geometry_matches_the_whole_array_pass(make, request):
    """One chunk and two chunks of nodes of the CP^2 geodesic sphere, whose
    chart's complex products may round with the array length."""
    surface = make(request)
    fields, whole = surface.node_fields(), oracles.node_fields(surface)
    assert fields.keys() == whole.keys()
    assert (fields["interior"] == whole["interior"]).all()
    pairs = [(fields[key], whole[key]) for key in whole if key != "interior"]
    pairs += zip(surface.ambient_curvature(), oracles.ambient_curvature(surface))
    for got, want in pairs:
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_curvature_is_evaluated_a_chunk_of_nodes_at_a_time():
    surface = hyp.clifford_torus(SphereModel(3), 48)  # 2304 nodes
    pairs, sizes = surface.ambient.ii_frame_pairs, []
    surface.ambient.ii_frame_pairs = (
        lambda pt, F: sizes.append(len(pt)) or pairs(pt, F))
    surface.ambient_curvature()
    assert len(sizes) > 1
    assert max(sizes) <= hyp._NODE_CHUNK
    assert sum(sizes) == surface.grid.n_nodes


def test_ambient_curvature_heap_peak():
    """The traced heap of the curvature evaluation on the bundled 96-node
    Clifford torus (9,216 nodes) stays under 3 MiB; evaluated at every node
    at once it peaked at 9.3 MiB."""
    surface = hyp.clifford_torus(SphereModel(3), 96)
    surface.node_fields()
    tracemalloc.start()
    try:
        surface.ambient_curvature()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_parity_projector_keeps_fixed_dofs_even():
    # a half turn about the polar axis fixes both fused pole DOFs: the even
    # characters of the half turn keep them, the odd ones drop them
    even, odd = (
        SpectralSystem(half_turn(hyp.equator_in_sphere(SphereModel(3), 13), s))
        .spectrum() for s in (1.0, -1.0))
    n_dofs = hyp.equator_in_sphere(SphereModel(3), 13).fem().n_dofs
    assert (even.quotient["functions"], odd.quotient["functions"]) == ("even", "odd")
    assert even.n_dofs == odd.n_dofs + 2 == (n_dofs + 2) // 2
    assert even.block_sizes.sum() + odd.block_sizes.sum() == n_dofs


def test_quotient_parity_from_the_normal(torus_projective):
    # x -> -x reverses the unit normal of the Clifford torus as it reverses
    # every vector: the normal descends, the quotient in RP^3 is two-sided,
    # and its Jacobi fields are the even functions
    _, element, sign = deck(torus_projective)
    assert (element.tolist(), sign) == ([8, 8], 1)
    # a half turn that reverses the normal coordinate keeps the odd functions
    assert deck(half_turn(hyp.equator_in_sphere(SphereModel(3), 13), -1.0))[2] == -1
    # a half turn of one circle factor, diag(-1, -1, 1, 1), moves the normal
    # as it moves every vector: the normal descends
    surface = with_involution(hyp.clifford_torus(SphereModel(3), 16),
                              _turn_first_circle(np.pi))
    _, element, sign = deck(surface)
    assert (element.tolist(), sign) == ([4, 0], 1)


@pytest.mark.parametrize("make", [
    lambda: hyp.clifford_torus(SphereModel(3), 32),
    lambda: hyp.geodesic_sphere_cp2(ComplexProjectiveVeroneseModel(2), 12),
    lambda: hyp.equator_in_sphere(SphereModel(3), 13),
    lambda: hyp.circle_times_equator(CircleTimesSphereModel(3), 8),
])
def test_node_weights_are_mass_row_sums(make, monkeypatch):
    # the weights are gathered without the mass matrix, so they match its row
    # sums to roundoff, not bitwise
    formed = []
    cells = FemSystem._cells
    monkeypatch.setattr(FemSystem, "_cells", lambda self, *args: formed.append(
        args) or cells(self, *args))
    fem = make().fem()
    assert formed == []  # no cell matrix is formed for the weights
    rows = dense(fem.cells(slice(None))[1]).sum(axis=1)
    assert len(formed) == 2  # the cells of K - P and of M
    assert np.abs(fem.node_weights - rows).max() <= 1e-15 * np.abs(rows).max()


#: surfaces with fused poles (CP^2 sphere, equator) and without (torus)
_FEM_SURFACES = [
    lambda: hyp.clifford_torus(SphereModel(3), 16),
    lambda: hyp.geodesic_sphere_cp2(ComplexProjectiveVeroneseModel(2), 12),
    lambda: hyp.equator_in_sphere(SphereModel(3), 13),
]


@pytest.mark.parametrize("make", _FEM_SURFACES)
def test_cell_matrices_match_an_einsum_quadrature(make):
    # the chunked cell products give the cells of K - P and of M that one
    # einsum over the quadrature points gives, on the cells' fused DOFs; the
    # cells of a slice are those of the whole grid bit for bit
    surface = make()
    fem = surface.fem()
    A, M = fem.cells(slice(None))
    assert np.array_equal(fem.index_form.data, A.data)
    for X, oracle in zip((A, M), cells_by_einsum(surface)):
        assert np.array_equal(X.dofs, fem.fuse[fem.grid.cell_connectivity()])
        assert X.data.shape == oracle.shape
        assert np.abs(X.data - oracle).max() <= 1e-14 * np.abs(oracle).max()
    for at in (slice(5, 40), slice(len(A.data) - 3, len(A.data))):
        for X, part in zip((A, M), fem.cells(at)):
            assert np.array_equal(part.dofs, X.dofs[at])
            assert np.array_equal(part.data, X.data[at])


def test_cellwise_form_is_the_dense_form():
    fem = hyp.clifford_torus(SphereModel(3), 16).fem()
    A = fem.index_form
    U = np.random.default_rng(3).standard_normal((fem.n_dofs, 3))
    X = dense(A)
    oracle = np.trace(U.T @ X @ U)
    scale = np.trace(np.abs(U).T @ np.abs(X) @ np.abs(U))
    assert abs(A.quadratic_form(U) - oracle) <= 1e-15 * scale


@pytest.mark.parametrize("make", _FEM_SURFACES[1:])
def test_fusion_labels_match_unique_rows(make):
    # the fused poles share a DOF, numbered by first appearance as the
    # labels of np.unique over the rounded positions number it
    surface = make()
    fem = surface.fem()
    assert fem.n_dofs < surface.grid.n_nodes
    oracle = fusion_labels_by_unique(surface.positions, _FUSE_TOL)
    assert np.array_equal(fem.fuse, oracle)
