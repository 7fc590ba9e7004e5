"""Fine-scale assembly: element matrices, fracture terms, block coupling.

Element oracles are hand-coded closed forms for bilinear quads on an
hx-by-hy rectangle (node order sw, se, ne, nw):

    Kx = hy/(6 hx) * [[ 2,-2,-1, 1],[-2, 2, 1,-1],[-1, 1, 2,-2],[ 1,-1,-2, 2]]
    Ky = hx/(6 hy) * [[ 2, 1,-1,-2],[ 1, 2,-2,-1],[-1,-2, 2, 1],[-2,-1, 1, 2]]
    M  = hx*hy/36  * [[ 4, 2, 1, 2],[ 2, 4, 2, 1],[ 1, 2, 4, 2],[ 2, 1, 2, 4]]
"""

import dataclasses
import pathlib
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, strategies as st

import msfrac as mf
from msfrac import assembly, driver
from msfrac.assembly import (q1_stiffness, q1_mass, node_operator,
                             load_vector, edge_coefficients)
from msfrac.config import load_config

from conftest import (cell_permeability, operator_boxes, operator_case,
                      two_embedded_system)

ROOT = pathlib.Path(__file__).resolve().parents[1]


def hand_q1_stiffness(hx, hy):
    Kx = np.array([[2, -2, -1, 1], [-2, 2, 1, -1],
                   [-1, 1, 2, -2], [1, -1, -2, 2]], float) * hy / (6 * hx)
    Ky = np.array([[2, 1, -1, -2], [1, 2, -2, -1],
                   [-1, -2, 2, 1], [-2, -1, 1, 2]], float) * hx / (6 * hy)
    return Kx + Ky


def hand_q1_mass(hx, hy):
    return np.array([[4, 2, 1, 2], [2, 4, 2, 1],
                     [1, 2, 4, 2], [2, 1, 2, 4]], float) * hx * hy / 36


def dense_assemble(g, kappa, edge_w=None):
    """Brute-force dense assembly (independent scatter loop); edge_w is
    a field over the fine edges, one weight per edge id."""
    A = np.zeros((g.n_nodes, g.n_nodes))
    Ke = hand_q1_stiffness(g.hx, g.hy)
    for c in range(g.n_cells):
        nodes = g.cell_nodes(c)
        A[np.ix_(nodes, nodes)] += kappa[c] * Ke
    for eid in [] if edge_w is None else np.flatnonzero(edge_w).tolist():
        a, b = g.edge_nodes(eid)
        h = g.hx if eid < g.n_hedges else g.hy
        A[np.ix_([a, b], [a, b])] += edge_w[eid] / h * np.array([[1, -1], [-1, 1]])
    return A


@given(st.floats(0.01, 2.0), st.floats(0.01, 2.0))
def test_q1_element_matrices_closed_form(hx, hy):
    np.testing.assert_allclose(q1_stiffness(hx, hy), hand_q1_stiffness(hx, hy),
                               rtol=0, atol=1e-13)
    np.testing.assert_allclose(q1_mass(hx, hy), hand_q1_mass(hx, hy),
                               rtol=0, atol=1e-13)


def test_hand_assembly_with_fracture_edge():
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 2, 2, 2, t=0)  # 4x4 cells, 25 nodes
    f = mf.Fracture(np.array([[0.5, 0.25], [0.5, 0.5]]), 1e-3, 5e3, "dfm", 0)
    tr = mf.rasterize_dfm(f, g)
    assert tr.effective_coeff == pytest.approx(5.0)
    perm = mf.PermeabilityField.constant(g, 1.0)
    sys = mf.assemble_dfm(g, perm, [tr])
    want = dense_assemble(g, np.ones(g.n_cells), edge_coefficients(g, [tr]))
    np.testing.assert_allclose(sys.K.toarray(), want, rtol=0, atol=1e-13)
    # the fracture edge contributes exactly c/h * [[1,-1],[-1,1]]
    bare = mf.assemble_dfm(g, perm, []).K
    diff = (sys.K - bare).toarray()
    a, b = g.node_id(2, 1), g.node_id(2, 2)
    block = 5.0 / g.hy * np.array([[1, -1], [-1, 1]])
    np.testing.assert_allclose(diff[np.ix_([a, b], [a, b])], block,
                               rtol=0, atol=1e-13)
    assert np.count_nonzero(diff) == 4


@given(st.lists(st.tuples(st.lists(st.integers(0, 11), max_size=8),
                          st.floats(1e-3, 1e9)), max_size=5))
def test_edge_coefficients_sum_shared_edges_in_trace_order(spec):
    # few edge ids, so traces share edges; far-apart weights, so the
    # order of each sum shows in its last bits
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 2, 2, 2, t=0)   # 40 fine edges
    traces = [mf.DfmTrace(k, np.array(ids, dtype=int), c)
              for k, (ids, c) in enumerate(spec)]
    want = {}
    for tr in traces:
        for e in tr.fine_edges.tolist():
            want[e] = want.get(e, 0.0) + tr.effective_coeff
    field = edge_coefficients(g, traces)
    assert field.shape == (g.n_edges,)
    eids = np.flatnonzero(field)
    w = field[eids]
    assert eids.tolist() == sorted(want)
    assert w.tobytes() == np.array([want[e] for e in sorted(want)], dtype=float).tobytes()


@pytest.mark.parametrize("at", ["below", "above"])
def test_trace_edges_outside_the_grid_are_named(at):
    # np.add.at would wrap a negative id onto the last edges silently
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 2, 2, 2, t=0)
    bad = -1 if at == "below" else g.n_edges
    tr = mf.DfmTrace(0, np.array([0, bad]), 5.0)
    with pytest.raises(ValueError, match="edges outside the grid"):
        edge_coefficients(g, [tr])
    with pytest.raises(ValueError, match="edges outside the grid"):
        mf.assemble_dfm(g, mf.PermeabilityField.constant(g, 1.0), [tr])


@given(st.integers(0, 10 ** 6))
def test_node_operator_matches_dense_scatter(seed):
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 2, 2, 2, t=0)
    rng = np.random.default_rng(seed)
    kappa = rng.uniform(0.5, 20.0, g.n_cells)
    box = mf.CellBox(1, 1, 3, 3)
    # random fracture edges, always including one through the box
    # interior, one on its rim and one with an end node outside it
    edges = {g.hedge_id(1, 2), g.hedge_id(1, 1), g.hedge_id(0, 1)}
    edges |= set(rng.choice(g.n_edges, rng.integers(0, g.n_edges), replace=False).tolist())
    eids = np.array(sorted(edges), dtype=np.int64)
    edge_w = np.zeros(g.n_edges)
    edge_w[eids] = [rng.uniform(0.1, 50.0) for _ in eids]
    for ew in (None, edge_w):
        A = node_operator(g, kappa, ew)
        np.testing.assert_allclose(A.toarray(), dense_assemble(g, kappa, ew),
                                   rtol=0, atol=1e-12)
        whole = node_operator(g, kappa, ew, box=mf.CellBox(0, 0, g.fine_nx, g.fine_ny))
        for part in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(whole, part), getattr(A, part))
        # restricted assembly equals the dense restriction of the box's
        # cells and of the edges with both end nodes in the box
        nodes = g.box_nodes(box)
        kb = kappa.copy()
        outside = np.ones(g.n_cells, bool)
        outside[g.box_cells(box)] = False
        kb[outside] = 0.0
        inside = [set(g.edge_nodes(e)) <= set(nodes.tolist()) for e in eids.tolist()]
        kept = None
        if ew is not None:
            kept = np.zeros(g.n_edges)
            kept[eids[inside]] = ew[eids[inside]]
        Aloc = node_operator(g, kappa, ew, box=box)
        np.testing.assert_allclose(Aloc.toarray(),
                                   dense_assemble(g, kb, kept)[np.ix_(nodes, nodes)],
                                   rtol=0, atol=1e-12)


def coo_node_operator(g, cell_weights, edge_weights=None, kind="stiffness",
                      box=None):
    """``node_operator`` as a sum of sparse COO matrices (oracle: the
    assembly the stencil fill replaced).  The cell terms go through one
    COO matrix, converted to CSR with its duplicates summed; the edge
    terms through a second one, added to it."""
    ke2d = q1_stiffness(g.hx, g.hy) if kind == "stiffness" else q1_mass(g.hx, g.hy)
    box = box or mf.CellBox(0, 0, g.fine_nx, g.fine_ny)
    n = (box.i1 - box.i0 + 1) * (box.j1 - box.j0 + 1)
    cells = g.box_cells(box)
    nodes = g.box_cell_nodes(box)
    data = np.asarray(cell_weights, dtype=float)[cells, None, None] * ke2d[None, :, :]
    rows = np.broadcast_to(nodes[:, :, None], data.shape)
    cols = np.broadcast_to(nodes[:, None, :], data.shape)
    A = sp.coo_matrix((data.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n)).tocsr()
    A.sum_duplicates()
    if edge_weights is None:
        return A
    eids = np.flatnonzero(edge_weights)
    w = edge_weights[eids]
    (ai, aj), (bi, bj) = (g.node_ij(x) for x in g.edge_nodes(eids))
    keep = (ai >= box.i0) & (bi <= box.i1) & (aj >= box.j0) & (bj <= box.j1)
    if not keep.any():
        return A
    row = box.i1 - box.i0 + 1
    a = (aj[keep] - box.j0) * row + (ai[keep] - box.i0)
    b = (bj[keep] - box.j0) * row + (bi[keep] - box.i0)
    h = np.where(eids[keep] < g.n_hedges, g.hx, g.hy)
    if kind == "stiffness":
        data = (w[keep] / h)[:, None] * np.array([1.0, -1.0, -1.0, 1.0])
    else:
        data = (w[keep] * h / 6.0)[:, None] * np.array([2.0, 1.0, 1.0, 2.0])
    E = sp.coo_matrix((data.ravel(), (np.column_stack([a, a, b, b]).ravel(),
                                      np.column_stack([a, b, a, b]).ravel())),
                      shape=(n, n)).tocsr()
    E.sum_duplicates()
    return (A + E).tocsr()


def assert_same_bytes(got, want):
    for part in ("indptr", "indices", "data"):
        assert getattr(got, part).dtype == getattr(want, part).dtype
        assert getattr(got, part).tobytes() == getattr(want, part).tobytes()


@pytest.mark.parametrize("case", ["channels", "efm", "plain", "non_square"])
def test_node_operator_bytes_match_coo_assembly(case):
    g, fine = operator_case(case)
    if case == "channels":    # some fine edges lie on two traces
        ids = np.concatenate([tr.fine_edges for tr in
                              (mf.rasterize_dfm(f, g) for f in
                               mf.fields.crossing_channels(g, seed=1).dfm)])
        assert len(np.unique(ids)) < len(ids)
    pou = mf.compute_pou(g, fine)
    # weights over six decades, so a change of summation order shows
    rng = np.random.default_rng(3)
    eids = np.flatnonzero(fine.edge_arrays)
    spread = (10.0 ** rng.uniform(-3, 3, g.n_cells), np.zeros(g.n_edges))
    spread[1][eids] = 10.0 ** rng.uniform(-3, 3, len(eids))
    for cells, edges in ((fine.perm.kappa_cells, fine.edge_arrays),
                         (pou.kappa_tilde, pou.edge_kappa_tilde), spread):
        for kind in ("stiffness", "mass"):
            for box in operator_boxes(g):
                assert_same_bytes(node_operator(g, cells, edges, kind, box),
                                  coo_node_operator(g, cells, edges, kind, box))


def test_node_operator_drops_zero_sums_like_a_sparse_sum():
    # a zero cell weight gives zero sums, which the COO sum with an edge
    # matrix drops and the cell matrix alone keeps
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 2, 2, 2, t=0)
    w = np.ones(g.n_cells)
    w[[0, 5]] = 0.0
    edges = np.zeros(g.n_edges)
    edges[g.hedge_id(2, 2)] = 3.0
    for kind in ("stiffness", "mass"):
        for ew in (None, edges):
            got = node_operator(g, w, ew, kind)
            assert_same_bytes(got, coo_node_operator(g, w, ew, kind))
            assert (got.data == 0).any() == (ew is None)


def test_stencil_state_is_built_once_and_read_only():
    g, fine = operator_case("channels")
    args = (fine.perm.kappa_cells, fine.edge_arrays, "stiffness")
    boxes = operator_boxes(g)
    serial = [node_operator(g, *args, box) for box in boxes]
    for cache in (assembly._stencil, q1_stiffness, q1_mass):
        cache.cache_clear()
    start = threading.Barrier(4, timeout=30)

    def build(_):
        start.wait()           # all four threads meet the cold caches
        return [node_operator(g, *args, box) for box in boxes]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            built = [f.result(timeout=60) for f in
                     [pool.submit(build, k) for k in range(4)]]
    finally:
        sys.setswitchinterval(interval)
    for ops in built:
        for got, want in zip(ops, serial):
            assert_same_bytes(got, want)
    shared = assembly._stencil(g.fine_nx, g.fine_ny) + (q1_stiffness(g.hx, g.hy),)
    assert not any(x.flags.writeable for x in shared)

    # the caller owns every array of a returned operator
    for box in (None, g.neighborhoods[6].cells):
        A = node_operator(g, *args, box)
        want = node_operator(g, *args, box)
        A.data *= 2
        A.sort_indices()
        A.data[::3] = 0.0
        A.eliminate_zeros()         # rewrites indices and indptr in place
        assert_same_bytes(node_operator(g, *args, box), want)


def test_symmetry_exact():
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 3, 3, 4, t=0)
    net = mf.fields.crossing_channels(g, seed=1, n=4)
    perm = mf.PermeabilityField.constant(g, 1.0)
    traces = [mf.rasterize_dfm(f, g) for f in net.dfm]
    sys = mf.assemble_dfm(g, perm, traces)
    d = (sys.K - sys.K.T).toarray()
    assert np.abs(d).max() == 0.0


def test_bilinear_reproduction():
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 4, 4, 5, t=0)
    perm = mf.PermeabilityField.constant(g, 1.0)
    sys = mf.assemble_dfm(g, perm, [], bc=mf.bilinear_bc(0, 0, 0, 1.0))
    sol = mf.solve_fine(sys)
    xy = g.node_coords
    np.testing.assert_allclose(sol.u, xy[:, 0] * xy[:, 1], atol=1e-12)
    assert sol.residual < 1e-12


def test_fine_solve_matches_dense_oracle():
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 2, 2, 2, t=0)
    rng = np.random.default_rng(11)
    kappa = rng.uniform(0.1, 10.0, g.n_cells)
    perm = mf.PermeabilityField(kappa)
    sys = mf.assemble_dfm(g, perm, [], f=1.5, bc=mf.bilinear_bc(0.2, 1.0, -0.5, 0.3))
    sol = mf.solve_fine(sys)

    A = sys.K.toarray()
    fixed = np.zeros(g.n_nodes, bool)
    fixed[sys.dirichlet_nodes] = True
    lift = np.zeros(g.n_nodes)
    lift[sys.dirichlet_nodes] = sys.dirichlet_values
    free = ~fixed
    u = lift.copy()
    u[free] = np.linalg.solve(A[np.ix_(free, free)],
                              sys.f[free] - A[np.ix_(free, fixed)] @ lift[fixed])
    np.testing.assert_allclose(sol.u, u, atol=1e-12)


def reduced_fine_system(sys):
    """The Dirichlet-reduced operator and load that ``solve_fine`` factors
    (here in the natural order of the unknowns), built from ``sys.K`` and
    ``sys.f``."""
    K = sys.K
    fixed = np.zeros(K.shape[0], bool)
    fixed[sys.dirichlet_nodes] = True
    lift = np.zeros(K.shape[0])
    lift[sys.dirichlet_nodes] = sys.dirichlet_values
    free = ~fixed
    return K[free][:, free].tocsc(), sys.f[free] - K[free][:, fixed] @ lift[fixed]


@pytest.mark.parametrize("kappa_f", [1e2, 1e6, 1e10])
@pytest.mark.parametrize("model", ["dfm", "efm"])
def test_fine_residual_no_worse_than_spsolve(model, kappa_f):
    # a conforming channel, or a coupled embedded fracture, across contrast
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 4, 4, 5, t=0)
    perm = cell_permeability(
        g, lambda x, y: 1.0 + 0.3 * np.cos(np.pi * x) * np.sin(np.pi * y))
    fr = mf.Fracture(np.array([[0.1, 0.3], [0.9, 0.65]]), 1e-3, kappa_f, model, 0)
    bc = mf.bilinear_bc(0.2, 1.0, -0.5, 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if model == "dfm":
            sys = mf.assemble_dfm(g, perm, [mf.rasterize_dfm(fr, g)], bc=bc, f=1.0)
        else:
            sys = mf.assemble_efm(g, perm, [], [mf.intersect_efm(fr, g)],
                                  bc=bc, f=1.0)
            assert sys.block(0, 1).count_nonzero()      # coupled
        sol = mf.solve_fine(sys)
        Mff, b = reduced_fine_system(sys)
        x = spla.spsolve(Mff, b)
    ref = np.linalg.norm(Mff @ x - b) / np.linalg.norm(b)
    assert np.isfinite(sol.residual)
    assert sol.residual <= 10.0 * ref


@pytest.mark.parametrize("config", ["efm_sweep_r20.yml", "adapt_channels_10.yml"])
def test_fine_factor_fills_no_more_than_minimum_degree(config, monkeypatch, tmp_path):
    # the nested-dissection factor solve_fine makes, against SuperLU's
    # minimum degree on A + A^T, by entries of L + U (deterministic counts)
    cfg = load_config(ROOT / "bench" / "configs" / config)
    cfg.outputs.dir = str(tmp_path)
    sys = driver.setup(cfg).sys
    factors, splu = [], spla.splu

    def spy(*args, **kwargs):
        factors.append(splu(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(assembly.spla, "splu", spy)
    sol = mf.solve_fine(sys)
    monkeypatch.undo()
    (lu,) = factors
    Mff, b = reduced_fine_system(sys)
    mmd = spla.splu(Mff, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True})
    assert lu.L.nnz + lu.U.nnz <= mmd.L.nnz + mmd.U.nnz
    free = np.ones(sys.K.shape[0], bool)
    free[sys.dirichlet_nodes] = False
    np.testing.assert_allclose(sol.u[free], mmd.solve(b),
                               rtol=1e-10, atol=1e-12)


def test_singular_fine_operator_raises_named_error():
    # a hand-made singular operator: the centre node of a 4 x 4 fine
    # grid loses every coupling; spsolve would warn and return NaN
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 2, 2, 2, t=0)
    sys = mf.assemble_dfm(g, mf.PermeabilityField.constant(g, 1.0), [],
                          bc=mf.bilinear_bc(0.0, 1.0), f=1.0)
    c = 12
    K = sys.K.tolil()
    K[c, :] = 0.0
    K[:, c] = 0.0
    singular = dataclasses.replace(sys, K=K.tocsr())
    # the same node with a subnormal diagonal: the factor exists, but
    # the solution overflows
    K[c, c] = 1e-320
    overflowing = dataclasses.replace(sys, K=K.tocsr())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mf.solve_fine(sys).residual < 1e-12
        with pytest.raises(mf.FineSolveError, match="fine reference.*singular"):
            mf.solve_fine(singular)
        with pytest.raises(mf.FineSolveError,
                           match="fine reference.*residual is inf"):
            mf.solve_fine(overflowing)


def test_galerkin_identity_zero_bc():
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 3, 3, 3, t=0)
    perm = mf.PermeabilityField.constant(g, 2.0)
    sys = mf.assemble_dfm(g, perm, [], f=1.0, bc=0.0)
    sol = mf.solve_fine(sys)
    energy = float(sol.u @ (sys.K @ sol.u))
    work = float(sys.f @ sol.u)
    assert energy == pytest.approx(work, rel=1e-12)


def test_load_vector_total_mass():
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 3, 3, 3, t=0)
    F = load_vector(g, 1.0)
    assert F.sum() == pytest.approx(1.0, rel=1e-12)   # area of unit square
    F2 = load_vector(g, lambda x, y: x)
    assert F2.sum() == pytest.approx(0.5, rel=1e-10)  # integral of x


def test_flux_monotone_in_fracture_conductivity():
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 4, 4, 5, t=0)
    drive = mf.bilinear_bc(0, 1, 0, 0)  # u = x
    energies = []
    for cond in [1e0, 1e2, 1e4]:
        f = mf.Fracture(np.array([[0.2, 0.5], [0.8, 0.5]]), 1e-3, cond / 1e-3,
                        "dfm", 0)
        tr = mf.rasterize_dfm(f, g)
        perm = mf.PermeabilityField.constant(g, 1.0)
        sys = mf.assemble_dfm(g, perm, [tr], bc=drive)
        u = mf.solve_fine(sys).u
        energies.append(float(u @ (sys.K @ u)))
    assert energies[0] <= energies[1] <= energies[2]


def test_dfm_fracture_carries_dominant_flux():
    # strong horizontal fracture under left-right drive: the gradient
    # along the fracture row is near-constant and the 1D term carries
    # roughly kappa_f*eps/(kappa_m*H) times the matrix flux
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 10, 10, 10, t=0)
    f = mf.Fracture(np.array([[0.0, 0.5], [1.0, 0.5]]), 1e-3, 1e6, "dfm", 0)
    tr = mf.rasterize_dfm(f, g)
    perm = mf.PermeabilityField.constant(g, 1.0)
    sys = mf.assemble_dfm(g, perm, [tr], bc=mf.bilinear_bc(0, 1, 0, 0))
    u = mf.solve_fine(sys).u
    path = tr.edge_node_path(g)
    grads = np.diff(u[path]) / g.hx
    assert np.ptp(grads) < 0.05 * np.abs(grads).max()
    frac_flux = tr.effective_coeff * np.abs(grads).mean()
    assert frac_flux > 100.0  # matrix carries O(1) under unit drive


# ------------------------------------------------------------- EFM


def efm_system(g, poly, cond, coupling_scale=1.0, bc=None, f=None, kappa=1.0):
    fr = mf.Fracture(np.asarray(poly, float), 1e-3, cond / 1e-3, "efm", 0)
    tr = mf.intersect_efm(fr, g)
    perm = mf.PermeabilityField.constant(g, kappa)
    return mf.assemble_efm(g, perm, [], [tr], bc=bc, f=f,
                           coupling_scale=coupling_scale)


def test_efm_block_symmetry(tmp_path):
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 3, 3, 4, t=0)
    bc = mf.bilinear_bc(0, 1, 1, 0)
    cfg = load_config(ROOT / "configs" / "efm_single.yml")
    cfg.outputs.dir = str(tmp_path)
    systems = [
        efm_system(g, [[0.15, 0.3], [0.85, 0.62]], 10.0, bc=bc),
        driver.setup(cfg).sys,
        two_embedded_system(g, mf.PermeabilityField.constant(g, 1.0), bc=bc),
    ]
    for sys in systems:
        assert np.abs(sys.K - sys.K.T).max() == 0.0


def test_efm_reflection_symmetry():
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 4, 4, 4, t=0)
    # vertical centered fracture, bc symmetric under x -> 1-x
    sys = efm_system(g, [[0.5, 0.3], [0.5, 0.7]], 100.0,
                     bc=lambda x, y: (x - 0.5) ** 2 + y)
    sol = mf.solve_fine(sys)
    U = sol.u[:g.n_nodes].reshape(g.fine_ny + 1, g.fine_nx + 1)
    assert np.abs(U - U[:, ::-1]).max() < 1e-10


def test_efm_matches_dfm_under_strong_coupling():
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 5, 5, 8, t=0)
    poly = [[0.2, 0.5], [0.8, 0.5]]  # lies exactly on fine edges
    bc = mf.bilinear_bc(0, 1, 1, 0)
    fr = mf.Fracture(np.asarray(poly), 1e-3, 1e4, "dfm", 0)
    perm = mf.PermeabilityField.constant(g, 1.0)
    sys_d = mf.assemble_dfm(g, perm, [mf.rasterize_dfm(fr, g)], bc=bc)
    ud = mf.solve_fine(sys_d).u
    sys_e = efm_system(g, poly, 10.0, coupling_scale=64.0, bc=bc)
    ue = mf.solve_fine(sys_e).u[:g.n_nodes]
    A = node_operator(g, np.ones(g.n_cells))  # matrix-part energy
    e = ue - ud
    rel = np.sqrt(float(e @ (A @ e)) / float(ud @ (A @ ud)))
    assert rel < 0.05


def test_efm_without_embedded_traces_is_the_conforming_system():
    # setup calls assemble_efm for every run, so a run with no embedded
    # fracture must get assemble_dfm's system, bit for bit
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 4, 4, 4, t=1)
    net = mf.fields.crossing_channels(g, seed=1)
    traces = [mf.rasterize_dfm(fr, g) for fr in net.dfm]
    perm = cell_permeability(g, lambda x, y: 1.0 + 5.0 * x * y)
    bc = mf.bilinear_bc(0.0, 1.0, 1.0, 0.0)
    dfm = mf.assemble_dfm(g, perm, traces, f=2.0, bc=bc)
    efm = mf.assemble_efm(g, perm, traces, [], f=2.0, bc=bc)
    assert traces and efm.efm_traces == []
    for name in ("data", "indices", "indptr"):
        assert getattr(efm.K, name).tobytes() == getattr(dfm.K, name).tobytes()
    assert efm.K.shape == dfm.K.shape
    assert efm.f.tobytes() == dfm.f.tobytes()
    assert efm.edge_arrays.tobytes() == dfm.edge_arrays.tobytes()


def test_efm_trace_without_cell_overlaps_is_rejected():
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 3, 3, 4, t=0)
    fr = mf.Fracture(np.array([[0.15, 0.3], [0.85, 0.62]]), 1e-3, 1e4, "efm", 0)
    tr = mf.intersect_efm(fr, g)
    empty = dataclasses.replace(tr, fracture_id=1, cells=tr.cells[:0],
                                lengths=tr.lengths[:0], midpoints=tr.midpoints[:0],
                                mid_arcs=tr.mid_arcs[:0])
    perm = mf.PermeabilityField.constant(g, 1.0)
    with pytest.raises(ValueError, match="fracture 1: embedded trace has no cell overlaps"):
        mf.assemble_efm(g, perm, [], [tr, empty])


@pytest.mark.parametrize("scale", [0.0, -1.0, np.nan])
def test_efm_requires_positive_coupling(scale):
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 3, 3, 4, t=0)
    with pytest.raises(ValueError, match="coupling_scale"):
        efm_system(g, [[0.15, 0.3], [0.85, 0.62]], 10.0, coupling_scale=scale)


# a coordinate anywhere in the unit square, or on a line of the 12 x 12
# fine grid of a 3 x 3 x 4 hierarchy
_coord = st.one_of(st.floats(0.0, 1.0), st.integers(0, 12).map(lambda i: i / 12))
_segment = st.tuples(_coord, _coord, _coord, _coord).filter(
    lambda s: np.hypot(s[2] - s[0], s[3] - s[1]) > 0.05)


@given(st.lists(_segment, min_size=1, max_size=3))
@example([(0.0, 0.0, 5e-324, 1 / 12)])      # subnormal x extent
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_every_embedded_fracture_couples_to_the_matrix(segments):
    # each overlap adds CI * w_m w_f^T to block (0, k), with CI > 0 and
    # bilinear and hat weights that are >= 0 and sum to 1, so the block
    # sums to -sum CI; round-off may leave single entries just above 0
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 3, 3, 4, t=0)
    traces = [mf.intersect_efm(mf.Fracture(np.reshape(s, (2, 2)), 1e-3, 1e3,
                                           "efm", k), g)
              for k, s in enumerate(segments)]
    sys = mf.assemble_efm(g, mf.PermeabilityField.constant(g, 1.0), [], traces)
    for k in range(1, len(traces) + 1):
        assert sys.block(0, k).count_nonzero()
        assert sys.block(0, k).sum() < 0.0


def test_efm_fracture_load_scales_with_aperture():
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 3, 3, 4, t=0)
    out = []
    for ap in (1e-3, 2e-3):
        fr = mf.Fracture(np.array([[0.2, 0.4], [0.8, 0.6]]), ap, 1e4, "efm", 0)
        tr = mf.intersect_efm(fr, g)
        perm = mf.PermeabilityField.constant(g, 1.0)
        sys = mf.assemble_efm(g, perm, [], [tr], f=2.0, bc=0.0)
        out.append(sys.f[g.n_nodes:].sum())
    assert out[1] == pytest.approx(2 * out[0], rel=1e-12)
    # total 1D load = f * aperture * length
    L = np.hypot(0.6, 0.2)
    assert out[0] == pytest.approx(2.0 * 1e-3 * L, rel=1e-12)


def scalar_efm_operator(g, perm, traces, coupling_scale):
    """K of ``assemble_efm`` with one 6 x 6 transfer block per overlap
    (oracle: the per-overlap loop the array assembly replaced, with its
    scalar hat and bilinear weights).  CI squares |S| as the correctly
    rounded product, as the array expression does; the loop's NumPy
    scalar ``** 2`` went through libm pow instead."""
    off = np.cumsum([g.n_nodes] + [tr.n_nodes for tr in traces])
    rows, cols, vals = [], [], []
    for tr, o in zip(traces, off):
        ds = np.diff(tr.arclengths)
        seg = o + np.arange(len(ds))
        rows.append(np.column_stack([seg, seg, seg + 1, seg + 1]).ravel())
        cols.append(np.column_stack([seg, seg + 1, seg, seg + 1]).ravel())
        vals.append(np.outer(tr.effective_coeff / ds, [1.0, -1.0, -1.0, 1.0]).ravel())
        for cell, length, (x, y), s in zip(tr.cells.tolist(), tr.lengths.tolist(),
                                           tr.midpoints.tolist(), tr.mid_arcs.tolist()):
            ci = coupling_scale * perm.kappa_cells[cell] \
                * 2.0 * (length * length) / (g.hx * g.hy)
            k = int(np.searchsorted(tr.arclengths, s, side="right") - 1)
            k = min(max(k, 0), tr.n_nodes - 2)
            t0, t1 = tr.arclengths[k], tr.arclengths[k + 1]
            w1 = (s - t0) / (t1 - t0)
            xi = (x - (g.domain.x0 + cell % g.fine_nx * g.hx)) / g.hx
            eta = (y - (g.domain.y0 + cell // g.fine_nx * g.hy)) / g.hy
            w = np.array([(1 - xi) * (1 - eta), xi * (1 - eta), xi * eta,
                          (1 - xi) * eta, -(1.0 - w1), -w1])
            dofs = np.r_[g.cell_nodes(cell), o + k, o + k + 1]
            rows.append(np.repeat(dofs, 6))
            cols.append(np.tile(dofs, 6))
            vals.append(ci * np.outer(w, w).ravel())
    T = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(off[-1], off[-1])).tocsr()
    K = node_operator(g, perm.kappa_cells)
    K.resize(off[-1], off[-1])
    return (K + 0.5 * (T + T.T)).tocsr()


# two embedded fractures per case
_ORIENTATIONS = {
    "up_right": ([[0.15, 0.3], [0.85, 0.62]], [[0.1, 0.12], [0.4, 0.7], [0.9, 0.95]]),
    "down_left": ([[0.83, 0.71], [0.47, 0.52], [0.12, 0.09]], [[0.9, 0.4], [0.2, 0.05]]),
    "on_grid_line": ([[0.25, 0.5], [0.75, 0.5]], [[0.5, 0.9], [0.5, 0.1]]),
    "through_vertex": ([[0.25, 0.25], [0.75, 0.75]], [[0.0, 1.0], [1.0, 0.0]]),
}


@pytest.mark.parametrize("case", list(_ORIENTATIONS))
def test_efm_operator_matches_per_overlap_loop(case):
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 3, 3, 4, t=0)   # grid lines at k / 12
    perm = cell_permeability(g, lambda x, y: 1.0 + x + 2.0 * y)
    traces = [mf.intersect_efm(mf.Fracture(np.array(poly, float), 1e-3, kf, "efm", k), g)
              for k, (poly, kf) in enumerate(zip(_ORIENTATIONS[case], (5e4, 8e4)))]
    got = mf.assemble_efm(g, perm, [], traces, coupling_scale=0.7).K
    want = scalar_efm_operator(g, perm, traces, 0.7)
    for part in ("indptr", "indices", "data"):
        assert getattr(got, part).tobytes() == getattr(want, part).tobytes()


@pytest.mark.parametrize("case", ["bc_nan", "f_inf", "f_callable_nan", "efm_f_nan"])
def test_non_finite_data_is_named(case):
    # bad data, not a singular operator: solve_fine would blame the latter
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 3, 3, 4, t=0)
    perm = mf.PermeabilityField.constant(g, 1.0)
    with pytest.raises(ValueError, match="Dirichlet" if case == "bc_nan" else "load"):
        if case == "bc_nan":
            mf.assemble_dfm(g, perm, [], bc=mf.bilinear_bc(np.nan, 1.0))
        elif case == "f_inf":
            mf.assemble_dfm(g, perm, [], f=np.inf)
        elif case == "f_callable_nan":
            mf.assemble_dfm(g, perm, [], f=lambda x, y: np.nan * x)
        else:
            efm_system(g, [[0.15, 0.3], [0.85, 0.62]], 10.0, f=np.nan)
