"""Offline stage: partition of unity, snapshot spaces, spectral problem.

The kappa-tilde oracle hand-differentiates the four bilinear coarse hats
(2(1-t)^2 + 2t^2 + 2(1-s)^2 + 2s^2, coarse-local coordinates) so the
check is independent of the harmonic-extension code path.
"""

import dataclasses
import re

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.linalg import cho_solve_banded, cholesky_banded

import msfrac as mf
from msfrac.assembly import node_operator, q1_shape_tables
from msfrac import offline
from msfrac.offline import harmonic_extension

from conftest import (cell_permeability, dense_chi, mode_gram, operator_boxes,
                      operator_case)

GAUSS = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))


def const_system(coarse=3, refine=4, kappa=1.0, net=None, t=0):
    g = mf.build_hierarchy(mf.UNIT_SQUARE, coarse, coarse, refine, t=t)
    perm = mf.PermeabilityField.constant(g, kappa)
    traces = [mf.rasterize_dfm(f, g) for f in (net.dfm if net else [])]
    return g, mf.assemble_dfm(g, perm, traces, bc=mf.bilinear_bc(0, 1, 1, 0))


def rim_ids(g, nb):
    """Fine-node ids on the rim of a neighborhood's box."""
    return nb.node_ids[g.box_rim(nb.cells)]


def interior_ids(g, nb):
    """Fine-node ids strictly inside a neighborhood's box."""
    return nb.node_ids[~g.box_rim(nb.cells)]


def bilinear_hat(g, ci, cj, x, y):
    """Coarse Q1 hat at coarse node (ci, cj), evaluated analytically."""
    sx = np.clip(1.0 - np.abs(x / g.Hx - ci), 0.0, 1.0)
    sy = np.clip(1.0 - np.abs(y / g.Hy - cj), 0.0, 1.0)
    return sx * sy


def test_pou_constant_kappa_is_bilinear_hats():
    g, sys = const_system()
    chi = dense_chi(mf.compute_pou(g, sys))
    xy = g.node_coords
    for nb in g.neighborhoods:
        want = bilinear_hat(g, nb.ci, nb.cj, xy[:, 0], xy[:, 1])
        np.testing.assert_allclose(chi[nb.index], want, atol=1e-12)


def test_pou_sum_to_one_and_bounds_heterogeneous():
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 3, 3, 4, t=0)
    net = mf.fields.crossing_channels(g, seed=4, n=5)
    rng = np.random.default_rng(0)
    perm = mf.PermeabilityField(rng.uniform(0.1, 100.0, g.n_cells))
    traces = [mf.rasterize_dfm(f, g) for f in net.dfm]
    sys = mf.assemble_dfm(g, perm, traces)
    pou = mf.compute_pou(g, sys)
    chi = dense_chi(pou)
    total = chi.sum(axis=0)
    np.testing.assert_allclose(total, 1.0, atol=1e-12)
    assert chi.min() >= -1e-12
    assert chi.max() <= 1.0 + 1e-12
    # Kronecker property at coarse nodes
    for nb in g.neighborhoods:
        vals = chi[:, g.coarse_nodes[nb.index]]
        want = np.zeros(g.n_coarse_nodes)
        want[nb.index] = 1.0
        np.testing.assert_allclose(vals, want, atol=1e-12)
    assert (pou.kappa_tilde > 0).all()


def test_kappa_tilde_analytic_2x2():
    g, sys = const_system(coarse=2, refine=4)  # H = 0.5, 8x8 fine
    pou = mf.compute_pou(g, sys)
    H = 0.5
    want = np.empty(g.n_cells)
    for c in range(g.n_cells):
        i, j = c % g.fine_nx, c // g.fine_nx
        acc = 0.0
        for gt in GAUSS:
            for gs in GAUSS:
                x = (i + gs) * g.hx
                y = (j + gt) * g.hy
                s = (x % H) / H
                t = (y % H) / H
                acc += 2 * ((1 - s) ** 2 + s ** 2 + (1 - t) ** 2 + t ** 2)
        # kappa * Hx*Hy * mean of sum |grad chi|^2 (the 1/H^2 of the
        # hat gradients cancels the H^2 factor)
        want[c] = acc / 4.0
    np.testing.assert_allclose(pou.kappa_tilde, want, rtol=1e-12)


def test_edge_kappa_tilde_matches_per_edge_loop():
    # oracle: the per-edge loop the vectorized mean replaced.  Every
    # edge carries a weight, so boundary edges (one cell beside them)
    # are checked too; the cell field is recomputed from chi as
    # compute_pou computes it
    g, fine = operator_case("non_square")
    w = np.random.default_rng(4).uniform(1.0, 100.0, g.n_edges)
    pou = mf.compute_pou(g, dataclasses.replace(fine, edge_arrays=w))
    _, gx, gy, _ = q1_shape_tables(g.hx, g.hy)
    H2 = g.Hx * g.Hy
    grad2 = np.zeros(g.n_cells)
    for nb in g.neighborhoods:
        ch = pou.chi[nb.index][g.box_cell_nodes(nb.cells)]
        grad2[g.box_cells(nb.cells)] += np.mean((ch @ gx.T) ** 2 + (ch @ gy.T) ** 2, axis=1)
    assert (fine.perm.kappa_cells * H2 * grad2).tobytes() == pou.kappa_tilde.tobytes()
    want = []
    for e in range(g.n_edges):
        (ai, aj), (bi, bj) = (g.node_ij(x) for x in g.edge_nodes(e))
        beside = ([(ai, aj - 1), (ai, aj)] if aj == bj       # horizontal
                  else [(ai - 1, aj), (ai, aj)])             # vertical
        cells = [g.cell_id(i, j) for i, j in beside
                 if 0 <= i < g.fine_nx and 0 <= j < g.fine_ny]
        want.append(w[e] * H2 * float(np.mean(grad2[cells])))
    assert pou.edge_kappa_tilde.tobytes() == np.array(want).tobytes()


def test_harmonic_extension_interior_residual():
    g, sys = const_system()
    nb = g.neighborhoods[4]
    gb = np.random.default_rng(1).standard_normal(len(rim_ids(g, nb)))
    u = harmonic_extension(g, sys, nb.cells, gb)[0]
    full = np.zeros(g.n_nodes)
    full[nb.node_ids] = u.ravel()
    assert full[rim_ids(g, nb)].tobytes() == gb.tobytes()
    r = (sys.K @ full)[interior_ids(g, nb)]
    assert np.abs(r).max() < 1e-10 * max(1.0, np.abs(gb).max())


@pytest.mark.parametrize("dilated", [False, True])
@pytest.mark.parametrize("where", [(0, 0), (2, 0), (2, 2)])
def test_extension_keeps_the_box_perimeter(where, dilated):
    # a corner, an edge and an interior neighborhood, each on its own box
    # and on its oversampled box (clipped to the domain at the corner and
    # the edge)
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 4, 4, 3, t=2)
    net = mf.fields.crossing_channels(g, seed=4, n=4)
    perm = mf.PermeabilityField(np.random.default_rng(0).uniform(0.1, 100.0, g.n_cells))
    sys = mf.assemble_dfm(g, perm, [mf.rasterize_dfm(f, g) for f in net.dfm])
    nb = next(nb for nb in g.neighborhoods if (nb.ci, nb.cj) == where)
    box = nb.cells_plus if dilated else nb.cells
    perimeter = sorted(g.node_id(i, j) for j in range(box.j0, box.j1 + 1)
                       for i in range(box.i0, box.i1 + 1)
                       if i in (box.i0, box.i1) or j in (box.j0, box.j1))
    nodes, rim = g.box_nodes(box), g.box_rim(box)
    assert nodes[rim].tolist() == perimeter
    gb = np.random.default_rng(2).standard_normal((len(perimeter), 3))
    u = harmonic_extension(g, sys, box, gb)[0]
    assert u.shape == (len(nodes), 3)
    assert u[rim].tobytes() == gb.tobytes()
    full = np.zeros((g.n_nodes, 3))
    full[nodes] = u
    R = (sys.K @ full)[nodes[~rim]]
    assert np.abs(R).max() < 1e-10 * np.abs(sys.K.data).max() * np.abs(gb).max()


def global_slice_extension(g, A, box, gb):
    """``harmonic_extension`` on the whole-grid operator A (oracle: the
    version that sliced the box's interior rows out of the global
    operator).  The interior block is factored by LAPACK's band
    Cholesky, its upper band cut diagonal by diagonal from the dense
    block, as wide as the block's stored entries reach."""
    nodes, rim = g.box_nodes(box), g.box_rim(box)
    gb = np.asarray(gb, dtype=float).reshape(np.count_nonzero(rim), -1)
    Ai = A[nodes[~rim]]
    block = Ai[:, nodes[~rim]].tocoo()
    dense = block.toarray()
    width = int(np.max(block.col - block.row))
    band = np.array([np.pad(np.diagonal(dense, d), (d, 0))
                     for d in range(width, -1, -1)])
    u = np.empty((len(nodes), gb.shape[1]))
    u[rim] = gb
    u[~rim] = cho_solve_banded((cholesky_banded(band), False),
                               -np.asarray(Ai[:, nodes[rim]] @ gb))
    return u


@pytest.mark.parametrize("case", ["channels", "efm", "plain", "non_square"])
def test_box_extension_matches_global_slice(case):
    g, fine = operator_case(case)
    rng = np.random.default_rng(4)
    for box in operator_boxes(g)[1:]:
        gb = rng.uniform(-1.0, 1.0, (np.count_nonzero(g.box_rim(box)), 3))
        assert harmonic_extension(g, fine, box, gb)[0].tobytes() \
            == global_slice_extension(
                g, node_operator(g, fine.perm.kappa_cells, fine.edge_arrays), box, gb).tobytes()


@pytest.mark.parametrize("case", ["channels", "efm", "plain", "non_square"])
def test_banded_extension_matches_sparse_lu(case):
    # oracle: SuperLU on the same interior rows of the box stiffness
    g, fine = operator_case(case)
    rng = np.random.default_rng(5)
    for box in operator_boxes(g)[1:]:
        rim = g.box_rim(box)
        gb = rng.uniform(-1.0, 1.0, (np.count_nonzero(rim), 3))
        Ai = node_operator(g, fine.perm.kappa_cells, fine.edge_arrays, box=box)[~rim]
        want = np.empty((len(rim), 3))
        want[rim] = gb
        want[~rim] = spla.splu(Ai[:, ~rim].tocsc()).solve(-(Ai[:, rim] @ gb))
        got = harmonic_extension(g, fine, box, gb)[0]
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_indefinite_interior_block_names_its_box():
    # one strongly negative edge weight between two interior nodes makes
    # the interior block indefinite; the factor must refuse it by name
    g, fine = operator_case("channels")
    box = g.neighborhoods[6].cells
    w = fine.edge_arrays.copy()
    h, _ = g.box_edge_weights(w, box)
    h[1, 1] = -1e6
    bad = dataclasses.replace(fine, edge_arrays=w)
    rim = g.box_rim(box)
    Aii = node_operator(g, fine.perm.kappa_cells, w, box=box)[~rim][:, ~rim]
    assert np.linalg.eigvalsh(Aii.toarray())[0] < 0
    with pytest.raises(np.linalg.LinAlgError,
                       match=rf"box {re.escape(repr(box))}: .*not positive definite"):
        harmonic_extension(g, bad, box, np.zeros(np.count_nonzero(rim)))


# ------------------------------------------------------- snapshots


def test_full_snapshot_count_and_interior_average():
    # 2x2-fine-cell corner neighborhood: 8 boundary nodes, 1 interior;
    # with unit kappa all 8 stencil weights are equal, so the interior
    # value of each boundary-hat extension is exactly 1/8
    g, sys = const_system(coarse=2, refine=2)
    nb = g.neighborhoods[0]
    assert nb.cells.ncells == 4
    snap = mf.full_snapshots(g, sys, 0)
    assert snap.l_i == len(rim_ids(g, nb)) == 8
    interior_local = np.searchsorted(nb.node_ids, interior_ids(g, nb))
    np.testing.assert_allclose(snap.vectors[interior_local, :], 1.0 / 8.0,
                               atol=1e-13)


def test_full_snapshots_superpose_to_constant():
    g, sys = const_system(coarse=3, refine=3)
    for omega in (0, 4, g.n_coarse_nodes - 1):
        snap = mf.full_snapshots(g, sys, omega)
        total = snap.vectors.sum(axis=1)
        np.testing.assert_allclose(total, 1.0, atol=1e-11)


def test_full_snapshots_harmonic_in_omega():
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 3, 3, 4, t=0)
    net = mf.fields.mixed_short_long(g, seed=2, n_short=4)
    perm = mf.PermeabilityField.constant(g, 1.0)
    traces = [mf.rasterize_dfm(f, g) for f in net.dfm]
    sys = mf.assemble_dfm(g, perm, traces)
    nb = g.neighborhoods[4]
    snap = mf.full_snapshots(g, sys, 4)
    full = np.zeros((g.n_nodes, snap.l_i))
    full[nb.node_ids] = snap.vectors
    R = (sys.K @ full)[interior_ids(g, nb)]
    scale = np.abs(sys.K.data).max()
    assert np.abs(R).max() < 1e-10 * scale


def test_fracture_snapshot_matches_dense_local_solve():
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 3, 3, 6, t=0)
    f = mf.Fracture(np.array([[1 / 3, 0.5], [2 / 3, 0.5]]), 1e-3, 1e7, "dfm", 0)
    tr = mf.rasterize_dfm(f, g)
    perm = mf.PermeabilityField.constant(g, 1.0)
    sys = mf.assemble_dfm(g, perm, [tr])
    nb = g.neighborhoods[4]  # center node: fracture crosses its interior
    snap = mf.full_snapshots(g, sys, 4)
    A = sys.K.toarray()
    I, B = interior_ids(g, nb), rim_ids(g, nb)
    for col in (0, 3, snap.l_i - 1):
        gb = np.zeros(len(B))
        gb[col] = 1.0
        ui = np.linalg.solve(A[np.ix_(I, I)], -A[np.ix_(I, B)] @ gb)
        want = np.zeros(g.n_nodes)
        want[B] = gb
        want[I] = ui
        np.testing.assert_allclose(snap.vectors[:, col], want[nb.node_ids],
                                   atol=1e-11)
    # the near-fracture snapshot spreads along the fracture: 1D-dof values
    # on the path stay within a tight band
    path_local = np.searchsorted(nb.node_ids, tr.edge_node_path(g)[2:6])
    mid = snap.l_i // 4
    vals = snap.vectors[path_local, mid]
    assert np.ptp(vals) < 0.05 * (np.abs(vals).max() + 1e-30)


def test_randomized_snapshot_counts_and_determinism():
    g, sys = const_system(coarse=3, refine=4, t=1)
    a = mf.randomized_snapshots(g, sys, 4, k_nb=3, p_bf=2, seed=42)
    b = mf.randomized_snapshots(g, sys, 4, k_nb=3, p_bf=2, seed=42)
    assert a.l_i == 3 + 2 + 1
    assert a.vectors.tobytes() == b.vectors.tobytes()
    c = mf.randomized_snapshots(g, sys, 4, k_nb=3, p_bf=2, seed=43)
    assert a.vectors.tobytes() != c.vectors.tobytes()
    # last column is the constant-1 snapshot
    np.testing.assert_allclose(a.vectors[:, -1], 1.0, atol=1e-11)


def test_randomized_snapshots_harmonic_inside_omega():
    g, sys = const_system(coarse=3, refine=4, t=2)
    nb = g.neighborhoods[4]
    snap = mf.randomized_snapshots(g, sys, 4, k_nb=4, p_bf=2, seed=7)
    full = np.zeros((g.n_nodes, snap.l_i))
    full[nb.node_ids] = snap.vectors
    # omega interior nodes are interior to omega+ as well, so the
    # restricted columns stay harmonic there
    R = (sys.K @ full)[interior_ids(g, nb)]
    assert np.abs(R).max() < 1e-9 * np.abs(snap.vectors).max() * np.abs(sys.K.data).max()


# ------------------------------------------------------- eigenproblem


def test_eigvals_sorted_nonnegative_and_s_orthogonal():
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 3, 3, 4, t=0)
    net = mf.fields.crossing_channels(g, seed=9, n=5)
    perm = mf.PermeabilityField.constant(g, 1.0)
    traces = [mf.rasterize_dfm(f, g) for f in net.dfm]
    sys = mf.assemble_dfm(g, perm, traces)
    pou = mf.compute_pou(g, sys)
    for omega in range(g.n_coarse_nodes):
        snap = mf.full_snapshots(g, sys, omega)
        spc = mf.offline_eigendecomposition(snap, pou)
        assert (np.diff(spc.eigvals) >= -1e-9 * max(1, spc.eigvals[-1])).all()
        assert spc.eigvals[0] >= -1e-10
        np.testing.assert_allclose(mode_gram(pou, omega, spc), np.eye(snap.l_i),
                                   atol=1e-12)


def test_first_mode_reproduces_constant():
    g, sys = const_system(coarse=3, refine=4)
    pou = mf.compute_pou(g, sys)
    snap = mf.full_snapshots(g, sys, 4)
    spc = mf.offline_eigendecomposition(snap, pou)
    assert abs(spc.eigvals[0]) < 1e-10
    psi1 = spc.basis_full[:, 0]
    np.testing.assert_allclose(psi1, 1.0, atol=1e-6)


def test_single_snapshot_rayleigh_quotient():
    g, sys = const_system(coarse=3, refine=4)
    pou = mf.compute_pou(g, sys)
    snap = mf.full_snapshots(g, sys, 4)
    one = dataclasses.replace(snap, values=np.eye(snap.l_i)[:, 3:4])
    spc = mf.offline_eigendecomposition(one, pou)
    assert spc.eigvals.shape == (1,)
    nb = g.neighborhoods[4]
    v = one.vectors[:, 0]
    A_off = v @ (node_operator(g, sys.perm.kappa_cells, sys.edge_arrays,
                               kind="stiffness", box=nb.cells) @ v)
    S_off = v @ (node_operator(g, pou.kappa_tilde, pou.edge_kappa_tilde,
                               kind="mass", box=nb.cells) @ v)
    assert spc.eigvals[0] == pytest.approx(A_off / S_off, rel=1e-12)
    # A_off is the omega-restricted energy of the snapshot: check
    # against a brute-force dense assembly over the patch cells only
    kappa_local = sys.perm.kappa_cells.copy()
    mask = np.ones(g.n_cells, bool)
    mask[g.box_cells(nb.cells)] = False
    kappa_local[mask] = 0.0
    A_cells = node_operator(g, kappa_local, sys.edge_arrays)
    full = np.zeros(g.n_nodes)
    full[nb.node_ids] = one.vectors[:, 0]
    assert A_off == pytest.approx(float(full @ (A_cells @ full)), rel=1e-11)


def _patch_spectrum(polyline, kappa_f):
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 10, 10, 10, t=0)
    f = mf.Fracture(np.array(polyline), 1e-3, kappa_f, "dfm", 0)
    perm = mf.PermeabilityField.constant(g, 1.0)
    sys = mf.assemble_dfm(g, perm, [mf.rasterize_dfm(f, g)])
    pou = mf.compute_pou(g, sys)
    nb = next(n for n in g.neighborhoods if n.ci == 5 and n.cj == 5)
    assert nb.cells.ncells == 400  # 20x20 fine-cell patch
    snap = mf.full_snapshots(g, sys, nb.index)
    return mf.offline_eigendecomposition(snap, pou).eigvals


def test_fracture_gap_in_local_spectrum():
    # a long contrast-1e4 fracture that sweeps through the patch twice
    # (exits right of omega and folds back) leaves two disjoint strands
    # inside omega: exactly one extra S-dominant direction beyond the
    # constant, hence one additional small eigenvalue below the bulk
    lam = _patch_spectrum([[0.05, 0.47], [0.68, 0.47], [0.68, 0.53],
                           [0.05, 0.53]], kappa_f=1e4)
    assert abs(lam[0]) < 1e-9
    assert lam[1] == pytest.approx(1.3327, rel=1e-3)   # frozen
    gap = lam[2] / lam[1]
    assert gap > 10.0
    assert gap == pytest.approx(87.46, rel=1e-3)       # frozen
    ratios = lam[3:7] / lam[2:6]
    assert ratios.max() < 10.0                          # exactly one gap


def test_single_strand_merges_with_constant():
    # one straight crossing shares its S-dominant direction with the
    # constant snapshot, so no extra small eigenvalue splits off no
    # matter the contrast
    lam = _patch_spectrum([[0.05, 0.53], [0.95, 0.53]], kappa_f=1e7)
    assert lam[1] > 0.1 * lam[2]


def test_spectral_containment_full_vs_randomized():
    g, sys = const_system(coarse=3, refine=4, t=1)
    pou = mf.compute_pou(g, sys)
    full = mf.offline_eigendecomposition(mf.full_snapshots(g, sys, 4), pou)
    rand = mf.offline_eigendecomposition(
        mf.randomized_snapshots(g, sys, 4, k_nb=4, p_bf=2, seed=5), pou)
    k = min(len(full.eigvals), len(rand.eigvals))
    scale = abs(rand.eigvals[:k]).max() + 1e-30
    assert (full.eigvals[:k] <= rand.eigvals[:k] + 1e-9 * scale).all()


def test_regularization_flag_on_dependent_snapshots():
    g, sys = const_system(coarse=3, refine=4)
    pou = mf.compute_pou(g, sys)
    snap = mf.full_snapshots(g, sys, 4)
    eye = np.eye(snap.l_i)
    dup = dataclasses.replace(snap, values=np.column_stack([eye[:, :4], eye[:, 3]]))
    spc = mf.offline_eigendecomposition(dup, pou)
    assert spc.regularized
    assert np.isfinite(spc.eigvals).all()


def _pencil(snap, sys, pou):
    """The snapshot pencil (A_off, S_off) of one neighborhood, as
    ``offline_eigendecomposition`` forms it."""
    g = pou.grid
    box = g.neighborhoods[snap.omega_id].cells
    V = snap.vectors
    A = V.T @ (node_operator(g, sys.perm.kappa_cells, sys.edge_arrays,
                             kind="stiffness", box=box) @ V)
    S = V.T @ (node_operator(g, pou.kappa_tilde, pou.edge_kappa_tilde,
                             kind="mass", box=box) @ V)
    return 0.5 * (A + A.T), 0.5 * (S + S.T)


@pytest.mark.parametrize("case", ["full_dfm", "randomized", "efm"])
def test_eigenvalues_match_generalized_eigh(case):
    import scipy.linalg
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 4, 4, 5, t=1)
    perm = mf.PermeabilityField.constant(g, 1.0)
    if case == "efm":
        fr = mf.Fracture(np.array([[0.2, 0.55], [0.8, 0.52]]), 1e-3, 50.0, "efm", 0)
        sys = mf.assemble_efm(g, perm, [], [mf.intersect_efm(fr, g)])
    else:
        net = mf.fields.crossing_channels(g, seed=3, n=5)
        sys = mf.assemble_dfm(g, perm, [mf.rasterize_dfm(f, g) for f in net.dfm])
    pou = mf.compute_pou(g, sys)
    for omega in (6, 12):
        if case == "randomized":
            snap = mf.randomized_snapshots(g, sys, omega, k_nb=5, p_bf=3, seed=2)
        else:
            snap = mf.full_snapshots(g, sys, omega)
        spc = mf.offline_eigendecomposition(snap, pou)
        assert not spc.regularized
        want = scipy.linalg.eigh(*_pencil(snap, sys, pou), eigvals_only=True)
        big = want > 1e-8 * want.max()
        assert big.sum() >= snap.l_i - 1
        np.testing.assert_allclose(spc.eigvals[big], want[big], rtol=1e-10)


def test_eigensolve_calls_no_scipy_dense_eigensolver(monkeypatch):
    import scipy.linalg

    def banned(*args, **kwargs):
        raise AssertionError("scipy dense eigensolver or Cholesky called")

    g, sys = const_system(coarse=3, refine=4, t=1)
    pou = mf.compute_pou(g, sys)
    snap = mf.randomized_snapshots(g, sys, 4, k_nb=4, p_bf=2, seed=5)
    for name in ("eigh", "eigvalsh", "cholesky"):
        monkeypatch.setattr(scipy.linalg, name, banned)
    spc = mf.offline_eigendecomposition(snap, pou)
    assert spc.eigvals.shape == (snap.l_i,)
    assert spc.basis_full.shape == (len(g.neighborhoods[4].node_ids), snap.l_i)


def test_kept_modes_lead_the_full_basis():
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 3, 3, 4)
    g, sys = const_system(net=mf.fields.crossing_channels(g, seed=9, n=5))
    pou = mf.compute_pou(g, sys)
    snap = mf.full_snapshots(g, sys, 4)
    full = mf.offline_eigendecomposition(snap, pou)
    for n in (1, 3, snap.l_i + 2):
        kept = mf.offline_eigendecomposition(snap, pou, n_modes=n)
        k = min(n, snap.l_i)
        assert kept.eigvals.tobytes() == full.eigvals.tobytes()
        assert kept.basis_full.shape == (len(g.neighborhoods[4].node_ids), k)
        np.testing.assert_allclose(kept.basis_full, full.basis_full[:, :k],
                                   rtol=0, atol=1e-12)
    with pytest.raises(ValueError, match="n_modes"):
        mf.offline_eigendecomposition(snap, pou, n_modes=0)


def test_unfactorable_mass_names_its_neighborhood():
    g, sys = const_system(coarse=3, refine=4)
    pou = mf.compute_pou(g, sys)
    snap = mf.full_snapshots(g, sys, 4)
    zero = dataclasses.replace(snap, values=np.zeros((snap.l_i, 3)))
    with pytest.raises(np.linalg.LinAlgError, match="neighborhood 4"):
        mf.offline_eigendecomposition(zero, pou)


# ------------------------------------------------------- condensation


def coarse_line_system(refine, t=1):
    """4 x 4 coarse cells with conforming fractures along the coarse lines
    x = 1/4 and y = 1/2, which lie on neighborhood rims and crosses, and
    one staircase across the cells."""
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 4, 4, refine, t=t)
    perm = cell_permeability(g, lambda x, y: 1.0 + x + 2.0 * y)
    fractures = [mf.Fracture(np.array(poly), 1e-3, kf, "dfm", k)
                 for k, (poly, kf) in enumerate([([[0.25, 0.0], [0.25, 1.0]], 1e4),
                                                  ([[0.0, 0.5], [0.75, 0.5]], 1e3),
                                                  ([[0.1, 0.15], [0.9, 0.8]], 1e2)])]
    sys = mf.assemble_dfm(g, perm, [mf.rasterize_dfm(f, g) for f in fractures],
                          bc=mf.bilinear_bc(0, 1, 1, 0))
    h, v = g.box_edge_weights(sys.edge_arrays, mf.CellBox(0, 0, g.fine_nx, g.fine_ny))
    assert h[2 * refine, :3 * refine].all() and v[:, refine].all()
    return g, sys


PENCIL_CASES = {"lines_refine2": (2, "full"), "lines_refine3": (3, "full"),
                "lines_randomized": (3, "randomized"), "non_square": (None, "full")}


@pytest.mark.parametrize("case", sorted(PENCIL_CASES))
def test_condensed_pencil_matches_box_operators(case):
    # the pencil assembled on the coarse skeleton from the cells' blocks
    # and the skeleton's fracture edges is V^T A V and V^T S V with the
    # neighborhood's own box operators, for 1-, 2- and 4-cell
    # neighborhoods; refine 2 leaves each coarse cell one interior node
    # (refine 1 is no grid: build_hierarchy refuses it)
    refine, mode = PENCIL_CASES[case]
    g, sys = operator_case("non_square") if refine is None else coarse_line_system(refine)
    pou = mf.compute_pou(g, sys)
    cells = set()
    for nb in g.neighborhoods:
        snap = (mf.randomized_snapshots(g, sys, nb.index, k_nb=3, p_bf=2, seed=1)
                if mode == "randomized" else mf.full_snapshots(g, sys, nb.index))
        cells.add(nb.cells.ncells // g.refine ** 2)
        V = snap.vectors
        A = node_operator(g, sys.perm.kappa_cells, sys.edge_arrays, box=nb.cells)
        S = node_operator(g, pou.kappa_tilde, pou.edge_kappa_tilde, "mass", box=nb.cells)
        for got, want in zip(offline._pencil(snap, pou), (V.T @ (A @ V), V.T @ (S @ V))):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), nb.index
    assert cells == {1, 2, 4}


@pytest.mark.parametrize("refine", [2, 3])
def test_condensed_snapshots_are_harmonic_and_sum_to_one(refine):
    # full snapshots solved on the skeleton and lifted cell by cell are
    # the neighborhood's harmonic extensions, fractures on the cross too
    g, sys = coarse_line_system(refine)
    scale = np.abs(sys.K.data).max()
    for nb in g.neighborhoods:
        snap = mf.full_snapshots(g, sys, nb.index)
        V = snap.vectors
        assert np.array_equal(V[g.box_rim(nb.cells)], np.eye(snap.l_i))
        full = np.zeros((g.n_nodes, snap.l_i))
        full[nb.node_ids] = V
        assert np.abs((sys.K @ full)[interior_ids(g, nb)]).max() < 1e-10 * scale
        np.testing.assert_allclose(V.sum(axis=1), 1.0, atol=1e-11)


def rim_case(case):
    """(grid, fine system) with conforming fractures on the coarse lines
    ("dfm") or one embedded fracture ("efm")."""
    return coarse_line_system(3) if case == "dfm" else operator_case("efm")


@pytest.mark.parametrize("case", ["dfm", "efm"])
def test_rim_pencil_is_the_skeleton_pencil_condensed(case):
    # the rim stiffness and mass are [I; X]^T (skeleton form) [I; X] for
    # the cross extension X, and X solves the skeleton rows inside
    g, sys = rim_case(case)
    pou = mf.compute_pou(g, sys)
    cells = offline.CellBlocks(g, sys)
    for nb in g.neighborhoods:
        sk = offline.Skeleton(g, sys, nb.cells, cells)
        n = sk.layout.n_rim
        W = np.vstack([np.eye(n), sk.cross])
        A = sk._assemble(cells.stiffness, sys.edge_arrays, "stiffness")
        M = sk._assemble(cells.mass(pou), pou.edge_kappa_tilde, "mass")
        assert np.abs((A @ W)[n:]).max(initial=0.0) <= 1e-12 * np.abs(A).max()
        for got, skeleton in ((sk.stiffness, A), (sk.mass(pou), M)):
            want = W.T @ skeleton @ W
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), nb.index


@pytest.mark.parametrize("case", ["dfm", "efm"])
def test_full_snapshots_match_the_generic_identity_path(case):
    # full snapshots are the rim identity (values None), solved without
    # products; an explicit identity taken through V^T (.) V gives the
    # same eigenpairs
    g, sys = rim_case(case)
    pou = mf.compute_pou(g, sys)
    snaps = [mf.full_snapshots(g, sys, nb.index) for nb in g.neighborhoods]
    fast = [mf.offline_eigendecomposition(snap, pou) for snap in snaps]
    for snap, got in zip(snaps, fast):
        assert snap.values is None and snap.l_i == snap.skeleton.layout.n_rim
        want = mf.offline_eigendecomposition(
            dataclasses.replace(snap, values=np.eye(snap.l_i)), pou)
        np.testing.assert_allclose(got.eigvals, want.eigvals, rtol=1e-10,
                                   atol=1e-10 * want.eigvals[-1])
        scale = np.abs(want.basis_full).max()
        assert np.abs(got.basis_full - want.basis_full).max() <= 1e-10 * scale


def test_randomized_lines_inside_are_the_cross_extension():
    # a randomized snapshot is harmonic on its whole oversampled box, so
    # its values on the coarse lines inside are X times its rim values
    g, sys = coarse_line_system(3)
    for nb in g.neighborhoods:
        snap = mf.randomized_snapshots(g, sys, nb.index, k_nb=3, p_bf=2, seed=4)
        box, sk = nb.cells_plus, snap.skeleton
        G = np.random.default_rng([4, nb.index]).uniform(
            -1.0, 1.0, size=(np.count_nonzero(g.box_rim(box)), 5))
        inside = nb.node_ids[sk.layout.nodes[sk.layout.n_rim:]]
        want = harmonic_extension(g, sys, box, G)[0][
            np.searchsorted(g.box_nodes(box), inside)]
        want = np.column_stack([want, np.ones(len(want))])
        got = sk.cross @ snap.values
        assert np.abs(got - want).max(initial=0.0) <= 1e-10 * np.abs(snap.values).max(), nb.index


def with_edge(sys, box, row, col, weight):
    """sys with the horizontal edge (row, col) of box's edge view set to
    weight."""
    w = sys.edge_arrays.copy()
    h, _ = sys.grid.box_edge_weights(w, box)
    h[row, col] = weight
    return dataclasses.replace(sys, edge_arrays=w)


def test_indefinite_cell_interior_names_its_cell():
    # an edge between two interior nodes of coarse cell (1, 1)
    g, sys = coarse_line_system(3)
    cell = mf.CellBox(3, 3, 6, 6)
    bad = with_edge(sys, cell, 1, 1, -1e6)
    match = rf"box {re.escape(repr(cell))}: .*not positive definite"
    with pytest.raises(np.linalg.LinAlgError, match=match):
        mf.compute_pou(g, bad)
    nb = next(nb for nb in g.neighborhoods if (nb.ci, nb.cj) == (1, 1))
    with pytest.raises(np.linalg.LinAlgError, match=match):
        mf.full_snapshots(g, bad, nb.index)


def test_indefinite_cross_names_its_neighborhood():
    # an edge between two nodes on the coarse line inside a neighborhood:
    # every cell interior stays definite, the cross block does not
    g, sys = coarse_line_system(3)
    nb = next(nb for nb in g.neighborhoods if (nb.ci, nb.cj) == (2, 2))
    bad = with_edge(sys, nb.cells, g.refine, 1, -1e6)
    mf.compute_pou(g, bad)
    with pytest.raises(np.linalg.LinAlgError,
                       match=rf"box {re.escape(repr(nb.cells))}: .*not positive definite"):
        mf.full_snapshots(g, bad, nb.index)
