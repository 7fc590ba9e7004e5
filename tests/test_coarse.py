"""Multiscale space assembly, the coarse solves, and their oracles."""

import dataclasses

import numpy as np
import pytest

import msfrac as mf
from msfrac.coarse import MultiscaleSpace
from msfrac.driver import m_off_schedule

BC = mf.bilinear_bc(0.2, 1.0, -0.5, 0.3)


def dfm_setup(coarse=3, refine=4, field=None, seed=1, kappa=None, bc=BC, f=None):
    g = mf.build_hierarchy(mf.UNIT_SQUARE, coarse, coarse, refine, t=0)
    net = field(g, seed=seed) if field else None
    if kappa is None:
        perm = mf.PermeabilityField.constant(g, 1.0, net)
    elif callable(kappa):
        perm = mf.PermeabilityField.from_callable(g, kappa, net)
    else:
        perm = mf.PermeabilityField(kappa, net)
    traces = [mf.rasterize_dfm(fr, g) for fr in (net.dfm if net else [])]
    sys = mf.assemble_dfm(g, perm, traces, bc=bc, f=f)
    return g, sys


def offline_spaces(g, sys):
    """Full eigendecomposition (all modes kept) for every coarse node."""
    pou = mf.compute_pou(g, sys)
    spaces = []
    for nb in g.neighborhoods:
        snap = mf.full_snapshots(g, sys, nb.index)
        spaces.append(mf.offline_eigendecomposition(snap, sys, pou,
                                                    M_off=snap.l_i))
    return pou, spaces


def space_at(g, pou, spaces, M=None, full=False):
    if full:
        sel = spaces
    else:
        sched = m_off_schedule(g, M)
        sel = [sp.with_m_off(sched[sp.omega_id]) for sp in spaces]
    return mf.build_space(pou, sel)


def energy(sys, e):
    return float(np.sqrt(e @ (sys.A @ e)))


def test_constant_kappa_single_mode_is_coarse_fem():
    g, sys = dfm_setup()
    pou, spaces = offline_spaces(g, sys)
    ms = space_at(g, pou, spaces, M=1)
    assert ms.N_c == g.n_coarse_nodes
    sol = mf.solve_coarse_dfm(ms, sys)
    fine = mf.solve_fine(sys)
    # for constant kappa and bilinear data both scales reproduce the
    # interpolant of the data exactly
    np.testing.assert_allclose(sol.u_ms_fine, fine.u, atol=1e-10)
    # and the interior basis functions are the bilinear coarse hats
    nb = next(n for n in g.neighborhoods if n.ci == 1 and n.cj == 1)
    col = np.flatnonzero(ms.col_node == nb.index)[0]
    psi = ms.R0T[:, col].toarray().ravel()
    xy = g.node_coords
    sx = np.clip(1.0 - np.abs(xy[:, 0] / g.Hx - nb.ci), 0.0, 1.0)
    sy = np.clip(1.0 - np.abs(xy[:, 1] / g.Hy - nb.cj), 0.0, 1.0)
    np.testing.assert_allclose(psi, sx * sy, atol=1e-12)


def test_first_modes_sum_to_one_inside():
    g, sys = dfm_setup(field=mf.fields.crossing_channels, seed=3)
    pou, spaces = offline_spaces(g, sys)
    ms = space_at(g, pou, spaces, M=1)
    total = np.asarray(ms.R0T.sum(axis=1)).ravel()
    inner = ~g.boundary_node_mask()
    np.testing.assert_allclose(total[inner], 1.0, atol=1e-9)
    np.testing.assert_allclose(total[~inner], 0.0, atol=0)


def test_basis_support_and_independence():
    g, sys = dfm_setup(field=mf.fields.mixed_short_long, seed=5)
    pou, spaces = offline_spaces(g, sys)
    ms = space_at(g, pou, spaces, M=2)
    bmask = g.boundary_node_mask()
    for c in range(ms.N_c):
        nb = g.neighborhoods[ms.col_node[c]]
        col = ms.R0T[:, c].toarray().ravel()
        outside = np.ones(g.n_nodes, bool)
        outside[nb.node_ids] = False
        assert np.all(col[outside] == 0.0)
        assert np.all(col[bmask] == 0.0)
    assert np.linalg.matrix_rank(ms.R0T.toarray()) == ms.N_c


def test_coarse_matrix_matches_dense_product():
    rng = np.random.default_rng(8)
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 2, 2, 4, t=0)
    f = mf.Fracture(np.array([[0.25, 0.5], [0.75, 0.5]]), 1e-3, 1e5, "dfm", 0)
    net = mf.FractureNetwork([f])
    perm = mf.PermeabilityField(rng.uniform(0.5, 50.0, g.n_cells), net)
    sys = mf.assemble_dfm(g, perm, [mf.rasterize_dfm(f, g)], bc=BC)
    pou, spaces = offline_spaces(g, sys)
    ms = space_at(g, pou, spaces, full=True)
    A0 = (ms.R0T.T @ (sys.A @ ms.R0T)).toarray()
    R = ms.R0T.toarray()
    want = R.T @ sys.A.toarray() @ R
    scale = np.abs(want).max()
    np.testing.assert_allclose(A0, want, atol=1e-12 * scale)


def test_full_snapshot_space_recovers_fine_solution():
    g, sys = dfm_setup(field=mf.fields.crossing_channels, seed=2,
                       kappa=lambda x, y: 1.0 + 0.5 * np.sin(2 * np.pi * x) ** 2)
    pou, spaces = offline_spaces(g, sys)
    ms = space_at(g, pou, spaces, full=True)
    sol = mf.solve_coarse_dfm(ms, sys)
    fine = mf.solve_fine(sys)
    e = fine.u - sol.u_ms_fine
    assert energy(sys, e) <= 1e-9 * energy(sys, fine.u)


def test_enrichment_is_nested_and_monotone():
    g, sys = dfm_setup(field=mf.fields.crossing_channels, seed=7)
    pou, spaces = offline_spaces(g, sys)
    fine = mf.solve_fine(sys)
    ref = energy(sys, fine.u)
    errs, prev_ms = [], None
    for M in (1, 2, 3, 4):
        ms = space_at(g, pou, spaces, M=M)
        sol = mf.solve_coarse_dfm(ms, sys)
        errs.append(energy(sys, fine.u - sol.u_ms_fine) / ref)
        if prev_ms is not None:
            # per-node column blocks of the smaller space are the exact
            # leading columns of the larger one
            for node in range(g.n_coarse_nodes):
                small = prev_ms.R0T[:, prev_ms.col_node == node].toarray()
                big = ms.R0T[:, ms.col_node == node].toarray()
                np.testing.assert_array_equal(small, big[:, :small.shape[1]])
        prev_ms = ms
    assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))


def test_galerkin_orthogonality():
    g, sys = dfm_setup(field=mf.fields.mixed_short_long, seed=4, f=1.0)
    pou, spaces = offline_spaces(g, sys)
    ms = space_at(g, pou, spaces, M=2)
    sol = mf.solve_coarse_dfm(ms, sys)
    r = ms.R0T.T @ (sys.F - sys.A @ sol.u_ms_fine)
    scale = max(1.0, float(np.abs(ms.R0T.T @ sys.F).max()))
    assert np.abs(r).max() <= 1e-9 * scale


def test_prolong_identities():
    g, sys = dfm_setup()
    pou, spaces = offline_spaces(g, sys)
    ms = space_at(g, pou, spaces, M=2)
    lift = pou.boundary_lift(sys.bc)
    np.testing.assert_array_equal(mf.prolong(ms, np.zeros(ms.N_c), lift), lift)
    k = ms.N_c // 2
    ek = np.zeros(ms.N_c)
    ek[k] = 1.0
    np.testing.assert_array_equal(mf.prolong(ms, ek),
                                  ms.R0T[:, k].toarray().ravel())
    rng = np.random.default_rng(0)
    U0 = rng.standard_normal(ms.N_c)
    np.testing.assert_allclose(mf.prolong(ms, U0), ms.R0T.toarray() @ U0,
                               rtol=0, atol=1e-12)
    with pytest.raises(ValueError, match="coefficients"):
        mf.prolong(ms, np.zeros(ms.N_c + 1))


def test_duplicate_column_flags_rank_deficiency():
    g, sys = dfm_setup(field=mf.fields.crossing_channels, seed=7)
    pou, spaces = offline_spaces(g, sys)
    ms = space_at(g, pou, spaces, M=2)
    sol = mf.solve_coarse_dfm(ms, sys)
    import scipy.sparse as sparse
    dup = MultiscaleSpace(pou=ms.pou, spaces=ms.spaces,
                          R0T=sparse.hstack([ms.R0T, ms.R0T[:, :1]]).tocsr(),
                          col_node=np.append(ms.col_node, ms.col_node[0]))
    sol2 = mf.solve_coarse_dfm(dup, sys)
    assert sol2.info["rank_deficient"]
    # same span, same fine-grid Galerkin solution
    np.testing.assert_allclose(sol2.u_ms_fine, sol.u_ms_fine, atol=1e-8)


def efm_setup(coupling_scale, coarse=4, refine=5):
    g = mf.build_hierarchy(mf.UNIT_SQUARE, coarse, coarse, refine, t=0)
    f = mf.Fracture(np.array([[0.2, 0.55], [0.8, 0.52]]), 1e-3, 50.0, "efm", 0)
    net = mf.FractureNetwork([f])
    perm = mf.PermeabilityField.from_callable(
        g, lambda x, y: 1.0 + 0.3 * np.cos(np.pi * x) * np.sin(np.pi * y), net)
    tr = mf.intersect_efm(f, g)
    sys = mf.assemble_efm(g, perm, [], [tr], bc=BC,
                          coupling_scale=coupling_scale)
    return g, sys


def test_efm_zero_coupling_reduces_to_dfm():
    g, sys = efm_setup(coupling_scale=0.0)
    pou, spaces = offline_spaces(g, sys)
    ms = space_at(g, pou, spaces, M=2)
    sol = mf.solve_coarse_efm(ms, sys)
    assert sol.info.get("decoupled")

    perm0 = mf.PermeabilityField(sys.perm.kappa_cells, None)
    sys0 = mf.assemble_dfm(g, perm0, [], bc=BC)
    sol0 = mf.solve_coarse_dfm(ms, sys0)
    np.testing.assert_allclose(sol.U0, sol0.U0, atol=1e-11)
    np.testing.assert_allclose(sol.u_ms_fine, sol0.u_ms_fine, atol=1e-11)
    assert len(sol.efm_fracture_dofs) == 1


def test_efm_block_solve_matches_dense_oracle():
    g, sys = efm_setup(coupling_scale=1.0, coarse=3, refine=4)
    pou, spaces = offline_spaces(g, sys)
    ms = space_at(g, pou, spaces, M=2)
    sol = mf.solve_coarse_efm(ms, sys)

    R = ms.R0T.toarray()
    lift = pou.boundary_lift(sys.bc)
    A0 = R.T @ sys.A_m.toarray() @ R
    C = R.T @ sys.B_mf[0].toarray()
    B = sys.B_blocks[0].toarray()
    M = np.block([[A0, C], [C.T, B]])
    b = np.concatenate([R.T @ (sys.F - sys.A_m @ lift),
                        sys.F_frac[0] - sys.B_mf[0].T @ lift])
    x = np.linalg.solve(M, b)
    got = np.concatenate([sol.U0, sol.efm_fracture_dofs[0]])
    np.testing.assert_allclose(got, x, atol=1e-11 * max(1, np.abs(x).max()))


def test_dfm_solver_rejects_efm_system():
    g, sys = efm_setup(coupling_scale=1.0)
    pou, spaces = offline_spaces(g, sys)
    ms = space_at(g, pou, spaces, M=1)
    with pytest.raises(ValueError, match="monolithic"):
        mf.solve_coarse_dfm(ms, sys)
