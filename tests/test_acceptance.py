"""Acceptance gate: end-to-end accuracy, efficiency and invariant checks.

Every test here states its tolerance inline; the values are bands around
the known behavior of the method on generated fracture fields, not
fitted constants.  Grids follow the reference setup (10x10 coarse cells,
10x10 fine cells each) unless a criterion is cheaper to check small.
"""

import time
import warnings

import numpy as np
import pytest
import scipy.sparse as sparse

import msfrac as mf
from msfrac.driver import m_off_schedule

from conftest import cell_permeability, dense_chi, mode_gram, neighborhood_spaces

BC = mf.bilinear_bc(0.0, 1.0, 1.0, 0.0)


def build_system(g, net, kappa=None, bc=BC):
    if kappa is None:
        perm = mf.PermeabilityField.constant(g, 1.0)
    elif callable(kappa):
        perm = cell_permeability(g, kappa)
    else:
        perm = mf.PermeabilityField(kappa)
    traces = [mf.rasterize_dfm(fr, g) for fr in (net.dfm if net else [])]
    return mf.assemble_dfm(g, perm, traces, bc=bc)


def full_pipeline(g, sys):
    pou = mf.compute_pou(g, sys)
    return pou, neighborhood_spaces(sys, pou)


def solve_at(g, sys, pou, spaces, M):
    ms = mf.build_space(pou, spaces, m_off_schedule(g, M))
    return ms, mf.solve_coarse(ms, sys)


def h1_rel(sys, u_ref, u):
    e = u_ref - u
    return float(np.sqrt((e @ (sys.K @ e)) / (u_ref @ (sys.K @ u_ref))))


@pytest.fixture(scope="module")
def channels():
    """The edge-crossing-channel field on the reference grid."""
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 10, 10, 10, t=2)
    sys = build_system(g, mf.fields.crossing_channels(g, seed=1))
    u_fine = mf.solve_fine(sys).u
    pou, spaces = full_pipeline(g, sys)
    return g, sys, u_fine, pou, spaces


def test_full_snapshot_space_recovers_snapshot_solution():
    # criterion 1: with every snapshot kept, the offline solve and a raw
    # snapshot-basis Galerkin solve are the same function, and both
    # carry the same fine-scale error
    start = time.monotonic()
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 4, 4, 4, t=0)
    polys = [[[0.1, 0.3], [0.6, 0.35]],
             [[0.4, 0.7], [0.9, 0.6]],
             [[0.5, 0.15], [0.55, 0.85]]]
    net = mf.FractureNetwork([mf.Fracture(np.array(p), 1e-3, 1e4, "dfm", k)
                              for k, p in enumerate(polys)])
    sys = build_system(g, net)
    u_fine = mf.solve_fine(sys).u
    pou, spaces = full_pipeline(g, sys)
    ms = mf.build_space(pou, spaces, [sp.l_i for sp in spaces])
    sol = mf.solve_coarse(ms, sys)

    # independent oracle: Galerkin directly on the chi-weighted snapshot
    # vectors, no eigendecomposition involved
    bmask = np.zeros(g.n_nodes, dtype=bool)
    bmask[sys.dirichlet_nodes] = True
    chi = dense_chi(pou)
    cols = []
    for nb in g.neighborhoods:
        snap = mf.full_snapshots(g, sys, nb.index)
        B = chi[nb.index][nb.node_ids][:, None] * snap.vectors
        B[bmask[nb.node_ids]] = 0.0
        full = np.zeros((g.n_nodes, B.shape[1]))
        full[nb.node_ids] = B
        cols.append(sparse.csr_matrix(full))
    R = sparse.hstack(cols).tocsr()
    assert R.shape[1] == ms.N_c
    lift = mf.boundary_lift(pou, sys)
    A0 = (R.T @ (sys.K @ R)).toarray()
    b0 = R.T @ (sys.f - sys.K @ lift)
    U, *_ = np.linalg.lstsq(A0, b0, rcond=1e-12)
    u_snap = lift + R @ U

    assert np.sqrt(((u_snap - sol.u_ms_fine) @ (sys.K @ (u_snap - sol.u_ms_fine)))
                   / (u_fine @ (sys.K @ u_fine))) <= 1e-9
    err_off = h1_rel(sys, u_fine, sol.u_ms_fine)
    err_snap = h1_rel(sys, u_fine, u_snap)
    assert abs(err_off - err_snap) <= 1e-9
    assert time.monotonic() - start < 5.0


def test_uniform_enrichment_errors_decrease(channels):
    # criterion 2: energy error non-increasing for M_off = 1..5 on three
    # generated fields, under 60 s for the whole sweep
    start = time.monotonic()
    runs = [channels[:2]]
    for field, seed in [(mf.fields.crossing_network, 2),
                        (mf.fields.mixed_short_long, 3)]:
        g = mf.build_hierarchy(mf.UNIT_SQUARE, 10, 10, 10, t=0)
        runs.append((g, build_system(g, field(g, seed=seed))))
    for g, sys in runs:
        u_fine = mf.solve_fine(sys).u
        pou, spaces = full_pipeline(g, sys)
        errs = [h1_rel(sys, u_fine, solve_at(g, sys, pou, spaces, M)[1].u_ms_fine)
                for M in range(1, 6)]
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-10
        assert errs[-1] < errs[0]
    assert time.monotonic() - start < 60.0


def test_isolated_fractures_one_basis_suffices():
    # criterion 3: blockwise-isolated fractures are handled by the
    # fracture-adapted partition of unity alone
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 10, 10, 10, t=0)
    sys = build_system(g, mf.fields.isolated_blocks(g, seed=0))
    u_fine = mf.solve_fine(sys).u
    pou, spaces = full_pipeline(g, sys)
    ms, sol = solve_at(g, sys, pou, spaces, 1)
    assert ms.N_c == 121
    err = h1_rel(sys, u_fine, sol.u_ms_fine)
    assert err <= 0.05  # measured ~4.6%


def test_embedded_single_fracture_under_one_percent():
    # criterion 4: one long mildly-conductive embedded fracture, smooth
    # matrix field, one basis per node
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 10, 10, 10, t=0)
    net = mf.fields.single_long_efm(g, seed=0, kappa_f=10.0)
    kfun = lambda x, y: 1.0 + 0.25 * np.sin(np.pi * x) * np.cos(np.pi * y)
    perm = cell_permeability(g, kfun)
    sys = mf.assemble_efm(g, perm, [], [mf.intersect_efm(net.efm[0], g)],
                          bc=BC)
    fine = mf.solve_fine(sys)
    pou = mf.compute_pou(g, sys)
    spaces = neighborhood_spaces(sys, pou)
    ms = mf.build_space(pou, spaces, np.ones(len(spaces), dtype=int))
    sol = mf.solve_coarse(ms, sys)
    rep = mf.analysis.errors(
        fine.u, None, sol.u_ms_fine, sys, dim_Voff=ms.N_c)
    assert ms.N_c == 121
    assert rep.rel_energy_vs_fine <= 0.01  # measured ~0.66%
    assert rep.rel_L2_vs_fine <= 0.01      # measured ~0.013%


def _dfm_vs_resolved_band(refine_factor):
    """Energy-norm gap between the line model and a resolved thin band.

    The band is one refined-cell layer of width eps = h/refine_factor
    with permeability kappa_f, so its transmissivity kappa_f*eps matches
    the line coefficient exactly; the resolved field is restricted to
    the base nodes (nested grids) and compared in the line model's
    energy norm.
    """
    kappa_f = 1e3
    gb = mf.build_hierarchy(mf.UNIT_SQUARE, 10, 10, 6, t=0)
    eps = gb.hx / refine_factor
    fr = mf.Fracture(np.array([[0.2, 0.5], [0.8, 0.5]]), eps, kappa_f,
                     "dfm", 0)
    sysb = build_system(gb, mf.FractureNetwork([fr]))
    u1 = mf.solve_fine(sysb).u

    gr = mf.build_hierarchy(mf.UNIT_SQUARE, 10, 10, 6 * refine_factor, t=0)
    cx = (np.arange(gr.n_cells) % gr.fine_nx + 0.5) * gr.hx
    cy = (np.arange(gr.n_cells) // gr.fine_nx + 0.5) * gr.hy
    kap = np.ones(gr.n_cells)
    kap[(cy > 0.5) & (cy < 0.5 + eps) & (cx > 0.2) & (cx < 0.8)] = kappa_f
    sysr = mf.assemble_dfm(gr, mf.PermeabilityField(kap), [], bc=BC)
    u2 = mf.solve_fine(sysr).u

    f = gr.fine_nx // gb.fine_nx
    nr = gr.fine_nx + 1
    u2b = u2.reshape(nr, nr)[::f, ::f].reshape(-1)
    return h1_rel(sysb, u1, u2b)


def test_dfm_agrees_with_resolved_thin_band():
    # criterion 5: the lumped line model tracks a fully resolved band of
    # the same transmissivity, and the gap shrinks as the band thins
    gap4 = _dfm_vs_resolved_band(4)
    assert gap4 <= 0.03  # measured ~2.7%
    gap8 = _dfm_vs_resolved_band(8)
    assert gap8 < gap4   # measured ~1.4%


def test_adaptive_enrichment_beats_uniform(channels):
    # criterion 6: the adaptive loop reaches the uniform 3-per-node
    # accuracy with at most 0.85x the coarse dofs
    g, sys, u_fine, pou, spaces = channels
    ms3, sol3 = solve_at(g, sys, pou, spaces, 3)
    target = h1_rel(sys, u_fine, sol3.u_ms_fine)
    assert ms3.N_c == 283

    cfg = mf.AdaptConfig(theta=0.7, max_iters=8, basis_increment=1,
                         initial_basis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, hist = mf.adaptive_loop(sys, pou, spaces, cfg, u_fine=u_fine)
    reached = [h.dim for h in hist if h.energy_error <= target]
    assert reached, "adaptive loop never reached the uniform-3 error"
    assert min(reached) <= 0.85 * ms3.N_c  # measured 216 vs budget 240


def test_randomized_snapshots_match_full_at_equal_dims(channels):
    # criterion 7: oversampled randomized snapshots with p_bf=4 stay
    # within 1.5x of the full-snapshot error at identical coarse dims,
    # using under a tenth of the snapshot solves
    g, sys, u_fine, pou, spaces = channels
    for M, dim in [(3, 283), (4, 364), (5, 445)]:
        ms_f, sol_f = solve_at(g, sys, pou, spaces, M)
        err_full = h1_rel(sys, u_fine, sol_f.u_ms_fine)
        rand_spaces, interior = [], []
        for nb in g.neighborhoods:
            snap = mf.randomized_snapshots(g, sys, nb.index, k_nb=M,
                                           p_bf=4, seed=0)
            rand_spaces.append(mf.offline_eigendecomposition(snap, pou))
            if nb.is_interior:
                interior.append(snap)
        ms_r, sol_r = solve_at(g, sys, pou, rand_spaces, M)
        assert ms_f.N_c == ms_r.N_c == dim
        err_rand = h1_rel(sys, u_fine, sol_r.u_ms_fine)
        assert err_rand <= 1.5 * err_full  # measured ratios 1.08-1.21
        drawn = sum(s.l_i - 1 for s in interior)  # constant column is free
        full = sum(np.count_nonzero(g.box_rim(g.neighborhoods[s.omega_id].cells_plus))
                   for s in interior)
        assert drawn / full <= 0.10  # ~(M + 4)/96, 9.55% at M=5


def test_invariant_suite():
    # criterion 8: structural invariants on one fractured setup
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 4, 4, 5, t=1)
    net = mf.fields.crossing_channels(g, seed=5, n=4)
    sys = build_system(g, net)
    pou = mf.compute_pou(g, sys)

    # partition of unity sums to one everywhere
    np.testing.assert_allclose(dense_chi(pou).sum(axis=0), 1.0, atol=1e-12)

    spaces = neighborhood_spaces(sys, pou)
    for sp in spaces:
        # eigenvalues nonnegative (constants are exactly A-null) and
        # sorted ascending
        assert sp.eigvals[0] >= -1e-9 * max(sp.eigvals[-1], 1.0)
        assert np.all(np.diff(sp.eigvals) >= -1e-12 * abs(sp.eigvals[-1]))
        # S-orthonormality of the fine-nodal modes
        np.testing.assert_allclose(mode_gram(pou, sp), np.eye(sp.l_i),
                                   atol=1e-12)

    # Galerkin orthogonality of the coarse solve
    ms = mf.build_space(pou, spaces, np.full(len(spaces), 2))
    sol = mf.solve_coarse(ms, sys)
    u_fine = mf.solve_fine(sys).u
    resid = ms.R0T.T @ (sys.K @ (u_fine - sol.u_ms_fine))
    scale = float(np.abs(sys.K @ u_fine).max())
    assert np.abs(resid).max() <= 1e-9 * scale

    # dense-oracle equivalence of the coarse operator and solve
    A0 = (ms.R0T.T @ (sys.K @ ms.R0T)).toarray()
    np.testing.assert_allclose(
        A0, ms.R0T.toarray().T @ sys.K.toarray() @ ms.R0T.toarray(),
        atol=1e-11 * np.abs(A0).max())
    lift = mf.boundary_lift(pou, sys)
    U = np.linalg.solve(A0, ms.R0T.T @ (sys.f - sys.K @ lift))
    np.testing.assert_allclose(lift + ms.R0T @ U, sol.u_ms_fine,
                               atol=1e-11 * np.abs(sol.u_ms_fine).max())

    # embedded-model block operator is symmetric
    ef = mf.Fracture(np.array([[0.15, 0.45], [0.85, 0.62]]), 1e-3, 25.0,
                     "efm", 0)
    perm = mf.PermeabilityField.constant(g, 1.0)
    sys_e = mf.assemble_efm(g, perm, [], [mf.intersect_efm(ef, g)], bc=BC)
    Ab = sys_e.K
    assert np.abs(Ab - Ab.T).max() <= 1e-12 * np.abs(Ab).max()

    # determinism: the randomized pipeline is byte-identical under a
    # fixed seed and differs under another
    def rand_solution(seed):
        rsp = neighborhood_spaces(sys, pou, "randomized", k_nb=3, p_bf=2,
                                  seed=seed)
        msr = mf.build_space(pou, rsp, np.full(len(rsp), 2))
        return mf.solve_coarse(msr, sys).u_ms_fine

    a, b = rand_solution(7), rand_solution(7)
    assert a.tobytes() == b.tobytes()
    assert rand_solution(8).tobytes() != a.tobytes()
