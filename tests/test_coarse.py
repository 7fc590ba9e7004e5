"""Multiscale space assembly, the coarse solves, and their oracles."""

import dataclasses
import itertools
import pathlib
import types

import numpy as np
import pytest
import scipy.sparse as sparse
import yaml

import msfrac as mf
from msfrac import coarse, driver
from msfrac.adaptivity import AdaptConfig
from msfrac.cli import main
from msfrac.coarse import coarse_system
from msfrac.config import parse_config
from msfrac.driver import m_off_schedule

from conftest import cell_permeability, neighborhood_spaces, two_embedded_system

BC = mf.bilinear_bc(0.2, 1.0, -0.5, 0.3)


def dfm_setup(coarse=3, refine=4, field=None, seed=1, kappa=None, bc=BC, f=None):
    g = mf.build_hierarchy(mf.UNIT_SQUARE, coarse, coarse, refine, t=0)
    net = field(g, seed=seed) if field else None
    if kappa is None:
        perm = mf.PermeabilityField.constant(g, 1.0)
    elif callable(kappa):
        perm = cell_permeability(g, kappa)
    else:
        perm = mf.PermeabilityField(kappa)
    traces = [mf.rasterize_dfm(fr, g) for fr in (net.dfm if net else [])]
    sys = mf.assemble_dfm(g, perm, traces, bc=bc, f=f)
    return g, sys


def offline_spaces(g, sys):
    """Full eigendecomposition (all modes kept) for every coarse node."""
    pou = mf.compute_pou(g, sys)
    return pou, neighborhood_spaces(sys, pou)


def space_at(g, pou, spaces, M=None, full=False):
    counts = [sp.l_i for sp in spaces] if full else m_off_schedule(g, M)
    return mf.build_space(pou, spaces, counts)


def energy(sys, e):
    return float(np.sqrt(e @ (sys.A @ e)))


def test_constant_kappa_single_mode_is_coarse_fem():
    g, sys = dfm_setup()
    pou, spaces = offline_spaces(g, sys)
    ms = space_at(g, pou, spaces, M=1)
    assert ms.N_c == g.n_coarse_nodes
    sol = mf.solve_coarse(ms, sys)
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
    perm = mf.PermeabilityField(rng.uniform(0.5, 50.0, g.n_cells))
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
    sol = mf.solve_coarse(ms, sys)
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
        assert ms.counts.sum() == ms.N_c
        sol = mf.solve_coarse(ms, sys)
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
    # counts above a neighborhood's snapshot count are clamped to it
    l_i = [sp.l_i for sp in spaces]
    big = mf.build_space(pou, spaces, np.full(len(spaces), max(l_i) + 5))
    np.testing.assert_array_equal(big.counts, l_i)
    assert big.N_c == sum(l_i)
    # enriching by zero modes is refused when the settings are built
    with pytest.raises(ValueError, match="basis_increment"):
        AdaptConfig(basis_increment=0)


def test_galerkin_orthogonality():
    g, sys = dfm_setup(field=mf.fields.mixed_short_long, seed=4, f=1.0)
    pou, spaces = offline_spaces(g, sys)
    ms = space_at(g, pou, spaces, M=2)
    sol = mf.solve_coarse(ms, sys)
    r = ms.R0T.T @ (sys.f - sys.A @ sol.u_ms_fine)
    scale = max(1.0, float(np.abs(ms.R0T.T @ sys.f).max()))
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
    # one exactly repeated basis column makes K0 singular in floating
    # point: the LU path must give way to lstsq, which finds rank N_c - 1.
    # Without fractures the one-mode space holds the fine solution.
    import scipy.sparse as sparse
    for field, M in [(None, 1), (mf.fields.crossing_channels, 2)]:
        g, sys = dfm_setup(field=field, seed=7)
        pou, spaces = offline_spaces(g, sys)
        ms = space_at(g, pou, spaces, M=M)
        sol = mf.solve_coarse(ms, sys)
        dup = dataclasses.replace(
            ms, R0T=sparse.hstack([ms.R0T, ms.R0T[:, :1]]).tocsr(),
            col_node=np.append(ms.col_node, ms.col_node[0]))
        sol2 = mf.solve_coarse(dup, sys)
        assert sol.info["solver"] == "direct"
        assert sol2.info["solver"] == "lstsq"
        assert sol2.info["rank"] == dup.N_c - 1
        # same span, same fine-grid Galerkin solution, hence the same error
        np.testing.assert_allclose(sol2.u_ms_fine, sol.u_ms_fine, atol=1e-8)
        u = mf.solve_fine(sys).u
        err, err2 = (energy(sys, u - s.u_ms_fine) for s in (sol, sol2))
        assert abs(err2 - err) <= 1e-10 * energy(sys, u)
        if field is None:
            assert err2 <= 1e-10 * energy(sys, u)


def randomized_3x3_space(out_dir):
    """Randomized spaces on 3x3 coarse cells at refine 2 and M_off = 2:
    a coarse matrix ill-conditioned by its column scaling."""
    rs = driver.setup(parse_config({
        "grid": {"coarse": [3, 3], "refine": 2},
        "fractures": {"field": "crossing_channels", "kappa_f": 1e3},
        "offline": {"mode": "randomized", "M_off": 2},
        "outputs": {"dir": str(out_dir)}}))
    pou, spaces = driver._offline(rs, 2)
    return driver._space_at(rs, pou, spaces, 2), rs.sys


@pytest.mark.parametrize("n_modes", [2, 8])
def test_offline_keeps_the_modes_the_run_reads(n_modes, tmp_path):
    # k_nb + p_bf + 1 = 6 snapshots per neighborhood, so 8 is clamped
    rs = driver.setup(parse_config({
        "grid": {"coarse": [3, 3], "refine": 3},
        "fractures": {"field": "crossing_channels", "seed": 1},
        "offline": {"mode": "randomized", "k_nb": 3, "p_bf": 2},
        "outputs": {"dir": str(tmp_path)}}))
    _, every = driver._offline(rs, None)
    pou, spaces = driver._offline(rs, n_modes)
    for sp, ref in zip(spaces, every, strict=True):
        assert sp.eigvals.tobytes() == ref.eigvals.tobytes()
        assert sp.basis_full.shape == (len(sp.node_ids), min(n_modes, ref.l_i))
    ms = mf.build_space(pou, spaces, np.full(len(spaces), n_modes))
    np.testing.assert_array_equal(ms.counts, [min(n_modes, 6)] * len(spaces))
    if n_modes < 6:
        with pytest.raises(ValueError, match=f"{n_modes + 1} modes asked"):
            mf.build_space(pou, spaces, np.full(len(spaces), n_modes + 1))


def coo_prolongation(pou, spaces, counts, drop_zeros=True):
    """R0T from (row, column, value) triplets, node by node with each
    node's modes fastest, its stored zeros dropped unless asked to keep
    them (oracle: the triplet build the column-wise build replaced)."""
    g = pou.grid
    bmask = g.boundary_node_mask()
    counts = np.minimum(counts, [sp.l_i for sp in spaces])
    rows, cols, vals, c0 = [], [], [], 0
    for sp, m in zip(spaces, counts):
        B = sp.basis_full[:, :m] * pou.chi[sp.omega_id][:, None]
        B[bmask[sp.node_ids]] = 0.0
        rows.append(np.repeat(sp.node_ids, m))
        cols.append(np.tile(c0 + np.arange(m), len(sp.node_ids)))
        vals.append(B.ravel())
        c0 += m
    R0T = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(g.n_nodes, c0)).tocsr()
    if drop_zeros:
        R0T.eliminate_zeros()
    return R0T


PROLONGATION_CASES = {
    "dfm": {"fractures": {"field": "crossing_channels", "seed": 1}},
    "efm": {"fractures": {"field": "single_long_efm", "kappa_f": 10.0}},
    "randomized": {"fractures": {"field": "crossing_channels", "seed": 1},
                   "offline": {"mode": "randomized", "k_nb": 3, "p_bf": 2}},
}


@pytest.mark.parametrize("case", sorted(PROLONGATION_CASES))
def test_prolongation_matches_triplet_build(case, tmp_path):
    rs = driver.setup(parse_config({
        "grid": {"coarse": [4, 3], "refine": 4, "t": 1},
        **PROLONGATION_CASES[case], "outputs": {"dir": str(tmp_path)}}))
    pou, spaces = driver._offline(rs, None)
    l_i = np.array([sp.l_i for sp in spaces])
    rng = np.random.default_rng(0)
    for counts in (m_off_schedule(rs.grid, 1), m_off_schedule(rs.grid, 3),
                   l_i + 2,                          # every count clamped
                   rng.integers(0, l_i + 3)):        # some clamped, some 0
        got = mf.build_space(pou, spaces, counts).R0T
        want = coo_prolongation(pou, spaces, counts)
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("case", sorted(PROLONGATION_CASES))
def test_stored_zeros_change_no_coarse_bit(case, tmp_path):
    # chi_i vanishes on the rim of omega_i's box and boundary rows are
    # zeroed: R0T stores none of those zeros, and the projection, the
    # solve and the prolonged field of a zero-carrying R0T are the same
    # bits
    rs = driver.setup(parse_config({
        "grid": {"coarse": [4, 3], "refine": 4, "t": 1},
        **PROLONGATION_CASES[case], "outputs": {"dir": str(tmp_path)}}))
    pou, spaces = driver._offline(rs, 3)
    counts = m_off_schedule(rs.grid, 3)
    ms = mf.build_space(pou, spaces, counts)
    zeros = dataclasses.replace(ms, R0T=coo_prolongation(pou, spaces, counts,
                                                         drop_zeros=False))
    assert np.count_nonzero(ms.R0T.data == 0) == 0
    assert np.count_nonzero(zeros.R0T.data == 0) > 0
    assert sparse_bytes(ms.R0) == sparse_bytes(ms.R0T.T)
    K0, F0, lift = coarse_system(ms, rs.sys)
    K0_z, F0_z, lift_z = coarse_system(zeros, rs.sys)
    assert sparse_bytes(K0) == sparse_bytes(K0_z)
    assert F0.tobytes() == F0_z.tobytes() and lift.tobytes() == lift_z.tobytes()
    sol, sol_z = mf.solve_coarse(ms, rs.sys), mf.solve_coarse(zeros, rs.sys)
    assert sol.info == sol_z.info
    assert sol.u_ms_fine.tobytes() == sol_z.u_ms_fine.tobytes()


SHIPPED = pathlib.Path(__file__).resolve().parents[1]
SHIPPED_RUNS = [("sweep", "configs/channels_sweep.yml"),
                ("sweep", "configs/randomized_sweep.yml"),
                ("adapt", "configs/adapt_channels.yml"),
                ("solve", "configs/efm_single.yml"),
                ("sweep", "bench/configs/efm_sweep_r20.yml"),
                ("adapt", "bench/configs/adapt_channels_10.yml")]


@pytest.mark.parametrize("command, config", SHIPPED_RUNS)
def test_shipped_coarse_solves_factor_in_symmetric_mode(command, config,
                                                        tmp_path, monkeypatch):
    # every coarse factorization of the shipped configs and the gated
    # bench workloads is SuperLU's symmetric mode, and its solution stands;
    # each K0 is also within the dense rescue's budget
    calls, real = [], coarse.spla.splu

    def splu(A, **kwargs):
        calls.append(kwargs)
        assert 8 * A.shape[0] ** 2 <= coarse.DENSE_RESCUE_BYTES
        return real(A, **kwargs)

    monkeypatch.setattr(coarse, "spla", types.SimpleNamespace(
        **{**vars(coarse.spla), "splu": splu}))
    assert main([command, "-c", str(SHIPPED / config),
                 "--out", str(tmp_path)]) == 0
    run = yaml.safe_load((tmp_path / "manifest.yml").read_text())["run"]
    solvers = run["coarse_solver"]
    solvers = [solvers] if isinstance(solvers, str) else solvers
    assert solvers == ["direct"] * len(solvers) and len(calls) == len(solvers)
    assert all(kw == {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0,
                      "options": {"SymmetricMode": True}} for kw in calls)


def test_dense_rescue_over_its_budget_is_a_named_error(tmp_path, monkeypatch):
    # an exactly repeated column makes K0 singular, so the LU gives way to
    # the dense rescue; over the byte budget that is a named error
    ms, sys = randomized_3x3_space(tmp_path)
    dup = dataclasses.replace(
        ms, R0T=sparse.hstack([ms.R0T, ms.R0T[:, :1]]).tocsr(),
        col_node=np.append(ms.col_node, ms.col_node[0]))
    need = 8 * dup.N_c ** 2
    monkeypatch.setattr(coarse, "DENSE_RESCUE_BYTES", need)
    assert mf.solve_coarse(dup, sys).info["solver"] == "lstsq"
    monkeypatch.setattr(coarse, "DENSE_RESCUE_BYTES", need - 1)
    with pytest.raises(coarse.CoarseRescueTooLarge,
                       match=f"N_c = {dup.N_c} needs {need} bytes"):
        mf.solve_coarse(dup, sys)
    assert issubclass(coarse.CoarseRescueTooLarge, RuntimeError)
    # the repeated column's node is the one locally dependent block
    assert coarse._rank_report(dup) == [dup.col_node[0]]
    assert coarse._rank_report(ms) == []


@pytest.mark.parametrize("case", ["randomized_3x3", "full_dfm"])
def test_rcond_estimate_is_deterministic_and_close(case, tmp_path):
    if case == "randomized_3x3":
        ms, sys = randomized_3x3_space(tmp_path)
    else:
        g, sys = dfm_setup(field=mf.fields.crossing_channels, seed=7)
        ms = space_at(g, *offline_spaces(g, sys), M=2)
    K0 = coarse_system(ms, sys)[0].toarray()
    exact = 1.0 / np.linalg.cond(K0, 1)
    state = np.random.get_state()
    try:
        rconds = []
        for seed in (0, 1):
            np.random.seed(seed)
            rconds.append(np.float64(mf.solve_coarse(ms, sys).info["rcond"]))
    finally:
        np.random.set_state(state)
    assert rconds[0].tobytes() == rconds[1].tobytes()
    assert exact / 3 <= rconds[0] <= 3 * exact


SWEEP_CASES = {
    "dfm": {"grid": {"coarse": [4, 4], "refine": 3},
            "fractures": {"field": "crossing_channels", "seed": 2,
                          "params": {"n": 5}}},
    "efm": {"grid": {"coarse": [4, 4], "refine": 3},
            "fractures": {"list": [{"polyline": [[0.2, 0.5], [0.8, 0.6]],
                                    "aperture": 1e-3, "kappa_f": 50.0,
                                    "model": "efm"}]}},
    # the case of test_sweep_records_coarse_path_per_row, where a row
    # may take the lstsq path
    "randomized_3x3": {"grid": {"coarse": [3, 3], "refine": 2},
                       "offline": {"mode": "randomized"},
                       "fractures": {"field": "crossing_channels",
                                     "kappa_f": 1e3}},
}


def sparse_bytes(M):
    M = M.tocsr()
    return M.shape, M.indptr.tobytes(), M.indices.tobytes(), M.data.tobytes()


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_rows_are_cut_from_one_projection(case, tmp_path, monkeypatch):
    cfg = parse_config({**SWEEP_CASES[case], "sweep": [1, 2, 3],
                        "outputs": {"dir": str(tmp_path)}})
    calls = {"build_space": 0, "coarse_system": 0}
    rows = []

    def counted(name):
        fn = getattr(driver, name)

        def spy(*args):
            calls[name] += 1
            return fn(*args)
        return spy

    def solving(fn):
        def spy(ms, sys, system):
            sol = fn(ms, sys, system)
            rows.append((ms, sys, system, sol, fn))
            return sol
        return spy

    for name in calls:
        monkeypatch.setattr(driver, name, counted(name))
    monkeypatch.setattr(driver, "solve_coarse", solving(driver.solve_coarse))
    driver.run_sweep(cfg)
    assert calls == {"build_space": 1, "coarse_system": 1}
    # the largest row is solved first, as the snapshot reference
    assert len(rows) == 3
    for m, (ms, sys, system, sol, solve) in zip([3, 1, 2], rows):
        ref = mf.build_space(ms.pou, ms.spaces, m_off_schedule(sys.grid, m))
        assert ms.counts.tobytes() == ref.counts.tobytes()
        assert ms.col_node.tobytes() == ref.col_node.tobytes()
        assert sparse_bytes(ms.R0T[:, ms.cols]) == sparse_bytes(ref.R0T)
        K0, F0, lift = system
        K0_ref, F0_ref, lift_ref = coarse_system(ref, sys)
        assert sparse_bytes(K0) == sparse_bytes(K0_ref)
        assert F0.tobytes() == F0_ref.tobytes()
        assert lift.tobytes() == lift_ref.tobytes()
        sol_ref = solve(ref, sys)
        assert sol.info == sol_ref.info
        assert sol.u_ms_fine.tobytes() == sol_ref.u_ms_fine.tobytes()


def efm_setup(coarse=4, refine=5, two=False):
    g = mf.build_hierarchy(mf.UNIT_SQUARE, coarse, coarse, refine, t=0)
    f = mf.Fracture(np.array([[0.2, 0.55], [0.8, 0.52]]), 1e-3, 50.0, "efm", 0)
    perm = cell_permeability(
        g, lambda x, y: 1.0 + 0.3 * np.cos(np.pi * x) * np.sin(np.pi * y))
    if two:
        return g, two_embedded_system(g, perm, bc=BC, f=1.5)
    tr = mf.intersect_efm(f, g)
    return g, mf.assemble_efm(g, perm, [], [tr], bc=BC)


def test_efm_block_solve_matches_dense_oracle():
    for two in (False, True):
        g, sys = efm_setup(coarse=3, refine=4, two=two)
        pou, spaces = offline_spaces(g, sys)
        ms = space_at(g, pou, spaces, M=2)
        sol = mf.solve_coarse(ms, sys)

        # fracture k's unknowns follow the matrix nodes and fractures < k
        nf = len(sys.efm_traces)
        off = g.n_nodes + np.cumsum([0] + [tr.n_nodes for tr in sys.efm_traces])
        K = sys.K.toarray()
        R = ms.R0T.toarray()
        lift = pou.boundary_lift(sys.bc)
        edges = np.r_[0, off]
        for i, j in itertools.product(range(nf + 1), repeat=2):
            np.testing.assert_array_equal(
                sys.block(i, j).toarray(),
                K[edges[i]:edges[i + 1], edges[j]:edges[j + 1]])
        Am = K[:g.n_nodes, :g.n_nodes]
        C = [K[:g.n_nodes, off[k]:off[k + 1]] for k in range(nf)]
        M = np.block([[R.T @ Am @ R] + [R.T @ Ck for Ck in C]]
                     + [[C[i].T @ R] + [K[off[i]:off[i + 1], off[k]:off[k + 1]]
                                        for k in range(nf)] for i in range(nf)])
        b = np.concatenate([R.T @ (sys.f[:sys.n_nodes] - Am @ lift)]
                           + [sys.f[off[k]:off[k + 1]] - C[k].T @ lift
                              for k in range(nf)])
        x = np.linalg.solve(M, b)
        got = np.r_[sol.U0, sol.u_ms_fine[g.n_nodes:]]
        np.testing.assert_allclose(got, x, atol=1e-11 * max(1, np.abs(x).max()))
