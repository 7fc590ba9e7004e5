"""Relative error norms against dense quadrature oracles."""

import numpy as np
import pytest

import msfrac as mf
from msfrac.analysis import errors

GAUSS = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))


def small_system(kappa_f=1e3, bc=None, efm=False, f=None):
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 3, 3, 3, t=0)
    frs = [mf.Fracture(np.array([[0.15, 0.35], [0.8, 0.55]]), 1e-3, kappa_f,
                       "efm" if efm else "dfm", 0)]
    rng = np.random.default_rng(11)
    kap = rng.uniform(0.5, 3.0, g.fine_nx * g.fine_ny)
    perm = mf.PermeabilityField(kap)
    if efm:
        sys = mf.assemble_efm(g, perm, [], [mf.intersect_efm(frs[0], g)],
                              bc=bc, f=f)
    else:
        sys = mf.assemble_dfm(g, perm, [mf.rasterize_dfm(frs[0], g)],
                              bc=bc, f=f)
    return g, sys


def test_identical_fields_have_zero_error():
    g, sys = small_system(bc=mf.bilinear_bc(0.3, 1.0, 0.2, -0.7))
    u = mf.solve_fine(sys).u
    rep = errors(u, u, u, sys, dim_Voff=5)
    assert rep.rel_L2_vs_fine == 0.0
    assert rep.rel_energy_vs_fine == 0.0
    assert rep.rel_L2_vs_snap == 0.0
    assert rep.rel_energy_vs_snap == 0.0
    assert rep.dim_Voff == 5


def test_zero_field_has_unit_error():
    g, sys = small_system(bc=mf.bilinear_bc(0.3, 1.0, 0.2, -0.7))
    u = mf.solve_fine(sys).u
    rep = errors(u, None, np.zeros_like(u), sys)
    assert rep.rel_L2_vs_fine == pytest.approx(1.0, rel=1e-14)
    assert rep.rel_energy_vs_fine == pytest.approx(1.0, rel=1e-14)
    assert rep.rel_L2_vs_snap is None and rep.rel_energy_vs_snap is None


def test_zero_reference_rejected():
    g, sys = small_system()
    z = np.zeros(g.n_nodes)
    with pytest.raises(ValueError, match="zero energy"):
        errors(z, None, z, sys)
    with pytest.raises(ValueError, match="system size"):
        errors(np.ones(3), None, np.ones(3), sys)


def test_reference_norms_are_computed_once_per_reference(monkeypatch):
    # a run's rows share their references: each reference's two norms are
    # computed once, and again only once its values change
    from msfrac import analysis
    g, sys = small_system(bc=mf.bilinear_bc(0.3, 1.0, 0.2, -0.7))
    u = mf.solve_fine(sys).u
    snap, off = 1.01 * u, 0.9 * u
    quads = []
    quad = analysis._quad
    monkeypatch.setattr(analysis, "_quad",
                        lambda Q, v: quads.append(1) or quad(Q, v))
    first = errors(u, snap, off, sys)
    assert len(quads) == 8
    assert errors(u, snap, off, sys) == first and len(quads) == 12
    u *= 2.0
    rep = errors(u, snap, off, sys)
    assert len(quads) == 18
    e = u - off
    assert rep.rel_energy_vs_fine == np.sqrt(quad(sys.K, e) / quad(sys.K, u))
    assert rep.rel_L2_vs_fine == np.sqrt(
        quad(sys.mass_matrix, e) / quad(sys.mass_matrix, u))


def test_weighted_l2_matches_dense_quadrature():
    # the kappa-weighted mass applied to a bilinear-per-cell field,
    # recomputed by 2x2 Gauss quadrature cell by cell plus exact
    # per-segment line integrals along the fracture edges
    g, sys = small_system(kappa_f=250.0)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(g.n_nodes)
    quad = 0.0
    nx = g.fine_nx
    for c in range(nx * g.fine_ny):
        i, j = c % nx, c // nx
        n00 = j * (nx + 1) + i
        corners = u[[n00, n00 + 1, n00 + nx + 1, n00 + nx + 2]]
        for sx in GAUSS:
            for sy in GAUSS:
                val = (corners[0] * (1 - sx) * (1 - sy)
                       + corners[1] * sx * (1 - sy)
                       + corners[2] * (1 - sx) * sy
                       + corners[3] * sx * sy)
                quad += 0.25 * g.hx * g.hy * sys.perm.kappa_cells[c] * val ** 2
    for e in np.flatnonzero(sys.edge_arrays).tolist():
        coeff = sys.edge_arrays[e]
        a, b = g.edge_nodes(e)
        h = g.hx if e < g.n_hedges else g.hy
        # exact integral of a linear interpolant squared
        quad += coeff * h * (u[a] ** 2 + u[a] * u[b] + u[b] ** 2) / 3.0
    M = sys.mass_matrix
    assert float(u @ (M @ u)) == pytest.approx(quad, rel=1e-12)


def test_energy_error_two_expansions_agree():
    g, sys = small_system(bc=mf.bilinear_bc(0.1, -0.6, 1.1, 0.4))
    u = mf.solve_fine(sys).u
    rng = np.random.default_rng(9)
    v = u + 0.05 * rng.standard_normal(u.size)
    A = sys.K
    direct = float((u - v) @ (A @ (u - v)))
    expanded = float(u @ (A @ u)) + float(v @ (A @ v)) - 2 * float(u @ (A @ v))
    assert direct == pytest.approx(expanded, rel=1e-10)
    rep = errors(u, None, v, sys)
    assert rep.rel_energy_vs_fine == pytest.approx(
        np.sqrt(direct / float(u @ (A @ u))), rel=1e-12)


def test_relative_errors_are_scale_invariant():
    bc = mf.bilinear_bc(0.2, 0.9, -0.3, 0.5)
    c = 37.5
    bc_scaled = mf.bilinear_bc(*(c * np.array([0.2, 0.9, -0.3, 0.5])))
    g, sys = small_system(bc=bc, f=2.0)
    _, sys2 = small_system(bc=bc_scaled, f=2.0 * c)
    u1 = mf.solve_fine(sys).u
    u2 = mf.solve_fine(sys2).u
    np.testing.assert_allclose(u2, c * u1, rtol=1e-11, atol=1e-13)
    rng = np.random.default_rng(2)
    pert = rng.standard_normal(u1.size)
    r1 = errors(u1, u1 + 0.01 * pert, u1 + 0.03 * pert, sys)
    r2 = errors(u2, c * (u1 + 0.01 * pert), c * (u1 + 0.03 * pert), sys2)
    assert r2.rel_L2_vs_fine == pytest.approx(r1.rel_L2_vs_fine, rel=1e-12)
    assert r2.rel_energy_vs_fine == pytest.approx(r1.rel_energy_vs_fine,
                                                  rel=1e-12)
    assert r2.rel_L2_vs_snap == pytest.approx(r1.rel_L2_vs_snap, rel=1e-12)
    assert r2.rel_energy_vs_snap == pytest.approx(r1.rel_energy_vs_snap,
                                                  rel=1e-12)


def test_efm_norms_use_block_operators():
    g, sys = small_system(efm=True, kappa_f=40.0,
                          bc=mf.bilinear_bc(0.0, 1.0, 0.5, 0.0))
    sol = mf.solve_fine(sys)
    n_total = sys.K.shape[0]
    assert n_total == g.n_nodes + sys.efm_traces[0].n_nodes
    ub = sol.u
    assert ub.shape[0] == n_total
    rep = errors(ub, None, np.zeros(n_total), sys)
    assert rep.rel_L2_vs_fine == pytest.approx(1.0, rel=1e-14)
    M = sys.mass_matrix
    tr = sys.efm_traces[0]
    # fracture block of the mass: exact line integral of the linear
    # interpolant of ones is just the weighted fracture length
    ones = np.zeros(n_total)
    ones[g.n_nodes:] = 1.0
    got = float(ones @ (M @ ones))
    assert got == pytest.approx(tr.effective_coeff * tr.arclengths[-1],
                                rel=1e-12)
    # entry by entry against a per-segment P1 element loop
    want = np.zeros((tr.n_nodes, tr.n_nodes))
    for k, h in enumerate(np.diff(tr.arclengths)):
        w = tr.effective_coeff * h / 6.0
        want[k:k + 2, k:k + 2] += w * np.array([[2.0, 1.0], [1.0, 2.0]])
    np.testing.assert_array_equal(M[g.n_nodes:, g.n_nodes:].toarray(), want)
