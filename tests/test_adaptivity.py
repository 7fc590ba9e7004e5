"""Error indicators, Dorfler marking, and the enrichment loop."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msfrac as mf
from msfrac.adaptivity import (AdaptConfig, adaptive_loop, compute_indicators,
                               enrich, mark_dorfler)

from conftest import dense_chi, neighborhood_spaces, two_embedded_system

BC = mf.bilinear_bc(0.1, 0.8, -0.4, 1.2)


def setup(coarse=10, refine=2, field=mf.fields.crossing_channels, seed=3):
    g = mf.build_hierarchy(mf.UNIT_SQUARE, coarse, coarse, refine, t=0)
    net = field(g, seed=seed) if field else None
    perm = mf.PermeabilityField.constant(g, 1.0)
    traces = [mf.rasterize_dfm(fr, g) for fr in (net.dfm if net else [])]
    sys = mf.assemble_dfm(g, perm, traces, bc=BC)
    pou = mf.compute_pou(g, sys)
    return g, sys, pou, neighborhood_spaces(sys, pou)


def test_config_validation():
    with pytest.raises(ValueError, match="theta"):
        AdaptConfig(theta=0.0)
    with pytest.raises(ValueError, match="theta"):
        AdaptConfig(theta=1.5)
    with pytest.raises(ValueError, match="indicator"):
        AdaptConfig(indicator="oracle")
    with pytest.raises(ValueError, match="rectangle"):
        AdaptConfig(indicator="manual")
    AdaptConfig(theta=1.0)  # closed at the top


def test_manual_box_is_checked_where_it_is_given():
    # reversed bounds hold no node, and the residual indicator reads no box
    with pytest.raises(ValueError, match="reversed bounds"):
        AdaptConfig(indicator="manual", manual_box=(9, 3, 5, 9))
    with pytest.raises(ValueError, match="reversed bounds"):
        AdaptConfig(indicator="manual", manual_box=(3, 9, 9, 5))
    with pytest.raises(ValueError, match="only to the manual indicator"):
        AdaptConfig(manual_box=(3, 9, 5, 9))
    AdaptConfig(indicator="manual", manual_box=(4, 4, 0, 0))  # one node


def test_manual_box_beyond_the_coarse_grid_is_an_error():
    # the 4x4 coarse grid has nodes 0..4 per direction; a box past them
    # would mark nothing and stop the loop after its first solve
    g, sys, pou, spaces = setup(coarse=4, field=None)
    cfg = AdaptConfig(indicator="manual", manual_box=(7, 9, 7, 9))
    with pytest.raises(ValueError, match=r"^manual_box \[7, 9, 7, 9\] holds no "
                                         r"coarse node of the 4x4 coarse grid"):
        adaptive_loop(sys, pou, spaces, cfg)


def test_manual_rectangle_marks_35_and_grows_to_226():
    g, sys, pou, spaces = setup()
    cfg = AdaptConfig(indicator="manual", manual_box=(3, 9, 5, 9),
                      basis_increment=3, max_iters=1, initial_basis=1)
    sol, hist = adaptive_loop(sys, pou, spaces, cfg)
    assert hist[0].dim == 121
    assert len(hist[0].marked) == 35
    marked_ij = {(g.neighborhoods[i].ci, g.neighborhoods[i].cj)
                 for i in hist[0].marked}
    assert marked_ij == {(i, j) for i in range(3, 10) for j in range(5, 10)}
    assert hist[1].dim == 226


def test_manual_rectangle_21_nodes_grows_to_163():
    g, sys, pou, spaces = setup()
    cfg = AdaptConfig(indicator="manual", manual_box=(3, 9, 6, 8),
                      basis_increment=2, max_iters=1, initial_basis=1)
    sol, hist = adaptive_loop(sys, pou, spaces, cfg)
    assert [h.dim for h in hist] == [121, 163]
    assert len(hist[0].marked) == 21


def test_full_space_has_zero_indicators():
    g, sys, pou, spaces = setup(coarse=4, refine=3)
    ms = mf.build_space(pou, spaces, [sp.l_i for sp in spaces])
    sol = mf.solve_coarse(ms, sys)
    rep = compute_indicators(ms, sol, sys)
    assert np.all(rep.eta <= 1e-9)


def test_indicator_matches_global_residual_oracle():
    # eta_i recomputed from scratch: apply the full block residual
    # functional f - K u to each unused chi-weighted eigenmode as a
    # *global* vector [chi psi, 0], zero on every fracture unknown
    g, dfm, *_ = setup(coarse=4, refine=3)
    mixed = two_embedded_system(g, mf.PermeabilityField.constant(g, 1.0), bc=BC)
    assert mixed.block(0, 1).count_nonzero() and mixed.block(0, 2).count_nonzero()
    M = 2
    for sys in (dfm, mixed):
        pou = mf.compute_pou(g, sys)
        spaces = neighborhood_spaces(sys, pou)
        ms = mf.build_space(pou, spaces, np.full(len(spaces), M))
        sol = mf.solve_coarse(ms, sys)
        rep = compute_indicators(ms, sol, sys)

        r = sys.f - sys.K @ sol.u_ms_fine
        r[sys.dirichlet_nodes] = 0.0
        chi = dense_chi(pou)
        checked = 0
        for i, (sp, m) in enumerate(zip(ms.spaces[:6], ms.counts)):
            if m >= sp.l_i:
                continue
            acc = 0.0
            for k in range(m, sp.l_i):
                w = np.zeros(sys.K.shape[0])
                ids = g.neighborhoods[i].node_ids
                w[ids] = chi[i, ids] * sp.basis_full[:, k]
                acc += float(w @ r) ** 2
            eta = np.sqrt(acc / sp.eigvals[m])
            assert rep.eta[i] == pytest.approx(eta, rel=1e-10, abs=1e-14)
            checked += eta > 0
        assert checked


def test_dorfler_prefix_is_minimal():
    eta = np.array([0.0, 3.0, 1.0, 2.0, 0.5])
    got = mark_dorfler(eta, 0.7)
    # squared masses 9, 4, 1, 0.25 of 14.25; 9 < 0.7*14.25 = 9.975 <= 13
    np.testing.assert_array_equal(got, [1, 3])
    np.testing.assert_array_equal(mark_dorfler(eta, 1.0), [1, 2, 3, 4])
    assert mark_dorfler(np.zeros(5), 0.7).size == 0


# exact zeros exercise the never-marked rule; positive values stay above
# 1e-6 so the squared masses keep full float precision (near 1e-162 the
# squares go subnormal and theta*total itself rounds to zero, which no
# relative-tolerance bulk check can survive)
@settings(max_examples=200)
@given(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e6)),
                min_size=1, max_size=40),
       st.floats(0.01, 1.0))
def test_dorfler_minimality_property(vals, theta):
    eta = np.asarray(vals)
    marked = mark_dorfler(eta, theta)
    eta2 = eta ** 2
    total = eta2.sum()
    if total == 0:
        assert marked.size == 0
        return
    assert np.all(eta2[marked] > 0)
    mass = eta2[marked].sum()
    assert mass >= theta * total - 1e-12 * total
    # dropping the weakest marked node breaks the bulk condition
    if marked.size:
        weakest = marked[np.argmin(eta2[marked])]
        assert mass - eta2[weakest] < theta * total + 1e-12 * total


def test_dorfler_ties_broken_by_index():
    got = mark_dorfler(np.array([2.0, 2.0, 2.0]), 0.5)
    np.testing.assert_array_equal(got, [0, 1])


def test_enrich_caps_and_warns_when_exhausted():
    # no fractures: no field has room for one on 3x3@2
    g, sys, pou, spaces = setup(coarse=3, refine=2, field=None)
    full = spaces[0]
    ms = mf.build_space(pou, spaces, [sp.l_i for sp in spaces])
    rep = mf.IndicatorReport(eta=np.ones(g.n_coarse_nodes),
                             marked=np.array([0]))
    with pytest.warns(UserWarning, match="exhausted"):
        out = enrich(rep, ms, AdaptConfig(basis_increment=2))
    assert out[0] == full.l_i
    assert rep.skipped == [0]

    trimmed = mf.build_space(pou, spaces, np.ones(len(spaces), dtype=int))
    rep2 = mf.IndicatorReport(eta=np.ones(g.n_coarse_nodes),
                              marked=np.arange(g.n_coarse_nodes))
    with pytest.raises(ValueError, match="basis_increment"):
        AdaptConfig(basis_increment=0)
    grown = enrich(rep2, trimmed, AdaptConfig(basis_increment=2))
    assert all(grown == 3)


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("name", ["basis_increment", "initial_basis"])
def test_settings_built_in_code_need_a_step_of_at_least_one(name, value):
    # a step of 0 would make the loop repeat one space
    with pytest.raises(ValueError, match=f"^{name} must be >= 1, got {value}$"):
        AdaptConfig(**{name: value})


def test_loop_stops_at_loose_tolerance():
    g, sys, pou, spaces = setup(coarse=4, refine=2)
    cfg = AdaptConfig(tol=1e12, max_iters=5, initial_basis=1)
    sol, hist = adaptive_loop(sys, pou, spaces, cfg)
    assert len(hist) == 1
    assert hist[0].iteration == 0
    assert hist[0].marked.size == 0
    assert hist[0].dim == g.n_coarse_nodes


def test_residual_loop_error_monotone_and_deterministic():
    g, sys, pou, spaces = setup(field=mf.fields.crossing_network, seed=7)
    fine = mf.solve_fine(sys)
    cfg = AdaptConfig(theta=0.7, max_iters=3, basis_increment=1,
                      initial_basis=1)

    def run():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return adaptive_loop(sys, pou, spaces, cfg, u_fine=fine.u)

    sol, hist = run()
    errs = [h.energy_error for h in hist]
    assert len(errs) == 4
    for a, b in zip(errs, errs[1:]):
        assert b <= a + 1e-12
    dims = [h.dim for h in hist]
    assert dims == sorted(dims) and dims[-1] > dims[0]

    sol2, hist2 = run()
    for h, h2 in zip(hist, hist2):
        np.testing.assert_array_equal(h.eta, h2.eta)
        np.testing.assert_array_equal(h.marked, h2.marked)
        assert h.energy_error == h2.energy_error
    np.testing.assert_array_equal(sol.u_ms_fine, sol2.u_ms_fine)
