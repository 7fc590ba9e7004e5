"""Fracture geometry: DFM edge rasterization and EFM cell clipping.

Oracles:
  * the staircase test enumerates every monotone 4-edge lattice path and
    checks the implementation picks the documented x-first one;
  * EFM overlap lengths are cross-checked by dense point sampling along
    the segment (no shared code with the clipping routine).
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, assume, strategies as st

import msfrac as mf
from msfrac.fractures import GeometryError


def dfm(poly, g=None, kappa_f=1e4, aperture=1e-3):
    f = mf.Fracture(np.asarray(poly, float), aperture, kappa_f, "dfm", 0)
    return f if g is None else mf.rasterize_dfm(f, g)


def efm(poly, g, kappa_f=1e4, aperture=1e-3):
    f = mf.Fracture(np.asarray(poly, float), aperture, kappa_f, "efm", 0)
    return mf.intersect_efm(f, g)


def enumerate_monotone_paths(di, dj):
    """All (dx, dy) step sequences using di x-steps and dj y-steps."""
    steps = ["x"] * di + ["y"] * dj
    return {p for p in itertools.permutations(steps)}


def sampled_overlap_lengths(poly, g, n=200001):
    """Per-cell overlap length by uniform arclength sampling (oracle)."""
    poly = np.asarray(poly, float)
    seglens = np.hypot(*np.diff(poly, axis=0).T)
    total = seglens.sum()
    out = {}
    for p0, p1, L in zip(poly[:-1], poly[1:], seglens):
        ts = (np.arange(n) + 0.5) / n
        pts = p0 + ts[:, None] * (p1 - p0)
        eps = 1e-9  # nudge boundary samples into the lower-left cell
        i = np.floor((pts[:, 0] - g.domain.x0 - eps) / g.hx).astype(int)
        j = np.floor((pts[:, 1] - g.domain.y0 - eps) / g.hy).astype(int)
        i = np.clip(i, 0, g.fine_nx - 1)
        j = np.clip(j, 0, g.fine_ny - 1)
        for cid, cnt in zip(*np.unique(g.cell_id(i, j), return_counts=True)):
            out[cid] = out.get(cid, 0.0) + cnt * L / n
    return out, total


# ---------------------------------------------------------------- DFM


def test_horizontal_segment_rasterizes_to_gridline():
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 10, 10, 10, t=0)
    tr = dfm([[0.2, 0.5], [0.6, 0.5]], g)
    assert len(tr.fine_edges) == 40
    path = tr.edge_node_path(g)
    ij = np.array([g.node_ij(n) for n in path])
    assert (ij[:, 1] == 50).all()
    assert (np.diff(ij[:, 0]) == 1).all()


def test_staircase_tie_break_x_first():
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 10, 10, 10, t=0)  # h = 0.01
    tr = dfm([[0.0, 0.0], [0.02, 0.02]], g)
    assert len(tr.fine_edges) == 4
    path = tr.edge_node_path(g)
    steps = []
    for a, b in zip(path[:-1], path[1:]):
        (i0, j0), (i1, j1) = g.node_ij(a), g.node_ij(b)
        steps.append("x" if (abs(i1 - i0), abs(j1 - j0)) == (1, 0) else "y")
    assert tuple(steps) in enumerate_monotone_paths(2, 2)
    assert steps == ["x", "y", "x", "y"]  # right,up,right,up


def test_degenerate_after_snapping_raises():
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 10, 10, 10, t=0)
    with pytest.raises(GeometryError):
        dfm([[0.502, 0.502], [0.504, 0.504]], g)  # both snap to (0.5, 0.5)


def test_vertices_snapping_to_one_node_are_merged():
    # the first two vertices snap to (0.1, 0.5); the trace is that of the
    # polyline without the second one
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 10, 10, 10, t=0)
    got = dfm([[0.1, 0.5], [0.102, 0.5], [0.9, 0.5]], g)
    want = dfm([[0.1, 0.5], [0.9, 0.5]], g)
    np.testing.assert_array_equal(got.fine_edges, want.fine_edges)
    assert len(got.fine_edges) == 80


# the fields with no room inside their margins on a grid, for every seed
NO_ROOM = {(4, 3, 4): {"isolated_blocks"}, (5, 5, 4): {"isolated_blocks"},
           (3, 3, 2): {"isolated_blocks", "crossing_channels", "crossing_network"}}


def draws_nothing(gen, g, seed):
    """Whether gen raises the ``GeometryError`` of an empty draw."""
    try:
        gen(g, seed=seed)
    except GeometryError as exc:
        assert str(exc) == (f"fractures.field {gen.__name__!r} draws no fracture at "
                            f"seed {seed} on {g.coarse_nx}x{g.coarse_ny}@{g.refine}")
        return True
    return False


@pytest.mark.parametrize("shape", [(4, 3, 4), (5, 5, 4), (10, 10, 10)])
def test_every_field_generator_rasterizes(shape):
    cx, cy, r = shape
    g = mf.build_hierarchy(mf.UNIT_SQUARE, cx, cy, r, t=0)
    for name, gen in mf.fields.FIELD_GENERATORS.items():
        for seed in range(5):
            if name in NO_ROOM.get(shape, ()):
                assert draws_nothing(gen, g, seed), (name, seed)
                continue
            net = gen(g, seed=seed)
            assert net.fractures, (name, seed)
            for f in net.dfm:
                assert len(mf.rasterize_dfm(f, g).fine_edges) > 0, (name, seed)
            for f in net.efm:
                assert len(mf.intersect_efm(f, g).cells) > 0, (name, seed)


def test_offgrid_vertices_snap_to_nearest_node():
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 5, 5, 4, t=0)   # h = 0.05
    off = dfm([[0.126, 0.524], [0.79, 0.49]], g)
    on = dfm([[0.15, 0.5], [0.8, 0.5]], g)
    np.testing.assert_array_equal(off.fine_edges, on.fine_edges)


def test_rasterization_idempotent_on_aligned_input():
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 5, 5, 4, t=0)
    tr1 = dfm([[0.25, 0.5], [0.75, 0.5]], g)
    # rebuild a polyline from the produced node path and rasterize again
    path = tr1.edge_node_path(g)
    poly = g.node_coords[[path[0], path[-1]]]
    tr2 = dfm(poly, g)
    np.testing.assert_array_equal(tr1.fine_edges, tr2.fine_edges)


@given(st.floats(0.05, 0.95), st.floats(0.05, 0.95),
       st.floats(0.05, 0.95), st.floats(0.05, 0.95))
def test_path_length_at_least_straight_line(x0, y0, x1, y1):
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 5, 5, 4, t=0)
    i0, j0 = round(x0 / g.hx), round(y0 / g.hy)
    i1, j1 = round(x1 / g.hx), round(y1 / g.hy)
    assume((i0, j0) != (i1, j1))
    p0 = (i0 * g.hx, j0 * g.hy)
    p1 = (i1 * g.hx, j1 * g.hy)
    tr = dfm([p0, p1], g)
    path_len = sum(g.hx if e < g.n_hedges else g.hy for e in tr.fine_edges)
    straight = np.hypot(p1[0] - p0[0], p1[1] - p0[1])
    assert path_len >= straight - 1e-12
    if i0 == i1 or j0 == j1:
        assert abs(path_len - straight) < 1e-12


def test_path_connected():
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 10, 10, 10, t=0)
    tr = dfm([[0.11, 0.23], [0.52, 0.71], [0.83, 0.42]], g)
    path = tr.edge_node_path(g)
    for a, b in zip(path[:-1], path[1:]):
        (i0, j0), (i1, j1) = g.node_ij(a), g.node_ij(b)
        assert abs(i1 - i0) + abs(j1 - j0) == 1


# ---------------------------------------------------------------- EFM


def test_diagonal_overlaps_fully_crossed_cells():
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 2, 2, 2, t=0)  # 4x4 cells
    tr = efm([[0.25, 0.25], [0.75, 0.75]], g)
    by_cell = {}
    for cell, length in zip(tr.cells, tr.lengths):
        by_cell[cell] = by_cell.get(cell, 0.0) + length
    full = [c for c, L in by_cell.items() if abs(L - 0.25 * np.sqrt(2)) < 1e-12]
    assert len(full) == 2
    assert {g.cell_id(1, 1), g.cell_id(2, 2)} == set(full)


def test_centerline_single_cell_overlap():
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 2, 2, 2, t=0)
    tr = efm([[0.26, 0.375], [0.49, 0.375]], g)  # inside cell (1, 1)
    assert len(tr.cells) == 1
    assert tr.cells[0] == g.cell_id(1, 1)
    assert abs(tr.lengths[0] - 0.23) < 1e-12


def test_corner_touch_excluded():
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 2, 2, 2, t=0)
    # segment through the corner (0.5, 0.5) at 45 degrees touches two
    # cells only at that single point
    tr = efm([[0.3, 0.7], [0.7, 0.3]], g)
    touched = set(tr.cells.tolist())
    # cells (1,2) and (2,1) are crossed; (1,1) and (2,2) only touch the corner
    assert g.cell_id(1, 2) in touched and g.cell_id(2, 1) in touched
    assert g.cell_id(1, 1) not in touched and g.cell_id(2, 2) not in touched


def test_on_edge_fracture_not_double_counted():
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 5, 5, 8, t=0)
    tr = efm([[0.2, 0.5], [0.8, 0.5]], g)  # runs along fine-cell boundaries
    total = sum(tr.lengths)
    assert abs(total - 0.6) < 1e-10
    cells = tr.cells.tolist()
    assert len(cells) == len(set(cells))


@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 4))
def test_length_conservation(seed, nverts):
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 4, 4, 4, t=0)
    rng = np.random.default_rng(seed)
    poly = rng.uniform(0.05, 0.95, (nverts, 2))
    lens = np.hypot(*np.diff(poly, axis=0).T)
    assume(lens.min() > 0.05)
    tr = efm(poly, g)
    total = sum(tr.lengths)
    expect = lens.sum()
    assert abs(total - expect) <= 1e-10 * expect


@given(st.integers(0, 2 ** 31 - 1))
def test_overlaps_match_sampling_oracle(seed):
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 3, 3, 3, t=0)
    rng = np.random.default_rng(seed)
    poly = rng.uniform(0.08, 0.92, (2, 2))
    assume(np.hypot(*(poly[1] - poly[0])) > 0.1)
    tr = efm(poly, g)
    got = {}
    for cell, length in zip(tr.cells, tr.lengths):
        got[cell] = got.get(cell, 0.0) + length
    want, _ = sampled_overlap_lengths(poly, g)
    for cid in set(got) | set(want):
        assert abs(got.get(cid, 0.0) - want.get(cid, 0.0)) < 2e-5


def scalar_overlaps(f, g):
    """(cell, length, midpoint, arclength) of every overlap piece, in
    order, by one scalar Liang-Barsky clip per cell of each segment's
    bounding box and a claim subtraction against every earlier piece
    (oracle: the cell-by-cell clip that the cut at grid-line crossings
    replaced; a fracture along a cell edge goes to the lower/left cell,
    which claims it first)."""
    def clip(p0, p1, cx0, cy0, cx1, cy1):
        d = p1 - p0
        t0, t1 = 0.0, 1.0
        for delta, lo, hi, p in ((d[0], cx0, cx1, p0[0]), (d[1], cy0, cy1, p0[1])):
            if delta == 0.0:
                if p < lo or p > hi:
                    return None
                continue
            ta, tb = (lo - p) / delta, (hi - p) / delta
            if ta > tb:
                ta, tb = tb, ta
            t0, t1 = max(t0, ta), min(t1, tb)
            if t0 > t1:
                return None
        return t0, t1

    def subtract(span, claimed):
        parts = [span]
        for c0, c1 in claimed:
            nxt = []
            for a, b in parts:
                if min(b, c1) <= max(a, c0):
                    nxt.append((a, b))
                    continue
                if c0 > a:
                    nxt.append((a, c0))
                if c1 < b:
                    nxt.append((c1, b))
            parts = nxt
        return parts

    out, s = [], 0.0
    x0d, y0d = g.domain.x0, g.domain.y0
    for p0, p1 in zip(f.polyline[:-1], f.polyline[1:]):
        seg = float(np.hypot(*(p1 - p0)))
        ilo = int(np.clip(np.floor((min(p0[0], p1[0]) - x0d) / g.hx - 1e-12),
                          0, g.fine_nx - 1))
        ihi = int(np.clip(np.ceil((max(p0[0], p1[0]) - x0d) / g.hx + 1e-12),
                          1, g.fine_nx))
        jlo = int(np.clip(np.floor((min(p0[1], p1[1]) - y0d) / g.hy - 1e-12),
                          0, g.fine_ny - 1))
        jhi = int(np.clip(np.ceil((max(p0[1], p1[1]) - y0d) / g.hy + 1e-12),
                          1, g.fine_ny))
        claimed = []
        for j in range(jlo, jhi):
            for i in range(ilo, ihi):
                span = clip(p0, p1, x0d + i * g.hx, y0d + j * g.hy,
                            x0d + (i + 1) * g.hx, y0d + (j + 1) * g.hy)
                if span is None:
                    continue
                for t0, t1 in subtract(span, claimed):
                    length = (t1 - t0) * seg
                    if length <= g.geom_tol:
                        continue
                    claimed.append((t0, t1))
                    tm = 0.5 * (t0 + t1)
                    out.append((g.cell_id(i, j), length, p0 + tm * (p1 - p0),
                                s + tm * seg))
        s += seg
    return out


def exact(piece):
    """An overlap piece as comparable bytes."""
    cell, length, midpoint, arclength = piece
    return (int(cell), np.float64(length).tobytes(),
            np.asarray(midpoint, dtype=float).tobytes(),
            np.float64(arclength).tobytes())


def efm_field(g):
    return mf.fields.FIELD_GENERATORS["single_long_efm"](g, seed=0, kappa_f=10.0).efm[0]


@pytest.mark.parametrize("case", ["single_long_efm_r20", "efm_single", "on_hline",
                                  "on_vline", "through_corners", "inner_vertex",
                                  "on_left_edge", "on_bottom_edge", "down_left"])
def test_vectorized_clip_matches_scalar_loop(case):
    if case == "single_long_efm_r20":       # bench/configs/efm_sweep_r20.yml
        g = mf.build_hierarchy(mf.UNIT_SQUARE, 10, 10, 20, t=2)
        f = efm_field(g)
    elif case == "efm_single":              # configs/efm_single.yml
        g = mf.build_hierarchy(mf.UNIT_SQUARE, 10, 10, 10, t=2)
        f = efm_field(g)
    else:
        g = mf.build_hierarchy(mf.UNIT_SQUARE, 5, 5, 8, t=0)
        poly = {"on_hline": [[0.2, 0.5], [0.8, 0.5]],      # delta_y == 0, claims
                "on_vline": [[0.325, 0.9], [0.325, 0.15]],  # delta_x == 0, claims
                "through_corners": [[0.25, 0.25], [0.75, 0.75]],
                "inner_vertex": [[0.13, 0.21], [0.57, 0.48], [0.91, 0.86]],
                "on_left_edge": [[0, 0.2], [0, 0.8]],         # cell 0 on the edge
                "on_bottom_edge": [[0.7, 0], [0.1, 0]],
                "down_left": [[0.83, 0.71], [0.47, 0.52], [0.12, 0.09]]}[case]
        f = mf.Fracture(np.asarray(poly, float), 1e-3, 1e4, "efm", 0)
    want = [exact(p) for p in scalar_overlaps(f, g)]
    tr = mf.intersect_efm(f, g)
    got = [exact(p) for p in zip(tr.cells, tr.lengths, tr.midpoints, tr.mid_arcs)]
    assert len(want) > 0
    assert got == want


def test_frac_nodes_ordered_and_dense_enough():
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 4, 4, 4, t=0)
    tr = efm([[0.1, 0.2], [0.6, 0.5], [0.9, 0.85]], g)
    assert (np.diff(tr.arclengths) > 0).all()
    assert np.diff(tr.arclengths).max() <= min(g.hx, g.hy) + 1e-12
    # polyline vertices are mesh nodes
    arcs = np.concatenate([[0.0], np.cumsum(np.hypot(*np.diff(
        np.array([[0.1, 0.2], [0.6, 0.5], [0.9, 0.85]]), axis=0).T))])
    for a in arcs:
        assert np.min(np.abs(tr.arclengths - a)) < 1e-12


def test_efm_degenerate_raises():
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 4, 4, 4, t=0)
    with pytest.raises(GeometryError):
        efm([[0.5, 0.5], [0.5, 0.5]], g)


def test_fracture_validation():
    with pytest.raises(ValueError):
        mf.Fracture(np.array([[0.1, 0.1]]), 1e-3, 1e4, "dfm", 0)
    with pytest.raises(ValueError):
        mf.Fracture(np.array([[0.1, 0.1], [0.2, 0.2]]), -1e-3, 1e4, "dfm", 0)
    with pytest.raises(ValueError):
        mf.Fracture(np.array([[0.1, 0.1], [0.2, 0.2]]), 1e-3, 0.0, "dfm", 0)
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 4, 4, 4, t=0)
    f = mf.Fracture(np.array([[0.1, 0.1], [1.2, 0.2]]), 1e-3, 1e4, "efm", 3)
    with pytest.raises(GeometryError, match="3"):
        mf.intersect_efm(f, g)


def test_network_split_by_model():
    fs = [mf.Fracture(np.array([[0.1, 0.1], [0.5, 0.1]]), 1e-3, 1e4, "dfm", 0),
          mf.Fracture(np.array([[0.2, 0.6], [0.8, 0.7]]), 1e-3, 1e2, "efm", 1)]
    net = mf.FractureNetwork(fs)
    assert [f.id for f in net.dfm] == [0]
    assert [f.id for f in net.efm] == [1]
    assert fs[0].conductivity == pytest.approx(10.0)


def test_generators_terminate_on_tiny_grids():
    # a 3x3 coarse grid leaves almost no room after the boundary margin;
    # the generators must settle for fewer fractures, not spin forever,
    # and one that has room for none says so
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 3, 3, 2, t=0)
    for name, gen in mf.fields.FIELD_GENERATORS.items():
        if name in NO_ROOM[3, 3, 2]:
            assert draws_nothing(gen, g, 0), name
            continue
        net = gen(g, seed=0)
        for f in net.fractures:
            assert np.all(f.polyline[:, 0] >= g.domain.x0 - 1e-12)
            assert np.all(f.polyline[:, 1] <= g.domain.y1 + 1e-12)


def test_a_field_that_draws_nothing_raises_for_every_caller():
    # a direct call of a generator, or of its FIELD_GENERATORS entry, on a
    # grid with no room for the field gets the error a configured run gets
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 3, 3, 2, t=0)
    for gen in (mf.fields.crossing_channels, mf.fields.FIELD_GENERATORS["crossing_network"]):
        with pytest.raises(GeometryError, match=rf"^fractures\.field '{gen.__name__}' "
                                                r"draws no fracture at seed 3 on 3x3@2$"):
            gen(g, seed=3)
    assert mf.fields.crossing_channels(mf.build_hierarchy(
        mf.UNIT_SQUARE, 4, 4, 4, t=0), seed=3).fractures
