"""Grid hierarchy: neighborhoods, oversampling, numbering.

The neighborhood oracle below enumerates fine cells by brute force from
the definition (cells of the coarse elements touching a coarse vertex,
dilated by t fine layers and clipped), independent of the CellBox
arithmetic used by the implementation.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

import msfrac as mf

from conftest import operator_boxes


def oracle_neighborhood(coarse_nx, coarse_ny, refine, t, ci, cj):
    """Fine-cell index set of omega_i and omega_i+ from first principles."""
    cells = set()
    for CJ in (cj - 1, cj):
        for CI in (ci - 1, ci):
            if 0 <= CI < coarse_nx and 0 <= CJ < coarse_ny:
                for j in range(CJ * refine, (CJ + 1) * refine):
                    for i in range(CI * refine, (CI + 1) * refine):
                        cells.add((i, j))
    plus = set()
    fnx, fny = coarse_nx * refine, coarse_ny * refine
    for (i, j) in cells:
        for dj in range(-t, t + 1):
            for di in range(-t, t + 1):
                ii, jj = i + di, j + dj
                if 0 <= ii < fnx and 0 <= jj < fny:
                    plus.add((ii, jj))
    return cells, plus


def box_cell_set(box):
    return {(i, j) for j in range(box.j0, box.j1) for i in range(box.i0, box.i1)}


def test_corner_neighborhood_against_oracle():
    # 3x3 coarse, refine 4, t=1: corner node owns one coarse element
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 3, 3, 4, t=1)
    nb = g.neighborhoods[0]
    cells, plus = oracle_neighborhood(3, 3, 4, 1, nb.ci, nb.cj)
    assert box_cell_set(nb.cells) == cells
    assert box_cell_set(nb.cells_plus) == plus
    assert nb.cells.ncells == 16        # 4x4 fine cells
    assert nb.cells_plus.ncells == 25   # 5x5 after clipping


@given(st.integers(2, 4), st.integers(2, 4), st.integers(2, 5), st.integers(0, 3))
def test_all_neighborhoods_against_oracle(cnx, cny, refine, t):
    g = mf.build_hierarchy(mf.UNIT_SQUARE, cnx, cny, refine, t=t)
    for nb in g.neighborhoods:
        cells, plus = oracle_neighborhood(cnx, cny, refine, t, nb.ci, nb.cj)
        assert box_cell_set(nb.cells) == cells
        assert box_cell_set(nb.cells_plus) == plus


def test_reference_scale_hierarchy():
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 10, 10, 10, t=2)
    assert g.fine_nx == g.fine_ny == 100
    assert g.n_coarse_nodes == 121
    interior = [nb for nb in g.neighborhoods if nb.is_interior]
    assert len(interior) == 81
    deep = next(nb for nb in interior if nb.ci == 5 and nb.cj == 5)
    assert deep.cells.ncells == 20 * 20
    assert deep.cells_plus.ncells == 24 * 24
    near = next(nb for nb in interior if nb.ci == 1 and nb.cj == 1)
    assert near.cells_plus.ncells == 22 * 22  # clipped at the domain corner


def test_smallest_hierarchy_t0_identity():
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 2, 2, 2, t=0)
    assert g.fine_nx == g.fine_ny == 4
    assert g.n_coarse_nodes == 9
    for nb in g.neighborhoods:
        assert nb.cells == nb.cells_plus


def test_every_fine_node_covered():
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 3, 3, 3, t=0)
    covered = set()
    for nb in g.neighborhoods:
        covered.update(nb.node_ids.tolist())
    assert covered == set(range(g.n_nodes))


def test_interior_neighborhood_is_four_coarse_cells():
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 4, 3, 2, t=0)
    for nb in g.neighborhoods:
        assert nb.is_interior == (0 < nb.ci < 4 and 0 < nb.cj < 3)
        assert nb.is_interior == (nb.cells.ncells == (2 * g.refine) ** 2)


@given(st.integers(0, 2), st.integers(0, 3))
def test_dilation_monotone(t1, extra):
    t2 = t1 + extra
    g1 = mf.build_hierarchy(mf.UNIT_SQUARE, 3, 3, 3, t=t1)
    g2 = mf.build_hierarchy(mf.UNIT_SQUARE, 3, 3, 3, t=t2)
    for a, b in zip(g1.neighborhoods, g2.neighborhoods):
        assert box_cell_set(a.cells_plus) <= box_cell_set(b.cells_plus)


def test_partition_of_fine_cells_by_coarse_elements():
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 3, 2, 4, t=0)
    owner = {}
    for CJ in range(2):
        for CI in range(3):
            for j in range(CJ * 4, (CJ + 1) * 4):
                for i in range(CI * 4, (CI + 1) * 4):
                    key = (i, j)
                    assert key not in owner
                    owner[key] = (CI, CJ)
    assert len(owner) == g.n_cells


def test_node_numbering_x_fastest():
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 2, 2, 2, t=0)
    assert g.node_id(0, 0) == 0
    assert g.node_id(1, 0) == 1
    assert g.node_id(0, 1) == g.fine_nx + 1
    np.testing.assert_allclose(g.node_coords[g.node_id(2, 3)], [0.5, 0.75])


def test_cell_nodes_ccw():
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 2, 2, 2, t=0)
    sw, se, ne, nw = g.cell_nodes(g.cell_id(1, 2))
    assert sw == g.node_id(1, 2)
    assert se == g.node_id(2, 2)
    assert ne == g.node_id(2, 3)
    assert nw == g.node_id(1, 3)


def test_boundary_interior_split():
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 2, 2, 3, t=0)
    mask = g.boundary_node_mask()
    ids = np.flatnonzero(mask)
    coords = g.node_coords[ids]
    on_edge = ((coords[:, 0] == 0) | (coords[:, 0] == 1)
               | (coords[:, 1] == 0) | (coords[:, 1] == 1))
    assert on_edge.all()
    assert mask.sum() == 4 * g.fine_nx


def lattice(nx, ny):
    """A grid whose fine-node lattice is nx by ny nodes; the dissection
    order reads the lattice size alone."""
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 2, 2, 2, t=0)
    return dataclasses.replace(g, fine_nx=nx - 1, fine_ny=ny - 1)


@pytest.mark.parametrize("nx,ny", [(1, 1), (2, 2), (3, 7), (11, 11),
                                   (201, 41), (201, 201)])
def test_dissection_order_is_a_permutation(nx, ny):
    order = lattice(nx, ny).dissection_order()
    assert order.shape == (nx * ny,)
    assert np.array_equal(np.sort(order), np.arange(nx * ny))


@pytest.mark.parametrize("nx,ny", [(3, 7), (4, 3), (11, 11), (12, 5), (201, 41)])
def test_dissection_separator_decouples_the_halves(nx, ny):
    # the order ends with one full node line across the longer side; the
    # nodes before it fall into two blocks, and no 9-point stencil (a
    # node and its 8 neighbours) reaches from the first into the second
    order = lattice(nx, ny).dissection_order()
    i, j = order % nx, order // nx
    along, across, n_line = (i, j, ny) if nx >= ny else (j, i, nx)
    cut = along[-1]
    assert np.all(along[-n_line:] == cut)
    assert np.array_equal(across[-n_line:], np.arange(n_line))
    n_lo = np.count_nonzero(along < cut)
    assert n_lo > 0 and np.all(along[:n_lo] < cut)
    assert np.all(along[n_lo:-n_line] > cut)
    label = np.empty((ny, nx), dtype=int)
    label[j, i] = np.repeat([0, 1, 2], [n_lo, len(order) - n_lo - n_line, n_line])
    pad = np.pad(label, 1, constant_values=2)
    for dj in (-1, 0, 1):
        for di in (-1, 0, 1):
            near = pad[1 + dj:1 + dj + ny, 1 + di:1 + di + nx]
            assert not np.any((label == 0) & (near == 1))


def test_dissection_leaves_are_x_fastest():
    # a lattice of at most 8 nodes is one leaf: the plain node order
    for nx, ny in [(1, 1), (2, 4), (8, 1), (1, 8)]:
        assert np.array_equal(lattice(nx, ny).dissection_order(), np.arange(nx * ny))
    # 3 x 3 is cut along its middle column
    assert lattice(3, 3).dissection_order().tolist() == [0, 3, 6, 2, 5, 8, 1, 4, 7]


def test_box_edge_weights_follow_the_edge_ids():
    # a non-square grid and every box a run assembles on; the field's
    # value on an edge is its id, so a slice names the edges it holds
    g = mf.build_hierarchy(mf.Rect(0.0, 0.0, 2.0, 1.0), 4, 3, 3, t=2)
    assert g.fine_nx != g.fine_ny
    w = np.arange(g.n_edges, dtype=float)
    a, b = g.edge_nodes(np.arange(g.n_edges))
    for box in operator_boxes(g):
        box = box or mf.CellBox(0, 0, g.fine_nx, g.fine_ny)
        h, v = g.box_edge_weights(w, box)
        assert np.shares_memory(h, w) and np.shares_memory(v, w)
        i, j = np.meshgrid(np.arange(box.i0, box.i1), np.arange(box.j0, box.j1 + 1))
        assert np.array_equal(h, w[g.hedge_id(i, j)])
        i, j = np.meshgrid(np.arange(box.i0, box.i1 + 1), np.arange(box.j0, box.j1))
        assert np.array_equal(v, w[g.vedge_id(i, j)])
        # exactly the edges with both ends in the closed node rectangle
        nodes = g.box_nodes(box)
        inside = np.isin(a, nodes) & np.isin(b, nodes)
        assert sorted(np.r_[h.ravel(), v.ravel()]) == np.flatnonzero(inside).tolist()
        # the cut of the extension key keeps exactly those with an end
        # off the box rim
        rim = nodes[g.box_rim(box)]
        off_rim = inside & ~(np.isin(a, rim) & np.isin(b, rim))
        assert (sorted(np.r_[h[1:-1].ravel(), v[:, 1:-1].ravel()])
                == np.flatnonzero(off_rim).tolist())


def test_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        mf.build_hierarchy(mf.UNIT_SQUARE, 1, 2, 2, t=0)
    with pytest.raises(ValueError):
        mf.build_hierarchy(mf.UNIT_SQUARE, 2, 2, 1, t=0)
    with pytest.raises(ValueError):
        mf.build_hierarchy(mf.UNIT_SQUARE, 2, 2, 2, t=-1)
    with pytest.raises(ValueError):
        mf.build_hierarchy(mf.Rect(0, 0, 0, 1), 2, 2, 2, t=0)
