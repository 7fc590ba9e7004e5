import os

import numpy as np
import pytest
from hypothesis import settings, HealthCheck

import msfrac as mf
from msfrac import driver
from msfrac.assembly import node_operator

settings.register_profile(
    "default",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("thorough", deadline=None, max_examples=200)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    """Every test runs on one BLAS thread, the cap every command runs
    under (``driver._one_blas_thread``)."""
    with driver._one_blas_thread():
        yield


def dense_chi(pou):
    """The POU functions as dense rows, (coarse nodes x fine nodes)."""
    g = pou.grid
    chi = np.zeros((g.n_coarse_nodes, g.n_nodes))
    for nb in g.neighborhoods:
        chi[nb.index, nb.node_ids] = pou.chi[nb.index]
    return chi


def cell_permeability(g, fn):
    """Permeability fn(x, y) at the fine-cell centers."""
    c = np.arange(g.n_cells)
    x = g.domain.x0 + (c % g.fine_nx + 0.5) * g.hx
    y = g.domain.y0 + (c // g.fine_nx + 0.5) * g.hy
    return mf.PermeabilityField(fn(x, y))


def two_embedded_system(g, perm, bc=None, f=None):
    """Fine system with two embedded fractures, which cross, and one
    conforming fracture."""
    efm = [mf.Fracture(np.array(poly), 1e-3, kf, "efm", k) for k, (poly, kf)
           in enumerate([([[0.15, 0.3], [0.85, 0.62]], 5e4),
                         ([[0.3, 0.85], [0.65, 0.2]], 8e4)])]
    dfm = mf.Fracture(np.array([[0.25, 0.25], [0.75, 0.25]]), 1e-3, 1e4,
                      "dfm", 2)
    return mf.assemble_efm(g, perm, [mf.rasterize_dfm(dfm, g)],
                           [mf.intersect_efm(fr, g) for fr in efm], bc=bc, f=f)


def operator_case(case):
    """(grid, fine system) of one of the grids the operator oracles run
    on: "channels", a channel network in which two traces share fine
    edges; "efm", one embedded fracture and no conforming edge; "plain",
    no fracture; "non_square", channels on cells with hx != hy."""
    if case == "non_square":
        g = mf.build_hierarchy(mf.Rect(0.0, 0.0, 2.0, 1.0), 4, 3, 3, t=2)
    else:
        g = mf.build_hierarchy(mf.UNIT_SQUARE, 4, 4, 4, t=2)
    perm = cell_permeability(g, lambda x, y: 1.0 + x + 2.0 * y)
    if case == "efm":
        (fr,) = mf.fields.single_long_efm(g, seed=0).efm
        return g, mf.assemble_efm(g, perm, [], [mf.intersect_efm(fr, g)])
    traces = [] if case == "plain" else [
        mf.rasterize_dfm(f, g) for f in mf.fields.crossing_channels(g, seed=1).dfm]
    return g, mf.assemble_dfm(g, perm, traces, bc=mf.bilinear_bc(0, 1, 1, 0))


def operator_boxes(g):
    """Every box a run assembles on: the whole grid (None), each
    neighborhood, each oversampled neighborhood and each coarse cell."""
    r = g.refine
    return ([None] + [nb.cells for nb in g.neighborhoods]
            + [nb.cells_plus for nb in g.neighborhoods]
            + [mf.CellBox(I * r, J * r, (I + 1) * r, (J + 1) * r)
               for J in range(g.coarse_ny) for I in range(g.coarse_nx)])


def neighborhood_spaces(sys, pou, kind="full", **snapshot_kw):
    """Offline space of every coarse node, from "full" or "randomized"
    snapshots; ``snapshot_kw`` goes to the snapshot builder.  A space
    keeps all its eigenvalues and the modes its caller reads, here every
    mode, from one eigensolve per neighborhood."""
    snapshots = {"full": mf.full_snapshots,
                 "randomized": mf.randomized_snapshots}[kind]
    return [mf.offline_eigendecomposition(
                snapshots(pou.grid, sys, nb.index, **snapshot_kw), pou)
            for nb in pou.grid.neighborhoods]


def mode_gram(pou, omega_id, space):
    """Gram matrix of the fine-nodal modes of neighborhood omega_id's
    space in its local S form.  Entry (0, 0) reads 1 where the first mode was rescaled to
    reproduce the constant (then that mode is 1 to within 1e-6)."""
    box = pou.grid.neighborhoods[omega_id].cells
    S_loc = node_operator(pou.grid, pou.kappa_tilde, pou.edge_kappa_tilde,
                          kind="mass", box=box)
    B = space.basis_full
    G = B.T @ (S_loc @ B)
    if np.max(np.abs(B[:, 0] - 1.0)) <= 1e-6:
        G[0, 0] = 1.0
    return G
