"""Offline stage of the multiscale solver.

Per coarse node i this produces, in order, a partition-of-unity
function chi_i and the weight kappa_tilde of the spectral mass, one
value per fine cell and one per fine edge (``compute_pou``), a snapshot
space on the neighborhood omega_i (``full_snapshots``,
``randomized_snapshots``) and the smallest modes of the snapshot
pencil, the offline basis of omega_i (``offline_eigendecomposition``).
Each neighborhood keeps only chi_i on its own fine nodes, all its
eigenvalues and one fine-nodal copy of the modes its run reads; the
snapshots and the pencil are dropped once the eigensolve returns.  How
many of the kept modes a coarse node uses is decided by the online
stage (``build_space``).

The POU and both snapshot kinds rest on one local solve,
``harmonic_extension``: the Dirichlet problem of a box's own stiffness,
which carries the conforming-fracture edge terms, factored once.  Boxes
whose local problems read byte-identical data (``_problem_key``) form
one group (``_groups``) on one factor: a coarse cell's group solves the
four corner fields once, and the neighborhoods' groups are the units
of work of ``offline_spaces``, which runs the whole stage.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse.linalg as spla
from scipy.linalg import solve_triangular

from .grids import CellBox, GridHierarchy
from .assembly import FineSystem, _point_values, node_operator, q1_shape_tables

__all__ = [
    "PartitionOfUnity", "SnapshotSpace", "NeighborhoodSpace",
    "compute_pou", "full_snapshots", "randomized_snapshots",
    "offline_eigendecomposition", "harmonic_extension", "offline_spaces",
]


def harmonic_extension(g: GridHierarchy, sys: FineSystem, box: CellBox):
    """Factor the Dirichlet problem of the box stiffness of sys on box
    once, and return the function that solves it for given rim values.

    The operator is the one ``node_operator`` assembles on box, numbered
    like ``g.box_nodes(box)``.  Only its rows at the interior nodes are
    read, and those equal the whole-grid operator's rows there bit for
    bit: they sum the same cell and edge terms in the same order.  Their
    stored zeros are dropped before the one sparse LU, so the factor
    depends on the values of those rows alone.  The returned function
    takes the values on the box rim (``g.box_rim(box)``), one column per
    extension, and returns each extension on ``g.box_nodes(box)``: those
    values on the rim and, at the interior nodes, the solution of the
    operator's rows there, from one solve on the factor.
    """
    rim = g.box_rim(box)
    Ai = node_operator(g, sys.perm.kappa_cells, sys.edge_arrays, box=box)[~rim]
    Ai.eliminate_zeros()
    lu, Ar = spla.splu(Ai[:, ~rim].tocsc()), Ai[:, rim]

    def extend(gb) -> np.ndarray:
        gb = np.reshape(gb, (Ar.shape[1], -1))
        u = np.empty((len(rim), gb.shape[1]))
        u[rim] = gb
        u[~rim] = lu.solve(-np.asarray(Ar @ gb))
        return u
    return extend


def _problem_key(g: GridHierarchy, box: CellBox, sys: FineSystem,
                 pou: PartitionOfUnity | None = None) -> tuple:
    """Everything a local problem on ``box`` reads, as exact bytes: the
    box shape and, for each pair of cell and edge weights, the cell
    weights on the box cells and the edge weights on the edges of the
    closed box (``g.box_edge_weights``).  Without pou the problem is the
    harmonic extension with the stiffness of sys.  It reads only the
    operator rows at the box's interior nodes, so the edges with both
    ends on the rim, which touch no such row, are left out: the first
    and last rows of horizontal edges and the first and last columns of
    vertical ones.  With pou it is a neighborhood's whole spectral
    problem, which also reads kappa_tilde and its edge weights.

    Two problems with equal keys see byte-identical local data, so they
    run the same computation (on one BLAS thread) and get the same
    result, which is why one factor may serve both (``_groups``).  The
    box operators (``node_operator``) are summed from these same cell and
    edge weights in a fixed order.  The bytes are compared exactly, never
    to a tolerance.
    """
    cells = g.box_cells(box)
    key = [(box.i1 - box.i0, box.j1 - box.j0)]
    forms = [(sys.perm.kappa_cells, sys.edge_arrays)] + (
        [] if pou is None else [(pou.kappa_tilde, pou.edge_kappa_tilde)])
    for cell_weights, edge_weights in forms:
        h, v = g.box_edge_weights(edge_weights, box)
        if pou is None:
            h, v = h[1:-1], v[:, 1:-1]
        key += [cell_weights[cells].tobytes(), h.tobytes(), v.tobytes()]
    return tuple(key)


def _groups(keys) -> list[list[int]]:
    """The positions of equal keys, one ascending list per distinct key in
    order of first appearance; only the distinct keys are held."""
    groups: dict[tuple, list[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return list(groups.values())


@dataclass
class PartitionOfUnity:
    """Multiscale hat functions chi_i and the energy weight they induce."""

    grid: GridHierarchy
    chi: list[np.ndarray]             # chi_i on neighborhoods[i].node_ids
    kappa_tilde: np.ndarray           # per fine cell
    edge_kappa_tilde: np.ndarray      # per fine edge

    def boundary_lift(self, bc) -> np.ndarray:
        """POU interpolant of the boundary data over boundary coarse nodes.

        The lift l = sum_i g(x_i) chi_i (i on the domain boundary) is
        linear along every boundary edge, hence exact for bilinear data.
        """
        g = self.grid
        lift = np.zeros(g.n_nodes)
        bnd = [nb for nb in g.neighborhoods if not nb.is_interior]
        x, y = g.node_coords[g.coarse_nodes[[nb.index for nb in bnd]]].T
        for nb, v in zip(bnd, _point_values(bc, x, y)):
            lift[nb.node_ids] += v * self.chi[nb.index]
        return lift


def compute_pou(g: GridHierarchy, sys: FineSystem) -> PartitionOfUnity:
    """Partition of unity by per-coarse-cell harmonic extension.

    On each coarse cell the four corner functions extend boundary data
    that is linear along the cell edges (1 at the corner, 0 at the
    others), solved with the fracture-aware operator; their sum extends
    the constant 1 and is therefore exactly 1.  They are solved once per
    group of cells with equal ``_problem_key``.
    """
    r, row = g.refine, g.coarse_nx + 1
    # the corner data on the rim of every cell, in cell-local coordinates
    jl, il = np.divmod(np.flatnonzero(g.box_rim(CellBox(0, 0, r, r))), r + 1)
    xi, eta = il / r, jl / r
    gb = np.column_stack([(1 - xi) * (1 - eta), xi * (1 - eta),
                          xi * eta, (1 - xi) * eta])
    chi = [np.zeros(len(nb.node_ids)) for nb in g.neighborhoods]
    boxes = [CellBox(I * r, J * r, (I + 1) * r, (J + 1) * r)
             for J in range(g.coarse_ny) for I in range(g.coarse_nx)]
    for group in _groups(_problem_key(g, box, sys) for box in boxes):
        X = harmonic_extension(g, sys, boxes[group[0]])(gb)
        for cell in group:
            J, I = divmod(cell, g.coarse_nx)
            j, i = np.divmod(g.box_nodes(boxes[cell]), g.fine_nx + 1)
            sw = J * row + I
            for k, c in enumerate((sw, sw + 1, sw + row + 1, sw + row)):
                # chi_c is numbered on the nodes of its neighborhood box
                b = g.neighborhoods[c].cells
                chi[c][(j - b.j0) * (b.i1 - b.i0 + 1) + (i - b.i0)] = X[:, k]

    # cell-wise kappa_tilde: kappa * sum_i H^2 |grad chi_i|^2, averaged
    # over the 2x2 Gauss points of each cell
    _, gx, gy, _ = q1_shape_tables(g.hx, g.hy)
    H2 = g.Hx * g.Hy
    grad2 = np.zeros(g.n_cells)
    for nb in g.neighborhoods:
        cells = g.box_cells(nb.cells)
        ch = chi[nb.index][g.box_cell_nodes(nb.cells)]
        gxv = ch @ gx.T                               # (m, 4 gauss pts)
        gyv = ch @ gy.T
        grad2[cells] += np.mean(gxv ** 2 + gyv ** 2, axis=1)
    kappa_tilde = sys.perm.kappa_cells * H2 * grad2

    # fracture edges carry the pointwise-energy field restricted to the
    # line, with the fracture conductivity in place of kappa.  The full
    # chi gradient matters here: the harmonic chi flattens tangentially
    # along a conductive fracture, but its normal boundary layer is what
    # weights the fracture in the spectral mass.  An edge takes the mean
    # of grad2 over the one or two cells beside it; a boundary edge's
    # one cell is repeated, and (x + x) / 2 is x exactly.
    G = grad2.reshape(g.fine_ny, g.fine_nx)
    P, Q = np.pad(G, ((1, 1), (0, 0)), "edge"), np.pad(G, ((0, 0), (1, 1)), "edge")
    mean = np.empty(g.n_edges)
    h, v = g.box_edge_weights(mean, CellBox(0, 0, g.fine_nx, g.fine_ny))
    h[:], v[:] = (P[:-1] + P[1:]) / 2, (Q[:, :-1] + Q[:, 1:]) / 2

    return PartitionOfUnity(grid=g, chi=chi, kappa_tilde=kappa_tilde,
                            edge_kappa_tilde=sys.edge_arrays * H2 * mean)


@dataclass
class SnapshotSpace:
    """Local solution samples on one neighborhood.

    ``vectors`` is (patch nodes x l_i) dense in the sorted node order of
    ``node_ids``.
    """

    omega_id: int
    vectors: np.ndarray
    node_ids: np.ndarray

    @property
    def l_i(self) -> int:
        return self.vectors.shape[1]


def full_snapshots(g: GridHierarchy, sys: FineSystem, omega_id: int) -> SnapshotSpace:
    """One harmonic extension per fine boundary node of the neighborhood."""
    nb = g.neighborhoods[omega_id]
    n_rim = int(np.count_nonzero(g.box_rim(nb.cells)))
    return SnapshotSpace(omega_id=omega_id,
                         vectors=harmonic_extension(g, sys, nb.cells)(np.eye(n_rim)),
                         node_ids=nb.node_ids)


def randomized_snapshots(g: GridHierarchy, sys: FineSystem, omega_id: int,
                         k_nb: int, p_bf: int = 4, seed: int = 0,
                         extend=None) -> SnapshotSpace:
    """k_nb + p_bf harmonic extensions of random boundary data, plus one
    constant snapshot, generated on the oversampled region and restricted
    to the neighborhood.  ``extend`` solves them (``harmonic_extension``
    on the oversampled box; a factor of its own box stiffness when None).

    Boundary values are i.i.d. uniform(-1, 1); the stream is seeded per
    neighborhood so results do not depend on evaluation order.
    """
    if k_nb < 1:
        raise ValueError("k_nb must be >= 1")
    if p_bf < 0:
        raise ValueError("p_bf must be >= 0")
    nb = g.neighborhoods[omega_id]
    box = nb.cells_plus
    extend = extend or harmonic_extension(g, sys, box)
    n_rim = int(np.count_nonzero(g.box_rim(box)))
    rng = np.random.default_rng([seed, omega_id])
    G = rng.uniform(-1.0, 1.0, size=(n_rim, k_nb + p_bf))
    X = extend(G)[np.searchsorted(g.box_nodes(box), nb.node_ids)]
    # the harmonic extension of 1 is 1
    vectors = np.column_stack([X, np.ones(len(X))])
    return SnapshotSpace(omega_id=omega_id, vectors=vectors, node_ids=nb.node_ids)


@dataclass
class NeighborhoodSpace:
    """Spectral modes of one neighborhood's snapshot pencil.

    Neighborhoods with the same local problem share ``eigvals`` and
    ``basis_full``, so both arrays are read-only.
    """

    omega_id: int
    node_ids: np.ndarray
    eigvals: np.ndarray           # all l_i eigenvalues, ascending
    basis_full: np.ndarray        # the first modes the run reads, fine-nodal
    regularized: bool = False

    def __post_init__(self):
        self.eigvals.flags.writeable = False
        self.basis_full.flags.writeable = False

    @property
    def l_i(self) -> int:
        return len(self.eigvals)


def _mass_factor(S: np.ndarray, omega_id: int):
    """Lower Cholesky factor of the snapshot mass S and whether S was
    shifted first.

    S is shifted by 1e-12 tr(S)/l_i where it does not factor or its
    smallest pivot squared is below 1e-14 tr(S), i.e. where snapshots
    are dependent to working precision, and by 1e-10 tr(S)/l_i if that
    shift does not factor either.
    """
    tr, n = np.trace(S), len(S)
    try:
        L = np.linalg.cholesky(S)
        if np.min(np.diag(L)) ** 2 >= 1e-14 * tr:
            return L, False
    except np.linalg.LinAlgError:
        pass
    for rel in (1e-12, 1e-10):
        try:
            return np.linalg.cholesky(S + (rel * tr / n) * np.eye(n)), True
        except np.linalg.LinAlgError:
            pass
    raise np.linalg.LinAlgError(
        f"neighborhood {omega_id}: snapshot mass matrix is not positive "
        "definite after regularization")


def offline_eigendecomposition(snap: SnapshotSpace, sys: FineSystem,
                               pou: PartitionOfUnity,
                               n_modes: int | None = None) -> NeighborhoodSpace:
    """Eigenpairs of A_off Psi = lambda S_off Psi on one neighborhood:
    all l_i eigenvalues, and the first ``n_modes`` modes (all of them
    when None) mapped to fine nodes.

    Both forms are integrated over the neighborhood only (local
    re-assembly, not a submatrix of the global operators, which would
    leak energy from the surrounding cells into the boundary rows).
    With S_off = L L^T the pencil has the eigenvalues of the symmetric
    C = L^-1 A_off L^-T, and Psi = L^-T Q for C's eigenvectors Q (Golub
    & Van Loan, Matrix Computations, 8.7).
    """
    k = snap.l_i if n_modes is None else min(n_modes, snap.l_i)
    if k < 1:
        raise ValueError("n_modes must be >= 1")
    g = sys.grid
    nb = g.neighborhoods[snap.omega_id]
    A_loc = node_operator(g, sys.perm.kappa_cells, sys.edge_arrays,
                          kind="stiffness", box=nb.cells)
    S_loc = node_operator(g, pou.kappa_tilde, pou.edge_kappa_tilde,
                          kind="mass", box=nb.cells)
    V = snap.vectors
    A_off = V.T @ (A_loc @ V)
    S_off = V.T @ (S_loc @ V)
    A_off = 0.5 * (A_off + A_off.T)
    S_off = 0.5 * (S_off + S_off.T)

    L, regularized = _mass_factor(S_off, snap.omega_id)
    C = solve_triangular(L, solve_triangular(L, A_off, lower=True).T, lower=True)
    w, Q = np.linalg.eigh(0.5 * (C + C.T))
    Psi = solve_triangular(L, Q[:, :k], lower=True, trans="T")

    # deterministic sign: largest-magnitude snapshot coordinate positive
    flip = np.sign(Psi[np.argmax(np.abs(Psi), axis=0), np.arange(Psi.shape[1])])
    flip[flip == 0] = 1.0
    Psi = Psi * flip

    # rescale the lowest mode to reproduce the constant where it does so
    # up to scaling (then chi-weighted sums of first modes recover 1)
    psi1 = V @ Psi[:, 0]
    denom = float(psi1 @ psi1)
    if denom > 0:
        alpha = float(psi1.sum()) / denom
        if np.max(np.abs(alpha * psi1 - 1.0)) <= 1e-6:
            Psi[:, 0] *= alpha

    return NeighborhoodSpace(omega_id=snap.omega_id, node_ids=snap.node_ids,
                             eigvals=w, basis_full=V @ Psi,
                             regularized=regularized)


def _group_spaces(g, sys, off, pou, n_modes, group: list[int]):
    """Spectral spaces of one group of neighborhoods (``offline_spaces``)."""
    if off.mode == "randomized":
        extend = harmonic_extension(g, sys, g.neighborhoods[group[0]].cells_plus)
        return [offline_eigendecomposition(randomized_snapshots(
                    g, sys, i, off.k_nb, off.p_bf, off.seed, extend),
                    sys, pou, n_modes) for i in group]
    space = offline_eigendecomposition(full_snapshots(g, sys, group[0]),
                                       sys, pou, n_modes)
    return [replace(space, omega_id=i, node_ids=g.neighborhoods[i].node_ids)
            for i in group]


def offline_spaces(g: GridHierarchy, sys: FineSystem, off,
                   n_modes: int | None = None, map=map):
    """POU and local spectral spaces, in neighborhood order, of the
    offline settings ``off``; each space keeps all its eigenvalues and
    its first ``n_modes`` modes (all when None).  A full-snapshot group
    (equal ``cells`` keys with the POU) is solved once, its members
    sharing read-only arrays; a randomized group (equal ``cells_plus``
    keys) shares one factor, and each member solves its own draws and
    spectra.  ``map`` runs the groups; on one BLAS thread no result
    depends on their order or on which member leads a group."""
    pou = compute_pou(g, sys)
    randomized = off.mode == "randomized"
    keys = (_problem_key(g, nb.cells_plus, sys) if randomized
            else _problem_key(g, nb.cells, sys, pou) for nb in g.neighborhoods)
    solved = map(lambda group: _group_spaces(g, sys, off, pou, n_modes, group),
                 _groups(keys))
    return pou, sorted((sp for group in solved for sp in group),
                       key=lambda sp: sp.omega_id)
