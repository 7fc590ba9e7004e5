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
which carries the conforming-fracture edge terms, on one banded Cholesky
factor; a snapshot space carries its neighborhood's box stiffness to
the pencil.  Boxes whose local problems read byte-identical data
(``_problem_key``) form one group (``_groups``), solved once: a coarse
cell's group solves the four corner fields and sums their gradient
energy, and a neighborhood's group, a unit of work of ``offline_spaces``
(the whole stage), makes one snapshot space of either kind and one pencil.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sparse
from scipy.linalg import cho_solve_banded, cholesky_banded, solve_triangular

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
    like ``g.box_nodes(box)``, and the function keeps it as ``stiffness``.
    Its rows at the interior nodes equal the whole-grid operator's rows
    there bit for bit.  Their block on the interior columns is SPD and
    banded in box order: its upper band, as wide as its stored entries
    reach, is Cholesky-factored once (LAPACK ``pbtrf``), and a block that
    is not positive definite raises ``LinAlgError`` naming the box; the
    band and the block A_ir on the rim columns are copied straight from
    the stored entries.  The function takes values g on the box rim
    (``g.box_rim(box)``), one column per extension, and returns each
    extension, its interior solved for -A_ir g, on ``g.box_nodes(box)``.
    """
    rim = g.box_rim(box)
    A = node_operator(g, sys.perm.kappa_cells, sys.edge_arrays, box=box)
    n, pos = np.count_nonzero(~rim), np.where(rim, np.cumsum(rim), np.cumsum(~rim)) - 1
    inner = np.repeat(~rim, np.diff(A.indptr))
    i = np.repeat(np.arange(n), np.diff(A.indptr)[~rim])
    j, a, to_rim = pos[A.indices[inner]], A.data[inner], rim[A.indices[inner]]
    d = np.where(to_rim, -1, j - i)          # the diagonal in the band, or -1
    band = np.zeros((d.max() + 1, n))
    band[d.max() - d[d >= 0], j[d >= 0]] = a[d >= 0]
    Ar = sparse.csr_matrix((a[to_rim], j[to_rim], np.searchsorted(
        i[to_rim], np.arange(n + 1))), shape=(n, len(rim) - n))
    try:
        factor = cholesky_banded(band, overwrite_ab=True), False
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError(
            f"box {box}: interior stiffness is not positive definite") from None

    def extend(gb) -> np.ndarray:
        gb = np.reshape(gb, (Ar.shape[1], -1))
        u = np.empty((len(rim), gb.shape[1]))
        u[rim] = gb
        u[~rim] = cho_solve_banded(factor, -np.asarray(Ar @ gb), overwrite_b=True)
        return u
    extend.stiffness = A
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
    the constant 1 and is therefore exactly 1.  They and their gradient
    energy are computed once per group of cells with equal ``_problem_key``.
    """
    r, row = g.refine, g.coarse_nx + 1
    # the corner data on the rim of every cell, in cell-local coordinates
    jl, il = np.divmod(np.flatnonzero(g.box_rim(CellBox(0, 0, r, r))), r + 1)
    xi, eta = il / r, jl / r
    gb = np.column_stack([(1 - xi) * (1 - eta), xi * (1 - eta),
                          xi * eta, (1 - xi) * eta])
    corners = g.box_cell_nodes(CellBox(0, 0, r, r))
    _, gx, gy, _ = q1_shape_tables(g.hx, g.hy)
    chi = [np.zeros(len(nb.node_ids)) for nb in g.neighborhoods]
    grad2 = np.empty((g.coarse_ny, r, g.coarse_nx, r))     # [J, j, I, i]
    boxes = [CellBox(I * r, J * r, (I + 1) * r, (J + 1) * r)
             for J in range(g.coarse_ny) for I in range(g.coarse_nx)]
    for group in _groups(_problem_key(g, box, sys) for box in boxes):
        X = harmonic_extension(g, sys, boxes[group[0]])(gb).T.reshape(4, r + 1, r + 1)
        # kappa_tilde / (kappa H^2) on each fine cell: |grad chi_c|^2 averaged
        # over its 2x2 Gauss points, summed over c in node order sw, se, nw, ne
        energy = sum(np.mean((Xc @ gx.T) ** 2 + (Xc @ gy.T) ** 2, axis=1)
                     for Xc in (X[k].flat[corners] for k in (0, 1, 3, 2))).reshape(r, r)
        for cell in group:
            J, I = divmod(cell, g.coarse_nx)
            grad2[J, :, I] = energy
            for c, Xc in zip(J * row + I + np.array([0, 1, row + 1, row]), X):
                b = g.neighborhoods[c].cells      # chi_c is on its box's nodes
                j, i = J * r - b.j0, I * r - b.i0
                chi[c].reshape(b.j1 - b.j0 + 1, -1)[j:j + r + 1, i:i + r + 1] = Xc
    H2, G = g.Hx * g.Hy, grad2.reshape(g.fine_ny, g.fine_nx)
    kappa_tilde = sys.perm.kappa_cells * H2 * G.ravel()

    # fracture edges carry the pointwise energy grad2 restricted to the line,
    # with the fracture conductivity in place of kappa; the full chi gradient
    # matters, for the harmonic chi flattens tangentially along a conductive
    # fracture, but its normal boundary layer weights it in the spectral
    # mass.  An edge takes the mean of grad2 over the one or two cells beside
    # it; a boundary edge's one cell is repeated, and (x + x) / 2 is x exactly.
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
    ``node_ids``; ``stiffness`` is the box stiffness on the neighborhood
    (``node_operator`` on ``cells``), which the spectral pencil reads.
    """

    omega_id: int
    vectors: np.ndarray
    node_ids: np.ndarray
    stiffness: object

    @property
    def l_i(self) -> int:
        return self.vectors.shape[1]


def full_snapshots(g: GridHierarchy, sys: FineSystem, omega_id: int) -> SnapshotSpace:
    """One harmonic extension per fine boundary node of the neighborhood."""
    nb = g.neighborhoods[omega_id]
    extend = harmonic_extension(g, sys, nb.cells)
    n_rim = np.count_nonzero(g.box_rim(nb.cells))
    return SnapshotSpace(omega_id, extend(np.eye(n_rim)), nb.node_ids, extend.stiffness)


def randomized_snapshots(g: GridHierarchy, sys: FineSystem, omega_id: int,
                         k_nb: int, p_bf: int = 4, seed: int = 0) -> SnapshotSpace:
    """k_nb + p_bf harmonic extensions of random boundary data, i.i.d.
    uniform(-1, 1) seeded by ``[seed, omega_id]``, plus one constant
    snapshot, generated on the oversampled region and restricted to the
    neighborhood; ``offline_spaces`` draws once per group, for its leader.
    """
    if k_nb < 1:
        raise ValueError("k_nb must be >= 1")
    if p_bf < 0:
        raise ValueError("p_bf must be >= 0")
    nb = g.neighborhoods[omega_id]
    box = nb.cells_plus
    extend = harmonic_extension(g, sys, box)
    n_rim = int(np.count_nonzero(g.box_rim(box)))
    rng = np.random.default_rng([seed, omega_id])
    G = rng.uniform(-1.0, 1.0, size=(n_rim, k_nb + p_bf))
    X = extend(G)[np.searchsorted(g.box_nodes(box), nb.node_ids)]
    # the harmonic extension of 1 is 1
    vectors = np.column_stack([X, np.ones(len(X))])
    return SnapshotSpace(omega_id, vectors, nb.node_ids, node_operator(
        g, sys.perm.kappa_cells, sys.edge_arrays, box=nb.cells))


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
    S_loc = node_operator(g, pou.kappa_tilde, pou.edge_kappa_tilde,
                          kind="mass", box=nb.cells)
    V = snap.vectors
    A_off = V.T @ (snap.stiffness @ V)
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
    """Spectral spaces of one group of neighborhoods (``offline_spaces``):
    its leader's snapshots and spectra, shared by every member."""
    snap = (randomized_snapshots(g, sys, group[0], off.k_nb, off.p_bf, off.seed)
            if off.mode == "randomized" else full_snapshots(g, sys, group[0]))
    space = offline_eigendecomposition(snap, sys, pou, n_modes)
    return [replace(space, omega_id=i, node_ids=g.neighborhoods[i].node_ids)
            for i in group]


def offline_spaces(g: GridHierarchy, sys: FineSystem, off,
                   n_modes: int | None = None, map=map):
    """POU and local spectral spaces, in neighborhood order, of the
    offline settings ``off``; each space keeps all its eigenvalues and
    its first ``n_modes`` modes (all when None).  A group of equal keys
    is solved once, for its leader (its lowest omega_id), and its members
    share the read-only arrays.  The key is the ``cells`` key with the
    POU; a randomized one adds the offset of ``cells`` in ``cells_plus``
    and the ``cells_plus`` key, so each member's space is what the
    leader's draw gives on its own box.  ``map`` runs the groups; on one
    BLAS thread no result depends on their order."""
    pou = compute_pou(g, sys)

    def key(nb):
        c, p = nb.cells, nb.cells_plus
        spectral = _problem_key(g, c, sys, pou)
        return spectral if off.mode != "randomized" else (
            spectral, (c.i0 - p.i0, c.j0 - p.j0), _problem_key(g, p, sys))
    solved = map(lambda group: _group_spaces(g, sys, off, pou, n_modes, group),
                 _groups(key(nb) for nb in g.neighborhoods))
    return pou, sorted((sp for group in solved for sp in group),
                       key=lambda sp: sp.omega_id)
