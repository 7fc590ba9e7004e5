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

A snapshot is harmonic inside each coarse cell of omega_i and across the
coarse lines inside it, so its values on the rim of its box fix it
(static condensation; Toselli & Widlund, Domain Decomposition Methods,
Springer 2005, ch. 4), along the chain cells -> skeleton -> rim.  Each
distinct coarse cell is factored once (``CellBlocks``), and its extension
of rim values and its stiffness and kappa_tilde mass condensed onto its
rim serve the POU and every neighborhood.  A neighborhood sums them on
its coarse skeleton, the rim of its box and the coarse lines inside, and
condenses the lines inside onto the rim once (``Skeleton``); its pencil
is solved on the rim, and the two extensions take its modes to the fine
nodes.

Equal local problems are solved once (``_groups``): a problem is keyed
by the exact bytes it reads, never to a tolerance.  A coarse cell's key
is its kappa and the edge weights inside it (``_problem_key``); a
neighborhood's is its cells' groups and the fracture and kappa_tilde
edge weights on its coarse lines (``_skeleton_key``), to which a
randomized one adds its oversampled box's ``_problem_key``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.sparse as sparse
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.linalg.lapack import dpotrf, dpotrs, dsygst, dtrtrs

from .grids import CellBox, GridHierarchy
from .assembly import EDGE_ELEMENTS, FineSystem, node_operator, q1_shape_tables

__all__ = [
    "PartitionOfUnity", "SnapshotSpace", "NeighborhoodSpace", "CellBlocks",
    "Skeleton", "compute_pou", "full_snapshots", "randomized_snapshots",
    "offline_eigendecomposition", "harmonic_extension", "offline_spaces",
]


def harmonic_extension(g: GridHierarchy, sys: FineSystem, box: CellBox, gb):
    """The harmonic extensions of rim values gb on box, with the box
    stiffness of sys, and that stiffness.

    The operator is the one ``node_operator`` assembles on box without
    the edges along the box's rim lines, which touch no interior row,
    numbered like ``g.box_nodes(box)``.  Its rows at the interior nodes
    equal the whole-grid operator's rows there bit for bit.  Their block
    on the interior columns is SPD and banded in box order: its upper
    band, as wide as its stored entries reach, is Cholesky-factored
    (LAPACK ``pbtrf``), and a block that is not positive definite raises
    ``LinAlgError`` naming the box; the band and the block A_ir on the
    rim columns are copied straight from the stored entries.  gb holds
    values on the box rim (``g.box_rim(box)``), one column per
    extension; each extension, its interior solved for -A_ir gb, is
    returned on ``g.box_nodes(box)``.
    """
    rim = g.box_rim(box)
    A = node_operator(g, sys.perm.kappa_cells, sys.edge_arrays, box=box,
                      rim_edges=False)
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
    gb = np.reshape(gb, (Ar.shape[1], -1))
    u = np.empty((len(rim), gb.shape[1]))
    u[rim] = gb
    u[~rim] = cho_solve_banded(factor, -np.asarray(Ar @ gb), overwrite_b=True)
    return u, A


def _problem_key(g: GridHierarchy, box: CellBox, sys: FineSystem) -> tuple:
    """The bytes a harmonic extension on ``box`` reads: the box shape,
    kappa on its cells and the edge weights of sys off its rim lines (the
    views of ``g.box_edge_weights`` less the first and last rows of h and
    columns of v).  ``node_operator`` sums them in a fixed order, so
    boxes with equal keys have byte-identical extensions."""
    h, v = g.box_edge_weights(sys.edge_arrays, box)
    return ((box.i1 - box.i0, box.j1 - box.j0),
            sys.perm.kappa_cells[g.box_cells(box)].tobytes(),
            h[1:-1].tobytes(), v[:, 1:-1].tobytes())


def _groups(keys) -> list[list[int]]:
    """The positions of equal keys, one ascending list per distinct key in
    order of first appearance; only the distinct keys are held."""
    groups: dict[tuple, list[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def _cell_box(g: GridHierarchy, cell: int) -> CellBox:
    """The fine cells of coarse cell ``cell`` (numbered row by row)."""
    J, I = divmod(cell, g.coarse_nx)
    r = g.refine
    return CellBox(I * r, J * r, (I + 1) * r, (J + 1) * r)


def _box_cell_ids(g: GridHierarchy, box: CellBox) -> list[int]:
    """The coarse cells of ``box``, row by row, by their numbers."""
    r = g.refine
    return [J * g.coarse_nx + I for J in range(box.j0 // r, box.j1 // r)
            for I in range(box.i0 // r, box.i1 // r)]


def _skeleton_edges(h: np.ndarray, v: np.ndarray, r: int):
    """A box's edge views h, v (``g.box_edge_weights``) on its coarse
    lines, rim lines included: every r-th row of h and column of v."""
    return h[::r], v[:, ::r]


def _symmetric(X: np.ndarray) -> np.ndarray:
    return 0.5 * (X + X.T)


@dataclass
class PartitionOfUnity:
    """Multiscale hat functions chi_i and the energy weight they induce."""

    grid: GridHierarchy
    chi: list[np.ndarray]             # chi_i on neighborhoods[i].node_ids
    kappa_tilde: np.ndarray           # per fine cell
    edge_kappa_tilde: np.ndarray      # per fine edge


class CellBlocks:
    """Coarse cells condensed onto their rims, once per group of cells
    with equal ``_problem_key``.

    ``ids`` are the cells (coarse-cell numbers, row by row; every cell
    when None); ``groups`` lists them per group and ``group[c]`` is cell
    c's.  Per group, from its first cell's ``harmonic_extension``:
    ``extension`` is [I; E_c] on the cell's nodes (``g.box_nodes`` order
    of the cell), one column per rim node (``g.box_rim`` order), the unit
    value there extended harmonically inside; ``stiffness`` is the Schur
    complement A_rr + A_ri E_c of the cell stiffness A_c on the rim.  The
    cell operators leave out the edges along the cell's rim lines, which
    lie on the coarse skeleton and are added there once (``Skeleton``);
    so do the condensed masses (``mass``).
    """

    def __init__(self, g: GridHierarchy, sys: FineSystem, ids=None):
        ids = list(range(g.coarse_nx * g.coarse_ny) if ids is None else ids)
        rim = g.box_rim(CellBox(0, 0, g.refine, g.refine))
        self.grid, self._mass = g, (None, None)
        self.groups = [[ids[k] for k in group] for group in
                       _groups(_problem_key(g, _cell_box(g, c), sys) for c in ids)]
        self.group = {c: k for k, group in enumerate(self.groups) for c in group}
        self.extension, self.stiffness = [], []
        for group in self.groups:
            V, A = harmonic_extension(g, sys, _cell_box(g, group[0]),
                                      np.eye(np.count_nonzero(rim)))
            self.extension.append(V)
            self.stiffness.append(_symmetric((A @ V)[rim]))

    def mass(self, pou: PartitionOfUnity) -> list[np.ndarray]:
        """Per group, the kappa_tilde mass M_c of pou on its cell condensed
        onto the rim, [I; E_c]^T M_c [I; E_c]; computed once per pou."""
        if self._mass[0] is not pou:
            g = self.grid
            self._mass = pou, [_symmetric(V.T @ (node_operator(
                g, pou.kappa_tilde, pou.edge_kappa_tilde, "mass",
                _cell_box(g, group[0]), rim_edges=False) @ V))
                for group, V in zip(self.groups, self.extension)]
        return self._mass[1]


class _Layout(NamedTuple):
    n_box: int                 # nodes of the box
    n_rim: int                 # nodes on its rim
    nodes: np.ndarray          # box positions of the skeleton nodes, rim first
    cells: list                # per cell: skeleton positions of its rim and
                               # box positions of its nodes
    flat: np.ndarray           # flat positions of the cells' rim blocks in a
                               # skeleton matrix, cell after cell
    ends: np.ndarray           # skeleton positions of each edge's two ends


@lru_cache(maxsize=16)
def _layout(ncx: int, ncy: int, r: int) -> _Layout:
    """The skeleton of a box of ncx by ncy coarse cells of r by r fine
    cells.  Its nodes are the box rim, then the coarse lines inside, each
    in box order; its cells run row by row, each with the skeleton
    positions of its rim (``box_rim`` order) and the box positions of its
    nodes (``box_nodes`` order); its edges are the fine edges on the
    coarse lines in ``_skeleton_edges`` order.  Read-only, shared by
    every box of this shape."""
    def rim(a):                # a node rectangle's entries on its rim
        return np.r_[a[0], a[1:-1, [0, -1]].ravel(), a[-1]]
    node = np.arange((ncx * r + 1) * (ncy * r + 1)).reshape(ncy * r + 1, -1)
    lines = np.zeros(node.shape, dtype=bool)
    lines[::r] = lines[:, ::r] = True
    nodes = np.r_[rim(node), node[1:-1, 1:-1][lines[1:-1, 1:-1]]]
    at = np.full(node.size, -1)
    at[nodes] = np.arange(len(nodes))
    cells = [(at[rim(pos)], pos.ravel()) for pos in (
        node[J * r:(J + 1) * r + 1, I * r:(I + 1) * r + 1]
        for J in range(ncy) for I in range(ncx))]
    # edge (j, i) runs from node (j, i) to (j, i + 1), or (j + 1, i) if vertical
    ends = at[np.column_stack([np.r_[h.ravel(), v.ravel()] for h, v in (
        _skeleton_edges(node[:, :-1], node[:-1], r),
        _skeleton_edges(node[:, 1:], node[1:], r))])]
    flat = np.concatenate([np.add.outer(ring * len(nodes), ring).ravel()
                           for ring, _ in cells])
    for x in (nodes, flat, ends, *(x for cell in cells for x in cell)):
        x.flags.writeable = False
    return _Layout(node.size, len(rim(node)), nodes, cells, flat, ends)


class Skeleton:
    """The coarse skeleton of a neighborhood box, its rim and the coarse
    lines inside it, with the stiffness of sys condensed onto its rim.

    On fields harmonic inside every coarse cell of the box, held by their
    skeleton values, the box stiffness is the sum of the cells' Schur
    blocks and of the 1D terms of the fracture edges on the skeleton,
    each edge once (``_assemble``).  Its block A_cc on the lines inside
    is Cholesky-factored once, and a block that is not positive definite
    raises ``LinAlgError`` naming the box; ``cross`` is the extension
    X = -A_cc^-1 A_cr of rim values onto those lines, ``stiffness`` the
    rim stiffness A_rr + A_rc X and ``mass`` the kappa_tilde mass summed
    the same way and taken to [I; X]^T M [I; X].  ``cells`` holds the
    condensed blocks of the box's coarse cells (``CellBlocks``; built for
    them when None).
    """

    def __init__(self, g: GridHierarchy, sys: FineSystem, box: CellBox,
                 cells: CellBlocks | None = None):
        ids, r = _box_cell_ids(g, box), g.refine
        self.grid, self.box = g, box
        self.layout = _layout((box.i1 - box.i0) // r, (box.j1 - box.j0) // r, r)
        self.cells = CellBlocks(g, sys, ids) if cells is None else cells
        self.groups = [self.cells.group[c] for c in ids]
        A = self._assemble(self.cells.stiffness, sys.edge_arrays, "stiffness")
        n = self.layout.n_rim
        self.cross = np.zeros((len(A) - n, n))
        if len(A) > n:
            L, info = dpotrf(A[n:, n:], lower=1)
            if info:
                raise np.linalg.LinAlgError(
                    f"box {box}: stiffness on the coarse lines inside is not "
                    "positive definite")
            self.cross = -dpotrs(L, A[n:, :n], lower=1)[0]
        self.stiffness = _symmetric(A[:n, :n] + A[:n, n:] @ self.cross)

    def _assemble(self, blocks, edge_weights, kind) -> np.ndarray:
        """The skeleton operator summed from the cells' condensed blocks
        and the 1D ``kind`` terms of ``edge_weights`` on its edges."""
        lay, g = self.layout, self.grid
        n = len(lay.nodes)
        h, v = _skeleton_edges(*g.box_edge_weights(edge_weights, self.box), g.refine)
        w = np.r_[h.ravel(), v.ravel()]
        on = np.flatnonzero(w)
        d, o = EDGE_ELEMENTS[kind](w[on], np.where(on < h.size, g.hx, g.hy))
        a, b = lay.ends[on].T
        # every entry summed in order: the cells' terms, then the edges'
        return np.bincount(
            np.concatenate([lay.flat, a * (n + 1), b * (n + 1), a * n + b, b * n + a]),
            np.concatenate([blocks[k].ravel() for k in self.groups] + [d, d, o, o]),
            n * n).reshape(n, n)

    def mass(self, pou: PartitionOfUnity) -> np.ndarray:
        """The kappa_tilde mass of pou condensed onto the rim."""
        n, X = self.layout.n_rim, self.cross
        M = self._assemble(self.cells.mass(pou), pou.edge_kappa_tilde, "mass")
        MW = M[:, :n] + M[:, n:] @ X
        return _symmetric(MW[:n] + X.T @ MW[n:])

    def lift(self, Y: np.ndarray) -> np.ndarray:
        """The fields with rim values Y (one column each) on the box
        nodes, harmonic across the lines inside and inside every cell."""
        Y = np.concatenate([Y, self.cross @ Y])
        X = np.empty((self.layout.n_box, Y.shape[1]))
        for k, (at, pos) in zip(self.groups, self.layout.cells):
            X[pos] = self.cells.extension[k] @ Y[at]
        return X


def _skeleton_key(cells: CellBlocks, box: CellBox, sys: FineSystem,
                  pou: PartitionOfUnity) -> tuple:
    """The bytes the ``Skeleton`` of ``box`` and its ``mass`` of pou
    read: the box shape, the group in ``cells`` of each of its coarse
    cells and the edge weights of sys and pou on its coarse lines
    (``_skeleton_edges``).  The groups fix kappa_tilde inside the cells
    too, as ``compute_pou`` writes one gradient energy per group."""
    g = cells.grid
    key = [(box.i1 - box.i0, box.j1 - box.j0),
           tuple(cells.group[c] for c in _box_cell_ids(g, box))]
    for edge_weights in (sys.edge_arrays, pou.edge_kappa_tilde):
        h, v = _skeleton_edges(*g.box_edge_weights(edge_weights, box), g.refine)
        key += [h.tobytes(), v.tobytes()]
    return tuple(key)


def compute_pou(g: GridHierarchy, sys: FineSystem,
                cells: CellBlocks | None = None) -> PartitionOfUnity:
    """Partition of unity by per-coarse-cell harmonic extension.

    On each coarse cell the four corner functions extend boundary data
    that is linear along the cell edges (1 at the corner, 0 at the
    others), solved with the fracture-aware operator; their sum extends
    the constant 1 and is therefore exactly 1.  They and their gradient
    energy are computed once per group of ``cells``, every coarse cell's
    ``CellBlocks`` (built here when None), from its extension.
    """
    cells = CellBlocks(g, sys) if cells is None else cells
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
    for group, V in zip(cells.groups, cells.extension):
        X = (V @ gb).T.reshape(4, r + 1, r + 1)
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
    """Local solution samples on one neighborhood, each harmonic inside
    every coarse cell of it and across the coarse lines inside, held by
    their values on its rim.

    ``values`` is (rim nodes x l_i), in the ``box_rim`` order of the
    neighborhood box, or None for the identity (full snapshots, one per
    rim node); ``skeleton`` holds the condensed forms of the pencil, and
    ``vectors`` lifts the values to the fine nodes.
    """

    omega_id: int
    values: np.ndarray | None
    skeleton: Skeleton

    @property
    def l_i(self) -> int:
        return self.skeleton.layout.n_rim if self.values is None else self.values.shape[1]

    @property
    def vectors(self) -> np.ndarray:
        """The snapshots on the fine nodes, (patch nodes x l_i) in the
        order of the grid neighborhood's ``node_ids``."""
        return self.skeleton.lift(np.eye(self.l_i) if self.values is None else self.values)


def full_snapshots(g: GridHierarchy, sys: FineSystem, omega_id: int,
                   cells: CellBlocks | None = None) -> SnapshotSpace:
    """One harmonic extension per fine rim node of the neighborhood: the
    unit value there, zero on the rest of the rim.  Their rim values are
    the identity, held as None, which no step solves with or multiplies
    by.  ``cells`` is passed on to the ``Skeleton``."""
    sk = Skeleton(g, sys, g.neighborhoods[omega_id].cells, cells)
    return SnapshotSpace(omega_id, None, sk)


def randomized_snapshots(g: GridHierarchy, sys: FineSystem, omega_id: int,
                         k_nb: int, p_bf: int = 4, seed: int = 0,
                         cells: CellBlocks | None = None) -> SnapshotSpace:
    """k_nb + p_bf harmonic extensions of random boundary data, i.i.d.
    uniform(-1, 1) seeded by ``[seed, omega_id]``, plus one constant
    snapshot, generated on the oversampled region and restricted to the
    neighborhood's rim; ``offline_spaces`` draws once per group, for its
    leader.  ``cells`` is passed on to the ``Skeleton``.
    """
    if k_nb < 1:
        raise ValueError("k_nb must be >= 1")
    if p_bf < 0:
        raise ValueError("p_bf must be >= 0")
    nb = g.neighborhoods[omega_id]
    box = nb.cells_plus
    n_rim = int(np.count_nonzero(g.box_rim(box)))
    rng = np.random.default_rng([seed, omega_id])
    G = rng.uniform(-1.0, 1.0, size=(n_rim, k_nb + p_bf))
    sk = Skeleton(g, sys, nb.cells, cells)
    X = harmonic_extension(g, sys, box, G)[0][
        np.searchsorted(g.box_nodes(box), nb.node_ids[g.box_rim(nb.cells)])]
    # the harmonic extension of 1 is 1
    return SnapshotSpace(omega_id, np.column_stack([X, np.ones(len(X))]), sk)


@dataclass
class NeighborhoodSpace:
    """Spectral modes of one neighborhood's snapshot pencil.

    Its coarse node is its position in the list of spaces; neighborhoods
    with the same local problem share one space, so its arrays are
    read-only.
    """

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


def _pencil(snap: SnapshotSpace, pou: PartitionOfUnity):
    """The snapshot pencil (A_off, S_off) = (V^T A V, V^T S V), symmetrized,
    of the rim values V of snap and the skeleton's rim stiffness A and
    kappa_tilde mass S of pou; (A, S) themselves where V is the identity
    (None)."""
    V, sk = snap.values, snap.skeleton
    A, S = sk.stiffness, sk.mass(pou)
    if V is None:
        return A, S
    return _symmetric(V.T @ (A @ V)), _symmetric(V.T @ (S @ V))


def offline_eigendecomposition(snap: SnapshotSpace, pou: PartitionOfUnity,
                               n_modes: int | None = None) -> NeighborhoodSpace:
    """Eigenpairs of A_off Psi = lambda S_off Psi on one neighborhood:
    all l_i eigenvalues, and the first ``n_modes`` modes (all of them
    when None) mapped to fine nodes.

    Both forms are integrated over the neighborhood only (local
    re-assembly, not a submatrix of the global operators, which would
    leak energy from the surrounding cells into the boundary rows), and
    on the snapshots' rim values (``_pencil``).  With S_off = L L^T the
    pencil has the eigenvalues of the symmetric C = L^-1 A_off L^-T
    (LAPACK ``sygst``), and Psi = L^-T Q for C's eigenvectors Q (Golub &
    Van Loan, Matrix Computations, 8.7).
    """
    k = snap.l_i if n_modes is None else min(n_modes, snap.l_i)
    if k < 1:
        raise ValueError("n_modes must be >= 1")
    A_off, S_off = _pencil(snap, pou)
    L, regularized = _mass_factor(S_off, snap.omega_id)
    w, Q = np.linalg.eigh(dsygst(A_off, L, lower=1)[0])   # C's lower triangle
    Psi = dtrtrs(L, Q[:, :k], lower=1, trans=1)[0]

    # deterministic sign: largest-magnitude snapshot coordinate positive
    flip = np.sign(Psi[np.argmax(np.abs(Psi), axis=0), np.arange(Psi.shape[1])])
    flip[flip == 0] = 1.0
    Psi *= flip
    basis = snap.skeleton.lift(Psi if snap.values is None else snap.values @ Psi)

    # rescale the lowest mode to reproduce the constant where it does so
    # up to scaling (then chi-weighted sums of first modes recover 1)
    psi1 = basis[:, 0]
    denom = float(psi1 @ psi1)
    if denom > 0:
        alpha = float(psi1.sum()) / denom
        if np.max(np.abs(alpha * psi1 - 1.0)) <= 1e-6:
            psi1 *= alpha

    return NeighborhoodSpace(eigvals=w, basis_full=basis, regularized=regularized)


def offline_spaces(g: GridHierarchy, sys: FineSystem, off,
                   n_modes: int | None = None):
    """POU and local spectral spaces, one per coarse node in node order,
    of the offline settings ``off``, all from one ``CellBlocks``; each
    space keeps all its eigenvalues and its first ``n_modes`` modes (all
    when None).  A group of equal keys is solved once, for its leader
    (its lowest coarse node), and its one space stands at every member's
    position.  A randomized key adds the place of ``cells`` in
    ``cells_plus``, so each member's space is what the leader's draw
    gives on its own box."""
    cells = CellBlocks(g, sys)
    pou = compute_pou(g, sys, cells)

    def key(nb):
        c, p = nb.cells, nb.cells_plus
        spectral = _skeleton_key(cells, c, sys, pou)
        return spectral if off.mode != "randomized" else (
            spectral, (c.i0 - p.i0, c.j0 - p.j0), _problem_key(g, p, sys))
    spaces = [None] * len(g.neighborhoods)
    for group in _groups(key(nb) for nb in g.neighborhoods):
        snap = (randomized_snapshots(g, sys, group[0], off.k_nb, off.p_bf, off.seed, cells)
                if off.mode == "randomized" else full_snapshots(g, sys, group[0], cells))
        space = offline_eigendecomposition(snap, pou, n_modes)
        for i in group:
            spaces[i] = space
    return pou, spaces
