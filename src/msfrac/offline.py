"""Offline stage of the multiscale solver.

Per coarse node i this produces, in order:

1. a partition-of-unity function chi_i (kappa-harmonic extension of
   linear edge data on each coarse cell), together with the weight
   kappa_tilde = kappa * sum_i H^2 |grad chi_i|^2 and the weighted mass
   matrix S built from it;
2. a local snapshot space on the neighborhood omega_i — either one
   harmonic extension per fine boundary node, or a handful of harmonic
   extensions of random boundary data on the oversampled region,
   restricted back to omega_i;
3. the generalized eigenproblem A_off Psi = lambda S_off Psi on the
   snapshot-projected pencil, whose smallest modes become the offline
   basis of the neighborhood.

Each neighborhood keeps only chi_i on its own fine nodes, its
eigenvalues and one fine-nodal copy of each mode; the snapshots and the
pencil are dropped once the eigensolve returns.

All local solves use the nodal operator that already carries the
conforming-fracture edge terms, so the basis sees the fractures.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from .grids import CellBox, GridHierarchy
from .assembly import FineSystem, node_operator, q1_shape_tables

__all__ = [
    "PartitionOfUnity", "SnapshotSpace", "NeighborhoodSpace",
    "compute_pou", "full_snapshots", "randomized_snapshots",
    "offline_eigendecomposition", "harmonic_extension",
]


def harmonic_extension(A, interior, boundary, gb):
    """Solve the local Dirichlet problem of the operator A.

    For rectangular patches the rows of the global operator at strictly
    interior patch nodes coincide with the locally assembled rows, so no
    re-assembly is needed.  gb holds boundary values, one column per
    extension; returns the interior values, same column layout.
    """
    gb = np.asarray(gb, dtype=float).reshape(len(boundary), -1)
    Aii = A[interior][:, interior].tocsc()
    Aib = A[interior][:, boundary]
    rhs = -np.asarray(Aib @ gb)
    return spla.splu(Aii).solve(rhs)


@dataclass
class PartitionOfUnity:
    """Multiscale hat functions chi_i and the energy weight they induce."""

    grid: GridHierarchy
    chi: list[np.ndarray]             # chi_i on neighborhoods[i].node_ids
    kappa_tilde: np.ndarray           # per fine cell
    edge_kappa_tilde: dict[int, float]
    S: object                         # weighted mass matrix (csr)

    def boundary_lift(self, bc) -> np.ndarray:
        """POU interpolant of the boundary data over boundary coarse nodes.

        The lift l = sum_i g(x_i) chi_i (i on the domain boundary) is
        linear along every boundary edge, hence exact for bilinear data.
        """
        g = self.grid
        lift = np.zeros(g.n_nodes)
        if bc is None:
            return lift
        if np.isscalar(bc):
            fn = lambda x, y, _v=float(bc): _v
        else:
            fn = bc
        for nb in g.neighborhoods:
            if nb.is_interior:
                continue
            x, y = g.node_coords[g.coarse_nodes[nb.index]]
            lift[nb.node_ids] += float(fn(x, y)) * self.chi[nb.index]
        return lift


def compute_pou(g: GridHierarchy, sys: FineSystem) -> PartitionOfUnity:
    """Partition of unity by per-coarse-cell harmonic extension.

    On each coarse cell the four corner functions extend boundary data
    that is linear along the cell edges (1 at the corner, 0 at the
    others), solved with the fracture-aware operator; their sum extends
    the constant 1 and is therefore exactly 1.
    """
    A = sys.A
    r = g.refine
    chi = [np.zeros(len(nb.node_ids)) for nb in g.neighborhoods]
    for J in range(g.coarse_ny):
        for I in range(g.coarse_nx):
            box = CellBox(I * r, J * r, (I + 1) * r, (J + 1) * r)
            bnd, intr = g.box_boundary_interior(box)
            ib = bnd % (g.fine_nx + 1)
            jb = bnd // (g.fine_nx + 1)
            xi = (ib - I * r) / r
            eta = (jb - J * r) / r
            gb = np.column_stack([(1 - xi) * (1 - eta), xi * (1 - eta),
                                  xi * eta, (1 - xi) * eta])
            X = harmonic_extension(A, intr, bnd, gb)
            corners = (J * (g.coarse_nx + 1) + I,
                       J * (g.coarse_nx + 1) + I + 1,
                       (J + 1) * (g.coarse_nx + 1) + I + 1,
                       (J + 1) * (g.coarse_nx + 1) + I)
            for k, c in enumerate(corners):
                ids = g.neighborhoods[c].node_ids
                chi[c][np.searchsorted(ids, bnd)] = gb[:, k]
                chi[c][np.searchsorted(ids, intr)] = X[:, k]

    # cell-wise kappa_tilde: kappa * sum_i H^2 |grad chi_i|^2, averaged
    # over the 2x2 Gauss points of each cell
    _, gx, gy, _ = q1_shape_tables(g.hx, g.hy)
    H2 = g.Hx * g.Hy
    all_nodes = g.all_cell_nodes()
    grad2 = np.zeros(g.n_cells)
    for nb in g.neighborhoods:
        cells = g.box_cells(nb.cells)
        ch = chi[nb.index][np.searchsorted(nb.node_ids, all_nodes[cells])]
        gxv = ch @ gx.T                               # (m, 4 gauss pts)
        gyv = ch @ gy.T
        grad2[cells] += np.mean(gxv ** 2 + gyv ** 2, axis=1)
    kappa_tilde = sys.perm.kappa_cells * H2 * grad2

    # fracture edges carry the pointwise-energy field restricted to the
    # line, with the fracture conductivity in place of kappa.  The full
    # chi gradient matters here: the harmonic chi flattens tangentially
    # along a conductive fracture, but its normal boundary layer is what
    # weights the fracture in the spectral mass.
    edge_kt: dict[int, float] = {}
    for e, c in sorted(sys.edge_coeffs.items()):
        adj = g.edge_cells(e)
        edge_kt[e] = c * H2 * float(np.mean(grad2[adj]))

    S = node_operator(g, kappa_tilde, edge_kt, kind="mass")
    return PartitionOfUnity(grid=g, chi=chi, kappa_tilde=kappa_tilde,
                            edge_kappa_tilde=edge_kt, S=S)


@dataclass
class SnapshotSpace:
    """Local solution samples on one neighborhood.

    ``vectors`` is (patch nodes x l_i) dense in the sorted node order of
    ``node_ids``; ``gen_boundary_count`` is the number of fine boundary
    nodes of the generation domain (the neighborhood itself, or its
    oversampled dilation), used for snapshot-ratio reporting.
    """

    omega_id: int
    vectors: np.ndarray
    node_ids: np.ndarray
    gen_boundary_count: int
    constant_included: bool = False

    @property
    def l_i(self) -> int:
        return self.vectors.shape[1]

    @property
    def snapshot_ratio(self) -> float:
        """Generated harmonic extensions over the full count (= boundary nodes)."""
        n = self.l_i - (1 if self.constant_included else 0)
        return n / self.gen_boundary_count


def full_snapshots(g: GridHierarchy, sys: FineSystem, omega_id: int) -> SnapshotSpace:
    """One harmonic extension per fine boundary node of the neighborhood."""
    nb = g.neighborhoods[omega_id]
    bnd, intr = nb.boundary_node_ids, nb.interior_node_ids
    if len(intr) == 0:
        raise ValueError(f"neighborhood {omega_id} has no interior fine node")
    X = harmonic_extension(sys.A, intr, bnd, np.eye(len(bnd)))
    vectors = np.zeros((len(nb.node_ids), len(bnd)))
    vectors[np.searchsorted(nb.node_ids, bnd)] = np.eye(len(bnd))
    vectors[np.searchsorted(nb.node_ids, intr)] = X
    return SnapshotSpace(omega_id=omega_id, vectors=vectors,
                         node_ids=nb.node_ids, gen_boundary_count=len(bnd))


def randomized_snapshots(g: GridHierarchy, sys: FineSystem, omega_id: int,
                         k_nb: int, p_bf: int = 4, seed: int = 0) -> SnapshotSpace:
    """k_nb + p_bf harmonic extensions of random boundary data, plus one
    constant snapshot, generated on the oversampled region and restricted
    to the neighborhood.

    Boundary values are i.i.d. uniform(-1, 1); the stream is seeded per
    neighborhood so results do not depend on evaluation order.
    """
    if k_nb < 1:
        raise ValueError("k_nb must be >= 1")
    if p_bf < 0:
        raise ValueError("p_bf must be >= 0")
    nb = g.neighborhoods[omega_id]
    nodes_p = g.box_nodes(nb.cells_plus)
    bnd_p, int_p = g.box_boundary_interior(nb.cells_plus)
    rng = np.random.default_rng([seed, omega_id])
    G = rng.uniform(-1.0, 1.0, size=(len(bnd_p), k_nb + p_bf))
    X = harmonic_extension(sys.A, int_p, bnd_p, G)
    vec_p = np.zeros((len(nodes_p), k_nb + p_bf + 1))
    vec_p[np.searchsorted(nodes_p, bnd_p), :-1] = G
    vec_p[np.searchsorted(nodes_p, int_p), :-1] = X
    vec_p[:, -1] = 1.0  # the harmonic extension of 1 is 1
    restrict = np.searchsorted(nodes_p, nb.node_ids)
    return SnapshotSpace(omega_id=omega_id, vectors=vec_p[restrict],
                         node_ids=nb.node_ids, gen_boundary_count=len(bnd_p),
                         constant_included=True)


@dataclass
class NeighborhoodSpace:
    """Spectral modes of one neighborhood's snapshot pencil."""

    omega_id: int
    node_ids: np.ndarray
    eigvals: np.ndarray           # all l_i eigenvalues, ascending
    M_off: int
    basis_full: np.ndarray        # all l_i fine-nodal modes, precomputed once
    regularized: bool = False

    @property
    def l_i(self) -> int:
        return len(self.eigvals)

    @property
    def basis(self) -> np.ndarray:
        """Fine-nodal offline basis on the neighborhood, (nodes x M_off)."""
        # a slice of the precomputed modes, so enriching a space extends
        # it by new columns without perturbing the old ones
        return self.basis_full[:, :self.M_off]

    def with_m_off(self, m: int) -> "NeighborhoodSpace":
        return replace(self, M_off=min(int(m), self.l_i))


def offline_eigendecomposition(snap: SnapshotSpace, sys: FineSystem,
                               pou: PartitionOfUnity, M_off: int) -> NeighborhoodSpace:
    """Smallest modes of A_off Psi = lambda S_off Psi on one neighborhood.

    Both forms are integrated over the neighborhood only (local
    re-assembly, not a submatrix of the global operators, which would
    leak energy from the surrounding cells into the boundary rows).
    """
    if M_off < 1:
        raise ValueError("M_off must be >= 1")
    g = sys.grid
    nb = g.neighborhoods[snap.omega_id]
    A_loc = node_operator(g, sys.perm.kappa_cells, sys.edge_coeffs,
                          kind="stiffness", box=nb.cells)
    S_loc = node_operator(g, pou.kappa_tilde, pou.edge_kappa_tilde,
                          kind="mass", box=nb.cells)
    V = snap.vectors
    A_off = V.T @ (A_loc @ V)
    S_off = V.T @ (S_loc @ V)
    A_off = 0.5 * (A_off + A_off.T)
    S_off = 0.5 * (S_off + S_off.T)

    regularized = False
    tr = np.trace(S_off)
    if scipy.linalg.eigvalsh(S_off)[0] < 1e-14 * tr:
        S_off = S_off + (1e-12 * tr / snap.l_i) * np.eye(snap.l_i)
        regularized = True
    try:
        w, Psi = scipy.linalg.eigh(A_off, S_off)
    except scipy.linalg.LinAlgError:
        S_off = S_off + (1e-10 * tr / snap.l_i) * np.eye(snap.l_i)
        regularized = True
        w, Psi = scipy.linalg.eigh(A_off, S_off)

    # deterministic sign: largest-magnitude snapshot coordinate positive
    flip = np.sign(Psi[np.argmax(np.abs(Psi), axis=0), np.arange(Psi.shape[1])])
    flip[flip == 0] = 1.0
    Psi = Psi * flip

    # rescale the lowest mode to reproduce the constant where it does so
    # up to scaling (then chi-weighted sums of first modes recover 1)
    scale = np.ones(snap.l_i)
    psi1 = V @ Psi[:, 0]
    denom = float(psi1 @ psi1)
    if denom > 0:
        alpha = float(psi1.sum()) / denom
        if np.max(np.abs(alpha * psi1 - 1.0)) <= 1e-6:
            scale[0] = alpha

    m = min(int(M_off), snap.l_i)
    basis_full = V @ (Psi * scale)
    return NeighborhoodSpace(omega_id=snap.omega_id, node_ids=snap.node_ids,
                             eigvals=w, M_off=m, basis_full=basis_full,
                             regularized=regularized)
