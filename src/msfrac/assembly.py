"""Fine-scale FEM assembly for Darcy flow with fractures.

The matrix is discretized with bilinear quads (2x2 Gauss, exact for Q1),
fractures with linear 1D elements.  Conforming fractures add an edge
stiffness c/h*[[1,-1],[-1,1]] with c = kappa_f*aperture directly into
the nodal operator; embedded fractures get their own unknowns and a
block system

    [ A_m    B_mf^1 ... ] [u_m]   [f_m]
    [ B_fm^1 B^1        ] [u_1] = [f_1]
    [ ...        ...    ] [...]   [...]

coupled through a connectivity-index transfer term per fracture/cell
intersection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .grids import CellBox, GridHierarchy
from .fractures import DfmTrace, EfmTrace, FractureNetwork

__all__ = [
    "PermeabilityField", "FineSystem", "FineSolution",
    "q1_shape_tables", "q1_stiffness", "q1_mass",
    "node_operator", "load_vector", "edge_coefficients",
    "assemble_dfm", "assemble_efm", "solve_fine", "decoupled_fracture_fields",
    "bilinear_bc",
]

_G = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))


def q1_shape_tables(hx: float, hy: float):
    """Bilinear shape values/physical gradients at the 2x2 Gauss points.

    Returns (vals, gx, gy, w): each (4, 4) with Gauss point index first,
    node index (sw, se, ne, nw) second; w are the quadrature weights
    (they sum to the cell area).
    """
    vals = np.empty((4, 4))
    gx = np.empty((4, 4))
    gy = np.empty((4, 4))
    q = 0
    for eta in _G:
        for xi in _G:
            vals[q] = ((1 - xi) * (1 - eta), xi * (1 - eta),
                       xi * eta, (1 - xi) * eta)
            gx[q] = np.array((-(1 - eta), (1 - eta), eta, -eta)) / hx
            gy[q] = np.array((-(1 - xi), -xi, xi, (1 - xi))) / hy
            q += 1
    w = np.full(4, 0.25 * hx * hy)
    return vals, gx, gy, w


def q1_stiffness(hx, hy):
    """4x4 unit-coefficient stiffness of an hx-by-hy cell."""
    _, gx, gy, w = q1_shape_tables(hx, hy)
    K = np.einsum("q,qi,qj->ij", w, gx, gx) + np.einsum("q,qi,qj->ij", w, gy, gy)
    return 0.5 * (K + K.T)  # bitwise symmetric despite einsum rounding


def q1_mass(hx, hy):
    """4x4 unit-coefficient mass matrix of an hx-by-hy cell."""
    vals, _, _, w = q1_shape_tables(hx, hy)
    M = np.einsum("q,qi,qj->ij", w, vals, vals)
    return 0.5 * (M + M.T)


def bilinear_bc(a=0.0, b=0.0, c=0.0, d=0.0):
    """Boundary-data callable g(x, y) = a + b*x + c*y + d*x*y."""

    def g(x, y):
        return a + b * np.asarray(x) + c * np.asarray(y) + d * np.asarray(x) * np.asarray(y)

    return g


def edge_coefficients(traces: list[DfmTrace]) -> dict[int, float]:
    """Accumulate per-edge 1D conductivities; shared edges add up."""
    coeffs: dict[int, float] = {}
    for tr in traces:
        for e in tr.fine_edges:
            e = int(e)
            coeffs[e] = coeffs.get(e, 0.0) + tr.effective_coeff
    return coeffs


def node_operator(g: GridHierarchy, cell_weights: np.ndarray,
                  edge_weights: dict[int, float] | None = None,
                  kind: str = "stiffness",
                  box: CellBox | None = None) -> sparse.csr_matrix:
    """Assemble a symmetric node-space operator from cell and edge weights.

    kind='stiffness' gives the weighted grad-grad form; an edge with
    weight c contributes the 1D element c/h*[[1,-1],[-1,1]].
    kind='mass' gives the weighted value-value form; an edge contributes
    w*h/6*[[2,1],[1,2]].

    Integration covers the cells of ``box`` (the whole grid when None)
    and the weighted edges with both end nodes in its closed node
    rectangle.  Node (i, j) of that rectangle is numbered
    (j - j0) * (i1 - i0 + 1) + (i - i0): x-fastest, so the whole-grid box
    gives the global numbering and any box follows ``g.box_nodes(box)``.
    """
    if kind == "stiffness":
        ke2d = q1_stiffness(g.hx, g.hy)
        edge_elem = lambda w, h: (w / h)[:, None] * np.array([1.0, -1.0, -1.0, 1.0])
    elif kind == "mass":
        ke2d = q1_mass(g.hx, g.hy)
        edge_elem = lambda w, h: (w * h / 6.0)[:, None] * np.array([2.0, 1.0, 1.0, 2.0])
    else:
        raise ValueError(f"unknown operator kind {kind!r}")

    box = box or CellBox(0, 0, g.fine_nx, g.fine_ny)
    row = box.i1 - box.i0 + 1
    n = row * (box.j1 - box.j0 + 1)

    def local(i, j):
        return (j - box.j0) * row + (i - box.i0)

    cells = g.box_cells(box)
    sw = local(cells % g.fine_nx, cells // g.fine_nx)
    nodes = np.column_stack([sw, sw + 1, sw + row + 1, sw + row])
    data = np.asarray(cell_weights, dtype=float)[cells, None, None] * ke2d[None, :, :]
    rows = np.broadcast_to(nodes[:, :, None], data.shape)
    cols = np.broadcast_to(nodes[:, None, :], data.shape)
    A = sparse.coo_matrix(
        (data.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n)).tocsr()
    A.sum_duplicates()

    if not edge_weights:
        return A
    eids = np.array(sorted(edge_weights))
    w = np.array([edge_weights[e] for e in eids.tolist()], dtype=float)
    (ai, aj), (bi, bj) = (g.node_ij(x) for x in g.edge_nodes(eids))
    keep = (ai >= box.i0) & (bi <= box.i1) & (aj >= box.j0) & (bj <= box.j1)
    if not keep.any():
        return A
    eids, w = eids[keep], w[keep]
    a, b = local(ai[keep], aj[keep]), local(bi[keep], bj[keep])
    data = edge_elem(w, np.where(eids < g.n_hedges, g.hx, g.hy))
    # separate canonical matrix so cell/edge values merge positionwise
    # (keeps A bitwise symmetric regardless of duplicate-sum order)
    E = sparse.coo_matrix(
        (data.ravel(), (np.column_stack([a, a, b, b]).ravel(),
                        np.column_stack([a, b, a, b]).ravel())),
        shape=(n, n)).tocsr()
    E.sum_duplicates()
    return (A + E).tocsr()


def load_vector(g: GridHierarchy, f) -> np.ndarray:
    """Nodal load from a scalar source f(x, y) by 2x2 Gauss per cell."""
    F = np.zeros(g.n_nodes)
    if f is None:
        return F
    if np.isscalar(f):
        fval = float(f)
        f = lambda x, y: np.full_like(np.asarray(x, dtype=float), fval)
    vals, _, _, w = q1_shape_tables(g.hx, g.hy)
    nodes = g.all_cell_nodes()
    ci = np.arange(g.n_cells) % g.fine_nx
    cj = np.arange(g.n_cells) // g.fine_nx
    x0 = g.domain.x0 + ci * g.hx
    y0 = g.domain.y0 + cj * g.hy
    q = 0
    for eta in _G:
        for xi in _G:
            fq = np.asarray(f(x0 + xi * g.hx, y0 + eta * g.hy), dtype=float)
            np.add.at(F, nodes, (w[q] * fq)[:, None] * vals[q][None, :])
            q += 1
    return F


@dataclass
class PermeabilityField:
    """Per-fine-cell matrix permeability plus the fracture network."""

    kappa_cells: np.ndarray
    network: FractureNetwork | None = None

    def __post_init__(self):
        self.kappa_cells = np.asarray(self.kappa_cells, dtype=float)
        if np.any(self.kappa_cells <= 0):
            raise ValueError("matrix permeability must be positive")

    @classmethod
    def constant(cls, g: GridHierarchy, value: float = 1.0,
                 network: FractureNetwork | None = None):
        return cls(np.full(g.n_cells, float(value)), network)

    @classmethod
    def from_callable(cls, g: GridHierarchy, fn,
                      network: FractureNetwork | None = None):
        centers = g.cell_centers()
        return cls(np.asarray(fn(centers[:, 0], centers[:, 1]), dtype=float),
                   network)


@dataclass
class FineSystem:
    """Assembled fine-scale system.

    ``A`` is always the nodal operator carrying the matrix stiffness and
    any conforming-fracture edge terms; in embedded mode it is what the
    offline stage works with, while the block data (A_m with the
    coupling mass, the per-fracture B/B_mf blocks) describe the actual
    fine problem.
    """

    grid: GridHierarchy
    perm: PermeabilityField
    A: sparse.csr_matrix
    F: np.ndarray
    edge_coeffs: dict[int, float]
    dirichlet_nodes: np.ndarray
    dirichlet_values: np.ndarray
    bc: object = None
    source: object = None
    mode: str = "dfm"
    # embedded-fracture blocks (empty in conforming mode)
    efm_traces: list[EfmTrace] = field(default_factory=list)
    A_m: sparse.csr_matrix | None = None
    B_blocks: list[sparse.csr_matrix] = field(default_factory=list)
    B_mf: list[sparse.csr_matrix] = field(default_factory=list)
    F_frac: list[np.ndarray] = field(default_factory=list)

    @property
    def n_nodes(self) -> int:
        return self.grid.n_nodes

    @property
    def n_frac_dofs(self) -> int:
        return sum(t.n_nodes for t in self.efm_traces)

    @property
    def frac_offsets(self) -> list[int]:
        off = [self.n_nodes]
        for t in self.efm_traces:
            off.append(off[-1] + t.n_nodes)
        return off

    def lift(self) -> np.ndarray:
        """Fine-nodal Dirichlet lift: boundary data at fixed nodes, 0 inside."""
        u = np.zeros(self.n_nodes)
        u[self.dirichlet_nodes] = self.dirichlet_values
        return u

    def block_matrix(self) -> sparse.csr_matrix:
        """Full symmetric block operator (matrix + fracture unknowns)."""
        if self.mode != "efm":
            return self.A
        nf = len(self.efm_traces)
        blocks = [[None] * (nf + 1) for _ in range(nf + 1)]
        blocks[0][0] = self.A_m
        for i in range(nf):
            blocks[0][i + 1] = self.B_mf[i]
            blocks[i + 1][0] = self.B_mf[i].T
            blocks[i + 1][i + 1] = self.B_blocks[i]
        return sparse.bmat(blocks, format="csr")

    def block_rhs(self) -> np.ndarray:
        if self.mode != "efm":
            return self.F
        return np.concatenate([self.F] + list(self.F_frac))

    def block_lift(self) -> np.ndarray:
        u = np.zeros(self.n_nodes + self.n_frac_dofs)
        u[self.dirichlet_nodes] = self.dirichlet_values
        return u


@dataclass
class FineSolution:
    u: np.ndarray                 # matrix-node field
    u_frac: list[np.ndarray]      # per-embedded-fracture 1D fields
    residual: float

    def block_vector(self) -> np.ndarray:
        return np.concatenate([self.u] + list(self.u_frac))


def _dirichlet_data(g: GridHierarchy, bc):
    nodes = g.boundary_nodes()
    xy = g.node_coords[nodes]
    if bc is None:
        vals = np.zeros(len(nodes))
    elif np.isscalar(bc):
        vals = np.full(len(nodes), float(bc))
    else:
        vals = np.asarray(bc(xy[:, 0], xy[:, 1]), dtype=float)
        vals = np.broadcast_to(vals, (len(nodes),)).copy()
    return nodes, vals


def assemble_dfm(g: GridHierarchy, perm: PermeabilityField,
                 traces: list[DfmTrace], f=None, bc=None) -> FineSystem:
    """Monolithic nodal system: matrix stiffness + 1D edge terms."""
    if len(perm.kappa_cells) != g.n_cells:
        raise ValueError("permeability field does not match the grid")
    coeffs = edge_coefficients(traces)
    if coeffs and (min(coeffs) < 0 or max(coeffs) >= g.n_edges):
        raise ValueError("fracture trace references edges outside the grid")
    A = node_operator(g, perm.kappa_cells, coeffs, kind="stiffness")
    F = load_vector(g, f)
    nodes, vals = _dirichlet_data(g, bc)
    return FineSystem(grid=g, perm=perm, A=A, F=F, edge_coeffs=coeffs,
                      dirichlet_nodes=nodes, dirichlet_values=vals,
                      bc=bc, source=f, mode="dfm")


def _cell_shape_weights(g: GridHierarchy, cell: int, x: float, y: float):
    """Bilinear weights of the 4 cell nodes at a point inside the cell."""
    i = cell % g.fine_nx
    j = cell // g.fine_nx
    xi = (x - (g.domain.x0 + i * g.hx)) / g.hx
    eta = (y - (g.domain.y0 + j * g.hy)) / g.hy
    return np.array(((1 - xi) * (1 - eta), xi * (1 - eta),
                     xi * eta, (1 - xi) * eta))


def assemble_efm(g: GridHierarchy, perm: PermeabilityField,
                 dfm_traces: list[DfmTrace], efm_traces: list[EfmTrace],
                 f=None, bc=None, coupling_scale: float = 1.0) -> FineSystem:
    """Block system with independent fracture meshes.

    The transfer coefficient per fracture/cell intersection of length
    |S| is CI = kappa_m * |S| / <d> with the mean matrix-fracture
    distance <d> = cell_area / (2 |S|); the symmetric form
    CI*(u_m(p) - u_f(p))*(v_m(p) - v_f(p)) at the intersection midpoint
    p is distributed with bilinear weights on the matrix side and 1D
    hat weights on the fracture side.
    """
    if not efm_traces:
        raise ValueError("embedded assembly requires at least one embedded trace")
    base = assemble_dfm(g, perm, dfm_traces, f=f, bc=bc)
    n = g.n_nodes
    area = g.hx * g.hy
    cell_nodes = g.all_cell_nodes()

    Cmm_r, Cmm_c, Cmm_v = [], [], []
    B_blocks, B_mf, F_frac = [], [], []
    for tr in efm_traces:
        if not tr.cell_overlaps:
            raise ValueError(
                f"fracture {tr.fracture_id}: embedded trace has no cell overlaps")
        nf = tr.n_nodes
        # 1D stiffness along the fracture
        Bi = sparse.lil_matrix((nf, nf))
        ds = np.diff(tr.arclengths)
        for k, h in enumerate(ds):
            c = tr.effective_coeff / h
            Bi[k, k] += c
            Bi[k + 1, k + 1] += c
            Bi[k, k + 1] -= c
            Bi[k + 1, k] -= c
        Ci = sparse.lil_matrix((n, nf))
        for piece in tr.cell_overlaps:
            ci = coupling_scale * perm.kappa_cells[piece.cell] \
                * 2.0 * piece.length ** 2 / area
            if ci == 0.0:
                continue
            nm = cell_nodes[piece.cell]
            wm = _cell_shape_weights(g, piece.cell, *piece.midpoint)
            k, w0, w1 = tr.hat_weights(piece.arclength)
            wf = np.array([w0, w1])
            kf = np.array([k, k + 1])
            Cmm_r.append(np.repeat(nm, 4))
            Cmm_c.append(np.tile(nm, 4))
            Cmm_v.append(ci * np.outer(wm, wm).ravel())
            for a in range(2):
                for b in range(2):
                    Bi[kf[a], kf[b]] += ci * wf[a] * wf[b]
            for m_loc in range(4):
                for a in range(2):
                    Ci[nm[m_loc], kf[a]] -= ci * wm[m_loc] * wf[a]
        B_blocks.append(Bi.tocsr())
        B_mf.append(Ci.tocsr())
        # aperture-weighted 1D load, midpoint rule per element
        fi = np.zeros(nf)
        if f is not None:
            fsrc = (lambda x, y, _v=float(f): _v) if np.isscalar(f) else f
            mids = 0.5 * (tr.frac_nodes[:-1] + tr.frac_nodes[1:])
            fm = np.array([float(fsrc(x, y)) for x, y in mids])
            fi[:-1] += 0.5 * fm * ds * tr.aperture
            fi[1:] += 0.5 * fm * ds * tr.aperture
        F_frac.append(fi)

    if Cmm_r:
        Cmm = sparse.coo_matrix(
            (np.concatenate(Cmm_v), (np.concatenate(Cmm_r), np.concatenate(Cmm_c))),
            shape=(n, n)).tocsr()
    else:
        Cmm = sparse.csr_matrix((n, n))
    base.mode = "efm"
    base.efm_traces = list(efm_traces)
    base.A_m = (base.A + Cmm).tocsr()
    base.B_blocks = B_blocks
    base.B_mf = B_mf
    base.F_frac = F_frac
    return base


def decoupled_fracture_fields(sys: FineSystem) -> list[np.ndarray] | None:
    """Fracture fields of an embedded system without matrix coupling.

    When every transfer block B_mf is empty the matrix problem stands
    alone and each fracture solves its own, possibly floating, 1D
    problem B u_f = f_f; lstsq gives its minimum-norm solution.  Returns
    None for a coupled or conforming system.
    """
    if sys.mode != "efm" or any(B.nnz for B in sys.B_mf):
        return None
    return [np.linalg.lstsq(B.toarray(), fi, rcond=None)[0]
            for B, fi in zip(sys.B_blocks, sys.F_frac)]


def solve_fine(sys: FineSystem) -> FineSolution:
    """Direct sparse solve after Dirichlet elimination."""
    if len(sys.dirichlet_nodes) == 0:
        raise ValueError("no Dirichlet data: pure-Neumann systems are not supported")
    u_frac = decoupled_fracture_fields(sys)
    if u_frac is None:
        M, rhs, lift = sys.block_matrix().tocsr(), sys.block_rhs(), sys.block_lift()
    else:
        M, rhs, lift = sys.A_m, sys.F, sys.lift()
    ntot = M.shape[0]
    fixed = np.zeros(ntot, dtype=bool)
    fixed[sys.dirichlet_nodes] = True
    free = ~fixed

    b = rhs[free] - M[free][:, fixed] @ lift[fixed]
    Mff = M[free][:, free].tocsc()
    x = spla.spsolve(Mff, b)
    nb = np.linalg.norm(b)
    res = np.linalg.norm(Mff @ x - b) / (nb if nb > 0 else 1.0)

    u = lift.copy()
    u[free] = x
    if u_frac is None:
        off = sys.frac_offsets
        u_frac = [u[off[i]:off[i + 1]] for i in range(len(sys.efm_traces))]
    return FineSolution(u=u[:sys.n_nodes], u_frac=u_frac, residual=res)
