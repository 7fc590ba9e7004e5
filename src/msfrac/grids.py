"""Structured fine/coarse grid hierarchy for two-level multiscale solves.

The domain is an axis-aligned rectangle partitioned into a coarse
tensor-product quad grid; every coarse cell is subdivided into a
``refine x refine`` block of fine cells.  Coarse-node neighborhoods
(the union of coarse cells touching a coarse vertex) and their
oversampled dilations are precomputed here, since every later stage
(local harmonic solves, snapshot generation, spectral bases) operates
on these index sets.

Numbering is lexicographic with x fastest, for nodes, cells and edges
alike, so all assembled operators are reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Rect", "CellBox", "Neighborhood", "GridHierarchy", "build_hierarchy"]


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle [x0, x1] x [y0, y1]."""

    x0: float
    y0: float
    x1: float
    y1: float

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def diameter(self) -> float:
        return float(np.hypot(self.width, self.height))

    def contains(self, x: float, y: float, tol: float = 0.0) -> bool:
        return (self.x0 - tol <= x <= self.x1 + tol
                and self.y0 - tol <= y <= self.y1 + tol)


UNIT_SQUARE = Rect(0.0, 0.0, 1.0, 1.0)

# Most lattice nodes of a nested-dissection leaf (``dissection_order``);
# on a 201 x 201 lattice, leaves of 32 nodes or more give more fill than
# minimum degree.
DISSECTION_LEAF = 8


@dataclass(frozen=True)
class CellBox:
    """Half-open rectangle of fine-cell indices [i0, i1) x [j0, j1)."""

    i0: int
    j0: int
    i1: int
    j1: int

    @property
    def ncells(self) -> int:
        return (self.i1 - self.i0) * (self.j1 - self.j0)

    def dilated(self, t: int, nx: int, ny: int) -> "CellBox":
        """Grow by t fine-cell layers on every side, clipped to the grid."""
        return CellBox(max(self.i0 - t, 0), max(self.j0 - t, 0),
                       min(self.i1 + t, nx), min(self.j1 + t, ny))


@dataclass
class Neighborhood:
    """Coarse-node neighborhood: coarse cells sharing the vertex.

    On a structured quad grid the neighborhood is always a rectangle of
    fine cells (2x2 coarse cells for interior vertices, fewer at the
    boundary), so it is stored as a :class:`CellBox` together with the
    oversampled box used for randomized snapshot generation.
    """

    index: int                # coarse-node flat index
    ci: int                   # coarse-node (ci, cj) grid position
    cj: int
    is_interior: bool         # away from the domain boundary: 2x2 coarse cells
    cells: CellBox            # fine cells of the neighborhood
    cells_plus: CellBox       # fine cells of the oversampled region
    node_ids: np.ndarray = field(repr=False, default=None)


@dataclass
class GridHierarchy:
    """Fine grid, coarse grid and the neighborhood decomposition.

    Immutable after construction; shared read-only by all solver stages.
    """

    domain: Rect
    coarse_nx: int
    coarse_ny: int
    refine: int
    fine_nx: int
    fine_ny: int
    hx: float
    hy: float
    Hx: float
    Hy: float
    node_coords: np.ndarray        # (n_nodes, 2)
    coarse_nodes: np.ndarray       # fine-node ids of coarse vertices
    neighborhoods: list[Neighborhood]

    # -- fine-node indexing ------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return (self.fine_nx + 1) * (self.fine_ny + 1)

    @property
    def n_cells(self) -> int:
        return self.fine_nx * self.fine_ny

    @property
    def n_coarse_nodes(self) -> int:
        return (self.coarse_nx + 1) * (self.coarse_ny + 1)

    def node_id(self, i, j):
        return j * (self.fine_nx + 1) + i

    def node_ij(self, nid):
        return nid % (self.fine_nx + 1), nid // (self.fine_nx + 1)

    def cell_id(self, i, j):
        return j * self.fine_nx + i

    def cell_nodes(self, cid: int) -> np.ndarray:
        """Counterclockwise corner nodes (sw, se, ne, nw) of a fine cell."""
        i = cid % self.fine_nx
        j = cid // self.fine_nx
        sw = self.node_id(i, j)
        return np.array([sw, sw + 1,
                         sw + self.fine_nx + 2, sw + self.fine_nx + 1])

    def all_cell_nodes(self) -> np.ndarray:
        """(n_cells, 4) connectivity, counterclockwise, x-fastest cell order."""
        return self.box_cell_nodes(CellBox(0, 0, self.fine_nx, self.fine_ny))

    def boundary_node_mask(self) -> np.ndarray:
        i = np.arange(self.n_nodes) % (self.fine_nx + 1)
        j = np.arange(self.n_nodes) // (self.fine_nx + 1)
        return (i == 0) | (i == self.fine_nx) | (j == 0) | (j == self.fine_ny)

    def boundary_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.boundary_node_mask())

    def dissection_order(self) -> np.ndarray:
        """Every fine-node id once, in geometric nested-dissection order.

        A box of the node lattice with more than ``DISSECTION_LEAF``
        nodes is cut across its longer side by one node line, and is
        ordered as its lower (or left) half, its upper (or right) half,
        then the cut line; a smaller box is a leaf, ordered x fastest.
        The halves of a box differ in length by at most one node, so a
        lattice has few distinct box shapes (48 at 201 x 201 nodes): each
        shape's order is built once, in box-local (x, y) positions, and
        shifted into its parents.
        """
        shapes = {}

        def ar(n):
            # int32 positions: every shape is held at once, just before
            # the fine factorization reaches the run's peak memory
            return np.arange(n, dtype=np.int32)

        def local(w, h):
            if (w, h) in shapes:
                return shapes[w, h]
            if w * h <= DISSECTION_LEAF:
                x, y = np.tile(ar(w), h), np.repeat(ar(h), w)
            elif w >= h:                        # cut along column m
                m = w // 2
                (x0, y0), (x1, y1) = local(m, h), local(w - m - 1, h)
                x = np.concatenate([x0, x1 + (m + 1), np.full(h, m, np.int32)])
                y = np.concatenate([y0, y1, ar(h)])
            else:                               # cut along row m
                m = h // 2
                (x0, y0), (x1, y1) = local(w, m), local(w, h - m - 1)
                x = np.concatenate([x0, x1, ar(w)])
                y = np.concatenate([y0, y1 + (m + 1), np.full(w, m, np.int32)])
            shapes[w, h] = x, y
            return x, y

        x, y = local(self.fine_nx + 1, self.fine_ny + 1)
        return y * (self.fine_nx + 1) + x

    # -- fine-edge indexing (horizontal block first, then vertical) --------

    @property
    def n_hedges(self) -> int:
        return self.fine_nx * (self.fine_ny + 1)

    @property
    def n_edges(self) -> int:
        return self.n_hedges + (self.fine_nx + 1) * self.fine_ny

    def hedge_id(self, i, j):
        """Edge from node (i, j) to (i+1, j)."""
        return j * self.fine_nx + i

    def vedge_id(self, i, j):
        """Edge from node (i, j) to (i, j+1)."""
        return self.n_hedges + j * (self.fine_nx + 1) + i

    def edge_nodes(self, eid):
        """End nodes (a, b), a < b, of a fine edge: two ints for a scalar
        id, two arrays of eid's shape for an array of ids."""
        eid = np.asarray(eid)
        vert = eid >= self.n_hedges
        k = eid - vert * self.n_hedges
        per_row = self.fine_nx + vert          # edges per row of each block
        a = self.node_id(k % per_row, k // per_row)
        b = a + np.where(vert, self.fine_nx + 1, 1)
        if a.ndim == 0:
            return int(a), int(b)
        return a, b

    # -- box helpers ---------------------------------------------------------

    def box_nodes(self, box: CellBox) -> np.ndarray:
        """Sorted fine-node ids of the closed node rectangle spanned by box."""
        return np.add.outer(np.arange(box.j0, box.j1 + 1) * (self.fine_nx + 1),
                            np.arange(box.i0, box.i1 + 1)).ravel()

    def box_rim(self, box: CellBox) -> np.ndarray:
        """Mask of the nodes on the perimeter of box, in ``box_nodes`` order."""
        rim = np.ones((box.j1 - box.j0 + 1, box.i1 - box.i0 + 1), dtype=bool)
        rim[1:-1, 1:-1] = False
        return rim.ravel()

    def box_cells(self, box: CellBox) -> np.ndarray:
        """Fine-cell ids of the box, x fastest."""
        return np.add.outer(np.arange(box.j0, box.j1) * self.fine_nx,
                            np.arange(box.i0, box.i1)).ravel()

    def box_edge_weights(self, w: np.ndarray, box: CellBox):
        """A field over the fine edges (one value per edge id) on the
        edges with both end nodes in the closed node rectangle of box, as
        two views of w: the horizontal edges h[j - j0, i - i0] =
        w[hedge_id(i, j)], (j1 - j0 + 1) by (i1 - i0), and the vertical
        edges v[j - j0, i - i0] = w[vedge_id(i, j)], (j1 - j0) by
        (i1 - i0 + 1)."""
        h = w[:self.n_hedges].reshape(self.fine_ny + 1, self.fine_nx)
        v = w[self.n_hedges:].reshape(self.fine_ny, self.fine_nx + 1)
        return h[box.j0:box.j1 + 1, box.i0:box.i1], v[box.j0:box.j1, box.i0:box.i1 + 1]

    def box_cell_nodes(self, box: CellBox) -> np.ndarray:
        """(ncells, 4) corners (sw, se, ne, nw) of the box cells, in
        ``box_cells`` order, numbered locally: node (i, j) of the closed
        node rectangle is (j - j0) * (i1 - i0 + 1) + (i - i0), its index
        in ``box_nodes(box)``."""
        row = box.i1 - box.i0 + 1
        sw = np.add.outer(np.arange(box.j1 - box.j0) * row,
                          np.arange(box.i1 - box.i0)).ravel()
        return np.column_stack([sw, sw + 1, sw + row + 1, sw + row])

    def nearest_node(self, x: float, y: float) -> tuple[int, int]:
        """Lattice position (i, j) of the fine node nearest to (x, y)."""
        i = int(np.clip(round((x - self.domain.x0) / self.hx), 0, self.fine_nx))
        j = int(np.clip(round((y - self.domain.y0) / self.hy), 0, self.fine_ny))
        return i, j

    @property
    def geom_tol(self) -> float:
        """Geometric tolerance for snapping/clipping predicates."""
        return 1e-12 * self.domain.diameter


def build_hierarchy(domain: Rect, coarse_nx: int, coarse_ny: int,
                    refine: int, t: int = 0) -> GridHierarchy:
    """Build the two-level grid with neighborhoods and oversampled regions.

    Parameters
    ----------
    domain : Rect
        Computational rectangle.
    coarse_nx, coarse_ny : int
        Coarse cells per axis (>= 2 each).
    refine : int
        Fine cells per coarse cell per axis (>= 2).
    t : int
        Oversampling width in fine-cell layers (>= 0); the oversampled
        region of each neighborhood is its t-layer dilation clipped to
        the domain.
    """
    if coarse_nx < 2 or coarse_ny < 2:
        raise ValueError("need at least 2 coarse cells per axis")
    if refine < 2:
        raise ValueError("refine must be >= 2")
    if t < 0:
        raise ValueError("oversampling width t must be >= 0")
    if not (0 < domain.width < np.inf and 0 < domain.height < np.inf):
        raise ValueError("degenerate domain rectangle")

    fine_nx = coarse_nx * refine
    fine_ny = coarse_ny * refine
    hx = domain.width / fine_nx
    hy = domain.height / fine_ny

    x = np.linspace(domain.x0, domain.x1, fine_nx + 1)
    y = np.linspace(domain.y0, domain.y1, fine_ny + 1)
    yy, xx = np.meshgrid(y, x, indexing="ij")
    node_coords = np.column_stack([xx.ravel(), yy.ravel()])

    ci = np.arange(coarse_nx + 1)
    cj = np.arange(coarse_ny + 1)
    jj, ii = np.meshgrid(cj * refine, ci * refine, indexing="ij")
    coarse_nodes = (jj * (fine_nx + 1) + ii).ravel()

    grid = GridHierarchy(
        domain=domain, coarse_nx=coarse_nx, coarse_ny=coarse_ny,
        refine=refine, fine_nx=fine_nx, fine_ny=fine_ny,
        hx=hx, hy=hy, Hx=domain.width / coarse_nx, Hy=domain.height / coarse_ny,
        node_coords=node_coords, coarse_nodes=coarse_nodes, neighborhoods=[])

    for cjv in range(coarse_ny + 1):
        for civ in range(coarse_nx + 1):
            box = CellBox(max(civ - 1, 0) * refine, max(cjv - 1, 0) * refine,
                          min(civ + 1, coarse_nx) * refine,
                          min(cjv + 1, coarse_ny) * refine)
            nb = Neighborhood(
                index=cjv * (coarse_nx + 1) + civ, ci=civ, cj=cjv,
                is_interior=0 < civ < coarse_nx and 0 < cjv < coarse_ny, cells=box,
                cells_plus=box.dilated(t, fine_nx, fine_ny))
            nb.node_ids = grid.box_nodes(box)
            grid.neighborhoods.append(nb)

    return grid
