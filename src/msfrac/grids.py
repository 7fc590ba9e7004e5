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
    coarse_cells: list[int]   # flat coarse-cell ids touching the vertex
    cells: CellBox            # fine cells of the neighborhood
    cells_plus: CellBox       # fine cells of the oversampled region
    node_ids: np.ndarray = field(repr=False, default=None)
    boundary_node_ids: np.ndarray = field(repr=False, default=None)
    interior_node_ids: np.ndarray = field(repr=False, default=None)

    @property
    def is_interior(self) -> bool:
        return len(self.coarse_cells) == 4


@dataclass
class GridHierarchy:
    """Fine grid, coarse grid and the neighborhood decomposition.

    Immutable after construction; shared read-only by all solver stages.
    """

    domain: Rect
    coarse_nx: int
    coarse_ny: int
    refine: int
    t: int
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

    def edge_length(self, eid: int) -> float:
        return self.hx if eid < self.n_hedges else self.hy

    def edge_cells(self, eid: int) -> list[int]:
        """The one or two cells sharing a fine edge."""
        if eid < self.n_hedges:
            i, j = eid % self.fine_nx, eid // self.fine_nx
            rows = [j - 1, j]
            return [r * self.fine_nx + i for r in rows if 0 <= r < self.fine_ny]
        k = eid - self.n_hedges
        i, j = k % (self.fine_nx + 1), k // (self.fine_nx + 1)
        cols = [i - 1, i]
        return [j * self.fine_nx + c for c in cols if 0 <= c < self.fine_nx]

    # -- box helpers ---------------------------------------------------------

    def _box_node_grid(self, box: CellBox) -> np.ndarray:
        """Fine-node ids of the closed node rectangle, one row per y."""
        return np.add.outer(np.arange(box.j0, box.j1 + 1) * (self.fine_nx + 1),
                            np.arange(box.i0, box.i1 + 1))

    def box_nodes(self, box: CellBox) -> np.ndarray:
        """Sorted fine-node ids of the closed node rectangle spanned by box."""
        return self._box_node_grid(box).ravel()

    def box_boundary_interior(self, box: CellBox) -> tuple[np.ndarray, np.ndarray]:
        """Node ids on the perimeter of the box and strictly inside it."""
        ids = self._box_node_grid(box)
        on_rim = np.ones(ids.shape, dtype=bool)
        on_rim[1:-1, 1:-1] = False
        return ids[on_rim], ids[~on_rim]

    def box_cells(self, box: CellBox) -> np.ndarray:
        """Fine-cell ids of the box, x fastest."""
        return np.add.outer(np.arange(box.j0, box.j1) * self.fine_nx,
                            np.arange(box.i0, box.i1)).ravel()

    def box_cell_nodes(self, box: CellBox) -> np.ndarray:
        """(ncells, 4) corners (sw, se, ne, nw) of the box cells, in
        ``box_cells`` order, numbered locally: node (i, j) of the closed
        node rectangle is (j - j0) * (i1 - i0 + 1) + (i - i0), its index
        in ``box_nodes(box)``."""
        row = box.i1 - box.i0 + 1
        sw = np.add.outer(np.arange(box.j1 - box.j0) * row,
                          np.arange(box.i1 - box.i0)).ravel()
        return np.column_stack([sw, sw + 1, sw + row + 1, sw + row])

    def cell_centers(self) -> np.ndarray:
        i = np.arange(self.n_cells) % self.fine_nx
        j = np.arange(self.n_cells) // self.fine_nx
        x = self.domain.x0 + (i + 0.5) * self.hx
        y = self.domain.y0 + (j + 0.5) * self.hy
        return np.column_stack([x, y])

    def nearest_node(self, x: float, y: float) -> tuple[int, float]:
        """Nearest fine node id and its distance to (x, y)."""
        i = int(np.clip(round((x - self.domain.x0) / self.hx), 0, self.fine_nx))
        j = int(np.clip(round((y - self.domain.y0) / self.hy), 0, self.fine_ny))
        nid = self.node_id(i, j)
        dx = x - (self.domain.x0 + i * self.hx)
        dy = y - (self.domain.y0 + j * self.hy)
        return nid, float(np.hypot(dx, dy))

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
    if domain.width <= 0 or domain.height <= 0:
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
        refine=refine, t=t, fine_nx=fine_nx, fine_ny=fine_ny,
        hx=hx, hy=hy, Hx=domain.width / coarse_nx, Hy=domain.height / coarse_ny,
        node_coords=node_coords, coarse_nodes=coarse_nodes, neighborhoods=[])

    for cjv in range(coarse_ny + 1):
        for civ in range(coarse_nx + 1):
            cells = []
            for dj in (cjv - 1, cjv):
                for di in (civ - 1, civ):
                    if 0 <= di < coarse_nx and 0 <= dj < coarse_ny:
                        cells.append(dj * coarse_nx + di)
            box = CellBox(max(civ - 1, 0) * refine, max(cjv - 1, 0) * refine,
                          min(civ + 1, coarse_nx) * refine,
                          min(cjv + 1, coarse_ny) * refine)
            nb = Neighborhood(
                index=cjv * (coarse_nx + 1) + civ, ci=civ, cj=cjv,
                coarse_cells=cells, cells=box,
                cells_plus=box.dilated(t, fine_nx, fine_ny))
            nb.node_ids = grid.box_nodes(box)
            nb.boundary_node_ids, nb.interior_node_ids = \
                grid.box_boundary_interior(box)
            grid.neighborhoods.append(nb)

    return grid
