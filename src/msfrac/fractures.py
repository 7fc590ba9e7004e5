"""Fracture network geometry and its mapping onto the structured grid.

Two fine-scale representations are supported:

* conforming traces, where a fracture is carried by fine-grid edges and
  contributes a one-dimensional stiffness along them (high-permeability
  lines embedded in the matrix mesh), and
* embedded traces, where a fracture keeps its own 1D mesh, independent
  of the matrix nodes, and talks to the matrix through its overlaps
  with the fine cells: the pieces between consecutive grid-line
  crossings, each in the cell that holds its midpoint (the lower/left
  one on a grid line), kept as parallel arrays on ``EfmTrace``.

All geometry here is exact up to a relative tolerance of 1e-12 of the
domain diameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .grids import GridHierarchy

__all__ = [
    "FractureModel", "Fracture", "FractureNetwork",
    "DfmTrace", "EfmTrace", "GeometryError",
    "rasterize_dfm", "intersect_efm",
]


class GeometryError(ValueError):
    """Raised for degenerate or out-of-domain fracture geometry."""


class FractureModel(str, Enum):
    DFM = "dfm"
    EFM = "efm"


@dataclass
class Fracture:
    """Polyline fracture with aperture and its own permeability.

    ``kappa_f * aperture`` is the effective 1D conductivity used by both
    fine-scale discretizations.
    """

    polyline: np.ndarray          # (m, 2) ordered vertices
    aperture: float
    kappa_f: float
    model: FractureModel = FractureModel.DFM
    id: int = 0

    def __post_init__(self):
        self.polyline = np.asarray(self.polyline, dtype=float)
        self.model = FractureModel(self.model)
        if self.polyline.ndim != 2 or self.polyline.shape[1] != 2:
            raise GeometryError(f"fracture {self.id}: polyline must be (m, 2)")
        if self.polyline.shape[0] < 2:
            raise GeometryError(f"fracture {self.id}: polyline needs >= 2 vertices")
        for name in ("aperture", "kappa_f"):
            if not 0 < getattr(self, name) < np.inf:
                raise GeometryError(
                    f"fracture {self.id}: {name} must be positive and finite")
        seg = np.diff(self.polyline, axis=0)
        if np.any(np.hypot(seg[:, 0], seg[:, 1]) == 0.0):
            raise GeometryError(f"fracture {self.id}: zero-length polyline segment")

    @property
    def conductivity(self) -> float:
        return self.kappa_f * self.aperture

    @property
    def length(self) -> float:
        seg = np.diff(self.polyline, axis=0)
        return float(np.hypot(seg[:, 0], seg[:, 1]).sum())

    def validate_inside(self, grid: GridHierarchy) -> None:
        tol = grid.geom_tol
        for x, y in self.polyline:
            if not grid.domain.contains(x, y, tol):
                raise GeometryError(
                    f"fracture {self.id}: vertex ({x}, {y}) outside the domain")


@dataclass
class FractureNetwork:
    """Collection of fractures, split by fine-scale model on demand."""

    fractures: list[Fracture] = field(default_factory=list)

    def __iter__(self):
        return iter(self.fractures)

    @property
    def dfm(self) -> list[Fracture]:
        return [f for f in self.fractures if f.model is FractureModel.DFM]

    @property
    def efm(self) -> list[Fracture]:
        return [f for f in self.fractures if f.model is FractureModel.EFM]


@dataclass
class DfmTrace:
    """A fracture snapped onto the fine-edge lattice.

    ``fine_edges`` is an ordered, connected path of edge ids; every edge
    carries the 1D conductivity kappa_f * aperture.
    """

    fracture_id: int
    fine_edges: np.ndarray
    effective_coeff: float

    def edge_node_path(self, grid: GridHierarchy) -> np.ndarray:
        """Ordered node ids visited by the edge path."""
        if len(self.fine_edges) == 0:
            return np.empty(0, dtype=int)
        pairs = np.column_stack(grid.edge_nodes(self.fine_edges)).tolist()
        if len(pairs) == 1:
            return np.array(pairs[0])
        nodes = []
        a, b = pairs[0]
        # orient the first edge so its tail is not shared with edge 2
        if a in pairs[1]:
            a, b = b, a
        nodes.extend([a, b])
        for pa, pb in pairs[1:]:
            nodes.append(pb if pa == nodes[-1] else pa)
        return np.array(nodes)


@dataclass
class EfmTrace:
    """Embedded fracture: independent 1D mesh plus its cell overlaps.

    Overlap n is the piece of the fracture in fine cell ``cells[n]``: its
    length ``lengths[n]`` (|S|), its midpoint ``midpoints[n]`` and the
    fracture arclength ``mid_arcs[n]`` at that midpoint.  The overlaps of
    each polyline segment follow those of the previous one, in (j, i)
    cell order.
    """

    fracture_id: int
    frac_nodes: np.ndarray      # (k, 2) 1D mesh node positions
    arclengths: np.ndarray      # (k,) cumulative arclength of the nodes
    cells: np.ndarray           # (n,) fine-cell ids
    lengths: np.ndarray         # (n,)
    midpoints: np.ndarray       # (n, 2)
    mid_arcs: np.ndarray        # (n,)
    effective_coeff: float
    aperture: float = 1.0

    @property
    def n_nodes(self) -> int:
        return len(self.frac_nodes)


def _monotone_path(i0: int, j0: int, i1: int, j1: int):
    """Lattice steps from (i0,j0) to (i1,j1), axes interleaved evenly.

    Ties break toward the x step, which fixes e.g. the diagonal path to
    right, up, right, up, ...
    """
    di, dj = abs(i1 - i0), abs(j1 - j0)
    sx = 1 if i1 >= i0 else -1
    sy = 1 if j1 >= j0 else -1
    steps = []
    tx = ty = 0
    for _ in range(di + dj):
        # compare fractional progress after a candidate step
        if ty >= dj or (tx < di and (tx + 1) * dj <= (ty + 1) * di):
            steps.append((sx, 0))
            tx += 1
        else:
            steps.append((0, sy))
            ty += 1
    return steps


def rasterize_dfm(f: Fracture, grid: GridHierarchy) -> DfmTrace:
    """Snap a conforming fracture onto the fine-edge lattice.

    Each polyline vertex snaps to its nearest fine node, and consecutive
    vertices that snap to one node are merged; a trace left with fewer
    than two distinct vertices raises ``GeometryError``.  Consecutive
    snapped vertices are joined by the monotone lattice path that
    alternates axes as evenly as possible (ties toward x).
    """
    if f.model is not FractureModel.DFM:
        raise GeometryError(f"fracture {f.id}: not a conforming-model fracture")
    f.validate_inside(grid)

    snapped = [grid.nearest_node(x, y) for x, y in f.polyline]
    verts = [v for k, v in enumerate(snapped) if k == 0 or v != snapped[k - 1]]
    if len(verts) < 2:
        raise GeometryError(
            f"fracture {f.id}: polyline collapsed to a single fine node "
            "after snapping (degenerate trace)")
    edges = []
    for (ia, ja), (ib, jb) in zip(verts[:-1], verts[1:]):
        i, j = ia, ja
        for dx, dy in _monotone_path(ia, ja, ib, jb):
            if dx:
                edges.append(grid.hedge_id(min(i, i + dx), j))
                i += dx
            else:
                edges.append(grid.vedge_id(i, min(j, j + dy)))
                j += dy
    return DfmTrace(fracture_id=f.id, fine_edges=np.array(edges, dtype=int),
                    effective_coeff=f.conductivity)


def intersect_efm(f: Fracture, grid: GridHierarchy) -> EfmTrace:
    """Mesh an embedded fracture and cut it into its fine-cell overlaps.

    1D nodes are placed along arclength with spacing at most the fine
    mesh size min(hx, hy).  A polyline segment p0 + t (p1 - p0) meets
    the cells exactly between consecutive grid-line crossings, so it is
    cut at t = 0, 1 and (x_k - p0x) / (p1x - p0x) for every grid line
    x_k strictly inside its x span, likewise in y.  Each piece belongs
    to the cell whose closed x and y ranges hold its midpoint, the
    lower/left one when the midpoint is on a grid line (cell 0 on the
    domain's left or bottom edge), so a fracture along a cell edge is
    counted once.  Pieces of length <= ``grid.geom_tol`` and pieces
    outside the grid are dropped.
    """
    if f.model is not FractureModel.EFM:
        raise GeometryError(f"fracture {f.id}: not an embedded-model fracture")
    f.validate_inside(grid)
    tol = grid.geom_tol
    if f.length < tol:
        raise GeometryError(f"fracture {f.id}: degenerate (length below tolerance)")

    xs = grid.domain.x0 + np.arange(grid.fine_nx + 1) * grid.hx
    ys = grid.domain.y0 + np.arange(grid.fine_ny + 1) * grid.hy
    nodes, arcs, pieces = [f.polyline[:1]], [np.zeros(1)], []
    s = 0.0
    for p0, p1 in zip(f.polyline[:-1], f.polyline[1:]):
        d = p1 - p0
        seg = np.hypot(*d)
        # 1D mesh: the segment subdivided evenly
        nsub = max(int(np.ceil(seg / min(grid.hx, grid.hy) - 1e-12)), 1)
        tk = np.arange(1, nsub + 1) / nsub
        nodes.append(p0 + tk[:, None] * d)
        arcs.append(s + tk * seg)
        # overlaps: the pieces between consecutive grid-line crossings
        t = np.unique(np.concatenate([[0.0, 1.0]] + [
            (lines[(lines > min(a, b)) & (lines < max(a, b))] - a) / (b - a)
            for lines, a, b in ((xs, p0[0], p1[0]), (ys, p0[1], p1[1]))]))
        length = np.diff(t) * seg
        tm = 0.5 * (t[:-1] + t[1:])
        mid = p0 + tm[:, None] * d
        # the first cell whose closed range holds the midpoint, per axis
        i = np.searchsorted(xs[1:], mid[:, 0])
        j = np.searchsorted(ys[1:], mid[:, 1])
        n = np.flatnonzero((length > tol) & (i < grid.fine_nx) & (j < grid.fine_ny)
                           & (mid >= (xs[0], ys[0])).all(axis=1))
        n = n[np.lexsort((i[n], j[n]))]
        pieces.append((grid.cell_id(i[n], j[n]), length[n], mid[n], s + tm[n] * seg))
        s += seg

    cells, lengths, midpoints, mid_arcs = (np.concatenate(a) for a in zip(*pieces))
    return EfmTrace(fracture_id=f.id, frac_nodes=np.concatenate(nodes),
                    arclengths=np.concatenate(arcs), cells=cells, lengths=lengths,
                    midpoints=midpoints, mid_arcs=mid_arcs,
                    effective_coeff=f.conductivity, aperture=f.aperture)
