"""Fracture network geometry and its mapping onto the structured grid.

Two fine-scale representations are supported:

* conforming traces, where a fracture is carried by fine-grid edges and
  contributes a one-dimensional stiffness along them (high-permeability
  lines embedded in the matrix mesh), and
* embedded traces, where a fracture keeps its own 1D mesh, independent
  of the matrix nodes, and talks to the matrix through per-cell
  intersection data.

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
class OverlapPiece:
    """One connected intersection of an embedded fracture with a fine cell."""

    cell: int           # fine-cell id
    length: float       # |S|, length of the intersection
    midpoint: np.ndarray  # (x, y) of the piece midpoint
    arclength: float    # fracture arclength at the midpoint


@dataclass
class EfmTrace:
    """Embedded fracture: independent 1D mesh plus cell intersection data."""

    fracture_id: int
    frac_nodes: np.ndarray      # (k, 2) 1D mesh node positions
    arclengths: np.ndarray      # (k,) cumulative arclength of the nodes
    cell_overlaps: list[OverlapPiece]
    effective_coeff: float
    aperture: float = 1.0

    @property
    def n_nodes(self) -> int:
        return len(self.frac_nodes)

    def hat_weights(self, s: float) -> tuple[int, float, float]:
        """1D element index and hat-function weights at arclength s."""
        k = int(np.searchsorted(self.arclengths, s, side="right") - 1)
        k = min(max(k, 0), self.n_nodes - 2)
        t0, t1 = self.arclengths[k], self.arclengths[k + 1]
        w1 = (s - t0) / (t1 - t0)
        return k, 1.0 - w1, w1


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

    Each polyline vertex snaps to its nearest fine node; consecutive
    snapped vertices are joined by the monotone lattice path that
    alternates axes as evenly as possible (ties toward x).
    """
    if f.model is not FractureModel.DFM:
        raise GeometryError(f"fracture {f.id}: not a conforming-model fracture")
    f.validate_inside(grid)

    verts = [grid.nearest_node(x, y) for x, y in f.polyline]
    edges = []
    for (ia, ja), (ib, jb) in zip(verts[:-1], verts[1:]):
        if (ia, ja) == (ib, jb):
            raise GeometryError(
                f"fracture {f.id}: polyline segment collapsed to a single "
                "fine node after snapping (degenerate trace)")
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


def _clip_segment_to_cells(p0, p1, xs, ys):
    """Liang-Barsky clip of segment p0->p1 against every cell
    [xs[i], xs[i+1]] x [ys[j], ys[j+1]] at once.

    Returns (t_enter, t_exit, hit), each of shape (len(ys) - 1,
    len(xs) - 1): the parameters in [0, 1] and whether the intersection
    is non-empty.  Each entry is the scalar clip's arithmetic, bit for
    bit: the x slab, then the y slab, ties kept as ``max``/``min`` keep
    their first argument.
    """
    d = p1 - p0
    shape = (len(ys) - 1, len(xs) - 1)
    t0, t1 = np.zeros(shape), np.ones(shape)
    hit = np.ones(shape, dtype=bool)
    for delta, p, lo, hi in ((d[0], p0[0], xs[None, :-1], xs[None, 1:]),
                             (d[1], p0[1], ys[:-1, None], ys[1:, None])):
        if delta == 0.0:
            hit &= (p >= lo) & (p <= hi)
            continue
        ta = (lo - p) / delta
        tb = (hi - p) / delta
        swap = ta > tb
        ta, tb = np.where(swap, tb, ta), np.where(swap, ta, tb)
        t0 = np.where(ta > t0, ta, t0)
        t1 = np.where(tb < t1, tb, t1)
    return t0, t1, hit & (t0 <= t1)


def _subtract_intervals(span, claimed):
    """Parts of the interval ``span`` not covered by any interval in ``claimed``."""
    parts = [span]
    for c0, c1 in claimed:
        nxt = []
        for a, b in parts:
            if min(b, c1) <= max(a, c0):
                nxt.append((a, b))
                continue
            if c0 > a:
                nxt.append((a, c0))
            if c1 < b:
                nxt.append((c1, b))
        parts = nxt
    return parts


def intersect_efm(f: Fracture, grid: GridHierarchy) -> EfmTrace:
    """Mesh an embedded fracture and clip it against the fine cells.

    1D nodes are placed along arclength with spacing at most the fine
    mesh size min(hx, hy).  Cell overlaps come from exact
    segment/rectangle clipping; zero-length touches are dropped.
    """
    if f.model is not FractureModel.EFM:
        raise GeometryError(f"fracture {f.id}: not an embedded-model fracture")
    f.validate_inside(grid)
    tol = grid.geom_tol
    if f.length < tol:
        raise GeometryError(f"fracture {f.id}: degenerate (length below tolerance)")

    # 1D mesh along arclength, each polyline segment subdivided evenly
    pts = [f.polyline[0]]
    arcs = [0.0]
    s = 0.0
    for p0, p1 in zip(f.polyline[:-1], f.polyline[1:]):
        seg = np.hypot(*(p1 - p0))
        nsub = max(int(np.ceil(seg / min(grid.hx, grid.hy) - 1e-12)), 1)
        for k in range(1, nsub + 1):
            t = k / nsub
            pts.append(p0 + t * (p1 - p0))
            arcs.append(s + t * seg)
        s += seg
    frac_nodes = np.array(pts)
    arclengths = np.array(arcs)

    # cell overlaps by clipping each polyline segment; a fracture running
    # along a cell boundary would be clipped into both neighbours, so each
    # stretch of arclength is claimed by the first cell that covers it
    overlaps: list[OverlapPiece] = []
    s = 0.0
    x0d, y0d = grid.domain.x0, grid.domain.y0
    for p0, p1 in zip(f.polyline[:-1], f.polyline[1:]):
        p0 = np.asarray(p0, float)
        p1 = np.asarray(p1, float)
        seg = float(np.hypot(*(p1 - p0)))
        ilo = int(np.clip(np.floor((min(p0[0], p1[0]) - x0d) / grid.hx - 1e-12),
                          0, grid.fine_nx - 1))
        ihi = int(np.clip(np.ceil((max(p0[0], p1[0]) - x0d) / grid.hx + 1e-12),
                          1, grid.fine_nx))
        jlo = int(np.clip(np.floor((min(p0[1], p1[1]) - y0d) / grid.hy - 1e-12),
                          0, grid.fine_ny - 1))
        jhi = int(np.clip(np.ceil((max(p0[1], p1[1]) - y0d) / grid.hy + 1e-12),
                          1, grid.fine_ny))
        t_in, t_out, hit = _clip_segment_to_cells(
            p0, p1, x0d + np.arange(ilo, ihi + 1) * grid.hx,
            y0d + np.arange(jlo, jhi + 1) * grid.hy)
        # the cells the segment meets, in (j, i) order; each subtracts
        # what earlier cells claimed, read off the spans it overlaps
        jj, ii = np.nonzero(hit)
        a, b = t_in[hit], t_out[hit]
        claimed: list[list[tuple[float, float]]] = []
        for k, (i, j) in enumerate(zip((ii + ilo).tolist(), (jj + jlo).tolist())):
            near = np.flatnonzero(np.minimum(b[:k], b[k]) > np.maximum(a[:k], a[k]))
            claimed.append([])
            for t0, t1 in _subtract_intervals(
                    (a[k], b[k]), [c for n in near.tolist() for c in claimed[n]]):
                length = (t1 - t0) * seg
                if length <= tol:
                    continue
                claimed[k].append((t0, t1))
                tm = 0.5 * (t0 + t1)
                overlaps.append(OverlapPiece(
                    cell=grid.cell_id(i, j), length=length,
                    midpoint=p0 + tm * (p1 - p0), arclength=s + tm * seg))
        s += seg

    return EfmTrace(fracture_id=f.id, frac_nodes=frac_nodes,
                    arclengths=arclengths, cell_overlaps=overlaps,
                    effective_coeff=f.conductivity, aperture=f.aperture)
