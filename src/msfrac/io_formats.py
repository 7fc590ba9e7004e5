"""Output formats: error CSV, VTK structured points, Matrix Market,
kappa rasters, eigenvalue dumps and the run manifest.

All writers are deterministic — fixed float formatting, no timestamps —
so identical runs produce byte-identical artifacts.
"""

from __future__ import annotations

import os

import numpy as np
import scipy.io
import scipy.sparse as sparse
import yaml

from .analysis import ErrorReport
from .grids import GridHierarchy

__all__ = ["write_error_csv", "write_trajectory_csv", "write_solution_csv",
           "write_vtk", "write_matrix_market", "write_eigenvalue_csv",
           "write_manifest", "read_kappa_raster"]

CSV_HEADER = "dim,l2_fine_pct,h1_fine_pct,l2_snap_pct,h1_snap_pct"
TRAJECTORY_HEADER = "iteration,dim,l2_fine_pct,h1_fine_pct,marked"


def _fmt(v) -> str:
    return "" if v is None else f"{100.0 * v:.10g}"


def _write_table(path: str, header: str, rows) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join([header] + [",".join(r) for r in rows]) + "\n")


def write_error_csv(path: str, reports: list[ErrorReport]) -> None:
    """The convergence-table CSV; one row per offline-space dimension."""
    _write_table(path, CSV_HEADER, (
        [str(r.dim_Voff), _fmt(r.rel_L2_vs_fine), _fmt(r.rel_energy_vs_fine),
         _fmt(r.rel_L2_vs_snap), _fmt(r.rel_energy_vs_snap)]
        for r in reports))


def write_trajectory_csv(path: str, history: list) -> None:
    """The adaptive-loop CSV; one row per iteration's indicator report."""
    _write_table(path, TRAJECTORY_HEADER, (
        [str(rep.iteration), str(rep.dim), _fmt(rep.l2_error),
         _fmt(rep.energy_error), str(len(rep.marked))]
        for rep in history))


def write_solution_csv(path: str, g: GridHierarchy, u: np.ndarray) -> None:
    xyu = np.column_stack([g.node_coords, np.asarray(u, dtype=float)]).ravel().tolist()
    with open(path, "w") as fh:   # one % format over all values is the fast path
        fh.write("x,y,u\n" + ("%.10g,%.10g,%.12g\n" * (len(xyu) // 3)) % tuple(xyu))


def write_vtk(path: str, g: GridHierarchy, u: np.ndarray) -> None:
    """Legacy VTK structured-points file of a fine-nodal field."""
    u = np.asarray(u, dtype=float)
    if u.shape[0] != g.n_nodes:
        raise ValueError("field length does not match the fine grid")
    header = ("# vtk DataFile Version 3.0\n"
              "fine-grid nodal field\n"
              "ASCII\n"
              "DATASET STRUCTURED_POINTS\n"
              f"DIMENSIONS {g.fine_nx + 1} {g.fine_ny + 1} 1\n"
              f"ORIGIN {g.domain.x0:.10g} {g.domain.y0:.10g} 0\n"
              f"SPACING {g.hx:.10g} {g.hy:.10g} 1\n"
              f"POINT_DATA {g.n_nodes}\n"
              "SCALARS pressure double\n"
              "LOOKUP_TABLE default\n")
    with open(path, "w") as fh:  # node order is already x-fastest, matching VTK
        fh.write(header + ("%.12g\n" * len(u)) % tuple(u.tolist()))


def write_matrix_market(path: str, A) -> None:
    scipy.io.mmwrite(path, sparse.coo_matrix(A))


def write_eigenvalue_csv(path: str, spaces) -> None:
    """Per-neighborhood eigenvalue dump: omega_id,k,lambda."""
    rows = [x for sp in sorted(spaces, key=lambda s: s.omega_id)
            for k, lam in enumerate(np.asarray(sp.eigvals).tolist(), 1)
            for x in (sp.omega_id, k, lam)]
    with open(path, "w") as fh:
        fh.write("omega_id,k,lambda\n" + ("%d,%d,%.12g\n" * (len(rows) // 3)) % tuple(rows))


def write_manifest(path: str, cfg_dict: dict, extras: dict | None = None) -> None:
    """Config echo plus versions and run metadata (no timestamps)."""
    import msfrac

    doc = {
        "config": cfg_dict,
        "versions": {
            "msfrac": msfrac.__version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    if extras:
        doc["run"] = extras
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=True, default_flow_style=False)


def read_kappa_raster(path: str, g: GridHierarchy) -> np.ndarray:
    """Per-cell permeability raster: header 'nx ny', then ny rows of nx
    values, row-major from the bottom row up (matching cell numbering)."""
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: expected 'nx ny' header")
        nx, ny = int(header[0]), int(header[1])
        data = np.loadtxt(fh, dtype=float, ndmin=2)
    if (nx, ny) != (g.fine_nx, g.fine_ny):
        raise ValueError(f"{path}: raster is {nx}x{ny}, grid needs "
                         f"{g.fine_nx}x{g.fine_ny}")
    if data.shape != (ny, nx):
        raise ValueError(f"{path}: expected {ny} rows of {nx} values, "
                         f"got {data.shape}")
    if not np.all((data > 0) & (data < np.inf)):
        raise ValueError(f"{path}: permeability values must be positive and finite")
    return data.reshape(-1)
