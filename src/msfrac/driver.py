"""Experiment pipelines behind the CLI subcommands, on one staged path:
``setup`` (grid, traces, fine system) -> ``offline_spaces`` (POU and
local spectral spaces) -> fine reference -> one Galerkin projection of the
largest space, then a coarse solve on each row's cut of it and its
error norms per mode count -> ``_write`` (solution files, eigenvalues,
manifest).  Each command runs on one BLAS thread (``_one_blas_thread``).
``solve`` is the one-row sweep without the snapshot reference, ``adapt``
swaps the sweep for the enrichment loop, and ``export-matrices`` dumps
the operators of the configured space.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .grids import Rect, GridHierarchy, build_hierarchy
from .fractures import Fracture, FractureNetwork, rasterize_dfm, intersect_efm
from .assembly import (PermeabilityField, FineSystem, assemble_dfm,
                       assemble_efm, node_operator, solve_fine)
from .offline import offline_spaces
from .coarse import build_space, coarse_system, restrict, solve_coarse
from .adaptivity import adaptive_loop
from .analysis import ErrorReport, errors
from .config import RunConfig, config_to_dict, parse_config
from .fields import FIELD_GENERATORS
from . import io_formats

__all__ = ["RunSetup", "setup", "m_off_schedule", "run_solve", "run_sweep",
           "run_adapt", "run_export_matrices"]


@dataclass
class RunSetup:
    cfg: RunConfig
    grid: GridHierarchy
    sys: FineSystem


def _build_network(cfg: RunConfig, g: GridHierarchy) -> FractureNetwork:
    fr = cfg.fractures
    if fr.field is not None:
        given = {k: v for k, v in (("kappa_f", fr.kappa_f), ("aperture", fr.aperture))
                 if v is not None}
        return FIELD_GENERATORS[fr.field](g, seed=fr.seed, **fr.params, **given)
    return FractureNetwork([Fracture(fs.polyline, fs.aperture, fs.kappa_f, fs.model, k)
                            for k, fs in enumerate(fr.fractures)])


def setup(cfg: RunConfig) -> RunSetup:
    """Config, output directory, grid, traces and fine system of a run;
    cfg is echoed and parsed again, so one built in code is checked too
    (with its sweep as given: the echo leaves out an empty one)."""
    cfg = parse_config({**config_to_dict(cfg), "sweep": cfg.sweep})
    os.makedirs(cfg.outputs.dir, exist_ok=True)
    g = build_hierarchy(Rect(*cfg.grid.domain), cfg.grid.coarse_nx,
                        cfg.grid.coarse_ny, cfg.grid.refine, cfg.grid.t)
    network = _build_network(cfg, g)
    if cfg.matrix.raster is not None:
        kappa = io_formats.read_kappa_raster(cfg.matrix.raster, g)
    else:
        kappa = np.full(g.n_cells, cfg.matrix.kappa)
    perm = PermeabilityField(kappa)
    dfm_traces = [rasterize_dfm(f, g) for f in network.dfm]
    efm_traces = [intersect_efm(f, g) for f in network.efm]
    bc = cfg.bc_callable()
    f = cfg.source_callable()
    if efm_traces:
        sys = assemble_efm(g, perm, dfm_traces, efm_traces, f=f, bc=bc)
    else:
        sys = assemble_dfm(g, perm, dfm_traces, f=f, bc=bc)
    return RunSetup(cfg=cfg, grid=g, sys=sys)


def m_off_schedule(g: GridHierarchy, M_off: int,
                   enrich_boundary: bool = False) -> np.ndarray:
    """Per-coarse-node mode counts: M_off inside, 1 on the domain
    boundary unless boundary enrichment is requested."""
    out = np.ones(g.n_coarse_nodes, dtype=int)
    for nb in g.neighborhoods:
        out[nb.index] = M_off if (nb.is_interior or enrich_boundary) else 1
    return out


def _openblas_thread_controls():
    """(get, set) thread-count functions of every OpenBLAS loaded so far."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh
                            if "openblas" in os.path.basename(ln.split()[-1]).lower()})
    except OSError:                   # no /proc: nothing found, nothing capped
        return []
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_{}_num_threads64_",
                     "scipy_openblas_{}_num_threads", "openblas_{}_num_threads"):
            get = getattr(lib, name.format("get"), None)
            set_ = getattr(lib, name.format("set"), None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return controls


@contextmanager
def _one_blas_thread():
    """Cap every loaded OpenBLAS at one thread, restoring the previous
    counts on exit; yields whether any library was capped.

    Every command runs under it (it decorates the ``run_*`` functions):
    an idle OpenBLAS helper thread spins after each multithreaded call
    and takes a core from the serial stages, while the sparse fine LU
    takes as long on one thread as on two.
    """
    restore = []
    try:
        for get, set_ in _openblas_thread_controls():
            restore.append((set_, get()))
            set_(1)
        yield bool(restore)
    finally:
        for set_, n in restore:
            set_(n)


def _solving_stages(cfg: RunConfig, n_modes):
    """The stages every solving command runs first: ``setup``,
    ``offline_spaces`` keeping ``n_modes(rs.cfg)`` modes, the most any
    coarse node reads, and the fine reference solve."""
    rs = setup(cfg)
    pou, spaces = offline_spaces(rs.grid, rs.sys, rs.cfg.offline, n_modes(rs.cfg))
    return rs, pou, spaces, solve_fine(rs.sys)


def _counts_at(rs, m):
    """Per-coarse-node mode counts of the row with m modes per interior
    coarse node."""
    return m_off_schedule(rs.grid, m, rs.cfg.offline.enrich_boundary)


def _space_at(rs, pou, spaces, m):
    """Multiscale space with m modes per interior coarse node."""
    return build_space(pou, spaces, _counts_at(rs, m))


def _error_table(rs, pou, spaces, schedule, u_fine, snapshot_reference):
    """Error report against the fine solution ``u_fine`` and coarse-solve
    info per mode count of the schedule, and the coarse solution of the
    last count.  The largest count's space is built and projected once,
    and each row's system is cut from it (``restrict``).  With
    ``snapshot_reference`` the largest count's solution, solved once, is
    also the reference of the snapshot-error columns.
    """
    m_ref = max(schedule)
    ms = _space_at(rs, pou, spaces, m_ref)
    system = coarse_system(ms, rs.sys)

    def solve_at(m):
        row, row_system = restrict(ms, system, _counts_at(rs, m))
        return row.N_c, solve_coarse(row, rs.sys, row_system)

    solved, u_snap = {}, None
    if snapshot_reference:
        solved[m_ref] = solve_at(m_ref)
        u_snap = solved[m_ref][1].u_ms_fine
    reports, infos = [], []
    for m in schedule:
        dim, sol = solved.get(m) or solve_at(m)
        reports.append(errors(u_fine, u_snap, sol.u_ms_fine, rs.sys,
                              dim_Voff=dim))
        infos.append(sol.info)
    return reports, infos, sol


def _2g(x):
    """x to 2 significant digits, so that reruns repeat it (None stays)."""
    return None if x is None else float(f"{x:.2g}")


def _coarse_paths(infos):
    """Manifest record of the coarse solves: the solver path of each, its
    rcond to 2 significant digits and the least-squares rank (None on
    the LU path)."""
    return {"coarse_solver": [i["solver"] for i in infos],
            "coarse_rcond": [_2g(i["rcond"]) for i in infos],
            "coarse_rank": [i.get("rank") for i in infos]}


def _outpath(cfg, name):
    return os.path.join(cfg.outputs.dir, name)


def _write(rs, sol, spaces, run):
    """Solution files, eigenvalues and the manifest of a solving command;
    ``run`` is the manifest's run record, completed here by the seeds."""
    cfg = rs.cfg
    u = sol.u_ms_fine[:rs.grid.n_nodes]       # the matrix field
    if cfg.outputs.solution_csv:
        io_formats.write_solution_csv(_outpath(cfg, cfg.outputs.solution_csv),
                                      rs.grid, u)
    if cfg.outputs.vtk:
        io_formats.write_vtk(_outpath(cfg, cfg.outputs.vtk), rs.grid, u)
    if cfg.outputs.eigenvalues:
        io_formats.write_eigenvalue_csv(_outpath(cfg, cfg.outputs.eigenvalues),
                                        spaces)
    run["seeds"] = {"fractures": cfg.fractures.seed, "offline": cfg.offline.seed}
    io_formats.write_manifest(_outpath(cfg, cfg.outputs.manifest),
                              config_to_dict(cfg), run)


@_one_blas_thread()
def run_solve(cfg: RunConfig) -> list[ErrorReport]:
    """Single coarse solve at the configured mode count."""
    rs, pou, spaces, fine = _solving_stages(cfg, lambda c: c.offline.M_off)
    cfg = rs.cfg
    reports, infos, sol = _error_table(rs, pou, spaces, [cfg.offline.M_off],
                                       fine.u, snapshot_reference=False)
    io_formats.write_error_csv(_outpath(cfg, cfg.outputs.csv), reports)
    _write(rs, sol, spaces, {"command": "solve", "dim": reports[0].dim_Voff,
                             "offline_mode": cfg.offline.mode,
                             "fine_residual": _2g(fine.residual),
                             **{k: v[0] for k, v in _coarse_paths(infos).items()}})
    return reports


@_one_blas_thread()
def run_sweep(cfg: RunConfig) -> list[ErrorReport]:
    """Convergence table over the offline-dimension schedule; the
    snapshot-error columns are relative to the largest space's solution."""
    rs, pou, spaces, fine = _solving_stages(cfg, lambda c: max(c.sweep))
    cfg = rs.cfg
    reports, infos, sol = _error_table(rs, pou, spaces, cfg.sweep,
                                       fine.u, snapshot_reference=True)
    io_formats.write_error_csv(_outpath(cfg, cfg.outputs.csv), reports)
    run = {"command": "sweep", "schedule": list(cfg.sweep),
           "offline_mode": cfg.offline.mode,
           "fine_residual": _2g(fine.residual),
           "dims": [r.dim_Voff for r in reports], **_coarse_paths(infos)}
    if cfg.offline.mode == "randomized":
        # the random draws of the interior neighborhoods, each counted once
        # though a group draws once for all its members (the constant
        # snapshot is free), over the rim nodes of their oversampled boxes;
        # boundary patches keep a single mode and are left out
        rims = [int(np.count_nonzero(rs.grid.box_rim(nb.cells_plus)))
                for nb in rs.grid.neighborhoods if nb.is_interior]
        drawn = (cfg.offline.k_nb + cfg.offline.p_bf) * len(rims)
        run["snapshot_ratio_pct"] = round(100.0 * drawn / sum(rims), 4)
    _write(rs, sol, spaces, run)
    return reports


@_one_blas_thread()
def run_adapt(cfg: RunConfig):
    """Adaptive enrichment driven by the residual (or manual) indicator."""
    # every mode: the indicators read the ones a node does not use yet
    rs, pou, spaces, fine = _solving_stages(cfg, lambda c: None)
    cfg = rs.cfg
    sol, history = adaptive_loop(rs.sys, pou, spaces, cfg.adapt,
                                 u_fine=fine.u)
    io_formats.write_trajectory_csv(_outpath(cfg, cfg.outputs.csv), history)
    _write(rs, sol, spaces, {"command": "adapt", "theta": cfg.adapt.theta,
                             "indicator": cfg.adapt.indicator,
                             "fine_residual": _2g(fine.residual),
                             "dims": [rep.dim for rep in history],
                             **_coarse_paths([rep.coarse_info for rep in history])})
    return sol, history


@_one_blas_thread()
def run_export_matrices(cfg: RunConfig) -> list[str]:
    """Dump the assembled operators in Matrix Market format."""
    rs = setup(cfg)
    cfg = rs.cfg
    pou, spaces = offline_spaces(rs.grid, rs.sys, cfg.offline, cfg.offline.M_off)
    ms = _space_at(rs, pou, spaces, cfg.offline.M_off)
    A0 = coarse_system(ms, rs.sys)[0][:ms.N_c, :ms.N_c]
    S = node_operator(rs.grid, pou.kappa_tilde, pou.edge_kappa_tilde, kind="mass")
    A = node_operator(rs.grid, rs.sys.perm.kappa_cells, rs.sys.edge_arrays)
    mats = {"A.mtx": A, "S.mtx": S, "A0.mtx": A0, "R0T.mtx": ms.R0T}
    if rs.sys.efm_traces:
        mats["A_m.mtx"] = rs.sys.block(0, 0)
        for i in range(len(rs.sys.efm_traces)):
            mats[f"B_{i}.mtx"] = rs.sys.block(i + 1, i + 1)
            mats[f"B_mf_{i}.mtx"] = rs.sys.block(0, i + 1)
    for name, M in mats.items():
        io_formats.write_matrix_market(_outpath(cfg, name), M)
    io_formats.write_manifest(_outpath(cfg, cfg.outputs.manifest),
                              config_to_dict(cfg),
                              {"command": "export-matrices", "files": list(mats)})
    return [_outpath(cfg, name) for name in mats]
