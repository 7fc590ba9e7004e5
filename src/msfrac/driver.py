"""Experiment pipelines: assemble -> offline -> coarse solve -> errors.

Four entry points mirror the CLI subcommands: a single solve, an
offline-dimension sweep (the convergence-table experiment), the
adaptive-enrichment loop, and an operator export for debugging.  Every
run writes a manifest with the config echo and effective seeds.
"""

from __future__ import annotations

import ctypes
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np

from .grids import Rect, GridHierarchy, build_hierarchy
from .fractures import Fracture, FractureNetwork, rasterize_dfm, intersect_efm
from .assembly import (PermeabilityField, FineSystem, FineSolution,
                       assemble_dfm, assemble_efm, solve_fine)
from .offline import (compute_pou, full_snapshots, randomized_snapshots,
                      offline_eigendecomposition)
from .coarse import build_space, solve_coarse_dfm, solve_coarse_efm
from .adaptivity import adaptive_loop
from .analysis import ErrorReport, errors
from .config import RunConfig, config_to_dict
from .fields import FIELD_GENERATORS
from . import io_formats

__all__ = ["RunSetup", "setup", "m_off_schedule", "run_solve", "run_sweep",
           "run_adapt", "run_export_matrices"]


@dataclass
class RunSetup:
    cfg: RunConfig
    grid: GridHierarchy
    network: FractureNetwork
    perm: PermeabilityField
    dfm_traces: list
    efm_traces: list
    sys: FineSystem


def _build_network(cfg: RunConfig, g: GridHierarchy) -> FractureNetwork:
    fr = cfg.fractures
    if fr.field is not None:
        gen = FIELD_GENERATORS[fr.field]
        kwargs = dict(fr.params)
        if fr.kappa_f is not None:
            kwargs["kappa_f"] = fr.kappa_f
        if fr.aperture is not None:
            kwargs["aperture"] = fr.aperture
        return gen(g, seed=fr.seed, **kwargs)
    fracs = [Fracture(polyline=np.asarray(fs.polyline, dtype=float),
                      aperture=fs.aperture, kappa_f=fs.kappa_f,
                      model=fs.model, id=k)
             for k, fs in enumerate(fr.fractures)]
    return FractureNetwork(fracs)


def setup(cfg: RunConfig) -> RunSetup:
    g = build_hierarchy(Rect(*cfg.grid.domain), cfg.grid.coarse_nx,
                        cfg.grid.coarse_ny, cfg.grid.refine, cfg.grid.t)
    network = _build_network(cfg, g)
    if cfg.matrix.raster is not None:
        kappa = io_formats.read_kappa_raster(cfg.matrix.raster, g)
    else:
        kappa = np.full(g.n_cells, cfg.matrix.kappa)
    perm = PermeabilityField(kappa, network)
    dfm_traces = [rasterize_dfm(f, g) for f in network.dfm]
    efm_traces = [intersect_efm(f, g) for f in network.efm]
    bc = cfg.bc_callable()
    f = cfg.source_callable()
    if efm_traces:
        sys = assemble_efm(g, perm, dfm_traces, efm_traces, f=f, bc=bc)
    else:
        sys = assemble_dfm(g, perm, dfm_traces, f=f, bc=bc)
    return RunSetup(cfg=cfg, grid=g, network=network, perm=perm,
                    dfm_traces=dfm_traces, efm_traces=efm_traces, sys=sys)


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
    counts on exit; yields whether any library was capped."""
    restore = []
    try:
        for get, set_ in _openblas_thread_controls():
            restore.append((set_, get()))
            set_(1)
        yield bool(restore)
    finally:
        for set_, n in restore:
            set_(n)


def _neighborhood_offline(rs: RunSetup, pou, omega_id: int):
    """Local spectral space of one coarse neighborhood, and its drawn and
    full-snapshot counts; the snapshots themselves are dropped here."""
    off = rs.cfg.offline
    if off.mode == "randomized":
        snap = randomized_snapshots(rs.grid, rs.sys, omega_id, k_nb=off.k_nb,
                                    p_bf=off.p_bf, seed=off.seed)
    else:
        snap = full_snapshots(rs.grid, rs.sys, omega_id)
    # all modes are kept; each solve selects its count
    space = offline_eigendecomposition(snap, rs.sys, pou, M_off=1)
    drawn = snap.l_i - int(snap.constant_included)  # the constant is free
    return space, (drawn, snap.gen_boundary_count)


def _offline(rs: RunSetup):
    """Output directory, POU, local spectra and snapshot counts of a run.

    The neighborhoods are independent local problems, solved on one
    worker thread per usable CPU: their sparse LU solves and matrix
    products release the interpreter lock.  Each runs on one BLAS
    thread, so its result does not depend on the worker count.  Without
    a BLAS that can be capped the map runs on a single worker.
    """
    os.makedirs(rs.cfg.outputs.dir, exist_ok=True)
    pou = compute_pou(rs.grid, rs.sys)
    with _one_blas_thread() as capped:
        workers = len(os.sched_getaffinity(0)) if capped else 1
        with ThreadPoolExecutor(workers) as pool:
            done = list(pool.map(partial(_neighborhood_offline, rs, pou),
                                 [nb.index for nb in rs.grid.neighborhoods]))
    return pou, [space for space, _ in done], [counts for _, counts in done]


def _space_at(rs, pou, spaces, m):
    """Multiscale space with m modes per interior coarse node."""
    schedule = m_off_schedule(rs.grid, m, rs.cfg.offline.enrich_boundary)
    return build_space(pou, [sp.with_m_off(schedule[sp.omega_id])
                             for sp in spaces])


def _solve_at(rs, pou, spaces, m):
    ms = _space_at(rs, pou, spaces, m)
    if rs.sys.mode == "efm":
        sol = solve_coarse_efm(ms, rs.sys)
    else:
        sol = solve_coarse_dfm(ms, rs.sys)
    return ms, sol


def _block(rs, u_matrix, u_frac):
    if rs.sys.mode != "efm":
        return u_matrix
    return np.concatenate([u_matrix] + list(u_frac))


def _outpath(cfg, name):
    return os.path.join(cfg.outputs.dir, name)


def _write_common(rs, sol, spaces, extras):
    cfg = rs.cfg
    if cfg.outputs.solution_csv:
        io_formats.write_solution_csv(_outpath(cfg, cfg.outputs.solution_csv),
                                      rs.grid, sol.u_ms_fine)
    if cfg.outputs.vtk:
        io_formats.write_vtk(_outpath(cfg, cfg.outputs.vtk), rs.grid,
                             sol.u_ms_fine)
    if cfg.outputs.eigenvalues:
        io_formats.write_eigenvalue_csv(_outpath(cfg, cfg.outputs.eigenvalues),
                                        spaces)
    io_formats.write_manifest(_outpath(cfg, cfg.outputs.manifest),
                              config_to_dict(cfg), extras)


def run_solve(cfg: RunConfig) -> list[ErrorReport]:
    """Single coarse solve at the configured mode count."""
    rs = setup(cfg)
    pou, spaces, _ = _offline(rs)
    ms, sol = _solve_at(rs, pou, spaces, cfg.offline.M_off)
    fine = solve_fine(rs.sys)
    rep = errors(_block(rs, fine.u, fine.u_frac),
                 None,
                 _block(rs, sol.u_ms_fine, sol.efm_fracture_dofs),
                 rs.sys, dim_Voff=ms.N_c,
                 metadata={"mode": rs.sys.mode})
    io_formats.write_error_csv(_outpath(cfg, cfg.outputs.csv), [rep])
    extras = {"command": "solve", "dim": int(ms.N_c),
              "offline_mode": cfg.offline.mode,
              "seeds": {"fractures": cfg.fractures.seed,
                        "offline": cfg.offline.seed},
              "coarse_solver": sol.info.get("solver", "direct")}
    _write_common(rs, sol, spaces, extras)
    return [rep]


def run_sweep(cfg: RunConfig) -> list[ErrorReport]:
    """Convergence table over the offline-dimension schedule.

    The reference for the snapshot-error columns is the coarse solution
    of the largest space in the schedule, so the largest row's snapshot
    errors vanish by construction.
    """
    rs = setup(cfg)
    pou, spaces, counts = _offline(rs)
    fine = solve_fine(rs.sys)
    u_fine = _block(rs, fine.u, fine.u_frac)

    m_max = max(cfg.sweep)
    ms_ref, sol_ref = _solve_at(rs, pou, spaces, m_max)
    u_snap = _block(rs, sol_ref.u_ms_fine, sol_ref.efm_fracture_dofs)

    reports = []
    last = None
    for m in cfg.sweep:
        if m == m_max:
            ms, sol = ms_ref, sol_ref
        else:
            ms, sol = _solve_at(rs, pou, spaces, m)
        u_off = _block(rs, sol.u_ms_fine, sol.efm_fracture_dofs)
        reports.append(errors(u_fine, u_snap, u_off, rs.sys, dim_Voff=ms.N_c,
                              metadata={"M_off": m}))
        last = sol
    io_formats.write_error_csv(_outpath(cfg, cfg.outputs.csv), reports)
    extras = {"command": "sweep", "schedule": list(cfg.sweep),
              "offline_mode": cfg.offline.mode,
              "dims": [int(r.dim_Voff) for r in reports],
              "seeds": {"fractures": cfg.fractures.seed,
                        "offline": cfg.offline.seed}}
    if cfg.offline.mode == "randomized":
        # snapshot work actually done over interior neighborhoods, as a
        # fraction of what full snapshots would cost there; boundary
        # patches are excluded (they keep a single mode regardless)
        interior = [c for c, nb in zip(counts, rs.grid.neighborhoods)
                    if nb.is_interior]
        drawn = sum(d for d, _ in interior)
        full = sum(n for _, n in interior)
        extras["snapshot_ratio_pct"] = round(100.0 * drawn / full, 4)
    _write_common(rs, last, spaces, extras)
    return reports


def run_adapt(cfg: RunConfig):
    """Adaptive enrichment driven by the residual (or manual) indicator."""
    rs = setup(cfg)
    if rs.sys.mode == "efm":
        raise ValueError("adaptive enrichment runs on the monolithic model only")
    pou, spaces, _ = _offline(rs)
    fine = solve_fine(rs.sys)
    sol, history = adaptive_loop(rs.sys, pou, spaces, cfg.adapt, u_fine=fine.u)

    path = _outpath(cfg, cfg.outputs.csv)
    with open(path, "w") as fh:
        fh.write("iteration,dim,l2_fine_pct,h1_fine_pct,marked\n")
        for rep in history:
            l2 = "" if rep.l2_error is None else f"{100 * rep.l2_error:.10g}"
            h1 = "" if rep.energy_error is None else f"{100 * rep.energy_error:.10g}"
            fh.write(f"{rep.iteration},{rep.dim},{l2},{h1},{len(rep.marked)}\n")
    extras = {"command": "adapt", "theta": cfg.adapt.theta,
              "indicator": cfg.adapt.indicator,
              "dims": [int(rep.dim) for rep in history],
              "seeds": {"fractures": cfg.fractures.seed,
                        "offline": cfg.offline.seed}}
    _write_common(rs, sol, spaces, extras)
    return sol, history


def run_export_matrices(cfg: RunConfig) -> list[str]:
    """Dump the assembled operators in Matrix Market format."""
    rs = setup(cfg)
    pou, spaces, _ = _offline(rs)
    ms = _space_at(rs, pou, spaces, cfg.offline.M_off)
    A0 = (ms.R0T.T @ (rs.sys.A @ ms.R0T)).tocsr()

    written = []

    def dump(name, M):
        p = _outpath(cfg, name)
        io_formats.write_matrix_market(p, M)
        written.append(p)

    dump("A.mtx", rs.sys.A)
    dump("S.mtx", pou.S)
    dump("A0.mtx", A0)
    dump("R0T.mtx", ms.R0T)
    if rs.sys.mode == "efm":
        dump("A_m.mtx", rs.sys.A_m)
        for i, (B, C) in enumerate(zip(rs.sys.B_blocks, rs.sys.B_mf)):
            dump(f"B_{i}.mtx", B)
            dump(f"B_mf_{i}.mtx", C)
    io_formats.write_manifest(_outpath(cfg, cfg.outputs.manifest),
                              config_to_dict(cfg),
                              {"command": "export-matrices",
                               "files": [os.path.basename(p) for p in written]})
    return written
