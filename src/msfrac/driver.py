"""Experiment pipelines: assemble -> offline -> coarse solve -> errors.

Four entry points mirror the CLI subcommands: a single solve, an
offline-dimension sweep (the convergence-table experiment), the
adaptive-enrichment loop, and an operator export for debugging.  Every
run writes a manifest with the config echo and effective seeds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

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

__all__ = ["RunSetup", "setup", "offline_stage", "m_off_schedule",
           "build_offline_spaces", "run_solve", "run_sweep", "run_adapt",
           "run_export_matrices"]


@dataclass
class RunSetup:
    cfg: RunConfig
    grid: GridHierarchy
    network: FractureNetwork
    perm: PermeabilityField
    dfm_traces: list
    efm_traces: list
    sys: FineSystem
    extras: dict = field(default_factory=dict)


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


def offline_stage(rs: RunSetup):
    """Partition of unity plus one snapshot space per coarse node."""
    off = rs.cfg.offline
    pou = compute_pou(rs.grid, rs.sys)
    snaps = []
    for nb in rs.grid.neighborhoods:
        if off.mode == "randomized":
            snaps.append(randomized_snapshots(rs.grid, rs.sys, nb.index,
                                              k_nb=off.k_nb, p_bf=off.p_bf,
                                              seed=off.seed))
        else:
            snaps.append(full_snapshots(rs.grid, rs.sys, nb.index))
    return pou, snaps


def m_off_schedule(g: GridHierarchy, M_off: int,
                   enrich_boundary: bool = False) -> np.ndarray:
    """Per-coarse-node mode counts: M_off inside, 1 on the domain
    boundary unless boundary enrichment is requested."""
    out = np.ones(g.n_coarse_nodes, dtype=int)
    for nb in g.neighborhoods:
        interior = 0 < nb.ci < g.coarse_nx and 0 < nb.cj < g.coarse_ny
        out[nb.index] = M_off if (interior or enrich_boundary) else 1
    return out


def build_offline_spaces(rs: RunSetup, pou, snaps):
    """Eigendecompose every neighborhood once (modes are selected later)."""
    return [offline_eigendecomposition(s, rs.sys, pou, M_off=1) for s in snaps]


def _offline(rs: RunSetup):
    """Output directory, POU, snapshots and local spectra of a set-up run."""
    os.makedirs(rs.cfg.outputs.dir, exist_ok=True)
    pou, snaps = offline_stage(rs)
    return pou, snaps, build_offline_spaces(rs, pou, snaps)


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
    pou, _, spaces = _offline(rs)
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
    pou, snaps, spaces = _offline(rs)
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
        interior = [s for s in snaps
                    if rs.grid.neighborhoods[s.omega_id].is_interior]
        drawn = sum(s.l_i - int(s.constant_included) for s in interior)
        full = sum(s.gen_boundary_count for s in interior)
        extras["snapshot_ratio_pct"] = round(100.0 * drawn / full, 4)
    _write_common(rs, last, spaces, extras)
    return reports


def run_adapt(cfg: RunConfig):
    """Adaptive enrichment driven by the residual (or manual) indicator."""
    rs = setup(cfg)
    if rs.sys.mode == "efm":
        raise ValueError("adaptive enrichment runs on the monolithic model only")
    pou, _, spaces = _offline(rs)
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
    pou, _, spaces = _offline(rs)
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
