"""Relative error norms between fine, snapshot and coarse solutions.

The energy norm uses the assembled bilinear form (fracture terms
included); the weighted L2 norm uses the kappa-weighted mass with the
same fracture edge weighting kappa_f * aperture.  Both are reported as
fractions of the reference solution's norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse

from .assembly import FineSystem, node_operator

__all__ = ["ErrorReport", "errors", "weighted_mass", "energy_matrix"]


@dataclass
class ErrorReport:
    dim_Voff: int
    rel_L2_vs_fine: float
    rel_energy_vs_fine: float
    rel_L2_vs_snap: float | None = None
    rel_energy_vs_snap: float | None = None
    metadata: dict = field(default_factory=dict)


def energy_matrix(sys: FineSystem) -> sparse.csr_matrix:
    """The full symmetric form a(.,.) — block operator in embedded mode."""
    return sys.block_matrix()


def weighted_mass(sys: FineSystem) -> sparse.csr_matrix:
    """kappa-weighted L2 mass; fracture parts weighted by kappa_f*aperture."""
    M = node_operator(sys.grid, sys.perm.kappa_cells, sys.edge_coeffs,
                      kind="mass")
    if sys.mode != "efm":
        return M
    blocks = [M]
    for tr in sys.efm_traces:
        # P1 segment masses: h/6 [[2, 1], [1, 2]] per segment
        w = tr.effective_coeff * np.diff(tr.arclengths) / 6.0
        d = np.r_[2 * w, 0.0] + np.r_[0.0, 2 * w]
        blocks.append(sparse.diags([w, d, w], [-1, 0, 1]))
    return sparse.block_diag(blocks, format="csr")


def _quad(Q, v):
    return float(v @ (Q @ v))


def errors(u_fine, u_snap, u_off, sys: FineSystem,
           dim_Voff: int = 0, metadata: dict | None = None) -> ErrorReport:
    """Relative kappa-weighted L2 and energy errors of u_off.

    Always against the fine solution; also against the snapshot
    (reference coarse) solution when one is given.  All fields must live
    on the same DOF set — plain nodal vectors in monolithic mode, block
    vectors (matrix then per-fracture unknowns) in embedded mode.
    """
    u_fine = np.asarray(u_fine, dtype=float)
    u_off = np.asarray(u_off, dtype=float)
    A = energy_matrix(sys)
    M = weighted_mass(sys)
    if u_fine.shape[0] != A.shape[0] or u_off.shape[0] != A.shape[0]:
        raise ValueError("solution vectors do not match the system size")

    en_ref = _quad(A, u_fine)
    l2_ref = _quad(M, u_fine)
    if en_ref <= 0:
        raise ValueError("reference field has zero energy")
    e = u_fine - u_off
    rep = ErrorReport(
        dim_Voff=dim_Voff,
        rel_L2_vs_fine=np.sqrt(_quad(M, e) / l2_ref),
        rel_energy_vs_fine=np.sqrt(max(_quad(A, e), 0.0) / en_ref),
        metadata=metadata or {})
    if u_snap is not None:
        u_snap = np.asarray(u_snap, dtype=float)
        en_s = _quad(A, u_snap)
        l2_s = _quad(M, u_snap)
        if en_s <= 0:
            raise ValueError("snapshot reference field has zero energy")
        es = u_snap - u_off
        rep.rel_L2_vs_snap = np.sqrt(_quad(M, es) / l2_s)
        rep.rel_energy_vs_snap = np.sqrt(max(_quad(A, es), 0.0) / en_s)
    return rep
