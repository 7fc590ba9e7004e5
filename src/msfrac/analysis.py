"""Relative error norms between fine, snapshot and coarse solutions.

The energy norm uses the assembled bilinear form (fracture terms
included); the weighted L2 norm uses the kappa-weighted mass with the
same fracture edge weighting kappa_f * aperture.  Both are reported as
fractions of the reference solution's norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import FineSystem

__all__ = ["ErrorReport", "errors"]


@dataclass
class ErrorReport:
    dim_Voff: int
    rel_L2_vs_fine: float
    rel_energy_vs_fine: float
    rel_L2_vs_snap: float | None = None
    rel_energy_vs_snap: float | None = None


def _quad(Q, v):
    return float(v @ (Q @ v))


def _relative(u_ref, u_off, sys: FineSystem, name: str):
    """Relative kappa-weighted L2 and energy errors of u_off against
    u_ref; a reference of zero energy is a ValueError naming it."""
    A, M = sys.K, sys.mass_matrix
    en_ref = _quad(A, u_ref)
    if en_ref <= 0:
        raise ValueError(f"{name} field has zero energy")
    e = u_ref - u_off
    return (np.sqrt(_quad(M, e) / _quad(M, u_ref)),
            np.sqrt(max(_quad(A, e), 0.0) / en_ref))


def errors(u_fine, u_snap, u_off, sys: FineSystem,
           dim_Voff: int = 0) -> ErrorReport:
    """Relative kappa-weighted L2 and energy errors of u_off.

    Always against the fine solution; also against the snapshot
    (reference coarse) solution when one is given.  Every field lives on
    the unknowns of K: the matrix nodes, then each embedded fracture's.
    """
    u_fine = np.asarray(u_fine, dtype=float)
    u_off = np.asarray(u_off, dtype=float)
    if {u_fine.shape[0], u_off.shape[0]} != {sys.K.shape[0]}:
        raise ValueError("solution vectors do not match the system size")
    rep = ErrorReport(dim_Voff, *_relative(u_fine, u_off, sys, "reference"))
    if u_snap is not None:
        rep.rel_L2_vs_snap, rep.rel_energy_vs_snap = _relative(
            np.asarray(u_snap, dtype=float), u_off, sys, "snapshot reference")
    return rep
