"""Global multiscale space and the coarse-scale solves.

The global basis functions are products chi_i * psi_k^off; stacking
them as columns gives the prolongation R0T, and the coarse problem is
the Galerkin projection A0 = R0 A R0T.  Dirichlet data enters through a
partition-of-unity lift (exact for bilinear data) while basis rows at
boundary fine nodes are zeroed, so the coarse space is conforming with
the homogeneous problem.

With embedded fractures only the matrix block is projected; the 1D
fracture unknowns stay at fine scale and couple to the coarse matrix
unknowns through the projected transfer blocks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .assembly import FineSystem, decoupled_fracture_fields
from .offline import NeighborhoodSpace, PartitionOfUnity

__all__ = ["MultiscaleSpace", "CoarseSolution", "build_space",
           "solve_coarse_dfm", "solve_coarse_efm", "prolong"]


@dataclass
class MultiscaleSpace:
    pou: PartitionOfUnity
    spaces: list[NeighborhoodSpace]
    R0T: sparse.csr_matrix          # (n_fine_nodes, N_c), basis as columns
    col_node: np.ndarray            # coarse-node index of every column

    @property
    def N_c(self) -> int:
        return self.R0T.shape[1]


@dataclass
class CoarseSolution:
    U0: np.ndarray
    u_ms_fine: np.ndarray
    lift: np.ndarray
    efm_fracture_dofs: list[np.ndarray] = field(default_factory=list)
    info: dict = field(default_factory=dict)


def build_space(pou: PartitionOfUnity,
                spaces: list[NeighborhoodSpace]) -> MultiscaleSpace:
    """Assemble chi-multiplied offline bases into the prolongation matrix.

    Rows at boundary fine nodes are zeroed: boundary values are carried
    by the lift, not by the space.
    """
    g = pou.grid
    bmask = g.boundary_node_mask()
    rows, cols, vals = [], [], []
    col_node = []
    c0 = 0
    for sp in sorted(spaces, key=lambda s: s.omega_id):
        if len(sp.node_ids) != len(pou.chi[sp.omega_id]):
            raise ValueError("offline vectors do not match the chi support")
        B = sp.basis * pou.chi[sp.omega_id][:, None]
        B[bmask[sp.node_ids]] = 0.0
        m = B.shape[1]
        rows.append(np.repeat(sp.node_ids, m))
        cols.append((c0 + np.arange(m))[None, :].repeat(len(sp.node_ids), 0).ravel())
        vals.append(B.ravel())
        col_node.extend([sp.omega_id] * m)
        c0 += m
    R0T = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(g.n_nodes, c0)).tocsr()
    return MultiscaleSpace(pou=pou, spaces=sorted(spaces, key=lambda s: s.omega_id),
                           R0T=R0T, col_node=np.array(col_node))


def _rank_report(ms: MultiscaleSpace) -> list[int]:
    """Coarse nodes whose chi-multiplied basis block is locally rank-deficient."""
    bad = []
    for sp in ms.spaces:
        cols = np.flatnonzero(ms.col_node == sp.omega_id)
        if len(cols) == 0:
            continue
        B = ms.R0T[:, cols].toarray()
        if np.linalg.matrix_rank(B) < len(cols):
            bad.append(sp.omega_id)
    return bad


def _solve_spd_or_lstsq(A0, F0, ms=None, dense_limit=4000):
    """Solve the coarse system, tolerating rank-deficient spaces.

    Full snapshot spaces can exceed the fine dimension, making A0
    consistent but singular; the least-squares pseudo-solution then
    still reproduces the unique Galerkin solution in the fine space.
    """
    n = A0.shape[0]
    info = {"rank_deficient": False, "solver": "direct"}
    normF = np.linalg.norm(F0)
    if n <= dense_limit:
        Ad = A0.toarray() if sparse.issparse(A0) else np.asarray(A0)
        try:
            # an ill-conditioning warning fails the Cholesky path too
            with warnings.catch_warnings():
                warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
                U = scipy.linalg.solve(Ad, F0, assume_a="pos")
            res = np.linalg.norm(Ad @ U - F0) / max(normF, 1e-300)
            if not np.isfinite(res) or res > 1e-8:
                raise scipy.linalg.LinAlgError("poor residual")
            return U, info
        except (scipy.linalg.LinAlgError, np.linalg.LinAlgError,
                scipy.linalg.LinAlgWarning):
            U, _, rank, _ = np.linalg.lstsq(Ad, F0, rcond=1e-12)
            res = np.linalg.norm(Ad @ U - F0) / max(normF, 1e-300)
            if not np.isfinite(res) or res > 1e-6:
                bad = _rank_report(ms) if ms is not None else []
                raise RuntimeError(
                    "coarse system is singular beyond a pseudo-inverse rescue; "
                    f"locally dependent neighborhoods: {bad}")
            info.update(rank_deficient=rank < n, rank=int(rank), solver="lstsq")
            return U, info
    U = spla.spsolve(A0.tocsc(), F0)
    res = np.linalg.norm(A0 @ U - F0) / max(normF, 1e-300)
    if not np.isfinite(res) or res > 1e-8:
        bad = _rank_report(ms) if ms is not None else []
        raise RuntimeError(
            "large coarse system is numerically singular; "
            f"locally dependent neighborhoods: {bad}")
    info["solver"] = "spsolve"
    return U, info


def solve_coarse_dfm(ms: MultiscaleSpace, sys: FineSystem) -> CoarseSolution:
    """Galerkin coarse solve of the monolithic nodal system."""
    if sys.mode != "dfm":
        raise ValueError("expected a monolithic fine system")
    R0T = ms.R0T
    lift = ms.pou.boundary_lift(sys.bc)
    A0 = (R0T.T @ (sys.A @ R0T)).tocsr()
    F0 = R0T.T @ (sys.F - sys.A @ lift)
    U0, info = _solve_spd_or_lstsq(A0, F0, ms)
    return CoarseSolution(U0=U0, u_ms_fine=lift + R0T @ U0, lift=lift, info=info)


def solve_coarse_efm(ms: MultiscaleSpace, sys: FineSystem) -> CoarseSolution:
    """Coarse matrix block + fine fracture unknowns, solved together."""
    if sys.mode != "efm":
        raise ValueError("expected an embedded-fracture fine system")
    R0T = ms.R0T
    lift = ms.pou.boundary_lift(sys.bc)
    A0 = (R0T.T @ (sys.A_m @ R0T)).tocsr()
    F0 = R0T.T @ (sys.F - sys.A_m @ lift)

    u_frac = decoupled_fracture_fields(sys)
    if u_frac is not None:
        U0, info = _solve_spd_or_lstsq(A0, F0, ms)
        info["decoupled"] = True
        return CoarseSolution(U0=U0, u_ms_fine=lift + R0T @ U0, lift=lift,
                              efm_fracture_dofs=u_frac, info=info)

    nf = len(sys.efm_traces)
    blocks = [[None] * (nf + 1) for _ in range(nf + 1)]
    blocks[0][0] = A0
    rhs = [F0]
    for i in range(nf):
        Cb = (R0T.T @ sys.B_mf[i]).tocsr()
        blocks[0][i + 1] = Cb
        blocks[i + 1][0] = Cb.T
        blocks[i + 1][i + 1] = sys.B_blocks[i]
        rhs.append(sys.F_frac[i] - sys.B_mf[i].T @ lift)
    M = sparse.bmat(blocks, format="csr")
    b = np.concatenate(rhs)
    x, info = _solve_spd_or_lstsq(M, b, ms)
    U0 = x[:ms.N_c]
    u_frac = []
    off = ms.N_c
    for t in sys.efm_traces:
        u_frac.append(x[off:off + t.n_nodes])
        off += t.n_nodes
    return CoarseSolution(U0=U0, u_ms_fine=lift + R0T @ U0, lift=lift,
                          efm_fracture_dofs=u_frac, info=info)


def prolong(ms: MultiscaleSpace, U0: np.ndarray, lift: np.ndarray | None = None):
    """Map coarse coefficients to the fine grid (plus an optional lift)."""
    U0 = np.asarray(U0, dtype=float)
    if U0.shape[0] != ms.N_c:
        raise ValueError(f"expected {ms.N_c} coefficients, got {U0.shape[0]}")
    u = ms.R0T @ U0
    return u if lift is None else u + lift
