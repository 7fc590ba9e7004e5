"""Global multiscale space and the coarse-scale solve.

The global basis functions are products chi_i * psi_k^off; stacking
them as columns gives the prolongation R0T.  Dirichlet data enters
through a partition-of-unity lift (exact for bilinear data) while basis
rows at boundary fine nodes are zeroed, so the coarse space is
conforming with the homogeneous problem.

Every fracture model has one coarse problem, the Galerkin projection
P^T K P of the fine operator K, with P = diag(R0T, I):
the 1D embedded-fracture unknowns stay at fine scale.  One
``solve_coarse`` solves it for conforming, embedded and mixed fracture
inputs alike, by one sparse LU at every size.

Nested spaces share one projection.  The space of the first m_i modes
of every node is a column restriction of any space with larger counts,
so its coarse system is a principal submatrix of the larger one's
(``restrict``); a sweep projects its largest space once and cuts each
row's system from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .assembly import FineSystem
from .offline import NeighborhoodSpace, PartitionOfUnity

__all__ = ["MultiscaleSpace", "CoarseSolution", "build_space", "coarse_system",
           "restrict", "solve_coarse", "prolong"]


@dataclass
class MultiscaleSpace:
    pou: PartitionOfUnity
    spaces: list[NeighborhoodSpace]
    counts: np.ndarray              # modes used per coarse node
    R0T: sparse.csr_matrix          # (n_fine_nodes, N_c), basis as columns
    col_node: np.ndarray            # coarse-node index of every column

    @property
    def N_c(self) -> int:
        return self.R0T.shape[1]


@dataclass
class CoarseSolution:
    U0: np.ndarray
    u_ms_fine: np.ndarray           # on K's unknowns, as ``FineSolution.u``
    info: dict = field(default_factory=dict)


def build_space(pou: PartitionOfUnity, spaces: list[NeighborhoodSpace],
                counts) -> MultiscaleSpace:
    """Assemble chi-multiplied offline modes into the prolongation matrix.

    ``spaces`` holds one offline space per coarse node, in node order,
    and node i contributes its first ``counts[i]`` modes (at most l_i),
    so a space with larger counts extends a smaller one by new columns
    without perturbing the old ones.  A clamped count beyond the modes
    a space kept raises ValueError.  Rows at boundary fine nodes are
    zeroed: boundary values are carried by the lift, not by the space.
    """
    g = pou.grid
    bmask = g.boundary_node_mask()
    counts = np.minimum(counts, [sp.l_i for sp in spaces])
    indices, vals = [], []
    for sp, m in zip(spaces, counts):
        if len(sp.node_ids) != len(pou.chi[sp.omega_id]):
            raise ValueError("offline vectors do not match the chi support")
        if m > sp.basis_full.shape[1]:
            raise ValueError(f"neighborhood {sp.omega_id}: {m} modes asked, "
                             f"{sp.basis_full.shape[1]} kept offline")
        B = sp.basis_full[:, :m] * pou.chi[sp.omega_id][:, None]
        B[bmask[sp.node_ids]] = 0.0
        indices.append(np.tile(sp.node_ids.astype(np.int32), m))
        vals.append(B.T.ravel())
    # built column by column: each of node i's columns holds its node ids
    col_nnz = np.repeat([len(sp.node_ids) for sp in spaces], counts)
    R0T = sparse.csc_matrix(
        (np.concatenate(vals), np.concatenate(indices), np.r_[0, np.cumsum(col_nnz)]),
        shape=(g.n_nodes, len(col_nnz))).tocsr()
    col_node = np.repeat([sp.omega_id for sp in spaces], counts)
    return MultiscaleSpace(pou=pou, spaces=spaces, counts=counts, R0T=R0T,
                           col_node=col_node)


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


def _solve_spd_or_lstsq(K0, F0, ms):
    """Solve the coarse system by one sparse LU, rescued by least squares.

    The LU solution stands when its residual is small and rcond =
    1/(|K0|_1 |K0^-1|_1) >= eps, LAPACK's test before it warns of an
    ill-conditioned solve; |K0^-1|_1 is Higham's estimate with one probe
    column, which draws no random numbers.  Full snapshot spaces can
    exceed the fine dimension, making K0 consistent but singular; the
    dense least-squares pseudo-solution then still reproduces the unique
    Galerkin solution in the fine space.  ``info`` records the path,
    rcond (None where the LU failed) and the rank least squares found.
    """
    n = K0.shape[0]
    K0 = K0.tocsc()
    normF = max(np.linalg.norm(F0), 1e-300)
    info = {"solver": "direct", "rcond": None}
    try:
        lu = spla.splu(K0)
    except RuntimeError:              # exactly singular factor
        pass
    else:
        U = lu.solve(F0)
        inv = spla.LinearOperator((n, n), lu.solve, dtype=float,
                                  rmatvec=partial(lu.solve, trans="T"))
        rcond = 1.0 / (spla.norm(K0, 1) * spla.onenormest(inv, t=1))
        info["rcond"] = float(rcond)
        res = np.linalg.norm(K0 @ U - F0) / normF
        if np.isfinite(res) and res <= 1e-8 and rcond >= np.finfo(float).eps:
            return U, info
    Kd = K0.toarray()
    U, _, rank, _ = np.linalg.lstsq(Kd, F0, rcond=1e-12)
    res = np.linalg.norm(Kd @ U - F0) / normF
    if not np.isfinite(res) or res > 1e-6:
        raise RuntimeError(
            "coarse system is singular beyond a pseudo-inverse rescue; "
            f"locally dependent neighborhoods: {_rank_report(ms)}")
    info.update(rank=int(rank), solver="lstsq")
    return U, info


def coarse_system(ms: MultiscaleSpace, sys: FineSystem):
    """Galerkin projection K0 = P^T K P, F0 = P^T (f - K lift) of the fine
    problem K u = f, with P = diag(R0T, I) and the partition-of-unity
    lift of the boundary data.  Returns K0, F0 and the lift."""
    K = sys.K
    n_frac = K.shape[0] - sys.n_nodes
    P = sparse.block_diag([ms.R0T, sparse.identity(n_frac)], format="csr")
    lift = ms.pou.boundary_lift(sys.bc)
    K0 = (P.T @ (K @ P)).tocsr()
    F0 = P.T @ (sys.f - K @ np.r_[lift, np.zeros(n_frac)])
    return K0, F0, lift


def restrict(ms: MultiscaleSpace, system, counts):
    """The space of the first min(counts[i], ms.counts[i]) modes of each
    coarse node, as the column restriction of ``ms``, and its coarse
    system cut from ``system``, ms's ``coarse_system``: the principal
    submatrix of K0 and the entries of F0 at the kept columns and at
    every fracture unknown, with the same lift.

    The kept columns are those ``build_space`` gives the clamped counts,
    in the same order and with the same values, and every entry of P^T K
    P is summed over its own two columns of P only; so the cut is the
    projection of the smaller space, bit for bit.
    """
    K0, F0, lift = system
    counts = np.minimum(counts, ms.counts)
    first = np.repeat(np.cumsum(ms.counts) - ms.counts, ms.counts)
    mode = np.arange(ms.N_c) - first           # mode index within its node
    cols = np.flatnonzero(mode < np.repeat(counts, ms.counts))
    keep = np.r_[cols, np.arange(ms.N_c, K0.shape[0])]
    sub = MultiscaleSpace(pou=ms.pou, spaces=ms.spaces, counts=counts,
                          R0T=ms.R0T[:, cols], col_node=ms.col_node[cols])
    return sub, (K0[keep][:, keep], F0[keep], lift)


def solve_coarse(ms: MultiscaleSpace, sys: FineSystem,
                 system=None) -> CoarseSolution:
    """Galerkin coarse solve of any fine system: the coarse matrix block
    and the fine fracture unknowns, if any, solved together.  ``system``
    is ms's ``coarse_system`` (projected here when None)."""
    K0, F0, lift = coarse_system(ms, sys) if system is None else system
    x, info = _solve_spd_or_lstsq(K0, F0, ms)
    U0 = x[:ms.N_c]
    u = np.r_[prolong(ms, U0, lift), x[ms.N_c:]]   # then the fracture unknowns
    return CoarseSolution(U0=U0, u_ms_fine=u, info=info)


# Old names of the one solve, kept only because bench/child.py's LAYERS
# wraps the coarse solve by them; they go with the next change to bench/.
solve_coarse_dfm = solve_coarse_efm = solve_coarse


def prolong(ms: MultiscaleSpace, U0: np.ndarray, lift: np.ndarray | None = None):
    """Map coarse coefficients to the fine grid (plus an optional lift)."""
    U0 = np.asarray(U0, dtype=float)
    if U0.shape[0] != ms.N_c:
        raise ValueError(f"expected {ms.N_c} coefficients, got {U0.shape[0]}")
    u = ms.R0T @ U0
    return u if lift is None else u + lift
