"""Global multiscale space and the coarse-scale solve.

The global basis functions are products chi_i * psi_k^off; stacking
them as columns gives the prolongation R0T.  Dirichlet data enters
through a partition-of-unity lift (exact for bilinear data) while basis
rows at boundary fine nodes are zeroed, so the coarse space is
conforming with the homogeneous problem.

Every fracture model has one coarse problem, the Galerkin projection
P^T K P of the fine operator K, with P = diag(R0T, I): the 1D
embedded-fracture unknowns stay at fine scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .assembly import FineSystem
from .offline import NeighborhoodSpace, PartitionOfUnity

__all__ = ["MultiscaleSpace", "CoarseSolution", "build_space", "boundary_lift",
           "coarse_system", "restrict", "solve_coarse", "prolong", "CoarseRescueTooLarge"]

DENSE_RESCUE_BYTES = 256 * 2**20   # lstsq's dense K0, to order 5,792 (gelsd: ~3 copies)


class CoarseRescueTooLarge(RuntimeError):
    """The coarse LU failed and its dense least-squares rescue is too large."""


@dataclass
class MultiscaleSpace:
    pou: PartitionOfUnity
    spaces: list[NeighborhoodSpace]
    counts: np.ndarray              # modes used per coarse node
    R0T: sparse.csc_matrix          # (n_fine_nodes, N_c), basis as columns, node by node

    @property
    def N_c(self) -> int:
        return int(self.counts.sum())

    @property
    def col_node(self) -> np.ndarray:
        """Coarse-node index of every column."""
        return np.repeat(np.arange(len(self.counts)), self.counts)


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
    without perturbing the old ones.  A space whose rows are not chi_i's
    support (the grid neighborhood's ``node_ids``), or a clamped count
    beyond the modes it kept, raises ValueError.  Only nonzeros are
    stored: chi_i vanishes on the rim of omega_i's box, and the lift, not
    the space, carries the boundary values, so rows at boundary fine
    nodes are zero.
    """
    g = pou.grid
    bmask = g.boundary_node_mask()
    counts = np.minimum(counts, [sp.l_i for sp in spaces])
    indices, vals = [], []
    for i, (sp, m) in enumerate(zip(spaces, counts)):
        chi, nodes = pou.chi[i], g.neighborhoods[i].node_ids
        if len(sp.basis_full) != len(chi):
            raise ValueError(f"neighborhood {i}: offline vectors do not match the chi support")
        if m > sp.basis_full.shape[1]:
            raise ValueError(f"neighborhood {i}: {m} modes asked, "
                             f"{sp.basis_full.shape[1]} kept offline")
        B = sp.basis_full[:, :m] * chi[:, None]
        B[bmask[nodes]] = 0.0
        indices.append(np.tile(nodes.astype(np.int32), m))
        vals.append(B.T.ravel())
    # built column by column: each of node i's columns holds its node ids
    col_nnz = np.repeat([len(sp.basis_full) for sp in spaces], counts)
    R0T = sparse.csc_matrix(
        (np.concatenate(vals), np.concatenate(indices), np.r_[0, np.cumsum(col_nnz)]),
        shape=(g.n_nodes, len(col_nnz)))
    R0T.eliminate_zeros()
    return MultiscaleSpace(pou=pou, spaces=spaces, counts=counts, R0T=R0T)


def boundary_lift(pou: PartitionOfUnity, sys: FineSystem) -> np.ndarray:
    """POU interpolant sum_i g(x_i) chi_i of the Dirichlet values g of sys
    over the boundary coarse nodes x_i: linear along every boundary edge,
    hence exact for bilinear data."""
    g = pou.grid
    values, lift = np.zeros(g.n_nodes), np.zeros(g.n_nodes)
    values[sys.dirichlet_nodes] = sys.dirichlet_values
    for nb in (nb for nb in g.neighborhoods if not nb.is_interior):
        lift[nb.node_ids] += values[g.coarse_nodes[nb.index]] * pou.chi[nb.index]
    return lift


def _rank_report(ms: MultiscaleSpace) -> list[int]:
    """Coarse nodes whose chi-multiplied basis block is locally rank-deficient."""
    ends = np.cumsum(ms.counts)
    blocks = (ms.R0T[:, e - m:e] for m, e in zip(ms.counts, ends))
    return [i for i, B in enumerate(blocks)
            if B.shape[1] and np.linalg.matrix_rank(B.toarray()) < B.shape[1]]


def _solve_spd_or_lstsq(K0, F0, ms):
    """Solve the coarse system by one sparse LU, rescued by least squares.

    The system is first scaled symmetrically to unit diagonal: with
    D = diag(K0)^-1/2 (scale 1 where a diagonal entry is not positive)
    it solves D K0 D Y = D F0 and returns U = D Y.  Every test below reads
    the scaled system.  Without it a fracture contrast of 1e10 spreads
    K0's diagonal over so many decades that the estimates read rcond
    < eps for a well-posed space, and the rescue returns a wrong answer.
    D K0 D is SPD unless the space has dependent columns, so SuperLU runs
    in symmetric mode (minimum degree on K0 + K0^T, diagonal pivots).
    The solution stands when its residual is small and rcond >= eps,
    LAPACK's test before it warns of an ill-conditioned solve.  rcond is
    the smaller of 1/(|D K0 D|_1 |(D K0 D)^-1|_1), with Higham's one-probe
    estimate of the inverse's norm, which draws no random numbers, and
    the ratio of the smallest to the largest pivot magnitude.  Both can
    only overstate the reciprocal condition number (the pivots of an SPD
    matrix lie between its extreme eigenvalues), and the one probe can
    miss a near-null direction: K0 with one column repeated factors with
    a pivot of one ulp, which the estimate alone read as rcond 0.12.
    Full snapshot spaces can exceed the fine dimension, making K0
    consistent but singular; the dense least-squares pseudo-solution, up
    to ``DENSE_RESCUE_BYTES``, then still gives the unique Galerkin
    solution in the fine space.  ``info`` records the path, rcond (None
    where the LU failed) and lstsq's rank.
    """
    n = K0.shape[0]
    K0 = K0.tocsc(copy=True)
    d = K0.diagonal()
    scale = 1.0 / np.sqrt(np.where(d > 0, d, 1.0))
    K0.data *= scale[K0.indices] * np.repeat(scale, np.diff(K0.indptr))
    F0 = scale * F0
    normF = max(np.linalg.norm(F0), 1e-300)
    info = {"solver": "direct", "rcond": None}
    try:
        lu = spla.splu(K0, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError:              # exactly singular factor
        pass
    else:
        Y = lu.solve(F0)
        inv = spla.LinearOperator((n, n), lu.solve, dtype=float,
                                  rmatvec=partial(lu.solve, trans="T"))
        pivots = np.abs(lu.U.diagonal())
        rcond = min(1.0 / (spla.norm(K0, 1) * spla.onenormest(inv, t=1)),
                    pivots.min() / pivots.max())
        info["rcond"] = float(rcond)
        res = np.linalg.norm(K0 @ Y - F0) / normF
        if np.isfinite(res) and res <= 1e-8 and rcond >= np.finfo(float).eps:
            return scale * Y, info
    if 8 * n**2 > DENSE_RESCUE_BYTES:
        raise CoarseRescueTooLarge(f"dense rescue of N_c = {ms.N_c} needs {8 * n**2} bytes")
    Kd = K0.toarray()
    Y, _, rank, _ = np.linalg.lstsq(Kd, F0, rcond=1e-12)
    res = np.linalg.norm(Kd @ Y - F0) / normF
    if not np.isfinite(res) or res > 1e-6:
        raise RuntimeError(
            "coarse system is singular beyond a pseudo-inverse rescue; "
            f"locally dependent neighborhoods: {_rank_report(ms)}")
    info.update(rank=int(rank), solver="lstsq")
    return scale * Y, info


def coarse_system(ms: MultiscaleSpace, sys: FineSystem):
    """Galerkin projection K0 = P^T K P, F0 = P^T (f - K lift) of the fine
    problem K u = f, with P = diag(R0T, I), built once from R0T's column
    arrays (P^T is its CSR view), and the partition-of-unity lift of the
    boundary data.  Returns K0, F0 and the lift."""
    K, R0T = sys.K, ms.R0T
    n_frac = K.shape[0] - sys.n_nodes
    t = np.arange(n_frac + 1, dtype=R0T.indptr.dtype)
    P = sparse.csc_matrix(
        (np.r_[R0T.data, np.ones(n_frac)], np.r_[R0T.indices, R0T.shape[0] + t[:-1]],
         np.r_[R0T.indptr, R0T.nnz + t[1:]]), shape=np.add(R0T.shape, n_frac))
    lift = boundary_lift(ms.pou, sys)
    K0 = P.T @ (K @ P)
    K0.sort_indices()
    F0 = P.T @ (sys.f - K @ np.r_[lift, np.zeros(n_frac)])
    return K0, F0, lift


def restrict(ms: MultiscaleSpace, system, counts):
    """The space of the first min(counts[i], ms.counts[i]) modes of each
    coarse node, a space of its own whose R0T is those columns of ms's
    R0T, and its coarse system cut from ``system``, ms's
    ``coarse_system``: K0 and F0 at the kept columns and at every
    fracture unknown, with the same lift.  The kept columns are those
    ``build_space`` gives the clamped counts, in the same order and with
    the same values, and each entry of P^T K P sums over its own two
    columns of P only; so the cut is the smaller space's projection, bit
    for bit, and a cut space can be cut again.
    """
    K0, F0, lift = system
    counts = np.minimum(counts, ms.counts)
    mode = np.arange(ms.N_c) - np.repeat(np.cumsum(ms.counts) - ms.counts, ms.counts)
    cols = np.flatnonzero(mode < np.repeat(counts, ms.counts))
    keep = np.r_[cols, np.arange(ms.N_c, K0.shape[0])]
    sub = MultiscaleSpace(pou=ms.pou, spaces=ms.spaces, counts=counts, R0T=ms.R0T[:, cols])
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
    """Map coarse coefficients, one per column of R0T, to the fine grid
    (plus an optional lift)."""
    U0 = np.asarray(U0, dtype=float)
    if U0.shape[0] != ms.N_c:
        raise ValueError(f"expected {ms.N_c} coefficients, got {U0.shape[0]}")
    u = ms.R0T @ U0
    return u if lift is None else u + lift
