"""Adaptive enrichment of the multiscale space.

Each iteration solves the coarse problem, computes per-neighborhood
indicators (the fine residual on the matrix nodes projected onto the
unused snapshot eigen-directions, scaled by the first skipped
eigenvalue), marks a theta-bulk of nodes, and raises their mode counts.
Every fracture model runs through the same loop: embedded-fracture
unknowns stay at fine scale in every space.  A manual mode marks a
fixed rectangle of coarse nodes instead, for reproducing hand-picked
enrichment regions.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .analysis import errors
from .assembly import FineSystem
from .coarse import MultiscaleSpace, CoarseSolution, build_space, solve_coarse
from .offline import NeighborhoodSpace, PartitionOfUnity

__all__ = ["AdaptConfig", "IndicatorReport", "compute_indicators",
           "mark_dorfler", "enrich", "adaptive_loop"]


_INDICATORS = ("residual", "manual")


@dataclass
class AdaptConfig:
    """Adaptive-loop settings.

    ``tol`` is an absolute bound on the residual indicator: the loop
    stops once sqrt(sum_i eta_i^2) <= tol.  It is not a relative error,
    and it does not bound the energy error against the fine solution.
    """

    theta: float = 0.7
    max_iters: int = 3
    basis_increment: int = field(default=1, metadata={"positive": True})
    indicator: str = field(default="residual", metadata={"choices": _INDICATORS})
    manual_box: tuple | None = None      # (ci0, ci1, cj0, cj1), inclusive
    tol: float = 0.0
    initial_basis: int = field(default=1, metadata={"positive": True})

    def __post_init__(self):
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("theta must be in (0, 1]")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if not self.tol >= 0.0:
            raise ValueError(f"tol must be >= 0, got {self.tol}")
        if self.indicator not in _INDICATORS:
            raise ValueError(f"unknown indicator {self.indicator!r}")
        if self.indicator == "manual" and self.manual_box is None:
            raise ValueError("manual indicator needs a coarse-node rectangle")


@dataclass
class IndicatorReport:
    eta: np.ndarray                  # per coarse node, >= 0
    marked: np.ndarray               # coarse-node indices
    iteration: int = 0
    dim: int = 0
    energy_error: float | None = None
    l2_error: float | None = None
    skipped: list[int] = field(default_factory=list)
    coarse_info: dict = field(default_factory=dict)


def compute_indicators(ms: MultiscaleSpace, sol: CoarseSolution,
                       sys: FineSystem,
                       cfg: AdaptConfig | None = None) -> IndicatorReport:
    """Per-coarse-node error indicators for the current coarse solution.

    eta_i^2 = sum_{k > m_i} |R(chi_i psi_k^off)|^2 / lambda_{m_i+1}, with
    m_i = ms.counts[i] the modes node i uses and R the residual f - K u
    of the solved fine system K u = f at the coarse solution's block
    vector, on the matrix-node rows (F - A u_ms on a conforming system);
    directions already in the space contribute nothing by Galerkin
    orthogonality.
    """
    cfg = cfg or AdaptConfig()
    g = sys.grid
    eta = np.zeros(g.n_coarse_nodes)
    if cfg.indicator == "manual":
        ci0, ci1, cj0, cj1 = cfg.manual_box
        for nb in g.neighborhoods:
            if ci0 <= nb.ci <= ci1 and cj0 <= nb.cj <= cj1:
                eta[nb.index] = 1.0
        return IndicatorReport(eta=eta, marked=np.empty(0, dtype=int), dim=ms.N_c)

    r = (sys.f - sys.K @ sol.block_vector())[:sys.n_nodes]
    r[sys.dirichlet_nodes] = 0.0
    for sp, m in zip(ms.spaces, ms.counts):
        if m >= sp.l_i:
            continue
        chi_r = ms.pou.chi[sp.omega_id] * r[sp.node_ids]
        c = sp.basis_full[:, m:].T @ chi_r  # unused eigen-directions
        lam = max(sp.eigvals[m], 1e-30)
        eta[sp.omega_id] = np.sqrt(np.sum(c ** 2) / lam)
    return IndicatorReport(eta=eta, marked=np.empty(0, dtype=int), dim=ms.N_c)


def mark_dorfler(eta: np.ndarray, theta: float) -> np.ndarray:
    """Smallest node set carrying a theta fraction of the squared mass.

    Nodes are taken in descending eta order, ties by node index; zero
    indicators are never marked.
    """
    eta2 = np.asarray(eta, dtype=float) ** 2
    total = eta2.sum()
    if total <= 0:
        return np.empty(0, dtype=int)
    order = np.lexsort((np.arange(len(eta2)), -eta2))
    csum = np.cumsum(eta2[order])
    k = int(np.searchsorted(csum, theta * total - 1e-15 * total)) + 1
    marked = order[:k]
    return np.sort(marked[eta2[marked] > 0])


def enrich(report: IndicatorReport, ms: MultiscaleSpace,
           cfg: AdaptConfig) -> np.ndarray:
    """Mode counts of the next space: basis_increment more eigenvectors
    at the marked nodes, capped at l_i."""
    counts = ms.counts.copy()
    if cfg.basis_increment <= 0:
        return counts
    for i in np.unique(report.marked):
        sp = ms.spaces[i]
        if counts[i] >= sp.l_i:
            warnings.warn(f"neighborhood {i}: snapshot space exhausted, "
                          "cannot enrich further")
            report.skipped.append(int(i))
        else:
            counts[i] = min(counts[i] + cfg.basis_increment, sp.l_i)
    return counts


def adaptive_loop(sys: FineSystem, pou: PartitionOfUnity,
                  spaces: list[NeighborhoodSpace], cfg: AdaptConfig,
                  u_fine: np.ndarray | None = None):
    """Solve / indicate / mark / enrich until max_iters or tolerance.

    The loop stops after max_iters enrichments, or as soon as the
    indicator norm sqrt(sum_i eta_i^2) is at most cfg.tol, an absolute
    bound in the residual's units.  Returns the last coarse solution
    and the per-iteration report history; when the fine solution is
    supplied (as a block vector, ``FineSolution.block_vector()``) the
    history also records relative errors.  The marking
    fraction is effectively 1 in manual mode (the rectangle is the
    marked set).
    """
    counts = np.full(len(spaces), cfg.initial_basis)
    history: list[IndicatorReport] = []
    sol = None
    for it in range(cfg.max_iters + 1):
        ms = build_space(pou, spaces, counts)
        sol = solve_coarse(ms, sys)
        report = compute_indicators(ms, sol, sys, cfg)
        report.iteration = it
        report.coarse_info = sol.info
        if u_fine is not None:
            rep = errors(u_fine, None, sol.block_vector(), sys, dim_Voff=ms.N_c)
            report.energy_error = rep.rel_energy_vs_fine
            report.l2_error = rep.rel_L2_vs_fine
        total = float(np.sum(report.eta ** 2))
        if it == cfg.max_iters or total <= cfg.tol ** 2:
            history.append(report)
            break
        theta = 1.0 if cfg.indicator == "manual" else cfg.theta
        report.marked = mark_dorfler(report.eta, theta)
        history.append(report)
        counts = enrich(report, ms, cfg)
    return sol, history
