"""Adaptive enrichment of the offline spaces.

Each iteration solves the coarse problem, computes per-neighborhood
indicators (the coarse residual projected onto the unused snapshot
eigen-directions, scaled by the first skipped eigenvalue), marks a
theta-bulk of nodes, and adds eigenvectors there.  A manual mode marks
a fixed rectangle of coarse nodes instead, for reproducing hand-picked
enrichment regions.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .assembly import FineSystem
from .coarse import MultiscaleSpace, CoarseSolution, build_space, solve_coarse_dfm
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
    basis_increment: int = 1
    indicator: str = field(default="residual", metadata={"choices": _INDICATORS})
    manual_box: tuple | None = None      # (ci0, ci1, cj0, cj1), inclusive
    tol: float = 0.0
    initial_basis: int = field(default=1, metadata={"positive": True})

    def __post_init__(self):
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("theta must be in (0, 1]")
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


def compute_indicators(ms: MultiscaleSpace, spaces: list[NeighborhoodSpace],
                       sol: CoarseSolution, sys: FineSystem,
                       cfg: AdaptConfig | None = None) -> IndicatorReport:
    """Per-coarse-node error indicators for the current coarse solution.

    eta_i^2 = sum_{k > M_off} |R(chi_i psi_k^off)|^2 / lambda_{M_off+1}
    where R is the fine residual functional of u_ms; directions already
    in the space contribute nothing by Galerkin orthogonality.
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

    r = sys.F - sys.A @ sol.u_ms_fine
    r[sys.dirichlet_nodes] = 0.0
    for sp in spaces:
        if sp.M_off >= sp.l_i:
            continue
        chi_r = ms.pou.chi[sp.omega_id] * r[sp.node_ids]
        c = sp.basis_full[:, sp.M_off:].T @ chi_r  # unused eigen-directions
        lam = max(sp.eigvals[sp.M_off], 1e-30)
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


def enrich(report: IndicatorReport, spaces: list[NeighborhoodSpace],
           cfg: AdaptConfig) -> list[NeighborhoodSpace]:
    """Add basis_increment eigenvectors at the marked nodes (capped at l_i)."""
    marked = set(int(i) for i in report.marked)
    out = []
    for sp in spaces:
        if sp.omega_id in marked and cfg.basis_increment > 0:
            if sp.M_off >= sp.l_i:
                warnings.warn(
                    f"neighborhood {sp.omega_id}: snapshot space exhausted, "
                    "cannot enrich further")
                report.skipped.append(sp.omega_id)
                out.append(sp)
            else:
                out.append(sp.with_m_off(sp.M_off + cfg.basis_increment))
        else:
            out.append(sp)
    return out


def adaptive_loop(sys: FineSystem, pou: PartitionOfUnity,
                  spaces: list[NeighborhoodSpace], cfg: AdaptConfig,
                  u_fine: np.ndarray | None = None):
    """Solve / indicate / mark / enrich until max_iters or tolerance.

    The loop stops after max_iters enrichments, or as soon as the
    indicator norm sqrt(sum_i eta_i^2) is at most cfg.tol, an absolute
    bound in the residual's units.  Returns the last coarse solution
    and the per-iteration report history; when the fine solution is
    supplied the history also records relative errors.  The marking
    fraction is effectively 1 in manual mode (the rectangle is the
    marked set).
    """
    from .analysis import errors as _errors

    spaces = [sp.with_m_off(cfg.initial_basis) for sp in spaces]
    history: list[IndicatorReport] = []
    sol = None
    for it in range(cfg.max_iters + 1):
        ms = build_space(pou, spaces)
        sol = solve_coarse_dfm(ms, sys)
        report = compute_indicators(ms, spaces, sol, sys, cfg)
        report.iteration = it
        report.dim = ms.N_c
        if u_fine is not None:
            rep = _errors(u_fine, None, sol.u_ms_fine, sys, dim_Voff=ms.N_c)
            report.energy_error = rep.rel_energy_vs_fine
            report.l2_error = rep.rel_L2_vs_fine
        total = float(np.sum(report.eta ** 2))
        if it == cfg.max_iters or total <= cfg.tol ** 2:
            history.append(report)
            break
        theta = 1.0 if cfg.indicator == "manual" else cfg.theta
        report.marked = mark_dorfler(report.eta, theta)
        history.append(report)
        spaces = enrich(report, spaces, cfg)
    return sol, history
