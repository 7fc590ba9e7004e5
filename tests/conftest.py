import os

import numpy as np
from hypothesis import settings, HealthCheck

from msfrac.assembly import node_operator

settings.register_profile(
    "default",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("thorough", deadline=None, max_examples=200)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def dense_chi(pou):
    """The POU functions as dense rows, (coarse nodes x fine nodes)."""
    g = pou.grid
    chi = np.zeros((g.n_coarse_nodes, g.n_nodes))
    for nb in g.neighborhoods:
        chi[nb.index, nb.node_ids] = pou.chi[nb.index]
    return chi


def mode_gram(pou, space):
    """Gram matrix of a neighborhood's fine-nodal modes in its local S
    form.  Entry (0, 0) reads 1 where the first mode was rescaled to
    reproduce the constant (then that mode is 1 to within 1e-6)."""
    box = pou.grid.neighborhoods[space.omega_id].cells
    S_loc = node_operator(pou.grid, pou.kappa_tilde, pou.edge_kappa_tilde,
                          kind="mass", box=box)
    B = space.basis_full
    G = B.T @ (S_loc @ B)
    if np.max(np.abs(B[:, 0] - 1.0)) <= 1e-6:
        G[0, 0] = 1.0
    return G
