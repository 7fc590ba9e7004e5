"""What the benchmark reads of the package still exists.

``bench/child.py`` wraps each ``(module, name)`` of its ``LAYERS`` by
looking the name up in ``msfrac.<module>``, so a name removed from the
package makes a traced benchmark run (``bench/run.py --trace 1``) fail
with an AttributeError; its ``_work`` reads work counts off the results
of some wrapped calls, so the attributes it reads must stay too.
``bench/workloads.py`` builds each workload's
config from the package's fracture generators.  Both files are loaded
by path and not run.
"""

import importlib
import importlib.util
import pathlib

import numpy as np

import msfrac as mf
from msfrac.config import parse_config

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_layer_resolves_to_a_callable():
    layers = load_bench("child").LAYERS
    assert layers
    for mod, name in layers:
        fn = getattr(importlib.import_module(f"msfrac.{mod}"), name, None)
        assert callable(fn), f"msfrac.{mod}.{name}"


def test_every_workload_config_is_built_and_parses():
    workloads = load_bench("workloads")
    for name in workloads.WORKLOADS:
        cfg = workloads.make_config(name, seed=1)     # a mirrored seed
        assert cfg["fractures"]["list"]
        parse_config(cfg)


def test_work_counts_read_off_real_results():
    # what child.py's _work reads of each result: l_i of a snapshot
    # space, regularized of a spectral space, info["solver"] of a solve
    work = load_bench("child")._work
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 3, 3, 2)
    sys = mf.assemble_dfm(g, mf.PermeabilityField.constant(g), [],
                          bc=mf.bilinear_bc(0.0, 1.0))
    pou = mf.compute_pou(g, sys)
    full = mf.full_snapshots(g, sys, 5)
    rand = mf.randomized_snapshots(g, sys, 5, k_nb=2, p_bf=1)
    space = mf.offline_eigendecomposition(full, pou)
    ms = mf.build_space(pou, [mf.offline_eigendecomposition(
        mf.full_snapshots(g, sys, nb.index), pou) for nb in g.neighborhoods],
        np.ones(g.n_coarse_nodes, dtype=int))
    sol = mf.solve_coarse(ms, sys)
    for key, result, want in [
            # one per rim node of the 4x4-cell patch; 2 + 1 draws and the constant
            (("offline", "full_snapshots"), full, {"snapshot_cols": 16}),
            (("offline", "randomized_snapshots"), rand, {"snapshot_cols": 4}),
            (("offline", "offline_eigendecomposition"), space, {"regularized": 0}),
            (("coarse", "solve_coarse_dfm"), sol, {"lstsq": 0}),
            (("coarse", "solve_coarse_efm"), sol, {"lstsq": 0})]:
        got = work(key, result)
        assert got == want and all(type(v) is int for v in got.values()), key
