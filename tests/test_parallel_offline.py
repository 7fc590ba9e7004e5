"""The offline stage's neighborhood pool: serial equivalence, the BLAS
thread cap, and error propagation."""

import os
import sys

import pytest

from msfrac import driver
from msfrac.config import parse_config
from msfrac.offline import (full_snapshots, offline_eigendecomposition,
                            randomized_snapshots)

GRID = {"coarse": [4, 3], "refine": 4, "t": 1}
CONFIGS = {
    "full_dfm": {"grid": GRID,
                 "fractures": {"field": "crossing_channels", "seed": 1}},
    "randomized": {"grid": GRID,
                   "fractures": {"field": "crossing_channels", "seed": 1},
                   "offline": {"mode": "randomized", "k_nb": 3, "p_bf": 2,
                               "seed": 5}},
    "efm": {"grid": GRID,
            "fractures": {"field": "single_long_efm", "kappa_f": 10.0}},
}


def run_setup(name, tmp_path):
    data = {**CONFIGS[name], "outputs": {"dir": str(tmp_path / "out")}}
    return driver.setup(parse_config(data))


def blas_threads():
    return [get() for get, _ in driver._openblas_thread_controls()]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_pool_matches_serial_loop(name, tmp_path, monkeypatch):
    rs = run_setup(name, tmp_path)
    off = rs.cfg.offline
    # more workers than cores, switching threads as often as possible
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pou, spaces, counts = driver._offline(rs, None)
    finally:
        sys.setswitchinterval(interval)

    with driver._one_blas_thread():
        for nb, space, count in zip(rs.grid.neighborhoods, spaces, counts,
                                    strict=True):
            if off.mode == "randomized":
                ref = randomized_snapshots(rs.grid, rs.sys, nb.index, k_nb=off.k_nb,
                                           p_bf=off.p_bf, seed=off.seed)
            else:
                ref = full_snapshots(rs.grid, rs.sys, nb.index)
            ref_space = offline_eigendecomposition(ref, rs.sys, pou)
            assert space.omega_id == nb.index
            assert count == (ref.l_i - int(ref.constant_included),
                             ref.gen_boundary_count)
            assert space.eigvals.tobytes() == ref_space.eigvals.tobytes()
            assert space.basis_full.tobytes() == ref_space.basis_full.tobytes()


def test_blas_thread_counts_restored(tmp_path, monkeypatch):
    rs = run_setup("full_dfm", tmp_path)
    controls = driver._openblas_thread_controls()
    assert controls, "no OpenBLAS found in the process"
    before = blas_threads()
    inside = []

    def spy(*args, **kwargs):
        inside.append(blas_threads())
        return offline_eigendecomposition(*args, **kwargs)

    monkeypatch.setattr(driver, "offline_eigendecomposition", spy)
    try:
        for _, set_ in controls:       # a count other than the cap's
            set_(2)
        driver._offline(rs, None)
        assert blas_threads() == [2] * len(controls)
    finally:
        for (_, set_), n in zip(controls, before):
            set_(n)
    assert inside and all(counts == [1] * len(controls) for counts in inside)


def test_neighborhood_error_propagates(tmp_path, monkeypatch):
    rs = run_setup("full_dfm", tmp_path)
    before = blas_threads()
    err = RuntimeError("neighborhood 7 failed")

    def failing(g, sys_, omega_id):
        if omega_id == 7:
            raise err
        return full_snapshots(g, sys_, omega_id)

    monkeypatch.setattr(driver, "full_snapshots", failing)
    with pytest.raises(RuntimeError) as exc:
        driver.run_sweep(rs.cfg)
    assert exc.value is err
    assert blas_threads() == before
