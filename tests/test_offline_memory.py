"""What the offline stage keeps: after ``offline_spaces`` returns, the memory
still allocated is little more than the kept modes and the eigenvalues
of the neighborhood spaces and the POU on its patches (no snapshots, no
pencils, no dropped modes, no dense POU rows)."""

import gc
import tracemalloc

import pytest

from msfrac import driver
from msfrac.config import parse_config
from msfrac.offline import offline_spaces

FRACTURES = {
    "dfm": {"field": "crossing_channels", "seed": 1},
    "efm": {"field": "single_long_efm", "kappa_f": 10.0},
}


@pytest.mark.parametrize("name", sorted(FRACTURES))
def test_offline_retains_little_beyond_the_modes(name, tmp_path):
    rs = driver.setup(parse_config({
        "grid": {"coarse": [6, 6], "refine": 6},
        "fractures": FRACTURES[name],
        "outputs": {"dir": str(tmp_path / "out")}}))
    for n_modes in (None, 2):       # every mode, and a kept count
        # lazy imports and first-call caches
        offline_spaces(rs.grid, rs.sys, rs.cfg.offline, n_modes)
        gc.collect()
        tracemalloc.start()
        try:
            pou, spaces = offline_spaces(rs.grid, rs.sys, rs.cfg.offline, n_modes)
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the stage returns the kept modes, every eigenvalue and the POU
        # with its cell and edge weights; an array shared by several
        # spaces is counted once
        arrays = [a for sp in spaces for a in (sp.basis_full, sp.eigvals)]
        arrays += [*pou.chi, pou.kappa_tilde, pou.edge_kappa_tilde]
        kept = sum(a.nbytes for a in {id(a): a for a in arrays}.values())
        assert retained <= 1.45 * kept, \
            f"n_modes={n_modes}: {retained / kept:.2f}x what is kept"
        del pou, spaces
