"""What the offline stage keeps: after ``_offline`` returns, the memory
still allocated is little more than the modes and eigenvalues of the
neighborhood spaces (no snapshots, no pencils, no dense POU rows)."""

import gc
import tracemalloc

import pytest

from msfrac import driver
from msfrac.config import parse_config

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
    driver._offline(rs)      # lazy imports and first-call caches
    gc.collect()
    tracemalloc.start()
    try:
        pou, spaces, counts = driver._offline(rs)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    modes = sum(sp.basis_full.nbytes + sp.eigvals.nbytes for sp in spaces)
    assert retained <= 1.5 * modes, f"{retained / modes:.2f}x the modes"
