"""Every output file of the shipped configs, by SHA-256 digest.

A refactor that keeps the numerics must keep every output byte-identical;
this test recomputes the digests of six CLI runs on ``configs/`` and
compares them with ``golden_digests.json``.  The manifest echoes the
output directory, so its ``outputs.dir`` line is the one line normalised
before hashing.

The digests hold for the numpy, scipy and OpenBLAS builds recorded in
the same file (OpenBLAS picks its kernels by CPU, so its config string,
which names the kernel core, is recorded too).  Under any other build
the test skips, naming both sets of versions.  A change that moves
output bits on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden_outputs.py

and says why in CHANGES.md.
"""

import ctypes
import hashlib
import json
import os
import pathlib
import sys

import numpy as np
import pytest
import scipy

from msfrac.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = pathlib.Path(__file__).with_name("golden_digests.json")
RUNS = {
    "sweep_channels": ("sweep", "channels_sweep.yml"),
    "sweep_randomized": ("sweep", "randomized_sweep.yml"),
    "adapt_channels": ("adapt", "adapt_channels.yml"),
    "solve_efm": ("solve", "efm_single.yml"),
    "export_channels": ("export-matrices", "channels_sweep.yml"),
    "export_efm": ("export-matrices", "efm_single.yml"),
}


def versions() -> dict:
    """numpy and scipy versions, as the manifest records them, and the
    config string of every OpenBLAS the process has loaded."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh
                            if "openblas" in os.path.basename(ln.split()[-1]).lower()})
    except OSError:                   # no /proc: no build to compare, so skip
        paths = []
    blas = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                     "openblas_get_config"):
            conf = getattr(lib, name, None)
            if conf is not None:
                conf.restype = ctypes.c_char_p
                blas.append(" ".join(conf().decode().split()))
                break
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "openblas": blas}


def digests(run: str, out: pathlib.Path) -> dict:
    """{file name: SHA-256} of every output file of one run into out."""
    command, config = RUNS[run]
    assert main([command, "-c", str(ROOT / "configs" / config),
                 "--out", str(out)]) == 0
    found = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.yml":
            lines = data.decode().split("\n")
            at = [k for k, ln in enumerate(lines) if ln.strip() == f"dir: {out}"]
            assert len(at) == 1, "the manifest echoes its output directory once"
            lines[at[0]] = lines[at[0]].replace(str(out), "OUT")
            data = "\n".join(lines).encode()
        found[path.name] = hashlib.sha256(data).hexdigest()
    return found


@pytest.mark.parametrize("run", sorted(RUNS))
def test_outputs_are_byte_identical(run, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    here = versions()
    if here != golden["versions"]:
        pytest.skip(f"digests recorded under {golden['versions']}, "
                    f"this process has {here}")
    assert digests(run, tmp_path / run) == golden["runs"][run]


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        runs = {run: digests(run, pathlib.Path(tmp) / run) for run in RUNS}
    GOLDEN.write_text(json.dumps({"versions": versions(), "runs": runs},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
