"""Self-test of the benchmark's checks.

    python3 bench/selftest.py

Runs a small sweep through the CLI, checks that its outputs pass, then
damages copies of them and checks that each damage is reported as failed
operations: a perturbed interior value, a perturbed boundary value, a
non-monotone error table and a wrong coarse dimension.  Exits 0 when
every damage is caught.
"""

from __future__ import annotations

import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

CONFIG = {
    "grid": {"coarse": [4, 4], "refine": 5, "t": 2},
    "fractures": {"list": [{"polyline": [[0.15, 0.2], [0.85, 0.7]],
                            "aperture": 1e-3, "kappa_f": 1e4,
                            "model": "dfm"}]},
    "bc": {"bilinear": [0.5, 1.0, -1.0, 2.0]},
    "offline": {"mode": "full"},
    "sweep": [1, 2, 3],
    "outputs": {"dir": "out", "csv": "errors.csv", "vtk": "solution.vtk"},
}


def _edit_lines(path, edit):
    with open(path) as fh:
        lines = fh.read().split("\n")
    edit(lines)
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


def _bump_value(offset_from_data_start):
    def edit(lines):
        k = next(i for i, ln in enumerate(lines)
                 if ln.startswith("LOOKUP_TABLE")) + 1 + offset_from_data_start
        lines[k] = repr(float(lines[k]) + 1e-3)
    return edit


def _swap_rows(lines):
    lines[1], lines[2] = lines[2], lines[1]


def _wrong_dim(lines):
    row = lines[2].split(",")
    row[0] = str(int(row[0]) + 1)
    lines[2] = ",".join(row)


def main() -> int:
    import yaml
    import checks
    from run import run_command

    workdir = os.path.join(ROOT, ".bench_out", "selftest")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    with open(os.path.join(workdir, "config.yml"), "w") as fh:
        yaml.safe_dump(CONFIG, fh)
    res = run_command(workdir, "clean", "sweep", trace=False)
    ref = checks.Reference(CONFIG)
    nx = CONFIG["grid"]["coarse"][0] * CONFIG["grid"]["refine"]
    interior = 2 * (nx + 1) + nx // 2          # node (nx/2, 2)

    cases = [("clean outputs", None, None),
             ("perturbed interior value", "solution.vtk", _bump_value(interior)),
             ("perturbed boundary value", "solution.vtk", _bump_value(nx // 2)),
             ("non-monotone error table", "errors.csv", _swap_rows),
             ("wrong coarse dimension", "errors.csv", _wrong_dim)]
    ok = True
    for label, name, edit in cases:
        outdir = os.path.join(workdir, "case")
        shutil.rmtree(outdir, ignore_errors=True)
        shutil.copytree(res["outdir"], outdir)
        if edit is not None:
            _edit_lines(os.path.join(outdir, name), edit)
        attempted, failed, _, problems = checks.check_command(
            "sweep", CONFIG, outdir, ref)
        caught = (failed == 0) if edit is None else (failed > 0)
        ok &= caught
        print(f"{'ok  ' if caught else 'FAIL'} {label}: {failed} of {attempted} "
              f"operations failed {problems}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    sys.exit(main())
