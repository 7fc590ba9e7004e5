"""Run one msfrac CLI command in this process and measure it from outside.

    python3 bench/child.py --src SRC --result OUT.json --trace 0|1 -- ARGV...

Imports msfrac from SRC, calls ``msfrac.cli.main(ARGV)`` and writes a
JSON file with the command's wall and CPU time, the set-up boundary, the
process's peak RSS, the BLAS thread count and, with ``--trace 1``, every
span recorded by the layer wrappers.  The untraced run wraps only
``offline_eigendecomposition``, to time-stamp the return of the last
local spectral space.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import sys
import time

# (module, public function) -> layer; every reference to each function
# object in the loaded msfrac modules is replaced by its wrapper.
LAYERS = {
    ("config", "load_config"): "config.load",
    ("grids", "build_hierarchy"): "grids.build",
    ("fractures", "rasterize_dfm"): "fractures.trace",
    ("fractures", "intersect_efm"): "fractures.trace",
    ("assembly", "assemble_dfm"): "assembly.assemble",
    ("assembly", "assemble_efm"): "assembly.assemble",
    ("assembly", "node_operator"): "assembly.node_operator",
    ("assembly", "solve_fine"): "assembly.fine_solve",
    ("offline", "compute_pou"): "offline.pou",
    ("offline", "harmonic_extension"): "offline.harmonic_extension",
    ("offline", "full_snapshots"): "offline.snapshots",
    ("offline", "randomized_snapshots"): "offline.snapshots",
    ("offline", "offline_eigendecomposition"): "offline.spectra",
    ("coarse", "build_space"): "coarse.build_space",
    ("coarse", "solve_coarse_dfm"): "coarse.solve",
    ("coarse", "solve_coarse_efm"): "coarse.solve",
    ("adaptivity", "compute_indicators"): "adaptivity.indicators",
    ("analysis", "errors"): "analysis.errors",
    ("io_formats", "write_error_csv"): "io_formats.write",
    ("io_formats", "write_solution_csv"): "io_formats.write",
    ("io_formats", "write_vtk"): "io_formats.write",
    ("io_formats", "write_eigenvalue_csv"): "io_formats.write",
    ("io_formats", "write_manifest"): "io_formats.write",
    ("io_formats", "write_matrix_market"): "io_formats.write",
}
SPECTRA = ("offline", "offline_eigendecomposition")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _work(fn_key, result) -> dict:
    """Work counts read off a wrapped call's result."""
    _, name = fn_key
    if name in ("full_snapshots", "randomized_snapshots"):
        return {"snapshot_cols": int(result.l_i)}
    if name == "offline_eigendecomposition":
        return {"regularized": int(bool(result.regularized))}
    if name.startswith("solve_coarse_"):
        return {"lstsq": int(result.info.get("solver") == "lstsq")}
    return {}


class Recorder:
    """Spans kept in memory as
    [layer, function, start, end, parent, rss0_mb, rss1_mb, work]."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.last_spectra_end = None

    def wrap(self, key, fn):
        layer = LAYERS[key]
        if not self.trace:
            def timed(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.last_spectra_end = time.perf_counter()
                return out
            return timed

        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            span = [layer, key[1], time.perf_counter(), None, parent,
                    _maxrss_mb(), None, {}]
            self.spans.append(span)
            self.stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span[3] = time.perf_counter()
                span[6] = _maxrss_mb()
            span[7] = _work(key, out)
            if key == SPECTRA:
                self.last_spectra_end = span[3]
            return out

        return traced

    def install(self, modules: dict) -> None:
        """Replace every reference to each wrapped function object."""
        targets = {}
        for (mod, name) in LAYERS:
            if self.trace or (mod, name) == SPECTRA:
                fn = getattr(modules[f"msfrac.{mod}"], name)
                targets[id(fn)] = self.wrap((mod, name), fn)
        for mname, mod in list(modules.items()):
            if mname != "msfrac" and not mname.startswith("msfrac."):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in targets:
                    setattr(mod, attr, targets[id(val)])


def blas_info() -> dict:
    """Thread count and build string of every OpenBLAS the process loaded."""
    with open("/proc/self/maps") as fh:
        paths = sorted({ln.split()[-1] for ln in fh
                        if "openblas" in os.path.basename(ln.split()[-1]).lower()})
    out = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            get = getattr(lib, f"{prefix}_get_num_threads64_", None) \
                or getattr(lib, f"{prefix}_get_num_threads", None)
            conf = getattr(lib, f"{prefix}_get_config64_", None) \
                or getattr(lib, f"{prefix}_get_config", None)
            if get is not None and conf is not None:
                get.restype = ctypes.c_int
                conf.restype = ctypes.c_char_p
                out[os.path.basename(path)] = {
                    "threads": get(), "config": conf().decode().strip()}
                break
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import msfrac.cli

    pkg = os.path.dirname(os.path.abspath(msfrac.__file__))
    if os.path.dirname(pkg) != src:
        print(f"msfrac was imported from {pkg}, not from {src}", file=sys.stderr)
        return 3
    rec = Recorder(bool(args.trace))
    rec.install(sys.modules)

    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    rc = msfrac.cli.main(argv)
    t1 = time.perf_counter()
    cpu1 = _cpu_s()
    result = {
        "rc": rc,
        "wall_s": t1 - t0,
        "cpu_s": cpu1 - cpu0,
        "setup_s": (None if rec.last_spectra_end is None
                    else rec.last_spectra_end - t0),
        "peak_rss_mb": _maxrss_mb(),
        "blas": blas_info(),
        "t0": t0,
        "spans": rec.spans,
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0 if rc == 0 else 4


if __name__ == "__main__":
    sys.exit(main())
