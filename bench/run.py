"""msfrac benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload NAME [--seed 0] [--seconds 40] [--trace 0|1]

With ``--trace 0`` the workload's CLI command runs in whole rounds, each
in a fresh process, until ``--seconds`` have passed (at least one
round); the end-to-end metrics are medians over the rounds.  With
``--trace 1`` the command runs once untraced and once traced; the traced
run gives each layer's self time, peak-RSS growth and work counts, and
must reproduce the untraced run's output files byte for byte.

Every round's outputs are checked (see checks.py).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Working files go to ``.bench_out/<workload>/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "energy_err_pct": "%", "l2_err_pct": "%", "coarse_dim": "count"}

# per-layer metric -> unit; "_s" is self time, "_mb" peak-RSS growth
PER_LAYER = {
    "config.load_s": "s",
    "grids.build_s": "s",
    "fractures.trace_s": "s",
    "assembly.assemble_s": "s",
    "assembly.node_operator_s": "s",
    "assembly.node_operator_calls": "count",
    "assembly.fine_solve_s": "s",
    "assembly.fine_solve_mb": "MB",
    "offline.pou_s": "s",
    "offline.pou_mb": "MB",
    "offline.harmonic_extension_s": "s",
    "offline.local_factorizations": "count",
    "offline.snapshots_s": "s",
    "offline.snapshot_cols": "count",
    "offline.snapshots_mb": "MB",
    "offline.spectra_s": "s",
    "offline.spaces_mb": "MB",
    "offline.regularized": "count",
    "coarse.build_space_s": "s",
    "coarse.build_space_calls": "count",
    "coarse.solve_s": "s",
    "coarse.solves": "count",
    "coarse.solve_mb": "MB",
    "coarse.lstsq_fallbacks": "count",
    "adaptivity.indicators_s": "s",
    "adaptivity.iterations": "count",
    "analysis.errors_s": "s",
    "analysis.error_calls": "count",
    "io_formats.write_s": "s",
    "driver.other_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "blas.threads": "count",
}
# layer -> metric of its call count; layer -> metric of its peak-RSS growth;
# work count reported by a wrapper -> metric
LAYER_COUNTS = {"assembly.node_operator": "assembly.node_operator_calls",
                "offline.harmonic_extension": "offline.local_factorizations",
                "coarse.build_space": "coarse.build_space_calls",
                "coarse.solve": "coarse.solves",
                "adaptivity.indicators": "adaptivity.iterations",
                "analysis.errors": "analysis.error_calls"}
LAYER_MB = {"assembly.fine_solve": "assembly.fine_solve_mb",
            "offline.pou": "offline.pou_mb",
            "offline.snapshots": "offline.snapshots_mb",
            "offline.spectra": "offline.spaces_mb",
            "coarse.solve": "coarse.solve_mb"}
WORK = {"snapshot_cols": "offline.snapshot_cols",
        "regularized": "offline.regularized",
        "lstsq": "coarse.lstsq_fallbacks"}


class BenchError(RuntimeError):
    pass


def run_command(workdir: str, tag: str, command: str, trace: bool) -> dict:
    """One CLI command in a fresh process, in workdir/tag, outputs in out/."""
    cwd = os.path.join(workdir, tag)
    shutil.rmtree(cwd, ignore_errors=True)
    os.makedirs(cwd)
    result = os.path.join(cwd, "result.json")
    with open(os.path.join(cwd, "cli.log"), "w") as log:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), "--src", SRC,
             "--result", result, "--trace", str(int(trace)), "--",
             command, "-c", os.path.join(workdir, "config.yml")],
            cwd=cwd, stdout=log, stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        with open(os.path.join(cwd, "cli.log")) as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"{command} exited with {proc.returncode}:\n{tail}")
    with open(result) as fh:
        res = json.load(fh)
    if res["setup_s"] is None:
        raise BenchError("no local spectral space was built")
    res["outdir"] = os.path.join(cwd, "out")
    return res


def layer_metrics(res: dict) -> dict:
    """Per-layer figures of one traced command from its spans."""
    spans = res["spans"]
    child_time = [0.0] * len(spans)
    for layer, fn, t0, t1, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out = {name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER.items()}
    named = 0.0
    for k, (layer, fn, t0, t1, parent, rss0, rss1, work) in enumerate(spans):
        self_time = (t1 - t0) - child_time[k]
        out[layer + "_s"] += self_time
        named += self_time
        if layer in LAYER_COUNTS:
            out[LAYER_COUNTS[layer]] += 1
        # outermost span of its layer: nested growth is already inside it
        if layer in LAYER_MB and (parent < 0 or spans[parent][0] != layer):
            out[LAYER_MB[layer]] += rss1 - rss0
        for key, val in work.items():
            out[WORK[key]] += val
    out["driver.other_s"] = res["wall_s"] - named
    out["trace.wall_s"] = res["wall_s"]
    return out


def blas_threads(res: dict) -> int:
    return max(v["threads"] for v in res["blas"].values())


def main(argv=None) -> int:
    from workloads import WORKLOADS, write_config
    import checks

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    command = WORKLOADS[args.workload][0]
    workdir = os.path.join(ROOT, ".bench_out", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cfg = write_config(args.workload, args.seed, os.path.join(workdir, "config.yml"))
    conforming = any(f["model"] == "dfm" for f in cfg["fractures"]["list"])
    ref = checks.Reference(cfg) if conforming else None

    attempted = failed = 0
    results = []

    def measured(tag, trace):
        nonlocal attempted, failed
        res = run_command(workdir, tag, command, trace)
        a, f, last, problems = checks.check_command(command, cfg, res["outdir"], ref)
        attempted += a
        failed += f
        for p in problems:
            print(f"{tag}: FAILED CHECK: {p}")
        print(f"{tag}: wall {res['wall_s']:.3f} s  setup {res['setup_s']:.3f} s  "
              f"cpu {res['cpu_s']:.3f} s  peak RSS {res['peak_rss_mb']:.1f} MB  "
              f"BLAS threads {blas_threads(res)}  final row {dict(last)}")
        res["last"] = last
        res["ops"] = (a, f)
        results.append(res)
        return res

    print(f"workload {args.workload}  seed {args.seed}  command msfrac {command}")
    if args.trace:
        plain = measured("untraced", False)
        traced = measured("traced", True)
        files = sorted(os.listdir(plain["outdir"]))
        match = filecmp.cmpfiles(plain["outdir"], traced["outdir"], files,
                                 shallow=False)[0]
        if match != files or sorted(os.listdir(traced["outdir"])) != files:
            print(f"traced: FAILED CHECK: outputs differ from the untraced run "
                  f"(identical: {match} of {files})")
            failed += traced["ops"][0] - traced["ops"][1]
        metrics = layer_metrics(traced)
        metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        metrics["blas.threads"] = blas_threads(traced)
        print(f"spans: {os.path.join(workdir, 'traced', 'result.json')}")
        print(f"{'metric':32s} {'value':>14s}  unit")
        for name, unit in PER_LAYER.items():
            print(f"{name:32s} {metrics[name]:14.6g}  {unit}")
        out = {name: {"value": metrics[name], "unit": unit}
               for name, unit in PER_LAYER.items()}
    else:
        start = time.perf_counter()
        k = 0
        while not results or time.perf_counter() - start < args.seconds:
            measured(f"round{k}", False)
            k += 1
        last = results[-1]["last"]
        med = lambda key: statistics.median(r[key] for r in results)
        values = {"wall_s": med("wall_s"), "setup_s": med("setup_s"),
                  "cpu_s": med("cpu_s"), "peak_rss_mb": med("peak_rss_mb"),
                  "energy_err_pct": float(last["h1_fine_pct"]),
                  "l2_err_pct": float(last["l2_fine_pct"]),
                  "coarse_dim": int(last["dim"])}
        out = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END.items()}
        print(f"{len(results)} rounds; medians over rounds:")
        for name, unit in END_TO_END.items():
            print(f"  {name:16s} {values[name]:14.6g}  {unit}")

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "msfrac", "__init__.py")):
        print(f"error: no msfrac sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
