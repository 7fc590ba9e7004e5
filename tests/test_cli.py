"""End-to-end CLI runs on small grids: exit codes, outputs, determinism."""

import os
import pathlib
import runpy
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.io
import yaml

import msfrac
from msfrac import driver
from msfrac.assembly import node_operator
from msfrac.cli import main
from msfrac.config import (ConfigError, GridConfig, OfflineConfig,
                           OutputsConfig, RunConfig, parse_config)

BASE = {
    "grid": {"coarse": [4, 4], "refine": 3},
    "matrix": {"kappa": 1.0},
    "bc": {"bilinear": [0.2, 1.0, -0.5, 0.3]},
    "offline": {"mode": "full", "M_off": 2},
    "sweep": [1, 2],
}
EFM_LINE = {"list": [{"polyline": [[0.2, 0.5], [0.8, 0.6]],
                      "aperture": 1e-3, "kappa_f": 50.0, "model": "efm"}]}
EFM_TWO = {"list": EFM_LINE["list"] + [
    {"polyline": [[0.3, 0.85], [0.65, 0.2]], "aperture": 1e-3,
     "kappa_f": 80.0, "model": "efm"},
    {"polyline": [[0.25, 0.25], [0.75, 0.25]], "aperture": 1e-3,
     "kappa_f": 50.0, "model": "dfm"}]}
CHANNELS = {"field": "crossing_channels", "seed": 2, "params": {"n": 5}}


def write_cfg(tmp_path, name="run.yml", **overrides):
    data = {**{k: dict(v) if isinstance(v, dict) else list(v)
               for k, v in BASE.items()}, **overrides}
    data.setdefault("outputs", {})["dir"] = str(tmp_path / "out")
    p = tmp_path / name
    p.write_text(yaml.safe_dump(data))
    return p, tmp_path / "out"


def test_solve_without_fractures_is_exact(tmp_path, capsys):
    cfg, out = write_cfg(tmp_path)
    assert main(["solve", "-c", str(cfg)]) == 0
    # 9 interior nodes at 2 modes + 16 boundary nodes at 1
    assert "dim=34" in capsys.readouterr().out
    lines = (out / "errors.csv").read_text().splitlines()
    assert lines[0] == "dim,l2_fine_pct,h1_fine_pct,l2_snap_pct,h1_snap_pct"
    dim, l2, h1 = lines[1].split(",")[:3]
    # constant kappa + bilinear data: the first-mode space already
    # contains the fine solution, so the percentages are round-off
    assert int(dim) == 34
    assert float(l2) < 1e-8 and float(h1) < 1e-6
    doc = yaml.safe_load((out / "manifest.yml").read_text())
    assert doc["run"]["command"] == "solve"
    assert doc["run"]["coarse_solver"] == "direct"
    assert doc["run"]["coarse_rcond"] > np.finfo(float).eps
    assert doc["run"]["coarse_rank"] is None
    # the fine reference residual, to 2 significant digits
    res = doc["run"]["fine_residual"]
    assert 0.0 <= res < 1e-12 and res == float(f"{res:.2g}")


def test_sweep_csv_monotone_and_rerun_identical(tmp_path):
    cfg, out = write_cfg(
        tmp_path,
        fractures=CHANNELS,
        sweep=[1, 2, 3, 4, 5])
    assert main(["sweep", "-c", str(cfg)]) == 0
    first = (out / "errors.csv").read_bytes()
    lines = first.decode().splitlines()
    assert len(lines) == 6
    h1 = [float(l.split(",")[2]) for l in lines[1:]]
    assert h1 == sorted(h1, reverse=True)
    ls = [float(l.split(",")[3]) for l in lines[1:]]
    assert ls[-1] == 0.0  # largest space is its own snapshot reference

    assert main(["sweep", "-c", str(cfg)]) == 0
    assert (out / "errors.csv").read_bytes() == first


def test_ill_conditioned_coarse_solve_records_lstsq(tmp_path, capsys):
    # randomized spaces on 2x2-cell patches without fractures: one
    # regularized corner mode is the zero function up to round-off, so K0
    # is singular to within round-off and either coarse path may take it;
    # the path taken is recorded, silently, and the answer is exact either
    # way.  The lstsq path itself is pinned by an exactly singular coarse
    # system in tests/test_coarse.py.
    cfg, out = write_cfg(tmp_path, grid={"coarse": [3, 3], "refine": 2},
                         offline={"mode": "randomized"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", "-c", str(cfg)]) == 0
    run = yaml.safe_load((out / "manifest.yml").read_text())["run"]
    assert run["coarse_solver"] in ("direct", "lstsq")
    assert (run["coarse_rank"] is None) == (run["coarse_solver"] != "lstsq")
    h1 = float((out / "errors.csv").read_text().splitlines()[1].split(",")[2])
    assert h1 < 1e-8


def test_sweep_records_coarse_path_per_row(tmp_path):
    # the case above at every mode count
    cfg, out = write_cfg(tmp_path, grid={"coarse": [3, 3], "refine": 2},
                         offline={"mode": "randomized"}, sweep=[1, 2, 3])
    assert main(["sweep", "-c", str(cfg)]) == 0
    first = (out / "manifest.yml").read_bytes()
    run = yaml.safe_load(first)["run"]
    assert len(run["coarse_solver"]) == len(run["coarse_rcond"]) \
        == len(run["coarse_rank"]) == len(run["dims"]) == 3
    for solver, rank in zip(run["coarse_solver"], run["coarse_rank"]):
        assert (rank is None) == (solver != "lstsq")
    assert run["dims"] == [16, 20, 24]
    assert 0.0 <= run["fine_residual"] < 1e-10
    assert main(["sweep", "-c", str(cfg)]) == 0
    assert (out / "manifest.yml").read_bytes() == first


def code_config(mode, out):
    return RunConfig(grid=GridConfig(coarse_nx=3, coarse_ny=3, refine=3, t=1),
                     offline=OfflineConfig(mode=mode, M_off=2, k_nb=2, p_bf=1),
                     sweep=[1, 2], outputs=OutputsConfig(dir=str(out)))


@pytest.mark.parametrize("run", ["run_solve", "run_sweep"])
def test_configs_built_in_code_get_the_parsers_checks(run, tmp_path):
    with pytest.raises(ConfigError,
                       match=r"^offline\.mode: expected one of .*, got 'bogus'$"):
        getattr(driver, run)(code_config("bogus", tmp_path / "bogus"))
    # a choice matches case-insensitively, as in a YAML file
    getattr(driver, run)(code_config("Randomized", tmp_path / "code"))
    data = {"grid": {"coarse": 3, "refine": 3, "t": 1},
            "offline": {"mode": "randomized", "M_off": 2, "k_nb": 2, "p_bf": 1},
            "sweep": [1, 2], "outputs": {"dir": str(tmp_path / "yaml")}}
    getattr(driver, run)(parse_config(data))
    for name in ("errors.csv", "manifest.yml"):
        code = (tmp_path / "code" / name).read_text()
        assert code == (tmp_path / "yaml" / name).read_text().replace(
            str(tmp_path / "yaml"), str(tmp_path / "code"))
    run_record = yaml.safe_load((tmp_path / "code" / "manifest.yml").read_text())["run"]
    assert run_record["offline_mode"] == "randomized"


def test_empty_sweep_built_in_code_is_rejected(tmp_path):
    cfg = code_config("full", tmp_path / "out")
    cfg.sweep = []
    with pytest.raises(ConfigError,
                       match=r"^sweep: expected a non-empty list of positive counts$"):
        driver.setup(cfg)


def test_malformed_fracture_polyline_exits_nonzero(tmp_path, capsys):
    for fractures, frag in [
            ({"list": [{"polyline": [[0.5, 0.5]],
                        "aperture": 1e-3, "kappa_f": 1e3}]}, "list[0]"),
            ({"list": [{"polyline": [[0.2, 0.5], [0.8, 0.5]],
                        "aperture": 1e-3, "kappa_f": float("nan")}]},
             "list[0].kappa_f: must be finite"),
            ({"field": "crossing_channels", "params": {"nn": 4}}, "nn")]:
        cfg, _ = write_cfg(tmp_path, fractures=fractures)
        assert main(["solve", "-c", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and frag in err


def test_degenerate_fracture_names_its_id(tmp_path, capsys):
    cfg, _ = write_cfg(
        tmp_path,
        fractures={"list": [
            {"polyline": [[0.2, 0.2], [0.6, 0.4]],
             "aperture": 1e-3, "kappa_f": 1e3},
            {"polyline": [[0.3, 0.3], [0.3, 0.3]],
             "aperture": 1e-3, "kappa_f": 1e3}]})
    assert main(["solve", "-c", str(cfg)]) == 2
    assert "fracture 1" in capsys.readouterr().err


def test_field_that_draws_no_fracture_exits_nonzero(tmp_path, capsys):
    # isolated_blocks has no room inside its margins at refine 4, so it
    # draws nothing; a fracture-free solve would answer a different question
    cfg, out = write_cfg(tmp_path, grid={"coarse": [4, 4], "refine": 4},
                         fractures={"field": "isolated_blocks", "seed": 2})
    assert main(["solve", "-c", str(cfg)]) == 2
    assert capsys.readouterr().err == ("error: fractures.field 'isolated_blocks' "
                                       "draws no fracture at seed 2 on 4x4@4\n")
    assert not (out / "errors.csv").exists()


def test_manual_box_without_a_coarse_node_exits_nonzero(tmp_path, capsys):
    cfg, out = write_cfg(tmp_path, adapt={"indicator": "manual",
                                          "manual_box": [7, 9, 7, 9]})
    assert main(["adapt", "-c", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "error: manual_box [7, 9, 7, 9] holds no coarse node of the 4x4 coarse "
        "grid (nodes 0..4 by 0..4)\n")
    assert not (out / "errors.csv").exists()


def test_missing_config_exits_nonzero(tmp_path, capsys):
    assert main(["solve", "-c", str(tmp_path / "nope.yml")]) == 2
    assert "error:" in capsys.readouterr().err


def test_negative_seeds_are_rejected_before_setup(tmp_path, capsys, monkeypatch):
    # named by their key at parse time, before any setup runs
    monkeypatch.setattr(driver, "setup", None)
    for fractures, offline, frag in [
            ({"field": "isolated_blocks", "seed": -1}, {}, "fractures.seed"),
            ({}, {"mode": "randomized", "seed": -1}, "offline.seed"),
            ({}, {"mode": "randomized", "p_bf": -1}, "offline.p_bf")]:
        cfg, _ = write_cfg(tmp_path, fractures=fractures, offline=offline)
        assert main(["solve", "-c", str(cfg)]) == 2
        assert f"error: {frag}: must be non-negative" in capsys.readouterr().err
    cfg, _ = write_cfg(tmp_path)
    for seed in ("-1", "x"):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "-c", str(cfg), "--seed", seed])
        assert exc.value.code == 2
        assert "--seed: expected a non-negative integer" in capsys.readouterr().err


def test_seed_and_out_overrides(tmp_path):
    cfg, _ = write_cfg(tmp_path,
                       fractures={"field": "crossing_channels", "seed": 1},
                       offline={"mode": "randomized", "M_off": 2,
                                "k_nb": 3, "p_bf": 2, "seed": 1})
    alt = tmp_path / "elsewhere"
    assert main(["solve", "-c", str(cfg), "--seed", "9",
                 "--out", str(alt)]) == 0
    doc = yaml.safe_load((alt / "manifest.yml").read_text())
    assert doc["run"]["seeds"] == {"fractures": 9, "offline": 9}
    assert doc["config"]["fractures"]["seed"] == 9


def test_adapt_trajectory_csv(tmp_path):
    cfg, out = write_cfg(
        tmp_path,
        fractures=CHANNELS,
        adapt={"theta": 0.7, "max_iters": 2, "basis_increment": 1})
    assert main(["adapt", "-c", str(cfg)]) == 0
    lines = (out / "errors.csv").read_text().splitlines()
    assert lines[0] == "iteration,dim,l2_fine_pct,h1_fine_pct,marked"
    assert len(lines) == 4
    dims = [int(l.split(",")[1]) for l in lines[1:]]
    assert dims[0] == 25 and dims == sorted(dims)
    h1 = [float(l.split(",")[3]) for l in lines[1:]]
    assert h1 == sorted(h1, reverse=True)
    run = yaml.safe_load((out / "manifest.yml").read_text())["run"]
    assert run["coarse_solver"] == ["direct"] * 3
    assert len(run["coarse_rcond"]) == 3
    assert run["coarse_rank"] == [None] * 3
    assert 0.0 <= run["fine_residual"] < 1e-10


@pytest.mark.parametrize("fractures", [CHANNELS, EFM_LINE], ids=["dfm", "efm"])
def test_solve_is_the_one_row_sweep(fractures, tmp_path):
    rows, vtk = {}, {}
    for command in ("solve", "sweep"):
        (tmp_path / command).mkdir()
        cfg, out = write_cfg(tmp_path / command, fractures=fractures,
                             sweep=[BASE["offline"]["M_off"]],
                             outputs={"vtk": "solution.vtk"})
        assert main([command, "-c", str(cfg)]) == 0
        lines = (out / "errors.csv").read_text().splitlines()
        assert len(lines) == 2
        rows[command] = lines[1].split(",")[:3]    # dim, l2_fine, h1_fine
        vtk[command] = (out / "solution.vtk").read_bytes()
    assert rows["solve"] == rows["sweep"]
    assert vtk["solve"] == vtk["sweep"]


def spy_norm_builds(monkeypatch):
    """Counts of whole-grid mass assemblies and of block-operator builds,
    the ``assemble_efm`` calls that build K.

    Both functions are replaced in every msfrac module that holds them."""
    counts = {"mass": 0, "block": 0}
    node_operator = msfrac.assembly.node_operator
    assemble_efm = msfrac.assembly.assemble_efm

    def mass_spy(g, cell_weights, edge_weights=None, kind="stiffness",
                 box=None, **options):
        counts["mass"] += kind == "mass" and box is None
        return node_operator(g, cell_weights, edge_weights, kind, box, **options)

    def block_spy(*args, **kwargs):
        counts["block"] += 1
        return assemble_efm(*args, **kwargs)

    spies = [(node_operator, "node_operator", mass_spy),
             (assemble_efm, "assemble_efm", block_spy)]
    for name, mod in list(sys.modules.items()):
        for fn, attr, spy in spies:
            if name.startswith("msfrac") and getattr(mod, attr, None) is fn:
                monkeypatch.setattr(mod, attr, spy)
    return counts


def test_sweep_builds_norm_operators_once(tmp_path, monkeypatch):
    counts = spy_norm_builds(monkeypatch)
    cfg, out = write_cfg(tmp_path, fractures=EFM_LINE, sweep=[1, 2, 3])
    assert main(["sweep", "-c", str(cfg)]) == 0
    assert len((out / "errors.csv").read_text().splitlines()) == 4
    # one whole-grid mass, the L2 norm's; one block operator, built by
    # the one embedded assembly and shared by the fine solve, the coarse
    # solves and the norm
    assert counts == {"mass": 1, "block": 1}


def test_adapt_builds_norm_operators_once(tmp_path, monkeypatch):
    counts = spy_norm_builds(monkeypatch)
    cfg, out = write_cfg(tmp_path, fractures=CHANNELS,
                         adapt={"theta": 0.7, "max_iters": 2,
                                "basis_increment": 1})
    assert main(["adapt", "-c", str(cfg)]) == 0
    assert len((out / "errors.csv").read_text().splitlines()) == 4
    assert counts["mass"] == 1       # the L2 norm's


@pytest.mark.parametrize("fractures", [EFM_LINE, EFM_TWO], ids=["efm", "mixed"])
def test_adapt_runs_on_every_fracture_model(fractures, tmp_path):
    cfg, out = write_cfg(tmp_path, fractures=fractures,
                         adapt={"theta": 0.7, "max_iters": 2,
                                "basis_increment": 1})
    runs = []
    for _ in range(2):                 # the same --out both times
        assert main(["adapt", "-c", str(cfg)]) == 0
        runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert runs[0] == runs[1]
    rows = [line.split(",") for line in
            (out / "errors.csv").read_text().splitlines()[1:]]
    assert len(rows) == 3
    # nested spaces that all hold every fracture unknown: the energy
    # error of the Galerkin solution cannot grow
    h1 = [float(r[3]) for r in rows]
    assert all(b <= a for a, b in zip(h1, h1[1:])), h1
    run = yaml.safe_load((out / "manifest.yml").read_text())["run"]
    assert run["dims"] == [int(r[1]) for r in rows]
    assert len(run["coarse_solver"]) == len(run["dims"])


def test_export_matrices_files_load(tmp_path, capsys):
    for n_efm, fractures in ((1, EFM_LINE), (2, EFM_TWO)):
        (tmp_path / str(n_efm)).mkdir()
        cfg, out = write_cfg(tmp_path / str(n_efm), fractures=fractures)
        assert main(["export-matrices", "-c", str(cfg)]) == 0
        printed = capsys.readouterr().out.splitlines()
        names = {p.rsplit("/", 1)[-1] for p in printed}
        assert {"A.mtx", "S.mtx", "A0.mtx", "R0T.mtx", "A_m.mtx"} <= names
        A0, R0T, A_m = (scipy.io.mmread(str(out / name)).tocsr()
                        for name in ("A0.mtx", "R0T.mtx", "A_m.mtx"))
        assert A0.shape[0] == A0.shape[1] == 34
        scale = np.abs(A0).max()
        assert np.abs(A0 - A0.T).max() <= 1e-12 * scale
        # the matrix block of the operator the embedded-fracture solve factors
        assert np.abs(A0 - R0T.T @ A_m @ R0T).max() <= 1e-12 * scale
        # every fracture's 1D block and its coupling to the matrix nodes
        for i in range(n_efm):
            assert {f"B_{i}.mtx", f"B_mf_{i}.mtx"} <= names
            B, C = (scipy.io.mmread(str(out / f"{name}_{i}.mtx")).tocsr()
                    for name in ("B", "B_mf"))
            assert B.shape == (C.shape[1], C.shape[1])
            assert C.shape[0] == A_m.shape[0] and C.nnz > 0


def test_exported_A_is_the_nodal_operator_without_transfer_terms(tmp_path):
    # A.mtx is the nodal operator of the matrix and the conforming
    # fractures; A_m.mtx, K's matrix block, adds the transfer terms
    config = pathlib.Path(__file__).resolve().parents[1] / "configs" / "efm_single.yml"
    assert main(["export-matrices", "-c", str(config), "--out", str(tmp_path)]) == 0
    data = yaml.safe_load(config.read_text())
    rs = driver.setup(parse_config({**data, "outputs": {"dir": str(tmp_path)}}))
    want = node_operator(rs.grid, rs.sys.perm.kappa_cells, rs.sys.edge_arrays)
    A, A_m = (scipy.io.mmread(str(tmp_path / name)).tocsr()
              for name in ("A.mtx", "A_m.mtx"))
    for M in (A, want):
        M.sort_indices()
    assert A.shape == want.shape
    assert A.indptr.tobytes() == want.indptr.tobytes()
    assert A.indices.tobytes() == want.indices.tobytes()
    assert A.data.tobytes() == want.data.tobytes()
    assert (A != A_m).nnz > 0


def test_raster_field_through_cli(tmp_path):
    import msfrac as mf

    g = mf.build_hierarchy(mf.UNIT_SQUARE, 4, 4, 3, t=0)
    rng = np.random.default_rng(4)
    raster = tmp_path / "kappa.txt"
    np.savetxt(raster, rng.uniform(0.5, 5.0, (g.fine_ny, g.fine_nx)),
               fmt="%.17g", header=f"{g.fine_nx} {g.fine_ny}", comments="")
    cfg, out = write_cfg(tmp_path, matrix={"kappa": 1.0,
                                           "raster": str(raster)})
    assert main(["solve", "-c", str(cfg)]) == 0
    row = (out / "errors.csv").read_text().splitlines()[1]
    assert float(row.split(",")[2]) > 1e-6  # heterogeneity makes it inexact


@pytest.mark.parametrize("script,opts", [
    ("convergence_study.py", ["--fields", "crossing_channels", "--max-modes", "1"]),
    ("adaptivity_trajectory.py", ["--max-iters", "1"]),
    ("randomized_comparison.py", ["--modes", "1"]),
    ("adaptivity_trajectory.py", ["--field", "single_long_efm", "--max-iters", "1"]),
])
def test_experiment_scripts_run(script, opts, tmp_path, monkeypatch, capsys):
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / script
    monkeypatch.setattr(sys, "argv", [str(path), "--coarse", "3", "--refine", "3",
                                      "--t", "1", "--out", str(tmp_path), *opts])
    runpy.run_path(str(path), run_name="__main__")
    assert "dim" in capsys.readouterr().out
    assert list(tmp_path.rglob("manifest.yml"))


SCRIPT_CSVS = {
    # isolated_blocks draws no fracture at refine 4, so it is skipped
    "convergence_study.py": [f"{field}/errors.csv" for field in (
        "crossing_channels", "crossing_network", "mixed_short_long")],
    "adaptivity_trajectory.py": ["adaptive/trajectory.csv", "uniform/errors.csv"],
    "randomized_comparison.py": [f"{mode}_m{m}/errors.csv"
                                 for mode in ("full", "rand") for m in (3, 4, 5)],
}


@pytest.mark.parametrize("script", sorted(SCRIPT_CSVS))
def test_experiment_scripts_exit_zero_at_their_defaults(script, tmp_path):
    # each script as its own process, with every option but the grid's
    # size and the output directory at its default; it writes one CSV
    # of a header and at least one row per run
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / script
    src = str(pathlib.Path(msfrac.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
    proc = subprocess.run([sys.executable, str(path), "--coarse", "4",
                           "--refine", "4", "--out", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*.csv")) \
        == sorted(SCRIPT_CSVS[script])
    skipped = [line for line in proc.stdout.splitlines() if "skipped" in line]
    assert skipped == (["isolated_blocks: skipped, fractures.field 'isolated_blocks' "
                        "draws no fracture at seed 1 on 4x4@4"]
                       if script == "convergence_study.py" else [])
    for name in SCRIPT_CSVS[script]:
        assert len((tmp_path / name).read_text().splitlines()) >= 2, name
