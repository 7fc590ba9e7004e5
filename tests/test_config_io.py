"""Config parsing/round-tripping and the on-disk output formats."""

import ast
import pathlib
import re
import types

import numpy as np
import pytest
import scipy.io
import scipy.sparse
import yaml

import msfrac as mf
from msfrac import io_formats
from msfrac.analysis import ErrorReport
from msfrac.config import (ConfigError, config_to_dict, load_config,
                           parse_config)

from conftest import neighborhood_spaces

FULL_CONFIG = {
    "grid": {"domain": [0.0, 0.0, 2.0, 1.0], "coarse": [6, 4],
             "refine": 3, "t": 1},
    "matrix": {"kappa": 2.5, "raster": "kappa.txt"},
    "fractures": {"field": "crossing_channels", "seed": 7, "kappa_f": 500.0,
                  "aperture": 0.002, "params": {"n": 4}},
    "bc": {"bilinear": [0.5, 1.0, -0.25, 0.0]},
    "source": {"constant": 1.5},
    "offline": {"mode": "randomized", "M_off": 3, "k_nb": 5, "p_bf": 2,
                "seed": 11, "enrich_boundary": True},
    "adapt": {"theta": 0.6, "max_iters": 2, "basis_increment": 2,
              "indicator": "manual", "manual_box": [1, 3, 1, 2]},
    "outputs": {"dir": "run1", "csv": "e.csv", "vtk": "u.vtk"},
    "sweep": [1, 3, 5],
}
# a field and a list are alternatives: the same config with a list instead
LISTED_CONFIG = {**FULL_CONFIG, "fractures": {"list": [
    {"polyline": [[0.1, 0.2], [0.5, 0.6], [0.9, 0.3]], "aperture": 0.001,
     "kappa_f": 1000.0, "model": "efm"}]}}
ROOT = pathlib.Path(__file__).resolve().parents[1]
SHIPPED = sorted((ROOT / "configs").glob("*.yml"))


def test_config_roundtrip_through_dict():
    assert SHIPPED
    for data in [FULL_CONFIG, LISTED_CONFIG] + [yaml.safe_load(p.read_text())
                                                for p in SHIPPED]:
        cfg = parse_config(data)
        echo = config_to_dict(cfg)
        cfg2 = parse_config(echo)
        assert config_to_dict(cfg2) == echo
        assert cfg2 == cfg


def test_config_defaults():
    cfg = parse_config({})
    assert (cfg.grid.coarse_nx, cfg.grid.coarse_ny, cfg.grid.refine) == (10, 10, 10)
    assert cfg.matrix.kappa == 1.0
    assert cfg.offline.mode == "full"
    assert cfg.sweep == [1, 2, 3, 4, 5]
    assert parse_config(None) == cfg


@pytest.mark.parametrize("data,frag", [
    ({"gird": {}}, "gird"),
    ({"grid": {"coarse": [4, 4], "refinement": 3}}, "refinement"),
    ({"matrix": {"kappa": 1.0, "perm": 2}}, "perm"),
    ({"fractures": {"feild": "x"}}, "feild"),
    ({"offline": {"mode": "full", "oversampling": 2}}, "oversampling"),
    ({"outputs": {"folder": "x"}}, "folder"),
    ({"outputs": {"matrices": True}}, "matrices"),
])
def test_unknown_keys_rejected(data, frag):
    with pytest.raises(ConfigError, match=frag):
        parse_config(data)


@pytest.mark.parametrize("data,frag", [
    ({"grid": {"domain": [0, 0, 1]}}, "domain"),
    ({"grid": {"refine": 0}}, "positive"),
    ({"matrix": {"kappa": -2.0}}, "positive"),
    ({"fractures": {"field": "percolating_maze"}}, "percolating_maze"),
    ({"fractures": {"list": [{"polyline": [[0.1, 0.1]],
                              "aperture": 1e-3, "kappa_f": 1e3}]}},
     r"list\[0\]"),
    ({"fractures": {"list": [{"polyline": [[0, 0], [1, 1]],
                              "aperture": 1e-3, "kappa_f": 1e3,
                              "model": "xfem"}]}}, "xfem"),
    ({"bc": {"bilinear": [0, 1, 1, 0], "constant": 2.0}}, "not both"),
    ({"bc": {"bilinear": [1, 2]}}, "bilinear"),
    ({"offline": {"mode": "greedy"}}, "greedy"),
    ({"sweep": []}, "sweep"),
    ({"sweep": [2, 0]}, "sweep"),
    ({"fractures": {"field": "crossing_channels", "params": {"nn": 4}}}, "nn"),
    ({"grid": {"coarse": [3]}}, r"grid\.coarse"),
    ({"offline": {"enrich_boundary": "false"}}, r"offline\.enrich_boundary"),
    ({"sweep": [1, "x"]}, "sweep"),
    ({"fractures": {"params": {"nn": 4}, "kappa_f": 5.0}}, "field"),
    ({"adapt": {"max_iters": -1}}, "max_iters"),
    ({"adapt": {"tol": -0.5}}, "tol"),
    ({"fractures": {"field": "crossing_channels", "kappa_f": np.nan}},
     r"^fractures\.kappa_f: must be finite"),
    ({"fractures": {"field": "crossing_channels", "kappa_f": np.inf}},
     r"^fractures\.kappa_f: must be finite"),
    ({"matrix": {"kappa": np.nan}}, r"^matrix\.kappa: must be finite"),
    ({"matrix": {"kappa": "nan"}}, r"^matrix\.kappa: must be finite"),
    ({"fractures": {"list": [{"polyline": [[0, 0], [1, 1]],
                              "aperture": 1e-3, "kappa_f": np.nan}]}},
     r"^fractures\.list\[0\]\.kappa_f: must be finite"),
    ({"grid": {"domain": [0, 0, np.nan, 1]}}, r"^grid\.domain: must be finite"),
    ({"bc": {"bilinear": [np.nan, 1, 1, 0]}}, r"^bc\.bilinear: must be finite"),
    ({"source": {"constant": -np.inf}}, r"^source\.constant: must be finite"),
    ({"fractures": {"field": "crossing_channels", "seed": -1}},
     r"^fractures\.seed: must be non-negative"),
    ({"offline": {"mode": "randomized", "seed": -1}}, r"^offline\.seed: must be non-negative"),
    ({"offline": {"mode": "randomized", "p_bf": -1}}, r"^offline\.p_bf: must be non-negative"),
    ({"grid": {"t": -1}}, r"^grid\.t: must be non-negative"),
    ({"adapt": {"basis_increment": 0}}, r"^adapt\.basis_increment: must be positive"),
    ({"adapt": {"basis_increment": -2}}, r"^adapt\.basis_increment: must be positive"),
])
def test_invalid_values_rejected(data, frag):
    with pytest.raises(ConfigError, match=frag):
        parse_config(data)


def test_a_field_and_a_list_together_are_rejected():
    # a run reads either the field or the list, so both would leave one unread
    both = {**FULL_CONFIG["fractures"], **LISTED_CONFIG["fractures"]}
    with pytest.raises(ConfigError, match=r"^fractures: give either 'field' or "
                                          r"'list', not both$"):
        parse_config({"fractures": both})
    with pytest.raises(ConfigError, match="not both"):
        mf.config.FracturesConfig(field="crossing_channels", fractures=[
            mf.config.FractureSpec([[0.1, 0.3], [0.6, 0.35]], 1e-3, 1e3)])


def test_constructors_reject_non_finite_values(tmp_path):
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 2, 2, 2, t=0)
    for bad in (np.nan, np.inf):
        for kw in ({"aperture": bad, "kappa_f": 1e3},
                   {"aperture": 1e-3, "kappa_f": bad}):
            with pytest.raises(mf.GeometryError, match="must be positive and finite"):
                mf.Fracture([[0.1, 0.1], [0.9, 0.9]], model="dfm", **kw)
        kappa = np.ones(g.n_cells)
        kappa[3] = bad
        with pytest.raises(ValueError, match="must be positive and finite"):
            mf.PermeabilityField(kappa)
        raster = tmp_path / "kappa.txt"
        np.savetxt(raster, kappa.reshape(g.fine_ny, g.fine_nx),
                   header=f"{g.fine_nx} {g.fine_ny}", comments="")
        with pytest.raises(ValueError, match="positive and finite"):
            io_formats.read_kappa_raster(str(raster), g)
        with pytest.raises(ValueError, match="degenerate domain"):
            mf.build_hierarchy(mf.Rect(0.0, 0.0, bad, 1.0), 2, 2, 2)


def _allowed(data):
    """The keys the parser lists as allowed where data has an unknown one."""
    with pytest.raises(ConfigError, match="allowed: ") as exc:
        parse_config(data)
    return ast.literal_eval(str(exc.value).rsplit("allowed: ", 1)[1])


def test_readme_config_block_names_every_key():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Configuration\n.*?```yaml\n(.*?)```", readme, re.S).group(1)
    doc = yaml.safe_load(block)
    parse_config(doc)
    # top-level sections; alternatives may be named in comments
    sections = {s.split(":", 1)[0]: s for s in re.split(r"^(?=\w)", block, flags=re.M)
                if s.strip()}
    assert set(sections) == set(_allowed({"?": 0}))
    for name, text in sections.items():
        if not isinstance(doc[name], dict):
            continue
        keys = _allowed({name: {"?": 0}})
        if name == "fractures":
            keys += _allowed({name: {"list": [{"?": 0}]}})
        for key in keys:
            assert re.search(rf"^[\s#-]*{key}:", text, re.M), f"{name}.{key}"


def test_load_config_reports_yaml_errors(tmp_path):
    p = tmp_path / "bad.yml"
    p.write_text("grid: [unclosed\n")
    with pytest.raises(ConfigError, match="bad.yml"):
        load_config(str(p))
    p2 = tmp_path / "ok.yml"
    p2.write_text(yaml.safe_dump(FULL_CONFIG))
    assert load_config(str(p2)) == parse_config(FULL_CONFIG)


def test_error_csv_exact_header_and_blank_optionals(tmp_path):
    path = tmp_path / "errors.csv"
    reports = [ErrorReport(dim_Voff=121, rel_L2_vs_fine=0.012,
                           rel_energy_vs_fine=0.0733,
                           rel_L2_vs_snap=0.001, rel_energy_vs_snap=0.02),
               ErrorReport(dim_Voff=202, rel_L2_vs_fine=0.004,
                           rel_energy_vs_fine=0.0401)]
    io_formats.write_error_csv(str(path), reports)
    lines = path.read_text().splitlines()
    assert lines[0] == "dim,l2_fine_pct,h1_fine_pct,l2_snap_pct,h1_snap_pct"
    assert lines[1] == "121,1.2,7.33,0.1,2"
    assert lines[2] == "202,0.4,4.01,,"
    assert len(lines) == 3


def test_vtk_structured_points_layout(tmp_path):
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 2, 2, 2, t=0)
    u = np.arange(g.n_nodes, dtype=float)
    path = tmp_path / "u.vtk"
    io_formats.write_vtk(str(path), g, u)
    lines = path.read_text().splitlines()
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET STRUCTURED_POINTS"
    assert lines[4] == "DIMENSIONS 5 5 1"
    assert lines[5] == "ORIGIN 0 0 0"
    assert lines[6] == "SPACING 0.25 0.25 1"
    assert lines[7] == "POINT_DATA 25"
    assert lines[8] == "SCALARS pressure double"
    assert lines[9] == "LOOKUP_TABLE default"
    vals = np.array([float(v) for v in lines[10:]])
    np.testing.assert_array_equal(vals, u)
    with pytest.raises(ValueError, match="fine grid"):
        io_formats.write_vtk(str(path), g, u[:-1])


def test_kappa_raster_roundtrip(tmp_path):
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 2, 2, 3, t=0)
    rng = np.random.default_rng(0)
    kap = rng.uniform(0.1, 9.0, g.fine_nx * g.fine_ny)
    path = tmp_path / "kappa.txt"
    header = f"{g.fine_nx} {g.fine_ny}"
    np.savetxt(path, kap.reshape(g.fine_ny, g.fine_nx), fmt="%.17g",
               header=header, comments="")
    back = io_formats.read_kappa_raster(str(path), g)
    np.testing.assert_allclose(back, kap, rtol=1e-9)

    g_big = mf.build_hierarchy(mf.UNIT_SQUARE, 2, 2, 4, t=0)
    with pytest.raises(ValueError, match="raster is"):
        io_formats.read_kappa_raster(str(path), g_big)
    bad = tmp_path / "neg.txt"
    np.savetxt(bad, np.full((g.fine_ny, g.fine_nx), -1.0), header=header,
               comments="")
    with pytest.raises(ValueError, match="positive"):
        io_formats.read_kappa_raster(str(bad), g)
    with pytest.raises(FileNotFoundError):
        io_formats.read_kappa_raster(str(tmp_path / "nope.txt"), g)


def test_matrix_market_roundtrip(tmp_path):
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 2, 2, 2, t=0)
    perm = mf.PermeabilityField.constant(g, 3.0)
    sys = mf.assemble_dfm(g, perm, [])
    path = tmp_path / "A.mtx"
    io_formats.write_matrix_market(str(path), sys.K)
    back = scipy.io.mmread(str(path)).tocsr()
    assert np.abs(back - sys.K).max() < 1e-12


def test_matrix_market_bytes_do_not_depend_on_the_input_format(tmp_path):
    # one matrix given as CSR, CSC and COO (its triplets shuffled) is one
    # file, its entries in row order
    rng = np.random.default_rng(3)
    A = scipy.sparse.random(7, 5, density=0.4, format="csr", rng=rng)
    coo = A.tocoo()
    order = rng.permutation(coo.nnz)
    shuffled = scipy.sparse.coo_matrix(
        (coo.data[order], (coo.row[order], coo.col[order])), shape=A.shape)
    texts = []
    for name, M in (("csr", A), ("csc", A.tocsc()), ("coo", shuffled)):
        path = tmp_path / f"{name}.mtx"
        io_formats.write_matrix_market(str(path), M)
        texts.append(path.read_bytes())
    assert texts[0] == texts[1] == texts[2]
    body = [line.split() for line in texts[0].decode().splitlines()
            if not line.startswith("%")][1:]
    entries = [(int(i), int(j)) for i, j, _ in body]
    assert len(entries) == A.nnz and entries == sorted(entries)


def test_eigenvalue_csv_rows(tmp_path):
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 2, 2, 2, t=0)
    perm = mf.PermeabilityField.constant(g, 1.0)
    sys = mf.assemble_dfm(g, perm, [])
    spaces = neighborhood_spaces(sys, mf.compute_pou(g, sys))
    path = tmp_path / "eig.csv"
    io_formats.write_eigenvalue_csv(str(path), spaces)
    lines = path.read_text().splitlines()
    assert lines[0] == "omega_id,k,lambda"
    assert len(lines) == 1 + sum(sp.l_i for sp in spaces)
    ids = [int(l.split(",")[0]) for l in lines[1:]]
    assert ids == sorted(ids)


def test_manifest_echo_reparses(tmp_path):
    cfg = parse_config(FULL_CONFIG)
    path = tmp_path / "manifest.yml"
    io_formats.write_manifest(str(path), config_to_dict(cfg),
                              extras={"command": "solve", "dim": 121})
    doc = yaml.safe_load(path.read_text())
    assert parse_config(doc["config"]) == cfg
    assert set(doc["versions"]) == {"msfrac", "numpy", "scipy"}
    assert doc["run"]["dim"] == 121
    # no timestamps or other run-to-run noise
    io_formats.write_manifest(str(tmp_path / "m2.yml"), config_to_dict(cfg),
                              extras={"command": "solve", "dim": 121})
    assert (tmp_path / "m2.yml").read_bytes() == path.read_bytes()


def test_writers_match_per_value_formatting(tmp_path):
    # the writers format Python floats in one join; the reference formats
    # each numpy scalar on its own, as the writers once did
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 2, 2, 2, t=0)
    special = [-0.0, 5e-324, 1e-300, 1.0 / 3.0, -2.5e17, 123456789012.345, 0.1]
    u = np.resize(np.array(special), g.n_nodes) * np.linspace(1.0, 7.0, g.n_nodes)
    u[:len(special)] = special
    header = ("# vtk DataFile Version 3.0\nfine-grid nodal field\nASCII\n"
              "DATASET STRUCTURED_POINTS\nDIMENSIONS 5 5 1\nORIGIN 0 0 0\n"
              "SPACING 0.25 0.25 1\nPOINT_DATA 25\nSCALARS pressure double\n"
              "LOOKUP_TABLE default\n")
    io_formats.write_vtk(str(tmp_path / "u.vtk"), g, u)
    assert (tmp_path / "u.vtk").read_text() == header + "".join(
        f"{v:.12g}\n" for v in u)
    io_formats.write_solution_csv(str(tmp_path / "u.csv"), g, u)
    assert (tmp_path / "u.csv").read_text() == "x,y,u\n" + "".join(
        f"{x:.10g},{y:.10g},{v:.12g}\n" for (x, y), v in zip(g.node_coords, u))
    spaces = [types.SimpleNamespace(eigvals=u[k::5][:3]) for k in (3, 0, 1)]
    io_formats.write_eigenvalue_csv(str(tmp_path / "eig.csv"), spaces)
    assert (tmp_path / "eig.csv").read_text() == "omega_id,k,lambda\n" + "".join(
        f"{i},{k + 1},{lam:.12g}\n"
        for i, sp in enumerate(spaces) for k, lam in enumerate(sp.eigvals))


def test_solution_csv(tmp_path):
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 2, 2, 2, t=0)
    u = np.linspace(0.0, 1.0, g.n_nodes)
    path = tmp_path / "u.csv"
    io_formats.write_solution_csv(str(path), g, u)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,u"
    assert len(lines) == 1 + g.n_nodes
    x, y, v = (float(s) for s in lines[1].split(","))
    assert (x, y, v) == (0.0, 0.0, 0.0)
