"""The offline stage's groups: equivalence with the per-neighborhood
loop, the BLAS thread cap of every command, error propagation, and one
factor per distinct local problem."""

import pathlib
import threading

import numpy as np
import pytest

import msfrac as mf
from msfrac import adaptivity, coarse, driver, offline
from msfrac.assembly import FineSolveError, node_operator
from msfrac.config import load_config, parse_config
from msfrac.grids import CellBox
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
def test_grouped_offline_matches_per_neighborhood_loop(name, tmp_path):
    rs = run_setup(name, tmp_path)
    off = rs.cfg.offline
    with driver._one_blas_thread():
        pou, spaces = offline.offline_spaces(rs.grid, rs.sys, rs.cfg.offline, None)
        for nb, space in zip(rs.grid.neighborhoods, spaces, strict=True):
            if off.mode == "randomized":
                ref = randomized_snapshots(rs.grid, rs.sys, nb.index, k_nb=off.k_nb,
                                           p_bf=off.p_bf, seed=off.seed)
            else:
                ref = full_snapshots(rs.grid, rs.sys, nb.index)
            ref_space = offline_eigendecomposition(ref, pou)
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

    monkeypatch.setattr(offline, "offline_eigendecomposition", spy)
    try:
        for _, set_ in controls:       # a count other than the cap's
            set_(2)
        driver.run_solve(rs.cfg)
        assert blas_threads() == [2] * len(controls)
    finally:
        for (_, set_), n in zip(controls, before):
            set_(n)
    assert inside and all(counts == [1] * len(controls) for counts in inside)


def test_offline_runs_in_the_calling_thread_without_a_blas_cap(tmp_path, monkeypatch):
    rs = run_setup("full_dfm", tmp_path)
    with driver._one_blas_thread():
        _, capped = offline.offline_spaces(rs.grid, rs.sys, rs.cfg.offline, None)
    threads = []

    def spy(*args, **kwargs):
        threads.append(threading.get_ident())
        return offline_eigendecomposition(*args, **kwargs)

    controls = driver._openblas_thread_controls()
    assert controls, "no OpenBLAS found in the process"
    before = blas_threads()
    monkeypatch.setattr(driver, "_openblas_thread_controls", lambda: [])
    monkeypatch.setattr(offline, "offline_eigendecomposition", spy)
    try:
        for _, set_ in controls:       # the uncapped run on two threads
            set_(2)
        with driver._one_blas_thread() as cap:
            assert not cap
            assert [get() for get, _ in controls] == [2] * len(controls)
            _, spaces = offline.offline_spaces(rs.grid, rs.sys, rs.cfg.offline, None)
    finally:
        for (_, set_), n in zip(controls, before):
            set_(n)
    assert threads and set(threads) == {threading.get_ident()}
    assert len(spaces) == len(rs.grid.neighborhoods)
    for sp, ref in zip(spaces, capped, strict=True):
        assert sp.basis_full.tobytes() == ref.basis_full.tobytes()


def test_randomized_offline_runs_in_the_calling_thread(tmp_path, monkeypatch):
    rs = run_setup("randomized", tmp_path)
    assert driver._openblas_thread_controls(), "no OpenBLAS found in the process"
    with driver._one_blas_thread():
        _, serial = offline.offline_spaces(rs.grid, rs.sys, rs.cfg.offline)
    threads = []

    def spy(*args, **kwargs):
        threads.append(threading.get_ident())
        return offline_eigendecomposition(*args, **kwargs)

    monkeypatch.setattr(offline, "offline_eigendecomposition", spy)
    with driver._one_blas_thread():
        _, spaces = offline.offline_spaces(rs.grid, rs.sys, rs.cfg.offline, None)
    assert threads and set(threads) == {threading.get_ident()}
    for sp, ref in zip(spaces, serial, strict=True):
        assert sp.basis_full.tobytes() == ref.basis_full.tobytes()


COMMANDS = {
    "sweep_dfm": ("run_sweep", {**CONFIGS["full_dfm"], "sweep": [1, 2]}),
    "sweep_efm": ("run_sweep", {**CONFIGS["efm"], "sweep": [1, 2]}),
    "solve": ("run_solve", CONFIGS["full_dfm"]),
    "adapt": ("run_adapt", {**CONFIGS["full_dfm"],
                            "adapt": {"theta": 0.7, "max_iters": 2}}),
    "adapt_efm": ("run_adapt", {**CONFIGS["efm"],
                                "adapt": {"theta": 0.7, "max_iters": 2}}),
}
# the stages of a command, by the modules that call them
STAGES = {"compute_pou": (offline,), "solve_fine": (driver,),
          "coarse_system": (driver, coarse), "errors": (driver, adaptivity),
          "solve_coarse": (driver, adaptivity)}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_stage_runs_on_one_blas_thread(command, tmp_path, monkeypatch):
    run, data = COMMANDS[command]
    cfg = parse_config({**data, "outputs": {"dir": str(tmp_path / "out")}})
    controls = driver._openblas_thread_controls()
    assert controls, "no OpenBLAS found in the process"
    before = blas_threads()
    inside = {}

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            inside.setdefault(name, []).append(blas_threads())
            return fn(*args, **kwargs)
        return wrapped

    for name, modules in STAGES.items():
        for mod in modules:
            monkeypatch.setattr(mod, name, spy(name, getattr(mod, name)))
    try:
        for _, set_ in controls:       # a count other than the cap's
            set_(2)
        getattr(driver, run)(cfg)
        assert blas_threads() == [2] * len(controls)

        def failing(sys_):
            inside.setdefault("failing solve_fine", []).append(blas_threads())
            raise FineSolveError("singular")

        monkeypatch.setattr(driver, "solve_fine", failing)
        with pytest.raises(FineSolveError):
            getattr(driver, run)(cfg)
        assert blas_threads() == [2] * len(controls)
    finally:
        for (_, set_), n in zip(controls, before):
            set_(n)
    assert set(inside) == set(STAGES) | {"failing solve_fine"}
    for name, counts in inside.items():
        assert all(c == [1] * len(controls) for c in counts), name


def test_neighborhood_error_propagates(tmp_path, monkeypatch):
    rs = run_setup("full_dfm", tmp_path)
    before = blas_threads()
    err = RuntimeError("neighborhood 7 failed")

    def failing(g, sys_, omega_id, *cells):
        if omega_id == 7:
            raise err
        return full_snapshots(g, sys_, omega_id, *cells)

    monkeypatch.setattr(offline, "full_snapshots", failing)
    with pytest.raises(RuntimeError) as exc:
        driver.run_sweep(rs.cfg)
    assert exc.value is err
    assert blas_threads() == before


def box_shape(box):
    return box.i1 - box.i0, box.j1 - box.j0


def spy_solves(monkeypatch):
    """Neighborhoods whose spectra are solved, and the boxes whose
    harmonic extensions are factored."""
    calls = {"spectra": [], "extensions": []}
    eig, ext = offline.offline_eigendecomposition, offline.harmonic_extension

    def spectra(snap, *args, **kwargs):
        calls["spectra"].append(snap.omega_id)
        return eig(snap, *args, **kwargs)

    def extension(g, sys_, box, gb):
        calls["extensions"].append(box)
        return ext(g, sys_, box, gb)

    monkeypatch.setattr(offline, "offline_eigendecomposition", spectra)
    monkeypatch.setattr(offline, "harmonic_extension", extension)
    return calls


def cell_boxes(g):
    r = g.refine
    return [CellBox(I * r, J * r, (I + 1) * r, (J + 1) * r)
            for J in range(g.coarse_ny) for I in range(g.coarse_nx)]


def test_identical_local_problems_are_solved_once(tmp_path, monkeypatch):
    # unit matrix permeability and no conforming edge: every coarse cell
    # is the same problem, and so is every neighborhood of one box shape
    rs = run_setup("efm", tmp_path)
    calls = spy_solves(monkeypatch)
    offline.compute_pou(rs.grid, rs.sys)
    assert len(calls["extensions"]) == 1
    _, spaces = offline.offline_spaces(rs.grid, rs.sys, rs.cfg.offline, None)
    shapes = {box_shape(nb.cells) for nb in rs.grid.neighborhoods}
    assert len(shapes) == 4
    assert len(calls["spectra"]) == len(shapes)
    assert {box_shape(rs.grid.neighborhoods[i].cells)
            for i in calls["spectra"]} == shapes
    assert len({id(sp.basis_full) for sp in spaces}) == len(shapes)
    for nb, sp in zip(rs.grid.neighborhoods, spaces, strict=True):
        assert len(sp.basis_full) == len(nb.node_ids)


def test_offline_builds_one_stiffness_and_one_mass_per_distinct_cell(tmp_path, monkeypatch):
    # each distinct coarse cell builds one stiffness, for its extension
    # and Schur block, and one mass, for its condensed mass; the POU and
    # every full-snapshot neighborhood read those, and no neighborhood
    # assembles a box operator of its own
    rs = run_setup("full_dfm", tmp_path)
    g = rs.grid
    built = []

    def spy(g_, cell_weights, edge_weights=None, kind="stiffness", box=None, **options):
        built.append((kind, box))
        return node_operator(g_, cell_weights, edge_weights, kind, box, **options)

    monkeypatch.setattr(offline, "node_operator", spy)
    offline.offline_spaces(g, rs.sys, rs.cfg.offline)
    boxes = cell_boxes(g)
    leaders = [boxes[group[0]] for group in
               offline._groups(offline._problem_key(g, b, rs.sys) for b in boxes)]
    assert 1 < len(leaders) < len(boxes)
    for kind in ("stiffness", "mass"):
        assert [box for k, box in built if k == kind] == leaders
    assert len(built) == 2 * len(leaders)


def offset(nb):
    """The place of a neighborhood's cells inside its oversampled box."""
    return nb.cells.i0 - nb.cells_plus.i0, nb.cells.j0 - nb.cells_plus.j0


def test_randomized_neighborhoods_share_one_factor_per_box(tmp_path, monkeypatch):
    # homogeneous data on 6 x 6 coarse cells: a randomized key is the two
    # box shapes and the offset of cells in cells_plus, and interior
    # neighborhoods share it.  A group extends one oversampled box, draws
    # once for its leader, its lowest omega_id, and solves one pencil
    rs = driver.setup(parse_config({
        "grid": {"coarse": [6, 6], "refine": 4, "t": 1},
        "offline": {"mode": "randomized", "k_nb": 3, "p_bf": 2, "seed": 3},
        "outputs": {"dir": str(tmp_path / "out")}}))
    g, off, nx = rs.grid, rs.cfg.offline, rs.grid.coarse_nx
    calls = spy_solves(monkeypatch)
    pou, spaces = offline.offline_spaces(rs.grid, rs.sys, rs.cfg.offline, None)
    pou_keys = {offline._problem_key(g, box, rs.sys) for box in cell_boxes(g)}
    groups = offline._groups((box_shape(nb.cells), box_shape(nb.cells_plus), offset(nb))
                             for nb in g.neighborhoods)
    assert len(pou_keys) == 1
    assert len(groups) == 25 and max(len(group) for group in groups) == 9
    assert len(calls["extensions"]) == len(pou_keys) + len(groups)
    assert sorted(calls["spectra"]) == sorted(group[0] for group in groups)
    for group in groups:
        assert len({id(spaces[i].basis_full) for i in group}) == 1
        assert len({id(spaces[i].eigvals) for i in group}) == 1
    assert len({id(sp.basis_full) for sp in spaces}) == len(groups)
    # corner node (0, 0) and node (nx, 0) have boxes of equal shapes, but
    # cells sits at another place in cells_plus
    corner, edge = g.neighborhoods[0], g.neighborhoods[nx]
    assert box_shape(corner.cells) == box_shape(edge.cells)
    assert box_shape(corner.cells_plus) == box_shape(edge.cells_plus)
    assert offset(corner) != offset(edge)
    assert spaces[0].basis_full is not spaces[nx].basis_full
    monkeypatch.undo()
    with driver._one_blas_thread():
        for group in groups:
            leader = group[0]
            ref = offline_eigendecomposition(randomized_snapshots(
                g, rs.sys, leader, k_nb=off.k_nb, p_bf=off.p_bf, seed=off.seed), pou)
            assert spaces[leader].eigvals.tobytes() == ref.eigvals.tobytes()
            assert spaces[leader].basis_full.tobytes() == ref.basis_full.tobytes()
            for i in group:
                nb = g.neighborhoods[i]
                assert len(spaces[i].basis_full) == len(nb.node_ids)
                # the leader's draw on the member's own oversampled box
                # gives the space the member shares
                with monkeypatch.context() as draw:
                    rng = np.random.default_rng
                    draw.setattr(np.random, "default_rng",
                                 lambda _: rng([off.seed, leader]))
                    own = offline_eigendecomposition(randomized_snapshots(
                        g, rs.sys, i, k_nb=off.k_nb, p_bf=off.p_bf,
                        seed=off.seed), pou)
                assert own.eigvals.tobytes() == ref.eigvals.tobytes()
                assert own.basis_full.tobytes() == ref.basis_full.tobytes()


def test_shared_arrays_are_read_only(tmp_path):
    rs = run_setup("efm", tmp_path)
    _, spaces = offline.offline_spaces(rs.grid, rs.sys, rs.cfg.offline, None)
    for sp in spaces:
        for arr in (sp.eigvals, sp.basis_full):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0


# fine cell (5, 5) of the 16 x 12 fine grid, inside coarse cell (1, 1)
ULP_CELL = 5 * 16 + 5


@pytest.mark.parametrize("mode", ["full", "randomized"])
def test_one_ulp_apart_is_never_shared(mode, tmp_path, monkeypatch):
    kappa = np.ones((12, 16))
    kappa.flat[ULP_CELL] = np.nextafter(1.0, 2.0)
    raster = tmp_path / "kappa.txt"
    with open(raster, "w") as fh:
        fh.write("16 12\n")
        np.savetxt(fh, kappa, fmt="%.17g")
    rs = driver.setup(parse_config({
        "grid": GRID, "matrix": {"raster": str(raster)},
        "offline": {"mode": mode, "k_nb": 3, "p_bf": 2},
        "outputs": {"dir": str(tmp_path / "out")}}))
    g, off = rs.grid, rs.cfg.offline
    assert rs.sys.perm.kappa_cells[ULP_CELL] == np.nextafter(1.0, 2.0)
    holds = [nb.index for nb in g.neighborhoods
             if ULP_CELL in g.box_cells(nb.cells)]
    assert len(holds) == 4

    calls = spy_solves(monkeypatch)
    pou = offline.compute_pou(g, rs.sys)
    r = g.refine          # coarse cell (1, 1) holds the moved cell
    own = CellBox(r, r, 2 * r, 2 * r)
    assert len(calls["extensions"]) == 2 and own in calls["extensions"]
    # every cell's chi equals its own extension, solved without sharing
    monkeypatch.setattr(offline, "_problem_key", lambda *args, **kw: object())
    ref = offline.compute_pou(g, rs.sys)
    monkeypatch.undo()
    assert pou.kappa_tilde.tobytes() == ref.kappa_tilde.tobytes()
    assert pou.edge_kappa_tilde.tobytes() == ref.edge_kappa_tilde.tobytes()
    for chi, chi_ref in zip(pou.chi, ref.chi, strict=True):
        assert chi.tobytes() == chi_ref.tobytes()

    calls = spy_solves(monkeypatch)
    pou, spaces = offline.offline_spaces(rs.grid, rs.sys, rs.cfg.offline, None)
    if mode == "full":
        shapes = {box_shape(nb.cells) for nb in g.neighborhoods}
        assert set(holds) <= set(calls["spectra"])
        assert len(calls["spectra"]) == len(shapes) + len(holds)
    else:
        # a key is the box shapes, the offset and the place of the moved
        # cell in each box (None when the box does not hold it): the POU
        # moves on all of coarse cell (1, 1), which a neighborhood's cells
        # hold when they hold the moved cell
        i, j = ULP_CELL % 16, ULP_CELL // 16

        def place(b):
            return box_shape(b), ((i - b.i0, j - b.j0)
                                  if ULP_CELL in g.box_cells(b) else None)
        keys = [(place(nb.cells), offset(nb), place(nb.cells_plus))
                for nb in g.neighborhoods]
        assert any(plus is not None for _, _, (_, plus) in keys)
        groups = offline._groups(keys)
        assert set(holds) <= set(calls["spectra"])
        assert sorted(calls["spectra"]) == sorted(group[0] for group in groups)
        # one extension per group, after the POU's 2
        assert len(calls["extensions"]) == 2 + len(groups)
        leaders = {i: group[0] for group in groups for i in group}
    with driver._one_blas_thread():
        for nb, space in zip(g.neighborhoods, spaces, strict=True):
            if mode == "full":
                snap = full_snapshots(g, rs.sys, nb.index)
            else:
                snap = randomized_snapshots(g, rs.sys, leaders[nb.index],
                                            k_nb=off.k_nb, p_bf=off.p_bf,
                                            seed=off.seed)
            ref = offline_eigendecomposition(snap, pou)
            assert space.eigvals.tobytes() == ref.eigvals.tobytes()
            assert space.basis_full.tobytes() == ref.basis_full.tobytes()


RIM_FRACTURE = {"grid": {"coarse": [6, 6], "refine": 4, "t": 0},
                "fractures": {"list": [{"polyline": [[0.0, 0.5], [1.0, 0.5]],
                                        "aperture": 1e-3, "kappa_f": 1e4,
                                        "model": "dfm"}]}}


def test_pou_key_leaves_out_edges_along_the_cell_rim(tmp_path, monkeypatch):
    # a conforming fracture along the coarse line y = 1/2 lies on the
    # rims of the cells it touches, whose extensions read only interior
    # rows of A: every cell is one POU problem.  The neighborhoods' box
    # operators read those edges, so a neighborhood that touches the line
    # never shares its spectral solve with one that does not.
    rs = driver.setup(parse_config({**RIM_FRACTURE,
                                    "outputs": {"dir": str(tmp_path / "out")}}))
    g = rs.grid
    assert np.count_nonzero(rs.sys.edge_arrays) == g.fine_nx
    calls = spy_solves(monkeypatch)
    pou = offline.compute_pou(g, rs.sys)
    assert len(calls["extensions"]) == 1
    monkeypatch.setattr(offline, "_problem_key", lambda *args, **kw: object())
    ref = offline.compute_pou(g, rs.sys)
    monkeypatch.undo()
    assert pou.kappa_tilde.tobytes() == ref.kappa_tilde.tobytes()
    assert pou.edge_kappa_tilde.tobytes() == ref.edge_kappa_tilde.tobytes()
    for chi, chi_ref in zip(pou.chi, ref.chi, strict=True):
        assert chi.tobytes() == chi_ref.tobytes()

    _, spaces = offline.offline_spaces(rs.grid, rs.sys, rs.cfg.offline, None)
    touch = [nb.cells.j0 <= 3 * g.refine <= nb.cells.j1 for nb in g.neighborhoods]
    shared = [{id(sp.basis_full) for sp, t in zip(spaces, touch) if t == side}
              for side in (True, False)]
    assert not shared[0] & shared[1]


def csr_bytes(A):
    return A.indptr.tobytes(), A.indices.tobytes(), A.data.tobytes()


def interior_rows(sys, box, drop_zeros=False):
    """The rows of a box stiffness at the box's interior nodes, the rows
    a harmonic extension factors, as (indptr, indices, data) bytes."""
    g = sys.grid
    A = node_operator(g, sys.perm.kappa_cells, sys.edge_arrays, box=box)
    A = A[~g.box_rim(box)]
    if drop_zeros:
        A.eliminate_zeros()
    return csr_bytes(A)


def pou_bytes(pou):
    return (pou.kappa_tilde.tobytes(), pou.edge_kappa_tilde.tobytes(),
            *(chi.tobytes() for chi in pou.chi))


def assert_groups_read_equal_operators(rs, monkeypatch):
    """Every member of every group a run can form reads its leader's
    operator bytes: the interior rows of a POU cell's or an oversampled
    box's stiffness, and the whole stiffness and mass of a full-snapshot
    neighborhood.  And the grouped POU, whose members share their
    leader's corner fields and gradient energy, is bytewise the POU of
    every coarse cell solved on its own factor."""
    g, sys = rs.grid, rs.sys
    blocks = offline.CellBlocks(g, sys)
    pou = offline.compute_pou(g, sys, blocks)
    with monkeypatch.context() as own_factors:
        own_factors.setattr(offline, "_problem_key", lambda *args, **kw: object())
        assert pou_bytes(offline.compute_pou(g, sys)) == pou_bytes(pou)
    plus = [nb.cells_plus for nb in g.neighborhoods]
    for boxes in (cell_boxes(g), plus):
        for group in offline._groups(offline._problem_key(g, b, sys) for b in boxes):
            lead = interior_rows(sys, boxes[group[0]])
            assert all(interior_rows(sys, boxes[m]) == lead for m in group)
    forms = [("stiffness", (sys.perm.kappa_cells, sys.edge_arrays)),
             ("mass", (pou.kappa_tilde, pou.edge_kappa_tilde))]
    cells = [nb.cells for nb in g.neighborhoods]
    for group in offline._groups(offline._skeleton_key(blocks, b, sys, pou) for b in cells):
        for kind, weights in forms:
            ops = [csr_bytes(node_operator(g, *weights, kind, cells[m]))
                   for m in group]
            assert all(op == ops[0] for op in ops)


CONFIG_DIR = pathlib.Path(__file__).resolve().parents[1] / "configs"
BENCH_CONFIG_DIR = CONFIG_DIR.parent / "bench" / "configs"


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIG_DIR.glob("*.yml")))
def test_equal_keys_read_equal_operators_on_shipped_configs(config, tmp_path, monkeypatch):
    cfg = load_config(CONFIG_DIR / config)
    cfg.outputs.dir = str(tmp_path)
    rs = driver.setup(cfg)
    assert_groups_read_equal_operators(rs, monkeypatch)


def test_equal_keys_read_equal_operators_with_rim_edges(tmp_path, monkeypatch):
    # the rim-fracture grid of test_pou_key_leaves_out_edges_along_the_cell_rim
    rs = driver.setup(parse_config({**RIM_FRACTURE,
                                    "outputs": {"dir": str(tmp_path / "out")}}))
    assert_groups_read_equal_operators(rs, monkeypatch)


def subnormal_rim_system():
    """3 x 3 coarse cells of 4 x 4, each with one fine cell of subnormal
    permeability, and a conforming fracture along the coarse line
    y = 1/3, on the rims of the cells beside it."""
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 3, 3, 4, t=0)
    r = g.refine
    kappa = np.ones(g.n_cells)
    for J in range(3):
        for I in range(3):
            kappa[(J * r + 1) * g.fine_nx + I * r + 1] = 5e-324
    line = mf.Fracture(np.array([[0.0, 1 / 3], [1.0, 1 / 3]]), 1e-3, 1e4, "dfm", 0)
    return g, mf.assemble_dfm(g, mf.PermeabilityField(kappa), [mf.rasterize_dfm(line, g)])


def test_rim_edges_leave_stored_zeros_out_of_the_factored_rows(monkeypatch):
    # a subnormal permeability makes the cell terms of its fine cell zero.
    # node_operator drops zero sums only on a box with edges, so a coarse
    # cell with conforming edges along its rim stores fewer entries than
    # one without, under the same extension key.  The band copy of a
    # harmonic extension writes stored zeros as zeros, so its factor
    # reads only the nonzero values, which the key fixes
    g, sys = subnormal_rim_system()
    boxes = cell_boxes(g)
    assert len(offline._groups(offline._problem_key(g, b, sys) for b in boxes)) == 1
    assert len({interior_rows(sys, b) for b in boxes}) == 2
    assert len({interior_rows(sys, b, drop_zeros=True) for b in boxes}) == 1

    # so the grouped POU is the POU of every cell on its own factor
    pou = offline.compute_pou(g, sys)
    monkeypatch.setattr(offline, "_problem_key", lambda *args, **kw: object())
    ref = offline.compute_pou(g, sys)
    for chi, chi_ref in zip(pou.chi, ref.chi, strict=True):
        assert chi.tobytes() == chi_ref.tobytes()


def whole_box_key(g, box, sys, pou):
    """The oracle of ``offline._skeleton_key``: the box shape and the
    bytes of every cell and edge weight of the stiffness and of the
    kappa_tilde mass on the closed box."""
    key = [box_shape(box)]
    for cell_weights, edge_weights in ((sys.perm.kappa_cells, sys.edge_arrays),
                                       (pou.kappa_tilde, pou.edge_kappa_tilde)):
        h, v = g.box_edge_weights(edge_weights, box)
        key += [cell_weights[g.box_cells(box)].tobytes(), h.tobytes(), v.tobytes()]
    return tuple(key)


def config_setup(name, tmp_path):
    """The run setup of a shipped or bench config, or of RIM_FRACTURE."""
    if name == "RIM_FRACTURE":
        return driver.setup(parse_config({**RIM_FRACTURE,
                                          "outputs": {"dir": str(tmp_path / "out")}}))
    cfg = load_config(CONFIG_DIR.parent / name)
    cfg.outputs.dir = str(tmp_path / "out")
    return driver.setup(cfg)


GROUPED_CONFIGS = sorted(str(p.relative_to(CONFIG_DIR.parent)) for p in
                         [*CONFIG_DIR.glob("*.yml"), *BENCH_CONFIG_DIR.glob("*.yml")])


@pytest.mark.parametrize("name", GROUPED_CONFIGS + ["RIM_FRACTURE"])
def test_skeleton_keys_group_like_whole_box_bytes(name, tmp_path):
    # the coarse cells' groups and the skeleton edges part the
    # neighborhoods as the bytes of all their data do
    rs = config_setup(name, tmp_path)
    g, sys = rs.grid, rs.sys
    blocks = offline.CellBlocks(g, sys)
    pou = offline.compute_pou(g, sys, blocks)
    boxes = [nb.cells for nb in g.neighborhoods]
    groups = offline._groups(offline._skeleton_key(blocks, b, sys, pou) for b in boxes)
    assert groups == offline._groups(whole_box_key(g, b, sys, pou) for b in boxes)
    assert len(groups) < len(boxes)


def assert_cell_groups_fix_kappa_tilde(g, sys):
    """Within each ``CellBlocks`` group, kappa_tilde on the cell's fine
    cells and on the edges inside it, off its rim, are byte-equal: the
    bytes ``_skeleton_key`` leaves to the groups."""
    blocks = offline.CellBlocks(g, sys)
    pou = offline.compute_pou(g, sys, blocks)

    def inside(c):
        box = offline._cell_box(g, c)
        h, v = g.box_edge_weights(pou.edge_kappa_tilde, box)
        return (pou.kappa_tilde[g.box_cells(box)].tobytes(),
                h[1:-1].tobytes(), v[:, 1:-1].tobytes())
    assert any(len(group) > 1 for group in blocks.groups)
    for group in blocks.groups:
        assert all(inside(c) == inside(group[0]) for c in group[1:])


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIG_DIR.glob("*.yml")))
def test_cell_groups_fix_kappa_tilde_on_shipped_configs(config, tmp_path):
    rs = config_setup(f"configs/{config}", tmp_path)
    assert_cell_groups_fix_kappa_tilde(rs.grid, rs.sys)


def test_cell_groups_fix_kappa_tilde_with_subnormal_permeability():
    assert_cell_groups_fix_kappa_tilde(*subnormal_rim_system())


def test_skeleton_key_reads_kappa_tilde_from_beyond_the_box():
    # kappa_tilde on a conforming edge averages the gradient energy of the
    # cells on both sides.  Neighborhoods (2, 2) and (4, 2) lie below the
    # fracture along y = 1/2, their top rim, with equal cells and edges;
    # only (2, 2) has a cell of other energy above, so their masses differ
    g = mf.build_hierarchy(mf.UNIT_SQUARE, 6, 6, 4, t=0)
    r = g.refine
    kappa = np.ones(g.n_cells)
    kappa[(3 * r + 1) * g.fine_nx + r + 1] = 2.0       # in coarse cell (1, 3)
    line = mf.Fracture(np.array([[0.0, 0.5], [1.0, 0.5]]), 1e-3, 1e4, "dfm", 0)
    sys = mf.assemble_dfm(g, mf.PermeabilityField(kappa), [mf.rasterize_dfm(line, g)])
    blocks = offline.CellBlocks(g, sys)
    pou = offline.compute_pou(g, sys, blocks)
    at = {(nb.ci, nb.cj): nb.cells for nb in g.neighborhoods}
    near, far = (offline._skeleton_key(blocks, at[i, 2], sys, pou) for i in (2, 4))
    assert near[:4] == far[:4] and near != far
    boxes = [nb.cells for nb in g.neighborhoods]
    assert offline._groups(offline._skeleton_key(blocks, b, sys, pou) for b in boxes) \
        == offline._groups(whole_box_key(g, b, sys, pou) for b in boxes)
