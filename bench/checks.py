"""Correctness checks on the files one CLI command wrote.

The checks test properties of the answer and compare with the
benchmark's own computations; they never compare against stored copies
of earlier output.  One operation is one coarse solve (a sweep row or an
adapt iteration) plus one for the fine reference solve; an operation
fails when a check on its row, or a check on the whole command, fails.
"""

from __future__ import annotations

import csv

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

# The written solution has 12 significant digits and the error table 10,
# so a value within these tolerances agrees to printing precision.
BC_ATOL = 1e-9          # |u - g| at boundary nodes, g = O(1)
MONOTONE_RTOL = 1e-9    # allowed rise of the energy error between rows
REFERENCE_RTOL = 1e-6   # benchmark vs reported energy error, relative


def read_vtk(path: str):
    """(nx+1, ny+1, nodal values) of a legacy structured-points file."""
    with open(path) as fh:
        lines = fh.read().split("\n")
    dims = next(ln for ln in lines if ln.startswith("DIMENSIONS")).split()
    start = next(k for k, ln in enumerate(lines)
                 if ln.startswith("LOOKUP_TABLE")) + 1
    values = np.array([float(v) for v in lines[start:] if v], dtype=float)
    return int(dims[1]), int(dims[2]), values


def read_table(path: str) -> list[dict]:
    with open(path) as fh:
        return list(csv.DictReader(fh))


def bilinear(coeffs):
    a, b, c, d = (float(v) for v in coeffs)
    return lambda x, y: a + b * x + c * y + d * x * y


def fine_grid(cfg: dict):
    g = cfg["grid"]
    return g["coarse"][0] * g["refine"], g["coarse"][1] * g["refine"]


def node_xy(nx: int, ny: int):
    """Coordinates of the fine nodes of the unit square, x fastest."""
    j, i = np.divmod(np.arange((nx + 1) * (ny + 1)), nx + 1)
    return i / nx, j / ny


def boundary_mask(nx: int, ny: int):
    j, i = np.divmod(np.arange((nx + 1) * (ny + 1)), nx + 1)
    return (i == 0) | (i == nx) | (j == 0) | (j == ny)


def lattice_edges(polyline, nx: int, ny: int):
    """Fine edges (node pairs) of a conforming fracture: each vertex goes
    to its nearest node, consecutive nodes are joined by the staircase
    that spreads the x and y steps evenly, ties going to x."""
    pts = [(round(x * nx), round(y * ny)) for x, y in polyline]
    edges = []
    for (i, j), (i1, j1) in zip(pts[:-1], pts[1:]):
        di, dj = abs(i1 - i), abs(j1 - j)
        sx, sy = (1 if i1 >= i else -1), (1 if j1 >= j else -1)
        tx = ty = 0
        while tx < di or ty < dj:
            a = j * (nx + 1) + i
            if ty >= dj or (tx < di and (tx + 1) * dj <= (ty + 1) * di):
                i += sx
                tx += 1
            else:
                j += sy
                ty += 1
            edges.append((a, j * (nx + 1) + i))
    return edges


def reference_operator(cfg: dict) -> sparse.csr_matrix:
    """Fine stiffness of the conforming model, assembled independently:
    the closed-form bilinear element matrix times the cell permeability,
    plus kappa_f * aperture / h * [[1, -1], [-1, 1]] on every fine edge a
    conforming fracture runs along."""
    nx, ny = fine_grid(cfg)
    hx, hy = 1.0 / nx, 1.0 / ny
    kx = np.array([[2, -2, -1, 1], [-2, 2, 1, -1],
                   [-1, 1, 2, -2], [1, -1, -2, 2]]) * (hy / (6 * hx))
    ky = np.array([[2, 1, -1, -2], [1, 2, -2, -1],
                   [-1, -2, 2, 1], [-2, -1, 1, 2]]) * (hx / (6 * hy))
    ke = float(cfg.get("matrix", {}).get("kappa", 1.0)) * (kx + ky)
    j, i = np.divmod(np.arange(nx * ny), nx)
    sw = j * (nx + 1) + i
    cell = np.column_stack([sw, sw + 1, sw + nx + 2, sw + nx + 1])
    rows = [np.repeat(cell, 4, axis=1).ravel()]
    cols = [np.tile(cell, (1, 4)).ravel()]
    vals = [np.tile(ke.ravel(), nx * ny)]
    for f in cfg["fractures"]["list"]:
        if f["model"] != "dfm":
            continue
        c = float(f["kappa_f"]) * float(f["aperture"])
        for a, b in lattice_edges(f["polyline"], nx, ny):
            w = c / (hx if abs(a - b) == 1 else hy)
            rows.append(np.array([a, a, b, b]))
            cols.append(np.array([a, b, a, b]))
            vals.append(np.array([w, -w, -w, w]))
    n = (nx + 1) * (ny + 1)
    return sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n)).tocsr()


def reference_solution(cfg: dict, A: sparse.csr_matrix) -> np.ndarray:
    """Fine solution with the bilinear Dirichlet data and no source."""
    if float(cfg.get("source", {}).get("constant", 0.0)) != 0.0:
        raise ValueError("the reference solve covers source-free configs")
    nx, ny = fine_grid(cfg)
    x, y = node_xy(nx, ny)
    fixed = boundary_mask(nx, ny)
    u = np.where(fixed, bilinear(cfg["bc"]["bilinear"])(x, y), 0.0)
    free = ~fixed
    Aff = A[free][:, free].tocsc()
    u[free] = spla.spsolve(Aff, -(A[free][:, fixed] @ u[fixed]))
    return u


class Reference:
    """The benchmark's own fine operator and solution (conforming only)."""

    def __init__(self, cfg: dict):
        self.A = reference_operator(cfg)
        self.u = reference_solution(cfg, self.A)
        self.norm2 = float(self.u @ (self.A @ self.u))

    def energy_error(self, u_ms: np.ndarray) -> float:
        e = self.u - u_ms
        return float(np.sqrt(max(e @ (self.A @ e), 0.0) / self.norm2))


def check_command(command: str, cfg: dict, outdir: str,
                  ref: Reference | None = None):
    """Check one command's outputs.

    Returns (attempted, failed, final_row, problems): the final row holds
    the reported figures of the last coarse solve, problems is a list of
    messages.  A failed row check fails that row's operation; a failed
    check on the whole command fails all of its operations.
    """
    outs = cfg["outputs"]
    rows = read_table(f"{outdir}/{outs['csv']}")
    energy = [float(r["h1_fine_pct"]) for r in rows]
    dims = [int(r["dim"]) for r in rows]
    row_msgs: list[tuple[int, str]] = []
    cmd_msgs: list[str] = []

    for k in range(1, len(rows)):
        if energy[k] > energy[k - 1] * (1 + MONOTONE_RTOL):
            row_msgs.append((k, f"energy error rose from {energy[k - 1]} "
                                f"to {energy[k]}"))

    cnx, cny = cfg["grid"]["coarse"]
    n_coarse = (cnx + 1) * (cny + 1)
    n_interior = (cnx - 1) * (cny - 1)
    if command == "sweep":
        expect = [n_interior * m + (n_coarse - n_interior) for m in cfg["sweep"]]
        if len(rows) != len(expect):
            cmd_msgs.append(f"{len(rows)} sweep rows, schedule has {len(expect)}")
    else:
        ad = cfg["adapt"]
        expect = [n_coarse * ad["initial_basis"]]
        for r in rows[:-1]:
            expect.append(expect[-1] + int(r["marked"]) * ad["basis_increment"])
        if energy[-1] > 100.0 * ad["tol"]:
            cmd_msgs.append(f"adapt ended at {energy[-1]}%, above its "
                            f"tolerance {100.0 * ad['tol']}%")
    for k, (got, want) in enumerate(zip(dims, expect)):
        if got != want:
            row_msgs.append((k, f"coarse dimension {got}, schedule gives {want}"))

    nx, ny = fine_grid(cfg)
    vnx, vny, u = read_vtk(f"{outdir}/{outs['vtk']}")
    if (vnx, vny) != (nx + 1, ny + 1) or len(u) != vnx * vny:
        cmd_msgs.append(f"solution has {vnx}x{vny} nodes, grid has "
                        f"{nx + 1}x{ny + 1}")
    else:
        x, y = node_xy(nx, ny)
        bnd = boundary_mask(nx, ny)
        g = bilinear(cfg["bc"]["bilinear"])
        dev = float(np.max(np.abs(u[bnd] - g(x[bnd], y[bnd]))))
        if not dev <= BC_ATOL:
            cmd_msgs.append(f"solution misses the boundary data by {dev:.3e}")
        if ref is not None:
            mine = 100.0 * ref.energy_error(u)
            if not abs(mine - energy[-1]) <= REFERENCE_RTOL * energy[-1]:
                cmd_msgs.append(f"energy error against the benchmark's own fine "
                                f"solve is {mine:.10g}%, reported {energy[-1]:.10g}%")

    attempted = len(rows) + 1
    failed = attempted if cmd_msgs else len({k for k, _ in row_msgs})
    problems = [f"row {k}: {m}" for k, m in row_msgs] + cmd_msgs
    return attempted, failed, rows[-1], problems
