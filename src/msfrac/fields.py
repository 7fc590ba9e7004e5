"""Seeded synthetic fracture fields for experiments and regression tests.

The generators below produce qualitatively different network types:
isolated per-block fractures, channels crossing coarse edges, crossing
networks, short/long mixtures, a single long embedded fracture, and a
curved long fracture.  Exact published geometries are figure-only, so
these are reproducible stand-ins, not reconstructions.

Defaults: fracture permeability 1e4 (contrast 1e4 over a unit matrix)
and aperture 1e-3 of the smaller domain side.
"""

from __future__ import annotations

import functools

import numpy as np

from .grids import GridHierarchy
from .fractures import Fracture, FractureModel, FractureNetwork, GeometryError

__all__ = ["isolated_blocks", "crossing_channels", "crossing_network",
           "mixed_short_long", "single_long_efm", "curved_long",
           "FIELD_GENERATORS", "default_aperture", "DEFAULT_KAPPA_F"]

DEFAULT_KAPPA_F = 1e4
FIELD_GENERATORS = {}


def _field(gen):
    """gen, listed in ``FIELD_GENERATORS``; a draw of no fracture raises
    ``GeometryError``, so no fracture-free problem runs under its name."""
    @functools.wraps(gen)
    def draw(g: GridHierarchy, seed: int = 0, **params) -> FractureNetwork:
        network = gen(g, seed=seed, **params)
        if not network.fractures:
            raise GeometryError(f"fractures.field {gen.__name__!r} draws no fracture at "
                                f"seed {seed} on {g.coarse_nx}x{g.coarse_ny}@{g.refine}")
        return network
    FIELD_GENERATORS[gen.__name__] = draw
    return draw


def default_aperture(g: GridHierarchy) -> float:
    return 1e-3 * min(g.domain.width, g.domain.height)


def _params(g, kappa_f, aperture):
    return (DEFAULT_KAPPA_F if kappa_f is None else float(kappa_f),
            default_aperture(g) if aperture is None else float(aperture))


def _inner_box(g):
    """Corners lo, hi of the domain shrunk by 2.5 fine cells on every side."""
    margin = 2.5 * max(g.hx, g.hy)
    d = g.domain
    return (np.array([d.x0 + margin, d.y0 + margin]),
            np.array([d.x1 - margin, d.y1 - margin]))


def _add(fractures, seg, kf, ap):
    """Append seg as the next fracture; a dropped draw (None) adds none."""
    if seg is not None:
        fractures.append(Fracture(seg, ap, kf, id=len(fractures)))


def _clamped_segment(center, ang, half_len, lo, hi, min_len):
    """Segment center +- half_len*dir shrunk to stay inside [lo, hi]."""
    d = np.array([np.cos(ang), np.sin(ang)])
    t = half_len
    for k in range(2):
        if d[k] > 1e-14:
            t = min(t, (hi[k] - center[k]) / d[k], (center[k] - lo[k]) / d[k])
        elif d[k] < -1e-14:
            t = min(t, (center[k] - lo[k]) / -d[k], (hi[k] - center[k]) / -d[k])
    if 2 * t < min_len:
        return None
    return np.array([center - t * d, center + t * d])


def _draw(g, rng, lo, hi, spread, half, min_len):
    """A random segment in [lo, hi]: a centre uniform on the ``spread``
    fraction of the box, an angle, and a half length uniform in ``half``
    times min(Hx, Hy), clamped by ``_clamped_segment``."""
    center = lo + rng.uniform(*spread, 2) * (hi - lo)
    return _clamped_segment(center, rng.uniform(0.0, np.pi),
                            rng.uniform(*half) * min(g.Hx, g.Hy), lo, hi, min_len)


def _scatter(g, rng, fractures, total, tries, kf, ap, spread, half, min_len):
    """Append ``_draw`` segments in the inner box until there are
    ``total`` fractures or ``tries`` draws are spent."""
    lo, hi = _inner_box(g)
    for _ in range(tries):
        if len(fractures) >= total:
            break
        _add(fractures, _draw(g, rng, lo, hi, spread, half, min_len), kf, ap)


@_field
def isolated_blocks(g: GridHierarchy, seed: int = 0, kappa_f=None,
                    aperture=None, fill: float = 0.7) -> FractureNetwork:
    """At most one short fracture per coarse block, none touching the
    block edges (so no fracture crosses a coarse edge after snapping)."""
    kf, ap = _params(g, kappa_f, aperture)
    rng = np.random.default_rng(seed)
    margin = 2.5 * max(g.hx, g.hy)
    fractures = []
    for J in range(g.coarse_ny):
        for I in range(g.coarse_nx):
            if rng.random() > fill:
                continue
            lo = np.array([g.domain.x0 + I * g.Hx + margin,
                           g.domain.y0 + J * g.Hy + margin])
            hi = np.array([g.domain.x0 + (I + 1) * g.Hx - margin,
                           g.domain.y0 + (J + 1) * g.Hy - margin])
            if np.all(hi > lo):
                _add(fractures, _draw(g, rng, lo, hi, (0.3, 0.7), (0.18, 0.32),
                                      3 * max(g.hx, g.hy)), kf, ap)
    return FractureNetwork(fractures)


@_field
def crossing_channels(g: GridHierarchy, seed: int = 0, n: int = 10,
                      kappa_f=None, aperture=None) -> FractureNetwork:
    """Medium-length channels at random angles, crossing coarse edges."""
    kf, ap = _params(g, kappa_f, aperture)
    fractures = []
    _scatter(g, np.random.default_rng(seed), fractures, n, 20 * n, kf, ap,
             (0.1, 0.9), (0.8, 1.3), 1.2 * min(g.Hx, g.Hy))
    return FractureNetwork(fractures)


@_field
def crossing_network(g: GridHierarchy, seed: int = 0, n_pairs: int = 5,
                     n_single: int = 4, kappa_f=None,
                     aperture=None) -> FractureNetwork:
    """Pairs of fractures sharing a center at a wide angle (guaranteed
    crossings) plus a few singles."""
    kf, ap = _params(g, kappa_f, aperture)
    rng = np.random.default_rng(seed)
    lo, hi = _inner_box(g)
    min_len = 0.8 * min(g.Hx, g.Hy)
    fractures = []
    for _ in range(n_pairs):
        center = lo + rng.uniform(0.15, 0.85, 2) * (hi - lo)
        ang = rng.uniform(0.0, np.pi)
        dang = rng.uniform(np.pi / 3, 2 * np.pi / 3)
        for a in (ang, ang + dang):
            seg = _clamped_segment(center, a, rng.uniform(0.6, 1.1) * min(g.Hx, g.Hy),
                                   lo, hi, min_len)
            _add(fractures, seg, kf, ap)
    for _ in range(n_single):
        _add(fractures, _draw(g, rng, lo, hi, (0.1, 0.9), (0.5, 0.9), min_len),
             kf, ap)
    return FractureNetwork(fractures)


@_field
def mixed_short_long(g: GridHierarchy, seed: int = 0, n_short: int = 12,
                     kappa_f=None, aperture=None) -> FractureNetwork:
    """A couple of domain-spanning polylines plus many short fractures."""
    kf, ap = _params(g, kappa_f, aperture)
    rng = np.random.default_rng(seed)
    margin = 2.5 * max(g.hx, g.hy)
    w, h = g.domain.width, g.domain.height
    x0, y0 = g.domain.x0, g.domain.y0
    fractures = []
    for ylev in (rng.uniform(0.3, 0.45), rng.uniform(0.55, 0.7)):
        xs = x0 + np.array([0.05, 0.35, 0.65, 0.95]) * w
        ys = y0 + (ylev + rng.uniform(-0.08, 0.08, 4)) * h
        ys = np.clip(ys, y0 + margin, y0 + h - margin)
        _add(fractures, np.column_stack([xs, ys]), kf, ap)
    _scatter(g, rng, fractures, 2 + n_short, 20 * n_short, kf, ap,
             (0.05, 0.95), (0.25, 0.5), 3 * max(g.hx, g.hy))
    return FractureNetwork(fractures)


@_field
def single_long_efm(g: GridHierarchy, seed: int = 0, kappa_f: float = 10.0,
                    aperture=None) -> FractureNetwork:
    """One long straight embedded fracture, slightly inclined.

    The embedded model targets the smaller, mildly conductive fractures
    (the dominant ones belong in the discrete model), so the default
    contrast here is modest compared to the DFM generators.
    """
    kf, ap = _params(g, kappa_f, aperture)
    rng = np.random.default_rng(seed)
    w, h = g.domain.width, g.domain.height
    jit = rng.uniform(-0.02, 0.02, 2)
    p0 = (g.domain.x0 + 0.08 * w, g.domain.y0 + (0.38 + jit[0]) * h)
    p1 = (g.domain.x0 + 0.92 * w, g.domain.y0 + (0.61 + jit[1]) * h)
    return FractureNetwork([Fracture(polyline=np.array([p0, p1]),
                                     aperture=ap, kappa_f=kf,
                                     model=FractureModel.EFM, id=0)])


@_field
def curved_long(g: GridHierarchy, seed: int = 0, n_short: int = 8,
                n_arc: int = 24, kappa_f=None, aperture=None) -> FractureNetwork:
    """A long curved fracture (circular-arc polyline) plus short ones."""
    kf, ap = _params(g, kappa_f, aperture)
    rng = np.random.default_rng(seed)
    w, h = g.domain.width, g.domain.height
    x0, y0 = g.domain.x0, g.domain.y0
    cx = x0 + 0.5 * w
    cy = y0 - 0.35 * h
    rad = 0.85 * h
    th = np.linspace(np.radians(55), np.radians(125), n_arc)[::-1]
    arc = np.column_stack([cx + rad * np.cos(th) * (w / h),
                           cy + rad * np.sin(th)])
    margin = 2.5 * max(g.hx, g.hy)
    arc[:, 0] = np.clip(arc[:, 0], x0 + margin, x0 + w - margin)
    arc[:, 1] = np.clip(arc[:, 1], y0 + margin, y0 + h - margin)
    # clipping can fold consecutive points onto the same box corner
    keep = np.r_[True, np.any(np.diff(arc, axis=0) != 0.0, axis=1)]
    arc = arc[keep]
    fractures = []
    if len(arc) >= 2:
        _add(fractures, arc, kf, ap)
    _scatter(g, rng, fractures, 1 + n_short, 20 * n_short, kf, ap,
             (0.05, 0.95), (0.25, 0.5), 3 * max(g.hx, g.hy))
    return FractureNetwork(fractures)
