"""Run configuration: YAML schema, strict validation, round-tripping.

The block dataclasses are the schema: each field is one YAML key with
its default, checked by its type and its ``positive`` / ``nonnegative``
/ ``choices`` metadata (choices match case-insensitively); only keys
shaped unlike their field are parsed by hand (``_SHAPED``).  Unknown
keys fail loudly, and the echo re-parses to an equal config for the run
manifest.
"""

from __future__ import annotations

import functools
import inspect
import math
import types
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import get_args, get_type_hints

import yaml

from .adaptivity import AdaptConfig
from .fields import FIELD_GENERATORS

__all__ = ["ConfigError", "RunConfig", "GridConfig", "MatrixConfig",
           "FracturesConfig", "FractureSpec", "OfflineConfig",
           "OutputsConfig", "load_config", "parse_config", "config_to_dict"]


class ConfigError(ValueError):
    pass


def _opt(default=MISSING, **checks):
    """A field with its value checks (``positive``, ``nonnegative``,
    ``choices``)."""
    return field(default=default, metadata=checks)


@dataclass
class GridConfig:
    domain: tuple = (0.0, 0.0, 1.0, 1.0)
    coarse_nx: int = 10
    coarse_ny: int = 10
    refine: int = _opt(10, positive=True)
    t: int = _opt(0, nonnegative=True)


@dataclass
class MatrixConfig:
    kappa: float = _opt(1.0, positive=True)
    raster: str | None = None


@dataclass
class FractureSpec:
    polyline: list
    aperture: float = _opt(positive=True)
    kappa_f: float = _opt(positive=True)
    model: str = _opt("dfm", choices=("dfm", "efm"))


@dataclass
class FracturesConfig:
    field: str | None = None          # generator name
    seed: int = _opt(0, nonnegative=True)
    kappa_f: float | None = _opt(None, positive=True)
    aperture: float | None = _opt(None, positive=True)
    params: dict = None               # extra generator keyword arguments
    fractures: list[FractureSpec] = None

    def __post_init__(self):
        self.params = self.params or {}
        self.fractures = self.fractures or []
        if self.field is None:
            unused = [k for k in ("kappa_f", "aperture", "params")
                      if getattr(self, k) not in (None, {})]
            if unused:
                raise ValueError(f"{unused} apply only to a generator; "
                                 "set 'field'")
            return
        if self.field not in FIELD_GENERATORS:
            raise ValueError(f"unknown generator {self.field!r}; "
                             f"available: {sorted(FIELD_GENERATORS)}")
        allowed = (set(inspect.signature(FIELD_GENERATORS[self.field]).parameters)
                   - {"g", "seed", "kappa_f", "aperture"})
        unknown = sorted(set(self.params) - allowed)
        if unknown:
            raise ValueError(f"params {unknown} not accepted by generator "
                             f"{self.field!r}; allowed: {sorted(allowed)}")


@dataclass
class OfflineConfig:
    mode: str = _opt("full", choices=("full", "randomized"))
    M_off: int = _opt(1, positive=True)
    enrich_boundary: bool = False     # extra modes at boundary coarse nodes too
    k_nb: int = _opt(4, positive=True)
    p_bf: int = _opt(4, nonnegative=True)
    seed: int = _opt(0, nonnegative=True)


@dataclass
class OutputsConfig:
    dir: str = "out"
    csv: str = "errors.csv"
    solution_csv: str | None = None
    vtk: str | None = None
    eigenvalues: str | None = None
    manifest: str = "manifest.yml"


@dataclass
class RunConfig:
    grid: GridConfig = field(default_factory=GridConfig)
    matrix: MatrixConfig = field(default_factory=MatrixConfig)
    fractures: FracturesConfig = field(default_factory=FracturesConfig)
    bc: dict = field(default_factory=lambda: {"bilinear": [0.0, 1.0, 1.0, 0.0]})
    source: dict = field(default_factory=lambda: {"constant": 0.0})
    offline: OfflineConfig = field(default_factory=OfflineConfig)
    adapt: AdaptConfig = field(default_factory=AdaptConfig)
    outputs: OutputsConfig = field(default_factory=OutputsConfig)
    sweep: list[int] = field(default_factory=lambda: [1, 2, 3, 4, 5])

    def bc_callable(self):
        from .assembly import bilinear_bc
        if "constant" in self.bc:
            return bilinear_bc(a=float(self.bc["constant"]))
        return bilinear_bc(*[float(v) for v in self.bc["bilinear"]])

    def source_callable(self):
        v = float(self.source.get("constant", 0.0))
        return None if v == 0.0 else v


# -- one coercion per field type -------------------------------------------

_ACCEPTS = {bool: bool, int: int, float: (int, float), str: str, dict: dict}
_hints = functools.cache(get_type_hints)


def _check_keys(d: dict, allowed: set[str], ctx: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{ctx}: expected a mapping, got {type(d).__name__}")
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ConfigError(f"{ctx}: unknown key(s) {unknown}; allowed: {sorted(allowed)}")


def _value(kind, v, ctx, positive=False, nonnegative=False, choices=None):
    """Check one value against its field type; a block type recurses."""
    if is_dataclass(kind):
        return _parse_block(kind, v, ctx)
    if kind is float and isinstance(v, str):
        try:                          # YAML 1.1 reads 1e3 and 1.0e3 as strings
            v = float(v)
        except ValueError:
            pass
    if isinstance(v, bool) != (kind is bool) or not isinstance(v, _ACCEPTS[kind]):
        raise ConfigError(f"{ctx}: expected {kind.__name__}, got {v!r}")
    v = kind(v)
    if kind is float and not math.isfinite(v):
        raise ConfigError(f"{ctx}: must be finite, got {v}")
    if positive and v <= 0:
        raise ConfigError(f"{ctx}: must be positive, got {v}")
    if nonnegative and v < 0:
        raise ConfigError(f"{ctx}: must be non-negative, got {v}")
    if choices is not None:
        v = v.lower()
        if v not in choices:
            raise ConfigError(f"{ctx}: expected one of {list(choices)}, got {v!r}")
    return v


def _kind(hint):
    """The type of a field annotation, reading ``X | None`` as X."""
    if isinstance(hint, types.UnionType):
        (hint,) = (a for a in get_args(hint) if a is not type(None))
    return hint


def _path(ctx: str, key) -> str:
    return f"{ctx}.{key}" if ctx else key


# -- keys whose YAML shape differs from their field(s) ----------------------
# Each parser returns values for the fields it covers; a field it leaves
# out keeps its dataclass default.

def _seq(v, ctx, kind, n, shape, **checks):
    """A list of n values of one kind (n=None: any non-empty length)."""
    if not isinstance(v, (list, tuple)) or (len(v) != n if n else not v):
        raise ConfigError(f"{ctx}: expected {shape}")
    return [_value(kind, x, ctx, **checks) for x in v]


def _coarse(v, ctx):
    nx, ny = _seq(v if isinstance(v, (list, tuple)) else [v, v], ctx, int, 2,
                  "n or [nx, ny]", positive=True)
    return {"coarse_nx": nx, "coarse_ny": ny}


def _polyline(v, ctx):
    shape = ">= 2 [x, y] vertices"
    if not isinstance(v, (list, tuple)) or len(v) < 2:
        raise ConfigError(f"{ctx}: expected {shape}")
    return {"polyline": [_seq(p, ctx, float, 2, shape) for p in v]}


def _bc(v, ctx):
    _check_keys(v, {"bilinear", "constant"}, ctx)
    if len(v) != 1:
        raise ConfigError(f"{ctx}: give either 'bilinear' or 'constant'"
                          + (", not both" if v else ""))
    if "constant" in v:
        return {"bc": {"constant": _value(float, v["constant"], f"{ctx}.constant")}}
    return {"bc": {"bilinear": _seq(v["bilinear"], f"{ctx}.bilinear", float, 4,
                                    "[a, b, c, d] for a+bx+cy+dxy")}}


def _source(v, ctx):
    _check_keys(v, {"constant"}, ctx)
    if not v:
        return {}
    return {"source": {"constant": _value(float, v["constant"], f"{ctx}.constant")}}


# block -> {YAML key: (fields it covers, parse(value, path) -> field values)}
_SHAPED = {
    GridConfig: {
        "domain": (("domain",), lambda v, ctx: {
            "domain": tuple(_seq(v, ctx, float, 4, "[x0, y0, x1, y1]"))}),
        "coarse": (("coarse_nx", "coarse_ny"), _coarse)},
    FractureSpec: {"polyline": (("polyline",), _polyline)},
    FracturesConfig: {
        "list": (("fractures",), lambda v, ctx: {"fractures": [
            _parse_block(FractureSpec, item, f"{ctx}[{k}]")
            for k, item in enumerate(v or [])]})},
    AdaptConfig: {
        "manual_box": (("manual_box",), lambda v, ctx: {"manual_box": None if v is None
                       else tuple(_seq(v, ctx, int, 4, "[ci0, ci1, cj0, cj1]"))})},
    RunConfig: {
        "bc": (("bc",), _bc),
        "source": (("source",), _source),
        "sweep": (("sweep",), lambda v, ctx: {"sweep": _seq(
            v, ctx, int, None, "a non-empty list of positive counts", positive=True)})},
}


def _direct_fields(cls):
    """Fields that are one YAML key each, under their own name."""
    covered = {n for names, _ in _SHAPED.get(cls, {}).values() for n in names}
    return [f for f in fields(cls) if f.name not in covered]


def _parse_block(cls, d, ctx: str):
    shaped = _SHAPED.get(cls, {})
    direct = _direct_fields(cls)
    _check_keys(d, {f.name for f in direct} | set(shaped), ctx or "config")
    hints = _hints(cls)
    kw = {}
    for f in direct:
        if f.name in d:
            v = d[f.name]
            kw[f.name] = (None if v is None and f.default is None else
                          _value(_kind(hints[f.name]), v, _path(ctx, f.name),
                                 **f.metadata))
    for key, (_, parse) in shaped.items():
        if key in d:
            kw.update(parse(d[key], _path(ctx, key)))
    for f in fields(cls):
        if f.name not in kw and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{ctx}: missing required key {f.name!r}")
    try:
        return cls(**kw)
    except ValueError as exc:         # the block's own cross-field checks
        raise ConfigError(f"{ctx}: {exc}") from exc


def _plain(v):
    """A value as plain YAML data: blocks become dicts, tuples lists."""
    if is_dataclass(v):
        return _echo(v)
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    return v


def _echo(obj) -> dict:
    out = {f.name: _plain(getattr(obj, f.name)) for f in _direct_fields(type(obj))}
    for key, (names, _) in _SHAPED.get(type(obj), {}).items():
        vals = [_plain(getattr(obj, n)) for n in names]
        out[key] = vals[0] if len(vals) == 1 else vals
    return {k: v for k, v in out.items() if v is not None and v != {} and v != []}


def parse_config(data: dict) -> RunConfig:
    return _parse_block(RunConfig, {} if data is None else data, "")


# libyaml's safe loader where PyYAML was built with it: the same documents,
# parsed several times faster
_SAFE_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def load_config(path: str) -> RunConfig:
    with open(path) as fh:
        try:
            data = yaml.load(fh, Loader=_SAFE_LOADER)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    return parse_config(data)


def config_to_dict(cfg: RunConfig) -> dict:
    """Plain-dict echo of the config, leaving out unset (None or empty)
    values; re-parses to an equivalent RunConfig."""
    return _echo(cfg)
