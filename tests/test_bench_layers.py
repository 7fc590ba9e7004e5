"""What the benchmark reads of the package still exists.

``bench/child.py`` wraps each ``(module, name)`` of its ``LAYERS`` by
looking the name up in ``msfrac.<module>``, so a name removed from the
package makes a traced benchmark run (``bench/run.py --trace 1``) fail
with an AttributeError.  ``bench/workloads.py`` builds each workload's
config from the package's fracture generators.  Both files are loaded
by path and not run.
"""

import importlib
import importlib.util
import pathlib

from msfrac.config import parse_config

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_layer_resolves_to_a_callable():
    layers = load_bench("child").LAYERS
    assert layers
    for mod, name in layers:
        fn = getattr(importlib.import_module(f"msfrac.{mod}"), name, None)
        assert callable(fn), f"msfrac.{mod}.{name}"


def test_every_workload_config_is_built_and_parses():
    workloads = load_bench("workloads")
    for name in workloads.WORKLOADS:
        cfg = workloads.make_config(name, seed=1)     # a mirrored seed
        assert cfg["fractures"]["list"]
        parse_config(cfg)
