"""The traced benchmark run (``bench/run.py --trace 1``) wraps v6ready
functions by module and name from outside. Deleting or renaming any of
them must fail here rather than in the benchmark."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import v6ready

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_v6ready():
    tracing = load_tracing()
    modules = {
        info.name: importlib.import_module(f"v6ready.{info.name}")
        for info in pkgutil.iter_modules(v6ready.__path__)
    }
    originals = {name: vars(modules[mod])[path]
                 for name, (mod, path) in tracing.SPANS.items() if "." not in path}
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        for name, (mod, path) in tracing.SPANS.items():
            if "." not in path:
                assert getattr(modules[mod], path) is not originals[name], name
        # the span wrapper reads ``.sweeps`` off every fixed point
        modules["passive"].fixed_point({})
        assert len(tracer.sweeps) == 1
        modules["query"].ResponseCache()
        assert len(tracer.caches) == 1
    finally:
        tracer.uninstall()
    for name, (mod, path) in tracing.SPANS.items():
        if "." not in path:
            assert getattr(modules[mod], path) is originals[name], name
