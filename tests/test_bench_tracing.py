"""The traced benchmark run (``bench/run.py --trace 1``) wraps v6ready
functions by module and name from outside. Deleting or renaming any of
them, or leaving a method to be inherited where the tracer looks it up
in the class's own namespace, must fail here rather than in the
benchmark."""

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


def v6ready_modules() -> dict:
    return {
        info.name: importlib.import_module(f"v6ready.{info.name}")
        for info in pkgutil.iter_modules(v6ready.__path__)
    }


def resolve(modules: dict, mod: str, path: str) -> tuple[object, str]:
    """(owner, attribute) of a tracer path, walked as ``Tracer.install``
    walks it."""
    owner = modules[mod]
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    return owner, attr


def test_tracer_installs_and_uninstalls_on_v6ready():
    tracing = load_tracing()
    modules = v6ready_modules()
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


def test_tracer_finds_counts_and_restores_every_hook():
    tracing = load_tracing()
    modules = v6ready_modules()
    paths = [*tracing.SPANS.values(), *tracing.COUNTS.values()]
    originals = {}
    for mod, path in paths:
        owner, attr = resolve(modules, mod, path)
        # the tracer reads the owner's own namespace, not inherited attributes
        assert attr in vars(owner), f"{mod}.{path}"
        originals[mod, path] = vars(owner)[attr]
    normalize = modules["names"].normalize
    a, b = normalize("a.example"), normalize("b.example")
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        lt, eq = tracer.count("names.lt"), tracer.count("names.eq")
        assert a < b and not a == b
        assert tracer.count("names.lt") > lt and tracer.count("names.eq") > eq
    finally:
        tracer.uninstall()
    for (mod, path), original in originals.items():
        owner, attr = resolve(modules, mod, path)
        assert vars(owner)[attr] is original, f"{mod}.{path}"
    assert a < b and a != b and a == normalize("A.example")
    assert len({a, b, normalize("a.example")}) == 2
