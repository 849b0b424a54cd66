"""The benchmark tracer wraps sympt functions and methods by name; every one
of those names must still exist, so that a refactor which drops one fails
here and not only in the benchmark's own smoke test."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# attributes that tracer.install() patches besides its SPANS, and the ones
# its after-hooks read off a result
PATCHED = (
    ("birational", "BirMap", "apply_mod"),
    ("birational", None, "_apply_word_mod"),
    ("picard", "PicOperator", "__call__"),
    ("picard", "PicVec", "__init__"),
    ("thompson", "DyadicPL", "points"),
    ("thompson", "TreePair", "leaf_count"),
)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_names_a_function():
    tracer = load_tracer()
    assert set(tracer.SPANS) <= set(tracer.LAYERS)
    for layer, names in tracer.SPANS.items():
        module = importlib.import_module("sympt." + layer)
        for name in names:
            assert callable(getattr(module, name, None)), (layer, name)


def test_every_patched_attribute_exists():
    source = TRACER.read_text()
    for layer, owner, name in PATCHED:
        assert name in source, name
        target = importlib.import_module("sympt." + layer)
        if owner is not None:
            target = getattr(target, owner)
        assert hasattr(target, name), (layer, owner, name)
