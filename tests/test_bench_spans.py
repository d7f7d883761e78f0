"""The traced benchmark wraps library functions by name: every span it
lists must resolve on the package, so that a rename fails here rather than
in a traced run."""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_resolves_on_the_package():
    spans = load_tracing().SPANS
    assert spans
    for mod_name, attr, _, _ in spans:
        owner = importlib.import_module("cdindex." + mod_name)
        if "." in attr:
            # the tracer replaces a method in its class's own namespace
            cls_name, meth = attr.split(".")
            owner = getattr(owner, cls_name)
            assert meth in vars(owner), (mod_name, attr)
            attr = meth
        assert callable(getattr(owner, attr, None)), (mod_name, attr)
