"""The traced benchmark wraps library functions by name: every span it
lists must resolve on the package, so that a rename fails here rather than
in a traced run."""
import importlib
import importlib.util
import types
from pathlib import Path

import cdindex
from conftest import square_lattice

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


def test_traced_cli_request_reaches_the_rebound_names(capsys, tmp_path):
    # the subcommands import their modules when they run, so a request
    # still calls the wrappers the tracer put on those modules
    tracing = load_tracing()
    lib = types.SimpleNamespace(package=cdindex, **{
        name: importlib.import_module("cdindex." + name)
        for name in {mod_name for mod_name, _, _, _ in tracing.SPANS}})
    path = tmp_path / "square.json"
    path.write_text(square_lattice().to_json())
    tracer = tracing.Tracer()
    tracer.install(lib)
    try:
        code = lib.cli.run(["compute", "--what", "cd", "--input", str(path)])
    finally:
        tracer.uninstall()
    assert (code, capsys.readouterr().out) == (0, "c^2 + 2*d\n")
    assert tracer.layers["flagcd.cd_index"].calls == 1
    assert tracer.layers["cli.decode"].calls == 1
