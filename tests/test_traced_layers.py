"""Every library function the traced benchmark wraps still exists and counts.

`benchmarks/spans.py` names its layers as "module:function" strings and
only warns at run time when one is gone, so a rename or removal in the
library would silently drop a layer from the traced metrics.  Its counters
read what a layer returns and likewise only warn when that fails.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("hypermult_bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's string annotations through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


TARGETS = [target for layer in load_spans().LAYERS for target in layer.targets]


def test_spans_name_some_layers():
    assert "_linalg:det" in TARGETS
    assert len(TARGETS) >= 15


@pytest.mark.parametrize("target", TARGETS)
def test_traced_layer_target_is_a_library_function(target):
    mod_name, fn_name = target.split(":")
    module = importlib.import_module(f"hypermult.{mod_name}")
    assert callable(getattr(module, fn_name, None)), f"hypermult.{mod_name}.{fn_name} is gone"


def test_traced_requests_fill_the_form_counters(capsys, tmp_path):
    # a counter that raises only warns on stderr and drops its metric, so a
    # change to what a layer returns would go unnoticed in a traced run
    path = tmp_path / "quintic.form"
    path.write_text("r=1 d=5\n1 2 3\n-3/2 1 4\n2 0 5\n")
    requests = [
        ["index", "--input", str(path)],
        ["classify", "--input", str(path), "--point", "1,1"],
        ["bound", "--input", str(path), "--point", "1,0", "--budget", "1"],
    ]
    # the Tracer wraps only modules already loaded, and the benchmark's tests
    # import the package afresh, so both are read here and not at collection
    for target in TARGETS:
        importlib.import_module(f"hypermult.{target.split(':')[0]}")
    cli = importlib.import_module("hypermult.cli")
    with load_spans().Tracer() as tracer:
        codes = [cli.run(argv) for argv in requests]
    assert codes == [0, 0, 0], capsys.readouterr().err
    metrics = tracer.metrics()
    assert tracer.warnings == []
    assert metrics["forms.parse_form.terms"] == 9
    assert metrics["forms.act.terms_out"] > 0
    # the search's counters: bound's 3 frames, of which one is projected,
    # beside one projection each for index and classify
    assert metrics["hesselink.default_frames.frames"] == 3
    assert metrics["statepoly.nearest_point.calls"] == 3
