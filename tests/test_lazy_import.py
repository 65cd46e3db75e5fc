"""The package loads a module on first use, and a command only the modules it runs.

`hypermult/__init__.py` maps each public name to its module and imports
that module when the name is first read; `cli` imports `hesselink` and
`classifier` inside the handlers that call them.  The subprocess checks
start a fresh interpreter, since this one has loaded every module.
"""

import importlib
import subprocess
import sys
import textwrap

import pytest

import hypermult

# every public name `hypermult` exported when its init imported all four modules
EXPORTS = {
    "forms": (
        "ExponentVector", "FormParseError", "Frame", "HomogeneousForm", "ProjPoint", "act",
        "destabilize", "destabilizing_factor", "frame_moving_to_origin", "multiplicity_at",
        "multiplicity_at_origin", "parse_form", "point_image",
    ),
    "statepoly": (
        "InstabilityCertificate", "OneParamSubgroup", "ProjectionResult", "barycenter",
        "class_rep", "mu_weight", "nearest_point", "torus_index",
    ),
    "hesselink": (
        "BandParams", "FrameFamily", "StratumLabel", "band_contains", "default_frames",
        "l_squared", "pair_minima", "pair_separation_min_N", "separation_gap",
        "separation_threshold", "worst_frame_search",
    ),
    "classifier": (
        "BandDiagnostic", "BoundCheckResult", "ClassificationReport", "FailureRecord",
        "VerifySummary", "bound_check", "classify_at", "classify_at_origin", "gen_corpus",
        "verify_theorem_main",
    ),
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def fresh(code: str) -> str:
    """The stdout of code run in a new interpreter, which must exit 0."""
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_index_and_mult_load_neither_hesselink_nor_classifier(tmp_path):
    path = tmp_path / "cubic.form"
    path.write_text("r=2 d=3\n1 1 1 1\n1 0 3 0\n")
    out = fresh(f"""
        import sys
        from hypermult import cli
        codes = [cli.run(["index", "--input", {str(path)!r}]),
                 cli.run(["mult", "--input", {str(path)!r}, "--point", "1,0,0"])]
        print(codes, [m for m in ("hypermult.classifier", "hypermult.hesselink")
                      if m in sys.modules])
    """)
    assert out.splitlines()[-1] == "[0, 0] []"


def test_importing_the_package_loads_no_submodule_until_one_is_read():
    out = fresh("""
        import sys, hypermult
        print(sorted(m for m in sys.modules if m.startswith("hypermult.")))
        print(hypermult.classifier is sys.modules["hypermult.classifier"])
        print(hypermult.forms.act is hypermult.act)
    """)
    assert out.splitlines() == ["[]", "True", "True"]


@pytest.mark.parametrize("module, name", NAMES)
def test_each_exported_name_is_its_modules_own(module, name):
    home = importlib.import_module(f"hypermult.{module}")
    assert getattr(hypermult, name) is getattr(home, name)


def test_dir_all_and_star_import_hold_every_exported_name_and_module():
    expected = {name for _, name in NAMES} | set(EXPORTS)
    assert expected <= set(dir(hypermult))
    assert expected == set(hypermult.__all__)
    namespace = {}
    exec("from hypermult import *", namespace)
    assert expected <= set(namespace)
    for module in EXPORTS:
        assert getattr(hypermult, module) is sys.modules[f"hypermult.{module}"]


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        hypermult.no_such_name
