"""Golden stdout of every subcommand: exact bytes and exit codes.

Each case runs `hypermult.cli.run` in-process on fixed small inputs and
compares stdout with `tests/golden/<name>.out` byte for byte.  Refactors of
the library must leave every file here unchanged.  After an intended change
of the output, rewrite the files with

    PYTHONPATH=src python tests/test_golden_cli.py

and review the diff.
"""

import contextlib
import io
import pathlib

import pytest

from hypermult.cli import run

GOLDEN = pathlib.Path(__file__).with_name("golden")

FORMS = {
    # nodal plane cubic x0*x1*x2 + x1^3: a double point at [1:0:0]
    "cubic": "r=2 d=3\n1 1 1 1\n1 0 3 0\n",
    # x0*x1, semistable for the diagonal torus
    "semistable": "r=1 d=2\n1 1 1\n",
    # x1^2, a double point at [1:0]
    "square": "r=1 d=2\n1 0 2\n",
    # a plane cubic with rational coefficients
    "rational": "r=2 d=3\n-3/2 1 1 1\n2 0 3 0\n1/3 0 1 2\n5 2 0 1\n",
    # (x0 + x1)^3 * (x0 - 2 x1): a triple point at [1:-1]
    "quartic": "r=1 d=4\n1 4 0\n1 3 1\n-3 2 2\n-5 1 3\n-2 0 4\n",
    # x0*x1*x2 + x0*x3^2 + x1^3, a double point at [1:0:0:0]
    "r3cubic": "r=3 d=3\n1 1 1 1 0\n1 1 0 0 2\n1 0 3 0 0\n",
    # the plane cone x1^3 + x2^3, a triple point at [1:0:0]
    "cone": "r=2 d=3\n1 0 3 0\n1 0 0 3\n",
}

# name -> (argv with {form} placeholders, exit code)
CASES = {
    "index_cubic": (["index", "--input", "{cubic}"], 0),
    "index_rational": (["index", "--input", "{rational}"], 0),
    "index_semistable": (["index", "--input", "{semistable}"], 0),
    "classify_origin": (["classify", "--input", "{cubic}"], 0),
    "classify_moved": (["classify", "--input", "{quartic}", "--point", "1,-1"], 0),
    "classify_rational": (["classify", "--input", "{rational}", "--point", "2,1,-1", "--N", "5"], 0),
    "classify_below_threshold": (["classify", "--input", "{cubic}", "--N", "1"], 2),
    "bound_within": (["bound", "--input", "{square}", "--point", "1,0"], 0),
    "bound_frames": (["bound", "--input", "{quartic}", "--point", "1,-1", "--point", "1,0", "--budget", "1"], 0),
    "bound_outside": (["bound", "--input", "{square}", "--point", "1,1"], 1),
    "bound_cone": (["bound", "--input", "{cone}", "--point", "1,0,0", "--budget", "2"], 0),
    "bound_r3": (["bound", "--input", "{r3cubic}", "--point", "2,1,-1,3", "--budget", "1"], 1),
    "bound_semistable": (["bound", "--input", "{semistable}", "--point", "1,0"], 2),
    "bands": (["bands", "-r", "2", "-d", "3", "--N", "4", "--point", "1,7,4"], 0),
    "bands_single_m": (["bands", "-r", "1", "-d", "2", "--point", "1/2,9/2", "--m", "1"], 0),
    "verify": (["verify", "-r", "2", "-d", "2", "--count", "3", "--seed", "5"], 0),
    "threshold_json": (["threshold", "-r", "2", "-d", "3", "--json"], 0),
    "threshold_text": (["threshold", "-r", "1", "-d", "3"], 0),
    "mult_json": (["mult", "--input", "{cubic}", "--point", "1,0,0", "--json"], 0),
    "mult_text": (["mult", "--input", "{quartic}", "--point", "1,-1"], 0),
    "destab_json": (["destab", "--input", "{rational}", "--N", "2", "--json"], 0),
    "destab_text": (["destab", "--input", "{cubic}", "--N", "auto"], 0),
    "gen_json": (["gen", "-r", "2", "-d", "3", "--m", "1", "--count", "3", "--seed", "7", "--json"], 0),
    "gen_text": (["gen", "-r", "1", "-d", "4", "--m", "2", "--count", "2", "--seed", "3"], 0),
}


def write_forms(directory: pathlib.Path) -> dict:
    paths = {}
    for name, text in FORMS.items():
        path = directory / f"{name}.form"
        path.write_text(text)
        paths[name] = str(path)
    return paths


def run_case(name: str, paths: dict) -> tuple:
    argv, _ = CASES[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run([arg.format(**paths) for arg in argv])
    return code, out.getvalue()


@pytest.fixture
def form_paths(tmp_path):
    return write_forms(tmp_path)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name, form_paths):
    code, out = run_case(name, form_paths)
    assert code == CASES[name][1]
    assert out == (GOLDEN / f"{name}.out").read_text()


def test_golden_stdout_repeats_in_one_process(form_paths):
    # every case twice, the second pass in reverse: no call leaves state behind
    names = sorted(CASES)
    for name in names + names[::-1]:
        expected = (CASES[name][1], (GOLDEN / f"{name}.out").read_text())
        assert run_case(name, form_paths) == expected, name



def test_a_usage_error_or_help_leaves_no_state_behind(form_paths):
    # what a parser kept across calls would have to keep: a stale --point
    # list or a half-read namespace must not reach the next call
    def quiet(argv):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return run(argv)

    square = form_paths["square"]
    assert quiet(["bound", "--input", square, "--budget", "x", "--point", "1,0"]) == 2
    golden = (GOLDEN / "bound_frames.out").read_text()
    assert run_case("bound_frames", form_paths) == (0, golden)
    assert quiet(["--help"]) == 0
    assert quiet(["index", "--help"]) == 0
    assert run_case("index_cubic", form_paths) == (0, (GOLDEN / "index_cubic.out").read_text())

if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        paths = write_forms(pathlib.Path(tmp))
        results = {name: run_case(name, paths) for name in CASES}
    GOLDEN.mkdir(exist_ok=True)
    for name, (code, out) in sorted(results.items()):
        (GOLDEN / f"{name}.out").write_text(out)
        print(f"{name}: exit {code} (expected {CASES[name][1]})")
