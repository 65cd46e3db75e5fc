import json
import subprocess
import sys
from fractions import Fraction

import pytest

from hypermult import (
    ProjPoint,
    StratumLabel,
    bound_check,
    classify_at_origin,
    default_frames,
    l_squared,
    parse_form,
    separation_threshold,
    torus_index,
    verify_theorem_main,
    worst_frame_search,
)
from hypermult import serialize
from hypermult.cli import run

CUBIC_TEXT = "r=2 d=3\n1 1 1 1\n1 0 3 0\n"
SQUARE_TEXT = "r=1 d=2\n1 0 2\n"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def cubic_file(tmp_path):
    path = tmp_path / "cubic.form"
    path.write_text(CUBIC_TEXT)
    return str(path)


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.form"
    path.write_text(SQUARE_TEXT)
    return str(path)


# ---------------------------------------------------------------- commands

def test_mult_text_and_json(capsys, cubic_file):
    code, out, _ = invoke(capsys, "mult", "--input", cubic_file, "--point", "1,0,0")
    assert code == 0 and out.strip() == "2"
    code, out, _ = invoke(
        capsys, "mult", "--input", cubic_file, "--point", "1,0,0", "--json"
    )
    payload = json.loads(out)
    assert code == 0
    assert payload == {"r": 2, "d": 3, "point": ["1", "0", "0"], "m": 2}


def test_index_reports_certificate(capsys, square_file):
    code, out, _ = invoke(capsys, "index", "--input", square_file)
    payload = json.loads(out)
    assert code == 0
    assert payload["delta_sq"] == "2"
    assert payload["lambda"] == [-1, 1]
    cert = torus_index(parse_form(SQUARE_TEXT))
    assert payload == {"r": 1, "d": 2, **serialize.cert_encode(cert)}


def test_index_semistable_has_null_lambda(capsys, tmp_path):
    path = tmp_path / "ss.form"
    path.write_text("r=1 d=2\n1 1 1\n")
    code, out, _ = invoke(capsys, "index", "--input", str(path))
    payload = json.loads(out)
    assert code == 0
    assert payload["delta_sq"] == "0"
    assert payload["lambda"] is None
    cert = torus_index(parse_form("r=1 d=2\n1 1 1\n"))
    assert cert.semistable_for_torus
    assert payload == {"r": 1, "d": 2, **serialize.cert_encode(cert)}


def test_destab_round_trips_through_the_parser(capsys, cubic_file):
    code, out, _ = invoke(capsys, "destab", "--input", cubic_file, "--N", "2")
    assert code == 0
    bigger = parse_form(out)
    assert bigger.d == 3 + 2 * 2
    assert bigger.terms == {
        (1, 3, 3): Fraction(1),
        (0, 5, 2): Fraction(1),
    }
    code, out, _ = invoke(
        capsys, "destab", "--input", cubic_file, "--N", "2", "--json"
    )
    payload = json.loads(out)
    assert payload["N"] == 2 and payload["d"] == 7
    assert {"coeff": "1", "exponents": [0, 5, 2]} in payload["terms"]


def test_threshold_text_prints_the_number_first(capsys):
    code, out, _ = invoke(capsys, "threshold", "-r", "1", "-d", "2")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "3"
    assert any("least separating N" in line for line in lines[1:])


def test_threshold_json(capsys):
    code, out, _ = invoke(capsys, "threshold", "-r", "2", "-d", "3", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["threshold"] == separation_threshold(2, 3)
    assert all(set(p) == {"m", "m_prime", "min_N"} for p in payload["pairs"])


def test_bands_membership_is_unique_at_threshold(capsys):
    # support point of (x_0 x_1) * x_1^3, a form with a simple point at the origin
    code, out, _ = invoke(
        capsys, "bands", "-r", "1", "-d", "2", "--N", "3", "--point", "1,4"
    )
    payload = json.loads(out)
    assert code == 0
    hits = [entry["m"] for entry in payload["memberships"] if entry["contains"]]
    assert hits == [1]
    assert len(payload["memberships"]) == 3


def test_bands_single_m_flag(capsys):
    code, out, _ = invoke(
        capsys,
        "bands", "-r", "1", "-d", "2", "--N", "3", "--point", "1,4", "--m", "2",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["memberships"] == [
        {
            "m": 2,
            "contains": False,
            "l_sq": serialize.frac_str(l_squared(1, 2, 3, 2)),
        }
    ]


def test_classify_agrees_and_round_trips(capsys, cubic_file):
    code, out, _ = invoke(
        capsys, "classify", "--input", cubic_file, "--point", "1,0,0", "--N", "auto"
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["m_band"] == 2 and payload["agreed"] is True
    report = classify_at_origin(parse_form(CUBIC_TEXT), "auto")
    assert payload == serialize.report_encode(report)


def test_classify_default_point_is_the_origin(capsys, cubic_file):
    code, out, _ = invoke(capsys, "classify", "--input", cubic_file)
    assert code == 0
    assert json.loads(out)["m_band"] == 2


def test_verify_small_run(capsys):
    code, out, _ = invoke(
        capsys,
        "verify", "-r", "1", "-d", "2", "--count", "4", "--seed", "11",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["total"] == 3 * 4
    assert payload["failed"] == 0 and payload["failures"] == []
    summary = verify_theorem_main(1, 2, "auto", count=4, seed=11)
    assert payload == serialize.summary_encode(summary)


def test_gen_is_deterministic_and_parseable(capsys):
    args = ("gen", "-r", "2", "-d", "3", "--m", "1", "--count", "3", "--seed", "7")
    code_a, out_a, _ = invoke(capsys, *args)
    code_b, out_b, _ = invoke(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    assert "# corpus form 0" in out_a
    code, out, _ = invoke(capsys, *args, "--json")
    payload = json.loads(out)
    assert len(payload["forms"]) == 3
    for text in payload["forms"]:
        form = parse_form(text)
        assert form.d - max(e[0] for e in form.terms) == 1


def test_bound_pins_a_coordinate_power(capsys, square_file):
    code, out, _ = invoke(capsys, "bound", "--input", square_file, "--point", "1,0")
    payload = json.loads(out)
    assert code == 0
    assert payload["lower"] == payload["upper"] == "2"
    assert payload["max_mult"] == 2 and payload["within"] is True
    assert payload["label"]["lambda_rep"] == [1, -1]
    form = parse_form(SQUARE_TEXT)
    points = [ProjPoint.parse("1,0")]
    _, cert = worst_frame_search(form, default_frames(1, points[0], 1))
    label = StratumLabel.from_certificate(cert)
    assert payload["label"] == serialize.label_encode(label)
    result = serialize.bound_encode(bound_check(form, label, points))
    assert {key: payload[key] for key in result} == result


def test_bound_fails_without_a_maximal_candidate(capsys, square_file):
    code, out, _ = invoke(capsys, "bound", "--input", square_file, "--point", "1,1")
    payload = json.loads(out)
    assert code == 1
    assert payload["within"] is False


def test_bound_rejects_semistable_forms(capsys, tmp_path):
    path = tmp_path / "ss.form"
    path.write_text("r=1 d=2\n1 1 1\n")
    code, _, err = invoke(capsys, "bound", "--input", str(path), "--point", "1,0")
    assert code == 2
    assert "delta_sq = 0" in err


@pytest.mark.parametrize(
    "command, points",
    [("mult", ["-1,0,0"]), ("classify", ["-1,0,0"]), ("bound", ["1,0", "-1,2"])],
)
def test_point_with_a_negative_leading_coordinate(
    capsys, cubic_file, square_file, command, points
):
    base = [command, "--input", square_file if command == "bound" else cubic_file]
    spaced = base + [arg for p in points for arg in ("--point", p)]
    attached = base + [f"--point={p}" for p in points]
    code, out, err = invoke(capsys, *spaced)
    assert code == 0, err
    assert invoke(capsys, *attached)[:2] == (code, out)


# ---------------------------------------------------------------- errors

def test_parse_errors_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.form"
    path.write_text("r=2 d=3\n1 1 1\n")
    code, _, err = invoke(capsys, "mult", "--input", str(path), "--point", "1,0,0")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("coeff", ["1e10000000", "1_0", "1.5"])
def test_numbers_outside_the_grammar_exit_2(capsys, tmp_path, square_file, coeff):
    path = tmp_path / "bad.form"
    path.write_text(f"r=1 d=2\n{coeff} 0 2\n")
    code, out, err = invoke(capsys, "index", "--input", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: bad coefficient") and coeff in err
    code, out, err = invoke(capsys, "mult", "--input", square_file, "--point", f"{coeff},1")
    assert code == 2 and out == ""
    assert err.startswith("error: bad point") and coeff in err


def test_missing_file_exits_2(capsys):
    code, _, err = invoke(capsys, "index", "--input", "/nonexistent.form")
    assert code == 2 and "cannot read" in err


def test_classify_below_threshold_exits_2(capsys, cubic_file):
    code, _, err = invoke(
        capsys, "classify", "--input", cubic_file, "--N", "1"
    )
    assert code == 2
    assert str(separation_threshold(2, 3)) in err


def test_usage_errors_exit_2(capsys):
    assert run(["threshold", "-r", "1"]) == 2  # missing -d
    capsys.readouterr()
    assert run(["nonsense"]) == 2
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hypermult", "threshold", "-r", "1", "-d", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "3"


# ------------------------------------------------------- serialization

def test_report_encoding_survives_json(capsys):
    # rationals travel as "p/q" strings that Fraction reads back exactly
    form = parse_form(CUBIC_TEXT)
    report = classify_at_origin(form, "auto")
    encoded = serialize.report_encode(report)
    wire = json.loads(json.dumps(encoded))
    assert wire == encoded
    cert = wire["cert"]
    assert tuple(Fraction(x) for x in cert["q"]) == report.cert.q
    assert tuple(Fraction(x) for x in cert["w"]) == report.cert.w
    assert Fraction(cert["delta_sq"]) == report.cert.delta_sq
    assert [
        (tuple(item["point"]), Fraction(item["weight"])) for item in cert["hull_weights"]
    ] == list(report.cert.hull_weights)


def test_summary_encoding_survives_json():
    summary = verify_theorem_main(1, 2, 3, count=2, seed=0)
    encoded = serialize.summary_encode(summary)
    assert json.loads(json.dumps(encoded)) == encoded
    assert (encoded["total"], encoded["passed"], encoded["failed"]) == (
        summary.total,
        summary.passed,
        summary.failed,
    )
