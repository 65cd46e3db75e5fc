import argparse
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hypermult import (
    HomogeneousForm,
    OneParamSubgroup,
    ProjPoint,
    StratumLabel,
    act,
    bound_check,
    classify_at_origin,
    default_frames,
    destabilize,
    gen_corpus,
    l_squared,
    pair_minima,
    parse_form,
    point_image,
    separation_threshold,
    torus_index,
    verify_theorem_main,
    worst_frame_search,
)
from hypermult import _linalg, classifier, cli, forms, hesselink, serialize
from hypermult.forms import MAX_DEN_BITS, Frame
from hypermult.hesselink import MAX_FRAMES
from hypermult.forms import MAX_DIM
from hypermult.cli import run
from oracle import (
    binary_index_oracle,
    family_members,
    identity_frame,
    run_every_subcommand_oracle,
    worst_frame_search_oracle,
)
from workload_digest import load_workloads

CUBIC_TEXT = "r=2 d=3\n1 1 1 1\n1 0 3 0\n"
SQUARE_TEXT = "r=1 d=2\n1 0 2\n"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def wire(payload):
    """What the CLI's JSON writer makes of payload, read back."""
    return json.loads(serialize.dumps(payload))


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


def test_mult_at_a_large_exponent(capsys, tmp_path):
    path = tmp_path / "high.form"
    path.write_text("r=1 d=3000\n1 0 3000\n2 1500 1500\n")
    code, out, err = invoke(capsys, "mult", "--input", str(path), "--point", "1,0")
    assert (code, out.strip(), err) == (0, "1500", "")


def test_index_reports_certificate(capsys, square_file):
    code, out, _ = invoke(capsys, "index", "--input", square_file)
    payload = json.loads(out)
    assert code == 0
    assert payload["delta_sq"] == "2"
    assert payload["lambda"] == [-1, 1]
    cert = torus_index(parse_form(SQUARE_TEXT))
    assert payload == wire({"r": 1, "d": 2, **serialize.cert_encode(cert)})


def test_index_semistable_has_null_lambda(capsys, tmp_path):
    path = tmp_path / "ss.form"
    path.write_text("r=1 d=2\n1 1 1\n")
    code, out, _ = invoke(capsys, "index", "--input", str(path))
    payload = json.loads(out)
    assert code == 0
    assert payload["delta_sq"] == "0"
    assert payload["lambda"] is None
    cert = torus_index(parse_form("r=1 d=2\n1 1 1\n"))
    assert cert.delta_sq == 0
    assert payload == wire({"r": 1, "d": 2, **serialize.cert_encode(cert)})


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


@pytest.mark.parametrize("extra", [(), ("--json",)])
def test_threshold_refuses_too_many_pairs_at_once(capsys, monkeypatch, extra):
    least_n = hesselink.pair_separation_min_N
    calls = []

    def few_pairs(*args):
        # the threshold itself takes one pair; listing would take 5 * 10**17
        calls.append(args)
        assert len(calls) <= 1, "the pair list was started"
        return least_n(*args)

    monkeypatch.setattr(hesselink, "pair_separation_min_N", few_pairs)
    code, out, err = invoke(capsys, "threshold", "-r", "1", "-d", "1000000000", *extra)
    assert code == 2 and out == ""
    assert err == f"error: d=1000000000 gives more than {hesselink.MAX_PAIRS} band pairs to list\n"


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
            "l_sq": wire(l_squared(1, 2, 3, 2)),
        }
    ]
    assert Fraction(payload["memberships"][0]["l_sq"]) == l_squared(1, 2, 3, 2)


def test_bands_lists_at_most_max_pairs_bands(capsys, monkeypatch):
    monkeypatch.setattr(hesselink, "MAX_PAIRS", 4)
    code, out, _ = invoke(capsys, "bands", "-r", "1", "-d", "3", "--point", "1,4")
    assert code == 0 and len(json.loads(out)["memberships"]) == 4
    code, out, err = invoke(capsys, "bands", "-r", "1", "-d", "4", "--point", "1,4")
    assert (code, out) == (2, "") and err.startswith("error: d=4 ")
    code, out, _ = invoke(capsys, "bands", "-r", "1", "-d", "4", "--point", "1,4", "--m", "3")
    assert code == 0 and len(json.loads(out)["memberships"]) == 1


def test_bands_refuses_a_huge_listing_before_any_row(capsys, monkeypatch):
    calls = []

    def counted(*args):
        # a billion rows would not end; fail at the first
        calls.append(args)
        assert len(calls) == 0, "a band row was computed"

    monkeypatch.setattr(hesselink, "l_squared", counted)
    code, out, err = invoke(capsys, "bands", "-r", "1", "-d", "1000000000", "--point=1,2")
    assert (code, out, calls) == (2, "", [])
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_bands_takes_any_point_of_the_hyperplane_even_zero(capsys, cubic_file):
    # the exponent-space point is not projective: the zero vector is one
    code, out, _ = invoke(capsys, "bands", "-r", "1", "-d", "2", "--point", "0,0")
    payload = json.loads(out)
    assert code == 0 and payload["point"] == ["0", "0"]
    assert [entry["contains"] for entry in payload["memberships"]] == [False] * 3
    code, out, err = invoke(capsys, "bands", "-r", "1", "-d", "2", "--point", "0,1.5")
    assert (code, out) == (2, "") and err.startswith("error: bad point '0,1.5': ")
    # the projective points of the other commands still refuse zero
    for cmd in ("mult", "classify", "bound"):
        code, out, err = invoke(capsys, cmd, "--input", cubic_file, "--point", "0,0,0")
        assert (code, out) == (2, "")
        assert err == "error: bad point '0,0,0': projective point cannot be the zero vector\n"


def test_bands_refuses_an_answer_past_the_digit_limit(capsys):
    # 2,200 digits fit the common denominator limit, but dist_sq's
    # denominator, the square of q, has about 4,400 digits to write
    q = 10**2199 + 1
    code, out, err = invoke(capsys, "bands", "-r", "1", "-d", "2", "--m", "0", "--point", f"1/{q},0")
    assert (code, out) == (2, "")
    assert err == f"error: a rational in the answer exceeds {sys.get_int_max_str_digits()} digits\n"


BIG_D = 10**2500  # its threshold, and a destabilized degree, have about 5,000 digits
TOO_LONG = f"error: a rational in the answer exceeds {sys.get_int_max_str_digits()} digits\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (["classify"], TOO_LONG),
        (["destab", "--N", "auto"], TOO_LONG),
        (["destab", "--N", "auto", "--json"], TOO_LONG),
        (
            ["classify", "--N", "5"],
            f"error: N=5 is below the separation threshold (over 4300 digits) for r=2, "
            f"d={BIG_D}; bands may overlap, refusing to classify\n",
        ),
    ],
    ids=["classify", "destab", "destab-json", "classify-N"],
)
def test_a_number_past_the_digit_limit_ends_in_one_error_line(capsys, tmp_path, argv, err):
    path = tmp_path / "big.form"
    path.write_text(f"r=2 d={BIG_D}\n1 {BIG_D} 0 0\n")
    assert invoke(capsys, *argv, "--input", str(path)) == (2, "", err)


def test_verify_names_a_corpus_past_the_digit_limit(capsys):
    nines = "9" * 4000
    code, out, err = invoke(capsys, "verify", "-r", "1", "-d", nines, "--count", nines)
    assert (code, out) == (2, "")
    assert err == (
        "error: corpus size forms x (r+1) = (over 4300 digits) x 2 is above the limit of "
        f"{classifier.MAX_CORPUS}\n"
    )


def test_a_refusal_writes_a_number_within_the_digit_limit_in_full():
    limit = sys.get_int_max_str_digits()
    assert _linalg.shown(10**limit - 1) == "9" * limit
    assert _linalg.shown(-(10**limit)) == f"(over {limit} digits)"


BIG = 10**5000
ONE_TERM = HomogeneousForm(1, 2, {(1, 1): 1})


@pytest.mark.parametrize(
    "call",
    [
        lambda: gen_corpus(1, 2, 1, Fraction(BIG, 3), 0),
        lambda: destabilize(ONE_TERM, Fraction(BIG, 3)),
        lambda: HomogeneousForm(1, 2, {(BIG, 0): 1}),
        lambda: HomogeneousForm(1, BIG, {(1, 1): 1}),
        lambda: HomogeneousForm(1, 2, {(1, 1): [BIG]}),
        lambda: HomogeneousForm(BIG, 2, {(1, 1): 1}),
        lambda: ProjPoint(([BIG], 1)),
        lambda: Frame(((Fraction(BIG, 3), 0), (0, 1))),
        lambda: OneParamSubgroup((Fraction(BIG, 3), 1)),
        lambda: pair_minima(1, BIG),
        lambda: default_frames(1, ProjPoint.origin(1), BIG),
        lambda: default_frames(BIG, ProjPoint.origin(1), 1),
        lambda: hesselink.unique_band((1, 1), 1, BIG, 3),
        lambda: classify_at_origin(ONE_TERM, Fraction(BIG, 3)),
        lambda: verify_theorem_main(BIG, 2, 0, 1, 0),
        lambda: verify_theorem_main(BIG, 2, "auto", 1, 0),
        lambda: gen_corpus(1, BIG, 0, 1, 0),
        lambda: gen_corpus(1, 3, 0, 1, BIG),
        lambda: verify_theorem_main(1, 2, "auto", 1, BIG),
    ],
    ids=[
        "check_ints", "destabilize", "exponent", "degree", "exact-form", "exponent-length",
        "exact-point", "frame-entry", "weight", "pair_minima", "budget", "budget-r",
        "unique_band", "classify-N", "verify-r", "corpus-r", "seed-d", "seed", "verify-seed",
    ],
)
def test_a_library_refusal_names_a_number_past_the_digit_limit_in_its_own_words(call):
    with pytest.raises(ValueError) as err:
        call()
    assert f"(over {sys.get_int_max_str_digits()} digits)" in str(err.value)
    assert "Exceeds the limit" not in str(err.value)


def test_a_row_under_the_longest_header_r_names_its_length_in_words(capsys, tmp_path):
    # r has as many digits as int() reads, so r + 1 has one more
    limit = sys.get_int_max_str_digits()
    path = tmp_path / "long-r.form"
    path.write_text("r=" + "9" * limit + " d=1\n1 0 0\n")
    assert invoke(capsys, "index", "--input", str(path)) == (
        2, "", f"error: row '1 0 0' needs a coefficient and (over {limit} digits) exponents\n"
    )


HIGH_DEGREE = HomogeneousForm(2, 10**400, {(10**400, 0, 0): 1})  # its threshold has 800 digits
BELOW_HIGH_THRESHOLD = (
    "N=5 is below the separation threshold (over 640 digits) for r=2, "
    f"d={10**400}; bands may overlap, refusing to classify"
)


def test_a_refusal_reads_the_live_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(ValueError) as err:
            classify_at_origin(HIGH_DEGREE, 5)
        message = str(err.value)
    finally:
        sys.set_int_max_str_digits(limit)
    assert message == BELOW_HIGH_THRESHOLD


def test_the_cli_reads_the_digit_limit_of_its_environment(tmp_path):
    path = tmp_path / "high.form"
    path.write_text(HIGH_DEGREE.to_text())
    proc = subprocess.run(
        [sys.executable, "-m", "hypermult", "classify", "--N", "5", "--input", str(path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONINTMAXSTRDIGITS": "640"},
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {BELOW_HIGH_THRESHOLD}\n"


def test_a_refusal_quotes_a_value_within_the_digit_limit_by_its_text():
    with pytest.raises(ValueError) as err:
        Frame(((Fraction(3, 2), 0), (0, 1)))
    assert str(err.value) == "'3/2' is not an integer"
    with pytest.raises(ValueError) as err:
        classify_at_origin(ONE_TERM, Fraction(3, 2))
    assert str(err.value) == "N must be an integer or 'auto', got '3/2'"


def test_bands_checks_the_point_before_the_barycenter(capsys, monkeypatch):
    calls = []

    def counted(*args):
        # a barycenter of r+1 = 10^9 entries would exhaust memory
        calls.append(args)
        assert len(calls) == 0, "a barycenter was built"

    monkeypatch.setattr(cli, "barycenter", counted)
    code, out, err = invoke(
        capsys, "bands", "-r", "1000000000", "-d", "2", "--N", "5", "--point", "1,2", "--m", "0"
    )
    assert (code, out, calls) == (2, "", [])
    assert err == "error: point dimension must be r+1\n"


def test_classify_agrees_and_round_trips(capsys, cubic_file):
    code, out, _ = invoke(
        capsys, "classify", "--input", cubic_file, "--point", "1,0,0", "--N", "auto"
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["m_band"] == 2 and payload["agreed"] is True
    report = classify_at_origin(parse_form(CUBIC_TEXT), "auto")
    assert payload == wire(serialize.report_encode(report))


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
    assert payload == wire(asdict(summary))


def test_classify_and_verify_report_a_missing_band(capsys, monkeypatch, cubic_file):
    # unreachable at N >= threshold, so forced
    monkeypatch.setattr(classifier, "unique_band", lambda *args: None)
    code, out, _ = invoke(capsys, "classify", "--input", cubic_file)
    payload = json.loads(out)
    assert (code, payload["m_band"], payload["band"]) == (1, None, None)
    report = classify_at_origin(parse_form(CUBIC_TEXT), "auto")
    assert payload["diagnostics"] == wire(serialize.report_encode(report))["diagnostics"]
    assert len(payload["diagnostics"]) == 4
    code, out, _ = invoke(capsys, "verify", "-r", "1", "-d", "2", "--count", "2")
    payload = json.loads(out)
    assert code == 1 and payload["total"] == payload["failed"] == 6
    assert [(f["m"], f["index"], f["m_band"]) for f in payload["failures"]] == [
        (m, i, None) for m in range(3) for i in range(2)
    ]


@pytest.mark.parametrize(
    "argv",
    [
        "gen -r 1000000000 -d 1 --m 0 --count 1",
        "gen -r 1 -d 2 --m 1 --count 1000000000",
        "verify -r 1 -d 1000000000 --count 1",
    ],
)
def test_oversized_corpora_are_refused_before_any_form(capsys, monkeypatch, argv):
    calls = []

    def counted(*args):
        # every generated form draws a composition; fail at the first
        calls.append(args)
        assert len(calls) == 0, "a corpus form was generated"

    monkeypatch.setattr(classifier, "_composition", counted)
    code, out, err = invoke(capsys, *argv.split())
    assert (code, out, calls) == (2, "", [])
    assert len(err.splitlines()) == 1 and err.startswith("error: corpus size ")


@pytest.mark.parametrize("jobs", ["0", "-3", "2"])
def test_verify_refuses_fewer_than_one_job_before_any_form(capsys, monkeypatch, jobs):
    # verify runs in one process and takes no --jobs, whatever its value
    calls = []

    def counted(*args):
        calls.append(args)
        assert len(calls) == 0, "a corpus form was generated"

    monkeypatch.setattr(classifier, "_composition", counted)
    code, out, err = invoke(capsys, "verify", "-r", "1", "-d", "2", "--count", "1", "--jobs", jobs)
    assert (code, out, calls) == (2, "", [])
    assert err.startswith("usage: hypermult ")
    assert err.endswith(f"hypermult: error: unrecognized arguments: --jobs {jobs}\n")


def test_verify_refuses_a_count_of_zero_and_gen_allows_it(capsys):
    code, out, err = invoke(capsys, "verify", "-r", "1", "-d", "3", "--count", "0")
    assert (code, out, err) == (2, "", "error: count must be at least 1\n")
    code, out, err = invoke(capsys, "gen", "-r", "1", "-d", "3", "--m", "1", "--count", "0", "--json")
    assert (code, json.loads(out)["forms"], err) == (0, [], "")


def test_a_huge_bad_n_gets_a_short_error(capsys, cubic_file):
    # 5,000 nines pass int()'s syntax but not its digit limit, and the
    # error quotes only a prefix of them
    code, out, err = invoke(capsys, "classify", "--input", cubic_file, "--N", "9" * 5000)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and len(err) < 200
    assert err.startswith("error: --N must be an integer or 'auto', got '999")


@pytest.mark.parametrize(
    "degree", ["9" * 5000, "1_0", "\u0663"], ids=["5000-nines", "underscore", "arabic-indic-3"]
)
def test_integer_options_take_ascii_digits_only(capsys, degree):
    # int() takes the last two (as 10 and 3) and quotes all of the first in
    # its error; the options read an optional sign, then digits 0-9
    code, out, err = invoke(capsys, "threshold", "-r", "1", "-d", degree)
    assert (code, out) == (2, "")
    assert len(err.encode()) < 400 and "argument -d: expected an integer" in err


@pytest.mark.parametrize("argv", [
    "destab --input {cubic} --N -1",
    "bands -r 2 -d 3 --N -1 --point 1,7,4",
    "classify --input {cubic} --N -1",
    "verify -r 2 -d 3 --N -1",
    # --N is read before --input
    "destab --input {missing} --N -1",
    "classify --input {missing} --N -1",
])
def test_a_negative_n_gets_one_message_everywhere(capsys, cubic_file, tmp_path, argv):
    missing = tmp_path / "missing.form"
    code, out, err = invoke(capsys, *argv.format(cubic=cubic_file, missing=missing).split())
    assert (code, out, err) == (2, "", "error: --N must be nonnegative, got '-1'\n")


@pytest.mark.parametrize("argv", [
    "destab --input {missing} --N 4",
    "classify --input {missing} --N 0",  # before classify's own check of N
])
def test_a_missing_input_is_reported_once_n_is_read(capsys, tmp_path, argv):
    missing = tmp_path / "missing.form"
    code, out, err = invoke(capsys, *argv.format(missing=missing).split())
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {missing}: ") and err.count("\n") == 1


def test_a_form_file_past_the_limit_is_refused_before_parsing(capsys, monkeypatch, tmp_path):
    path = tmp_path / "big.form"
    path.write_text(SQUARE_TEXT + "#" * (cli.MAX_INPUT_CHARS + 1 - len(SQUARE_TEXT)), encoding="utf-8")

    def no_parse(text):
        raise AssertionError("the file was parsed")

    monkeypatch.setattr(cli, "parse_form", no_parse)
    code, out, err = invoke(capsys, "index", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: cannot read {path}: more than {cli.MAX_INPUT_CHARS:,} characters\n"


def test_a_form_file_at_the_limit_is_parsed(capsys, tmp_path):
    path = tmp_path / "full.form"
    path.write_text(SQUARE_TEXT + "#" * (cli.MAX_INPUT_CHARS - len(SQUARE_TEXT)), encoding="utf-8")
    code, _, err = invoke(capsys, "index", "--input", str(path))
    assert (code, err) == (0, "")


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
    assert payload["label"] == wire(serialize.label_encode(label))
    result = wire(serialize.bound_encode(bound_check(form, label, points)))
    assert {key: payload[key] for key in result} == result


# README's quintic.form: x1^3 (x0 - x1)(x0 - 2 x1), a triple point at [1:0]
QUINTIC_TEXT = "r=1 d=5\n1 2 3\n-3 1 4\n2 0 5\n"


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_bound_skips_dominated_frames_with_the_same_output(capsys, monkeypatch, tmp_path):
    path = tmp_path / "quintic.form"
    path.write_text(QUINTIC_TEXT)
    argv = ("bound", "--input", str(path), "--point", "1,0", "--budget", "1")
    # the plain loop projects every frame
    monkeypatch.setattr(hesselink, "worst_frame_search",
                        lambda f, family: worst_frame_search_oracle(f, family_members(family)))
    expected = invoke(capsys, *argv)
    monkeypatch.undo()
    projected = _count_calls(monkeypatch, hesselink, "torus_index")
    code, out, err = invoke(capsys, *argv)
    assert (code, out, err) == expected and code == 0
    assert 0 < len(projected) < json.loads(out)["frames_searched"] == 3


@pytest.mark.parametrize("command", [
    ("mult", "--point", "1,0"),
    ("classify", "--point", "1,0"),
    ("bound", "--point", "1,0"),
    ("bound", "--point", "1,0,0", "--point", "1,0"),
    ("bands", "-r", "2", "-d", "3", "--N", "4", "--point", "1,0"),
])
def test_a_point_of_the_wrong_dimension_reads_alike(capsys, monkeypatch, cubic_file, command):
    # bound checks every point before it builds and searches the family
    projected = _count_calls(monkeypatch, hesselink, "torus_index")
    name, *rest = command
    argv = [name] + ([] if name == "bands" else ["--input", cubic_file]) + rest
    code, out, err = invoke(capsys, *argv)
    assert (code, out, err) == (2, "", "error: point dimension must be r+1\n")
    assert projected == []


@pytest.mark.parametrize(
    "command",
    [("mult",), ("classify",), ("bound",), ("bands", "-r", "1", "-d", "2", "--m", "0")],
    ids=["mult", "classify", "bound", "bands"],
)
def test_a_point_is_refused_by_its_length_before_its_coordinates_are_read(
    capsys, monkeypatch, square_file, command
):
    name, *rest = command
    argv = [name] + ([] if name == "bands" else ["--input", square_file]) + rest
    wrong = (2, "", "error: point dimension must be r+1\n")
    # a bad coordinate and a wrong length: the length is named
    assert invoke(capsys, *argv, "--point", "1,x,2") == wrong

    def no_read(*args):
        raise AssertionError("the coordinates were read")

    monkeypatch.setattr(forms, "parse_coords", no_read)
    monkeypatch.setattr(cli, "parse_coords", no_read)
    assert invoke(capsys, *argv, "--point", "1" + ",1" * 100_000) == wrong


def test_bound_fails_without_a_maximal_candidate(capsys, square_file):
    code, out, _ = invoke(capsys, "bound", "--input", square_file, "--point", "1,1")
    payload = json.loads(out)
    assert code == 1
    assert payload["within"] is False


def test_bound_attains_the_binary_index_on_the_benchmark_forms(capsys, tmp_path):
    # at r=1 the largest delta_sq over all frames is 2*max(0, m_max - d/2)^2,
    # and every r=1 bound-frames form has one root of multiplicity m > d/2.
    # The workload's anchors are all coordinate points, where the form is
    # already worst, so each form is also asked after a move off them.
    bound_frames = load_workloads().WORKLOADS["bound-frames"]
    path = tmp_path / "binary.form"
    seen = 0
    for seed in (1, 2, 3):
        for req in bound_frames(seed):
            form = parse_form(req.form_text)
            if form.r != 1:
                continue
            m_max, delta_sq = binary_index_oracle(form)
            point = ProjPoint.parse(req.extra[0].removeprefix("--point="))
            for g in (identity_frame(2), Frame([[2, 1], [1, 1]])):
                path.write_text(act(g, form).to_text())
                at = "--point=" + ",".join(map(str, point_image(g, point).primitive()))
                code, out, err = invoke(capsys, "bound", "--input", str(path), at, *req.extra[1:])
                assert code == 0, err
                payload = json.loads(out)
                assert m_max == payload["max_mult"] == req.expect["m"]
                assert Fraction(payload["label"]["delta_sq"]) == delta_sq
            seen += 1
    assert seen == 297


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


@pytest.mark.parametrize("prefix", ["--p", "--po", "--poi", "--poin"])
@pytest.mark.parametrize(
    "base, points",
    [
        (["mult", "--input", "{cubic}"], ["-1,0,0"]),
        (["bands", "-r", "1", "-d", "2", "--m", "1"], ["-1,3"]),
        (["bound", "--input", "{square}"], ["-1,0", "-1,2"]),
    ],
    ids=["mult", "bands", "bound"],
)
def test_a_prefix_of_point_takes_a_negative_value_as_point_does(
    capsys, cubic_file, square_file, prefix, base, points
):
    # argparse expands the prefix to --point, so it takes its value the same way
    base = [arg.format(cubic=cubic_file, square=square_file) for arg in base]
    code, out, err = invoke(capsys, *base, *(arg for p in points for arg in (prefix, p)))
    assert code == 0, err
    assert invoke(capsys, *base, *(f"--point={p}" for p in points))[:2] == (code, out)


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


@pytest.mark.parametrize(
    "text",
    [
        "r=1 d=10\n1 1_0 0\n",
        "r=1 d=2\n1 +2 0\n",
        "r=1 d=2\n1 \u0662 0\n",
        "r=\u0661 d=2\n1 2 0\n",
    ],
    ids=["underscore", "plus-sign", "arabic-indic-row", "arabic-indic-header"],
)
def test_exponents_and_header_outside_the_grammar_exit_2(capsys, tmp_path, text):
    path = tmp_path / "bad.form"
    path.write_text(text, encoding="utf-8")
    code, out, err = invoke(capsys, "index", "--input", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: bad")


@pytest.mark.parametrize(
    "text, r, d, terms, message",
    [
        ("r=0 d=2\n1 2\n", 0, 2, {(2,): 1}, "need at least two variables (r >= 1)"),
        ("r=1 d=0\n1 0 0\n", 1, 0, {(0, 0): 1}, "degree must be positive"),
        ("r=1 d=2\n# no rows\n", 1, 2, {}, "a form must have at least one term"),
        ("r=1 d=2\n2 2 0\n1 1 1\n-1 1 1\n", 1, 2, {(2, 0): 2, (1, 1): 0},
         "zero coefficient for exponent '(1, 1)'"),
        # the two rows are summed over the lcm 4 of their denominators
        ("r=1 d=2\n1/2 1 1\n-2/4 1 1\n", 1, 2, {(1, 1): Fraction(1, 2) - Fraction(2, 4)},
         "zero coefficient for exponent '(1, 1)'"),
        ("r=1 d=2\n0 2 0\n", 1, 2, {(2, 0): 0}, "zero coefficient for exponent '(2, 0)'"),
        ("r=1 d=2\n1 0 2\n3/2 1 0\n", 1, 2, {(0, 2): 1, (1, 0): Fraction(3, 2)},
         "exponent vector '(1, 0)' must sum to degree 2"),
    ],
    ids=["r0", "d0", "no-rows", "rows-cancel", "rows-cancel-over-lcm", "zero-row", "bad-sum"],
)
def test_form_invariant_violations_give_one_message(capsys, tmp_path, text, r, d, terms, message):
    path = tmp_path / "bad.form"
    path.write_text(text)
    assert invoke(capsys, "index", "--input", str(path)) == (2, "", f"error: {message}\n")
    with pytest.raises(ValueError) as err:
        HomogeneousForm(r, d, terms)
    assert str(err.value) == message


def test_a_header_alone_of_a_huge_r_exits_2(capsys, tmp_path):
    path = tmp_path / "header.form"
    path.write_text("r=" + "9" * 4000 + " d=1\n")
    assert invoke(capsys, "index", "--input", str(path)) == (
        2, "", "error: a form must have at least one term\n"
    )


def test_bound_refuses_an_oversized_frame_family(capsys, tmp_path):
    # r=4 at budget 1 would search 3^10 = 59049 frames
    path = tmp_path / "quadric.form"
    path.write_text("r=4 d=2\n1 0 2 0 0 0\n")
    code, out, err = invoke(capsys, "bound", "--input", str(path), "--point", "1,0,0,0,0")
    assert code == 2 and out == ""
    assert err.startswith("error:") and str(MAX_FRAMES) in err


def _large_denominator_rows(pairs):
    """2,000 r=1 rows over distinct random 30-digit denominators (about 84 KB).

    With pairs, rows 1/q and -1/q on neighbouring exponents share each q,
    so their numerators cancel modulo the lcm.
    """
    rng = random.Random(11)
    rows = []
    for i in range(2000):
        if not pairs or i % 2 == 0:
            q = rng.randrange(10**29, 10**30)
        sign = "-" if pairs and i % 2 else ""
        rows.append(f"{sign}1/{q} {i} {2000 - i}\n")
    return "r=1 d=2000\n" + "".join(rows)


@pytest.mark.parametrize("pairs", [False, True], ids=["distinct", "pairs"])
def test_many_large_denominators_exit_2_at_once(capsys, tmp_path, pairs):
    path = tmp_path / "dens.form"
    path.write_text(_large_denominator_rows(pairs))
    start = time.perf_counter()
    code, out, err = invoke(capsys, "index", "--input", str(path))
    assert time.perf_counter() - start < 0.2
    assert code == 2 and out == ""
    message = f"the common denominator has more than {MAX_DEN_BITS} bits"
    assert err == f"error: {message}\n"


def _vertex_simplex(r):
    """The r+1 vertices 2*e_i: the barycenter lies in their hull."""
    rows = [" ".join(["1"] + ["2" if j == i else "0" for j in range(r + 1)]) for i in range(r + 1)]
    return f"r={r} d=2\n" + "\n".join(rows) + "\n"


@pytest.mark.parametrize("command", ["index", "classify"])
def test_more_coordinates_than_max_dim_exit_2_at_once(capsys, tmp_path, command):
    path = tmp_path / "simplex.form"
    path.write_text(_vertex_simplex(200))  # 82 KB; the search did not end in 5 minutes
    start = time.perf_counter()
    code, out, err = invoke(capsys, command, "--input", str(path))
    assert time.perf_counter() - start < 2
    assert (code, out) == (2, "")
    assert err == f"error: projection takes 1 to {MAX_DIM} coordinates, got 201\n"


@pytest.mark.parametrize("command", [
    ("classify", "--point", "1,1" + ",0" * 199),
    ("bound", "--point", "1,1" + ",0" * 199, "--budget", "0"),
    ("mult", "--point", "1,1" + ",0" * 199),
])
def test_a_point_on_more_coordinates_than_max_dim_exits_2_before_the_move(
    capsys, monkeypatch, tmp_path, command
):
    path = tmp_path / "simplex.form"
    path.write_text(_vertex_simplex(200))

    def no_move(*args):
        raise AssertionError("the form was moved")

    # frame_moving_to_origin itself refuses, so patch what it and the move call
    monkeypatch.setattr(forms, "_unimodular_completion", no_move)
    monkeypatch.setattr(forms, "act", no_move)
    code, out, err = invoke(capsys, command[0], "--input", str(path), *command[1:])
    assert (code, out) == (2, "")
    assert err == f"error: projection takes 1 to {MAX_DIM} coordinates, got 201\n"


@pytest.mark.parametrize("command", [("mult",), ("classify",), ("bound", "--budget", "0")])
def test_a_long_point_is_refused_by_its_length_before_its_primitive(
    capsys, monkeypatch, square_file, command
):
    # 2,000 distinct 30-digit denominators, whose primitive takes seconds:
    # the length alone refuses the point
    rng = random.Random(0)
    point = ",".join(f"1/{rng.randrange(10**29, 10**30)}" for _ in range(2000))

    def no_primitive(*args):
        raise AssertionError("a primitive was computed")

    monkeypatch.setattr(_linalg, "primitive", no_primitive)
    code, out, err = invoke(
        capsys, command[0], "--input", square_file, f"--point={point}", *command[1:]
    )
    assert (code, out, err) == (2, "", "error: point dimension must be r+1\n")


def test_the_largest_simplex_still_projects(capsys, tmp_path):
    path = tmp_path / "simplex.form"
    path.write_text(_vertex_simplex(MAX_DIM - 1))
    code, out, err = invoke(capsys, "index", "--input", str(path))
    assert code == 0, err
    payload = json.loads(out)
    assert payload["delta_sq"] == "0" and payload["lambda"] is None
    assert [h["weight"] for h in payload["hull_weights"]] == [f"1/{MAX_DIM}"] * MAX_DIM


# 32 bytes whose Taylor shift would build a list of 10^9 + 1 coefficients
HUGE_DEGREE_TEXT = "r=1 d=1000000000\n1 1000000000 0\n"


def _no_shift(monkeypatch):
    def no_shift(*args):
        raise AssertionError("the form was shifted")

    monkeypatch.setattr(forms, "_taylor_shift", no_shift)
    monkeypatch.setattr(hesselink, "_taylor_shift", no_shift)


@pytest.mark.parametrize("command", [
    ("mult", "--point", "1,1"),
    ("classify", "--point", "1,1"),
    ("bound", "--point", "1,0", "--budget", "1"),  # the search shifts at the origin too
])
def test_a_move_of_too_many_possible_terms_exits_2_before_any_shift(
    capsys, monkeypatch, tmp_path, command
):
    path = tmp_path / "huge.form"
    path.write_text(HUGE_DEGREE_TEXT)
    _no_shift(monkeypatch)
    code, out, err = invoke(capsys, command[0], "--input", str(path), *command[1:])
    assert (code, out) == (2, "")
    assert err == "error: a form of r=1 and this degree can have over 262,144 terms once moved\n"


@pytest.mark.parametrize("text, command, times", [
    # one shift of d * C(d+r, r) = 16,004,000: 3.35 s before the limit
    ("r=1 d=4000\n1 4000 0\n1 0 4000\n", ("mult", "--point", "1,1"), "once"),
    # ten Euclid steps and triangular shifts of 1,001,000 each, one of which fits
    ("r=1 d=1000\n1 1000 0\n1 0 1000\n", ("classify", "--point", "233,144"), "10 times"),
    # 21 members of 4,002,000 each: 12.4 s before the limit
    ("r=1 d=2000\n1 2000 0\n1 1999 1\n", ("bound", "--point", "1,1", "--budget", "10"),
     "21 times"),
])
def test_a_move_of_too_much_shift_work_exits_2_before_any_shift(
    capsys, monkeypatch, tmp_path, text, command, times
):
    path = tmp_path / "long.form"
    path.write_text(text)
    _no_shift(monkeypatch)
    code, out, err = invoke(capsys, command[0], "--input", str(path), *command[1:])
    assert (code, out) == (2, "")
    assert err == (
        f"error: moving a form of r=1 and this degree {times} may take over 8,388,608 steps\n"
    )


@pytest.mark.parametrize("digits, command", [
    # one shift by 10^1000 - 1 of only 400 * 401 Horner steps: killed at 60 s before the bound
    (1000, ("mult",)),
    (100, ("mult",)),  # 2.3-2.9 s before the bound
    (100, ("classify",)),
    (100, ("bound", "--budget", "0")),  # the search moves by the mover alone
], ids=["mult-1000-digits", "mult", "classify", "bound"])
def test_a_move_to_long_coordinates_exits_2_before_any_shift(
    capsys, monkeypatch, tmp_path, digits, command
):
    path = tmp_path / "long.form"
    path.write_text("r=1 d=400\n1 400 0\n1 0 400\n")
    _no_shift(monkeypatch)
    point = "--point=" + "9" * digits + ",1"
    code, out, err = invoke(capsys, command[0], "--input", str(path), point, *command[1:])
    assert (code, out) == (2, "")
    assert err == "error: this move may add over 16,384 bits to the coefficients\n"


def test_a_move_of_many_small_shifts_to_long_coordinates_is_answered(capsys, tmp_path):
    # 4,780 shifts by 1 to two consecutive 1,000-digit Fibonacci numbers add
    # at most 2 bits each at d = 2, 9,560 in all
    a, b = 1, 1
    while len(str(a)) < 1000:
        a, b = b, a + b
    path = tmp_path / "conic.form"
    path.write_text("r=1 d=2\n1 2 0\n1 0 2\n")
    assert invoke(capsys, "mult", "--input", str(path), "--point", f"{b},{a}") == (0, "0\n", "")


def test_the_readme_degree_2000_move_is_still_answered(capsys, tmp_path):
    # one shift of 2000 * 2001 = 4,002,000 steps, within forms.MAX_SHIFT_WORK
    path = tmp_path / "long.form"
    path.write_text("r=1 d=2000\n1 0 2000\n")
    assert invoke(capsys, "mult", "--input", str(path), "--point", "1,1") == (0, "0\n", "")


@pytest.mark.parametrize("command, code", [
    (("mult", "--point", "1,0"), 0),
    (("classify",), 0),
    (("bound", "--budget", "0", "--point", "1,0"), 1),  # exit 1: "within" is false
])
def test_a_request_of_no_shift_answers_a_form_of_any_degree(
    capsys, monkeypatch, tmp_path, command, code
):
    path = tmp_path / "huge.form"
    path.write_text(HUGE_DEGREE_TEXT)
    _no_shift(monkeypatch)
    answer = invoke(capsys, command[0], "--input", str(path), *command[1:])
    assert (answer[0], answer[2]) == (code, "")


# Form text mostly in the grammar, with a quarter of each part drawn from
# outside it: headers, coefficients (a sign then p or p/q), exponents and
# --point values.
RATIONAL_TEXT = st.builds(
    lambda sign, p, q: f"{sign}{p}" if q is None else f"{sign}{p}/{q}",
    st.sampled_from(["", "-", "+"]),
    st.integers(1, 30),
    st.one_of(st.none(), st.integers(1, 7)),
)
BAD_NUMBERS = ["0", "-0/3", "3/0", "1.5", "1e3", "1_0", "x", "/2", "3/", "--1", "\u0661", ""]
BAD_EXPONENTS = ["-1", "+2", "1_0", "\u0662", "\u00b2", "x", "2.0", "9"]
BAD_HEADERS = ["", "r=1", "d=2 r=1", "r=-1 d=2", "r=0 d=2", "r=1 d=0", "r=1 d=2 x", "r=1 d=x"]
THREE_IN_FOUR = st.sampled_from((True, True, True, False))


@st.composite
def form_files(draw):
    """(text, point): a form file and a --point value."""

    def mostly(good, bad):
        return draw(good if draw(THREE_IN_FOUR) else st.sampled_from(bad))

    r, d = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    lines = [mostly(st.just(f"r={r} d={d}"), BAD_HEADERS)]
    for _ in range(draw(st.sampled_from(range(5)))):
        cuts = sorted(draw(st.lists(st.integers(0, d), min_size=r, max_size=r)))
        exponents = [str(b - a) for a, b in zip([0] + cuts, cuts + [d])]
        if not draw(THREE_IN_FOUR):
            exponents[draw(st.integers(0, r))] = draw(st.sampled_from(BAD_EXPONENTS))
        if not draw(THREE_IN_FOUR):
            exponents = exponents[1:] if draw(st.booleans()) else exponents + ["0"]
        lines.append(" ".join([mostly(RATIONAL_TEXT, BAD_NUMBERS)] + exponents))
    if draw(st.booleans()):
        lines.append("# a comment")
    size = r + 1 if draw(THREE_IN_FOUR) else draw(st.integers(1, 5))
    point = ",".join(mostly(RATIONAL_TEXT, BAD_NUMBERS) for _ in range(size))
    return "\n".join(lines) + "\n", point


@settings(max_examples=150, deadline=None)
@given(form_files())
def test_cli_on_arbitrary_form_text_exits_0_1_or_2(case):
    text, point = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.form")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        for argv in (
            ["index", "--input", path],
            ["classify", "--input", path],
            ["mult", "--input", path, "--point", point],
            ["bound", "--input", path, "--point", point, "--budget", "0"],
        ):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = run(argv)
            assert code in (0, 1, 2), (argv, text)
            if code == 2:
                assert err.getvalue().startswith("error:"), (argv, text)
                assert err.getvalue().count("\n") == 1, (argv, text, err.getvalue())


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


@pytest.mark.parametrize("name", sorted(cli.COMMANDS))
def test_each_subcommand_has_help(capsys, name):
    code, out, _ = invoke(capsys, name, "--help")
    assert code == 0 and out.startswith(f"usage: hypermult {name} ")


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_a_request_adds_only_its_own_subcommands_arguments(monkeypatch, capsys, square_file, name):
    added, subparsers = [], {}
    add_argument = argparse._ActionsContainer.add_argument
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, *args, **kwargs):
        added.append(args)
        return add_argument(self, *args, **kwargs)

    def recording(self, sub_name, **kwargs):
        subparsers[sub_name] = add_parser(self, sub_name, **kwargs)
        return subparsers[sub_name]

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counting)
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", recording)
    command = cli.COMMANDS[name]
    values = {**GOOD_VALUES, "--input": square_file, "--N": "2" if name == "destab" else "auto"}
    argv = [name]
    for flag in (*command.shared, *command.own):
        argv += [flag] if flag == "--json" else [flag, values[flag]]
    assert invoke(capsys, *argv)[0] == 0
    # one -h for the top parser and one for the named subparser, then its
    # arguments; the other subparsers are a name and a help line
    assert added == [("-h", "--help")] * 2 + [(flag,) for flag in (*command.shared, *command.own)]
    assert list(subparsers) == list(cli.COMMANDS)
    for sub_name, parser in subparsers.items():
        assert ("-h" in parser._option_string_actions) == (sub_name == name)
        assert bool(parser._actions) == (sub_name == name)


ARGV_VALUES = [
    "0", "1", "-1", "x", "auto", "1,0", "-1,2", "1,0,0", "1/2", "",
    "{cubic}", "{square}", "{missing}",
]
ARGV_TOKENS = st.sampled_from([
    *cli.COMMANDS, "nonsense",
    *sorted({flag for c in cli.COMMANDS.values() for flag in (*c.shared, *c.own)}),
    "-h", "--help", "--", "-", "--foo", "--p", "--poin", "--inp", "--j", "--co",
    "--point=1,0", "--json=1", *ARGV_VALUES,
])
# a value each flag accepts, so that some drawn requests reach their handler
GOOD_VALUES = {
    "-r": "1", "-d": "2", "--N": "auto", "--input": "{square}", "--point": "1,0",
    "--m": "1", "--count": "1", "--seed": "0", "--budget": "1",
}


@st.composite
def argvs(draw):
    """Any tokens, or a subcommand with most of its flags, then any tokens."""
    if draw(st.booleans()):
        return draw(st.lists(ARGV_TOKENS, max_size=8))

    def tokens():
        return [] if draw(THREE_IN_FOUR) else draw(st.lists(ARGV_TOKENS, max_size=3))

    name = draw(st.sampled_from(list(cli.COMMANDS)))
    argv = [*tokens(), name]
    command = cli.COMMANDS[name]
    for flag in (*command.shared, *command.own):
        if draw(THREE_IN_FOUR):
            argv.append(flag)
            if flag != "--json":
                argv.append(draw(st.sampled_from([GOOD_VALUES[flag]] * 3 + ARGV_VALUES)))
    return argv + tokens()


@settings(max_examples=300, deadline=None)
@given(argvs())
# -h, or a subcommand's name, where it selects nothing or comes too late
@example(["-h", "classify"])
@example(["nonsense", "-h"])
@example(["--", "index", "-h"])
@example(["classify", "--input", "{cubic}", "index", "-h"])
@example(["bound", "--input", "classify", "-h"])
def test_run_reads_argv_as_a_parser_with_every_subcommand_built(argv):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"missing": os.path.join(tmp, "missing.form")}
        for name, text in (("cubic", CUBIC_TEXT), ("square", SQUARE_TEXT)):
            paths[name] = os.path.join(tmp, f"{name}.form")
            with open(paths[name], "w", encoding="utf-8") as handle:
                handle.write(text)
        argv = [arg.format(**paths) for arg in argv]
        results = []
        for route in (run, run_every_subcommand_oracle):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = route(list(argv))
            results.append((code, out.getvalue(), err.getvalue()))
    assert results[0] == results[1], argv


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
    cert = wire(serialize.report_encode(report))["cert"]
    assert all(isinstance(x, str) for x in [*cert["q"], *cert["w"], cert["delta_sq"]])
    assert tuple(Fraction(x) for x in cert["q"]) == report.cert.q
    assert tuple(Fraction(x) for x in cert["w"]) == report.cert.w
    assert Fraction(cert["delta_sq"]) == report.cert.delta_sq
    assert [
        (tuple(item["point"]), Fraction(item["weight"])) for item in cert["hull_weights"]
    ] == list(report.cert.hull_weights)


def test_dumps_writes_rationals_as_exact_strings():
    values = [Fraction(3), Fraction(-1, 2)]
    text = serialize.dumps({"x": values})
    assert json.loads(text) == {"x": ["3", "-1/2"]}
    assert [Fraction(x) for x in json.loads(text)["x"]] == values


@pytest.mark.parametrize("stray", [{1, 2}, identity_frame(2)], ids=["set", "frame"])
def test_dumps_refuses_values_that_are_not_json(stray):
    with pytest.raises(TypeError):
        serialize.dumps({"x": stray})


def test_summary_encoding_survives_json():
    summary = verify_theorem_main(1, 2, 3, count=2, seed=0)
    encoded = wire(asdict(summary))
    assert list(encoded) == [
        "r", "d", "N", "threshold", "count", "seed", "total", "passed", "failed", "failures",
    ]
    assert (encoded["total"], encoded["passed"], encoded["failed"]) == (
        summary.total,
        summary.passed,
        summary.failed,
    )
