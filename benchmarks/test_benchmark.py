"""Tests of the benchmark itself: inputs, checkers and tracing.

Run from the repository root with `python -m pytest benchmarks`.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import run
import spans
import workloads


def first_of(name: str, seed: int, command_filter=lambda req: True, count: int = 1):
    return [req for req in workloads.WORKLOADS[name](seed) if command_filter(req)][:count]


def answer(req: workloads.Request, tmp_path: Path) -> dict:
    cli = run.import_cli()
    path = tmp_path / "case.form"
    path.write_text(req.form_text, encoding="utf-8")
    code, out, err, _ = run.call(cli, [req.command, "--input", str(path), *req.extra])
    assert code == 0, err
    return json.loads(out)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    run.import_cli()
    first = workloads.WORKLOADS[name](7)
    again = workloads.WORKLOADS[name](7)
    other = workloads.WORKLOADS[name](8)
    assert first == again
    assert [r.form_text for r in first] != [r.form_text for r in other]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_pass_has_enough_requests_for_p90(name):
    run.import_cli()
    assert len(workloads.WORKLOADS[name](1)) >= 100


def test_generated_points_keep_negative_leading_coordinates():
    run.import_cli()
    points = [
        arg for name in workloads.WORKLOADS for req in workloads.WORKLOADS[name](1)
        for arg in req.extra if arg.startswith("--point=")
    ]
    assert any(p.startswith("--point=-") for p in points)


def test_moved_forms_keep_their_multiplicity():
    import random

    from hypermult import ProjPoint, multiplicity_at, parse_form

    rng = random.Random(3)
    for r, d, m in [(1, 5, 3), (2, 4, 3), (3, 4, 2)]:
        terms = {(d - m, m) + (0,) * (r - 1): Fraction(1), (0, d) + (0,) * (r - 1): Fraction(2)}
        image, point = workloads.moved(rng, r, terms)
        form = parse_form(workloads.form_text(r, d, image))
        assert multiplicity_at(form, ProjPoint(point)) == m


def test_classify_checker_rejects_a_wrong_band(tmp_path):
    req = first_of("classify-grid", 1, lambda r: r.expect["m"] > 0)[0]
    out = answer(req, tmp_path)
    assert checks.check_classify(out, req.expect) is None
    out["m_band"] = req.expect["m"] - 1
    assert checks.check_classify(out, req.expect) is not None


@pytest.mark.parametrize("unstable", [False, True])
def test_index_checker_rejects_a_perturbed_q(tmp_path, unstable):
    req = first_of("index-dense", 1, lambda r: r.expect["unstable"] == unstable)[0]
    out = answer(req, tmp_path)
    assert checks.check_index(out, req.expect) is None
    bad = dict(out, q=[str(Fraction(out["q"][0]) + Fraction(1, 7))] + out["q"][1:])
    assert checks.check_index(bad, req.expect) is not None
    weights = [dict(item) for item in out["hull_weights"]]
    weights[0]["weight"] = str(Fraction(weights[0]["weight"]) / 2)
    assert checks.check_index(dict(out, hull_weights=weights), req.expect) is not None
    bad = dict(out, delta_sq=str(Fraction(out["delta_sq"]) + 1))
    assert checks.check_index(bad, req.expect) is not None


def test_bound_checker_rejects_an_out_of_sandwich_bound(tmp_path):
    req = first_of("bound-frames", 1, lambda r: "--budget=1" in r.extra)[0]
    out = answer(req, tmp_path)
    m = req.expect["m"]
    assert checks.check_bound(out, req.expect) is None
    assert checks.check_bound(dict(out, upper=str(m - Fraction(1, 3))), req.expect) is not None
    assert checks.check_bound(dict(out, lower=str(m + Fraction(1, 3))), req.expect) is not None
    assert checks.check_bound(dict(out, max_mult=m + 1), req.expect) is not None
    assert checks.check(req, 1, json.dumps(out)) is not None


def sample(tmp_path: Path, per_workload: int = 6):
    cli = run.import_cli()
    requests = [
        req for name in sorted(workloads.WORKLOADS)
        for req in first_of(name, 2, lambda r: "--budget=2" not in r.extra, per_workload)
    ]
    argvs = []
    for i, req in enumerate(requests):
        path = tmp_path / f"{i}.form"
        path.write_text(req.form_text, encoding="utf-8")
        argvs.append([req.command, "--input", str(path), *req.extra])
    return cli, requests, argvs


def test_traced_and_untraced_stdout_are_identical(tmp_path):
    cli, requests, argvs = sample(tmp_path)
    plain = run.Pass(cli, requests, argvs)
    with spans.Tracer() as tracer:
        traced = run.Pass(cli, requests, argvs, tracer)
    assert not plain.failures and not traced.failures
    assert plain.outs == traced.outs
    metrics = tracer.metrics()
    assert metrics["cli.run.calls"] == len(requests)
    for layer in ("classifier.classify_at_origin", "statepoly.nearest_point",
                  "hesselink.worst_frame_search", "forms.parse_form"):
        assert metrics[f"{layer}.calls"] > 0, layer


def test_trace_calls_repeat_exactly_and_tracer_uninstalls(tmp_path):
    cli, requests, argvs = sample(tmp_path, per_workload=3)
    original = cli.run
    counts = []
    for _ in range(2):
        with spans.Tracer() as tracer:
            run.Pass(cli, requests, argvs, tracer)
        counts.append({k: v for k, v in tracer.metrics().items() if not k.endswith("_ms")})
        assert cli.run is original
    assert counts[0] == counts[1]


def test_benchmark_json_matches_what_the_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.metric_names()
