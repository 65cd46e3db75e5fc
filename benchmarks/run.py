#!/usr/bin/env python3
"""Benchmark of the hypermult CLI over seeded workloads.

Run from the repository root:

    python3 benchmarks/run.py --workload classify-grid --seed 1 --seconds 30 --trace 0

Load model: a closed loop with one client.  One process and one thread send
requests back to back, each the next only after the previous returned, the
way a person or a script uses the CLI.  Requests go through
`hypermult.cli.run(argv)` in-process, because starting an interpreter per
request would cost more than most requests and measure CPython instead.

Set-up imports hypermult afresh from this checkout's `src/`, generates the
workload's `.form` files from the seed and runs a few warm-up requests, so
caches are filled before anything is timed.  The run sends the whole
request list over and over, one pass at a time, until `--seconds` have
passed, finishing the pass in progress.  Set-up is repeated before each of
the first SETUP_REPEATS passes and `setup_s` is its median.  Every response
is checked independently (see checks.py); a non-zero exit, an exception or
a failed check counts as a failed request.

Times are reported at reference speed.  On the shared 2-core machine this
was tuned on, the CPU speed one process sees swings by up to 2x, from second
to second and for minutes at a time, and neither `thread_time` nor steal
time shows it.  So a fixed exact elimination (`reference`, about 1 ms) is
timed before and after every request and every set-up, and each time is
divided by the mean of the two and multiplied by REFERENCE_S: a request
reported as 5 ms took as long as five reference computations.  The program
cannot change the reference, so a faster program reads faster and a busier
machine does not.  A request's latency is the median of these scaled times
over the passes; p50 and p90 are taken over the distinct requests of a pass,
of which every workload has at least 100, and `throughput_per_s` is requests
per reference-second at those latencies.  Wall-clock figures and the
reference time are printed too, for people.

With `--trace 1` the run instead alternates untraced and traced passes,
TRACE_PAIRS of each.  The per-layer metrics come from the first traced pass,
so their `calls` repeat exactly for a given seed; the spans are written to
`.benchwork/trace-<workload>-seed<seed>.json`; the tracing overhead is the
fastest traced pass over the fastest untraced one, and every traced stdout
must equal its untraced one byte for byte.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The lines before it repeat every
metric by name with its unit, for people.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import List, Optional, Tuple

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".benchwork"

SETUP_REPEATS = 9
TRACE_PAIRS = 2
REFERENCE_S = 1e-3  # one reference computation counts as this many seconds

END_TO_END = (
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def import_cli():
    """Import hypermult afresh from this checkout's src/ and return its cli module."""
    if not (SRC / "hypermult" / "__init__.py").is_file():
        raise SystemExit(f"error: no hypermult package under {SRC}")
    for name in [n for n in sys.modules if n.split(".")[0] == "hypermult"]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hypermult.cli

    if Path(hypermult.cli.__file__).resolve().parent != SRC / "hypermult":
        raise SystemExit(f"error: imported hypermult from {hypermult.cli.__file__}, not {SRC}")
    return hypermult.cli


def reference() -> None:
    """Fixed exact work, like the library's: eliminate the 8x8 Hilbert matrix."""
    n = 8
    rows = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    for c in range(n):
        for i in range(c + 1, n):
            f = rows[i][c] / rows[c][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]


def time_reference() -> float:
    start = perf_counter()
    reference()
    return perf_counter() - start


def call(cli, argv: List[str]) -> Tuple[Optional[int], str, str, float]:
    """One request: exit code (None on an exception), stdout, stderr, seconds."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.run(argv)
        except Exception:
            code = None
            err.write(traceback.format_exc())
        elapsed = perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def prepare(workload: str, seed: int, workdir: Path):
    """Import, generate and write the inputs, warm up; returns (seconds, cli, requests, argvs)."""
    start = perf_counter()
    cli = import_cli()
    requests = workloads.WORKLOADS[workload](seed)
    argvs = []
    for i, req in enumerate(requests):
        path = workdir / f"{i:04d}.form"
        path.write_text(req.form_text, encoding="utf-8")
        argvs.append([req.command, "--input", str(path), *req.extra])
    for req, argv in zip(requests, argvs):
        if req.warm:
            call(cli, argv)
    return perf_counter() - start, cli, requests, argvs


class Pass:
    """Every request sent once, in order.

    Keeps wall-clock latencies, latencies at reference speed, stdouts and
    failures.
    """

    def __init__(self, cli, requests, argvs, tracer: Optional[spans.Tracer] = None):
        self.times: List[float] = []
        self.scaled: List[float] = []
        self.outs: List[str] = []
        self.failures: List[Tuple[int, str, str]] = []
        before = time_reference()
        for i, (req, argv) in enumerate(zip(requests, argvs)):
            if tracer is not None:
                tracer.request = i
            code, out, err, elapsed = call(cli, argv)
            after = time_reference()
            self.times.append(elapsed)
            self.scaled.append(elapsed * REFERENCE_S * 2 / (before + after))
            before = after
            self.outs.append(out)
            problem = checks.check(req, code, out)
            if problem:
                self.failures.append((i, problem, err))


def report_failures(failures, requests, argvs) -> None:
    for i, problem, err in failures[:5]:
        argv = [a if a != argvs[i][2] else "case.form" for a in argvs[i]]
        print(
            f"FAILED request {i}: {problem}\n"
            f"  reproduce: python -m hypermult {' '.join(argv)}\n"
            f"  case.form:\n{requests[i].form_text}{err}",
            file=sys.stderr,
        )


def latency_metrics(per_request: List[float]) -> dict:
    return {
        "throughput_per_s": len(per_request) / sum(per_request),
        "latency_p50_ms": statistics.median(per_request) * 1e3,
        "latency_p90_ms": statistics.quantiles(per_request, n=10)[-1] * 1e3,
    }


def timed_run(workload: str, seed: int, workdir: Path, seconds: float):
    setups: List[float] = []
    passes: List[Pass] = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        # set-up is repeated between the first passes, so its median sees
        # the machine at several moments rather than one
        if len(setups) < SETUP_REPEATS:
            before = time_reference()
            took, cli, requests, argvs = prepare(workload, seed, workdir)
            setups.append(took * REFERENCE_S * 2 / (before + time_reference()))
        passes.append(Pass(cli, requests, argvs))
    metrics = latency_metrics([statistics.median(ts) for ts in zip(*(p.scaled for p in passes))])
    failures = [f for p in passes for f in p.failures]
    attempted = len(passes) * len(requests)
    metrics["success_rate"] = 1 - len(failures) / attempted
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["setup_s"] = statistics.median(setups)
    wall = latency_metrics([statistics.median(ts) for ts in zip(*(p.times for p in passes))])
    ratio = statistics.median(s / t for p in passes for s, t in zip(p.scaled, p.times))
    notes = [
        f"passes {len(passes)} of {len(requests)} requests, {perf_counter() - start:.1f} s; "
        f"set-up {len(setups)} times",
        f"wall clock: throughput {wall['throughput_per_s']:.4g}/s, "
        f"p50 {wall['latency_p50_ms']:.4g} ms, p90 {wall['latency_p90_ms']:.4g} ms; "
        f"the reference took {1e3 * REFERENCE_S / ratio:.4g} ms at the median",
    ]
    return metrics, attempted, failures, requests, argvs, notes


def traced_run(workload: str, seed: int, workdir: Path):
    _, cli, requests, argvs = prepare(workload, seed, workdir)
    plain, traced = [], []
    failures = []
    for k in range(TRACE_PAIRS):
        plain.append(Pass(cli, requests, argvs))
        with spans.Tracer() as tracer:
            traced.append(Pass(cli, requests, argvs, tracer))
        failures += plain[-1].failures + traced[-1].failures
        failures += [
            (i, "traced stdout differs from untraced stdout", "")
            for i, (a, b) in enumerate(zip(plain[-1].outs, traced[-1].outs))
            if a != b
        ]
        if k == 0:
            metrics = tracer.metrics()
            path = write_spans(tracer, workload, seed)
    fast_plain = min(sum(p.scaled) for p in plain)
    fast_traced = min(sum(p.scaled) for p in traced)
    notes = [
        f"tracing overhead {100 * (fast_traced / fast_plain - 1):+.1f}% "
        f"(fastest traced pass {fast_traced:.3f} s, untraced {fast_plain:.3f} s "
        f"at reference speed, {TRACE_PAIRS} of each)",
        f"spans: {path.relative_to(ROOT)}",
    ]
    return metrics, 2 * TRACE_PAIRS * len(requests), failures, requests, argvs, notes


def write_spans(tracer: spans.Tracer, workload: str, seed: int) -> Path:
    path = WORK / f"trace-{workload}-seed{seed}.json"
    payload = {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "layers": [
            {"name": layer.name, "targets": list(layer.targets), "moves": layer.moves}
            for layer in spans.LAYERS
        ],
        "span_fields": ["id", "parent", "request", "name", "start_ns", "end_ns",
                        "self_ns", "outermost", "counts"],
        "spans": tracer.spans,
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{args.workload}-") as tmp:
        if args.trace:
            run = traced_run(args.workload, args.seed, Path(tmp))
            units = dict(spans.metric_names())
        else:
            run = timed_run(args.workload, args.seed, Path(tmp), args.seconds)
            units = dict(END_TO_END)
        metrics, attempted, failures, requests, argvs, notes = run
        report_failures(failures, requests, argvs)

    print(
        f"# hypermult benchmark: workload {args.workload}, seed {args.seed}, "
        f"trace {args.trace}, python {platform.python_version()}, nproc {os.cpu_count()}"
    )
    for note in notes:
        print(f"# {note}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"error_rate {len(failures) / attempted:.6g} ratio ({len(failures)} of {attempted} requests)")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
