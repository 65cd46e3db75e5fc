"""Command line interface.

Exit codes: 0 for success or agreement, 1 for a disagreement or a failed
verification, 2 for usage and parse errors.  Report-style subcommands
(index, classify, bands, bound, verify) print JSON by default; value-style
subcommands (mult, threshold, destab, gen) print plain text unless --json
asks otherwise.  Rationals in JSON are "p/q" strings, never floats.

Each subcommand is declared once in build_parser and handled by a _cmd_*
function that returns (exit code, out), where a str out is written as it is
and anything else as serialize.dumps(out) plus a newline, by run alone.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import asdict
from typing import List, Optional, Sequence, Tuple

from . import hesselink, serialize
from .classifier import (
    bound_check,
    classify_at,
    classify_at_origin,
    gen_corpus,
    verify_theorem_main,
)
from .forms import (
    FormParseError,
    HomogeneousForm,
    ProjPoint,
    _quote,
    destabilize,
    multiplicity_at,
    parse_form,
)
from .hesselink import (
    StratumLabel,
    band_contains,
    default_frames,
    l_squared,
    pair_minima,
    separation_threshold,
    worst_frame_search,
)
from .statepoly import barycenter, torus_index
from ._linalg import norm_sq, sub


def _read_form(path: str) -> HomogeneousForm:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse_form(handle.read())
    except OSError as exc:
        raise FormParseError(f"cannot read {path}: {exc}") from exc


def _integer(text: str) -> int:
    """An optional sign, then ASCII digits 0-9 (int() alone also takes '1_0')."""
    if re.fullmatch(r"[+-]?[0-9]+", text):
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise argparse.ArgumentTypeError(f"expected an integer, got {_quote(text)}")


def _parse_n(text: str) -> object:
    """--N as "auto" or an integer >= 0, read before any check of a command's own."""
    if text == "auto":
        return "auto"
    try:
        n = _integer(text)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"--N must be an integer or 'auto', got {_quote(text)}") from exc
    if n < 0:
        raise ValueError(f"--N must be nonnegative, got {_quote(text)}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypermult",
        description="Exact instability data and multiplicity classification "
        "for projective hypersurfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = {
        "-r": dict(type=_integer, required=True, help="projective dimension"),
        "-d": dict(type=_integer, required=True, help="degree"),
        "--N": dict(default="auto", help="destabilization exponent or 'auto'"),
        "--input": dict(required=True, help="form file"),
        "--json": dict(action="store_true", help="emit JSON"),
    }

    def command(name: str, handler, help: str, *flags: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        for flag in flags:
            p.add_argument(flag, **shared[flag])
        p.set_defaults(handler=handler)
        return p

    p = command("mult", _cmd_mult, "multiplicity of a form at a point", "--input", "--json")
    p.add_argument("--point", required=True, help="comma separated rationals")

    command("index", _cmd_index, "torus instability certificate of a form",
            "--input", "--json")

    p = command("destab", _cmd_destab, "multiply by (x_1...x_r)^N", "--input", "--json")
    p.add_argument("--N", required=True, help="destabilization exponent")

    command("threshold", _cmd_threshold, "band separation threshold", "-r", "-d", "--json")

    p = command("bands", _cmd_bands, "band membership of a rational point",
                "-r", "-d", "--N", "--json")
    p.add_argument("--point", required=True, help="comma separated rationals")
    p.add_argument("--m", type=_integer, default=None, help="test only this band")

    p = command("classify", _cmd_classify, "band classification at a point",
                "--N", "--input", "--json")
    p.add_argument("--point", default=None, help="defaults to [1:0:...:0]")

    p = command("verify", _cmd_verify, "corpus agreement run over all m",
                "-r", "-d", "--N", "--json")
    p.add_argument("--count", type=_integer, default=25, help="forms per m")
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--jobs", type=_integer, default=1, help="worker processes")

    p = command("gen", _cmd_gen, "emit corpus forms in the form file format",
                "-r", "-d", "--json")
    p.add_argument("--m", type=_integer, required=True, help="multiplicity at the origin")
    p.add_argument("--count", type=_integer, default=1)
    p.add_argument("--seed", type=_integer, default=0)

    p = command("bound", _cmd_bound, "multiplicity bounds from a frame search",
                "--input", "--json")
    p.add_argument(
        "--point",
        action="append",
        required=True,
        help="candidate point, repeatable; the first is also the search anchor",
    )
    p.add_argument("--budget", type=_integer, default=1, help="unipotent entry range")

    return parser


def _cmd_mult(args: argparse.Namespace) -> Tuple[int, object]:
    form = _read_form(args.input)
    point = ProjPoint.parse(args.point)
    m = multiplicity_at(form, point)
    if args.json:
        return 0, {"r": form.r, "d": form.d, "point": point.coords, "m": m}
    return 0, f"{m}\n"


def _cmd_index(args: argparse.Namespace) -> Tuple[int, object]:
    form = _read_form(args.input)
    cert = torus_index(form)
    payload = {"r": form.r, "d": form.d}
    payload.update(serialize.cert_encode(cert))
    return 0, payload


def _cmd_destab(args: argparse.Namespace) -> Tuple[int, object]:
    n = _parse_n(args.N)
    form = _read_form(args.input)
    if n == "auto":
        n = separation_threshold(form.r, form.d)
    result = destabilize(form, n)
    if not args.json:
        return 0, result.to_text()
    return 0, {
        "r": result.r,
        "d": result.d,
        "N": n,
        "terms": [
            {"coeff": c, "exponents": e}
            for e, c in sorted(result.terms.items())
        ],
    }


def _cmd_threshold(args: argparse.Namespace) -> Tuple[int, object]:
    threshold = separation_threshold(args.r, args.d)
    pairs = pair_minima(args.r, args.d)
    if args.json:
        return 0, {
            "r": args.r,
            "d": args.d,
            "threshold": threshold,
            "pairs": [
                {"m": m, "m_prime": mp, "min_N": n} for m, mp, n in pairs
            ],
        }
    lines = [f"{threshold}\n"]
    lines += [f"pair m={m} m'={mp}: least separating N = {n}\n" for m, mp, n in pairs]
    return 0, "".join(lines)


def _cmd_bands(args: argparse.Namespace) -> Tuple[int, object]:
    n = _parse_n(args.N)
    if args.m is None and args.d + 1 > hesselink.MAX_PAIRS:
        raise ValueError(
            f"d={args.d} gives more than {hesselink.MAX_PAIRS} bands to list; "
            "pass --m to test one"
        )
    if n == "auto":
        n = separation_threshold(args.r, args.d)
    point = ProjPoint.parse(args.point).coords
    # checked before the barycenter, whose r+1 entries only the header bounds
    if len(point) != args.r + 1:
        raise ValueError("point dimension must be r+1")
    xi = barycenter(args.r, args.d + args.r * n)
    values = [args.m] if args.m is not None else range(args.d + 1)
    memberships = [
        {
            "m": m,
            "contains": band_contains(point, args.r, args.d, n, m),
            "l_sq": l_squared(args.r, args.d, n, m),
        }
        for m in values
    ]
    return 0, {
        "r": args.r,
        "d": args.d,
        "N": n,
        "point": point,
        "dist_sq": norm_sq(sub(point, xi)),
        "memberships": memberships,
    }


def _cmd_classify(args: argparse.Namespace) -> Tuple[int, object]:
    n = _parse_n(args.N)
    form = _read_form(args.input)
    if args.point is None:
        report = classify_at_origin(form, n)
    else:
        report = classify_at(form, ProjPoint.parse(args.point), n)
    return (0 if report.agreed else 1), serialize.report_encode(report)


def _cmd_verify(args: argparse.Namespace) -> Tuple[int, object]:
    n = _parse_n(args.N)
    summary = verify_theorem_main(args.r, args.d, n, args.count, args.seed, args.jobs)
    return (0 if summary.ok else 1), asdict(summary)


def _cmd_gen(args: argparse.Namespace) -> Tuple[int, object]:
    forms = gen_corpus(args.r, args.d, args.m, args.count, args.seed)
    if not args.json:
        return 0, "\n".join(
            f"# corpus form {i} (m={args.m}, seed={args.seed})\n" + f.to_text()
            for i, f in enumerate(forms)
        )
    return 0, {
        "r": args.r,
        "d": args.d,
        "m": args.m,
        "seed": args.seed,
        "forms": [f.to_text() for f in forms],
    }


def _cmd_bound(args: argparse.Namespace) -> Tuple[int, object]:
    form = _read_form(args.input)
    points = [ProjPoint.parse(text) for text in args.point]
    # every point is checked before the search, not only the anchor
    if any(len(p.coords) != form.r + 1 for p in points):
        raise ValueError("point dimension must be r+1")
    frames = default_frames(form.r, points[0], args.budget)
    _, cert = worst_frame_search(form, frames)
    label = StratumLabel.from_certificate(cert)
    result = bound_check(form, label, points)
    payload = {
        "r": form.r,
        "d": form.d,
        "label": serialize.label_encode(label),
        "frames_searched": len(frames),
    }
    payload.update(serialize.bound_encode(result))
    return (0 if result.within else 1), payload


def _attach_point_values(argv: Sequence[str]) -> List[str]:
    """Rewrite each `--point <v>` as `--point=<v>`.

    argparse takes a separate value starting with '-' (as in `-1,2,3`) for
    an unknown option; attached with '=' it is always read as the value.
    """
    out: List[str] = []
    args = iter(argv)
    for arg in args:
        if arg == "--point":
            value = next(args, None)
            if value is not None:
                arg = f"--point={value}"
        out.append(arg)
    return out


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    argv = _attach_point_values(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        code, out = args.handler(args)
        text = out if isinstance(out, str) else serialize.dumps(out) + "\n"
    except (FormParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))
