"""Command line interface.

Exit codes: 0 for success or agreement, 1 for a disagreement or a failed
verification, 2 for usage and parse errors.  Report-style subcommands
(index, classify, bands, bound, verify) print JSON by default; value-style
subcommands (mult, threshold, destab, gen) print plain text unless --json
asks otherwise.  Rationals in JSON are "p/q" strings, never floats.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from typing import List, Optional, Sequence

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


def _parse_n(text: str) -> object:
    if text == "auto":
        return "auto"
    try:
        return int(text)
    except ValueError as exc:
        raise ValueError(f"--N must be an integer or 'auto', got {text!r}") from exc


def _emit(payload: dict) -> None:
    print(serialize.dumps(payload))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypermult",
        description="Exact instability data and multiplicity classification "
        "for projective hypersurfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *names: str) -> None:
        if "r" in names:
            p.add_argument("-r", type=int, required=True, help="projective dimension")
        if "d" in names:
            p.add_argument("-d", type=int, required=True, help="degree")
        if "N" in names:
            p.add_argument("--N", default="auto", help="destabilization exponent or 'auto'")
        if "input" in names:
            p.add_argument("--input", required=True, help="form file")
        if "json" in names:
            p.add_argument("--json", action="store_true", help="emit JSON")

    p_mult = sub.add_parser("mult", help="multiplicity of a form at a point")
    add_common(p_mult, "input", "json")
    p_mult.add_argument("--point", required=True, help="comma separated rationals")

    p_index = sub.add_parser("index", help="torus instability certificate of a form")
    add_common(p_index, "input", "json")

    p_destab = sub.add_parser("destab", help="multiply by (x_1...x_r)^N")
    add_common(p_destab, "input", "json")
    p_destab.add_argument("--N", required=True, help="destabilization exponent")

    p_threshold = sub.add_parser("threshold", help="band separation threshold")
    add_common(p_threshold, "r", "d", "json")

    p_bands = sub.add_parser("bands", help="band membership of a rational point")
    add_common(p_bands, "r", "d", "N", "json")
    p_bands.add_argument("--point", required=True, help="comma separated rationals")
    p_bands.add_argument("--m", type=int, default=None, help="test only this band")

    p_classify = sub.add_parser("classify", help="band classification at a point")
    add_common(p_classify, "input", "N", "json")
    p_classify.add_argument("--point", default=None, help="defaults to [1:0:...:0]")

    p_verify = sub.add_parser("verify", help="corpus agreement run over all m")
    add_common(p_verify, "r", "d", "N", "json")
    p_verify.add_argument("--count", type=int, default=25, help="forms per m")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--jobs", type=int, default=1, help="worker processes")

    p_gen = sub.add_parser("gen", help="emit corpus forms in the form file format")
    add_common(p_gen, "r", "d", "json")
    p_gen.add_argument("--m", type=int, required=True, help="multiplicity at the origin")
    p_gen.add_argument("--count", type=int, default=1)
    p_gen.add_argument("--seed", type=int, default=0)

    p_bound = sub.add_parser("bound", help="multiplicity bounds from a frame search")
    add_common(p_bound, "input", "json")
    p_bound.add_argument(
        "--point",
        action="append",
        required=True,
        help="candidate point, repeatable; the first is also the search anchor",
    )
    p_bound.add_argument("--budget", type=int, default=1, help="unipotent entry range")

    return parser


def _cmd_mult(args: argparse.Namespace) -> int:
    form = _read_form(args.input)
    point = ProjPoint.parse(args.point)
    m = multiplicity_at(form, point)
    if args.json:
        _emit({"r": form.r, "d": form.d, "point": point.coords, "m": m})
    else:
        print(m)
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    form = _read_form(args.input)
    cert = torus_index(form)
    payload = {"r": form.r, "d": form.d}
    payload.update(serialize.cert_encode(cert))
    _emit(payload)
    return 0


def _cmd_destab(args: argparse.Namespace) -> int:
    form = _read_form(args.input)
    n = _parse_n(args.N)
    if n == "auto":
        n = separation_threshold(form.r, form.d)
    result = destabilize(form, n)
    if args.json:
        _emit(
            {
                "r": result.r,
                "d": result.d,
                "N": n,
                "terms": [
                    {"coeff": c, "exponents": e}
                    for e, c in sorted(result.terms.items())
                ],
            }
        )
    else:
        sys.stdout.write(result.to_text())
    return 0


def _cmd_threshold(args: argparse.Namespace) -> int:
    threshold = separation_threshold(args.r, args.d)
    pairs = pair_minima(args.r, args.d)
    if args.json:
        _emit(
            {
                "r": args.r,
                "d": args.d,
                "threshold": threshold,
                "pairs": [
                    {"m": m, "m_prime": mp, "min_N": n} for m, mp, n in pairs
                ],
            }
        )
    else:
        print(threshold)
        for m, mp, n in pairs:
            print(f"pair m={m} m'={mp}: least separating N = {n}")
    return 0


def _cmd_bands(args: argparse.Namespace) -> int:
    if args.m is None and args.d + 1 > hesselink.MAX_PAIRS:
        raise ValueError(
            f"d={args.d} gives more than {hesselink.MAX_PAIRS} bands to list; "
            "pass --m to test one"
        )
    n = _parse_n(args.N)
    if n == "auto":
        n = separation_threshold(args.r, args.d)
    point = ProjPoint.parse(args.point).coords
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
    payload = {
        "r": args.r,
        "d": args.d,
        "N": n,
        "point": point,
        "dist_sq": norm_sq(sub(point, xi)),
        "memberships": memberships,
    }
    _emit(payload)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    form = _read_form(args.input)
    n = _parse_n(args.N)
    if args.point is None:
        report = classify_at_origin(form, n)
    else:
        report = classify_at(form, ProjPoint.parse(args.point), n)
    _emit(serialize.report_encode(report))
    return 0 if report.agreed else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    n = _parse_n(args.N)
    summary = verify_theorem_main(args.r, args.d, n, args.count, args.seed, args.jobs)
    _emit(asdict(summary))
    return 0 if summary.ok else 1


def _cmd_gen(args: argparse.Namespace) -> int:
    forms = gen_corpus(args.r, args.d, args.m, args.count, args.seed)
    if args.json:
        _emit(
            {
                "r": args.r,
                "d": args.d,
                "m": args.m,
                "seed": args.seed,
                "forms": [f.to_text() for f in forms],
            }
        )
    else:
        chunks = [
            f"# corpus form {i} (m={args.m}, seed={args.seed})\n" + f.to_text()
            for i, f in enumerate(forms)
        ]
        sys.stdout.write("\n".join(chunks))
    return 0


def _cmd_bound(args: argparse.Namespace) -> int:
    form = _read_form(args.input)
    points = [ProjPoint.parse(text) for text in args.point]
    frames = default_frames(form.r, points[0], args.budget)
    _, cert = worst_frame_search(form, frames)
    if cert.lam is None:
        raise ValueError(
            "the frame search found no instability (delta_sq = 0 everywhere); "
            "bounds need an unstable form"
        )
    label = StratumLabel.from_certificate(cert)
    result = bound_check(form, label, points)
    payload = {
        "r": form.r,
        "d": form.d,
        "label": serialize.label_encode(label),
        "frames_searched": len(frames),
    }
    payload.update(serialize.bound_encode(result))
    _emit(payload)
    return 0 if result.within else 1


_HANDLERS = {
    "mult": _cmd_mult,
    "index": _cmd_index,
    "destab": _cmd_destab,
    "threshold": _cmd_threshold,
    "bands": _cmd_bands,
    "classify": _cmd_classify,
    "verify": _cmd_verify,
    "gen": _cmd_gen,
    "bound": _cmd_bound,
}


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
        return _HANDLERS[args.command](args)
    except (FormParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
