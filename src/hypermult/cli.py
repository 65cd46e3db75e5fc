"""Command line interface.

Exit codes: 0 for success or agreement, 1 for a disagreement or a failed
verification, 2 for usage and parse errors.  Report-style subcommands
(index, classify, bands, bound, verify) print JSON by default; value-style
subcommands (mult, threshold, destab, gen) print plain text unless --json
asks otherwise.  Rationals in JSON are "p/q" strings, never floats.

Each subcommand is declared once, in COMMANDS, and handled by a _cmd_*
function that returns (exit code, out), where a str out is written as it is
and anything else as serialize.dumps(out) plus a newline, by _answer alone.

run builds a new parser on every call, and only the subcommands named in
its argv get their arguments and their own -h: the others are registered
by name and help alone, with no arguments and no -h.  So no parser state
crosses calls, and a process that runs one command pays for one command's
arguments.  Once run has parsed, _answer reads --N and then --input, whose
faults are error: lines and not usage errors, as args.N and args.form.

A command loads only the modules it runs: forms, statepoly, _linalg and
serialize are imported here, and hesselink and classifier only inside the
handlers that call them, so a process that answers index or mult never
compiles either.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from typing import Callable, Collection, Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import serialize
from .forms import (
    FormParseError,
    HomogeneousForm,
    ProjPoint,
    _quote,
    _read_rational,
    check_dim,
    destabilize,
    multiplicity_at,
    parse_coords,
    parse_form,
)
from .statepoly import barycenter, torus_index
from ._linalg import norm_sq, sub


MAX_INPUT_CHARS = 2**20  # most characters --input may hold


def _read_form(path: str) -> HomogeneousForm:
    """The form in --input, refused before parsing if it is longer than MAX_INPUT_CHARS."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read(MAX_INPUT_CHARS + 1)
    except OSError as exc:
        raise FormParseError(f"cannot read {path}: {exc}") from exc
    if len(text) > MAX_INPUT_CHARS:
        raise FormParseError(f"cannot read {path}: more than {MAX_INPUT_CHARS:,} characters")
    return parse_form(text)


def _integer(text: str) -> int:
    """A rational of the form grammar with no denominator (int() alone also takes '1_0')."""
    if "/" not in text:
        try:
            return _read_rational(text)[0]
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"expected an integer, got {_quote(text)}")


def _parse_n(text: str) -> object:
    """--N as "auto" or an integer >= 0, read before --input and any check of a command's own."""
    if text == "auto":
        return "auto"
    try:
        n = _integer(text)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"--N must be an integer or 'auto', got {_quote(text)}") from exc
    if n < 0:
        raise ValueError(f"--N must be nonnegative, got {_quote(text)}")
    return n


def _read_point(text: str, r: int) -> ProjPoint:
    """A --point of mult, classify or bound, its length counted before it is read."""
    if text.count(",") != r:
        raise ValueError("point dimension must be r+1")
    check_dim(r + 1)
    return ProjPoint.parse(text)


def _cmd_mult(args: argparse.Namespace) -> Tuple[int, object]:
    point = _read_point(args.point, args.form.r)
    m = multiplicity_at(args.form, point)
    if args.json:
        return 0, {"r": args.form.r, "d": args.form.d, "point": point.coords, "m": m}
    return 0, f"{m}\n"


def _cmd_index(args: argparse.Namespace) -> Tuple[int, object]:
    payload = {"r": args.form.r, "d": args.form.d}
    payload.update(serialize.cert_encode(torus_index(args.form)))
    return 0, payload


def _cmd_destab(args: argparse.Namespace) -> Tuple[int, object]:
    from . import hesselink

    form, n = args.form, args.N
    if n == "auto":
        n = hesselink.separation_threshold(form.r, form.d)
    result = destabilize(form, n)
    if not args.json:
        return 0, serialize.written(result.to_text)
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
    from . import hesselink

    threshold = hesselink.separation_threshold(args.r, args.d)
    pairs = hesselink.pair_minima(args.r, args.d)
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
    from . import hesselink

    n = args.N
    if args.m is None and args.d + 1 > hesselink.MAX_PAIRS:
        raise ValueError(
            f"d={args.d} gives more than {hesselink.MAX_PAIRS} bands to list; "
            "pass --m to test one"
        )
    if n == "auto":
        n = hesselink.separation_threshold(args.r, args.d)
    # counted before it is read, and before the barycenter, whose r+1 entries only -r bounds
    if args.point.count(",") != args.r:
        raise ValueError("point dimension must be r+1")
    point = parse_coords(args.point)  # a point of the exponent hyperplane, zero allowed
    xi = barycenter(args.r, args.d + args.r * n)
    values = [args.m] if args.m is not None else range(args.d + 1)
    memberships = [
        {
            "m": m,
            "contains": hesselink.band_contains(point, args.r, args.d, n, m),
            "l_sq": hesselink.l_squared(args.r, args.d, n, m),
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
    from . import classifier

    if args.point is None:
        report = classifier.classify_at_origin(args.form, args.N)
    else:
        report = classifier.classify_at(args.form, _read_point(args.point, args.form.r), args.N)
    return (0 if report.agreed else 1), serialize.report_encode(report)


def _cmd_verify(args: argparse.Namespace) -> Tuple[int, object]:
    from . import classifier

    summary = classifier.verify_theorem_main(args.r, args.d, args.N, args.count, args.seed)
    return (0 if summary.ok else 1), asdict(summary)


def _cmd_gen(args: argparse.Namespace) -> Tuple[int, object]:
    from . import classifier

    forms = classifier.gen_corpus(args.r, args.d, args.m, args.count, args.seed)
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
    from . import classifier, hesselink

    form = args.form
    points = [_read_point(text, form.r) for text in args.point]
    frames = hesselink.default_frames(form.r, points[0], args.budget)
    _, cert = hesselink.worst_frame_search(form, frames)
    label = hesselink.StratumLabel.from_certificate(cert)
    result = classifier.bound_check(form, label, points)
    payload = {
        "r": form.r,
        "d": form.d,
        "label": serialize.label_encode(label),
        "frames_searched": len(frames),
    }
    payload.update(serialize.bound_encode(result))
    return (0 if result.within else 1), payload


class Command(NamedTuple):
    handler: Callable[[argparse.Namespace], Tuple[int, object]]
    help: str
    shared: Tuple[str, ...]  # keys of _SHARED, added first
    own: Dict[str, dict]  # flag -> add_argument keywords


_SHARED = {
    "-r": dict(type=_integer, required=True, help="projective dimension"),
    "-d": dict(type=_integer, required=True, help="degree"),
    "--N": dict(default="auto", help="destabilization exponent or 'auto'"),
    "--input": dict(required=True, help="form file"),
    "--json": dict(action="store_true", help="emit JSON"),
}

COMMANDS = {
    "mult": Command(_cmd_mult, "multiplicity of a form at a point", ("--input", "--json"), {
        "--point": dict(required=True, help="comma separated rationals"),
    }),
    "index": Command(_cmd_index, "torus instability certificate of a form",
                     ("--input", "--json"), {}),
    "destab": Command(_cmd_destab, "multiply by (x_1...x_r)^N", ("--input", "--json"), {
        "--N": dict(required=True, help="destabilization exponent"),
    }),
    "threshold": Command(_cmd_threshold, "band separation threshold", ("-r", "-d", "--json"), {}),
    "bands": Command(_cmd_bands, "band membership of a rational point",
                     ("-r", "-d", "--N", "--json"), {
        "--point": dict(required=True, help="comma separated rationals"),
        "--m": dict(type=_integer, default=None, help="test only this band"),
    }),
    "classify": Command(_cmd_classify, "band classification at a point",
                        ("--N", "--input", "--json"), {
        "--point": dict(default=None, help="defaults to [1:0:...:0]"),
    }),
    "verify": Command(_cmd_verify, "corpus agreement run over all m",
                      ("-r", "-d", "--N", "--json"), {
        "--count": dict(type=_integer, default=25, help="forms per m"),
        "--seed": dict(type=_integer, default=0),
    }),
    "gen": Command(_cmd_gen, "emit corpus forms in the form file format",
                   ("-r", "-d", "--json"), {
        "--m": dict(type=_integer, required=True, help="multiplicity at the origin"),
        "--count": dict(type=_integer, default=1),
        "--seed": dict(type=_integer, default=0),
    }),
    "bound": Command(_cmd_bound, "multiplicity bounds from a frame search",
                     ("--input", "--json"), {
        "--point": dict(
            action="append",
            required=True,
            help="candidate point, repeatable; the first is also the search anchor",
        ),
        "--budget": dict(type=_integer, default=1, help="unipotent entry range"),
    }),
}


def build_parser(names: Collection[str]) -> argparse.ArgumentParser:
    """A parser with every subcommand, where those in names get their arguments and -h.

    argparse selects a subcommand only by an argv token equal to its name,
    so with the argv as names every subcommand it can select is complete.
    The usage line, --help and an invalid choice read only names and helps.
    """
    parser = argparse.ArgumentParser(
        prog="hypermult",
        description="Exact instability data and multiplicity classification "
        "for projective hypersurfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help, add_help=name in names)
        if name in names:
            for flag in command.shared:
                p.add_argument(flag, **_SHARED[flag])
            for flag, options in command.own.items():
                p.add_argument(flag, **options)
            p.set_defaults(handler=command.handler)
    return parser


def _attach_point_values(argv: Sequence[str]) -> List[str]:
    """Rewrite each `--point <v>` as `--point=<v>`, and each `--p <v>` to `--poin <v>` alike.

    argparse takes a separate value starting with '-' (as in `-1,2,3`) for
    an unknown option; attached with '=' it is always read as the value.
    argparse expands each prefix from `--p` on to `--point`, the one option
    of any subcommand that starts with `--p`.
    """
    out: List[str] = []
    args = iter(argv)
    for arg in args:
        if len(arg) > 2 and "--point".startswith(arg):
            value = next(args, None)
            if value is not None:
                arg = f"{arg}={value}"
        out.append(arg)
    return out


def run(argv: Optional[Sequence[str]] = None) -> int:
    argv = _attach_point_values(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    return _answer(args)


def _answer(args: argparse.Namespace) -> int:
    """Read --N, then --input, and answer; a ValueError is an error: line and exit 2."""
    try:
        if "N" in args:
            args.N = _parse_n(args.N)
        if "input" in args:
            args.form = _read_form(args.input)
        code, out = args.handler(args)
        text = out if isinstance(out, str) else serialize.dumps(out) + "\n"
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))
