"""Independent checks of CLI output, one per workload command.

None of these reuse hypermult's own validation: they parse the JSON the CLI
printed and test it against what the generator knows (the multiplicity a
form was built with, its support) using plain Fraction arithmetic.  Each
returns None for a correct answer, or a one-line reason.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional

from workloads import Request


def check_classify(out: dict, expect: dict) -> Optional[str]:
    m = expect["m"]
    if not out["m_band"] == out["m_direct"] == m:
        return f"m_band={out['m_band']} m_direct={out['m_direct']}, built with m={m}"
    return None


def check_index(out: dict, expect: dict) -> Optional[str]:
    r, d = expect["r"], expect["d"]
    if (out["r"], out["d"]) != (r, d):
        return f"shape {(out['r'], out['d'])} != {(r, d)}"
    q = [Fraction(x) for x in out["q"]]
    w = [Fraction(x) for x in out["w"]]
    delta_sq = Fraction(out["delta_sq"])
    xi = Fraction(d, r + 1)
    if len(q) != r + 1 or len(w) != r + 1:
        return "q or w has the wrong length"
    if any(wi != qi - xi for wi, qi in zip(w, q)):
        return "w != q - barycenter"
    support = {tuple(e) for e in expect["support"]}
    total = Fraction(0)
    rebuilt = [Fraction(0)] * (r + 1)
    for item in out["hull_weights"]:
        point, weight = tuple(item["point"]), Fraction(item["weight"])
        if point not in support:
            return f"hull point {point} is not in the support"
        if weight < 0:
            return f"negative hull weight {weight}"
        total += weight
        rebuilt = [x + weight * p for x, p in zip(rebuilt, point)]
    if total != 1:
        return f"hull weights sum to {total}"
    if rebuilt != q:
        return "hull weights do not rebuild q"
    if delta_sq != sum(x * x for x in w):
        return "delta_sq != |w|^2"
    for e in support:
        if sum(wi * (ei - qi) for wi, ei, qi in zip(w, e, q)) < 0:
            return f"support point {e} violates <w, e - q> >= 0"
    if expect["unstable"] and (delta_sq == 0 or out["lambda"] is None):
        return "support avoids the barycenter but delta_sq = 0"
    return None


def check_bound(out: dict, expect: dict) -> Optional[str]:
    m = expect["m"]
    lower, upper = Fraction(out["lower"]), Fraction(out["upper"])
    if out["max_mult"] != m:
        return f"max_mult={out['max_mult']}, built with m={m}"
    if not lower <= m <= upper:
        return f"m={m} outside [{lower}, {upper}]"
    return None


CHECKS = {"classify": check_classify, "index": check_index, "bound": check_bound}


def check(request: Request, code: Optional[int], stdout: str) -> Optional[str]:
    """Judge one CLI call: exit code 0 and an output that passes its check."""
    if code != 0:
        return f"exit code {code}"
    try:
        return CHECKS[request.command](json.loads(stdout), request.expect)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
