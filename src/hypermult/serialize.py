"""Lossless JSON encoding of reports; rationals travel as "p/q" strings.

Machine output never contains floating point.  Integers that are genuinely
integers (multiplicities, weights, exponents) stay JSON numbers; every
rational quantity is a Fraction, and dumps is the one place a Fraction
becomes text: a "p/q" string that Fraction parses back verbatim.  written
refuses a whole answer, dumps' or a form's to_text, past str(int)'s digit
limit (_linalg.shown writes one value of a message).  The encoders only
rename, flatten or drop fields; records keyed by their own fields use asdict.
The record types are imported for type checkers alone, so importing
serialize loads no other module of the package.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from fractions import Fraction
from sys import get_int_max_str_digits
from typing import TYPE_CHECKING, Any, Callable, Dict

if TYPE_CHECKING:
    from .classifier import BoundCheckResult, ClassificationReport
    from .hesselink import StratumLabel
    from .statepoly import InstabilityCertificate


def _rational(x: object) -> str:
    if isinstance(x, Fraction):
        return str(x)
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def written(render: Callable[[], str]) -> str:
    try:
        return render()
    except ValueError:  # the one a render raises: an int past what str(int) writes
        raise ValueError(f"a rational in the answer exceeds {get_int_max_str_digits()} digits")


def dumps(payload: Any) -> str:
    return written(lambda: json.dumps(payload, indent=2, default=_rational))


def cert_encode(cert: InstabilityCertificate) -> Dict[str, Any]:
    return {
        "q": cert.q,
        "w": cert.w,
        "delta_sq": cert.delta_sq,
        "lambda": cert.lam.weights if cert.lam is not None else None,
        "hull_weights": [{"point": e, "weight": c} for e, c in cert.hull_weights],
    }


def report_encode(report: ClassificationReport) -> Dict[str, Any]:
    return {
        "r": report.r,
        "d": report.d,
        "N": report.N,
        "threshold": report.threshold_used,
        "m_band": report.m_band,
        "m_direct": report.m_direct,
        "agreed": report.agreed,
        "cert": cert_encode(report.cert),
        "band": asdict(report.band_params) if report.band_params is not None else None,
        "diagnostics": [asdict(diag) for diag in report.diagnostics]
        if report.diagnostics is not None
        else None,
    }


def label_encode(label: StratumLabel) -> Dict[str, Any]:
    return {
        "lambda_rep": label.lambda_rep.weights,
        "delta_sq": label.delta_sq,
        "scale": label.scale,
    }


def bound_encode(result: BoundCheckResult) -> Dict[str, Any]:
    return asdict(result)
