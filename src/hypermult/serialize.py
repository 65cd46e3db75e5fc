"""Lossless JSON encoding of reports; rationals travel as "p/q" strings.

Machine output never contains floating point.  Integers that are genuinely
integers (multiplicities, weights, exponents) stay JSON numbers; every
rational quantity becomes a string that Fraction parses back verbatim, so
no precision is lost on the way out.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict, List, Sequence

from .classifier import (
    BandDiagnostic,
    BoundCheckResult,
    ClassificationReport,
    VerifySummary,
)
from .hesselink import BandParams, StratumLabel
from .statepoly import InstabilityCertificate


def frac_str(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def vec_encode(v: Sequence[Fraction]) -> List[str]:
    return [frac_str(x) for x in v]


def cert_encode(cert: InstabilityCertificate) -> Dict[str, Any]:
    return {
        "q": vec_encode(cert.q),
        "w": vec_encode(cert.w),
        "delta_sq": frac_str(cert.delta_sq),
        "lambda": list(cert.lam.weights) if cert.lam is not None else None,
        "hull_weights": [
            {"point": list(e), "weight": frac_str(c)} for e, c in cert.hull_weights
        ],
    }


def band_params_encode(band: BandParams) -> Dict[str, Any]:
    return {"r": band.r, "d": band.d, "N": band.N, "m": band.m}


def _diagnostic_encode(diag: BandDiagnostic) -> Dict[str, Any]:
    return {
        "m": diag.m,
        "l_sq": frac_str(diag.l_sq),
        "dist_sq": frac_str(diag.dist_sq),
        "y0_cap": diag.y0_cap,
        "radius_ok": diag.radius_ok,
        "cap_ok": diag.cap_ok,
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
        "band": band_params_encode(report.band_params)
        if report.band_params is not None
        else None,
        "diagnostics": [
            _diagnostic_encode(diag) for diag in report.diagnostics
        ]
        if report.diagnostics is not None
        else None,
    }


def label_encode(label: StratumLabel) -> Dict[str, Any]:
    return {
        "lambda_rep": list(label.lambda_rep.weights),
        "delta_sq": frac_str(label.delta_sq),
        "scale": frac_str(label.scale),
    }


def bound_encode(result: BoundCheckResult) -> Dict[str, Any]:
    return {
        "lower": frac_str(result.lower),
        "upper": frac_str(result.upper),
        "max_mult": result.max_mult,
        "within": result.within,
    }


def summary_encode(summary: VerifySummary) -> Dict[str, Any]:
    return {
        "r": summary.r,
        "d": summary.d,
        "N": summary.N,
        "threshold": summary.threshold,
        "count": summary.count,
        "seed": summary.seed,
        "total": summary.total,
        "passed": summary.passed,
        "failed": summary.failed,
        "failures": [
            {
                "m": rec.m,
                "index": rec.index,
                "m_band": rec.m_band,
                "m_direct": rec.m_direct,
            }
            for rec in summary.failures
        ],
    }
