"""Multiplicity classification through bands, with direct cross-checks.

The pipeline: move the queried point to [1:0:...:0], multiply by
(x_1 ... x_r)^N for an N at or above the separation threshold, take the
torus instability certificate of the product, and ask which band contains
the nearest point q.  Because the support of the product keeps its largest
x_0 exponent at d - m (m the multiplicity at the origin) and q cannot be
farther from the barycenter than the slice vertex of the same m, the point
lands in the band of m; disjointness at threshold makes that band unique.
The bands holding q form one interval of m, so two band tests read it,
whatever the degree (hesselink.unique_band).  The direct reading of the
multiplicity from the support is computed alongside, so every
classification is a concrete check of the band route against ground truth.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .forms import (
    HomogeneousForm,
    ProjPoint,
    _quote,
    act,
    destabilize,
    frame_moving_to_origin,
    multiplicity_at,
    multiplicity_at_origin,
)
from .hesselink import (
    BandParams,
    StratumLabel,
    l_squared,
    separation_threshold,
    unique_band,
)
from .statepoly import InstabilityCertificate, check_dim, torus_index

MAX_CORPUS = 2**18  # most forms x (r+1) a corpus or a verify run generates


@dataclass(frozen=True)
class BandDiagnostic:
    """Distances to one band, kept for reports without a unique match."""

    m: int
    l_sq: Fraction
    dist_sq: Fraction
    y0_cap: int
    radius_ok: bool
    cap_ok: bool


@dataclass(frozen=True)
class ClassificationReport:
    r: int
    d: int
    N: int
    threshold_used: int
    m_band: Optional[int]
    m_direct: int
    cert: InstabilityCertificate
    band_params: Optional[BandParams]
    agreed: bool
    diagnostics: Optional[Tuple[BandDiagnostic, ...]] = None


def _resolve_n(r: int, d: int, n: Union[int, str]) -> Tuple[int, int]:
    threshold = separation_threshold(r, d)
    if isinstance(n, str):
        if n != "auto":
            raise ValueError(f"N must be an integer or 'auto', got {_quote(n)}")
        return threshold, threshold
    value = int(n)
    if value < threshold:
        raise ValueError(
            f"N={value} is below the separation threshold {threshold} for "
            f"r={r}, d={d}; bands may overlap, refusing to classify"
        )
    return value, threshold


def classify_at_origin(
    f: HomogeneousForm, n: Union[int, str] = "auto"
) -> ClassificationReport:
    """Classify the multiplicity of f at [1:0:...:0] through the bands."""
    big_n, threshold = _resolve_n(f.r, f.d, n)
    cert = torus_index(destabilize(f, big_n))
    m_band = unique_band(cert.q, f.r, f.d, big_n)
    m_direct = multiplicity_at_origin(f)
    band_params = None if m_band is None else BandParams(f.r, f.d, big_n, m_band)
    diagnostics = None
    if m_band is None:
        radii = ((m, l_squared(f.r, f.d, big_n, m)) for m in range(f.d + 1))
        diagnostics = tuple(
            BandDiagnostic(
                m=m,
                l_sq=l_sq,
                dist_sq=cert.delta_sq,
                y0_cap=f.d - m,
                radius_ok=cert.delta_sq <= l_sq,
                cap_ok=cert.q[0] <= f.d - m,
            )
            for m, l_sq in radii
        )
    agreed = m_band is not None and m_band == m_direct
    return ClassificationReport(
        r=f.r,
        d=f.d,
        N=big_n,
        threshold_used=threshold,
        m_band=m_band,
        m_direct=m_direct,
        cert=cert,
        band_params=band_params,
        agreed=agreed,
        diagnostics=diagnostics,
    )


def classify_at(
    f: HomogeneousForm, p: ProjPoint, n: Union[int, str] = "auto"
) -> ClassificationReport:
    """Classify the multiplicity of f at an arbitrary rational point."""
    if len(p.coords) != f.r + 1:
        raise ValueError("point dimension must be r+1")
    check_dim(f.r + 1)  # refuse before moving the form, not in torus_index after
    moved = act(frame_moving_to_origin(p), f)
    return classify_at_origin(moved, n)


@dataclass(frozen=True)
class BoundCheckResult:
    lower: Fraction
    upper: Fraction
    max_mult: int
    within: bool


def bound_check(
    f: HomogeneousForm,
    label: StratumLabel,
    candidate_points: Sequence[ProjPoint],
) -> BoundCheckResult:
    """Sandwich the maximal multiplicity between the label's two bounds.

    With a = min and b = max of the sorted weights, the bounds are

        (||lambda|| * delta - a*d) / (b - a)   and   r*d/(r+1) - delta*a/||lambda||

    where ||lambda|| * delta = scale * delta_sq and delta/||lambda|| =
    1/scale keep everything rational.  candidate_points must contain a
    point of maximal multiplicity for max_mult to mean what the bounds
    bound.
    """
    if not candidate_points:
        raise ValueError("need at least one candidate point")
    weights = label.lambda_rep.weights
    if len(weights) != f.r + 1:
        raise ValueError("label dimension must match the form")
    a, b = min(weights), max(weights)
    lower = (label.scale * label.delta_sq - a * f.d) / (b - a)
    upper = Fraction(f.r * f.d, f.r + 1) - Fraction(a) / label.scale
    max_mult = max(multiplicity_at(f, p) for p in candidate_points)
    within = lower <= max_mult <= upper
    return BoundCheckResult(lower=lower, upper=upper, max_mult=max_mult, within=within)


def _composition(total: int, parts: int, rng: random.Random) -> Tuple[int, ...]:
    """Uniform weak composition of total into parts by stars and bars."""
    bars = sorted(rng.sample(range(total + parts - 1), parts - 1))
    # the parts are the gaps between bars, with one more bar at each end
    ends = [-1] + bars + [total + parts - 1]
    return tuple(b - a - 1 for a, b in zip(ends, ends[1:]))


def _check_corpus_size(forms: int, r: int) -> None:
    if forms * (r + 1) > MAX_CORPUS:
        raise ValueError(
            f"corpus size forms x (r+1) = {forms} x {r + 1} is above the limit "
            f"of {MAX_CORPUS}"
        )


def gen_corpus(
    r: int, d: int, m: int, count: int, seed: int
) -> List[HomogeneousForm]:
    """Deterministic forms whose multiplicity at [1:0:...:0] is exactly m.

    Every form carries one anchor term with x_0 exponent exactly d - m and
    a few extra terms with smaller or equal x_0 exponent, all with small
    integer coefficients.  The same arguments always produce the same list.
    More than MAX_CORPUS forms x (r+1) raise ValueError before any is made.
    """
    BandParams(r, d, 0, m)
    if count < 0:
        raise ValueError("count must be nonnegative")
    _check_corpus_size(count, r)
    rng = random.Random(f"corpus:{r}:{d}:{m}:{seed}")
    forms: List[HomogeneousForm] = []
    nonzero = [c for c in range(-3, 4) if c != 0]
    for _ in range(count):
        anchor = (d - m,) + _composition(m, r, rng)
        terms = {anchor: Fraction(rng.choice(nonzero))}
        for _ in range(rng.randint(0, 3)):
            e0 = rng.randint(0, d - m)
            extra = (e0,) + _composition(d - e0, r, rng)
            if extra == anchor:
                continue
            terms[extra] = Fraction(rng.choice(nonzero))
        forms.append(HomogeneousForm(r, d, terms))
    return forms


@dataclass(frozen=True)
class FailureRecord:
    m: int
    index: int
    m_band: Optional[int]
    m_direct: int


@dataclass(frozen=True)
class VerifySummary:
    r: int
    d: int
    N: int
    threshold: int
    count: int
    seed: int
    total: int
    passed: int
    failed: int
    failures: Tuple[FailureRecord, ...]

    @property
    def ok(self) -> bool:
        return self.failed == 0


def _verify_case(
    payload: Tuple[int, int, HomogeneousForm, int]
) -> Tuple[int, int, Optional[int], int, bool]:
    m, index, form, big_n = payload
    report = classify_at_origin(form, big_n)
    return (m, index, report.m_band, report.m_direct, report.agreed)


def verify_theorem_main(
    r: int,
    d: int,
    n: Union[int, str],
    count: int,
    seed: int,
    jobs: int = 1,
) -> VerifySummary:
    """Classify a corpus for every m in 0..d and tally band/direct agreement.

    The output is deterministic for fixed arguments regardless of jobs.  A
    jobs below 1, or more than MAX_CORPUS forms x (r+1) over all m, raise
    ValueError before any form is made."""
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    big_n, threshold = _resolve_n(r, d, n)
    _check_corpus_size((d + 1) * count, r)
    cases: List[Tuple[int, int, HomogeneousForm, int]] = []
    for m in range(d + 1):
        for index, form in enumerate(gen_corpus(r, d, m, count, seed)):
            cases.append((m, index, form, big_n))
    # the pool forks all its workers up front, so never ask for more than
    # there are cores or cases
    workers = min(jobs, os.cpu_count() or 1, len(cases))
    if workers > 1:
        # imported here, and multiprocessing with the pool's first use, so
        # that importing the CLI loads neither
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_verify_case, cases, chunksize=8))
    else:
        results = [_verify_case(case) for case in cases]
    failures = tuple(
        FailureRecord(m=m, index=i, m_band=m_band, m_direct=m_direct)
        for m, i, m_band, m_direct, agreed in results
        if not (agreed and m_band == m)
    )
    total = len(results)
    return VerifySummary(
        r=r,
        d=d,
        N=big_n,
        threshold=threshold,
        count=count,
        seed=seed,
        total=total,
        passed=total - len(failures),
        failed=len(failures),
        failures=failures,
    )
