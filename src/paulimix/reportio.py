"""Deterministic report emission.

All floats are rendered at 17 significant digits (enough to round-trip a
double bit-faithfully), infinities as ``inf``/``-inf`` and NaN as ``nan``;
JSON objects keep insertion order.  Identical inputs therefore produce
byte-identical output.

Every float CSV (trajectories, matrices, MUB vectors, and their integer
index columns) goes through one block renderer.  It spells each distinct
double once -- keyed on its bit pattern, so ``0.0`` and ``-0.0`` stay apart
-- with array operations: a finite value with ``1e-4 <= |x| < 1e17``, which
``%.17g`` writes in fixed notation, gets its 17 digits from an exact
error-free product (Dekker's TwoProduct), and only exact ties, zeros,
non-finite values and values that need an exponent go to ``'%.17g' %`` one
by one.  The text is the one ``fmt_float`` gives cell by cell.
"""

from __future__ import annotations

import json
import math
from typing import Optional

import numpy as np

from .dynamics import ClassificationReport, RateTrajectory, SpectralTrajectory
from .mubgen import MubFamily, MubReport
from .semigroupforge import InvertibilityForecast, SameChannelRequest, ScanReport, SimplexScan

__all__ = [
    "fmt_float",
    "to_json",
    "trajectory_csv",
    "matrix_csv",
    "mub_bases_csv",
    "simplex_scan_csv",
    "classification_dict",
    "forecast_dict",
    "same_channel_forecast_dict",
    "scan_report_dict",
    "simplex_scan_dict",
    "mub_report_dict",
]


def fmt_float(x: float) -> str:
    # ``.17g`` already spells nan (of either sign), inf and -inf this way.
    return f"{float(x):.17g}"


def _render(obj, indent: int) -> str:
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f"{inner}{json.dumps(str(k))}: {_render(v, indent + 2)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        rows = [f"{inner}{_render(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if math.isfinite(f):
            return fmt_float(f)
        return json.dumps(fmt_float(f))  # "inf"/"-inf"/"nan" as strings
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def to_json(obj) -> str:
    """Render a JSON document (with trailing newline)."""
    return _render(obj, 0) + "\n"


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def _two_product(a: np.ndarray, b: np.ndarray):
    """``p = a*b`` rounded and its exact error ``a*b - p`` (Dekker's
    TwoProduct, with Veltkamp's split by ``2**27 + 1``), for products far
    from overflow and underflow."""
    p = a * b
    halves = []
    for x in (a, b):
        c = 134217729.0 * x
        low = c - x  # named: numpy would otherwise subtract into it in place, slowly
        high = c - low
        halves += [high, x - high]
    ah, al, bh, bl = halves
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _outside(p: np.ndarray, err: np.ndarray) -> np.ndarray:
    """-1, 0 or 1 where the exact ``p + err`` lies below, in or above
    ``[1e16, 1e17)``."""
    below = (p < 1e16) | ((p == 1e16) & (err < 0))
    above = (p > 1e17) | ((p == 1e17) & (err >= 0))
    return above.astype(np.intp) - below


def _texts(x: np.ndarray):
    """``'%.17g' % v`` of each float ``v`` of ``x``, as the rows of a uint8
    array of width 25: row ``i`` holds the text among spaces, and a comma
    in its last column.

    A finite ``v`` with ``1e-4 <= |v| < 1e17`` is spelled in fixed notation,
    from its exact 17-digit significand: with ``e`` its decimal exponent,
    ``|v| * 10**(16-e)`` (an exact power of ten) is an exact sum ``p + err``
    of two doubles, so the integer it rounds to, half to even, is exact too.
    Ties, zeros, non-finite values and the others go to ``'%.17g' %``.
    """
    size = x.size
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e17)
    a = np.where(fast, a, 1.0)
    e = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.intp)
    scale = np.array([float(10**k) for k in range(21)])  # exact
    p, err = _two_product(a, scale[16 - e])
    # log10 can be one off next to a power of ten.
    off = _outside(p, err)
    if off.any():
        e = np.clip(e + off, -4, 16)
        p, err = _two_product(a, scale[16 - e])
        fast &= _outside(p, err) == 0
    whole = np.floor(err)
    fast &= err - whole != 0.5
    digits = p.astype(np.int64) + whole.astype(np.int64) + (err - whole > 0.5)
    carry = digits == 10**17
    digits[carry] = 10**16
    e += carry
    fast &= e <= 16
    # Column-major until the end: row r of ``canvas`` is column r of every
    # text.  Rows 5..21 hold the 17 digits, rows 0..4 the zeros of 0.000ddd
    # (for e < 0) after a sign or spaces, and rows 22..24 spaces.  Digit row
    # ``point`` and those after it hold the fraction, whose trailing zeros
    # become spaces; then they move one row down, for the point.
    point = 6 + e
    lead = (5 + np.minimum(e, 0)).astype(np.uint8)  # the unsigned text's first row
    at = point.astype(np.uint8)
    rows = np.arange(25, dtype=np.uint8)[:, None]
    canvas = np.empty((25, size), dtype=np.uint8)
    canvas[:5] = ord(" ") + 16 * (rows[:5] >= lead).view(np.uint8)  # ' ' or '0'
    canvas[:5] += 13 * ((rows[:5] == lead - 1) & np.signbit(x)).view(np.uint8)  # or '-'
    canvas[22:] = ord(" ")
    high, low = np.divmod(digits, 10**9)
    zeros = np.ones(size, dtype=bool)
    for part, digit_rows in ((low, range(21, 12, -1)), (high, range(12, 4, -1))):
        part = part.astype(np.uint32)
        for r in digit_rows:
            quotient = part // 10
            digit = (part - quotient * 10).astype(np.uint8)
            zeros &= digit == 0
            canvas[r] = digit + (ord("0") - 16 * (zeros & (at <= r)).view(np.uint8))  # or ' '
            part = quotient
    every = np.arange(size)
    fraction = canvas[point, every] != ord(" ")
    canvas[1:] ^= (canvas[1:] ^ canvas[:-1]) * (rows[1:] >= at).view(np.uint8)
    canvas[point, every] = np.where(fraction, ord("."), ord(" "))
    slow = np.flatnonzero(~fast)
    if slow.size:
        spelled = ("\n".join(["%.17g"] * slow.size) % tuple(x[slow].tolist())).split("\n")
        block = "".join([s.ljust(25) for s in spelled]).encode("ascii")
        canvas[:, slow] = np.frombuffer(block, dtype=np.uint8).reshape(-1, 25).T
    canvas[24] = ord(",")
    return np.ascontiguousarray(canvas.T)


def _csv_block(header: str, values: np.ndarray, index: Optional[np.ndarray] = None) -> str:
    """CSV text of an ``(n, k)`` float table, after optional integer columns
    (which ``%.17g`` spells as ``%d`` does).

    Each distinct bit pattern is spelled once by :func:`_texts`; keying on
    bits, not values, keeps ``0.0`` apart from ``-0.0``.  Every cell is then
    its value's 25-byte record, the last comma of a row becomes a newline,
    and dropping the padding spaces leaves the body, built in chunks of
    about 65536 cells.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if index is not None:
        values = np.concatenate([index.astype(np.float64), values], axis=1)
    n, k = values.shape
    distinct, inverse = np.unique(values.reshape(-1).view(np.int64), return_inverse=True)
    texts, inverse = _texts(distinct.view(np.float64)), inverse.reshape(n, k)
    rows = max(1, 2**16 // k)  # per chunk, so the 25-byte records stay small
    body = []
    for start in range(0, n, rows):
        cells = np.take(texts, inverse[start : start + rows], axis=0)
        cells[:, -1, -1] = ord("\n")
        body.append(cells.tobytes().translate(None, b" "))
    return header + "\n" + b"".join(body).decode("ascii")


def trajectory_csv(spectral: SpectralTrajectory, rates: RateTrajectory) -> str:
    d = spectral.dimension
    header = (
        ["t"]
        + [f"lambda_{b}" for b in range(1, d + 2)]
        + [f"gamma_{b}" for b in range(1, d + 2)]
    )
    table = np.vstack([spectral.grid.times, spectral.eigenvalues, rates.gamma]).T
    return _csv_block(",".join(header), table)


def _complex_columns(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z).reshape(-1)
    return np.stack([z.real, z.imag], axis=1)


def matrix_csv(m: np.ndarray) -> str:
    m = np.asarray(m)
    index = np.indices(m.shape).reshape(2, -1).T
    return _csv_block("row,col,re,im", _complex_columns(m), index)


def mub_bases_csv(family: MubFamily) -> str:
    bases = family.bases
    index = np.indices(bases.shape).reshape(3, -1).T
    index[:, 0] += 1
    return _csv_block("basis,vector,component,re,im", _complex_columns(bases), index)


def simplex_scan_csv(scan: SimplexScan) -> str:
    """One row per lattice point: weights, status and verdicts ('invalid'
    rows leave the verdict cells empty)."""
    d = scan.dimension
    header = [f"x_{i}" for i in range(1, d + 2)] + [
        "status",
        "is_semigroup",
        "is_cp_divisible",
        "min_rate",
        "noninvertible_inputs",
    ]
    spelled = [fmt_float(k / scan.divisions) for k in range(scan.divisions + 1)]
    flag = ("false", "true")
    lines = [",".join(header)]
    for counts, ok, semi, cpdiv, rate, noninv in zip(
        map(np.ndarray.tolist, scan.counts),
        scan.valid.tolist(),
        scan.is_semigroup.tolist(),
        scan.is_cp_divisible.tolist(),
        scan.min_rate.tolist(),
        scan.noninvertible_inputs.tolist(),
    ):
        weights = ",".join([spelled[k] for k in counts])
        if ok:
            lines.append(f"{weights},ok,{flag[semi]},{flag[cpdiv]},{fmt_float(rate)},{noninv}")
        else:
            lines.append(f"{weights},invalid,,,,")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON-ready dictionaries
# ---------------------------------------------------------------------------


def classification_dict(report: ClassificationReport) -> dict:
    return {
        "dimension": report.dimension,
        "is_semigroup": report.is_semigroup,
        "semigroup_exponents": list(report.semigroup_exponents),
        "max_semigroup_deviation": report.max_semigroup_deviation,
        "semigroup_tolerance": report.semigroup_tolerance,
        "is_cp_divisible": report.is_cp_divisible,
        "min_rate": report.min_rate,
        "cp_tolerance": report.cp_tolerance,
        "p_in_range": report.p_in_range,
        "singular_times": [
            {"label": label, "time": t} for label, t in report.singular_times
        ],
        "inputs": _input_verdicts(report),
    }


def _input_verdicts(report: ClassificationReport) -> list:
    return [
        {
            "component": v.component,
            "basis": v.basis,
            "verdict": v.verdict,
            "singular_times": list(v.singular_times),
        }
        for v in report.inputs
    ]


def forecast_dict(forecast: InvertibilityForecast) -> dict:
    return {
        "construction": "all-channels",
        "dimension": forecast.dimension,
        "rate": forecast.rate,
        "noninvertible_count": forecast.noninvertible_count,
        "channels": [
            {
                "channel": c.channel,
                "weight": c.weight,
                "verdict": c.verdict,
                "singular_time": c.singular_time,
            }
            for c in forecast.channels
        ],
    }


def same_channel_forecast_dict(req: SameChannelRequest, report: ClassificationReport) -> dict:
    """``construct --same`` forecast: the request, then its inputs' verdicts."""
    return {
        "construction": "same-channel",
        "dimension": req.dimension,
        "rate": req.rate,
        "a": req.a,
        "basis": req.basis,
        "channels": _input_verdicts(report),
    }


def scan_report_dict(report: ScanReport) -> dict:
    return {
        "seed": report.seed,
        "trials": report.trials,
        "family": report.family,
        "counterexamples": [dict(c) for c in report.counterexamples],
        "pass": report.passed,
        "details": dict(report.details),
    }


def simplex_scan_dict(scan: SimplexScan) -> dict:
    """Summary counts of a simplex scan; fractions are over proper points."""
    proper = scan.proper
    n_proper = int(proper.sum())

    def fraction(mask):
        return int((mask & proper).sum()) / n_proper if n_proper else None

    return {
        "dimension": scan.dimension,
        "family": scan.family,
        "rate": scan.rate,
        "divisions": scan.divisions,
        "points": len(scan.counts),
        "invalid_points": int((~scan.valid).sum()),
        "corner_points": int(scan.corner.sum()),
        "corner_semigroups": int((scan.is_semigroup & scan.corner).sum()),
        "proper_points": n_proper,
        "semigroup_fraction": fraction(scan.is_semigroup),
        "cp_divisible_fraction": fraction(scan.is_cp_divisible),
        "cp_indivisible_fraction": fraction(~scan.is_cp_divisible),
    }


def mub_report_dict(report: MubReport) -> dict:
    return {
        "dimension": report.dimension,
        "max_orthonormality_deviation": report.max_orthonormality_deviation,
        "max_unbiasedness_deviation": report.max_unbiasedness_deviation,
        "tolerance": report.tolerance,
        "pass": report.passed,
    }
