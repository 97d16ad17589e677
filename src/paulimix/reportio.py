"""Deterministic report emission.

All floats are rendered at 17 significant digits (enough to round-trip a
double bit-faithfully), infinities as ``inf``/``-inf`` and NaN as ``nan``;
JSON objects keep insertion order.  Identical inputs therefore produce
byte-identical output.

Every float CSV (trajectories, matrices, MUB vectors) goes through one block
renderer, which formats each distinct double once -- keyed on its bit
pattern, so ``0.0`` and ``-0.0`` stay apart -- and emits the whole body with
one ``%`` over a repeated row format.  The text is the one ``fmt_float``
gives cell by cell.
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


def _csv_block(header: str, values: np.ndarray, index: Optional[np.ndarray] = None) -> str:
    """CSV text of an ``(n, k)`` float table, after optional integer columns.

    Each distinct bit pattern is formatted once with ``fmt_float``'s
    ``.17g``; keying on bits, not values, keeps ``0.0`` apart from ``-0.0``.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    n, k = values.shape
    distinct, inverse = np.unique(values.reshape(-1).view(np.int64), return_inverse=True)
    text = "\n".join(["%.17g"] * distinct.size) % tuple(distinct.view(np.float64).tolist())
    cells = np.array(text.split("\n"), dtype=object)[inverse].reshape(n, k)
    row = ["%s"] * k
    if index is not None:
        row = ["%d"] * index.shape[1] + row
        cells = np.concatenate([index.astype(object), cells], axis=1)
    return header + "\n" + ((",".join(row) + "\n") * n) % tuple(cells.reshape(-1))


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
