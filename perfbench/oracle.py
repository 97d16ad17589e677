"""Independent expectations for paulimix outputs.

Nothing here imports paulimix.  Eigenvalues come from the closed form

    lambda_beta(t) = 1 - (d/(d-1)) * sum_{i: basis_i != beta} x_i p_i(t),

evaluated with numpy from the parameters the workload generator drew; roots
come from a dense sign scan plus ``scipy.optimize.brentq``; Choi spectra of
intermediate maps come from the generalized-Pauli closed form
``d*p0`` and ``d*p_alpha/(d-1)``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

# Roots closer than this many product-grid cells, or crossings flatter than
# MIN_SLOPE, make the product's verdict depend on grid placement; the
# generators redraw such inputs (the tangential case is covered on purpose by
# the sin^2 probe instead).
MIN_CELLS_APART = 4
MIN_SLOPE = 1e-3
MIN_TOUCH = 1e-4
TIME_TOL = 1e-8


# ---------------------------------------------------------------------------
# Decoherence functions as numpy callables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Func:
    """One decoherence function: its INI lines and a numpy evaluator."""

    ini: tuple  # (key, value) pairs for the [component.N] section
    f: Callable[[np.ndarray], np.ndarray]


def r(x: float) -> str:
    """Round-trip float text, as the INI files and argv carry it."""
    return repr(float(x))


def exp_relax(scale: float, rate: float) -> Func:
    return Func(
        (("kind", "exp_relax"), ("scale", r(scale)), ("rate", r(rate))),
        lambda t: scale * (1.0 - np.exp(-rate * t)),
    )


def expression(source: str, f: Callable) -> Func:
    return Func((("kind", "expression"), ("formula", f'"{source}"')), f)


def exp_template(s: float, k: float) -> tuple[str, Callable]:
    return f"{r(s)}*(1-exp(-{r(k)}*t))", lambda t: s * (1.0 - np.exp(-k * t))


def product_template(s, k, depth, freq) -> tuple[str, Callable]:
    src = f"{r(s)}*(1-exp(-{r(k)}*t))*(1-{r(depth)}*sin({r(freq)}*t)^2)"
    return src, lambda t: s * (1.0 - np.exp(-k * t)) * (1.0 - depth * np.sin(freq * t) ** 2)


def difference_template(s, k, m, k2) -> tuple[str, Callable]:
    src = f"{r(s)}*(1-exp(-{r(k)}*t)) - {r(m)}*(1-exp(-{r(k2)}*t))"
    return src, lambda t: s * (1.0 - np.exp(-k * t)) - m * (1.0 - np.exp(-k2 * t))


def samples(times: np.ndarray, values: np.ndarray) -> Func:
    interp = PchipInterpolator(times, values, extrapolate=False)
    return Func(
        (
            ("kind", "samples"),
            ("times", ", ".join(r(v) for v in times)),
            ("values", ", ".join(r(v) for v in values)),
        ),
        lambda t: interp(np.clip(t, times[0], times[-1])),
    )


@dataclass(frozen=True)
class Mixture:
    dimension: int
    components: tuple  # (weight, basis 1-based, Func)

    def eigenvalues(self, t: np.ndarray) -> np.ndarray:
        """lambda_beta(t), shape (d+1, n)."""
        d = self.dimension
        t = np.asarray(t, dtype=float)
        lam = np.ones((d + 1, t.size))
        for w, basis, fn in self.components:
            off = (d / (d - 1.0)) * w * fn.f(t)
            for beta in range(d + 1):
                if beta != basis - 1:
                    lam[beta] -= off
        return lam

    def input_lambda(self, i: int) -> Callable:
        d = self.dimension
        fn = self.components[i][2].f
        return lambda t: 1.0 - (d / (d - 1.0)) * fn(t)

    def ini(self, t_max: float, points: int, trajectory: str, classification: str) -> str:
        lines = ["[run]", f"dimension = {self.dimension}", f"t_max = {r(t_max)}",
                 f"points = {points}", "", "[output]", f"trajectory = {trajectory}",
                 f"classification = {classification}", ""]
        for k, (w, basis, fn) in enumerate(self.components, start=1):
            lines += [f"[component.{k}]", f"weight = {r(w)}", f"basis = {basis}"]
            lines += [f"{key} = {val}" for key, val in fn.ini]
            lines.append("")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Roots
# ---------------------------------------------------------------------------


class Ambiguous(ValueError):
    """A function whose zero set the product cannot resolve on its grid."""


def roots(f: Callable, t_max: float, cell: float, dense: int = 8001) -> list[float]:
    """Zeros of ``f`` on (0, t_max], each transversal and well separated.

    Raises :class:`Ambiguous` for a near-tangent touch, a flat crossing, two
    zeros within ``MIN_CELLS_APART`` grid cells, or a zero within a cell of
    the window's ends.
    """
    t = np.linspace(0.0, t_max, dense)
    v = f(t)
    found = []
    def scalar(s: float) -> float:
        return float(f(np.array([s]))[0])

    for k in np.nonzero(np.signbit(v[:-1]) != np.signbit(v[1:]))[0]:
        root = brentq(scalar, t[k], t[k + 1], xtol=1e-14, maxiter=200)
        h = 1e-6 * max(t_max, 1.0)
        slope = (scalar(root + h) - scalar(root - h)) / (2 * h)
        if abs(slope) < MIN_SLOPE:
            raise Ambiguous(f"flat crossing at t={root!r}")
        found.append(float(root))
    pts = [0.0, *found, t_max]
    if any(b - a < MIN_CELLS_APART * cell for a, b in zip(pts, pts[1:])):
        raise Ambiguous("zeros too close together or to the window's ends")
    # local minima of |f| that are not crossings: must stay clear of zero
    a = np.abs(v)
    interior = (a[1:-1] <= a[:-2]) & (a[1:-1] <= a[2:])
    for k in np.nonzero(interior)[0] + 1:
        if a[k] < MIN_TOUCH and not any(abs(t[k] - x) < 2 * t_max / dense for x in found):
            raise Ambiguous(f"near-tangent touch at t={t[k]!r}")
    return found


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def choi_spectrum(mu: Sequence[float], d: int) -> np.ndarray:
    """Eigenvalues of the Choi matrix of the map scaling U_beta^m by mu_beta."""
    mu = np.asarray(mu, dtype=float)
    p0 = (1.0 + (d - 1) * mu.sum()) / d**2
    pa = (1.0 + (d - 1) * mu) / d - p0
    return np.concatenate([[d * p0], np.repeat(d * pa / (d - 1), d - 1)])


def all_channels_singular_time(x: float, d: int, c: float):
    g = 1.0 - d * x
    return math.log(1.0 / g) / c if g > 0 else None


def equal_mix_rate(t: np.ndarray, d: int, c: float) -> np.ndarray:
    """gamma_alpha(t) of d+1 equal-weight semigroup inputs (all labels equal).

    For d = 2, c = 1 this is 1/(2(2+e^t)).
    """
    e = np.exp(-c * t)
    return (d - 1) / d**2 * c * d * e / (1.0 + d * e)


# ---------------------------------------------------------------------------
# Output readers and comparisons
# ---------------------------------------------------------------------------


def read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_trajectory(path: str, d: int):
    """(t, lambda (d+1, n), gamma (d+1, n)) from an analyze trajectory CSV."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if len(header) != 2 * (d + 1) + 1 or data.shape[1] != len(header):
        raise ValueError(f"trajectory CSV has {len(header)} columns")
    return data[:, 0], data[:, 1 : d + 2].T, data[:, d + 2 :].T


def read_csv_rows(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


def times_match(got: Sequence[float], want: Sequence[float], tol: float = TIME_TOL) -> bool:
    return len(got) == len(want) and all(abs(g - w) <= tol for g, w in zip(got, want))
