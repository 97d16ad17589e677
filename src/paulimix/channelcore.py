"""Decoherence functions, dephasing channels, and their convex mixtures.

A channel here is the generalized Pauli (MUB dephasing) channel

    E_alpha^p(rho) = (1 - p) rho + (p/(d-1)) sum_{k=1}^{d-1} U_alpha^k rho U_alpha^{k+},

driven by a time-dependent mixing probability ``p(t)`` with ``p(0) = 0``.
On the operator ``U_beta^m`` it acts by the scalar

    lambda = 1                      for beta == alpha,
    lambda = 1 - (d/(d-1)) p(t)     for beta != alpha,

which is everything the spectral layer needs to know about it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import ClassVar, Optional, Sequence, Tuple

import numpy as np
from scipy.interpolate import PchipInterpolator, PPoly

from . import exprcalc
from .exprcalc import DomainError
from .mubgen import check_dimension

__all__ = [
    "DecoherenceFunction",
    "ExpRelax",
    "Expression",
    "ProductTemplate",
    "DifferenceTemplate",
    "SampledGrid",
    "ChannelSpec",
    "MixtureComponent",
    "MixtureSpec",
    "ValidationIssue",
    "MixtureValidation",
    "MixtureValidationError",
    "validate_mixture",
    "single_channel_eigenvalues",
]

_P_INITIAL_TOL = 1e-9
_WEIGHT_SUM_TOL = 1e-12
_RANGE_SLACK = 1e-12


class DecoherenceFunction:
    """Base class: a mixing probability ``p(t)`` with ``p(0) = 0``."""

    kind: ClassVar[str]  # the ``kind`` key of ``describe()`` and of configs

    def value_and_derivative(self, t):
        """Return ``(p(t), dp/dt)``; floats for scalar ``t``, arrays for arrays."""
        raise NotImplementedError

    def value(self, t):
        return self.value_and_derivative(t)[0]

    def as_expression(self) -> str:
        """Source text that ``Expression`` parses to this function."""
        raise TypeError(f"{type(self).__name__} has no closed-form expression")

    def describe(self) -> dict:
        """JSON/config-ready description of the function."""
        raise NotImplementedError


@dataclass(frozen=True)
class ExpRelax(DecoherenceFunction):
    """Exponential relaxation ``p(t) = scale * (1 - exp(-rate*t))``, with a
    finite ``scale`` and a finite ``rate > 0``."""

    kind = "exp_relax"
    scale: float
    rate: float

    def __post_init__(self):
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise ValueError(
                f"relaxation rate must be positive and finite, got {self.rate!r}"
            )
        if not math.isfinite(self.scale):
            raise ValueError(f"relaxation scale must be finite, got {self.scale!r}")

    def value_and_derivative(self, t):
        arr = np.asarray(t, dtype=float)
        decay = np.exp(-self.rate * arr)
        p = self.scale * (1.0 - decay)
        dp = self.scale * self.rate * decay
        if arr.ndim == 0:
            return float(p), float(dp)
        return p, dp

    def as_expression(self) -> str:
        return f"{self.scale!r}*(1-exp(-{self.rate!r}*t))"

    def describe(self) -> dict:
        return {"kind": self.kind, "scale": self.scale, "rate": self.rate}


@dataclass(frozen=True)
class Expression(DecoherenceFunction):
    """A decoherence function given by an expression in ``t`` (see ``exprcalc``)."""

    kind = "expression"
    source: str

    def __post_init__(self):
        ast = exprcalc.parse(self.source)
        object.__setattr__(self, "_ast", ast)
        p0 = exprcalc.eval_dual(ast, 0.0).value
        if abs(p0) > _P_INITIAL_TOL:
            raise ValueError(
                f"decoherence function must vanish at t=0, got p(0)={p0:g} "
                f"for {self.source!r}"
            )

    @property
    def ast(self) -> exprcalc.ExprAst:
        return self._ast  # type: ignore[attr-defined]

    def value_and_derivative(self, t):
        dual = exprcalc.eval_dual(self.ast, t)
        return dual.value, dual.derivative

    def as_expression(self) -> str:
        return self.source

    def describe(self) -> dict:
        return {"kind": self.kind, "formula": self.source}


class _Template(DecoherenceFunction):
    """A closed form that replays ``Expression(self.as_expression())``.

    ``value_and_derivative`` performs, on the same numpy arrays, exactly the
    operations that ``exprcalc.eval_dual`` performs on the parsed formula
    (a scalar ``t`` becomes a 1-element array, as there), so values and
    derivatives equal the parsed formula's bit for bit, signed zeros
    included, with no parsing and no tree walk.  Parameters must be finite
    and nonnegative; they are stored as Python floats, whose ``repr`` the
    formula spells.
    """

    kind = "expression"

    def __post_init__(self):
        for field in fields(self):
            value = float(getattr(self, field.name))
            if not math.isfinite(value) or math.copysign(1.0, value) < 0:
                raise ValueError(
                    f"{type(self).__name__} {field.name} must be finite and "
                    f"nonnegative, got {value!r}"
                )
            object.__setattr__(self, field.name, value)

    def value_and_derivative(self, t):
        arr = np.asarray(t, dtype=float)
        if arr.ndim == 0:
            p, dp = self._dual(arr.reshape(1))
            return float(p[0]), float(dp[0])
        return self._dual(arr)

    def _dual(self, t: np.ndarray):
        raise NotImplementedError

    def describe(self) -> dict:
        return {"kind": self.kind, "formula": self.as_expression()}


def _scaled_relax(scale: float, rate: float, t: np.ndarray):
    """Dual value of the parsed ``scale*(1-exp(-rate*t))``."""
    e = np.exp(-rate * t)
    de = e * (-0.0 * t + -rate)
    a = 1.0 - e
    da = 0.0 - de
    return scale * a, 0.0 * a + scale * da


@dataclass(frozen=True)
class ProductTemplate(_Template):
    """``p(t) = scale*(1-exp(-rate*t))*(1-depth*sin(freq*t)^2)``, in closed form."""

    scale: float
    rate: float
    depth: float
    freq: float

    def _dual(self, t):
        sa, dsa = _scaled_relax(self.scale, self.rate, t)
        ft = self.freq * t
        dft = 0.0 * t + self.freq
        sn = np.sin(ft)
        dsn = np.cos(ft) * dft
        sq = sn**2.0
        dsq = 2.0 * sn**1.0 * dsn
        b = 1.0 - self.depth * sq
        db = 0.0 - (0.0 * sq + self.depth * dsq)
        return sa * b, dsa * b + sa * db

    def as_expression(self) -> str:
        return (
            f"{self.scale!r}*(1-exp(-{self.rate!r}*t))"
            f"*(1-{self.depth!r}*sin({self.freq!r}*t)^2)"
        )


@dataclass(frozen=True)
class DifferenceTemplate(_Template):
    """``p(t) = scale*(1-exp(-rate*t)) - m*(1-exp(-rate2*t))``, in closed form."""

    scale: float
    rate: float
    m: float
    rate2: float

    def _dual(self, t):
        sa, dsa = _scaled_relax(self.scale, self.rate, t)
        mb, dmb = _scaled_relax(self.m, self.rate2, t)
        return sa - mb, dsa - dmb

    def as_expression(self) -> str:
        return (
            f"{self.scale!r}*(1-exp(-{self.rate!r}*t)) "
            f"- {self.m!r}*(1-exp(-{self.rate2!r}*t))"
        )


@dataclass(frozen=True, eq=False)
class SampledGrid(DecoherenceFunction):
    """Sampled values on an ascending time grid, monotone-cubic interpolated.

    Interpolation is shape-preserving cubic (PCHIP); the derivative comes from
    the interpolant itself, not from finite differences of the samples.
    Evaluation outside the sampled range is a domain error.  The samples are
    validated on construction; the interpolant is built on first evaluation,
    or for many grids at once by :func:`build_interpolants`.
    """

    kind = "samples"
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or values.ndim != 1 or times.size != values.size:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if times.size < 3:
            raise ValueError("need at least 3 samples")
        if not np.all(np.isfinite(times)) or not np.all(np.isfinite(values)):
            raise ValueError("samples must be finite")
        if times[0] != 0.0:
            raise ValueError(f"sample times must start at 0, got {times[0]!r}")
        if not np.all(np.diff(times) > 0):
            raise ValueError("sample times must be strictly ascending")
        if abs(values[0]) > _P_INITIAL_TOL:
            raise ValueError(f"decoherence function must vanish at t=0, got {values[0]!r}")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_interp", None)

    def value_and_derivative(self, t):
        arr = np.asarray(t, dtype=float)
        lo, hi = self.times[0], self.times[-1]
        out = (arr < lo - _RANGE_SLACK) | (arr > hi + _RANGE_SLACK)
        if np.any(out):
            bad = float(np.atleast_1d(arr)[np.atleast_1d(out)][0])
            raise DomainError("time outside sampled range", bad)
        if self._interp is None:  # type: ignore[attr-defined]
            build_interpolants([self])
        clipped = np.clip(arr, lo, hi)
        p = self._interp(clipped)  # type: ignore[attr-defined]
        dp = self._dinterp(clipped)  # type: ignore[attr-defined]
        if arr.ndim == 0:
            return float(p), float(dp)
        return np.asarray(p, dtype=float), np.asarray(dp, dtype=float)

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "times": [float(x) for x in self.times],
            "values": [float(x) for x in self.values],
        }


def build_interpolants(functions) -> None:
    """Build the interpolants of the sampled grids among ``functions`` that
    have none yet.

    Grids with the same sample times share one PCHIP build, with their values
    stacked on axis 1, and one derivative; each grid gets its own column of
    the coefficients.  PCHIP works column by column, so every column equals,
    bit for bit, the interpolant built from that grid alone.
    """
    groups: dict = {}
    for f in functions:
        if isinstance(f, SampledGrid) and f._interp is None:  # type: ignore[attr-defined]
            groups.setdefault(f.times.tobytes(), {})[id(f)] = f
    for members in groups.values():
        grids = list(members.values())
        times = grids[0].times
        stacked = np.stack([g.values for g in grids], axis=1)
        interp = PchipInterpolator(times, stacked, extrapolate=False)
        coeffs = np.moveaxis(interp.c, 2, 0).copy()
        dcoeffs = np.moveaxis(interp.derivative().c, 2, 0).copy()
        for g, c, dc in zip(grids, coeffs, dcoeffs):
            object.__setattr__(g, "_dinterp", PPoly.construct_fast(dc, interp.x, False))
            object.__setattr__(g, "_interp", PPoly.construct_fast(c, interp.x, False))


@dataclass(frozen=True)
class ChannelSpec:
    """One dephasing channel: dimension, basis label in 1..d+1, and ``p(t)``."""

    dimension: int
    basis: int
    p: DecoherenceFunction

    def __post_init__(self):
        check_dimension(self.dimension)
        if not 1 <= self.basis <= self.dimension + 1:
            raise ValueError(
                f"basis label must lie in 1..{self.dimension + 1}, got {self.basis}"
            )
        if not isinstance(self.p, DecoherenceFunction):
            raise TypeError("p must be a DecoherenceFunction")


@dataclass(frozen=True)
class MixtureComponent:
    weight: float
    channel: ChannelSpec


@dataclass(frozen=True)
class MixtureSpec:
    """A convex mixture of dephasing channels (repeated basis labels allowed).

    The constructor is permissive so that invalid mixtures can be built and
    fed to :func:`validate_mixture`, which reports all violations.
    """

    dimension: int
    components: Tuple[MixtureComponent, ...]

    def __post_init__(self):
        comps = []
        for entry in self.components:
            if isinstance(entry, MixtureComponent):
                comps.append(entry)
            else:
                weight, channel = entry
                comps.append(MixtureComponent(float(weight), channel))
        object.__setattr__(self, "components", tuple(comps))

    @property
    def functions(self) -> Tuple[DecoherenceFunction, ...]:
        return tuple(c.channel.p for c in self.components)

    def has_sampled_functions(self) -> bool:
        return any(isinstance(f, SampledGrid) for f in self.functions)


@dataclass(frozen=True)
class ValidationIssue:
    kind: str  # 'weight', 'weight-sum', 'dimension', 'p-range', 'p-domain'
    message: str
    component: Optional[int] = None  # 1-based component index
    time: Optional[float] = None


@dataclass(frozen=True)
class MixtureValidation:
    passed: bool
    structural_ok: bool
    p_in_range: bool
    issues: Tuple[ValidationIssue, ...]


class MixtureValidationError(ValueError):
    """Raised by consumers that require a structurally valid mixture."""

    def __init__(self, issues: Sequence[ValidationIssue]):
        text = "; ".join(i.message for i in issues)
        super().__init__(f"invalid mixture: {text}")
        self.issues = tuple(issues)


def bisect_root(f, lo: float, hi: float, flo: float, xtol: float) -> float:
    """Bisect ``f`` for a sign change on [lo, hi]; ``flo = f(lo)``.

    Stops at an exact zero of ``f``, once ``hi - lo <= xtol``, or after 200
    halvings, and returns the midpoint of the last bracket.
    """
    for _ in range(200):
        if hi - lo <= xtol:
            break
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (flo < 0.0) == (fmid < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bracket_roots(values: np.ndarray, times: np.ndarray, f, xtol: float):
    """Zeros of each row of ``values`` (shape ``(rows, n)``, sampled at ``times``).

    Returns one list of roots per row, in ascending grid order.  Brackets come
    from one sign test over the whole array, with these rules for grid
    interval ``k`` of a row, ``a = values[row, k]``, ``b = values[row, k+1]``:

    - an exact zero ``a == 0`` with ``k > 0`` is reported at ``times[k]`` and
      the interval is not bisected (the first column is never a root);
    - a sign change from a nonzero ``a`` (``(a < 0) != (b < 0)``, so also
      ``a < 0, b == 0``) is bisected with ``f(row, t)`` down to ``xtol``;
    - ``values[row, -1] == 0`` reports ``times[-1]``, after any root of the
      last interval;
    - NaN compares false everywhere: it is never a zero, counts as
      nonnegative, and a bracket from a NaN ``a`` is bisected from it.
    """
    a = values[:, :-1]
    zero = a == 0.0
    zero[:, 0] = False
    flip = (a != 0.0) & ((a < 0.0) != (values[:, 1:] < 0.0))
    roots = [[] for _ in range(values.shape[0])]
    for row, k in np.argwhere(zero | flip).tolist():
        if zero[row, k]:
            roots[row].append(float(times[k]))
        else:
            lo, hi = float(times[k]), float(times[k + 1])
            roots[row].append(bisect_root(lambda t: f(row, t), lo, hi, a[row, k], xtol))
    for row in np.flatnonzero(values[:, -1] == 0.0).tolist():
        roots[row].append(float(times[-1]))
    return roots


def structural_issues(spec: MixtureSpec) -> list[ValidationIssue]:
    """The weight-simplex and dimension issues of a mixture, in report order."""
    issues: list[ValidationIssue] = []
    weights = [c.weight for c in spec.components]
    if not spec.components:
        issues.append(ValidationIssue("weight-sum", "mixture has no components"))
    for i, w in enumerate(weights, start=1):
        if w < 0:
            issues.append(
                ValidationIssue("weight", f"component {i} weight {w!r} is negative", i)
            )
    total = float(sum(weights))
    if spec.components and abs(total - 1.0) > _WEIGHT_SUM_TOL:
        issues.append(
            ValidationIssue(
                "weight-sum", f"weights sum to {total!r}, expected 1 within {_WEIGHT_SUM_TOL}"
            )
        )
    for i, comp in enumerate(spec.components, start=1):
        if comp.channel.dimension != spec.dimension:
            issues.append(
                ValidationIssue(
                    "dimension",
                    f"component {i} has dimension {comp.channel.dimension}, "
                    f"mixture declares {spec.dimension}",
                    i,
                )
            )
    return issues


def range_violations(p) -> Tuple[np.ndarray, np.ndarray]:
    """Masks of the samples of ``p`` above 1 and below 0 (beyond a 1e-12 slack)."""
    p = np.atleast_1d(p)
    return p > 1.0 + _RANGE_SLACK, p < -_RANGE_SLACK


def validate_mixture(spec: MixtureSpec, grid) -> MixtureValidation:
    """Check the weight simplex, dimension consistency, and ``p`` ranges.

    Range violations are located to the first offending time (refined between
    the bracketing grid points).  The report never raises; domain errors during
    evaluation become issues.
    """
    times = np.asarray(getattr(grid, "times", grid), dtype=float)
    issues = structural_issues(spec)
    structural_ok = not issues

    p_in_range = True
    for i, comp in enumerate(spec.components, start=1):
        func = comp.channel.p
        try:
            p, _ = func.value_and_derivative(times)
        except DomainError as err:
            p_in_range = False
            issues.append(
                ValidationIssue("p-domain", f"component {i}: {err}", i, err.t)
            )
            continue
        high, low = range_violations(p)
        for bad, threshold, label in ((high, 1.0, "above 1"), (low, 0.0, "below 0")):
            if not np.any(bad):
                continue
            p_in_range = False
            k = int(np.argmax(bad))
            t_bad = float(times[k])
            if k > 0:
                scalar = lambda s: float(func.value(s)) - threshold
                lo = float(times[k - 1])
                t_bad = bisect_root(scalar, lo, t_bad, scalar(lo), 1e-12)
            issues.append(
                ValidationIssue(
                    "p-range",
                    f"component {i}: p(t) leaves [0,1] ({label}) near t={t_bad:.12g}",
                    i,
                    t_bad,
                )
            )
    return MixtureValidation(
        passed=structural_ok and p_in_range,
        structural_ok=structural_ok,
        p_in_range=p_in_range,
        issues=tuple(issues),
    )


def single_channel_eigenvalues(channel: ChannelSpec, t):
    """Per-label eigenvalues of one channel at time(s) ``t``.

    Label ``beta == channel.basis`` gives 1; every other label gives
    ``1 - (d/(d-1)) p(t)``.  Returns shape ``(d+1,)`` for scalar ``t`` and
    ``(d+1, n)`` for an array of times.  Out-of-range ``p`` is not an error
    here; callers flag validity separately.
    """
    d = channel.dimension
    arr = np.asarray(t, dtype=float)
    p, _ = channel.p.value_and_derivative(arr)
    off = 1.0 - (d / (d - 1.0)) * np.atleast_1d(np.asarray(p, dtype=float))
    lam = np.ones((d + 1, off.size))
    for beta in range(d + 1):
        if beta != channel.basis - 1:
            lam[beta] = off
    if arr.ndim == 0:
        return lam[:, 0]
    return lam
