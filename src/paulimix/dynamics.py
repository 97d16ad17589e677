"""Spectral dynamics of channel mixtures: eigenvalue flows, decay rates,
semigroup detection, CP-divisibility, and singular (noninvertibility) times.

A mixture ``sum_i x_i E_{alpha_i}^{p_i(t)}`` acts on each Weyl operator
``U_beta^m`` by the scalar

    lambda_beta(t) = 1 - (d/(d-1)) * sum_{i: alpha_i != beta} x_i p_i(t),

so its time-local generator has logarithmic-derivative data

    Gamma_beta = -lambda_beta' / lambda_beta = (d/(d-1)) sum_{alpha != beta} gamma_alpha,

whose unique inversion is

    gamma_alpha = ((d-1)/d) * [ (1/d) sum_beta Gamma_beta  -  Gamma_alpha ].

Derivatives of the eigenvalues come from the decoherence functions' own exact
derivatives (dual numbers / interpolant derivatives), never from numerical
differencing of the trajectory.

Every formula is written once, as a kernel over a leading mixture axis
(arrays of shape ``(B, d+1, n)``); :func:`classify_many` and
:func:`semigroup_verdicts` run the kernels on blocks of mixtures, and the
one-mixture functions run them with ``B = 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .channelcore import (
    DecoherenceFunction,
    MixtureSpec,
    MixtureValidationError,
    bracket_roots,
    build_interpolants,
    range_violations,
    structural_issues,
)

__all__ = [
    "TimeGrid",
    "default_grid",
    "refine_grid",
    "Tolerances",
    "SpectralTrajectory",
    "RateTrajectory",
    "SemigroupVerdict",
    "InputVerdict",
    "ClassificationReport",
    "IntermediateMapCheck",
    "AnalysisResult",
    "mixture_eigenvalues",
    "rates_from_spectrum",
    "detect_semigroup",
    "semigroup_verdicts",
    "classify",
    "classify_many",
    "analyze_mixture",
    "intermediate_map_check",
]

_MIN_GRID_POINTS = 32
_INITIAL_EIG_TOL = 1e-9
_NOT_IDENTITY = "eigenvalues must equal 1 at t=0 (map starts at identity)"
# classify_many works on blocks of at most this many eigenvalues
# (mixtures x (d+1) x grid points), which bounds its working memory.
_BLOCK_VALUES = 1 << 16


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly ascending times starting at 0, at least 32 points."""

    times: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1:
            raise ValueError("grid times must be a 1-d array")
        if times.size < _MIN_GRID_POINTS:
            raise ValueError(f"grid needs at least {_MIN_GRID_POINTS} points")
        if not np.all(np.isfinite(times)):
            raise ValueError("grid times must be finite")
        if times[0] != 0.0:
            raise ValueError(f"grid must start at t=0, got {times[0]!r}")
        if not np.all(np.diff(times) > 0):
            raise ValueError("grid times must be strictly ascending")
        times.setflags(write=False)
        object.__setattr__(self, "times", times)

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def t_max(self) -> float:
        return float(self.times[-1])


def default_grid(t_max: float = 5.0, points: int = 512) -> TimeGrid:
    t_max = float(t_max)
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise ValueError(f"grid t_max must be finite and positive, got {t_max!r}")
    return TimeGrid(np.linspace(0.0, t_max, int(points)))


def refine_grid(grid: TimeGrid, centers: Sequence[float], levels: int = 12) -> TimeGrid:
    """Add geometrically clustered points around each center (e.g. a pole)."""
    t_max = grid.t_max
    extras = []
    for center in centers:
        for k in range(levels):
            step = t_max / 64.0 * 2.0**-k
            for t in (center - step, center + step):
                if 0.0 < t < t_max:
                    extras.append(t)
        if 0.0 < center < t_max:
            extras.append(center)
    if not extras:
        return grid
    times = np.unique(np.concatenate([grid.times, np.asarray(extras)]))
    return TimeGrid(times)


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used by classification.

    ``semigroup=None`` and ``cp=None`` auto-select 1e-8 for closed-form
    mixtures and 1e-5 when any component is a sampled grid (interpolation
    error dominates there, in the rate minimum as much as in the exponential
    fit).
    """

    semigroup: Optional[float] = None
    cp: Optional[float] = None
    pole: float = 1e-12
    singularity: float = 1e-10

    def semigroup_for(self, spec: MixtureSpec) -> float:
        return _tolerance_for(self.semigroup, spec)

    def cp_for(self, spec: MixtureSpec) -> float:
        return _tolerance_for(self.cp, spec)


def _tolerance_for(given: Optional[float], spec: MixtureSpec) -> float:
    """``given`` if set, else the automatic choice described on :class:`Tolerances`."""
    if given is not None:
        return given
    return 1e-5 if spec.has_sampled_functions() else 1e-8


@dataclass(frozen=True, eq=False)
class SpectralTrajectory:
    """Eigenvalues ``lambda_beta`` and exact derivatives on a grid; shape (d+1, n)."""

    dimension: int
    grid: TimeGrid
    eigenvalues: np.ndarray
    derivatives: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        dlam = np.asarray(self.derivatives, dtype=float)
        n = len(self.grid)
        if lam.shape != (self.dimension + 1, n) or dlam.shape != lam.shape:
            raise ValueError("trajectory arrays must have shape (d+1, n)")
        if np.abs(lam[:, 0] - 1.0).max() > _INITIAL_EIG_TOL:
            raise ValueError(_NOT_IDENTITY)
        lam.setflags(write=False)
        dlam.setflags(write=False)
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "derivatives", dlam)


@dataclass(frozen=True, eq=False)
class RateTrajectory:
    """Decay rates ``gamma_alpha(t_k)``; columns where any ``|lambda| < pole_tol``
    are marked in ``pole_mask`` and hold ``+/-inf``."""

    dimension: int
    grid: TimeGrid
    gamma: np.ndarray
    pole_mask: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=float)
        mask = np.asarray(self.pole_mask, dtype=bool)
        g.setflags(write=False)
        mask.setflags(write=False)
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "pole_mask", mask)


@dataclass(frozen=True)
class SemigroupVerdict:
    is_semigroup: bool
    exponents: np.ndarray  # fitted r_beta, one per label (nan if unfittable)
    max_eigenvalue_deviation: float
    max_rate_variation: float
    tolerance: float


@dataclass(frozen=True)
class InputVerdict:
    component: int  # 1-based
    basis: int
    verdict: str  # 'semigroup' | 'invertible' | 'noninvertible'
    singular_times: Tuple[float, ...]


@dataclass(frozen=True)
class ClassificationReport:
    dimension: int
    is_semigroup: bool
    semigroup_exponents: Tuple[float, ...]
    max_semigroup_deviation: float
    is_cp_divisible: bool
    min_rate: float
    singular_times: Tuple[Tuple[int, float], ...]  # (label 1-based, t*)
    inputs: Tuple[InputVerdict, ...]
    p_in_range: bool
    semigroup_tolerance: float
    cp_tolerance: float


@dataclass(frozen=True)
class IntermediateMapCheck:
    defined: bool
    is_cp: Optional[bool]
    min_choi_eigenvalue: Optional[float]
    eigenvalue_ratios: Optional[Tuple[float, ...]]
    t_a: float
    t_b: float


@dataclass(frozen=True, eq=False)
class AnalysisResult:
    spectral: SpectralTrajectory
    rates: RateTrajectory
    report: ClassificationReport


# ---------------------------------------------------------------------------
# Batched kernels: B mixtures of one dimension on one grid
# ---------------------------------------------------------------------------


class _Functions:
    """The distinct decoherence functions of some mixtures, in first-use order.

    Functions that compare equal share one entry; a ``SampledGrid`` compares
    by identity.  Lookups go by ``id`` first, so every function looked up
    must stay alive while the table is in use (the mixtures hold them).
    """

    def __init__(self):
        self.functions: list = []
        self.keys: list = []
        self._index: dict = {}
        self._by_id: dict = {}

    def index(self, f: DecoherenceFunction) -> int:
        i = self._by_id.get(id(f))
        if i is None:
            key = f
            try:
                i = self._index.get(key)
            except TypeError:  # unhashable: keyed by identity
                key = ("id", id(f))
                i = self._index.get(key)
            if i is None:
                i = self._index[key] = len(self.functions)
                self.functions.append(f)
                self.keys.append(key)
            self._by_id[id(f)] = i
        return i

    def evaluate(self, times: np.ndarray):
        """Values ``[p, p']`` of every function, shape ``(2, F, n)``, and the
        error of each function whose evaluation raised, by index."""
        build_interpolants(self.functions)
        values = np.zeros((2, len(self.functions), times.size))
        failures = {}
        for i, f in enumerate(self.functions):
            try:
                values[0, i], values[1, i] = f.value_and_derivative(times)
            except Exception as exc:
                failures[i] = exc
        return values, failures


class _Slot(NamedTuple):
    """The j-th components of B mixtures, for the mixtures that have one.

    Each field indexes one axis: an index array, or a slice where that is
    the same selection (all mixtures, or a single entry).
    """

    members: object  # those mixtures
    weights: object  # (m, 1) array, or the one weight as a float
    functions: object  # (m,) indices into the evaluated functions
    cells: object  # (m,) rows of the (B*(d+1), n) per-label sums


class _Mixtures(NamedTuple):
    """B mixtures of one dimension, component by component."""

    dimension: int
    size: int
    slots: Tuple[_Slot, ...]


def _as_index(entries: list):
    # One entry becomes a slice: basic indexing is cheaper and selects the same.
    if len(entries) == 1:
        return slice(entries[0], entries[0] + 1)
    return np.array(entries, dtype=np.intp)


def _encode(specs: Sequence[MixtureSpec], ids: Sequence[Sequence[int]]) -> _Mixtures:
    """``specs`` with component ``j`` of ``specs[b]`` using function ``ids[b][j]``.

    A basis label above ``d+1`` would address another mixture's row, so it
    raises ``ValueError``.
    """
    d = specs[0].dimension
    for spec in specs:
        for c in spec.components:
            if c.channel.basis > d + 1:
                raise ValueError(
                    f"basis label {c.channel.basis} lies outside 1..{d + 1} "
                    f"for dimension {d}"
                )
    size = len(specs)
    if size == 1:
        # One mixture: every index selects one entry, so slices throughout.
        slots = tuple(
            _Slot(slice(None), c.weight, slice(f, f + 1), slice(c.channel.basis - 1, c.channel.basis))
            for c, f in zip(specs[0].components, ids[0])
        )
        return _Mixtures(d, 1, slots)
    slots = []
    for j in range(max(len(row) for row in ids)):
        rows = [b for b, row in enumerate(ids) if len(row) > j]
        comps = [specs[b].components[j] for b in rows]
        slots.append(
            _Slot(
                slice(None) if len(rows) == size else np.array(rows, dtype=np.intp),
                np.array([[c.weight] for c in comps], dtype=float),
                _as_index([ids[b][j] for b in rows]),
                _as_index([b * (d + 1) + c.channel.basis - 1 for b, c in zip(rows, comps)]),
            )
        )
    return _Mixtures(d, size, tuple(slots))


def _spectrum(mixtures: _Mixtures, values: np.ndarray):
    """``(lambda, lambda')`` of B mixtures, shape ``(B, d+1, n)``, from the
    values ``[p, p']`` of their functions (shape ``(2, F, n)``).

    Each mixture sums its components in its own order.  A mixture without a
    j-th component is left out of slot j, never given a zero weight, so a
    NaN in one mixture's function cannot reach another row.
    """
    d, size, n = mixtures.dimension, mixtures.size, values.shape[2]
    # [p, p'] summed over all components, and over those of each label.
    total = np.zeros((2, size, n))
    per_label = np.zeros((2, size * (d + 1), n))
    for slot in mixtures.slots:
        weighted = slot.weights * values[:, slot.functions]
        total[:, slot.members] += weighted
        per_label[:, slot.cells] += weighted
    # lambda = 1 - factor (total - per_label) and lambda' = -factor (total'
    # - per_label'), computed in place.
    per_label = per_label.reshape(2, size, d + 1, n)
    np.subtract(total[:, :, None, :], per_label, out=per_label)
    lam, dlam = per_label
    factor = d / (d - 1.0)
    lam *= factor
    np.subtract(1.0, lam, out=lam)
    dlam *= -factor
    return lam, dlam


def _rates(lam: np.ndarray, dlam: np.ndarray, pole_tol: float):
    """Rates ``gamma`` (shape ``(B, d+1, n)``) and pole mask (``(B, n)``)."""
    d = lam.shape[1] - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        # Gamma = -lambda'/lambda, then gamma = ((d-1)/d)(mean Gamma - Gamma),
        # in place.
        gamma = np.negative(dlam)
        gamma /= lam
        mean = gamma.sum(axis=1) / d
        np.subtract(mean[:, None, :], gamma, out=gamma)
        gamma *= (d - 1.0) / d
    pole = np.abs(lam).min(axis=1) < pole_tol
    if np.any(pole):
        b, k = np.nonzero(pole)
        raw = gamma[b, :, k]
        signs = np.where(np.isnan(raw), 1.0, np.sign(raw))
        signs[signs == 0.0] = 1.0
        gamma[b, :, k] = signs * np.inf
    return gamma, pole


def _blocks(specs: Sequence[MixtureSpec], points: int):
    """``(start, stop)`` of consecutive runs of mixtures of one dimension,
    each of at most ``_BLOCK_VALUES`` eigenvalues on ``points`` grid points
    (and at least one mixture)."""
    start = 0
    while start < len(specs):
        d = specs[start].dimension
        size = max(1, _BLOCK_VALUES // (max(d + 1, 1) * points))
        stop = start + 1
        while stop < len(specs) and stop - start < size and specs[stop].dimension == d:
            stop += 1
        yield start, stop
        start = stop


class _Fit(NamedTuple):
    """Per-mixture semigroup fit and rate extremes of B spectra."""

    exponents: np.ndarray  # (B, d+1): r_beta = -ln lambda_beta(t_ref) / t_ref
    deviation: np.ndarray  # max |lambda - exp(-r t)|; inf if nonpositive
    spread: np.ndarray  # max over labels of a rate's range off poles
    least: np.ndarray  # least rate off poles; -inf if every column is a pole
    nonpositive: np.ndarray  # some eigenvalue <= 0 on the grid


def _fit(lam: np.ndarray, gamma: np.ndarray, pole: np.ndarray, times: np.ndarray) -> _Fit:
    mid = times.size // 2
    lam_ref = lam[:, :, mid]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        exponents = np.where(lam_ref > 0, -np.log(np.abs(lam_ref)) / times[mid], np.nan)
        work = np.exp(-exponents[:, :, None] * times)
    np.subtract(lam, work, out=work)
    deviation = np.abs(work, out=work).max(axis=(1, 2))
    if pole.any():
        # Pole columns masked by +inf for the minimum, -inf for the maximum;
        # a mixture with no other column has no spread and least rate -inf.
        masked = pole[:, None, :]
        np.copyto(work, gamma)
        np.copyto(work, np.inf, where=masked)
        low = work.min(axis=2)
        np.copyto(work, -np.inf, where=masked)
        spread = (work.max(axis=2) - low).max(axis=1)
        least = low.min(axis=1)
        no_cols = pole.all(axis=1)
        spread[no_cols] = np.inf
        least[no_cols] = -np.inf
    else:
        low = gamma.min(axis=2)
        spread = (gamma.max(axis=2) - low).max(axis=1)
        least = low.min(axis=1)
    nonpositive = (lam <= 0.0).any(axis=(1, 2))
    if nonpositive.any():
        deviation[nonpositive] = np.inf
        spread[nonpositive] = np.inf
    return _Fit(exponents, deviation, spread, least, nonpositive)


# ---------------------------------------------------------------------------
# Eigenvalue trajectories and rates
# ---------------------------------------------------------------------------


def _one(spec: MixtureSpec):
    """``spec`` alone: its functions (one entry per component, keyed by
    position), their index per component, and its encoding."""
    funcs = _Functions()
    funcs.functions = [c.channel.p for c in spec.components]
    funcs.keys = ids = list(range(len(funcs.functions)))
    return funcs, ids, _encode([spec], [ids])


def _evaluated(funcs: _Functions, ids: Sequence[int], times: np.ndarray):
    """The values of ``funcs.evaluate(times)``, raising the error of the
    first component (with function indices ``ids``) whose function failed."""
    values, failures = funcs.evaluate(times)
    for i in ids:
        if i in failures:
            raise failures[i]
    return values


def mixture_eigenvalues(spec: MixtureSpec, grid: TimeGrid) -> SpectralTrajectory:
    """Per-label eigenvalues of the mixture on the grid, with exact derivatives.

    Domain errors from decoherence functions propagate with their time stamp.
    """
    funcs, ids, one = _one(spec)
    lam, dlam = _spectrum(one, _evaluated(funcs, ids, grid.times))
    return SpectralTrajectory(
        dimension=spec.dimension, grid=grid, eigenvalues=lam[0], derivatives=dlam[0]
    )


def rates_from_spectrum(
    traj: SpectralTrajectory,
    dimension: Optional[int] = None,
    pole_tol: float = 1e-12,
) -> RateTrajectory:
    """Decay rates ``gamma_alpha = ((d-1)/d) [ (1/d) sum_beta Gamma_beta - Gamma_alpha ]``.

    Columns where any ``|lambda_beta| < pole_tol`` are marked as poles and
    emitted as ``+/-inf``; they are never interpolated over.
    """
    d = traj.dimension
    if dimension is not None and dimension != d:
        raise ValueError(f"dimension {dimension} does not match trajectory ({d})")
    gamma, pole = _rates(traj.eigenvalues[None], traj.derivatives[None], pole_tol)
    return RateTrajectory(dimension=d, grid=traj.grid, gamma=gamma[0], pole_mask=pole[0])


def detect_semigroup(
    traj: SpectralTrajectory, rates: RateTrajectory, tol: float = 1e-8
) -> SemigroupVerdict:
    """Exponential-eigenvalue + constant-rate test for semigroup dynamics.

    Fits a per-label exponent ``r_beta = -ln lambda_beta(t_ref) / t_ref`` at the
    grid midpoint and accepts iff every ``|lambda_beta(t) - exp(-r_beta t)|``
    stays within ``tol`` *and* every rate ``gamma_alpha`` is constant within
    ``tol``.  Any non-positive eigenvalue on the grid fails immediately
    (a noninvertible output cannot be a semigroup).
    """
    fit = _fit(
        traj.eigenvalues[None], rates.gamma[None], rates.pole_mask[None], traj.grid.times
    )
    return _verdict(fit, 0, tol)


def _verdict(fit: _Fit, b: int, tol: float) -> SemigroupVerdict:
    """The semigroup verdict of row ``b`` of ``fit``."""
    max_dev = float(fit.deviation[b])
    rate_var = float(fit.spread[b])
    return SemigroupVerdict(
        is_semigroup=bool(not fit.nonpositive[b] and max_dev <= tol and rate_var <= tol),
        exponents=fit.exponents[b],
        max_eigenvalue_deviation=max_dev,
        max_rate_variation=rate_var,
        tolerance=tol,
    )


def semigroup_verdicts(
    specs: Iterable[MixtureSpec],
    grid: TimeGrid,
    tolerances: Optional[Tolerances] = None,
) -> List[SemigroupVerdict]:
    """The semigroup verdict of each mixture, in one batched pass.

    Equals ``[detect_semigroup(tr, rates_from_spectrum(tr, pole_tol=tol.pole),
    tol.semigroup_for(s)) for s in specs]`` with ``tr = mixture_eigenvalues(s,
    grid)``, field for field (exponents bit for bit), and raises the first
    exception that this would raise (a basis label above ``d+1`` is reported
    ahead of the other errors of its block).  Blocks of mixtures, of at most
    ``_BLOCK_VALUES`` eigenvalues, evaluate each distinct decoherence
    function once and compute spectra, rates and fits as arrays over a
    leading mixture axis.
    """
    tol = tolerances if tolerances is not None else Tolerances()
    specs = list(specs)
    times = grid.times
    verdicts: list = []
    for start, stop in _blocks(specs, times.size):
        block = specs[start:stop]
        funcs = _Functions()
        ids = [[funcs.index(c.channel.p) for c in spec.components] for spec in block]
        values, failures = funcs.evaluate(times)
        lam, dlam = _spectrum(_encode(block, ids), values)
        not_identity = np.abs(lam[:, :, 0] - 1.0).max(axis=1) > _INITIAL_EIG_TOL
        for row, off in zip(ids, not_identity.tolist()):
            for j in row:
                if j in failures:
                    raise failures[j]
            if off:
                raise ValueError(_NOT_IDENTITY)
        gamma, pole = _rates(lam, dlam, tol.pole)
        fit = _fit(lam, gamma, pole, times)
        verdicts.extend(_verdict(fit, b, tol.semigroup_for(s)) for b, s in enumerate(block))
    return verdicts


# ---------------------------------------------------------------------------
# Zero crossings / classification
# ---------------------------------------------------------------------------


def _input_verdict(
    f: DecoherenceFunction, p: np.ndarray, times: np.ndarray, d: int, sg_tol: float, xtol: float
) -> Tuple[str, Tuple[float, ...]]:
    """Verdict and zeros of one input's off-label eigenvalue ``1 - (d/(d-1)) p``."""
    factor = d / (d - 1.0)
    lam = 1.0 - factor * p
    (crossings,) = bracket_roots(
        lam[None, :], times, lambda _row, t: 1.0 - factor * float(f.value(t)), xtol
    )
    if crossings:
        return "noninvertible", tuple(crossings)
    mid = times.size // 2
    if lam[mid] > 0.0 and np.all(lam > 0.0):
        r = -np.log(lam[mid]) / times[mid]
        if np.abs(lam - np.exp(-r * times)).max() <= sg_tol:
            return "semigroup", ()
    return "invertible", ()


class _InputCache:
    """Input verdicts on one grid, each computed once per distinct
    ``(function, dimension, semigroup tolerance)``."""

    def __init__(self, times: np.ndarray, xtol: float):
        self.times = times
        self.xtol = xtol
        self._verdicts: dict = {}

    def inputs(self, spec, ids, funcs: _Functions, values: np.ndarray, sg_tol, made: dict):
        """The input verdicts of ``spec``; ``made`` keeps the verdict objects
        already built for ``funcs``."""
        out = []
        for i, (comp, j) in enumerate(zip(spec.components, ids), start=1):
            memo = (j, sg_tol, i, comp.channel.basis)
            verdict = made.get(memo)
            if verdict is None:
                key = (funcs.keys[j], spec.dimension, sg_tol)
                found = self._verdicts.get(key)
                if found is None:
                    try:
                        found = _input_verdict(
                            funcs.functions[j], values[0, j], self.times, spec.dimension,
                            sg_tol, self.xtol,
                        )
                    except Exception as exc:
                        found = exc
                    self._verdicts[key] = found
                if isinstance(found, Exception):
                    raise found
                verdict = made[memo] = InputVerdict(i, comp.channel.basis, *found)
            out.append(verdict)
        return tuple(out)


def _output_singularities(lam: np.ndarray, times: np.ndarray, point, xtol: float):
    """Sorted ``(label, t*)`` zeros of each mixture's eigenvalues; intervals
    are bisected with ``point(b, beta, t) = lambda_beta(t)`` of mixture b."""
    size, labels, n = lam.shape
    roots = bracket_roots(
        lam.reshape(size * labels, n),
        times,
        lambda row, t: point(*divmod(row, labels), t),
        xtol,
    )
    found = [()] * size
    for b in sorted({row // labels for row, ts in enumerate(roots) if ts}):
        found[b] = tuple(
            sorted((beta + 1, t) for beta in range(labels) for t in roots[b * labels + beta])
        )
    return found


class _Assessed(NamedTuple):
    """Spectra, rates and fits of B mixtures on one grid."""

    lam: np.ndarray
    dlam: np.ndarray
    gamma: np.ndarray
    pole: np.ndarray
    fit: list  # per mixture: (exponents, deviation, spread, least rate, nonpositive)


def _assess(mixtures: _Mixtures, values: np.ndarray, times, pole_tol) -> _Assessed:
    lam, dlam = _spectrum(mixtures, values)
    gamma, pole = _rates(lam, dlam, pole_tol)
    fit = _fit(lam, gamma, pole, times)
    per_row = list(
        zip(
            map(tuple, fit.exponents.tolist()),
            fit.deviation.tolist(),
            fit.spread.tolist(),
            fit.least.tolist(),
            fit.nonpositive.tolist(),
        )
    )
    return _Assessed(lam, dlam, gamma, pole, per_row)


def _report(spec, fit, singular, inputs, p_in_range, sg_tol, cp_tol) -> ClassificationReport:
    exponents, deviation, spread, least, nonpositive = fit
    is_cp_divisible = bool(least >= -cp_tol)
    fits = not nonpositive and deviation <= sg_tol and spread <= sg_tol
    return ClassificationReport(
        dimension=spec.dimension,
        is_semigroup=bool(fits and is_cp_divisible),
        semigroup_exponents=exponents,
        max_semigroup_deviation=deviation,
        is_cp_divisible=is_cp_divisible,
        min_rate=least,
        singular_times=singular,
        inputs=inputs,
        p_in_range=p_in_range,
        semigroup_tolerance=sg_tol,
        cp_tolerance=cp_tol,
    )


def _analyze_block(specs, grid: TimeGrid, tol: Tolerances, refine: bool, keep: bool, cache):
    """:func:`analyze_mixture` of mixtures of one dimension, in order (only
    the reports unless ``keep``).  A mixture whose analysis raises gets the
    exception in its place, the first one that its own analysis would raise."""
    times = grid.times
    out: list = [None] * len(specs)
    funcs = _Functions()
    block, ids = [], []
    for pos, spec in enumerate(specs):
        try:
            issues = structural_issues(spec)
            if issues:
                raise MixtureValidationError(issues)
            row = [funcs.index(c.channel.p) for c in spec.components]
        except Exception as exc:
            out[pos] = exc
        else:
            block.append(pos)
            ids.append(row)
    values, failures = funcs.evaluate(times)
    if failures:
        for pos, row in zip(block, ids):
            out[pos] = next((failures[j] for j in row if j in failures), None)
        kept = [b for b, pos in enumerate(block) if out[pos] is None]
        block = [block[b] for b in kept]
        ids = [ids[b] for b in kept]
    if not block:
        return out
    d = specs[block[0]].dimension
    assessed = _assess(_encode([specs[pos] for pos in block], ids), values, times, tol.pole)
    lam = assessed.lam
    for b in np.flatnonzero(np.abs(lam[:, :, 0] - 1.0).max(axis=1) > _INITIAL_EIG_TOL):
        out[block[b]] = ValueError(_NOT_IDENTITY)
    high, low = range_violations(values[0])
    in_range = (~(high.any(axis=1) | low.any(axis=1))).tolist()
    points: dict = {}

    def point(b: int, beta: int, t: float) -> float:
        # lambda_beta(t) of block row b, bisected as for the mixture alone.
        if b not in points:
            points[b] = _one(specs[block[b]])
        one_funcs, one_ids, one = points[b]
        try:
            value, _ = _spectrum(one, _evaluated(one_funcs, one_ids, np.asarray([t])))
        except Exception as exc:
            if out[block[b]] is None:
                out[block[b]] = exc
            return np.nan
        return float(value[0, beta, 0])

    singular = _output_singularities(lam, times, point, tol.singularity)
    made: dict = {}
    tolerances: dict = {}  # by function indices, which decide sampled or not
    for b, pos in enumerate(block):
        if out[pos] is not None:
            continue
        spec = specs[pos]
        uses = tuple(ids[b])
        if uses not in tolerances:
            tolerances[uses] = (tol.semigroup_for(spec), tol.cp_for(spec))
        sg_tol, cp_tol = tolerances[uses]
        p_in_range = all(in_range[j] for j in ids[b])
        row_grid, row, r = grid, assessed, b
        try:
            if singular[b] and refine:
                row_grid = refine_grid(grid, [t for _, t in singular[b]])
                one_funcs, one_ids, one = _one(spec)
                row_values = _evaluated(one_funcs, one_ids, row_grid.times)
                row, r = _assess(one, row_values, row_grid.times, tol.pole), 0
                inputs = _InputCache(row_grid.times, tol.singularity).inputs(
                    spec, one_ids, one_funcs, row_values, sg_tol, {}
                )
            else:
                inputs = cache.inputs(spec, ids[b], funcs, values, sg_tol, made)
        except Exception as exc:
            out[pos] = exc
            continue
        report = _report(spec, row.fit[r], singular[b], inputs, p_in_range, sg_tol, cp_tol)
        if keep:
            spectral = SpectralTrajectory(d, row_grid, row.lam[r], row.dlam[r])
            rates = RateTrajectory(d, row_grid, row.gamma[r], row.pole[r])
            out[pos] = AnalysisResult(spectral=spectral, rates=rates, report=report)
        else:
            out[pos] = report
    return out


def _analyze(specs, grid, tolerances, refine: bool, keep: bool) -> list:
    grid = grid if grid is not None else default_grid()
    tol = tolerances if tolerances is not None else Tolerances()
    specs = list(specs)
    cache = _InputCache(grid.times, tol.singularity)
    results: list = []
    for start, stop in _blocks(specs, len(grid)):
        block = _analyze_block(specs[start:stop], grid, tol, refine, keep, cache)
        for result in block:
            if isinstance(result, Exception):
                raise result
        results.extend(block)
    return results


def classify_many(
    specs: Iterable[MixtureSpec],
    grid: Optional[TimeGrid] = None,
    tolerances: Optional[Tolerances] = None,
    refine: bool = True,
) -> List[ClassificationReport]:
    """``[classify(s, grid, tolerances, refine) for s in specs]``, equal by
    ``repr``, in one batched pass over blocks of mixtures.

    Each block evaluates every distinct decoherence function once on the
    grid, and computes eigenvalues, rates, poles, the semigroup fit and the
    least rate as arrays over a leading mixture axis.  Each distinct input
    ``(function, dimension, semigroup tolerance)`` gets its invertibility
    verdict, bisection included, once per call.  Rows with singular times
    are refined and recomputed one by one.  Blocks hold at most
    ``_BLOCK_VALUES`` eigenvalues, so memory does not grow with the batch
    beyond the reports themselves.  The first mixture that ``classify``
    would reject raises the same exception here.
    """
    return _analyze(specs, grid, tolerances, refine, keep=False)


def classify(
    spec: MixtureSpec,
    grid: Optional[TimeGrid] = None,
    tolerances: Optional[Tolerances] = None,
    refine: bool = True,
) -> ClassificationReport:
    """Full classification of a mixture's dynamics on a grid.

    Semigroup verdict (exponential eigenvalues, constant rates), CP
    divisibility (min rate >= -cp tolerance away from poles), singular times
    of the output map (bisection-refined), and per-input invertibility
    verdicts.  ``p`` out of [0, 1] only clears the validity flag; evaluation
    continues.  Structurally invalid mixtures raise
    :class:`MixtureValidationError`.

    When singular times are found and ``refine`` is set, the grid is
    geometrically refined around them and the trajectory recomputed, so the
    reported diagnostics resolve the poles.  This is the one-mixture case of
    :func:`classify_many`.
    """
    return classify_many([spec], grid, tolerances, refine)[0]


def analyze_mixture(
    spec: MixtureSpec,
    grid: Optional[TimeGrid] = None,
    tolerances: Optional[Tolerances] = None,
    refine: bool = True,
) -> AnalysisResult:
    """Like :func:`classify` but also returns the (possibly refined) trajectories."""
    return _analyze([spec], grid, tolerances, refine, keep=True)[0]


def intermediate_map_check(
    traj: SpectralTrajectory,
    t_a: float,
    t_b: float,
    pole_tol: float = 1e-12,
    psd_tol: float = 1e-10,
) -> IntermediateMapCheck:
    """CP verdict of the map taking the state at ``t_a`` to the state at ``t_b``.

    Its eigenvalues are ``mu_beta = lambda_beta(t_b) / lambda_beta(t_a)`` on the
    Weyl operators ``U_beta^m``, so it is a generalized Pauli channel with the
    closed-form Choi spectrum ``d*p0`` (once) and ``d*p_alpha/(d-1)`` (each
    ``d-1`` times), where

        p0 = (1 + (d-1) sum_beta mu_beta) / d^2,
        p_alpha = (1 + (d-1) mu_alpha) / d - p0.

    The map is CP when the smallest of these is ``>= -psd_tol``; a NaN ratio
    gives a NaN minimum, reported as not CP.  If some ``lambda_beta(t_a)``
    is within ``pole_tol`` of zero the map does not exist and the check
    reports undefined rather than a verdict.
    """
    if not t_a < t_b:
        raise ValueError("need t_a < t_b")
    times = traj.grid.times
    ia = _grid_index(times, t_a)
    ib = _grid_index(times, t_b)
    lam_a = traj.eigenvalues[:, ia]
    lam_b = traj.eigenvalues[:, ib]
    if np.abs(lam_a).min() < pole_tol:
        return IntermediateMapCheck(
            defined=False,
            is_cp=None,
            min_choi_eigenvalue=None,
            eigenvalue_ratios=None,
            t_a=float(times[ia]),
            t_b=float(times[ib]),
        )
    mu = lam_b / lam_a
    d = traj.dimension
    p0 = (1.0 + (d - 1) * mu.sum()) / d**2
    p_alpha = (1.0 + (d - 1) * mu) / d - p0
    min_eig = float(np.min(np.append(d * p0, d * p_alpha / (d - 1))))
    return IntermediateMapCheck(
        defined=True,
        is_cp=min_eig >= -psd_tol,
        min_choi_eigenvalue=min_eig,
        eigenvalue_ratios=tuple(float(x) for x in mu),
        t_a=float(times[ia]),
        t_b=float(times[ib]),
    )


def _grid_index(times: np.ndarray, t: float) -> int:
    idx = int(np.argmin(np.abs(times - t)))
    if not np.isclose(times[idx], t, rtol=1e-12, atol=1e-12):
        raise ValueError(f"t={t!r} is not a grid point")
    return idx
