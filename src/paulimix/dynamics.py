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
    family_evaluators,
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
_REFINE_LEVELS = 12  # refine_grid halves its step this many times


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


def refine_grid(grid: TimeGrid, centers: Sequence[float]) -> TimeGrid:
    """Add geometrically clustered points around each center (e.g. a pole)."""
    t_max = grid.t_max
    steps = t_max / 64.0 * 2.0 ** -np.arange(_REFINE_LEVELS)
    centers = np.asarray(centers, dtype=float)[:, None]
    extras = np.concatenate([centers - steps, centers + steps, centers], axis=None)
    extras = extras[(0.0 < extras) & (extras < t_max)]
    if not extras.size:
        return grid
    return TimeGrid(np.unique(np.concatenate([grid.times, extras])))


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

    def __post_init__(self):
        for name, value in vars(self).items():
            if value is not None and not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"tolerance {name} must be finite and nonnegative, got {value!r}")

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


@dataclass(frozen=True, eq=False)
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
    The table is evaluated a function family at a time
    (:func:`~paulimix.channelcore.family_evaluators`, grouped once).
    """

    def __init__(self):
        self.functions: list = []
        self._index: dict = {}
        self._by_id: dict = {}
        self._families: Optional[list] = None

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
                self._families = None
            self._by_id[id(f)] = i
        return i

    def evaluate(self, times: np.ndarray) -> np.ndarray:
        """Values ``[p, p']`` of every function, shape ``(2, F, n)``."""
        return self._planes(times, 2)

    def values(self, times: np.ndarray) -> np.ndarray:
        """Values ``[p]`` of every function, shape ``(1, F, n)``."""
        return self._planes(times, 1)

    def _planes(self, times: np.ndarray, planes: int) -> np.ndarray:
        """Each function's values, bit for bit as it returns them alone.  If a
        family raises, the functions run again one by one in table order, so
        the first function that fails alone raises its own error."""
        if self._families is None:
            self._families = family_evaluators(self.functions)
        out = np.empty((planes, len(self.functions), times.size))
        try:
            for rows, run in self._families:
                for plane, value in zip(out, run(times, planes)):
                    plane[rows] = value
        except Exception:
            for f in self.functions:
                if planes == 2:
                    f.value_and_derivative(times)
                else:
                    f.value(times)
            raise
        return out


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


def _spectrum(mixtures: _Mixtures, values: np.ndarray) -> np.ndarray:
    """``[lambda, lambda']`` of B mixtures, shape ``(2, B, d+1, n)``, from the
    values ``[p, p']`` of their functions (shape ``(2, F, n)``); or the value
    plane ``[lambda]`` alone, from ``[p]``.

    Each mixture sums its components in its own order.  A mixture without a
    j-th component is left out of slot j, never given a zero weight, so a
    NaN in one mixture's function cannot reach another row.
    """
    planes, d, size, n = values.shape[0], mixtures.dimension, mixtures.size, values.shape[2]
    # [p, p'] summed over all components, and over those of each label.
    total = np.zeros((planes, size, n))
    per_label = np.zeros((planes, size * (d + 1), n))
    for slot in mixtures.slots:
        weighted = slot.weights * values[:, slot.functions]
        total[:, slot.members] += weighted
        per_label[:, slot.cells] += weighted
    # lambda = 1 - factor (total - per_label) and lambda' = -factor (total'
    # - per_label'), computed in place.
    per_label = per_label.reshape(planes, size, d + 1, n)
    np.subtract(total[:, :, None, :], per_label, out=per_label)
    lam = per_label[0]
    factor = d / (d - 1.0)
    lam *= factor
    np.subtract(1.0, lam, out=lam)
    per_label[1:] *= -factor
    return per_label


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


def _by_blocks(run, specs: Sequence[MixtureSpec], points: int) -> list:
    """``run(block)`` on each block of ``specs`` from :func:`_blocks`, its
    results in order.  A block of several mixtures that raises is run again
    one mixture at a time, so the first mixture that fails alone raises its
    own error; if none does, the block's error is raised."""
    results: list = []
    for start, stop in _blocks(specs, points):
        try:
            results.extend(run(specs[start:stop]))
        except Exception:
            if stop - start > 1:
                for spec in specs[start:stop]:
                    run([spec])
            raise
    return results


class _Fit(NamedTuple):
    """Per-mixture semigroup fit and rate extremes of B spectra."""

    exponents: np.ndarray  # (B, d+1): r_beta = -ln lambda_beta(t_ref) / t_ref
    deviation: np.ndarray  # max |lambda - exp(-r t)|; inf if nonpositive
    spread: np.ndarray  # max over labels of a rate's range off poles
    least: np.ndarray  # least rate off poles; -inf if every column is a pole
    nonpositive: np.ndarray  # some eigenvalue <= 0 on the grid


def _exponential(lam: np.ndarray, times: np.ndarray):
    """Midpoint fit of rows ``lam`` (shape ``(..., n)``): ``r = -ln lambda(t_mid)
    / t_mid`` (nan if ``lambda(t_mid) <= 0``) and ``|lambda - exp(-r t)|``."""
    mid = times.size // 2
    lam_ref = lam[..., mid]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        exponents = np.where(lam_ref > 0, -np.log(np.abs(lam_ref)) / times[mid], np.nan)
        work = np.exp(-exponents[..., None] * times)
    np.subtract(lam, work, out=work)
    return exponents, np.abs(work, out=work)


def _fit(lam: np.ndarray, gamma: np.ndarray, pole: np.ndarray, times: np.ndarray) -> _Fit:
    exponents, work = _exponential(lam, times)
    deviation = work.max(axis=(1, 2))
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


def _table(specs: Sequence[MixtureSpec]):
    """The distinct functions of ``specs``, each mixture's function index per
    component, and the mixtures' encoding."""
    funcs = _Functions()
    ids = [[funcs.index(c.channel.p) for c in spec.components] for spec in specs]
    return funcs, ids, _encode(specs, ids)


def _front(table, times: np.ndarray):
    """The function values ``[p, p']`` and ``(lambda, lambda')`` of the
    mixtures of ``table`` on ``times``."""
    funcs, _, mixtures = table
    values = funcs.evaluate(times)
    return (values, *_spectrum(mixtures, values))


class _Block(NamedTuple):
    """Spectra, rates and fits of B mixtures on one grid."""

    funcs: _Functions
    ids: list  # per mixture, the function index of each component
    values: np.ndarray  # [p, p'] of each function, shape (2, F, n)
    lam: np.ndarray
    dlam: np.ndarray
    gamma: np.ndarray
    pole: np.ndarray
    fit: _Fit


def _block(specs: Sequence[MixtureSpec], times: np.ndarray, pole_tol: float) -> _Block:
    """The one spectral stage: ``specs`` on the grid ``times``.  Raises what
    some mixture's own :func:`mixture_eigenvalues` raises."""
    table = _table(specs)
    values, lam, dlam = _front(table, times)
    # Per mixture, as SpectralTrajectory checks it: a NaN max passes.
    if (np.abs(lam[:, :, 0] - 1.0).max(axis=1) > _INITIAL_EIG_TOL).any():
        raise ValueError(_NOT_IDENTITY)
    gamma, pole = _rates(lam, dlam, pole_tol)
    fit = _fit(lam, gamma, pole, times)
    return _Block(table[0], table[1], values, lam, dlam, gamma, pole, fit)


# ---------------------------------------------------------------------------
# Eigenvalue trajectories and rates
# ---------------------------------------------------------------------------


def mixture_eigenvalues(spec: MixtureSpec, grid: TimeGrid) -> SpectralTrajectory:
    """Per-label eigenvalues of the mixture on the grid, with exact derivatives.

    Domain errors from decoherence functions propagate with their time stamp.
    """
    _, lam, dlam = _front(_table([spec]), grid.times)
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
    max_dev = fit.deviation.item(b)
    rate_var = fit.spread.item(b)
    return SemigroupVerdict(
        is_semigroup=bool(not fit.nonpositive.item(b) and max_dev <= tol and rate_var <= tol),
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
    exception that this would raise.  Blocks of mixtures, of at most
    ``_BLOCK_VALUES`` eigenvalues, evaluate each distinct decoherence
    function once and compute spectra, rates and fits as arrays over a
    leading mixture axis.
    """
    tol = tolerances if tolerances is not None else Tolerances()

    def run(block):
        fit = _block(block, grid.times, tol.pole).fit
        return [_verdict(fit, b, tol.semigroup_for(s)) for b, s in enumerate(block)]

    return _by_blocks(run, list(specs), len(grid))


# ---------------------------------------------------------------------------
# Zero crossings / classification
# ---------------------------------------------------------------------------


def _zeros(done: _Block, outputs: Sequence[MixtureSpec], inputs: list, times: np.ndarray,
           xtol: float):
    """Zeros of the rows of ``outputs``, the first mixtures of ``done`` (on
    ``times``), and of the off-label row ``1 - (d/(d-1)) p`` of each function
    ``inputs``, in one :func:`bracket_roots` pass.  Each round of its
    bisection evaluates each owner once, at all the points of its live
    brackets' midpoint trees, through its functions' ``value``: a mixture's
    value plane on its own table, as if it were alone, an input's ``p``.
    Returns each output's sorted ``(label, t*)`` zeros, and each function's
    zeros and midpoint-fit deviation (inf unless positive) by index."""
    size = len(outputs)
    lam = done.lam[:size]
    labels, n = lam.shape[1:]
    factor = (labels - 1) / (labels - 2.0)  # d/(d-1)
    rows_in = 1.0 - factor * done.values[0, inputs]
    owner = np.concatenate([np.repeat(np.arange(size), labels), size + np.arange(len(inputs))])
    tables: dict = {}

    def f(rows, t):
        out = np.empty(t.size)
        who = owner[rows]
        # Rows come in ascending order, so each owner's points are contiguous.
        cuts = (np.flatnonzero(who[1:] != who[:-1]) + 1).tolist()
        for a, b in zip([0] + cuts, cuts + [t.size]):
            o = who.item(a)
            if o < size:
                if o not in tables:
                    tables[o] = _table([outputs[o]])
                funcs, _, mixtures = tables[o]
                lam = _spectrum(mixtures, funcs.values(t[a:b]))[0, 0]
                out[a:b] = lam[rows[a:b] % labels, np.arange(b - a)]
            else:
                out[a:b] = done.funcs.functions[inputs[o - size]].value(t[a:b])
        # The input rows hold p so far.
        first = int(np.searchsorted(rows, size * labels))
        out[first:] = 1.0 - factor * out[first:]
        return out

    roots = bracket_roots(np.concatenate([lam.reshape(size * labels, n), rows_in]), times, f, xtol)
    positive = (rows_in > 0.0).all(axis=1)
    fits = np.where(positive, _exponential(rows_in, times)[1].max(axis=1), np.inf).tolist()
    singular = [()] * size
    for c in {row // labels for row, ts in enumerate(roots[: size * labels]) if ts}:
        singular[c] = tuple(
            sorted((beta + 1, t) for beta in range(labels) for t in roots[c * labels + beta])
        )
    found = {j: (tuple(ts), fit) for j, ts, fit in zip(inputs, roots[size * labels :], fits)}
    return singular, found


def _inputs(spec, ids, found: dict, sg_tol: float, made: dict):
    """The input verdicts of ``spec``, whose components use the functions
    ``ids`` of ``found`` (from :func:`_zeros`); ``made`` keeps those built."""
    out = []
    for i, (comp, j) in enumerate(zip(spec.components, ids), start=1):
        memo = (j, sg_tol, i, comp.channel.basis)
        if memo not in made:
            zeros, fit = found[j]
            kind = "noninvertible" if zeros else "semigroup" if fit <= sg_tol else "invertible"
            made[memo] = InputVerdict(i, comp.channel.basis, kind, zeros)
        out.append(made[memo])
    return tuple(out)


def _report(spec, fit: _Fit, b: int, singular, inputs, p_in_range, sg_tol, cp_tol):
    """The report of row ``b`` of ``fit``: its semigroup verdict, which
    also needs CP divisibility (least rate ``>= -cp_tol``)."""
    verdict = _verdict(fit, b, sg_tol)
    least = fit.least.item(b)
    is_cp_divisible = bool(least >= -cp_tol)
    return ClassificationReport(
        dimension=spec.dimension,
        is_semigroup=verdict.is_semigroup and is_cp_divisible,
        semigroup_exponents=tuple(verdict.exponents.tolist()),
        max_semigroup_deviation=verdict.max_eigenvalue_deviation,
        is_cp_divisible=is_cp_divisible,
        min_rate=least,
        singular_times=singular,
        inputs=inputs,
        p_in_range=p_in_range,
        semigroup_tolerance=sg_tol,
        cp_tolerance=cp_tol,
    )


def _analyze_block(specs, grid: TimeGrid, tol: Tolerances, keep: bool) -> list:
    """:func:`analyze_mixture` of mixtures of one dimension, in order (only
    the reports unless ``keep``)."""
    for spec in specs:
        issues = structural_issues(spec)
        if issues:
            raise MixtureValidationError(issues)
    times = grid.times
    done = _block(specs, times, tol.pole)
    high, low = range_violations(done.values[0])
    in_range = (~(high.any(axis=1) | low.any(axis=1))).tolist()
    # A row has output zeros iff some eigenvalue is <= 0 (its first is 1);
    # it is refined, and its inputs get their pass on its refined grid.
    coarse = {j for b, ids in enumerate(done.ids) if not done.fit.nonpositive[b] for j in ids}
    singular, found = _zeros(done, specs, sorted(coarse), times, tol.singularity)
    made: dict = {}
    tolerances: dict = {}  # by function indices, which decide sampled or not
    out = []
    for b, spec in enumerate(specs):
        uses = tuple(done.ids[b])
        if uses not in tolerances:
            tolerances[uses] = (tol.semigroup_for(spec), tol.cp_for(spec))
        sg_tol, cp_tol = tolerances[uses]
        p_in_range = all(in_range[j] for j in uses)
        row_grid, row, r = grid, done, b
        if singular[b]:
            # The row alone, as a block of one on its refined grid, whose
            # inputs get their own pass there.
            row_grid = refine_grid(grid, [t for _, t in singular[b]])
            row, r = _block([spec], row_grid.times, tol.pole), 0
            _, own = _zeros(row, [], sorted(set(row.ids[0])), row_grid.times, tol.singularity)
            inputs = _inputs(spec, row.ids[0], own, sg_tol, {})
        else:
            inputs = _inputs(spec, uses, found, sg_tol, made)
        report = _report(spec, row.fit, r, singular[b], inputs, p_in_range, sg_tol, cp_tol)
        if keep:
            d = spec.dimension
            spectral = SpectralTrajectory(d, row_grid, row.lam[r], row.dlam[r])
            rates = RateTrajectory(d, row_grid, row.gamma[r], row.pole[r])
            out.append(AnalysisResult(spectral=spectral, rates=rates, report=report))
        else:
            out.append(report)
    return out


def _analyze(specs, grid, tolerances, keep: bool) -> list:
    grid = grid if grid is not None else default_grid()
    tol = tolerances if tolerances is not None else Tolerances()
    return _by_blocks(lambda block: _analyze_block(block, grid, tol, keep), list(specs), len(grid))


def classify_many(
    specs: Iterable[MixtureSpec],
    grid: Optional[TimeGrid] = None,
    tolerances: Optional[Tolerances] = None,
) -> List[ClassificationReport]:
    """``[classify(s, grid, tolerances) for s in specs]``, equal by ``repr``,
    in one batched pass over blocks of mixtures.

    Each block evaluates every distinct decoherence function once on the
    grid, and computes eigenvalues, rates, poles, the semigroup fit and the
    least rate as arrays over a leading mixture axis.  One bracketing pass
    finds the zeros of all its output rows and of each distinct input's
    row, all brackets bisected together.  Rows with singular times are
    refined and recomputed one by one, their inputs too.  Blocks hold at most
    ``_BLOCK_VALUES`` eigenvalues, so memory does not grow with the batch
    beyond the reports themselves.  The first mixture that ``classify``
    would reject raises the same exception here.
    """
    return _analyze(specs, grid, tolerances, keep=False)


def classify(
    spec: MixtureSpec,
    grid: Optional[TimeGrid] = None,
    tolerances: Optional[Tolerances] = None,
) -> ClassificationReport:
    """Full classification of a mixture's dynamics on a grid.

    Semigroup verdict (exponential eigenvalues, constant rates), CP
    divisibility (min rate >= -cp tolerance away from poles), singular times
    of the output map (bisection-refined), and per-input invertibility
    verdicts.  ``p`` out of [0, 1] only clears the validity flag; evaluation
    continues.  Structurally invalid mixtures raise
    :class:`MixtureValidationError`.

    When singular times are found, the grid is geometrically refined around
    them and the trajectory recomputed, so the reported diagnostics resolve
    the poles.  This is the one-mixture case of :func:`classify_many`.
    """
    return classify_many([spec], grid, tolerances)[0]


def analyze_mixture(
    spec: MixtureSpec,
    grid: Optional[TimeGrid] = None,
    tolerances: Optional[Tolerances] = None,
) -> AnalysisResult:
    """Like :func:`classify` but also returns the (possibly refined) trajectories."""
    return _analyze([spec], grid, tolerances, keep=True)[0]


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
