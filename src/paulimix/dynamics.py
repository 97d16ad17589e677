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

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .channelcore import (
    ChannelSpec,
    MixtureSpec,
    MixtureValidationError,
    _Functions,
    bracket_roots,
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
    "MixtureBatch",
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
    fit).  An input's own fit is judged at ``semigroup``, or if that is unset
    at the choice for the input alone, whatever mixture it sits in.
    ``semigroup_at`` and ``cp_at`` choose for mixture ``b`` of a batch.
    """

    semigroup: Optional[float] = None
    cp: Optional[float] = None
    pole: float = 1e-12
    singularity: float = 1e-10

    def __post_init__(self):
        for name, value in vars(self).items():
            if value is not None and not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"tolerance {name} must be finite and nonnegative, got {value!r}")

    def semigroup_at(self, batch: "MixtureBatch", b: int) -> float:
        return _tolerance_for(self.semigroup, batch.sampled[b])

    def cp_at(self, batch: "MixtureBatch", b: int) -> float:
        return _tolerance_for(self.cp, batch.sampled[b])


def _tolerance_for(given: Optional[float], sampled: bool) -> float:
    """``given`` if set, else the automatic choice described on :class:`Tolerances`."""
    if given is not None:
        return given
    return 1e-5 if sampled else 1e-8


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


class _Slot(NamedTuple):
    """The j-th components of B mixtures, for the mixtures that have one.

    Each field indexes one axis: an index array, or a slice where that is
    the same selection (all mixtures, or a single entry).
    """

    members: object  # those mixtures
    weights: object  # (m, 1) array, or the one weight as a float
    functions: object  # (m,) indices into the evaluated functions
    cells: object  # (m,) rows of the (B*(d+1), n) per-label sums


def _as_index(entries: np.ndarray):
    # One entry becomes a slice: basic indexing is cheaper and selects the same.
    if entries.size == 1:
        return slice(entries.item(), entries.item() + 1)
    return entries


def _any_per_row(starts: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """Per row ``b``, whether any of ``flags[starts[b]:starts[b+1]]`` is set."""
    seen = np.concatenate([[0], np.cumsum(flags)])
    return seen[starts[1:]] > seen[starts[:-1]]


class MixtureBatch:
    """B mixtures of one dimension as columns: the form that the spectral
    block stage reads.

    Component ``c`` has the basis label ``basis[c]``, the weight
    ``weight[c]`` and the decoherence function ``function[c]``, a row of
    the function table ``functions``
    (:class:`~paulimix.channelcore._Functions`); mixture ``b`` holds the
    components ``starts[b]:starts[b+1]``, in order.  Producers:

    - :meth:`of_specs` encodes ``MixtureSpec`` objects (``specs`` keeps
      them), which their constructors and ``structural_issues`` check,
      with a table of their distinct functions;
    - the scanners draw a block of mixtures as arrays, straight into
      columns over a table of their functions, and the simplex sweep
      writes its lattice as columns, a block of lattice points each, over
      one shared table.  Both are valid by construction, so the
      constructor checks nothing.

    Each producer hands over blocks of the size that the block stage runs.
    ``spec(b)`` is mixture ``b`` as an object, and ``alone(b)`` is mixture
    ``b`` as a batch of one: the batch that ``classify(spec(b))`` builds.
    """

    def __init__(self, dimension, starts, basis, weight, function, functions, specs=None):
        self.dimension = dimension
        self.starts = np.asarray(starts, dtype=np.intp)
        self.basis = np.asarray(basis, dtype=np.intp)
        self.weight = np.asarray(weight, dtype=float)
        self.function = np.asarray(function, dtype=np.intp)
        self.functions = functions
        self.specs = specs
        self._slots: Optional[Tuple[_Slot, ...]] = None
        self._sampled: Optional[list] = None

    @classmethod
    def of_specs(cls, specs: Sequence[MixtureSpec]) -> "MixtureBatch":
        """``specs`` (of one dimension) as a batch."""
        comps = [c for spec in specs for c in spec.components]
        starts = np.cumsum([0] + [len(spec.components) for spec in specs])
        table, function = _Functions.of([c.channel.p for c in comps])
        basis, weight = [c.channel.basis for c in comps], [c.weight for c in comps]
        return cls(specs[0].dimension, starts, basis, weight, function, table, specs)

    def __len__(self) -> int:
        return self.starts.size - 1

    def spec(self, b: int) -> MixtureSpec:
        """Mixture ``b`` as an object: the one encoded, or one built from
        its columns."""
        if self.specs is not None:
            return self.specs[b]
        d, a, z = self.dimension, self.starts[b], self.starts[b + 1]
        return MixtureSpec(
            d,
            [
                (w, ChannelSpec(d, basis, self.functions.build(f)))
                for basis, w, f in zip(
                    self.basis[a:z].tolist(), self.weight[a:z].tolist(), self.function[a:z].tolist()
                )
            ],
        )

    def alone(self, b: int) -> "MixtureBatch":
        """Mixture ``b`` as a batch of one: this batch if it holds only
        ``b``, else ``spec(b)`` encoded by :meth:`of_specs`."""
        return self if len(self) == 1 else MixtureBatch.of_specs([self.spec(b)])

    @property
    def sampled(self) -> list:
        """Per mixture, whether any of its functions is a sampled grid."""
        if self._sampled is None:
            flags = self.functions.sampled()[self.function]
            self._sampled = _any_per_row(self.starts, flags).tolist()
        return self._sampled

    @property
    def slots(self) -> Tuple[_Slot, ...]:
        """The components slot by slot: slot ``j`` holds the ``j``-th
        component of each mixture that has one.  A basis label outside
        ``1..d+1`` would address another mixture's row, or none, so it
        raises ``ValueError``."""
        if self._slots is None:
            self._slots = self._encode()
        return self._slots

    def _encode(self) -> Tuple[_Slot, ...]:
        d, size = self.dimension, len(self)
        outside = np.flatnonzero((self.basis < 1) | (self.basis > d + 1))
        if outside.size:
            raise ValueError(
                f"basis label {self.basis.item(outside[0])} lies outside 1..{d + 1} "
                f"for dimension {d}"
            )
        if size == 1:
            # One mixture: every index selects one entry, so slices throughout.
            return tuple(
                _Slot(slice(None), w, slice(f, f + 1), slice(b - 1, b))
                for b, w, f in zip(self.basis.tolist(), self.weight.tolist(), self.function.tolist())
            )
        counts = np.diff(self.starts)
        cells = np.repeat(np.arange(size) * (d + 1), counts) + self.basis - 1
        slots = []
        for j in range(int(counts.max(initial=0))):
            members = np.flatnonzero(counts > j)
            comps = self.starts[members] + j
            slots.append(
                _Slot(
                    slice(None) if members.size == size else members,
                    self.weight[comps, None],
                    _as_index(self.function[comps]),
                    _as_index(cells[comps]),
                )
            )
        return tuple(slots)


def _spectrum(batch: MixtureBatch, slots, values: np.ndarray) -> np.ndarray:
    """``[lambda, lambda']`` of the B mixtures of ``batch`` (its ``slots``),
    shape ``(2, B, d+1, n)``, from the values ``[p, p']`` of their functions
    (shape ``(2, F, n)``).

    Each mixture sums its components in its own order.  A mixture without a
    j-th component is left out of slot j, never given a zero weight, so a
    NaN in one mixture's function cannot reach another row.
    """
    d, size, n = batch.dimension, len(batch), values.shape[2]
    # [p, p'] summed over all components, and over those of each label.
    total = np.zeros((2, size, n))
    per_label = np.zeros((2, size * (d + 1), n))
    for slot in slots:
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


def _block_size(d: int, points: int) -> int:
    """Mixtures of dimension ``d`` per block: at most ``_BLOCK_VALUES``
    eigenvalues on ``points`` grid points, and at least one mixture."""
    return max(1, _BLOCK_VALUES // (max(d + 1, 1) * points))


def _blocks(specs: Iterable[MixtureSpec], points: int):
    """Lists of consecutive ``specs`` of one dimension, each of at most
    :func:`_block_size` of them.  ``specs`` is read lazily, at most one
    mixture ahead."""
    for d, run in itertools.groupby(specs, operator.attrgetter("dimension")):
        size = _block_size(d, points)
        while block := list(itertools.islice(run, size)):
            yield block


def _batches(specs: Iterable[MixtureSpec], points: int):
    """Each block of ``specs`` (:func:`_blocks`) as a :class:`MixtureBatch`."""
    return map(MixtureBatch.of_specs, _blocks(specs, points))


def _by_blocks(run, batches: Iterable[MixtureBatch]):
    """``run(batch)`` on each of ``batches``, blocks as their producers
    sized them, its results yielded in order.  A batch of several mixtures
    that raises is run again one mixture at a time, each as
    :meth:`MixtureBatch.alone`, so the first mixture that fails alone raises
    its own error; if none does, the batch's error is raised."""
    for batch in batches:
        try:
            results = run(batch)
        except Exception:
            if len(batch) > 1:
                for b in range(len(batch)):
                    run(batch.alone(b))
            raise
        yield from results


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


def _front(batch: MixtureBatch, times: np.ndarray):
    """The function values ``[p, p']`` and ``(lambda, lambda')`` of the
    mixtures of ``batch`` on ``times``."""
    slots = batch.slots  # checks the basis labels before any function runs
    values = batch.functions.evaluate(times)
    return (values, *_spectrum(batch, slots, values))


class _Block(NamedTuple):
    """Spectra, rates and fits of B mixtures on one grid."""

    batch: MixtureBatch
    values: np.ndarray  # [p, p'] of each function, shape (2, F, n)
    lam: np.ndarray
    dlam: np.ndarray
    gamma: np.ndarray
    pole: np.ndarray
    fit: _Fit


def _block(batch: MixtureBatch, times: np.ndarray, pole_tol: float) -> _Block:
    """The one spectral stage: ``batch`` on the grid ``times``.  Raises what
    some mixture's own :func:`mixture_eigenvalues` raises."""
    values, lam, dlam = _front(batch, times)
    # Per mixture, as SpectralTrajectory checks it: a NaN max passes.
    if (np.abs(lam[:, :, 0] - 1.0).max(axis=1) > _INITIAL_EIG_TOL).any():
        raise ValueError(_NOT_IDENTITY)
    gamma, pole = _rates(lam, dlam, pole_tol)
    fit = _fit(lam, gamma, pole, times)
    return _Block(batch, values, lam, dlam, gamma, pole, fit)


# ---------------------------------------------------------------------------
# Eigenvalue trajectories and rates
# ---------------------------------------------------------------------------


def mixture_eigenvalues(spec: MixtureSpec, grid: TimeGrid) -> SpectralTrajectory:
    """Per-label eigenvalues of the mixture on the grid, with exact derivatives.

    Domain errors from decoherence functions propagate with their time stamp.
    """
    _, lam, dlam = _front(MixtureBatch.of_specs([spec]), grid.times)
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
    tol.semigroup_at(MixtureBatch.of_specs([s]), 0)) for s in specs]`` with
    ``tr = mixture_eigenvalues(s, grid)``, field for field (exponents bit
    for bit), and raises the first exception that this would raise.
    ``specs`` is read a block at a time, so a generator's mixtures need not
    all be alive at once.  Each block is a :class:`MixtureBatch`: distinct
    functions in a table of families, each evaluated once, and spectra,
    rates and fits as arrays over a leading mixture axis.  The scanners
    write their draws into batches directly (:func:`_semigroup_verdicts`).
    """
    return _semigroup_verdicts(_batches(specs, len(grid)), grid, tolerances)


def _semigroup_verdicts(batches, grid: TimeGrid, tolerances: Optional[Tolerances]):
    """:func:`semigroup_verdicts` of the mixtures of ``batches``, each
    judged at ``tolerances.semigroup_at``."""
    tol = tolerances if tolerances is not None else Tolerances()

    def run(batch):
        fit = _block(batch, grid.times, tol.pole).fit
        return [_verdict(fit, b, tol.semigroup_at(batch, b)) for b in range(len(batch))]

    return list(_by_blocks(run, batches))


# ---------------------------------------------------------------------------
# Zero crossings / classification
# ---------------------------------------------------------------------------


def _rows_at(batch: MixtureBatch, owners: np.ndarray, labels: np.ndarray, t: np.ndarray):
    """``lambda_beta(t[k])`` of mixture ``owners[k]`` of ``batch``, ``beta =
    labels[k]`` (0-based), bit for bit as :func:`_spectrum` gives it alone:
    all points' components in one ``functions.at`` call, summed in component
    order from 0.0.  If that raises, each owner's functions run alone on its
    points, owner by owner, so the first that fails raises its own error."""
    first, counts = batch.starts[owners], np.diff(batch.starts)[owners]
    point = np.repeat(np.arange(t.size), counts)
    comp = np.arange(point.size) + np.repeat(first - (np.cumsum(counts) - counts), counts)
    uses, at = batch.function[comp], t[point]
    try:
        weighted = batch.weight[comp] * batch.functions.at(uses, at)[0]
    except Exception:
        for mine in (owners[point] == m for m in dict.fromkeys(owners.tolist())):
            for i in dict.fromkeys(uses[mine].tolist()):
                batch.functions.build(i).value_and_derivative(at[mine][uses[mine] == i])
        raise
    total = np.bincount(point, weights=weighted, minlength=t.size)
    own = batch.basis[comp] == labels[point] + 1
    total -= np.bincount(point[own], weights=weighted[own], minlength=t.size)
    return 1.0 - batch.dimension / (batch.dimension - 1.0) * total


def _zeros(done: _Block, times: np.ndarray, xtol: float):
    """Zeros of every output row of ``done`` (on ``times``) and of the
    off-label row ``1 - (d/(d-1)) p`` of each of its functions, in one
    :func:`bracket_roots` pass.  Each input is a mixture of its own, so
    each round of the bisection evaluates every ``(owner, label)`` row at
    its points in one :func:`_rows_at` call.  Returns each mixture's sorted
    ``(label, t*)`` zeros, and each function's zeros and midpoint-fit
    deviation (inf unless positive), by index."""
    lam, batch = done.lam, done.batch
    size, labels, n = lam.shape
    factor = (labels - 1) / (labels - 2.0)  # d/(d-1)
    rows_in = 1.0 - factor * done.values[0]
    # Function j is mixture size + j: one component of weight 1.0 on basis
    # 0, which matches no label, so its rows are its input's row.
    j = np.arange(len(rows_in))
    grown = MixtureBatch(
        batch.dimension,
        np.concatenate([batch.starts, batch.starts[-1] + 1 + j]),
        np.concatenate([batch.basis, np.zeros_like(j)]),
        np.concatenate([batch.weight, np.ones(j.size)]),
        np.concatenate([batch.function, j]),
        batch.functions,
    )
    owner = np.concatenate([np.repeat(np.arange(size), labels), size + j])
    f = lambda rows, t: _rows_at(grown, owner[rows], rows % labels, t)
    roots = bracket_roots(np.concatenate([lam.reshape(size * labels, n), rows_in]), times, f, xtol)
    positive = (rows_in > 0.0).all(axis=1)
    fits = np.where(positive, _exponential(rows_in, times)[1].max(axis=1), np.inf).tolist()
    singular = [()] * size
    for c in {row // labels for row, ts in enumerate(roots[: size * labels]) if ts}:
        singular[c] = tuple(
            sorted((beta + 1, t) for beta in range(labels) for t in roots[c * labels + beta])
        )
    found = [(tuple(ts), fit) for ts, fit in zip(roots[size * labels :], fits)]
    return singular, found


def _inputs(bases, ids, sampled: list, found: list, given: Optional[float], made: dict):
    """The input verdicts of a mixture whose components lie on ``bases``
    and use the functions ``ids`` of ``found`` (from :func:`_zeros`), each
    fit judged at its own tolerance (``given`` if set, else by whether it is
    ``sampled``); ``made`` keeps those built."""
    out = []
    for i, (basis, j) in enumerate(zip(bases, ids), start=1):
        memo = (j, i, basis)
        if memo not in made:
            zeros, fit = found[j]
            sg_tol = _tolerance_for(given, sampled[j])
            kind = "noninvertible" if zeros else "semigroup" if fit <= sg_tol else "invertible"
            made[memo] = InputVerdict(i, basis, kind, zeros)
        out.append(made[memo])
    return tuple(out)


def _report(d: int, fit: _Fit, b: int, singular, inputs, p_in_range, sg_tol, cp_tol):
    """The report of row ``b`` of ``fit``: its semigroup verdict, which
    also needs CP divisibility (least rate ``>= -cp_tol``)."""
    verdict = _verdict(fit, b, sg_tol)
    least = fit.least.item(b)
    is_cp_divisible = bool(least >= -cp_tol)
    return ClassificationReport(
        dimension=d,
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


def _check_structure(batch: MixtureBatch) -> None:
    """Raise the :class:`MixtureValidationError` of the first encoded
    mixture of ``batch`` with structural issues.  A batch of columns has no
    objects to check: the simplex sweep's lattice weights are valid by
    construction."""
    for spec in batch.specs or ():
        issues = structural_issues(spec)
        if issues:
            raise MixtureValidationError(issues)


def _analyze_block(batch: MixtureBatch, grid: TimeGrid, tol: Tolerances, keep: bool) -> list:
    """:func:`analyze_mixture` of the mixtures of ``batch``, in order (only
    the reports unless ``keep``)."""
    _check_structure(batch)
    times = grid.times
    done = _block(batch, times, tol.pole)
    high, low = range_violations(done.values[0])
    in_range = (~(high.any(axis=1) | low.any(axis=1))).tolist()
    singular, found = _zeros(done, times, tol.singularity)
    sampled = batch.functions.sampled().tolist()
    starts, bases, uses = batch.starts.tolist(), batch.basis.tolist(), batch.function.tolist()
    d = batch.dimension
    made: dict = {}
    out = []
    for b in range(len(batch)):
        ids = uses[starts[b] : starts[b + 1]]
        sg_tol, cp_tol = tol.semigroup_at(batch, b), tol.cp_at(batch, b)
        p_in_range = all(in_range[j] for j in ids)
        inputs = _inputs(bases[starts[b] : starts[b + 1]], ids, sampled, found, tol.semigroup, made)
        row_grid, row, r = grid, done, b
        if singular[b]:
            # The row alone, as a block of one on its refined grid, which
            # resolves its output's poles; its inputs keep their verdicts.
            row_grid = refine_grid(grid, [t for _, t in singular[b]])
            row, r = _block(batch.alone(b), row_grid.times, tol.pole), 0
        report = _report(d, row.fit, r, singular[b], inputs, p_in_range, sg_tol, cp_tol)
        if keep:
            spectral = SpectralTrajectory(d, row_grid, row.lam[r], row.dlam[r])
            rates = RateTrajectory(d, row_grid, row.gamma[r], row.pole[r])
            out.append(AnalysisResult(spectral=spectral, rates=rates, report=report))
        else:
            out.append(report)
    return out


def _analyze(batches: Iterable[MixtureBatch], grid: TimeGrid, tolerances, keep: bool):
    """Each report (with ``keep``, each analysis) of the mixtures of
    ``batches``, a block at a time."""
    tol = tolerances if tolerances is not None else Tolerances()
    return _by_blocks(lambda block: _analyze_block(block, grid, tol, keep), batches)


def _analyze_specs(specs: Iterable[MixtureSpec], grid, tolerances, keep: bool):
    grid = grid if grid is not None else default_grid()
    return _analyze(_batches(specs, len(grid)), grid, tolerances, keep)


def classify_many(
    specs: Iterable[MixtureSpec],
    grid: Optional[TimeGrid] = None,
    tolerances: Optional[Tolerances] = None,
) -> List[ClassificationReport]:
    """``[classify(s, grid, tolerances) for s in specs]``, equal by ``repr``,
    in one batched pass over blocks of mixtures.

    ``specs`` is read a block at a time, and each block is encoded as a
    :class:`MixtureBatch`; the simplex sweep writes its lattice's blocks
    directly.  Each block evaluates every distinct decoherence function
    once on the grid, a family at a time, and computes eigenvalues, rates,
    poles, the semigroup fit and the least rate as arrays over a leading
    mixture axis.  One bracketing pass, with one row evaluator, finds the
    zeros of all its output rows and of each distinct input's row (the
    input as a mixture of its own), all brackets bisected together; that
    pass gives every input its verdict.  Rows with singular times are
    refined and their trajectories and rates recomputed one by one, each
    alone (:meth:`MixtureBatch.alone`).  Blocks hold at most
    ``_BLOCK_VALUES`` eigenvalues, so memory does not grow with the batch
    beyond the reports themselves.  The first mixture that ``classify``
    would reject raises the same exception here.
    """
    return list(_analyze_specs(specs, grid, tolerances, keep=False))


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
    return next(_analyze_specs([spec], grid, tolerances, keep=True))


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
