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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .channelcore import (
    MixtureSpec,
    MixtureValidationError,
    bracket_roots,
    validate_mixture,
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
    "classify",
    "analyze_mixture",
    "intermediate_map_check",
]

_MIN_GRID_POINTS = 32
_INITIAL_EIG_TOL = 1e-9


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
    return TimeGrid(np.linspace(0.0, float(t_max), int(points)))


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
        if self.semigroup is not None:
            return self.semigroup
        return 1e-5 if spec.has_sampled_functions() else 1e-8

    def cp_for(self, spec: MixtureSpec) -> float:
        if self.cp is not None:
            return self.cp
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
            raise ValueError("eigenvalues must equal 1 at t=0 (map starts at identity)")
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
# Eigenvalue trajectories and rates
# ---------------------------------------------------------------------------


def _eigenvalue_data(spec: MixtureSpec, times: np.ndarray):
    """(lambda, lambda') arrays of shape (d+1, n) at the given times."""
    d = spec.dimension
    n = times.size
    total = np.zeros(n)
    total_dot = np.zeros(n)
    per_basis = np.zeros((d + 1, n))
    per_basis_dot = np.zeros((d + 1, n))
    for comp in spec.components:
        p, dp = comp.channel.p.value_and_derivative(times)
        p = np.atleast_1d(np.asarray(p, dtype=float))
        dp = np.atleast_1d(np.asarray(dp, dtype=float))
        total += comp.weight * p
        total_dot += comp.weight * dp
        idx = comp.channel.basis - 1
        per_basis[idx] += comp.weight * p
        per_basis_dot[idx] += comp.weight * dp
    factor = d / (d - 1.0)
    lam = 1.0 - factor * (total[None, :] - per_basis)
    dlam = -factor * (total_dot[None, :] - per_basis_dot)
    return lam, dlam


def mixture_eigenvalues(spec: MixtureSpec, grid: TimeGrid) -> SpectralTrajectory:
    """Per-label eigenvalues of the mixture on the grid, with exact derivatives.

    Domain errors from decoherence functions propagate with their time stamp.
    """
    lam, dlam = _eigenvalue_data(spec, grid.times)
    return SpectralTrajectory(
        dimension=spec.dimension, grid=grid, eigenvalues=lam, derivatives=dlam
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
    lam = traj.eigenvalues
    dlam = traj.derivatives
    with np.errstate(divide="ignore", invalid="ignore"):
        big_gamma = -dlam / lam
        mean = big_gamma.sum(axis=0) / d
        gamma = ((d - 1.0) / d) * (mean[None, :] - big_gamma)
    pole = np.abs(lam).min(axis=0) < pole_tol
    if np.any(pole):
        cols = np.where(pole)[0]
        raw = gamma[:, cols]
        signs = np.where(np.isnan(raw), 1.0, np.sign(raw))
        signs[signs == 0.0] = 1.0
        gamma[:, cols] = signs * np.inf
    return RateTrajectory(dimension=d, grid=traj.grid, gamma=gamma, pole_mask=pole)


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
    times = traj.grid.times
    mid = len(times) // 2
    t_ref = times[mid]
    lam_ref = traj.eigenvalues[:, mid]
    with np.errstate(divide="ignore", invalid="ignore"):
        exponents = np.where(lam_ref > 0, -np.log(np.abs(lam_ref)) / t_ref, np.nan)
    if np.any(traj.eigenvalues <= 0.0):
        return SemigroupVerdict(False, exponents, np.inf, np.inf, tol)
    fit = np.exp(-exponents[:, None] * times[None, :])
    max_dev = float(np.abs(traj.eigenvalues - fit).max())
    ok_cols = ~rates.pole_mask
    if np.any(ok_cols):
        g = rates.gamma[:, ok_cols]
        rate_var = float((g.max(axis=1) - g.min(axis=1)).max())
    else:
        rate_var = np.inf
    return SemigroupVerdict(
        is_semigroup=bool(max_dev <= tol and rate_var <= tol),
        exponents=exponents,
        max_eigenvalue_deviation=max_dev,
        max_rate_variation=rate_var,
        tolerance=tol,
    )


# ---------------------------------------------------------------------------
# Zero crossings / classification
# ---------------------------------------------------------------------------


def _input_verdicts(
    spec: MixtureSpec, grid: TimeGrid, sg_tol: float, xtol: float
) -> Tuple[InputVerdict, ...]:
    times = grid.times
    mid = times.size // 2
    d = spec.dimension
    factor = d / (d - 1.0)
    channels = [comp.channel for comp in spec.components]
    lams = np.empty((len(channels), times.size))
    for i, channel in enumerate(channels):
        p, _ = channel.p.value_and_derivative(times)
        lams[i] = 1.0 - factor * np.asarray(p, dtype=float)

    def offlabel(i: int, t: float) -> float:
        return 1.0 - factor * float(channels[i].p.value(t))

    roots = bracket_roots(lams, times, offlabel, xtol)
    verdicts = []
    for i, (channel, lam, crossings) in enumerate(zip(channels, lams, roots), start=1):
        if crossings:
            verdict = "noninvertible"
        else:
            verdict = "invertible"
            if lam[mid] > 0.0 and np.all(lam > 0.0):
                r = -np.log(lam[mid]) / times[mid]
                if np.abs(lam - np.exp(-r * times)).max() <= sg_tol:
                    verdict = "semigroup"
        verdicts.append(
            InputVerdict(
                component=i,
                basis=channel.basis,
                verdict=verdict,
                singular_times=tuple(crossings),
            )
        )
    return tuple(verdicts)


def _output_singularities(
    spec: MixtureSpec, traj: SpectralTrajectory, xtol: float
) -> Tuple[Tuple[int, float], ...]:
    def scalar(beta: int, t: float) -> float:
        lam, _ = _eigenvalue_data(spec, np.asarray([t]))
        return float(lam[beta, 0])

    roots = bracket_roots(traj.eigenvalues, traj.grid.times, scalar, xtol)
    return tuple(sorted((beta + 1, t) for beta, ts in enumerate(roots) for t in ts))


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
    reported diagnostics resolve the poles.
    """
    return analyze_mixture(spec, grid, tolerances, refine).report


def analyze_mixture(
    spec: MixtureSpec,
    grid: Optional[TimeGrid] = None,
    tolerances: Optional[Tolerances] = None,
    refine: bool = True,
) -> AnalysisResult:
    """Like :func:`classify` but also returns the (possibly refined) trajectories."""
    grid = grid if grid is not None else default_grid()
    tol = tolerances if tolerances is not None else Tolerances()
    validation = validate_mixture(spec, grid)
    if not validation.structural_ok:
        raise MixtureValidationError(
            [i for i in validation.issues if i.kind in ("weight", "weight-sum", "dimension")]
        )
    sg_tol = tol.semigroup_for(spec)
    cp_tol = tol.cp_for(spec)

    traj = mixture_eigenvalues(spec, grid)
    singular = _output_singularities(spec, traj, tol.singularity)
    if singular and refine:
        grid = refine_grid(grid, [t for _, t in singular])
        traj = mixture_eigenvalues(spec, grid)
    rates = rates_from_spectrum(traj, pole_tol=tol.pole)
    verdict = detect_semigroup(traj, rates, sg_tol)

    ok_cols = ~rates.pole_mask
    if np.any(ok_cols):
        min_rate = float(rates.gamma[:, ok_cols].min())
    else:
        min_rate = -np.inf
    is_cp_divisible = bool(min_rate >= -cp_tol)
    inputs = _input_verdicts(spec, grid, sg_tol, tol.singularity)
    report = ClassificationReport(
        dimension=spec.dimension,
        is_semigroup=bool(verdict.is_semigroup and is_cp_divisible),
        semigroup_exponents=tuple(float(r) for r in verdict.exponents),
        max_semigroup_deviation=verdict.max_eigenvalue_deviation,
        is_cp_divisible=is_cp_divisible,
        min_rate=min_rate,
        singular_times=singular,
        inputs=inputs,
        p_in_range=validation.p_in_range,
        semigroup_tolerance=sg_tol,
        cp_tolerance=cp_tol,
    )
    return AnalysisResult(spectral=traj, rates=rates, report=report)


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
