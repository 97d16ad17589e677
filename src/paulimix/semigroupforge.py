"""Constructions that mix noninvertible dephasing channels into exact
semigroups, closed-form invertibility forecasts for their inputs, a dense
Choi-matrix check of random mixtures (``cptp_scan``), and scanners for the
two structural claims behind the constructions:

* qubits: a mixture supported on fewer than all 3 dephasing directions is
  never a semigroup (randomized), and any semigroup-yielding weight triple
  leaves at least 2 inputs noninvertible (proven in exact arithmetic);
* general prime d: the analogous statements with all d+1 directions and at
  least d noninvertible inputs.

Two constructions are provided.  ``build_same_channel_mix`` pairs a channel
with an arbitrary decoherence function q against a compensating partner on
the same basis,

    p(t) = ((d-1)/d) * (1 - e^{-ct}) / (1-a)  -  a * q(t) / (1-a),

mixed with weights (1-a, a) so that (1-a) p + a q = ((d-1)/d)(1 - e^{-ct})
and the off-label eigenvalues are exactly e^{-ct}.  ``build_all_channels_mix``
spreads one exponential profile over all d+1 directions,

    p_i(t) = ((d-1)/(x_i d^2)) * (1 - e^{-ct}),

which keeps every p_i within [0, 1] iff x_i >= (d-1)/d^2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from .channelcore import (
    ChannelSpec,
    DecoherenceFunction,
    DifferenceTemplate,
    ExpRelax,
    Expression,
    MixtureSpec,
    ProductTemplate,
    SampledGrid,
    _Functions,
    check_basis,
    range_exit,
    range_violations,
)
from . import matrixlab
from .dynamics import (
    MixtureBatch,
    TimeGrid,
    Tolerances,
    _analyze,
    _block_size,
    _blocks,
    _semigroup_verdicts,
    default_grid,
    # Not called here: perfbench/test_perfbench.py checks that the tracer
    # also wraps module-level copies of a public function, such as this one.
    mixture_eigenvalues,  # noqa: F401
)
from .mubgen import check_dimension

__all__ = [
    "ConstructionError",
    "WeightBoundError",
    "SameChannelRequest",
    "AllChannelsRequest",
    "ChannelForecast",
    "InvertibilityForecast",
    "ScanReport",
    "SimplexScan",
    "build_same_channel_mix",
    "build_all_channels_mix",
    "forecast_invertibility",
    "simplex_lattice",
    "simplex_scan",
    "weight_lower_bound",
    "random_decoherence_function",
    "theorem1_scan",
    "theorem2_scan",
    "cptp_scan",
]

_SIMPLEX_TOL = 1e-12
_TIE_TOL = 1e-12
_MIN_TRIALS = 100


class ConstructionError(ValueError):
    """A construction produced a decoherence function outside [0, 1]."""

    def __init__(self, message: str, first_violation: Optional[float] = None):
        super().__init__(message)
        self.first_violation = first_violation


class WeightBoundError(ValueError):
    """A mixing weight fell below the admissible minimum (d-1)/d^2."""

    def __init__(self, message: str, index: int, weight: float, bound: float):
        super().__init__(message)
        self.index = index
        self.weight = weight
        self.bound = bound


def _check_target_rate(rate: float) -> None:
    """A construction's target rate ``c`` must be positive and finite, and
    so small a rate that its default window ``5/c`` overflows is rejected
    as the rate it is."""
    if not (rate > 0 and math.isfinite(rate)):
        raise ValueError(f"target rate must be positive and finite, got {rate!r}")
    if not math.isfinite(5.0 / rate):
        raise ValueError(f"target rate {rate!r} is too small: its default window 5/rate is infinite")


@dataclass(frozen=True)
class SameChannelRequest:
    """Pair a channel with decoherence function ``q`` (mixed with weight ``a``)
    against its compensating partner on the same basis (weight ``1-a``)."""

    dimension: int
    rate: float
    a: float
    q: DecoherenceFunction
    basis: int = 1

    def __post_init__(self):
        check_dimension(self.dimension)
        _check_target_rate(self.rate)
        if not 0.0 < self.a < 1.0:
            raise ValueError(f"mixing parameter a must lie in (0, 1), got {self.a!r}")
        check_basis(self.dimension, self.basis)


@dataclass(frozen=True)
class AllChannelsRequest:
    """One channel per basis label, weights on the simplex."""

    dimension: int
    rate: float
    weights: Tuple[float, ...]

    def __post_init__(self):
        check_dimension(self.dimension)
        _check_target_rate(self.rate)
        w = tuple(float(x) for x in self.weights)
        if len(w) != self.dimension + 1:
            raise ValueError(
                f"need {self.dimension + 1} weights for dimension "
                f"{self.dimension}, got {len(w)}"
            )
        if not all(math.isfinite(x) for x in w):
            raise ValueError(f"weights must be finite, got {w}")
        if any(x < 0 for x in w):
            raise ValueError(f"weights must be nonnegative, got {w}")
        if abs(sum(w) - 1.0) > _SIMPLEX_TOL:
            raise ValueError(f"weights must sum to 1, got sum {sum(w)!r}")
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class ChannelForecast:
    channel: int  # 1-based, equals the basis label
    weight: float
    verdict: str  # 'semigroup' | 'invertible' | 'noninvertible'
    singular_time: Optional[float]


@dataclass(frozen=True)
class InvertibilityForecast:
    dimension: int
    rate: float
    channels: Tuple[ChannelForecast, ...]

    @property
    def noninvertible_count(self) -> int:
        return sum(1 for c in self.channels if c.verdict == "noninvertible")


@dataclass(frozen=True)
class ScanReport:
    seed: int
    trials: int
    family: str
    counterexamples: Tuple[dict, ...]
    passed: bool
    details: dict = field(default_factory=dict)


def weight_lower_bound(d: int) -> float:
    """Smallest admissible mixing weight, (d-1)/d^2."""
    return (d - 1) / d**2


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def build_same_channel_mix(
    req: SameChannelRequest, grid: Optional[TimeGrid] = None
) -> MixtureSpec:
    """Two-component mixture on one basis whose off-label eigenvalues are
    exactly ``e^{-ct}``.

    The partner function ``p`` is rendered in the same representation as
    ``q``: a closed-form ``q`` yields a closed-form expression, a sampled
    ``q`` yields a densely resampled grid.  Any other ``q`` enters through
    its ``as_expression()`` text (a ``TypeError`` if it has none).  ``p``
    must stay within [0, 1] on the validation grid; otherwise
    :class:`ConstructionError` reports the first violating time.
    """
    d, c, a = req.dimension, float(req.rate), float(req.a)
    f_scale = (d - 1) / d / (1.0 - a)
    q_coeff = a / (1.0 - a)

    sampled = isinstance(req.q, SampledGrid)
    if sampled:
        t_max = float(req.q.times[-1])
        times = np.union1d(req.q.times, np.linspace(0.0, t_max, 513))

        def p_value(t: np.ndarray) -> np.ndarray:
            return f_scale * (1.0 - np.exp(-c * t)) - q_coeff * req.q.value(t)
    else:
        q_src = req.q.as_expression()
        p: DecoherenceFunction = Expression(
            f"{f_scale!r}*(1-exp(-{c!r}*t)) - {q_coeff!r}*({q_src})"
        )
        times = (grid if grid is not None else default_grid(5.0 / c, 1024)).times
        p_value = p.value

    p_vals = p_value(times)
    high, low = range_violations(p_vals)
    outside = high | low
    if outside.any():
        k = int(np.argmax(outside))
        bound = 0.0 if low[k] else 1.0
        t_bad = range_exit(p_value, times, k, bound)
        raise ConstructionError(
            f"constructed p(t) leaves [0, 1] (crosses {bound:g}) "
            f"first at t = {t_bad!r}",
            first_violation=t_bad,
        )
    if sampled:
        p = SampledGrid(times, p_vals)
    return MixtureSpec(
        d,
        [
            (1.0 - a, ChannelSpec(d, req.basis, p)),
            (a, ChannelSpec(d, req.basis, req.q)),
        ],
    )


def build_all_channels_mix(req: AllChannelsRequest) -> MixtureSpec:
    """(d+1)-component mixture, one channel per basis, with
    ``p_i = ((d-1)/(x_i d^2)) (1 - e^{-ct})``; all its eigenvalues are
    ``e^{-ct}``.  Weights below ``(d-1)/d^2`` are rejected (such a channel
    would need ``p_i > 1``)."""
    d, c = req.dimension, float(req.rate)
    bound = weight_lower_bound(d)
    components = []
    for i, x in enumerate(req.weights, start=1):
        if x < bound - _TIE_TOL:
            raise WeightBoundError(
                f"weight x_{i} = {x!r} is below the admissible minimum "
                f"(d-1)/d^2 = {bound!r} for d = {d}; every basis label must "
                f"carry at least that much weight",
                index=i,
                weight=float(x),
                bound=bound,
            )
        scale = (d - 1) / (x * d**2)
        components.append((x, ChannelSpec(d, i, ExpRelax(scale, c))))
    return MixtureSpec(d, components)


def forecast_invertibility(req: AllChannelsRequest) -> InvertibilityForecast:
    """Closed-form per-input verdicts for :func:`build_all_channels_mix`.

    Input i has eigenvalue ``1 - (1 - e^{-ct})/(x_i d)`` away from its own
    label: exactly exponential iff ``x_i = 1/d`` (semigroup), positive
    forever iff ``x_i > 1/d`` (invertible), and hitting zero at
    ``t* = ln[1/(1 - d x_i)]/c`` iff ``x_i < 1/d`` (noninvertible).
    """
    d, c = req.dimension, float(req.rate)
    channels = []
    for i, x in enumerate(req.weights, start=1):
        prod = x * d
        if abs(prod - 1.0) <= _TIE_TOL:
            verdict, t_star = "semigroup", None
        elif prod > 1.0:
            verdict, t_star = "invertible", None
        else:
            verdict, t_star = "noninvertible", float(np.log(1.0 / (1.0 - prod)) / c)
        channels.append(ChannelForecast(i, float(x), verdict, t_star))
    return InvertibilityForecast(d, c, tuple(channels))


# ---------------------------------------------------------------------------
# Simplex sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SimplexScan:
    """Verdicts at every point of the weight lattice ``counts / divisions``.

    Rows follow :func:`simplex_lattice`.  ``valid`` is False where the
    matched family is undefined (a weight below ``(d-1)/d^2``); the verdict
    arrays hold False, NaN and 0 there.
    """

    dimension: int
    family: str  # 'semigroup' | 'matched'
    rate: float
    divisions: int
    counts: np.ndarray  # (points, d+1) integer lattice
    valid: np.ndarray
    is_semigroup: np.ndarray
    is_cp_divisible: np.ndarray
    min_rate: np.ndarray
    noninvertible_inputs: np.ndarray

    @property
    def corner(self) -> np.ndarray:
        """Valid points supported on a single label."""
        return self.valid & (np.count_nonzero(self.counts, axis=1) == 1)

    @property
    def proper(self) -> np.ndarray:
        """Valid points supported on two labels or more."""
        return self.valid & ~self.corner


def simplex_lattice(parts: int, divisions: int) -> np.ndarray:
    """Every split of ``divisions`` into ``parts`` nonnegative integers, as
    rows in lexicographic order."""
    # Stars and bars: the bar positions, in lexicographic order, give the
    # splits in lexicographic order.
    end = divisions + parts - 1
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(end), parts - 1)),
        dtype=np.int64,
    ).reshape(-1, parts - 1)
    return np.diff(bars, axis=1, prepend=-1, append=end) - 1


def simplex_scan(
    d: int,
    divisions: int,
    family: str = "semigroup",
    rate: float = 1.0,
    grid: Optional[TimeGrid] = None,
) -> SimplexScan:
    """Classify mixtures at every point of the weight-simplex lattice.

    ``family='semigroup'`` gives each supported label the semigroup input
    ``p = ((d-1)/d)(1 - e^{-ct})``; ``family='matched'`` gives each label
    the input of :func:`build_all_channels_mix`, defined where every
    weight is at least ``(d-1)/d^2``.  The valid points are written as
    columns, with lattice weights and basis labels, over one function table
    of ``ExpRelax`` entries: one semigroup input shared by every label, or
    one matched input per admissible lattice weight ``k/divisions``.  The
    sweep yields them a block at a time, each block a
    :class:`~paulimix.dynamics.MixtureBatch` over that table, classified as
    by :func:`~paulimix.dynamics.classify_many`; only a point with singular
    times is built as an object, to be refined alone.  The inputs are
    checked by building them as ``ExpRelax`` objects, and the lattice is
    valid by construction: its weights ``counts/divisions`` are nonnegative
    and sum to 1, on distinct labels in ``1..d+1``.
    """
    if divisions < 1:
        raise ValueError(f"divisions must be positive, got {divisions}")
    if family not in ("semigroup", "matched"):
        raise ValueError(f"unknown family {family!r} (expected semigroup or matched)")
    grid = grid if grid is not None else default_grid(5.0, 128)
    bound = weight_lower_bound(d) - _TIE_TOL
    if family == "matched":
        # Function k-1 is the input of weight x = k/divisions, as
        # build_all_channels_mix builds it, for each admissible x.
        admissible = [k for k in range(1, divisions + 1) if not k / divisions < bound]
        params = [((d - 1) / (k / divisions * d**2), rate) for k in admissible]
    else:
        params = [((d - 1) / d, rate)]
    # The inputs are checked as they are built, and then the dimension,
    # before the lattice, which grows with d, is built.
    functions, _ = _Functions.of([ExpRelax(*p) for p in params])
    check_dimension(d)
    counts = simplex_lattice(d + 1, divisions)
    weights = counts / divisions
    if family == "matched":
        valid = ~np.any(weights < bound, axis=1)
        rows, labels = np.nonzero(np.broadcast_to(valid[:, None], counts.shape))
        function = counts[rows, labels] - admissible[0]
    else:
        valid = np.ones(len(counts), dtype=bool)
        rows, labels = np.nonzero(counts)
        function = np.zeros(rows.size, dtype=np.intp)
    starts = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=len(counts))[valid])])
    basis, weight, size = labels + 1, weights[rows, labels], _block_size(d, len(grid))

    def batches():
        for lo in range(0, starts.size - 1, size):
            cut = starts[lo : lo + size + 1]
            a, z = cut[0], cut[-1]
            yield MixtureBatch(d, cut - a, basis[a:z], weight[a:z], function[a:z], functions)

    is_semigroup = np.zeros(len(counts), dtype=bool)
    is_cp_divisible = np.zeros(len(counts), dtype=bool)
    min_rate = np.full(len(counts), np.nan)
    noninvertible = np.zeros(len(counts), dtype=np.int64)
    for row, report in zip(np.flatnonzero(valid), _analyze(batches(), grid, None, keep=False)):
        is_semigroup[row] = report.is_semigroup
        is_cp_divisible[row] = report.is_cp_divisible
        min_rate[row] = report.min_rate
        noninvertible[row] = sum(1 for v in report.inputs if v.verdict == "noninvertible")
    return SimplexScan(
        dimension=d,
        family=family,
        rate=rate,
        divisions=divisions,
        counts=counts,
        valid=valid,
        is_semigroup=is_semigroup,
        is_cp_divisible=is_cp_divisible,
        min_rate=min_rate,
        noninvertible_inputs=noninvertible,
    )


# ---------------------------------------------------------------------------
# Randomized decoherence functions and scanners
# ---------------------------------------------------------------------------

_FAMILY_DESCRIPTION = (
    "exp_relax(scale,rate) | product/difference expression templates | "
    "257-point sampled grids of the same shapes"
)
_KINDS = (ExpRelax, ProductTemplate, DifferenceTemplate, SampledGrid)
_SAMPLE_TIMES = np.linspace(0.0, 5.0, 257)
_SAMPLE_TIMES.setflags(write=False)


def _uniform(low: float, high: float, u: float) -> float:
    """``u`` in ``[0, 1)`` mapped to ``[low, high)`` by the expression that
    ``Generator.uniform`` evaluates, so a draw equals its ``uniform`` draw."""
    return low + (high - low) * u


def _draw_function(rng: np.random.Generator):
    """The one draw of a decoherence function from the scanners' declared
    family, as ``(class, constructor arguments)``.  A sampled grid's
    arguments are ``(_SAMPLE_TIMES, values)``, its samples of
    ``scale*(1 - exp(-rate*t))``.  After the class, one ``rng.random`` call
    draws the function's 2 or 4 uniform parameters, which consumes the
    stream as that many scalar ``rng.uniform`` calls would."""
    kind = _KINDS[rng.integers(len(_KINDS))]
    u = rng.random(4 if kind in (ProductTemplate, DifferenceTemplate) else 2).tolist()
    scale = _uniform(0.2, 1.0, u[0])
    rate = _uniform(0.2, 2.0, u[1])
    if kind is ProductTemplate:
        return kind, (scale, rate, _uniform(0.1, 0.5, u[2]), _uniform(0.3, 2.0, u[3]))
    if kind is DifferenceTemplate:
        return kind, (scale, rate, scale * _uniform(0.0, 0.8, u[2]), rate * _uniform(0.2, 1.0, u[3]))
    if kind is SampledGrid:
        return kind, (_SAMPLE_TIMES, scale * (1.0 - np.exp(-rate * _SAMPLE_TIMES)))
    return kind, (scale, rate)


def random_decoherence_function(rng: np.random.Generator) -> DecoherenceFunction:
    """Draw one decoherence function from the scanners' declared family.

    All members are smooth, start at 0, and stay within [0, 1]; the sampled
    grids cover ``[0, 5]``.  This is :func:`_draw_function`'s class called
    on its arguments.
    """
    kind, args = _draw_function(rng)
    return kind(*args)


def _draw_mixture(rng: np.random.Generator, d: int, low: int, high: int, floor: float):
    """The one draw of a random mixture: ``(bases, weights, functions)``
    over ``low..high-1`` distinct random basis labels, each with a random
    decoherence function (:func:`_draw_function`).  The weights are
    ``floor`` plus a uniform (Dirichlet) share of the remaining
    ``1 - floor * size``; where ``size`` labels cannot each have ``floor``,
    the floor is ``0.5 / size``, so the weights are always positive."""
    size = int(rng.integers(low, high))
    bases = (rng.choice(d + 1, size=size, replace=False) + 1).tolist()
    if floor * size > 1.0:
        floor = 0.5 / size
    weights = (floor + (1.0 - floor * size) * rng.dirichlet([1.0] * size)).tolist()
    return bases, weights, [_draw_function(rng) for _ in range(size)]


def _random_mixture(
    rng: np.random.Generator, d: int, low: int, high: int, floor: float
) -> MixtureSpec:
    """:func:`_draw_mixture` as an object."""
    bases, weights, functions = _draw_mixture(rng, d, low, high, floor)
    return MixtureSpec(
        d,
        [(w, ChannelSpec(d, b, kind(*args))) for b, w, (kind, args) in zip(bases, weights, functions)],
    )


def _drawn_batch(d: int, draws) -> MixtureBatch:
    """Drawn mixtures (:func:`_draw_mixture`) as a batch of columns, each
    component with its own function, its draw a table entry.  A draw is a
    valid mixture by construction (distinct labels in ``1..d+1``, positive
    weights that sum to 1, functions from the declared family), so nothing
    is checked here."""
    starts, basis, weight, entries = [0], [], [], []
    for bases, weights, functions in draws:
        basis += bases
        weight += weights
        entries += functions
        starts.append(len(basis))
    table = _Functions.of_entries(entries)
    return MixtureBatch(d, starts, basis, weight, np.arange(len(basis)), table)


def _noninvertible_bound(d: int) -> Tuple[int, bool]:
    """Exact floor on the noninvertible inputs of a valid all-channels
    construction, and whether all ``d+1`` inputs could be semigroups.

    Input i stays invertible (or is a semigroup) iff ``x_i >= 1/d``, and every
    weight is at least ``(d-1)/d^2``.  So ``k`` inputs can stay invertible iff
    ``k/d + (d+1-k)(d-1)/d^2 <= 1``; all ``d+1`` are semigroups iff
    ``(d+1)/d = 1``.
    """
    low, high = Fraction(d - 1, d**2), Fraction(1, d)
    invertible = max(k for k in range(d + 2) if k * high + (d + 1 - k) * low <= 1)
    return d + 1 - invertible, (d + 1) * high == 1


def _scan(d: int, trials: int, seed: int) -> ScanReport:
    """Random proper-subset mixtures must never be semigroups; the floor on
    a valid full construction's noninvertible inputs is proven exactly by
    :func:`_noninvertible_bound`.

    Trial ``k`` draws from ``default_rng([seed, k])`` (:func:`_draw_mixture`).
    The trials, and last the equal-weights mixture, are drawn a block at a
    time straight into batch rows whose functions are the draws' table
    entries (:func:`_drawn_batch`), each block judged by
    :func:`~paulimix.dynamics._semigroup_verdicts` before the next is
    drawn.  Only a counterexample's mixture is built as an object, drawn
    again from its trial's generator.
    """
    if trials < _MIN_TRIALS:
        raise ValueError(f"need at least {_MIN_TRIALS} trials, got {trials}")
    check_dimension(d)

    def rng(trial):
        return np.random.default_rng([seed, trial])

    drawn = (d, 2, d + 1, 0.05)  # 2..d distinct labels, weights of at least 0.05 (0.5/size above 20)
    # Deterministic extra case: d+1 semigroup inputs, equal weights — the
    # mixture must not be a semigroup (its rates decay in time).
    semi = (ExpRelax, ((d - 1) / d, 1.0))
    equal = (list(range(1, d + 2)), [1.0 / (d + 1)] * (d + 1), [semi] * (d + 1))
    grid = default_grid(5.0, 128)
    rows = itertools.chain((_draw_mixture(rng(k), *drawn) for k in range(trials)), [equal])
    batches = (_drawn_batch(d, block) for block in _blocks(rows, len(grid), lambda _: d))
    verdicts = _semigroup_verdicts(batches, grid, Tolerances())
    equal_verdict = verdicts.pop()
    counterexamples = []
    for trial, verdict in enumerate(verdicts):
        if verdict.is_semigroup:
            spec = _random_mixture(rng(trial), *drawn)
            counterexamples.append(
                {
                    "phase": "subset",
                    "trial": trial,
                    "bases": [c.channel.basis for c in spec.components],
                    "weights": [c.weight for c in spec.components],
                    "functions": [c.channel.p.kind for c in spec.components],
                    "max_eigenvalue_deviation": verdict.max_eigenvalue_deviation,
                }
            )
    subset_semigroups = len(counterexamples)
    min_noninvertible, all_semigroup_feasible = _noninvertible_bound(d)
    if min_noninvertible < d:
        counterexamples.append(
            {"phase": "full", "trial": -1, "weights": [], "noninvertible": min_noninvertible}
        )
    if equal_verdict.is_semigroup:
        counterexamples.append(
            {"phase": "equal-semigroup-inputs", "trial": -1, "weights": []}
        )
    details = {
        "dimension": d,
        "subset_semigroups": subset_semigroups,
        "min_noninvertible_inputs": min_noninvertible,
        "required_noninvertible_inputs": d,
        "equal_semigroup_mix_is_semigroup": bool(equal_verdict.is_semigroup),
        "all_semigroup_inputs_feasible": all_semigroup_feasible,
    }
    return ScanReport(
        seed=seed,
        trials=trials,
        family=_FAMILY_DESCRIPTION,
        counterexamples=tuple(counterexamples),
        passed=not counterexamples,
        details=details,
    )


def theorem1_scan(trials: int, seed: int) -> ScanReport:
    """Qubit scan: random two-direction mixtures are never semigroups.  The
    floor of 2 noninvertible inputs in every valid three-direction
    construction is proven in exact arithmetic, not sampled.  Reproducible
    from (seed, trials); counterexamples, if any, are listed verbatim."""
    return _scan(2, trials, seed)


def theorem2_scan(d: int, trials: int, seed: int) -> ScanReport:
    """Dimension-d scan: random proper-subset mixtures are never semigroups.
    The floor of d noninvertible inputs in every valid full construction is
    proven in exact arithmetic, not sampled."""
    return _scan(d, trials, seed)


def cptp_scan(d: int, trials: int, seed: int, tol: float) -> ScanReport:
    """Random mixtures over random basis subsets are valid channels: at three
    random times each, the Choi matrix is Hermitian (to 1e-12), its partial
    trace is the identity (to ``tol``) and no eigenvalue is below ``-tol``.
    Reproducible from (seed, trials); every failing check is listed."""
    if trials < 1:
        raise ValueError(f"need at least 1 trial, got {trials}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tolerance must not be NaN, infinite or negative, got {tol!r}")
    eye = np.eye(d)
    counterexamples = []
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        spec = _random_mixture(rng, d, 1, d + 2, 0.0)
        times = rng.uniform(0.0, 5.0, size=3)
        for t, choi in zip(times.tolist(), matrixlab.choi(spec, times)):
            herm = matrixlab.hermiticity_deviation(choi)
            ptr = float(np.abs(matrixlab.partial_trace_first(choi, d) - eye).max())
            psd = matrixlab.psd_check(choi, tol)
            if herm > 1e-12 or ptr > tol or not psd.passed:
                counterexamples.append(
                    {
                        "trial": trial,
                        "t": t,
                        "hermiticity_deviation": herm,
                        "partial_trace_deviation": ptr,
                        "min_choi_eigenvalue": psd.min_eigenvalue,
                    }
                )
    return ScanReport(
        seed=seed,
        trials=trials,
        family="random mixtures over random basis subsets "
        "(exp_relax | expression templates | sampled grids)",
        counterexamples=tuple(counterexamples),
        passed=not counterexamples,
        details={"dimension": d, "times_per_trial": 3, "tolerance": tol},
    )
