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
    _block_size,
    _semigroup_verdicts,
    _verdict_columns,
    default_grid,
    # Not called here: perfbench/test_perfbench.py checks that the tracer
    # also wraps module-level copies of a public function, such as this one.
    mixture_eigenvalues,  # noqa: F401
)
from .mubgen import DIMENSION_RANGE, check_dimension

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
    "MAX_SCAN_POINTS",
    "weight_lower_bound",
    "random_decoherence_function",
    "theorem1_scan",
    "theorem2_scan",
    "cptp_scan",
]

_SIMPLEX_TOL = 1e-12
_TIE_TOL = 1e-12
_MIN_TRIALS = 100
MAX_SCAN_POINTS = 10**7  # lattice points that one simplex scan may classify


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
    by :func:`~paulimix.dynamics.classify_many`, and its verdict columns
    fill the scan's arrays; no point builds a report, and only a point with
    singular times is built as an object, to be refined alone.  The inputs
    are checked by building them as ``ExpRelax`` objects, and the lattice
    is valid by construction: its weights ``counts/divisions`` are
    nonnegative and sum to 1, on distinct labels in ``1..d+1``.  A lattice
    of more than :data:`MAX_SCAN_POINTS` points is rejected before anything
    is built.
    """
    if divisions < 1:
        raise ValueError(f"divisions must be positive, got {divisions}")
    if family not in ("semigroup", "matched"):
        raise ValueError(f"unknown family {family!r} (expected semigroup or matched)")
    # First, as the inputs grow with divisions and the lattice with both; a
    # d that check_dimension rejects is left to it.
    if isinstance(d, (int, np.integer)) and 0 < d <= DIMENSION_RANGE[1]:
        points = math.comb(divisions + d, d)
        if points > MAX_SCAN_POINTS:
            # A count of thousands of digits has no str(); give a power of ten
            # below 2**(bits - 1), using log10(2) > 0.3010299956.
            many = points if points < 10**30 else (
                f"over 10^{(points.bit_length() - 1) * 3010299956 // 10**10}"
            )
            raise ValueError(
                f"a dimension-{d} scan with {divisions} divisions has {many} lattice "
                f"points, more than the {MAX_SCAN_POINTS} that a scan allows"
            )
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
    rows = np.flatnonzero(valid)
    for cols in _verdict_columns(batches(), grid, None):
        block, rows = rows[: cols.min_rate.size], rows[cols.min_rate.size :]
        is_semigroup[block] = cols.is_semigroup
        is_cp_divisible[block] = cols.is_cp_divisible
        min_rate[block] = cols.min_rate
        noninvertible[block] = cols.noninvertible
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


def _draw(
    rng: np.random.Generator,
    d: int,
    n: int,
    low: int,
    high: int,
    floor: float,
    keep: Optional[int] = None,
    equal: bool = False,
) -> MixtureBatch:
    """The one draw of random mixtures: ``n`` of them, drawn from ``rng`` as
    arrays, as a batch of columns.  The block is always drawn whole, and
    the batch holds its first ``keep`` mixtures (all ``n`` by default),
    then, if ``equal``, the equal-weights mixture of ``d+1`` semigroup
    inputs ``ExpRelax((d-1)/d, 1)``, one per label.

    Mixture ``b`` has ``low..high-1`` distinct basis labels, the first of
    a random ordering of ``1..d+1``.  Its weights are ``floor`` plus a
    uniform (Dirichlet) share of the remaining ``1 - floor * size``, the
    normalized standard exponentials; where ``size`` labels cannot each
    have ``floor``, the floor is ``0.5 / size``, so the weights are always
    positive.  Each component has its own function, a table row of the
    scanners' declared family: one of ``_KINDS`` with equal chances, with
    parameters mapped from uniforms ``u`` as ``low + (high - low) * u``
    (a sampled grid holds the samples of ``scale*(1 - exp(-rate*t))``).
    A draw is a valid mixture by construction (distinct labels in
    ``1..d+1``, positive weights that sum to 1, functions from the
    declared family), so nothing is checked here."""
    size = rng.integers(low, high, n)
    kept = np.arange(d + 1) < size[:, None]
    basis = np.argsort(rng.random((n, d + 1)), axis=1)[kept] + 1
    least = np.where(floor * size > 1.0, 0.5 / size, floor)
    share = np.where(kept, rng.standard_exponential((n, d + 1)), 0.0)
    share /= share.sum(axis=1, keepdims=True)
    weight = (least[:, None] + (1.0 - least * size)[:, None] * share)[kept]
    kind = rng.integers(len(_KINDS), size=basis.size)
    # scale U(0.2, 1), rate U(0.2, 2), and a product's depth U(0.1, 0.5) and
    # freq U(0.3, 2); a difference's m and rate2 are the fractions U(0, 0.8)
    # and U(0.2, 1) of its scale and rate.
    u = rng.random((basis.size, 4))
    params = np.array([0.2, 0.2, 0.1, 0.3]) + np.array([0.8, 1.8, 0.4, 1.7]) * u
    diff = kind == _KINDS.index(DifferenceTemplate)
    params[diff, 2:] = params[diff, :2] * (np.array([0.0, 0.2]) + 0.8 * u[diff, 2:])
    if keep is not None:
        cut = int(size[:keep].sum())
        size, basis, weight = size[:keep], basis[:cut], weight[:cut]
        kind, params = kind[:cut], params[:cut]
    if equal:
        size = np.append(size, d + 1)
        basis = np.append(basis, np.arange(1, d + 2))
        weight = np.append(weight, np.full(d + 1, 1.0 / (d + 1)))
        kind = np.append(kind, np.full(d + 1, _KINDS.index(ExpRelax)))
        params = np.vstack([params, np.tile([(d - 1) / d, 1.0, 0.0, 0.0], (d + 1, 1))])
    columns = []
    for k, cls in enumerate(_KINDS):
        rows = np.flatnonzero(kind == k)
        if not rows.size:
            continue
        if cls is SampledGrid:
            scale, rate = params[rows, :1], params[rows, 1:2]
            members = (_SAMPLE_TIMES, scale * (1.0 - np.exp(-rate * _SAMPLE_TIMES)))
        else:  # an ExpRelax has 2 parameters, a template 4
            members = params[rows, : 2 if cls is ExpRelax else 4].tolist()
        columns.append((cls, rows, members))
    table = _Functions.of_columns(basis.size, columns)
    starts = np.concatenate([[0], np.cumsum(size)])
    return MixtureBatch(d, starts, basis, weight, np.arange(basis.size), table)


def random_decoherence_function(rng: np.random.Generator) -> DecoherenceFunction:
    """Draw one decoherence function from the scanners' declared family.

    All members are smooth, start at 0, and stay within [0, 1]; the sampled
    grids cover ``[0, 5]``.  This is the function of a one-component qubit
    mixture drawn by the scanners' one draw, :func:`_draw`, built as an
    object: a block of one, drawn from ``rng`` as given, so the same
    generator state replays the same function.
    """
    return _draw(rng, 2, 1, 1, 2, 0.0).functions.build(0)


def _check_seed(seed) -> None:
    """A scanner's seed must be a nonnegative integer."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")


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

    The trials are drawn a block of ``B = _block_size(d, 128)`` at a time,
    block ``j`` whole from ``default_rng([seed, j])`` by :func:`_draw`,
    and cut to the trials the scan needs, so trial ``k`` is mixture
    ``k % B`` of block ``k // B`` and depends only on ``(seed, d, k)``.
    The equal-weights mixture rides last in the last block.  Each block is
    judged by :func:`~paulimix.dynamics._semigroup_verdicts` before the
    next is drawn.  Only a counterexample's mixture is built as an object:
    its block is drawn again, and it is ``spec(k % B)`` of that batch.
    """
    if trials < _MIN_TRIALS:
        raise ValueError(f"need at least {_MIN_TRIALS} trials, got {trials}")
    check_dimension(d)
    _check_seed(seed)
    grid = default_grid(5.0, 128)
    size = _block_size(d, len(grid))
    count = trials // size + 1  # blocks: the trials, then the equal-weights mixture

    def block(j):
        # 2..d distinct labels, weights of at least 0.05 (0.5/size above 20);
        # last the deterministic extra case, d+1 semigroup inputs with equal
        # weights, which must not be a semigroup (its rates decay in time).
        rng = np.random.default_rng([seed, j])
        keep = min(size, trials - j * size)
        return _draw(rng, d, size, 2, d + 1, 0.05, keep, equal=j == count - 1)

    verdicts = _semigroup_verdicts(map(block, range(count)), grid, Tolerances())
    equal_verdict = verdicts.pop()
    counterexamples = []
    for trial, verdict in enumerate(verdicts):
        if verdict.is_semigroup:
            spec = block(trial // size).spec(trial % size)
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
    construction is proven in exact arithmetic, not sampled.
    Counterexamples, if any, are listed verbatim.  The trials are drawn in
    blocks of ``B = _block_size(2, 128)``, block ``j`` whole from
    ``default_rng([seed, j])`` (:func:`_scan`), so trial ``k`` depends only
    on ``(seed, k)`` and a listed trial replays as mixture ``k % B`` of
    block ``k // B``."""
    return _scan(2, trials, seed)


def theorem2_scan(d: int, trials: int, seed: int) -> ScanReport:
    """Dimension-d scan: random proper-subset mixtures are never semigroups.
    The floor of d noninvertible inputs in every valid full construction is
    proven in exact arithmetic, not sampled.  The trials are drawn in
    blocks of ``B = _block_size(d, 128)``, as :func:`theorem1_scan` draws
    them, so a listed trial ``k`` replays as mixture ``k % B`` of block
    ``k // B`` from ``(seed, d)``."""
    return _scan(d, trials, seed)


def cptp_scan(d: int, trials: int, seed: int, tol: float) -> ScanReport:
    """Random mixtures over random basis subsets are valid channels: at three
    random times each, the Choi matrix is Hermitian (to 1e-12), its partial
    trace is the identity (to ``tol``) and no eigenvalue is below ``-tol``.
    Every failing check is listed.

    All ``trials`` mixtures are one draw (:func:`_draw`, of 1..d+1 labels)
    from ``default_rng(seed)``, and their times are one ``(trials, 3)``
    uniform draw on ``[0, 5]`` after it: trial ``k`` is ``spec(k)`` of that
    batch with row ``k`` of the times, so a listed trial replays from
    ``(d, trials, seed)``."""
    if trials < 1:
        raise ValueError(f"need at least 1 trial, got {trials}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tolerance must not be NaN, infinite or negative, got {tol!r}")
    check_dimension(d)
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    batch = _draw(rng, d, trials, 1, d + 2, 0.0)
    times = rng.uniform(0.0, 5.0, size=(trials, 3))
    eye = np.eye(d)
    counterexamples = []
    for trial in range(trials):
        spec = batch.spec(trial)
        for t, choi in zip(times[trial].tolist(), matrixlab.choi(spec, times[trial])):
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
