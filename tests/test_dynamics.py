"""Eigenvalue flows, decay rates, semigroup detection, classification."""

import math
from dataclasses import dataclass
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulimix import (
    AllChannelsRequest,
    ChannelSpec,
    DecoherenceFunction,
    ExpRelax,
    Expression,
    MixtureSpec,
    MixtureValidationError,
    SampledGrid,
    TimeGrid,
    Tolerances,
    analyze_mixture,
    build_all_channels_mix,
    classify,
    classify_many,
    default_grid,
    detect_semigroup,
    intermediate_map_check,
    mixture_eigenvalues,
    rates_from_spectrum,
    refine_grid,
    simplex_scan,
    single_channel_eigenvalues,
)
from paulimix import channelcore, dynamics, semigroupforge
from paulimix.channelcore import bracket_roots
from paulimix.dynamics import SpectralTrajectory
from paulimix.exprcalc import DomainError
from util import qubit_rates_abc, reference_bisect, rk4_path

LN2 = math.log(2.0)
LN3 = math.log(3.0)


def equal_thirds_mix():
    """Three qubit channels, weights 1/3, p = (3/4)(1-e^{-t}): eigenvalues e^{-t}."""
    return build_all_channels_mix(AllChannelsRequest(2, 1.0, (1 / 3, 1 / 3, 1 / 3)))


def three_semigroup_mix():
    """Equal mix of the three qubit semigroups p = (1-e^{-t})/2."""
    f = ExpRelax(0.5, 1.0)
    return MixtureSpec(2, [(1 / 3, ChannelSpec(2, b, f)) for b in (1, 2, 3)])


def two_semigroup_mix():
    """50/50 mix of two qubit semigroups: eternally negative third rate."""
    f = ExpRelax(0.5, 1.0)
    return MixtureSpec(2, [(0.5, ChannelSpec(2, 1, f)), (0.5, ChannelSpec(2, 2, f))])


# ---------------------------------------------------------------------------
# TimeGrid
# ---------------------------------------------------------------------------


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(np.linspace(0.0, 1.0, 8))  # too few points
    with pytest.raises(ValueError):
        TimeGrid(np.linspace(0.1, 1.0, 64))  # must start at 0
    times = np.linspace(0.0, 1.0, 64)
    times[10] = times[9]
    with pytest.raises(ValueError):
        TimeGrid(times)  # not strictly ascending
    grid = default_grid(5.0, 512)
    assert len(grid) == 512 and grid.t_max == 5.0 and grid.times[0] == 0.0


def test_refine_grid_clusters_points():
    grid = default_grid(5.0, 64)
    refined = refine_grid(grid, [LN3])
    assert set(np.round(grid.times, 12)) <= set(np.round(refined.times, 12))
    near = np.abs(refined.times - LN3) < 1e-4
    assert near.sum() >= 3  # geometric cluster resolves the neighborhood


# ---------------------------------------------------------------------------
# Eigenvalue trajectories
# ---------------------------------------------------------------------------


def test_equal_thirds_eigenvalues_are_exponential():
    grid = default_grid()
    traj = mixture_eigenvalues(equal_thirds_mix(), grid)
    expected = np.exp(-grid.times)
    for beta in range(3):
        np.testing.assert_allclose(traj.eigenvalues[beta], expected, atol=1e-14)
        np.testing.assert_allclose(traj.derivatives[beta], -expected, atol=1e-14)


def test_three_semigroup_eigenvalues():
    grid = default_grid()
    traj = mixture_eigenvalues(three_semigroup_mix(), grid)
    expected = (1.0 + 2.0 * np.exp(-grid.times)) / 3.0
    for beta in range(3):
        np.testing.assert_allclose(traj.eigenvalues[beta], expected, atol=1e-14)


def test_single_component_matches_single_channel():
    ch = ChannelSpec(3, 2, ExpRelax(0.6, 1.3))
    grid = default_grid(4.0, 64)
    traj = mixture_eigenvalues(MixtureSpec(3, [(1.0, ch)]), grid)
    np.testing.assert_allclose(
        traj.eigenvalues, single_channel_eigenvalues(ch, grid.times), atol=1e-15
    )


def test_repeated_basis_components_share_the_self_label():
    # Two components on the same basis: that label never decays.
    spec = MixtureSpec(
        2,
        [
            (0.4, ChannelSpec(2, 2, ExpRelax(0.5, 1.0))),
            (0.6, ChannelSpec(2, 2, ExpRelax(0.3, 2.0))),
        ],
    )
    grid = default_grid(3.0, 64)
    traj = mixture_eigenvalues(spec, grid)
    np.testing.assert_allclose(traj.eigenvalues[1], 1.0, atol=1e-15)
    p = 0.4 * 0.5 * (1 - np.exp(-grid.times)) + 0.6 * 0.3 * (1 - np.exp(-2 * grid.times))
    np.testing.assert_allclose(traj.eigenvalues[0], 1 - 2 * p, atol=1e-14)
    np.testing.assert_allclose(traj.eigenvalues[2], 1 - 2 * p, atol=1e-14)


def test_trajectory_requires_identity_at_zero():
    grid = default_grid(1.0, 32)
    lam = np.ones((3, 32))
    lam[:, 0] = 0.9
    with pytest.raises(ValueError):
        SpectralTrajectory(2, grid, lam, np.zeros((3, 32)))


# ---------------------------------------------------------------------------
# Rates
# ---------------------------------------------------------------------------


def test_equal_thirds_rates_are_constant_quarter():
    grid = default_grid()
    traj = mixture_eigenvalues(equal_thirds_mix(), grid)
    rates = rates_from_spectrum(traj)
    np.testing.assert_allclose(rates.gamma, 0.25, atol=1e-12)
    assert not rates.pole_mask.any()


def test_three_semigroup_rates_decay():
    grid = default_grid()
    traj = mixture_eigenvalues(three_semigroup_mix(), grid)
    rates = rates_from_spectrum(traj)
    expected = 1.0 / (2.0 * (2.0 + np.exp(grid.times)))
    for alpha in range(3):
        np.testing.assert_allclose(rates.gamma[alpha], expected, atol=1e-12)
    assert rates.gamma[0, 0] == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_identity_dynamics_has_zero_rates():
    spec = MixtureSpec(2, [(1.0, ChannelSpec(2, 1, Expression("0*t")))])
    grid = default_grid(2.0, 64)
    traj = mixture_eigenvalues(spec, grid)
    rates = rates_from_spectrum(traj)
    np.testing.assert_allclose(rates.gamma, 0.0, atol=1e-15)
    verdict = detect_semigroup(traj, rates, 1e-8)
    assert verdict.is_semigroup
    np.testing.assert_allclose(verdict.exponents, 0.0, atol=1e-15)


def test_rates_mark_poles_with_infinities():
    # p = 1-e^{-t} sends the off-labels through zero exactly at ln 2; putting
    # ln 2 on the grid forces a marked pole there.
    times = np.unique(np.concatenate([np.linspace(0.0, 5.0, 64), [LN2]]))
    grid = TimeGrid(times)
    spec = MixtureSpec(2, [(1.0, ChannelSpec(2, 1, ExpRelax(1.0, 1.0)))])
    traj = mixture_eigenvalues(spec, grid)
    rates = rates_from_spectrum(traj)
    k = int(np.argmin(np.abs(times - LN2)))
    assert rates.pole_mask[k]
    assert np.all(np.isinf(rates.gamma[:, k]))
    assert not rates.pole_mask[k - 1] and not rates.pole_mask[k + 1]


def test_rates_dimension_argument_must_agree():
    grid = default_grid(1.0, 32)
    traj = mixture_eigenvalues(equal_thirds_mix(), grid)
    with pytest.raises(ValueError):
        rates_from_spectrum(traj, dimension=3)
    rates_from_spectrum(traj, dimension=2)


@pytest.mark.parametrize("seed", range(8))
def test_qubit_rates_match_abc_combinations(seed):
    # gamma_1 = A - B + C etc., with A, B, C assembled in the test directly
    # from the weights, p's and p-dots.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    bases = rng.integers(1, 4, size=n)
    weights = rng.dirichlet(np.ones(n))
    funcs = [
        ExpRelax(float(rng.uniform(0.1, 0.45)), float(rng.uniform(0.2, 2.0)))
        for _ in range(n)
    ]
    spec = MixtureSpec(
        2, [(float(w), ChannelSpec(2, int(b), f)) for w, b, f in zip(weights, bases, funcs)]
    )
    grid = default_grid(4.0, 128)
    lam = np.ones((3, 128))
    dlam = np.zeros((3, 128))
    for w, b, f in zip(weights, bases, funcs):
        p, dp = f.value_and_derivative(grid.times)
        for beta in range(3):
            if beta != b - 1:
                lam[beta] -= 2.0 * w * p
                dlam[beta] -= 2.0 * w * dp
    oracle = qubit_rates_abc(lam, dlam)
    rates = rates_from_spectrum(mixture_eigenvalues(spec, grid))
    np.testing.assert_allclose(
        rates.gamma, oracle, rtol=1e-9, atol=1e-9 * max(1.0, np.abs(oracle).max())
    )


def test_rate_inversion_reconstructs_eigenvalues():
    # Integrate lambda' = -Gamma lambda with Gamma rebuilt from the returned
    # gammas; fourth-order integration must land back on the trajectory.
    spec = three_semigroup_mix()
    grid = TimeGrid(np.linspace(0.0, 3.0, 4097))
    traj = mixture_eigenvalues(spec, grid)
    rates = rates_from_spectrum(traj)
    times = grid.times
    gam = rates.gamma

    def f(t, y):
        g = np.array([np.interp(t, times, gam[a]) for a in range(3)])
        big_gamma = 2.0 * (g.sum() - g)  # d/(d-1) * sum over other labels
        return -big_gamma * y

    path = rk4_path(f, np.ones(3), times)
    assert np.abs(path.T - traj.eigenvalues).max() <= 1e-6


# ---------------------------------------------------------------------------
# Semigroup detection
# ---------------------------------------------------------------------------


def test_detect_semigroup_on_equal_thirds():
    grid = default_grid()
    traj = mixture_eigenvalues(equal_thirds_mix(), grid)
    verdict = detect_semigroup(traj, rates_from_spectrum(traj), 1e-8)
    assert verdict.is_semigroup
    np.testing.assert_allclose(verdict.exponents, 1.0, rtol=1e-8)
    assert verdict.max_eigenvalue_deviation <= 1e-12


def test_detect_rejects_three_semigroup_mix():
    grid = default_grid()
    traj = mixture_eigenvalues(three_semigroup_mix(), grid)
    verdict = detect_semigroup(traj, rates_from_spectrum(traj), 1e-8)
    assert not verdict.is_semigroup


def test_detect_fails_fast_on_nonpositive_eigenvalues():
    grid = default_grid()
    spec = MixtureSpec(2, [(1.0, ChannelSpec(2, 1, ExpRelax(1.0, 1.0)))])
    traj = mixture_eigenvalues(spec, grid)
    verdict = detect_semigroup(traj, rates_from_spectrum(traj), 1e-8)
    assert not verdict.is_semigroup
    assert verdict.max_eigenvalue_deviation == np.inf


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def test_classify_equal_thirds_full_report():
    report = classify(equal_thirds_mix())
    assert report.is_semigroup and report.is_cp_divisible
    assert report.singular_times == ()
    assert report.p_in_range
    assert len(report.inputs) == 3
    for verdict in report.inputs:
        assert verdict.verdict == "noninvertible"
        assert len(verdict.singular_times) == 1
        assert verdict.singular_times[0] == pytest.approx(LN3, abs=1e-9)
    assert report.min_rate == pytest.approx(0.25, abs=1e-10)


def test_classify_two_semigroup_mix_is_eternally_indivisible():
    report = classify(two_semigroup_mix())
    assert not report.is_semigroup
    assert not report.is_cp_divisible
    assert report.min_rate < -0.2  # tail of gamma_3 -> -1/4
    for verdict in report.inputs:
        assert verdict.verdict == "semigroup"


def test_classify_three_semigroup_mix_is_divisible_not_semigroup():
    report = classify(three_semigroup_mix())
    assert not report.is_semigroup
    assert report.is_cp_divisible
    assert report.min_rate > 0.0


def test_classify_locates_output_singularities():
    # Single channel with p = 1-e^{-t}: both off-labels cross zero at ln 2.
    spec = MixtureSpec(2, [(1.0, ChannelSpec(2, 1, ExpRelax(1.0, 1.0)))])
    report = classify(spec)
    assert not report.is_semigroup and not report.is_cp_divisible
    labels = sorted(label for label, _ in report.singular_times)
    assert labels == [2, 3]
    for _, t_star in report.singular_times:
        assert t_star == pytest.approx(LN2, abs=1e-10)


# A qubit with one channel of weight 1 has the off-label eigenvalue 1 - 2p;
# each case gives p as a function and as an mpmath expression.
_MPMATH_ORACLE = {
    "exp-relax": (ExpRelax(1, 1), lambda t: 1 - 2 * (1 - mpmath.exp(-t)), 1),
    "sin-squared": (Expression("0.8*sin(t)^2"), lambda t: 1 - 2 * mpmath.mpf("0.8") * mpmath.sin(t) ** 2, 3),
}


@pytest.mark.parametrize("case", sorted(_MPMATH_ORACLE))
def test_singular_times_lie_on_mpmath_roots(case):
    # Every singular time, of the output (labels 2 and 3) and of the input,
    # lies within the singularity tolerance of a 40-digit root near it.
    f, lam, count = _MPMATH_ORACLE[case]
    report = classify(MixtureSpec(2, [(1.0, ChannelSpec(2, 1, f))]), default_grid(5.0))
    (verdict,) = report.inputs
    assert verdict.verdict == "noninvertible" and len(verdict.singular_times) == count
    assert sorted(label for label, _ in report.singular_times) == sorted([2, 3] * count)
    found = [t for _, t in report.singular_times] + list(verdict.singular_times)
    roots = set()
    with mpmath.workdps(40):
        for t in found:
            root = mpmath.findroot(lam, mpmath.mpf(t))
            assert abs(lam(root)) < mpmath.mpf(10) ** -35
            assert abs(root - t) <= Tolerances().singularity
            roots.add(mpmath.nstr(root, 30))
    assert len(roots) == count


def test_classify_raises_on_structural_problems():
    f = ExpRelax(0.5, 1.0)
    bad = MixtureSpec(2, [(0.5, ChannelSpec(2, 1, f)), (0.2, ChannelSpec(2, 2, f))])
    with pytest.raises(MixtureValidationError):
        classify(bad)


def test_classify_keeps_going_when_p_leaves_range():
    spec = MixtureSpec(2, [(1.0, ChannelSpec(2, 1, ExpRelax(1.2, 1.0)))])
    report = classify(spec)
    assert not report.p_in_range
    assert report.singular_times  # still located
    assert not report.is_semigroup


@pytest.mark.parametrize("field", ["semigroup", "cp", "pole", "singularity"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1e-12])
def test_tolerances_reject_a_nonfinite_or_negative_field(field, value):
    with pytest.raises(ValueError, match=f"tolerance {field} must be finite and nonnegative"):
        Tolerances(**{field: value})


def test_tolerances_keep_none_as_auto_and_accept_zero():
    assert Tolerances(semigroup=None, cp=None).semigroup_at(_alone(equal_thirds_mix()), 0) == 1e-8
    assert Tolerances(semigroup=0.0, cp=0.0, pole=0.0, singularity=0.0).pole == 0.0


def test_classify_semigroup_tolerance_auto_selection():
    closed = classify(equal_thirds_mix())
    assert closed.semigroup_tolerance == 1e-8
    times = np.linspace(0.0, 5.0, 513)
    sampled_f = SampledGrid(times, 0.75 * (1 - np.exp(-times)))
    spec = MixtureSpec(2, [(1 / 3, ChannelSpec(2, b, sampled_f)) for b in (1, 2, 3)])
    sampled = classify(spec)
    assert sampled.semigroup_tolerance == 1e-5
    assert sampled.is_semigroup
    forced = classify(spec, tolerances=Tolerances(semigroup=1e-13))
    assert not forced.is_semigroup  # interpolation error exceeds 1e-13


def test_semigroup_verdict_implies_divisible_on_random_mixtures():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        bases = rng.integers(1, 4, size=n)
        weights = rng.dirichlet(np.ones(n))
        comps = [
            (
                float(w),
                ChannelSpec(
                    2,
                    int(b),
                    ExpRelax(float(rng.uniform(0.1, 0.45)), float(rng.uniform(0.2, 2.0))),
                ),
            )
            for w, b in zip(weights, bases)
        ]
        report = classify(MixtureSpec(2, comps), default_grid(4.0, 128))
        assert (not report.is_semigroup) or report.is_cp_divisible


# ---------------------------------------------------------------------------
# Intermediate maps
# ---------------------------------------------------------------------------


def test_intermediate_map_of_semigroup_is_cp():
    grid = default_grid()
    traj = mixture_eigenvalues(equal_thirds_mix(), grid)
    t_a, t_b = grid.times[50], grid.times[400]
    check = intermediate_map_check(traj, t_a, t_b)
    assert check.defined and check.is_cp
    mu = math.exp(-(t_b - t_a))
    for ratio in check.eigenvalue_ratios:
        assert ratio == pytest.approx(mu, abs=1e-12)
    assert check.min_choi_eigenvalue >= -1e-12


def test_intermediate_map_detects_negative_rate_interval():
    grid = default_grid()
    traj = mixture_eigenvalues(two_semigroup_mix(), grid)
    check = intermediate_map_check(traj, grid.times[50], grid.times[400])
    assert check.defined and not check.is_cp
    assert check.min_choi_eigenvalue < -1e-3


def test_intermediate_map_undefined_at_singular_start():
    times = np.unique(np.concatenate([np.linspace(0.0, 5.0, 64), [LN2]]))
    grid = TimeGrid(times)
    spec = MixtureSpec(2, [(1.0, ChannelSpec(2, 1, ExpRelax(1.0, 1.0)))])
    traj = mixture_eigenvalues(spec, grid)
    check = intermediate_map_check(traj, LN2, float(times[-1]))
    assert not check.defined
    assert check.is_cp is None and check.min_choi_eigenvalue is None


@pytest.mark.parametrize("bad_columns", [(slice(1, 2), 40), (slice(None), 40)])
def test_intermediate_map_with_nan_ratio_is_not_cp(bad_columns):
    grid = default_grid(5.0, 64)
    lam = np.ones((4, 64))
    lam[bad_columns] = np.nan
    traj = SpectralTrajectory(3, grid, lam, np.zeros((4, 64)))
    for ia, ib in [(0, 40), (40, 41)]:
        check = intermediate_map_check(traj, grid.times[ia], grid.times[ib])
        assert check.defined and check.is_cp is False
        assert math.isnan(check.min_choi_eigenvalue)


def test_intermediate_map_argument_validation():
    grid = default_grid()
    traj = mixture_eigenvalues(equal_thirds_mix(), grid)
    with pytest.raises(ValueError):
        intermediate_map_check(traj, grid.times[10], grid.times[10])
    with pytest.raises(ValueError):
        intermediate_map_check(traj, 0.123456789, grid.times[400])  # not a grid point


# ---------------------------------------------------------------------------
# Root bracketing
# ---------------------------------------------------------------------------


def reference_zero_crossings(values, times, f, xtol):
    """The per-grid-point scan and bisection that bracket_roots replaced."""

    def bisect(lo, hi, flo):
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

    crossings = []
    for k in range(values.size - 1):
        a, b = values[k], values[k + 1]
        if a == 0.0:
            if k > 0:
                crossings.append(float(times[k]))
        elif (a < 0.0) != (b < 0.0):
            crossings.append(bisect(float(times[k]), float(times[k + 1]), a))
    if values[-1] == 0.0:
        crossings.append(float(times[-1]))
    return crossings


SAMPLE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, math.nan]),
    st.floats(-1.0, 1.0),
)


@st.composite
def sampled_rows(draw):
    """(values, times): rows mixing exact zeros (interior and last), NaNs,
    ``a < 0, b == 0`` pairs, alternating signs and all-positive rows."""
    n = draw(st.integers(2, 24))
    rows = draw(st.integers(1, 4))
    steps = draw(st.lists(st.floats(1e-3, 1.0), min_size=n - 1, max_size=n - 1))
    times = np.concatenate([[0.0], np.cumsum(steps)])
    one_row = st.lists(SAMPLE, min_size=n, max_size=n)
    values = np.array(draw(st.lists(one_row, min_size=rows, max_size=rows)))
    for row in values:
        shape = draw(st.sampled_from(["raw", "positive", "alternating", "zero-pairs"]))
        if shape == "positive":
            row[:] = np.abs(row) + 0.5
        elif shape == "alternating":
            row[:] = np.abs(row) * (-1.0) ** np.arange(n)
        elif shape == "zero-pairs":
            row[1::2] = 0.0
            row[::2] = -np.abs(row[::2]) - 0.5
    return values, times


@settings(max_examples=300, deadline=None)
@given(sampled_rows(), st.sampled_from([1e-10, 1e-3]))
def test_bracket_roots_matches_per_point_scan(sample, xtol):
    values, times = sample
    # Points evaluated per bracket (row, grid interval).  Rounds evaluate
    # each bracket's midpoint tree, so they see more points than plain
    # bisection: a superset of its midpoints, all inside the bracket.
    calls, ref_calls = {}, {}
    below = values < 0.0
    brackets = set(zip(*np.nonzero((values[:, :-1] != 0.0) & (below[:, :-1] != below[:, 1:]))))

    def bracket(row, t):
        return (row, int(np.searchsorted(times, t)) - 1)

    def f(rows, ts):
        keys = [bracket(row, t) for row, t in zip(rows.tolist(), ts.tolist())]
        assert keys == sorted(keys)  # (row, interval) order
        for key, t in zip(keys, ts.tolist()):
            assert key in brackets and times[key[1]] < t < times[key[1] + 1]
            calls.setdefault(key, set()).add(t)
        return np.array([np.interp(t, times, values[row]) for row, t in zip(rows, ts)])

    expected = []
    for row in range(values.shape[0]):

        def ref_f(t, _row=row):
            ref_calls.setdefault(bracket(_row, t), set()).add(t)
            return float(np.interp(t, times, values[_row]))

        expected.append(reference_zero_crossings(values[row], times, ref_f, xtol))
    assert bracket_roots(values, times, f, xtol) == expected
    for key, ts in ref_calls.items():
        assert ts <= calls[key]


# ---------------------------------------------------------------------------
# analyze_mixture
# ---------------------------------------------------------------------------


def test_analyze_returns_consistent_bundle():
    result = analyze_mixture(equal_thirds_mix())
    assert result.report.is_semigroup
    assert result.spectral.grid.times is result.rates.grid.times
    assert result.spectral.eigenvalues.shape == result.rates.gamma.shape


def test_analyze_refines_grid_around_singularities():
    spec = MixtureSpec(2, [(1.0, ChannelSpec(2, 1, ExpRelax(1.0, 1.0)))])
    coarse = default_grid(5.0, 64)
    result = analyze_mixture(spec, coarse)
    assert len(result.spectral.grid) > 64
    assert np.abs(result.spectral.grid.times - LN2).min() < 1e-3


# ---------------------------------------------------------------------------
# classify_many: the batched classifier equals classify, row by row
# ---------------------------------------------------------------------------


@dataclass
class NanTail(DecoherenceFunction):
    """``0.3 (1 - e^{-t})`` up to ``t = 3``, NaN (value and slope) after.

    A plain dataclass, so unhashable: batches key it by identity.
    """

    kind = "nan_tail"

    def value_and_derivative(self, t):
        arr = np.asarray(t, dtype=float)
        decay = np.exp(-arr)
        late = arr > 3.0
        p = np.where(late, np.nan, 0.3 * (1.0 - decay))
        dp = np.where(late, np.nan, 0.3 * decay)
        if arr.ndim == 0:
            return float(p), float(dp)
        return p, dp


_BATCH_GRID = default_grid(5.0, 48)
_SAMPLE_TIMES = np.linspace(0.0, 5.0, 11)
_SHARED = ExpRelax(0.5, 1.0)
_SAMPLED = SampledGrid(_SAMPLE_TIMES, 0.6 * (1.0 - np.exp(-1.3 * _SAMPLE_TIMES)))
# Shared (one object, and equal objects), sampled, NaN on part of the grid,
# and expressions whose zeros make inputs noninvertible and, mixed, make
# the output singular so that its row is refined.
_POOL = (
    _SHARED,
    ExpRelax(0.5, 1.0),
    ExpRelax(0.9, 2.5),
    _SAMPLED,
    NanTail(),
    Expression("0.8*sin(t)^2"),
    Expression("1-exp(-2*t)"),
    Expression("0.5*t"),
)


@st.composite
def mixtures(draw):
    d = draw(st.sampled_from([2, 3]))
    size = draw(st.integers(1, 4))
    weights = draw(st.lists(st.integers(0, 4), min_size=size, max_size=size))
    if not any(weights):
        weights[0] = 1
    total = sum(weights)
    components = [
        (
            w / total,
            ChannelSpec(d, draw(st.integers(1, d + 1)), draw(st.sampled_from(_POOL))),
        )
        for w in weights
    ]
    return MixtureSpec(d, components)


def assert_batch_matches(specs, grid=_BATCH_GRID, tolerances=None):
    single = [repr(classify(s, grid, tolerances)) for s in specs]
    batched = [repr(r) for r in classify_many(specs, grid, tolerances)]
    assert batched == single


@settings(max_examples=150, deadline=None)
@given(st.lists(mixtures(), min_size=1, max_size=12), st.integers(1, 5))
def test_classify_many_equals_classify_on_mixed_batches(specs, rows_per_block):
    # Blocks of a few rows: batches cross block boundaries and dimensions.
    values = rows_per_block * 4 * len(_BATCH_GRID)
    with mock.patch.object(dynamics, "_BLOCK_VALUES", values):
        assert_batch_matches(specs)


def _alone(spec):
    """``spec`` as a batch of one, as ``classify`` encodes it."""
    return dynamics.MixtureBatch.of_specs([spec])


def scalar_eigenvalues(spec, t):
    """``lambda_beta(t)`` of a mixture at one time, from scalar evaluations,
    summed in the batched kernel's order: ``1 - (d/(d-1)) (total - own label)``."""
    d = spec.dimension
    total, per_label = 0.0, [0.0] * (d + 1)
    for c in spec.components:
        w = c.weight * c.channel.p.value_and_derivative(t)[0]
        total += w
        per_label[c.channel.basis - 1] += w
    return [1.0 - d / (d - 1.0) * (total - x) for x in per_label]


def reference_zeros(spec, grid, tol):
    """Singular times and input verdicts by the per-bracket scalar search that
    the one-pass bracketing replaced: every bracket bisected on its own, an
    output at one time per call, an input by ``1 - (d/(d-1)) p(t)``.  Every
    input is judged on the base grid, at the tolerance it would get alone."""
    d = spec.dimension
    times = grid.times
    lam = mixture_eigenvalues(spec, grid).eigenvalues
    singular = tuple(
        sorted(
            (beta + 1, t)
            for beta in range(d + 1)
            for t in reference_zero_crossings(
                lam[beta], times, lambda s, b=beta: scalar_eigenvalues(spec, s)[b],
                tol.singularity,
            )
        )
    )
    factor = d / (d - 1.0)
    inputs = []
    for c in spec.components:
        p = c.channel.p
        row = 1.0 - factor * p.value_and_derivative(times)[0]
        found = reference_zero_crossings(
            row, times, lambda s, p=p: 1.0 - factor * p.value_and_derivative(s)[0],
            tol.singularity,
        )
        mid = times.size // 2
        if found:
            verdict = "noninvertible"
        elif np.all(row > 0.0) and np.abs(
            row - np.exp(-(-np.log(row[mid]) / times[mid]) * times)
        ).max() <= tol.semigroup_at(_alone(MixtureSpec(d, [(1.0, c.channel)])), 0):
            verdict = "semigroup"
        else:
            verdict = "invertible"
        inputs.append((verdict, tuple(found)))
    return singular, inputs


def assert_matches_reference(specs, grid=_BATCH_GRID):
    tol = Tolerances()
    for spec, report in zip(specs, classify_many(specs, grid, tol)):
        singular, inputs = reference_zeros(spec, grid, tol)
        assert report.singular_times == singular
        assert [(v.verdict, v.singular_times) for v in report.inputs] == inputs


@settings(max_examples=100, deadline=None)
@given(st.lists(mixtures(), min_size=1, max_size=8), st.integers(1, 3))
def test_one_pass_matches_the_per_bracket_scalar_search(specs, rows_per_block):
    values = rows_per_block * 4 * len(_BATCH_GRID)
    with mock.patch.object(dynamics, "_BLOCK_VALUES", values):
        assert_matches_reference(specs)


def _spec_batch(monkeypatch):
    # Shared, repeated-label, sampled and NaN-tailed components, encoded.
    q = ChannelSpec(2, 2, Expression("0.8*sin(t)^2"))
    specs = [
        MixtureSpec(2, [(0.6, ChannelSpec(2, 1, Expression("1-exp(-2*t)"))), (0.4, q)]),
        MixtureSpec(2, [(0.5, ChannelSpec(2, 3, _SHARED)), (0.5, ChannelSpec(2, 3, _SHARED))]),
        MixtureSpec(2, [(0.5, ChannelSpec(2, 1, NanTail())), (0.5, ChannelSpec(2, 2, _SHARED))]),
        MixtureSpec(2, [(0.3, ChannelSpec(2, 1, _SAMPLED)), (0.7, ChannelSpec(2, 2, _POOL[2]))]),
        MixtureSpec(2, [(1 / 3, ChannelSpec(2, b, _POOL[b + 4])) for b in (1, 2, 3)]),
    ]
    return dynamics.MixtureBatch.of_specs(specs)


def _drawn_batch(monkeypatch):
    # Twelve qutrit draws of every kind, as the theorem scanners draw them.
    return semigroupforge._draw(np.random.default_rng([1, 0]), 3, 12, 2, 4, 0.05)


def _sweep_batch(monkeypatch):
    # The qutrit semigroup sweep at rate 40, whose outputs reach zero: its one block.
    batches = []
    block = dynamics._block

    def recorded(batch, times, pole_tol):
        batches.append(batch)
        return block(batch, times, pole_tol)

    monkeypatch.setattr(dynamics, "_block", recorded)
    simplex_scan(3, 6, "semigroup", 40.0)
    return batches[0]


@pytest.mark.parametrize("make", [_spec_batch, _drawn_batch, _sweep_batch])
def test_each_row_equals_its_mixtures_spectrum_alone(monkeypatch, make):
    # The zero search's row function, called once on points of every row as
    # a round of the bisection calls it: each output row equals its
    # mixture's _spectrum alone, and each input's row 1 - (d/(d-1)) p of
    # its function alone, bit for bit.
    batch = make(monkeypatch)
    d, size, table = batch.dimension, len(batch), batch.functions.size
    assert size > 1
    calls = []
    monkeypatch.setattr(
        dynamics, "bracket_roots", lambda values, times, f, xtol: calls.append(f) or [[]] * len(values)
    )
    times = default_grid(5.0, 64).times
    dynamics._zeros(dynamics._block(batch, times, 1e-12), times, 1e-10)
    (f,) = calls
    rng = np.random.default_rng(size)
    rows = np.repeat(np.arange(size * (d + 1) + table), 8)
    t = rng.uniform(0.0, 5.0, rows.size)
    got = f(rows, t)
    for m in range(size):
        at = rows // (d + 1) == m
        alone = batch.alone(m)
        lam = dynamics._spectrum(alone, alone.slots, alone.functions.evaluate(t[at]))[0, 0]
        assert got[at].tobytes() == lam[rows[at] % (d + 1), np.arange(at.sum())].tobytes()
    for j in range(table):
        at = rows == size * (d + 1) + j
        p = batch.functions.build(j).value_and_derivative(t[at])[0]
        assert got[at].tobytes() == (1.0 - d / (d - 1.0) * p).tobytes()


def test_classify_many_batch_covers_the_edge_cases():
    # Explicit rows for each edge case, around two rows that refine.
    q = ChannelSpec(2, 2, Expression("0.8*sin(t)^2"))
    singular = MixtureSpec(2, [(0.6, ChannelSpec(2, 1, Expression("1-exp(-2*t)"))), (0.4, q)])
    specs = [
        MixtureSpec(2, [(0.0, ChannelSpec(2, 1, NanTail())), (1.0, ChannelSpec(2, 2, _SHARED))]),
        MixtureSpec(2, [(0.5, ChannelSpec(2, 3, _SHARED)), (0.5, ChannelSpec(2, 3, _SHARED))]),
        singular,
        MixtureSpec(2, [(0.5, ChannelSpec(2, 1, NanTail())), (0.5, ChannelSpec(2, 2, _SHARED))]),
        MixtureSpec(2, [(0.5, ChannelSpec(2, 1, _SAMPLED)), (0.5, ChannelSpec(2, 2, _SHARED))]),
        MixtureSpec(2, [(1 / 3, ChannelSpec(2, b, _SHARED)) for b in (1, 2, 3)]),
        singular,
    ]
    reports = classify_many(specs, _BATCH_GRID)
    assert reports[2].singular_times and repr(reports[6]) == repr(reports[2])
    assert np.isnan(reports[3].min_rate) and not np.isnan(reports[5].min_rate)
    assert reports[4].semigroup_tolerance == 1e-5 and reports[5].semigroup_tolerance == 1e-8
    assert_batch_matches(specs)
    assert_matches_reference(specs)


def test_classify_many_crosses_a_real_block_boundary():
    grid = default_grid(5.0, 32)
    per_block = dynamics._BLOCK_VALUES // (3 * len(grid))
    f = ExpRelax(0.5, 1.0)
    specs = [
        MixtureSpec(2, [(x, ChannelSpec(2, 1, f)), (1.0 - x, ChannelSpec(2, 2, f))])
        for x in np.linspace(0.0, 1.0, per_block + 7)
    ]
    assert_batch_matches(specs, grid)


@pytest.mark.parametrize("tolerances", [Tolerances(semigroup=1e-3, cp=1e-6), Tolerances()])
def test_classify_many_respects_tolerances(tolerances):
    assert_batch_matches(
        [three_semigroup_mix(), equal_thirds_mix(), two_semigroup_mix()], tolerances=tolerances
    )


def test_classify_many_of_nothing_is_empty():
    assert classify_many([]) == []


def test_classify_many_raises_what_classify_raises_first():
    good = three_semigroup_mix()
    bad_weights = MixtureSpec(2, [(0.7, ChannelSpec(2, 1, _SHARED))])
    short = SampledGrid(np.linspace(0.0, 2.0, 5), np.linspace(0.0, 0.4, 5))
    uncovered = MixtureSpec(2, [(1.0, ChannelSpec(2, 1, short))])
    for batch in ([good, bad_weights, uncovered], [good, uncovered, bad_weights]):
        first = batch[1]
        with pytest.raises(Exception) as single:
            classify(first)
        with pytest.raises(type(single.value)) as batched:
            classify_many(batch)
        assert str(batched.value) == str(single.value)
    with pytest.raises(MixtureValidationError, match="weights sum to 0.7"):
        classify_many([good, bad_weights])


def test_a_domain_error_met_only_by_a_bisection_midpoint_names_its_mixture():
    # sqrt is undefined for |t - 1| < 1e-4, where no grid point lies; the
    # output and input zero at t = 1 drives the bisection into the hole.
    grid = default_grid(2.0, 64)
    hole = Expression("0.5*t + 0*sqrt((t-1)^2-1e-8)")
    assert np.abs(grid.times - 1.0).min() > 1e-4
    good = equal_thirds_mix()
    bad = MixtureSpec(2, [(1.0, ChannelSpec(2, 1, hole))])
    message = "sqrt of negative argument at t=1.0"
    with pytest.raises(ArithmeticError) as single:
        classify(bad, grid)
    assert str(single.value) == message
    with pytest.raises(ArithmeticError) as batched:
        classify_many([good, bad], grid)
    assert type(batched.value) is type(single.value) and str(batched.value) == message
    assert repr(classify_many([good], grid)) == repr([classify(good, grid)])
    assert classify(good, grid).is_semigroup


def test_a_domain_error_at_a_point_that_bisection_never_visits_changes_nothing(monkeypatch):
    # The input row 1 - 2p crosses zero at t = 1/0.82, in the left half of
    # its grid cell [a, b]; sqrt is undefined within 1e-6 of the round's
    # tree point 3/4 of the way from a to b, which only the speculative
    # evaluation of the round's midpoint tree visits.
    grid = default_grid(2.0, 64)
    k = int(np.searchsorted(grid.times, 1 / 0.82)) - 1
    a, b = grid.times[k], grid.times[k + 1]
    c = float(0.5 * (0.5 * (a + b) + b))
    hole = Expression(f"0.41*t + 0*sqrt((t-{c!r})^2-1e-12)")
    assert np.abs(grid.times - c).min() > 1e-6
    with pytest.raises(DomainError):
        hole.value(np.array([c]))
    spec = MixtureSpec(2, [(0.5, ChannelSpec(2, 1, hole)), (0.5, ChannelSpec(2, 2, ExpRelax(0.1, 1.0)))])
    raised = []
    plain_round = channelcore._round

    def spy(*args):
        try:
            return plain_round(*args)
        except DomainError as err:
            raised.append(err.t)
            raise

    monkeypatch.setattr(channelcore, "_round", spy)
    report = classify(spec, grid)
    assert raised == [c]
    (zero,) = report.inputs[0].singular_times
    assert report.inputs[0].verdict == "noninvertible" and a < zero < 0.5 * (a + b)
    assert report.singular_times == ()
    monkeypatch.setattr(channelcore, "_bisect", reference_bisect)
    assert repr(classify(spec, grid)) == repr(report)


def test_analyze_mixture_is_the_one_spec_case():
    spec = MixtureSpec(2, [(0.6, ChannelSpec(2, 1, Expression("1-exp(-2*t)"))),
                           (0.4, ChannelSpec(2, 2, Expression("0.8*sin(t)^2")))])
    grid = default_grid(5.0, 128)
    result = analyze_mixture(spec, grid)
    assert repr(result.report) == repr(classify_many([spec], grid)[0])
    assert len(result.spectral.grid) > len(grid)  # refined around the poles
    traj = mixture_eigenvalues(spec, result.spectral.grid)
    np.testing.assert_array_equal(traj.eigenvalues, result.spectral.eigenvalues)
    rates = rates_from_spectrum(traj)
    np.testing.assert_array_equal(rates.gamma, result.rates.gamma)
    # The refined report's fit is the public composition's, bit for bit.
    verdict = detect_semigroup(traj, rates)
    report = result.report
    assert np.array(report.semigroup_exponents).tobytes() == verdict.exponents.tobytes()
    assert report.max_semigroup_deviation.hex() == verdict.max_eigenvalue_deviation.hex()


# ---------------------------------------------------------------------------
# An input's verdict depends only on the input
# ---------------------------------------------------------------------------


@st.composite
def lone_functions(draw):
    """An ``ExpRelax``, a template, an ``Expression`` or a ``SampledGrid``,
    with ``0 <= p <= 0.85`` on ``[0, 5]``."""
    scale = draw(st.floats(0.05, 0.85))
    rate = draw(st.floats(0.2, 3.0))
    kind = draw(st.sampled_from(["exp_relax", "template", "expression", "samples"]))
    if kind == "exp_relax":
        return ExpRelax(scale, rate)
    if kind == "template":
        depth, freq = draw(st.floats(0.0, 1.0)), draw(st.floats(0.5, 3.0))
        return channelcore.ProductTemplate(scale, rate, depth, freq)
    if kind == "expression":
        return Expression(f"{scale!r}*sin({rate!r}*t)^2")
    times = np.linspace(0.0, 5.0, draw(st.integers(4, 12)))
    return SampledGrid(times, scale * (1.0 - np.exp(-rate * times)))


def placements(f, d):
    """``f`` on basis 1: alone; next to a partner whose label-1 eigenvalue
    ``1 - (d/(d-1)) 0.9 (1 - e^{-2t})`` crosses zero, so that the output is
    singular and its row refined; next to one that keeps the output regular
    (``p <= 0.85``); and next to a sampled grid, which makes the mixture's
    own semigroup tolerance 1e-5."""
    own = ChannelSpec(d, 1, f)

    def pair(w, g):
        return MixtureSpec(d, [(1.0 - w, own), (w, ChannelSpec(d, 2, g))])

    return [
        MixtureSpec(d, [(1.0, own)]),
        pair(0.9, ExpRelax(1.0, 2.0)),
        pair(0.5, ExpRelax(0.1, 1.0)),
        pair(0.5, _SAMPLED),
    ]


def lone_verdict(f, d, grid, rows_per_block):
    """The one ``(verdict, singular_times)`` that ``f`` gets in every
    placement, by ``classify`` and by ``classify_many`` in blocks of
    ``rows_per_block`` mixtures."""
    specs = placements(f, d)
    reports = [classify(s, grid) for s in specs]
    assert reports[1].singular_times and not reports[2].singular_times
    values = rows_per_block * (d + 1) * len(grid)
    with mock.patch.object(dynamics, "_BLOCK_VALUES", values):
        reports += classify_many(specs + specs[::-1], grid)
    seen = {(r.inputs[0].verdict, r.inputs[0].singular_times) for r in reports}
    assert len(seen) == 1, seen
    return seen.pop()


@settings(max_examples=60, deadline=None)
@given(lone_functions(), st.sampled_from([2, 3]), st.integers(1, 3))
def test_an_input_verdict_does_not_depend_on_its_mixture(f, d, rows_per_block):
    lone_verdict(f, d, default_grid(5.0, 64), rows_per_block)


def test_an_input_zero_is_bisected_on_the_base_grid_wherever_it_sits():
    # Alone, the output is singular and its row refined; next to the regular
    # partner it is not.  The input's zero is the same in both.
    verdict = lone_verdict(ExpRelax(0.8, 1.0), 2, default_grid(), 2)
    assert verdict == ("noninvertible", (float.fromhex("0x1.f62f40798cc65p-1"),))


def test_an_input_fit_is_judged_at_its_own_tolerance_wherever_it_sits():
    # lambda = 1 - 2.000002 (1 - e^{-t}) misses e^{-t} by about 1e-6: above
    # the closed-form tolerance 1e-8, below the sampled mixture's 1e-5.
    assert lone_verdict(ExpRelax(0.500001, 1.0), 2, default_grid(), 2) == ("invertible", ())


# ---------------------------------------------------------------------------
# semigroup_verdicts: the batched verdict equals the one-mixture composition
# ---------------------------------------------------------------------------


def _verdict_fields(v):
    return (
        v.is_semigroup,
        v.exponents.shape,
        v.exponents.tobytes(),
        v.max_eigenvalue_deviation.hex(),
        v.max_rate_variation.hex(),
        v.tolerance,
    )


def assert_verdicts_match(specs, grid=_BATCH_GRID, tolerances=None):
    tol = tolerances if tolerances is not None else Tolerances()
    single = []
    for s in specs:
        traj = mixture_eigenvalues(s, grid)
        rates = rates_from_spectrum(traj, pole_tol=tol.pole)
        verdict = detect_semigroup(traj, rates, tol.semigroup_at(_alone(s), 0))
        single.append(_verdict_fields(verdict))
    batched = dynamics.semigroup_verdicts(specs, grid, tolerances)
    assert [_verdict_fields(v) for v in batched] == single


@settings(max_examples=150, deadline=None)
@given(st.lists(mixtures(), min_size=1, max_size=12), st.integers(1, 5))
def test_semigroup_verdicts_equal_the_one_mixture_path(specs, rows_per_block):
    values = rows_per_block * 4 * len(_BATCH_GRID)
    with mock.patch.object(dynamics, "_BLOCK_VALUES", values):
        assert_verdicts_match(specs)


@pytest.mark.parametrize(
    "tolerances", [None, Tolerances(semigroup=1e-3, pole=1e-2), Tolerances(semigroup=0.5)]
)
def test_semigroup_verdicts_respect_tolerances(tolerances):
    specs = [three_semigroup_mix(), equal_thirds_mix(), two_semigroup_mix()]
    assert_verdicts_match(specs, default_grid(5.0, 64), tolerances)


def test_semigroup_verdicts_cross_a_real_block_boundary():
    grid = default_grid(5.0, 32)
    per_block = dynamics._BLOCK_VALUES // (3 * len(grid))
    f = ExpRelax(0.5, 1.0)
    specs = [
        MixtureSpec(2, [(x, ChannelSpec(2, 1, f)), (1.0 - x, ChannelSpec(2, 2, f))])
        for x in np.linspace(0.0, 1.0, per_block + 7)
    ]
    assert_verdicts_match(specs, grid)
    assert dynamics.semigroup_verdicts([], grid) == []


@dataclass(frozen=True)
class Constant(DecoherenceFunction):
    """``p(t) = 0.5`` for every ``t``, so the map does not start at the identity."""

    kind = "constant"

    def value_and_derivative(self, t):
        arr = np.asarray(t, dtype=float)
        if arr.ndim == 0:
            return 0.5, 0.0
        return np.full(arr.shape, 0.5), np.zeros(arr.shape)


def test_semigroup_verdicts_raise_what_the_one_mixture_path_raises_first():
    good = three_semigroup_mix()
    shifted = MixtureSpec(2, [(1.0, ChannelSpec(2, 1, Constant()))])
    short = SampledGrid(np.linspace(0.0, 2.0, 5), np.linspace(0.0, 0.4, 5))
    uncovered = MixtureSpec(2, [(0.5, ChannelSpec(2, 2, _SHARED)), (0.5, ChannelSpec(2, 1, short))])
    for batch in ([good, shifted, uncovered], [good, uncovered, shifted]):
        with pytest.raises(Exception) as single:
            mixture_eigenvalues(batch[1], _BATCH_GRID)
        with pytest.raises(type(single.value)) as batched:
            dynamics.semigroup_verdicts(batch, _BATCH_GRID)
        assert str(batched.value) == str(single.value)


def test_semigroup_verdicts_compare_by_identity():
    # A verdict holds an ndarray, so == must not compare fields element-wise.
    first, second = dynamics.semigroup_verdicts([equal_thirds_mix()] * 2, _BATCH_GRID)
    assert first == first
    assert first != second
    assert _verdict_fields(first) == _verdict_fields(second)


def test_a_basis_label_beyond_the_mixture_dimension_raises():
    # A qutrit channel on label 4 in a qubit mixture (labels 1..3).
    beyond = MixtureSpec(2, [(1.0, ChannelSpec(3, 4, _SHARED))])
    good = three_semigroup_mix()
    message = "basis label 4 lies outside 1..3 for dimension 2"
    with pytest.raises(ValueError, match=message):
        mixture_eigenvalues(beyond, _BATCH_GRID)
    for batch in ([beyond, good], [good, beyond]):
        with pytest.raises(ValueError, match=message):
            dynamics.semigroup_verdicts(batch, _BATCH_GRID)
    # Columns that no constructor checked: label 0 or d+2, in a block of
    # two and in a batch of one.  Label 0 would address the row before a
    # mixture's own, or in a batch of one no row at all.
    table, _ = channelcore._Functions.of([_SHARED])
    for label in (0, 4):
        outside = f"basis label {label} lies outside 1..3 for dimension 2"
        for basis in ([label], [1, label]):
            starts, weight = np.arange(len(basis) + 1), [1.0] * len(basis)
            batch = dynamics.MixtureBatch(2, starts, basis, weight, [0] * len(basis), table)
            with pytest.raises(ValueError, match=outside):
                batch.slots


def test_a_mixture_that_fails_alone_raises_ahead_of_its_blocks_error():
    # The label beyond d+1 fails the block as a whole; run one at a time, the
    # first mixture fails first, on its own uncovered sampled grid.
    grid = default_grid(5.0, 64)
    short = SampledGrid(np.linspace(0.0, 2.0, 5), np.linspace(0.0, 0.4, 5))
    uncovered = MixtureSpec(2, [(1.0, ChannelSpec(2, 1, short))])
    beyond = MixtureSpec(2, [(1.0, ChannelSpec(3, 4, _SHARED))])
    message = "time outside sampled range at t=2.0634920634920633"
    with pytest.raises(DomainError) as single:
        mixture_eigenvalues(uncovered, grid)
    assert str(single.value) == message
    with pytest.raises(DomainError) as batched:
        dynamics.semigroup_verdicts([uncovered, beyond], grid)
    assert str(batched.value) == message


def test_a_failing_block_raises_its_first_failing_mixtures_own_error(monkeypatch):
    # Two mixtures share an expression undefined near its input's zero at
    # 1/0.82; the first mixture's other input is undefined near its zero at
    # t = 1, which its own bisection meets first.  Run one at a time after
    # the block fails, the first mixture of the batch raises its own error.
    grid = default_grid(2.0, 64)
    shared = Expression(f"0.41*t + 0*sqrt((t-{1 / 0.82!r})^2-1e-12)")
    other = Expression("0.5*t + 0*sqrt((t-1)^2-1e-8)")
    first = MixtureSpec(2, [(0.5, ChannelSpec(2, 1, shared)), (0.5, ChannelSpec(2, 2, other))])
    second = MixtureSpec(2, [(0.5, ChannelSpec(2, 1, shared)), (0.5, ChannelSpec(2, 3, _SHARED))])
    sizes = _record_blocks(monkeypatch)
    raised = []
    for batch in ([first, second], [second, first]):
        with pytest.raises(DomainError) as single:
            classify(batch[0], grid)
        sizes.clear()
        with pytest.raises(DomainError) as batched:
            classify_many(batch, grid)
        assert str(batched.value) == str(single.value)
        assert sizes == [2, 1]
        raised.append(batched.value.t)
    assert raised[0] == 1.0 and abs(raised[1] - 1 / 0.82) < 1e-6


def test_two_inputs_failing_in_one_round_raise_in_row_order():
    # Input 1's own row and the output row lambda_3 reach their zeros at the
    # same place in their grid cells, so one plain halving meets both
    # holes: input 1's at its input row's zero, input 2's at the output's.
    # Output rows come first, so input 2's error is raised.
    grid = default_grid(2.0, 64)
    h = float(grid.times[1])
    t_in, t_out = 22.05 * h, 40.05 * h
    a = 1 / (2 * t_in)
    first = Expression(f"{a!r}*t + 0*sqrt((t-{t_in!r})^2-1e-8)")
    second = Expression(f"{1 / t_out - a!r}*t + 0*sqrt((t-{t_out!r})^2-1e-8)")
    spec = MixtureSpec(2, [(0.5, ChannelSpec(2, 1, first)), (0.5, ChannelSpec(2, 2, second))])
    with pytest.raises(DomainError) as err:
        classify(spec, grid)
    assert abs(err.value.t - t_out) < 1e-3


def _record_blocks(monkeypatch, fail_batches=False):
    """Replace ``dynamics._block`` by one that records each block's size and,
    if ``fail_batches``, raises on every block of more than one mixture."""
    sizes = []
    block = dynamics._block

    def recorded(specs, times, pole_tol):
        sizes.append(len(specs))
        if fail_batches and len(specs) > 1:
            raise RuntimeError("batched kernel failed")
        return block(specs, times, pole_tol)

    monkeypatch.setattr(dynamics, "_block", recorded)
    return sizes


@pytest.mark.parametrize("batched", [classify_many, dynamics.semigroup_verdicts])
def test_a_clean_batch_runs_each_block_once(monkeypatch, batched):
    # Four mixtures per block, none with output zeros (so no refined rows).
    monkeypatch.setattr(dynamics, "_BLOCK_VALUES", 4 * 3 * len(_BATCH_GRID))
    specs = [three_semigroup_mix(), equal_thirds_mix(), two_semigroup_mix()] * 3
    sizes = _record_blocks(monkeypatch)
    assert len(batched(specs, _BATCH_GRID)) == 9
    assert sizes == [4, 4, 1]


def _drawn_block():
    # Three drawn qubit mixtures, one batch of columns, as the scanners draw them.
    batch = semigroupforge._draw(np.random.default_rng([0, 0]), 2, 3, 2, 3, 0.05)
    dynamics._semigroup_verdicts([batch], _BATCH_GRID, None)


def _sweep_block():
    # The six points of the qubit simplex lattice in two divisions: one block.
    simplex_scan(2, 2, "semigroup", 1.0, _BATCH_GRID)


@pytest.mark.parametrize(
    "run, size",
    [
        pytest.param(
            lambda: classify_many([three_semigroup_mix(), equal_thirds_mix()], _BATCH_GRID),
            2,
            id="classify_many",
        ),
        pytest.param(
            lambda: dynamics.semigroup_verdicts(
                [three_semigroup_mix(), equal_thirds_mix()], _BATCH_GRID
            ),
            2,
            id="semigroup_verdicts",
        ),
        pytest.param(_drawn_block, 3, id="drawn-batch"),
        pytest.param(_sweep_block, 6, id="sweep-block"),
    ],
)
def test_a_block_error_that_no_mixture_repeats_alone_is_raised(monkeypatch, run, size):
    # A batch of columns runs each mixture again as the batch built from its
    # objects (``MixtureBatch.alone``).
    sizes = _record_blocks(monkeypatch, fail_batches=True)
    with pytest.raises(RuntimeError, match="batched kernel failed"):
        run()
    assert sizes == [size] + [1] * size  # the block, then each mixture alone


@pytest.mark.parametrize("batched", [classify_many, dynamics.semigroup_verdicts])
def test_a_batch_reads_its_input_a_block_at_a_time(monkeypatch, batched):
    # Blocks of four qubit or three qutrit mixtures, none with output zeros;
    # the qutrit run ends a qubit block early.
    monkeypatch.setattr(dynamics, "_BLOCK_VALUES", 4 * 3 * len(_BATCH_GRID))
    qutrit = build_all_channels_mix(AllChannelsRequest(3, 1.0, (0.25,) * 4))
    specs = [three_semigroup_mix(), equal_thirds_mix()] * 3 + [qutrit] * 3
    specs += [two_semigroup_mix()] * 5
    drawn = []

    def stream():
        for spec in specs:
            drawn.append(spec)
            yield spec

    sizes, ahead = [], []
    block = dynamics._block

    def recorded(block_specs, times, pole_tol):
        # How far the input has been read past the end of this block.
        ahead.append(len(drawn) - sum(sizes) - len(block_specs))
        sizes.append(len(block_specs))
        return block(block_specs, times, pole_tol)

    monkeypatch.setattr(dynamics, "_block", recorded)
    results = batched(stream(), _BATCH_GRID)
    assert len(results) == len(specs)
    assert sizes == [4, 2, 3, 4, 1]
    assert max(ahead) <= 1


# ---------------------------------------------------------------------------
# Function tables: evaluated a family at a time, equal to each function alone
# ---------------------------------------------------------------------------

_FINITE = st.floats(min_value=0.0, max_value=10.0)
# Zero and negative-zero scales make signed zeros.  A float32 scale rounds
# scale*rate to float32 on its own, so it must not join the float family.
_EXP_RELAX = st.builds(
    ExpRelax,
    st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=-2.0, max_value=2.0, width=32).map(np.float32),
    ),
    st.floats(min_value=1e-3, max_value=10.0),
)
_UNSAMPLED = (
    _EXP_RELAX,
    st.builds(channelcore.ProductTemplate, _FINITE, _FINITE, _FINITE, _FINITE),
    st.builds(channelcore.DifferenceTemplate, _FINITE, _FINITE, _FINITE, _FINITE),
    st.sampled_from(
        [Expression("0.8*sin(t)^2"), Expression("1-exp(-2*t)"), Expression("0.5*t/(1+t)")]
    ),
)


def _grids(draw, times, count):
    values = st.lists(
        st.floats(min_value=-1.0, max_value=1.0), min_size=times.size - 1, max_size=times.size - 1
    )
    return [SampledGrid(times, [0.0] + draw(values)) for _ in range(count)]


@st.composite
def function_tables(draw):
    """Functions of all five classes, each at least once, and the times to
    evaluate them at.

    Sampled grids sit on two sample-time arrays; the grids of the first
    were evaluated alone by an earlier call, and the table leaves some of
    them out.
    """
    early = np.linspace(0.0, draw(st.floats(min_value=1.0, max_value=4.0)), draw(st.integers(3, 9)))
    late = np.linspace(0.0, 5.0, draw(st.integers(3, 9)))
    built = _grids(draw, early, draw(st.integers(1, 4)))
    for g in built:
        g.value(early)
    kept = draw(st.lists(st.sampled_from(built), min_size=1, max_size=len(built), unique_by=id))
    functions = [draw(kind) for kind in _UNSAMPLED] + draw(st.lists(st.one_of(_UNSAMPLED), max_size=6))
    functions = draw(st.permutations(functions + kept + _grids(draw, late, draw(st.integers(1, 3)))))
    end = float(early[-1])
    size = draw(st.sampled_from([1, 2, 128]))
    times = np.linspace(0.0, end, size) if size > 1 else np.array([draw(st.sampled_from([0.0, end]))])
    return functions, times


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _first_uses(functions, rows):
    """``(row, function)`` of each row of a table of ``functions`` (each on
    its row ``rows[k]``), the function that first uses it.  Rows follow
    first use, and every function equals the one that first uses its row,
    a sampled grid by identity."""
    first = {}
    for f, i in zip(functions, rows):
        assert first.setdefault(i, f) == f
    assert list(first) == list(range(len(first)))
    return first.items()


# Slopes near the smallest doubles overflow inside PCHIP's harmonic mean, in
# the stacked build and the grid's own evaluation alike.
@pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(function_tables())
def test_a_table_equals_its_functions_evaluated_alone(table):
    functions, times = table
    funcs, rows = channelcore._Functions.of(functions)
    both = funcs.evaluate(times)
    assert both.shape == (2, funcs.size, times.size)
    for i, f in _first_uses(functions, rows):
        p, dp = f.value_and_derivative(times)
        assert both[0, i].tobytes() == _bits(p) == _bits(f.value(times))
        assert both[1, i].tobytes() == _bits(dp)


def test_a_failing_table_raises_the_error_of_its_first_failing_function():
    # On [0, 2] the expression fails past t = 1 and the short grid past its
    # last sample, both first at t = 1.25.
    times = np.linspace(0.0, 2.0, 9)
    hole = Expression("0*sqrt(1-t)")
    short = np.linspace(0.0, 1.0, 5)
    uncovered = SampledGrid(short, 0.3 * short)
    stacked = SampledGrid(short, 0.2 * short)
    covered = SampledGrid(np.linspace(0.0, 2.0, 5), 0.1 * times[::2])
    others = [ExpRelax(0.5, 1.0), channelcore.ProductTemplate(0.5, 1.0, 0.2, 0.3), covered]
    messages = {
        hole: "sqrt of negative argument at t=1.25",
        uncovered: "time outside sampled range at t=1.25",
    }
    for first, second in ((hole, uncovered), (uncovered, hole)):
        funcs, _ = channelcore._Functions.of(
            [others[0], first, others[1], stacked, second, others[2]]
        )
        with pytest.raises(DomainError) as err:
            funcs.evaluate(times)
        assert str(err.value) == messages[first]
        assert err.value.t == 1.25
    # A closed-form family can raise only under the caller's np.errstate; its
    # first member does not fail alone, and the expression after it does.
    funcs, _ = channelcore._Functions.of([ExpRelax(0.5, 1.0), hole, ExpRelax(0.5, 1e4)])
    with np.errstate(under="raise"), pytest.raises(DomainError) as err:
        funcs.evaluate(times)
    assert str(err.value) == messages[hole]


# Slopes near the smallest doubles overflow inside PCHIP's harmonic mean, in
# the stacked build and the grid's own evaluation alike.
@pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(function_tables(), st.integers(0, 2**32 - 1))
def test_a_table_at_points_equals_its_functions_at_theirs(table, seed):
    # Each point by its own function, as the zero search evaluates inputs.
    functions, times = table
    funcs, uses = channelcore._Functions.of(functions)
    rows = np.random.default_rng(seed).integers(0, funcs.size, size=times.size)
    both = funcs.at(rows, times)
    assert both.shape == (2, times.size)
    for i, f in _first_uses(functions, uses):
        p, dp = f.value_and_derivative(times[rows == i])
        assert both[0, rows == i].tobytes() == _bits(p)
        assert both[1, rows == i].tobytes() == _bits(dp)
