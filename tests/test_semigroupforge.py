"""Semigroup-from-noninvertible constructions, forecasts, and scanners."""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from paulimix import (
    AllChannelsRequest,
    ChannelSpec,
    ConstructionError,
    DecoherenceFunction,
    DifferenceTemplate,
    ExpRelax,
    Expression,
    MixtureSpec,
    ProductTemplate,
    SameChannelRequest,
    SampledGrid,
    ScanReport,
    Tolerances,
    WeightBoundError,
    build_all_channels_mix,
    build_same_channel_mix,
    classify,
    cptp_scan,
    default_grid,
    detect_semigroup,
    forecast_invertibility,
    mixture_eigenvalues,
    random_decoherence_function,
    rates_from_spectrum,
    semigroup_verdicts,
    simplex_lattice,
    simplex_scan,
    theorem1_scan,
    theorem2_scan,
    weight_lower_bound,
)
from paulimix import dynamics, semigroupforge
from paulimix.dynamics import ClassificationReport, InputVerdict, SemigroupVerdict
from paulimix.channelcore import structural_issues
from paulimix.mubgen import DIMENSION_RANGE, is_prime

LN2 = math.log(2.0)
LN3 = math.log(3.0)


# ---------------------------------------------------------------------------
# Request validation
# ---------------------------------------------------------------------------


def test_weight_lower_bound_values():
    assert weight_lower_bound(2) == pytest.approx(0.25, abs=0)
    assert weight_lower_bound(3) == pytest.approx(2 / 9, abs=0)
    assert weight_lower_bound(5) == pytest.approx(4 / 25, abs=0)


@pytest.mark.parametrize("a", [0.0, 1.0, 1.2, -0.1])
def test_same_channel_request_rejects_bad_mixing_parameter(a):
    with pytest.raises(ValueError):
        SameChannelRequest(2, 1.0, a, ExpRelax(0.3, 1.0))


def test_same_channel_request_rejects_bad_rate_basis_dimension():
    q = ExpRelax(0.3, 1.0)
    with pytest.raises(ValueError):
        SameChannelRequest(2, 0.0, 0.5, q)
    with pytest.raises(ValueError):
        SameChannelRequest(2, 1.0, 0.5, q, basis=0)
    with pytest.raises(ValueError):
        SameChannelRequest(3, 1.0, 0.5, q, basis=5)
    with pytest.raises(ValueError):
        SameChannelRequest(4, 1.0, 0.5, q)


def test_all_channels_request_validation():
    with pytest.raises(ValueError):
        AllChannelsRequest(2, 1.0, (0.5, 0.5))  # needs d+1 weights
    with pytest.raises(ValueError):
        AllChannelsRequest(2, 1.0, (0.7, 0.5, -0.2))
    with pytest.raises(ValueError):
        AllChannelsRequest(2, 1.0, (0.5, 0.3, 0.3))  # sum 1.1
    with pytest.raises(ValueError):
        AllChannelsRequest(2, -1.0, (1 / 3, 1 / 3, 1 / 3))


# ---------------------------------------------------------------------------
# All-channels construction
# ---------------------------------------------------------------------------


def test_equal_thirds_construction_shape():
    mix = build_all_channels_mix(AllChannelsRequest(2, 2.0, (1 / 3, 1 / 3, 1 / 3)))
    assert mix.dimension == 2 and len(mix.components) == 3
    for basis, comp in enumerate(mix.components, start=1):
        assert comp.weight == pytest.approx(1 / 3, abs=0)
        assert comp.channel.basis == basis
        assert isinstance(comp.channel.p, ExpRelax)
        assert comp.channel.p.scale == pytest.approx(0.75, abs=1e-15)
        assert comp.channel.p.rate == pytest.approx(2.0, abs=0)


def test_equal_quarters_construction_scale():
    mix = build_all_channels_mix(AllChannelsRequest(3, 1.0, (0.25,) * 4))
    for comp in mix.components:
        assert comp.channel.p.scale == pytest.approx(8 / 9, abs=1e-15)


def test_weight_below_bound_is_rejected_with_details():
    with pytest.raises(WeightBoundError) as exc:
        build_all_channels_mix(AllChannelsRequest(3, 1.0, (0.1, 0.3, 0.3, 0.3)))
    err = exc.value
    assert err.index == 1
    assert err.weight == pytest.approx(0.1, abs=0)
    assert err.bound == pytest.approx(2 / 9, abs=0)
    assert "0.2222" in str(err)


def test_boundary_weight_is_accepted():
    # Exactly (d-1)/d^2 drives p to 1 asymptotically but never beyond.
    mix = build_all_channels_mix(AllChannelsRequest(2, 1.0, (0.25, 0.25, 0.5)))
    assert mix.components[0].channel.p.scale == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# Invertibility forecasts
# ---------------------------------------------------------------------------


def test_forecast_equal_thirds_all_noninvertible_at_ln3():
    fc = forecast_invertibility(AllChannelsRequest(2, 1.0, (1 / 3, 1 / 3, 1 / 3)))
    assert fc.noninvertible_count == 3
    for ch in fc.channels:
        assert ch.verdict == "noninvertible"
        assert ch.singular_time == pytest.approx(LN3, abs=1e-15)
    assert fc.channels[0].singular_time == pytest.approx(1.0986122886681098, abs=1e-15)


def test_forecast_semigroup_weight_is_detected():
    fc = forecast_invertibility(AllChannelsRequest(2, 1.0, (0.5, 0.25, 0.25)))
    assert [c.verdict for c in fc.channels] == [
        "semigroup",
        "noninvertible",
        "noninvertible",
    ]
    assert fc.channels[0].singular_time is None
    assert fc.channels[1].singular_time == pytest.approx(LN2, abs=1e-15)
    fc3 = forecast_invertibility(AllChannelsRequest(3, 1.0, (1 / 3, 2 / 9, 2 / 9, 2 / 9)))
    assert fc3.channels[0].verdict == "semigroup"
    for ch in fc3.channels[1:]:
        assert ch.verdict == "noninvertible"
        assert ch.singular_time == pytest.approx(LN3, abs=1e-14)


def test_forecast_rate_rescales_singular_times():
    fc = forecast_invertibility(AllChannelsRequest(2, 4.0, (1 / 3, 1 / 3, 1 / 3)))
    assert fc.channels[0].singular_time == pytest.approx(LN3 / 4.0, abs=1e-15)


def assert_forecast_agrees_with_classification(req):
    fc = forecast_invertibility(req)
    horizon = max(
        [5.0] + [1.3 * c.singular_time for c in fc.channels if c.singular_time is not None]
    )
    report = classify(build_all_channels_mix(req), default_grid(horizon, 256))
    assert report.is_semigroup  # the construction's whole point
    for ch, iv in zip(fc.channels, report.inputs):
        assert ch.verdict == iv.verdict
        if ch.verdict == "noninvertible":
            assert iv.singular_times[0] == pytest.approx(ch.singular_time, abs=1e-9)
    assert fc.noninvertible_count >= req.dimension  # the structural floor
    return fc


@pytest.mark.parametrize("d", [2, 3])
def test_forecast_agrees_with_numerical_classification(d):
    # Random weights above the lower bound, all below 1/d: every input is
    # noninvertible.
    rng = np.random.default_rng(100 + d)
    for _ in range(5):
        x = weight_lower_bound(d) + rng.dirichlet(np.ones(d + 1)) / d**2
        assert_forecast_agrees_with_classification(
            AllChannelsRequest(d, 1.0, tuple(float(v) for v in x))
        )


@pytest.mark.parametrize("d", [2, 3, 5, 7, 31])
def test_forecast_agrees_with_classification_at_the_attained_corner(d):
    # At (1/d, (d-1)/d^2, ...) input 1 is a semigroup.  No construction has
    # an invertible input: that needs x_i > 1/d, while the other d weights,
    # each at least (d-1)/d^2, sum to at least (d-1)/d, so all the weights
    # would sum to more than 1.
    fc = assert_forecast_agrees_with_classification(
        AllChannelsRequest(d, 1.0, (1 / d,) + ((d - 1) / d**2,) * d)
    )
    assert [c.verdict for c in fc.channels] == ["semigroup"] + ["noninvertible"] * d


# ---------------------------------------------------------------------------
# Same-channel construction
# ---------------------------------------------------------------------------


def test_same_channel_quarter_mix_is_semigroup():
    req = SameChannelRequest(3, 1.0, 0.25, Expression("(1-exp(-2*t))/3"))
    mix = build_same_channel_mix(req)
    first, second = mix.components
    assert first.weight == pytest.approx(0.75, abs=1e-15)
    assert second.weight == pytest.approx(0.25, abs=1e-15)
    assert first.channel.basis == second.channel.basis == 1
    assert second.channel.p is req.q
    report = classify(mix)
    assert report.is_semigroup
    exps = report.semigroup_exponents
    assert exps[0] == pytest.approx(0.0, abs=1e-10)  # own label never decays
    for r in exps[1:]:
        assert r == pytest.approx(1.0, abs=1e-8)


def test_same_channel_symmetric_split_reproduces_q():
    req = SameChannelRequest(2, 1.0, 0.5, ExpRelax(0.5, 1.0))
    mix = build_same_channel_mix(req)
    t = np.linspace(0.0, 5.0, 200)
    p_vals = mix.components[0].channel.p.value(t)
    np.testing.assert_allclose(p_vals, 0.5 * (1 - np.exp(-t)), atol=1e-12)


def test_same_channel_offsetting_exp_relax_pair():
    # a = 0.8 with q = 0.375(1-e^{-t}) makes the partner exactly 1-e^{-t}.
    req = SameChannelRequest(2, 1.0, 0.8, ExpRelax(0.375, 1.0))
    mix = build_same_channel_mix(req)
    t = np.linspace(0.0, 5.0, 200)
    np.testing.assert_allclose(
        mix.components[0].channel.p.value(t), 1 - np.exp(-t), atol=1e-12
    )
    report = classify(mix)
    assert report.is_semigroup


def test_same_channel_sampled_route():
    # 1025 nodes keep the interpolant's derivative noise (worst at the ends,
    # where the estimate is one-sided) under the 1e-5 sampled-route tolerance.
    times = np.linspace(0.0, 5.0, 1025)
    q = SampledGrid(times, 0.5 * (1 - np.exp(-times)))
    mix = build_same_channel_mix(SameChannelRequest(2, 1.0, 0.5, q))
    assert mix.has_sampled_functions()
    assert isinstance(mix.components[0].channel.p, SampledGrid)
    report = classify(mix)
    assert report.semigroup_tolerance == 1e-5
    assert report.is_semigroup


def test_same_channel_rejects_partner_that_turns_negative():
    req = SameChannelRequest(2, 1.0, 0.5, Expression("0.8*sin(t)^2"))
    with pytest.raises(ConstructionError) as exc:
        build_same_channel_mix(req)
    err = exc.value
    assert "crosses 0" in str(err)
    root = brentq(lambda t: (1 - math.exp(-t)) - 0.8 * math.sin(t) ** 2, 1.0, 1.5)
    assert err.first_violation == pytest.approx(root, abs=1e-6)


def test_same_channel_rejects_partner_that_exceeds_one():
    # a = 0.8, q = 0.3(1-e^{-t}): partner is 1.3(1-e^{-t}), crossing 1.
    req = SameChannelRequest(2, 1.0, 0.8, ExpRelax(0.3, 1.0))
    with pytest.raises(ConstructionError) as exc:
        build_same_channel_mix(req)
    err = exc.value
    assert "crosses 1" in str(err)
    assert err.first_violation == pytest.approx(math.log(13 / 3), abs=1e-6)


def test_same_channel_sampled_route_rejects_immediate_violation():
    times = np.linspace(0.0, 5.0, 257)
    q = SampledGrid(times, 0.9 * (1 - np.exp(-2 * times)))
    with pytest.raises(ConstructionError) as exc:
        build_same_channel_mix(SameChannelRequest(2, 1.0, 0.5, q))
    assert exc.value.first_violation == pytest.approx(0.0, abs=1e-2)


def test_same_channel_template_q_matches_its_parsed_formula():
    q = ProductTemplate(0.3, 1.5, 0.25, 1.1)
    grid = default_grid(5.0, 1024)
    p_template = build_same_channel_mix(SameChannelRequest(3, 1.0, 0.4, q), grid)
    parsed = Expression(q.as_expression())
    p_parsed = build_same_channel_mix(SameChannelRequest(3, 1.0, 0.4, parsed), grid)
    first, second = (m.components[0].channel.p for m in (p_template, p_parsed))
    assert first.as_expression() == second.as_expression()
    assert first.value(grid.times).tobytes() == second.value(grid.times).tobytes()
    assert p_template.components[1].channel.p is q


def test_same_channel_rejects_q_without_closed_form():
    class Opaque(DecoherenceFunction):
        def value_and_derivative(self, t):
            return 0.1 * np.asarray(t), 0.1 + 0 * np.asarray(t)

    with pytest.raises(TypeError):
        build_same_channel_mix(SameChannelRequest(2, 1.0, 0.5, Opaque()))


# ---------------------------------------------------------------------------
# Random decoherence functions
# ---------------------------------------------------------------------------


def _scalar_draw(rng, d, n, low, high, floor):
    """The scanners' draw of ``n`` mixtures, reference version: the same
    generator calls in the same order, then each component mapped alone
    with Python floats and built as objects, the templates as the parsed
    ``Expression`` of their formula."""
    sizes = rng.integers(low, high, n).tolist()
    orders = np.argsort(rng.random((n, d + 1)), axis=1)
    exps = rng.standard_exponential((n, d + 1))
    kinds = iter(rng.integers(4, size=sum(sizes)).tolist())
    us = iter(rng.random((sum(sizes), 4)).tolist())
    specs = []
    for b, size in enumerate(sizes):
        least = floor if floor * size <= 1.0 else 0.5 / size  # more than 20 labels
        share = np.where(np.arange(d + 1) < size, exps[b], 0.0)
        share = (share / share.sum()).tolist()
        components = []
        for j in range(size):
            kind, u = next(kinds), next(us)
            scale, rate = 0.2 + (1.0 - 0.2) * u[0], 0.2 + (2.0 - 0.2) * u[1]
            if kind == 0:
                f = ExpRelax(scale, rate)
            elif kind == 1:
                depth, freq = 0.1 + (0.5 - 0.1) * u[2], 0.3 + (2.0 - 0.3) * u[3]
                f = Expression(
                    f"{scale!r}*(1-exp(-{rate!r}*t))*(1-{depth!r}*sin({freq!r}*t)^2)"
                )
            elif kind == 2:
                m, r2 = scale * (0.0 + 0.8 * u[2]), rate * (0.2 + (1.0 - 0.2) * u[3])
                f = Expression(f"{scale!r}*(1-exp(-{rate!r}*t)) - {m!r}*(1-exp(-{r2!r}*t))")
            else:
                times = np.linspace(0.0, 5.0, 257)
                f = SampledGrid(times, scale * (1.0 - np.exp(-rate * times)))
            weight = least + (1.0 - least * size) * share[j]
            components.append((weight, ChannelSpec(d, int(orders[b, j]) + 1, f)))
        specs.append(MixtureSpec(d, components))
    return specs


def test_random_draws_replay_the_parsed_family():
    # random_decoherence_function is the draw of a one-component qubit
    # mixture, built as an object: each template evaluates as the parsed
    # formula of the reference draw, bit for bit, and reports it.
    new_rng, old_rng = np.random.default_rng(2024), np.random.default_rng(2024)
    times = default_grid(5.0, 128).times
    kinds = []
    for _ in range(500):
        new = random_decoherence_function(new_rng)
        (old,) = _scalar_draw(old_rng, 2, 1, 1, 2, 0.0)[0].functions
        assert new_rng.bit_generator.state == old_rng.bit_generator.state
        assert new.kind == old.kind
        assert new.describe() == old.describe()
        new_p, new_dp = new.value_and_derivative(times)
        old_p, old_dp = old.value_and_derivative(times)
        assert new_p.tobytes() == old_p.tobytes()
        assert new_dp.tobytes() == old_dp.tobytes()
        kinds.append(type(new).__name__)
    assert set(kinds) == {
        "ExpRelax", "ProductTemplate", "DifferenceTemplate", "SampledGrid"
    }


@pytest.mark.parametrize(
    "d, low, high, floor",
    [(2, 2, 3, 0.05), (5, 2, 6, 0.05), (5, 1, 7, 0.0), (31, 2, 32, 0.05)],
    ids=["theorem-d2", "theorem-d5", "cptp-d5", "theorem-d31"],
)
def test_random_mixtures_replay_the_scalar_draw(d, low, high, floor):
    # The scanners' settings: (2, d+1, 0.05) for theorem blocks, with the
    # floor 0.5/size above 20 labels, and (1, d+2, 0.0) for cptp trials.
    # Every mixture of a drawn batch equals the reference draw's object,
    # and both leave the generator in the same state.
    kinds = set()
    for seed in range(10):
        for n in (1, 9):
            new_rng = np.random.default_rng([seed, n])
            old_rng = np.random.default_rng([seed, n])
            batch = semigroupforge._draw(new_rng, d, n, low, high, floor)
            specs = _scalar_draw(old_rng, d, n, low, high, floor)
            assert new_rng.bit_generator.state == old_rng.bit_generator.state
            assert len(batch) == n
            for b, old in enumerate(specs):
                new = batch.spec(b)
                assert [c.channel.basis for c in new.components] == [
                    c.channel.basis for c in old.components
                ]
                assert [c.weight.hex() for c in new.components] == [
                    c.weight.hex() for c in old.components
                ]
                assert [c.channel.p.describe() for c in new.components] == [
                    c.channel.p.describe() for c in old.components
                ]
                kinds.update(type(c.channel.p).__name__ for c in new.components)
    assert kinds == {"ExpRelax", "ProductTemplate", "DifferenceTemplate", "SampledGrid"}


def _row(batch, b):
    """Mixture ``b`` of ``batch``, bit for bit: its bases, weights and, per
    component, its function's class, parameters and sample times."""
    a, z = batch.starts[b], batch.starts[b + 1]
    entries = {}
    for rows, family in batch.functions.families:
        times = family.times.tobytes() if family.kind is SampledGrid else b""
        for k, i in enumerate(rows.tolist()):
            entries[i] = (family.kind, family.params[k].tobytes(), times)
    functions = [entries[i] for i in batch.function[a:z].tolist()]
    starts = (batch.starts[b : b + 2] - a).tolist()
    return starts, batch.basis[a:z].tolist(), batch.weight[a:z].tobytes(), functions


_DRAWS = {"theorem": (2, None, 0.05), "cptp": (1, 1, 0.0)}  # low, high - (d+1), floor


@pytest.mark.parametrize("d", [2, 3, 5, 7, 31])
@pytest.mark.parametrize("draws", sorted(_DRAWS))
def test_a_drawn_batch_row_equals_the_encoded_mixture_of_its_draw(d, draws):
    # The scanners draw straight into batch rows; each row's mixture, built
    # as an object and encoded, must give every column bit for bit.  A
    # block cut to its first 17 mixtures, with the equal-weights mixture
    # after them, holds the same rows, then that mixture's.
    low, extra, floor = _DRAWS[draws]
    high = d + 1 + (extra or 0)
    times = default_grid(5.0, 64).times
    semi = ExpRelax((d - 1) / d, 1.0)
    equal = MixtureSpec(d, [(1.0 / (d + 1), ChannelSpec(d, b, semi)) for b in range(1, d + 2)])
    kinds = set()
    for seed in range(4):
        batch = semigroupforge._draw(np.random.default_rng(seed), d, 40, low, high, floor)
        cut = semigroupforge._draw(np.random.default_rng(seed), d, 40, low, high, floor, 17, True)
        assert len(batch) == 40 and len(cut) == 18
        values = batch.functions.evaluate(times)
        for k in range(40):
            encoded = dynamics.MixtureBatch.of_specs([batch.spec(k)])
            assert _row(batch, k) == _row(encoded, 0)
            drawn = values[:, batch.function[batch.starts[k] : batch.starts[k + 1]]]
            built = encoded.functions.evaluate(times)[:, encoded.function]
            assert drawn.tobytes() == built.tobytes()
            kinds.update(kind for kind, _, _ in _row(batch, k)[3])
            if k < 17:
                assert _row(cut, k) == _row(batch, k)
        assert _row(cut, 17) == _row(dynamics.MixtureBatch.of_specs([equal]), 0)
    assert kinds == {ExpRelax, ProductTemplate, DifferenceTemplate, SampledGrid}


@pytest.mark.parametrize("d, seed", [(2, 3), (5, 1)])
def test_a_counterexample_redraws_its_trials_batch_row(monkeypatch, d, seed):
    # Blocks of 8 trials: trial k is row k % 8 of block k // 8, drawn whole
    # from default_rng([seed, k // 8]).
    monkeypatch.setattr(semigroupforge, "_MIN_TRIALS", 1)
    monkeypatch.setattr(semigroupforge, "Tolerances", _LooseSubsets)
    size = _blocks_of(monkeypatch, d, 8)
    report = semigroupforge._scan(d, 30, seed)
    listed = [c for c in report.counterexamples if c["phase"] == "subset"]
    assert len(listed) >= 5 and listed[-1]["trial"] >= 2 * size
    for c in listed:
        rng = np.random.default_rng([seed, c["trial"] // size])
        batch = semigroupforge._draw(rng, d, size, 2, d + 1, 0.05)
        _, bases, weights, functions = _row(batch, c["trial"] % size)
        assert c["bases"] == bases
        assert np.array(c["weights"]).tobytes() == weights
        assert c["functions"] == [kind.kind for kind, _, _ in functions]


@pytest.mark.parametrize("d", [2, 5])
def test_a_longer_scan_draws_and_judges_the_same_first_trials(monkeypatch, d):
    # Trial k depends only on (seed, d, k): in blocks of 8 trials, the
    # mixtures and verdicts of a 13-trial scan are the first 13 of a
    # 29-trial scan's, and each ends with the equal-weights mixture.
    monkeypatch.setattr(semigroupforge, "_MIN_TRIALS", 1)
    monkeypatch.setattr(semigroupforge, "Tolerances", _LooseSubsets)
    _blocks_of(monkeypatch, d, 8)
    runs = []
    judge = semigroupforge._semigroup_verdicts

    def recorded(batches, grid, tolerances):
        rows = []

        def read():
            for batch in batches:
                rows.extend(_row(batch, b) for b in range(len(batch)))
                yield batch

        verdicts = judge(read(), grid, tolerances)
        runs.append((rows, [_fields(v) for v in verdicts]))
        return verdicts

    monkeypatch.setattr(semigroupforge, "_semigroup_verdicts", recorded)
    short, long = semigroupforge._scan(d, 13, 4), semigroupforge._scan(d, 29, 4)
    (short_rows, short_verdicts), (long_rows, long_verdicts) = runs
    assert len(short_rows) == 14 and len(long_rows) == 30
    assert short_rows[:13] == long_rows[:13] and short_rows[13] == long_rows[29]
    assert short_verdicts[:13] == long_verdicts[:13]
    assert short.counterexamples == tuple(c for c in long.counterexamples if c["trial"] < 13)
    assert short.counterexamples


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
def test_the_scanners_reject_a_seed_that_is_not_a_nonnegative_integer(monkeypatch, seed):
    # Checked before anything is drawn, with a message that names the seed.
    monkeypatch.setattr(semigroupforge, "_draw", None)
    for scan in (
        lambda: theorem1_scan(100, seed),
        lambda: theorem2_scan(3, 100, seed),
        lambda: cptp_scan(2, 1, seed, 1e-10),
    ):
        with pytest.raises(ValueError) as info:
            scan()
        assert str(info.value) == f"seed must be a nonnegative integer, got {seed!r}"


def test_the_scanners_take_a_numpy_integer_seed():
    assert theorem1_scan(100, np.int64(3)) == theorem1_scan(100, 3)
    assert cptp_scan(2, 2, np.uint8(3), 1e-10) == cptp_scan(2, 2, 3, 1e-10)


_PRIMES = [d for d in range(DIMENSION_RANGE[0], DIMENSION_RANGE[1] + 1) if is_prime(d)]


@pytest.mark.parametrize("d", _PRIMES)
def test_the_scanners_draw_only_valid_mixtures(d):
    # The draws are columns that nothing checks, so each must be a valid
    # mixture by construction: as the theorem scanners draw their blocks
    # (up to d labels, 21 or more of them from d = 23 on), the last with
    # the equal-weights mixture, and as cptp_scan draws its trials.
    size = dynamics._block_size(d, 128)
    batches = [
        semigroupforge._draw(np.random.default_rng([0, j]), d, size, 2, d + 1, 0.05)
        for j in range(max(1, 200 // size))
    ]
    batches.append(
        semigroupforge._draw(np.random.default_rng([0, 9]), d, size, 2, d + 1, 0.05, 5, True)
    )
    batches.append(semigroupforge._draw(np.random.default_rng(0), d, 200, 1, d + 2, 0.0))
    for batch in batches:
        for b in range(len(batch)):
            assert structural_issues(batch.spec(b)) == [], (d, b)


_KIND_INDEX = {ExpRelax: 0, ProductTemplate: 1, DifferenceTemplate: 2, SampledGrid: 3}


def _drawn_components(d, n, low, high, floor, seed=20):
    """One draw of ``n`` mixtures, with each component's function class,
    in draw order, and the parameters of each closed-form class."""
    batch = semigroupforge._draw(np.random.default_rng(seed), d, n, low, high, floor)
    kinds = np.empty(batch.function.size, dtype=object)
    params = {}
    for rows, family in batch.functions.families:
        kinds[rows] = family.kind
        params[family.kind] = family.params
    return batch, kinds, params


@pytest.mark.parametrize(
    "d, low, high, floor",
    [(2, 2, 3, 0.05), (5, 2, 6, 0.05), (5, 1, 7, 0.0), (31, 2, 32, 0.05)],
    ids=["theorem-d2", "theorem-d5", "cptp-d5", "theorem-d31"],
)
def test_the_draw_follows_the_declared_family_law(d, low, high, floor):
    # About 20k components: sizes uniform on low..high-1, labels distinct
    # and uniform on 1..d+1, each class with chance 1/4, weights at least
    # the floor (0.5/size above 20 labels) and summing to 1, and every
    # parameter within its range.  Frequencies are checked to 5 sigma.
    n = 20000 // ((low + high - 1) // 2)
    batch, kinds, params = _drawn_components(d, n, low, high, floor)
    counts = np.diff(batch.starts)

    def uniform(observed, values):
        expected = observed.size / len(values)
        sigma = math.sqrt(expected * (1.0 - 1.0 / len(values)))
        freq = np.array([np.count_nonzero(observed == v) for v in values])
        assert freq.sum() == observed.size
        assert np.abs(freq - expected).max() <= 5 * sigma, (freq, expected)

    uniform(counts, range(low, high))
    uniform(batch.basis, range(1, d + 2))
    uniform(np.array([_KIND_INDEX[k] for k in kinds]), range(4))
    owner = np.repeat(np.arange(n), counts)
    distinct = np.unique(owner * (d + 2) + batch.basis)
    assert distinct.size == batch.basis.size
    least = np.where(floor * counts > 1.0, 0.5 / counts, floor)
    assert (batch.weight >= np.repeat(least, counts) * (1 - 1e-12)).all()
    assert np.abs(np.add.reduceat(batch.weight, batch.starts[:-1]) - 1.0).max() < 1e-12
    relax, product, difference = (params[k] for k in (ExpRelax, ProductTemplate, DifferenceTemplate))
    for p in (relax, product, difference):
        assert ((0.2 <= p[:, 0]) & (p[:, 0] < 1.0)).all()
        assert ((0.2 <= p[:, 1]) & (p[:, 1] < 2.0)).all()
    assert ((0.1 <= product[:, 2]) & (product[:, 2] < 0.5)).all()
    assert ((0.3 <= product[:, 3]) & (product[:, 3] < 2.0)).all()
    assert ((0.0 <= difference[:, 2]) & (difference[:, 2] < 0.8 * difference[:, 0])).all()
    assert (difference[:, 3] >= 0.2 * difference[:, 1] * (1 - 1e-12)).all()
    assert (difference[:, 3] < difference[:, 1]).all()
    samples = params[SampledGrid]
    assert (samples[:, 0] == 0.0).all() and (np.diff(samples, axis=1) > 0).all()
    assert (samples[:, -1] < 1.0).all() and (samples[:, -1] > 0.2 * (1 - np.exp(-1.0))).all()


@pytest.mark.parametrize("family, divisions", [("semigroup", 6), ("matched", 12)])
@pytest.mark.parametrize("d", [2, 3])
def test_the_simplex_sweep_writes_only_valid_mixtures(monkeypatch, d, family, divisions):
    # Every block of the lattice, each mixture as an object: the labels are
    # checked by ChannelSpec, the weights by structural_issues.
    batches = []
    block = dynamics._block

    def recorded(batch, times, pole_tol):
        batches.append(batch)
        return block(batch, times, pole_tol)

    monkeypatch.setattr(dynamics, "_block", recorded)
    scan = simplex_scan(d, divisions, family, 1.0, default_grid(5.0, 64))
    assert scan.valid.any() and batches
    specs = [batch.spec(b) for batch in batches for b in range(len(batch))]
    assert len(specs) >= np.count_nonzero(scan.valid)
    for spec in specs:
        assert structural_issues(spec) == []


def _raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("family", ["semigroup", "matched"])
@pytest.mark.parametrize("d, rate", [(2, 0.0), (3, -1.0), (2, math.nan), (4, 1.0), (4, 0.0)])
def test_the_simplex_sweep_rejects_what_its_objects_reject(family, d, rate):
    # As before columns, the inputs are checked first, then the dimension.
    def objects():
        ChannelSpec(d, 1, ExpRelax((d - 1) / d, rate))

    assert _raised(lambda: simplex_scan(d, 4, family, rate)) == _raised(objects)


def test_scanners_and_the_sweep_build_no_mixture_objects(monkeypatch):
    built = []
    for cls in (MixtureSpec, ChannelSpec):

        def counting(self, real=cls.__post_init__):
            built.append(type(self).__name__)
            real(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    reports = []
    for cls in (ClassificationReport, InputVerdict, SemigroupVerdict):

        def made(self, *args, real=cls.__init__, **kwargs):
            reports.append(type(self).__name__)
            real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", made)
    assert theorem1_scan(150, 2).passed
    assert theorem2_scan(5, 120, 9).passed
    for d, divisions, family in [(3, 6, "semigroup"), (2, 12, "matched"), (3, 12, "matched")]:
        assert simplex_scan(d, divisions, family).valid.any()
    assert built == []
    assert set(reports) == {"SemigroupVerdict"}  # the theorem scanners' verdicts
    reports.clear()
    # At rate 40 some of the qutrit sweep's outputs reach zero on the grid.
    # Each such lattice point is refined alone, as an object; the zero
    # search itself builds none.
    refined = []
    refine = dynamics.refine_grid
    monkeypatch.setattr(dynamics, "refine_grid", lambda *a: refined.append(a) or refine(*a))
    assert simplex_scan(3, 6, "semigroup", 40.0).valid.any()
    assert built.count("MixtureSpec") == len(refined) == 74
    assert set(built) == {"MixtureSpec", "ChannelSpec"}
    # Nor does any point build a verdict object: the sweep reads columns.
    assert reports == []
    built.clear()
    # The counting patch sees the mixture that a counterexample draws again.
    monkeypatch.setattr(semigroupforge, "_MIN_TRIALS", 1)
    monkeypatch.setattr(semigroupforge, "Tolerances", _LooseSubsets)
    report = semigroupforge._scan(2, 10, 0)
    listed = sum(c["phase"] == "subset" for c in report.counterexamples)
    assert listed and built.count("MixtureSpec") == listed


def test_random_function_family_is_admissible_and_diverse():
    rng = np.random.default_rng(77)
    t = np.linspace(0.0, 5.0, 401)
    kinds = set()
    for _ in range(200):
        f = random_decoherence_function(rng)
        kinds.add(f.describe()["kind"])
        vals = np.asarray(f.value(t), dtype=float)
        assert abs(vals[0]) <= 1e-12
        assert vals.min() >= -1e-9 and vals.max() <= 1.0 + 1e-9
    assert kinds == {"exp_relax", "expression", "samples"}


# ---------------------------------------------------------------------------
# Scanners
# ---------------------------------------------------------------------------


def test_qubit_scan_passes_and_is_reproducible():
    first = theorem1_scan(120, 5)
    second = theorem1_scan(120, 5)
    assert isinstance(first, ScanReport)
    assert first.passed and not first.counterexamples
    assert first == second
    assert first.details["dimension"] == 2
    assert first.details["subset_semigroups"] == 0
    assert first.details["min_noninvertible_inputs"] >= 2
    assert first.details["equal_semigroup_mix_is_semigroup"] is False


def test_qubit_scan_rejects_tiny_trial_counts():
    with pytest.raises(ValueError):
        theorem1_scan(50, 1)


def test_prime_dimension_scan_passes():
    report = theorem2_scan(3, 120, 5)
    assert report.passed
    assert report.details["required_noninvertible_inputs"] == 3
    assert report.details["min_noninvertible_inputs"] >= 3
    assert report.details["all_semigroup_inputs_feasible"] is False


def test_prime_dimension_scan_rejects_nonprime():
    with pytest.raises(ValueError):
        theorem2_scan(4, 120, 5)


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_exact_noninvertible_bound_is_d_and_attained(d):
    assert semigroupforge._noninvertible_bound(d) == (d, False)
    # The bound is attained: one weight at 1/d, the other d at (d-1)/d^2.
    vertex = (1 / d,) + ((d - 1) / d**2,) * d
    fc = forecast_invertibility(AllChannelsRequest(d, 1.0, vertex))
    assert fc.noninvertible_count == d
    assert [c.verdict for c in fc.channels].count("semigroup") == 1


def test_a_wrong_bound_fails_the_report(monkeypatch):
    monkeypatch.setattr(semigroupforge, "_noninvertible_bound", lambda d: (d - 1, False))
    report = theorem2_scan(3, 100, 0)
    assert not report.passed
    assert report.counterexamples == (
        {"phase": "full", "trial": -1, "weights": [], "noninvertible": 2},
    )
    assert report.details["min_noninvertible_inputs"] == 2


def _per_trial_scan(d, trials, seed):
    """The scanner as a loop over trials, each trial's mixture ``spec(k %
    B)`` of its block's draw, judged alone by its own one-mixture semigroup
    verdict, with the noninvertible floor written out by hand; also
    returns each trial's subset mixture and verdict."""
    sf = semigroupforge
    if trials < sf._MIN_TRIALS:
        raise ValueError(f"need at least {sf._MIN_TRIALS} trials, got {trials}")
    grid = default_grid(5.0, 128)
    size = dynamics._block_size(d, len(grid))
    tolerances = sf.Tolerances()
    counterexamples = []
    subset_semigroups = 0
    phase_one = []
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial // size])
        spec = sf._draw(rng, d, size, 2, d + 1, 0.05).spec(trial % size)
        traj = mixture_eigenvalues(spec, grid)
        rates = rates_from_spectrum(traj)
        tol = tolerances.semigroup_of(dynamics.MixtureBatch.of_specs([spec]))[0]
        verdict = detect_semigroup(traj, rates, tol)
        phase_one.append((spec, verdict))
        if verdict.is_semigroup:
            subset_semigroups += 1
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
    semi = ExpRelax((d - 1) / d, 1.0)
    equal = MixtureSpec(
        d,
        [(1.0 / (d + 1), ChannelSpec(d, b, semi)) for b in range(1, d + 2)],
    )
    traj = mixture_eigenvalues(equal, grid)
    equal_verdict = detect_semigroup(traj, rates_from_spectrum(traj), 1e-8)
    if equal_verdict.is_semigroup:
        counterexamples.append(
            {"phase": "equal-semigroup-inputs", "trial": -1, "weights": []}
        )
    details = {
        "dimension": d,
        "subset_semigroups": subset_semigroups,
        # Two weights of at least 1/d leave the other d-1 at least
        # (d-1)/d^2 each: a total of (d^2+1)/d^2 > 1.
        "min_noninvertible_inputs": d,
        "required_noninvertible_inputs": d,
        "equal_semigroup_mix_is_semigroup": bool(equal_verdict.is_semigroup),
        "all_semigroup_inputs_feasible": False,
    }
    report = ScanReport(
        seed=seed,
        trials=trials,
        family=sf._FAMILY_DESCRIPTION,
        counterexamples=tuple(counterexamples),
        passed=not counterexamples,
        details=details,
    )
    return report, phase_one


def _fields(verdict):
    return (
        verdict.is_semigroup,
        verdict.exponents.shape,
        verdict.exponents.tobytes(),
        verdict.max_eigenvalue_deviation.hex(),
        verdict.max_rate_variation.hex(),
        verdict.tolerance,
    )


def _assert_scan_matches(d, trials, seed):
    report, phase_one = _per_trial_scan(d, trials, seed)
    assert repr(semigroupforge._scan(d, trials, seed)) == repr(report)
    specs = [spec for spec, _ in phase_one]
    batched = semigroup_verdicts(specs, default_grid(5.0, 128), semigroupforge.Tolerances())
    assert [_fields(v) for v in batched] == [_fields(v) for _, v in phase_one]
    return report


class _LooseSubsets(Tolerances):
    """Accepts every proper-subset mixture whose spectrum stays positive as a
    semigroup, so that scans list many trials (about half of the qubit
    trials, nearly all others) with their own mixture and verdict."""

    def semigroup_of(self, batch):
        subsets = np.diff(batch.starts) <= batch.dimension
        return np.where(subsets, math.inf, super().semigroup_of(batch))


def _blocks_of(monkeypatch, d, size):
    """Patch the blocks of dimension-``d`` mixtures on the scans' 128-point
    grid to ``size`` mixtures (keep the real size if None); returns the size."""
    points = (d + 1) * 128
    if size is None:
        return dynamics._BLOCK_VALUES // points
    monkeypatch.setattr(dynamics, "_BLOCK_VALUES", size * points)
    return size


_SLICED = [(2, 0, 8), (2, 11, 8), (3, 4, 8), (5, 9, 8), (7, 1, 8), (31, 0, None)]


@pytest.mark.parametrize("d, seed, size", _SLICED, ids=[f"{d}-{s}" for d, s, _ in _SLICED])
def test_sliced_scan_equals_the_per_trial_loop(monkeypatch, d, seed, size):
    # The trials, then the equal-weights mixture, stream through blocks of
    # ``size`` mixtures: one full block, the last mixture alone in a second
    # block, and across three block boundaries.  Trial counts below the
    # public minimum keep this cheap; the d = 31 case keeps the real block
    # size.  Loose subset tolerances list many trials, so the report checks
    # each listed trial's verdict against its own mixture.
    monkeypatch.setattr(semigroupforge, "_MIN_TRIALS", 1)
    monkeypatch.setattr(semigroupforge, "Tolerances", _LooseSubsets)
    size = _blocks_of(monkeypatch, d, size)
    for trials in (size - 1, size, 3 * size + 5):
        report = _assert_scan_matches(d, trials, seed)
        assert report.trials == trials
        assert report.details["subset_semigroups"] >= trials // 3


@pytest.mark.parametrize("d, seed", [(3, 1), (5, 3), (7, 2)])
def test_sliced_scan_keeps_the_counterexample_order(monkeypatch, d, seed):
    # Loose subset tolerances make many trials fail across every block.
    monkeypatch.setattr(semigroupforge, "_MIN_TRIALS", 1)
    monkeypatch.setattr(semigroupforge, "Tolerances", _LooseSubsets)
    report = _assert_scan_matches(d, 3 * _blocks_of(monkeypatch, d, 8) + 5, seed)
    assert {c["phase"] for c in report.counterexamples} == {"subset"}
    assert [c["trial"] for c in report.counterexamples] == sorted(
        c["trial"] for c in report.counterexamples
    )


def test_cptp_scan_passes_and_is_reproducible():
    first = cptp_scan(3, 6, 4, 1e-10)
    assert isinstance(first, ScanReport)
    assert first.passed and not first.counterexamples
    assert first == cptp_scan(3, 6, 4, 1e-10)
    assert first.details == {"dimension": 3, "times_per_trial": 3, "tolerance": 1e-10}


def test_cptp_scan_lists_every_failing_check(monkeypatch):
    # A partial trace twice the identity fails every partial-trace check.
    real = semigroupforge.matrixlab.partial_trace_first
    monkeypatch.setattr(
        semigroupforge.matrixlab, "partial_trace_first", lambda choi, d: 2.0 * real(choi, d)
    )
    report = cptp_scan(2, 2, 0, 1e-10)
    assert not report.passed
    assert [c["trial"] for c in report.counterexamples] == [0, 0, 0, 1, 1, 1]
    assert list(report.counterexamples[0]) == [
        "trial",
        "t",
        "hermiticity_deviation",
        "partial_trace_deviation",
        "min_choi_eigenvalue",
    ]
    assert all(0.0 <= c["t"] <= 5.0 for c in report.counterexamples)
    assert all(
        c["partial_trace_deviation"] == pytest.approx(1.0) for c in report.counterexamples
    )


def test_cptp_scan_rejects_a_nan_tolerance():
    # NaN compares false, so every check would fail on valid channels.
    with pytest.raises(ValueError, match="tolerance must not be NaN"):
        cptp_scan(2, 1, 0, math.nan)


def test_cptp_scan_rejects_an_infinite_tolerance():
    # An infinite tolerance would pass every partial-trace and PSD check.
    with pytest.raises(ValueError, match="infinite"):
        cptp_scan(2, 1, 0, math.inf)


def test_cptp_scan_rejects_a_negative_tolerance():
    # Every partial-trace check would fail, flagging valid channels.
    with pytest.raises(ValueError, match="tolerance must not be NaN, infinite or negative"):
        cptp_scan(2, 1, 0, -1e-10)


def test_cptp_scan_rejects_nonprime():
    with pytest.raises(ValueError):
        cptp_scan(4, 1, 0, 1e-10)


@pytest.mark.parametrize("trials", [0, -5])
def test_cptp_scan_rejects_fewer_than_one_trial(trials):
    with pytest.raises(ValueError, match="at least 1 trial"):
        cptp_scan(2, trials, 0, 1e-10)


# ---------------------------------------------------------------------------
# Simplex sweep
# ---------------------------------------------------------------------------


def _compositions(parts, total):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(parts - 1, total - first):
            yield (first,) + rest


@pytest.mark.parametrize("parts, divisions", [(2, 1), (3, 4), (4, 6), (8, 3), (32, 2)])
def test_simplex_lattice_lists_compositions_in_lexicographic_order(parts, divisions):
    expected = list(_compositions(parts, divisions))
    assert simplex_lattice(parts, divisions).tolist() == [list(c) for c in expected]


def _lattice_specs(d, divisions, family, rate, counts):
    """Each lattice point of ``counts`` as a mixture object, None where the
    matched family is undefined."""
    bound = weight_lower_bound(d)
    specs = []
    for row in counts.tolist():
        x = [k / divisions for k in row]
        if family == "matched":
            ok = all(xi >= bound - 1e-12 for xi in x)
            specs.append(build_all_channels_mix(AllChannelsRequest(d, rate, x)) if ok else None)
        else:
            semi = ExpRelax((d - 1) / d, rate)
            parts = [(xi, ChannelSpec(d, b, semi)) for b, xi in enumerate(x, start=1) if xi]
            specs.append(MixtureSpec(d, parts))
    return specs


_SWEEPS = [
    (2, 12, "matched"),
    (3, 18, "matched"),
    (5, 25, "matched"),
    (2, 6, "semigroup"),
    (3, 6, "semigroup"),
    (5, 3, "semigroup"),
]


def test_simplex_scan_matches_pointwise_classification(monkeypatch):
    # The lattice's ten valid points in one block, then in blocks of four.
    grid = default_grid(5.0, 64)
    block = dynamics._block
    sizes = []

    def recorded(batch, times, pole_tol):
        sizes.append(len(batch))
        return block(batch, times, pole_tol)

    monkeypatch.setattr(dynamics, "_block", recorded)
    for per_block, expected in [(None, [10]), (4, [4, 4, 2])]:
        if per_block is not None:
            monkeypatch.setattr(dynamics, "_BLOCK_VALUES", per_block * 3 * len(grid))
        sizes.clear()
        scan = simplex_scan(2, 12, "matched", 1.5, grid)
        assert sizes == expected and max(sizes) <= dynamics._block_size(2, len(grid))
        assert scan.valid.sum() == scan.proper.sum() == 10 and not scan.corner.any()
    # Every column, in blocks of four lattice points, against classify_many
    # of the points built as objects; at rate 40 outputs reach zero, so
    # points are refined.
    for (d, divisions, family), rate in itertools.product(_SWEEPS, [1.5, 40.0]):
        monkeypatch.setattr(dynamics, "_BLOCK_VALUES", 4 * (d + 1) * len(grid))
        scan = simplex_scan(d, divisions, family, rate, grid)
        specs = _lattice_specs(d, divisions, family, rate, scan.counts)
        assert scan.valid.tolist() == [spec is not None for spec in specs]
        reports = iter(dynamics.classify_many([s for s in specs if s is not None], grid))
        refined = 0
        for row, spec in enumerate(specs):
            if spec is None:
                assert not scan.is_semigroup[row] and not scan.is_cp_divisible[row]
                assert math.isnan(scan.min_rate[row]) and scan.noninvertible_inputs[row] == 0
                continue
            report = next(reports)
            refined += bool(report.singular_times)
            assert scan.is_semigroup[row] == report.is_semigroup
            assert scan.is_cp_divisible[row] == report.is_cp_divisible
            bits = np.array([scan.min_rate[row], report.min_rate]).view(np.int64)
            assert bits[0] == bits[1]
            kinds = [v.verdict for v in report.inputs]
            assert scan.noninvertible_inputs[row] == kinds.count("noninvertible")
        assert next(reports, None) is None and scan.valid.any()
        assert (refined > 0) == (rate == 40.0), (d, divisions, family)


def test_simplex_scan_rejects_a_lattice_above_the_bound_before_building_it(monkeypatch):
    # C(6 + 2, 2) = 28 points pass a bound of 28; C(7 + 2, 2) = 36 do not.
    monkeypatch.setattr(semigroupforge, "MAX_SCAN_POINTS", 28)
    assert len(simplex_scan(2, 6, "semigroup", 1.0, default_grid(5.0, 64)).counts) == 28
    built = []
    monkeypatch.setattr(semigroupforge, "simplex_lattice", lambda *a: built.append(a))
    for family in ("semigroup", "matched"):
        with pytest.raises(ValueError, match="has 36 lattice points, more than the 28"):
            simplex_scan(2, 7, family)
        # Past 30 digits the count is given as a power of ten below it.
        with pytest.raises(ValueError, match=r"has over 10\^9266 lattice points"):
            simplex_scan(31, 10**300, family)
        # A d out of range is rejected as such, without counting C(2e6, 1e6).
        with pytest.raises(ValueError, match="dimension must lie in"):
            simplex_scan(10**6 + 3, 10**6, family)
    assert built == []
