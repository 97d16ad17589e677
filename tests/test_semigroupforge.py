"""Semigroup-from-noninvertible constructions, forecasts, and scanners."""

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


def _parsed_random_decoherence_function(rng, t_max=5.0, allow_sampled=True):
    """The scanner family as it was drawn when templates were parsed strings."""
    kinds = ["exp_relax", "product", "difference"]
    if allow_sampled:
        kinds.append("sampled")
    kind = kinds[rng.integers(len(kinds))]
    scale = float(rng.uniform(0.2, 1.0))
    rate = float(rng.uniform(0.2, 2.0))
    if kind == "exp_relax":
        return ExpRelax(scale, rate)
    if kind == "product":
        depth = float(rng.uniform(0.1, 0.5))
        freq = float(rng.uniform(0.3, 2.0))
        return Expression(
            f"{scale!r}*(1-exp(-{rate!r}*t))*(1-{depth!r}*sin({freq!r}*t)^2)"
        )
    if kind == "difference":
        m = scale * float(rng.uniform(0.0, 0.8))
        r2 = rate * float(rng.uniform(0.2, 1.0))
        return Expression(
            f"{scale!r}*(1-exp(-{rate!r}*t)) - {m!r}*(1-exp(-{r2!r}*t))"
        )
    times = np.linspace(0.0, t_max, 257)
    vals = scale * (1.0 - np.exp(-rate * times))
    return SampledGrid(times, vals)


def test_random_draws_replay_the_parsed_family():
    new_rng, old_rng = np.random.default_rng(2024), np.random.default_rng(2024)
    times = default_grid(5.0, 128).times
    kinds = []
    for _ in range(500):
        new = random_decoherence_function(new_rng)
        old = _parsed_random_decoherence_function(old_rng)
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


def _scalar_random_mixture(rng, d, low, high, floor):
    """The scanners' mixture draw with array bases and weights, an ``np.ones``
    Dirichlet, per-component casts and one scalar ``uniform`` call per
    function parameter."""
    size = int(rng.integers(low, high))
    bases = rng.choice(d + 1, size=size, replace=False) + 1
    weights = floor + (1.0 - floor * size) * rng.dirichlet(np.ones(size))
    return MixtureSpec(
        d,
        [
            (float(w), ChannelSpec(d, int(b), _parsed_random_decoherence_function(rng)))
            for b, w in zip(bases, weights)
        ],
    )


@pytest.mark.parametrize(
    "d, low, high, floor",
    [(2, 2, 3, 0.05), (5, 2, 6, 0.05), (5, 1, 7, 0.0)],
    ids=["theorem-d2", "theorem-d5", "cptp-d5"],
)
def test_random_mixtures_replay_the_scalar_draw(d, low, high, floor):
    # The scanners' settings: (2, d+1, 0.05) for theorem trials and
    # (1, d+2, 0.0) for cptp trials, each trial on default_rng([seed, k]).
    kinds = set()
    for seed in range(20):
        for k in range(50):
            new_rng = np.random.default_rng([seed, k])
            old_rng = np.random.default_rng([seed, k])
            new = semigroupforge._random_mixture(new_rng, d, low, high, floor)
            old = _scalar_random_mixture(old_rng, d, low, high, floor)
            assert new_rng.bit_generator.state == old_rng.bit_generator.state
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
    row = batch.rows(b, b + 1)
    entries = {}
    for rows, family in row.functions.families:
        times = family.times.tobytes() if family.kind is SampledGrid else b""
        for k, i in enumerate(rows.tolist()):
            entries[i] = (family.kind, family.params[k].tobytes(), times)
    functions = [entries[i] for i in row.function.tolist()]
    return row.starts.tolist(), row.basis.tolist(), row.weight.tobytes(), functions


_DRAWS = {"theorem": (2, None, 0.05), "cptp": (1, 1, 0.0)}  # low, high - (d+1), floor


@pytest.mark.parametrize("d", [2, 3, 5, 7, 31])
@pytest.mark.parametrize("draws", sorted(_DRAWS))
def test_a_drawn_batch_row_equals_the_encoded_mixture_of_its_draw(d, draws):
    # The scanners draw straight into batch rows; the mixture built from the
    # same (seed, trial) draw, encoded, must give every column bit for bit.
    low, extra, floor = _DRAWS[draws]
    high = d + 1 + (extra or 0)
    times = default_grid(5.0, 64).times
    kinds = set()
    for seed in range(4):
        rngs = [np.random.default_rng([seed, k]) for k in range(40)]
        batch = semigroupforge._drawn_batch(
            d, [semigroupforge._draw_mixture(rng, d, low, high, floor) for rng in rngs]
        )
        assert len(batch) == 40
        for k in range(40):
            rng = np.random.default_rng([seed, k])
            spec = semigroupforge._random_mixture(rng, d, low, high, floor)
            assert rng.bit_generator.state == rngs[k].bit_generator.state
            encoded = dynamics.MixtureBatch.of_specs([spec])
            assert _row(batch, k) == _row(encoded, 0)
            drawn, built = batch.rows(k, k + 1), encoded
            assert drawn.functions.evaluate(times).tobytes() == built.functions.evaluate(times).tobytes()
            kinds.update(kind for kind, _, _ in _row(batch, k)[3])
    assert kinds == {ExpRelax, ProductTemplate, DifferenceTemplate, SampledGrid}


@pytest.mark.parametrize("d, seed", [(2, 3), (5, 1)])
def test_a_counterexample_redraws_its_trials_batch_row(monkeypatch, d, seed):
    monkeypatch.setattr(semigroupforge, "_MIN_TRIALS", 1)
    monkeypatch.setattr(semigroupforge, "Tolerances", _LooseSubsets)
    report = semigroupforge._scan(d, 30, seed)
    listed = [c for c in report.counterexamples if c["phase"] == "subset"]
    assert len(listed) >= 5
    for c in listed:
        rng = np.random.default_rng([seed, c["trial"]])
        batch = semigroupforge._drawn_batch(d, [semigroupforge._draw_mixture(rng, d, 2, d + 1, 0.05)])
        _, bases, weights, functions = _row(batch, 0)
        assert c["bases"] == bases
        assert np.array(c["weights"]).tobytes() == weights
        assert c["functions"] == [kind.kind for kind, _, _ in functions]


_GOOD = (ExpRelax, (0.5, 1.0))
_BAD_INPUTS = {
    "basis-above-d+1": ([1, 4], [0.5, 0.5], [_GOOD, _GOOD]),
    "basis-zero": ([0], [1.0], [_GOOD]),
    "nan-template-parameter": ([1], [1.0], [(ProductTemplate, (0.5, math.nan, 0.2, 1.0))]),
    "negative-template-parameter": ([2], [1.0], [(DifferenceTemplate, (0.5, 1.0, -0.1, 0.5))]),
    "negative-zero-template-parameter": ([2], [1.0], [(ProductTemplate, (0.5, 1.0, -0.0, 1.0))]),
    "zero-rate": ([1, 2], [0.5, 0.5], [_GOOD, (ExpRelax, (0.5, 0.0))]),
    "negative-rate": ([1], [1.0], [(ExpRelax, (0.5, -1.0))]),
    "nan-rate": ([1], [1.0], [(ExpRelax, (0.5, math.nan))]),
    "infinite-scale": ([1], [1.0], [(ExpRelax, (math.inf, 1.0))]),
    "nan-samples": ([1], [1.0], [(SampledGrid, (math.nan, 1.0))]),
    "weights-sum-above-1": ([1, 2], [0.7, 0.7], [_GOOD, _GOOD]),
    "negative-weight": ([1, 3], [1.25, -0.25], [_GOOD, _GOOD]),
    "bad-function-before-bad-weights": ([1, 2], [0.7, 0.7], [_GOOD, (ExpRelax, (0.5, 0.0))]),
}


def _raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("name", sorted(_BAD_INPUTS))
def test_a_batch_producer_rejects_what_the_object_constructors_reject(name):
    bases, weights, functions = _BAD_INPUTS[name]
    grid = default_grid(5.0, 64)

    def objects():
        channels = [ChannelSpec(2, b, semigroupforge._function(*f)) for b, f in zip(bases, functions)]
        return classify(MixtureSpec(2, list(zip(weights, channels))), grid)

    def batch():
        drawn = semigroupforge._drawn_batch(2, [(bases, weights, functions)])
        return list(dynamics._analyze([drawn], grid, None, keep=False))

    assert _raised(batch) == _raised(objects)


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
    assert theorem1_scan(150, 2).passed
    assert theorem2_scan(5, 120, 9).passed
    for d, divisions, family in [(3, 6, "semigroup"), (2, 12, "matched"), (3, 12, "matched")]:
        assert simplex_scan(d, divisions, family).valid.any()
    assert built == []
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
    """The scanner as it was when every trial got its own one-mixture
    semigroup verdict, with the noninvertible floor written out by hand;
    also returns each trial's subset mixture and verdict."""
    sf = semigroupforge
    if trials < sf._MIN_TRIALS:
        raise ValueError(f"need at least {sf._MIN_TRIALS} trials, got {trials}")
    grid = default_grid(5.0, 128)
    tolerances = sf.Tolerances()
    counterexamples = []
    subset_semigroups = 0
    phase_one = []
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        size = int(rng.integers(2, d + 1))
        bases = rng.choice(d + 1, size=size, replace=False) + 1
        weights = 0.05 + (1.0 - 0.05 * size) * rng.dirichlet(np.ones(size))
        components = []
        fams = []
        for basis, weight in zip(bases, weights):
            f = random_decoherence_function(rng)
            fams.append(f.kind)
            components.append((float(weight), ChannelSpec(d, int(basis), f)))
        spec = MixtureSpec(d, components)
        traj = mixture_eigenvalues(spec, grid)
        rates = rates_from_spectrum(traj)
        verdict = detect_semigroup(traj, rates, tolerances.semigroup_for(spec))
        phase_one.append((spec, verdict))
        if verdict.is_semigroup:
            subset_semigroups += 1
            counterexamples.append(
                {
                    "phase": "subset",
                    "trial": trial,
                    "bases": [int(b) for b in bases],
                    "weights": [float(w) for w in weights],
                    "functions": fams,
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

    def semigroup_at(self, batch, b):
        if batch.starts[b + 1] - batch.starts[b] <= batch.dimension:
            return math.inf
        return super().semigroup_at(batch, b)


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


def test_simplex_scan_matches_pointwise_classification():
    grid = default_grid(5.0, 64)
    scan = simplex_scan(2, 12, "matched", 1.5, grid)
    bound = weight_lower_bound(2)
    for counts, valid, semi, cpdiv, rate, noninv in zip(
        scan.counts, scan.valid, scan.is_semigroup, scan.is_cp_divisible,
        scan.min_rate, scan.noninvertible_inputs,
    ):
        x = tuple((counts / 12).tolist())
        assert valid == all(xi >= bound - 1e-12 for xi in x)
        if not valid:
            continue
        report = classify(build_all_channels_mix(AllChannelsRequest(2, 1.5, x)), grid)
        assert (semi, cpdiv, rate) == (report.is_semigroup, report.is_cp_divisible, report.min_rate)
        assert noninv == sum(v.verdict == "noninvertible" for v in report.inputs)
    assert scan.valid.sum() == scan.proper.sum() > 0 and not scan.corner.any()
