"""Decoherence functions, channel/mixture specs, and validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from paulimix import (
    ChannelSpec,
    DifferenceTemplate,
    ExpRelax,
    Expression,
    MixtureSpec,
    ProductTemplate,
    SampledGrid,
    default_grid,
    single_channel_eigenvalues,
    validate_mixture,
)
from paulimix.channelcore import build_interpolants
from paulimix.exprcalc import DomainError


# ---------------------------------------------------------------------------
# Decoherence functions
# ---------------------------------------------------------------------------


def test_exp_relax_values():
    f = ExpRelax(0.75, 2.0)
    p, dp = f.value_and_derivative(0.5)
    assert p == pytest.approx(0.75 * (1 - math.exp(-1.0)), abs=1e-15)
    assert dp == pytest.approx(1.5 * math.exp(-1.0), abs=1e-15)
    assert f.value(0.0) == 0.0


def test_exp_relax_rejects_nonpositive_rate():
    for rate in (0.0, -1.0, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="rate must be positive and finite"):
            ExpRelax(0.5, rate)


def test_exp_relax_rejects_nonfinite_scale():
    for scale in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="scale must be finite"):
            ExpRelax(scale, 1.0)


def test_exp_relax_expression_round_trip():
    f = ExpRelax(0.6, 1.7)
    g = Expression(f.as_expression())
    t = np.linspace(0.0, 5.0, 200)
    pf, df = f.value_and_derivative(t)
    pg, dg = g.value_and_derivative(t)
    np.testing.assert_allclose(pg, pf, atol=1e-12)
    np.testing.assert_allclose(dg, df, atol=1e-12)


def test_expression_must_vanish_at_zero():
    with pytest.raises(ValueError):
        Expression("1+t")
    Expression("0.3*sin(t)^2")  # fine


def test_expression_evaluates_arrays():
    f = Expression("0.5*(1-exp(-t))")
    t = np.array([0.0, 1.0, 2.0])
    p, dp = f.value_and_derivative(t)
    np.testing.assert_allclose(p, 0.5 * (1 - np.exp(-t)), atol=1e-15)
    np.testing.assert_allclose(dp, 0.5 * np.exp(-t), atol=1e-15)


def test_sampled_grid_validation():
    with pytest.raises(ValueError):
        SampledGrid(np.array([0.0, 1.0]), np.array([0.0, 0.5]))  # too few
    with pytest.raises(ValueError):
        SampledGrid(np.array([0.1, 1.0, 2.0]), np.zeros(3))  # t0 != 0
    with pytest.raises(ValueError):
        SampledGrid(np.array([0.0, 1.0, 0.5]), np.zeros(3))  # not ascending
    with pytest.raises(ValueError):
        SampledGrid(np.array([0.0, 1.0, 2.0]), np.array([0.3, 0.5, 0.6]))  # p(0)!=0


def test_sampled_grid_interpolates_smooth_profile():
    times = np.linspace(0.0, 5.0, 513)
    f = SampledGrid(times, 0.75 * (1 - np.exp(-times)))
    probe = np.linspace(0.0, 5.0, 1117)
    p, dp = f.value_and_derivative(probe)
    np.testing.assert_allclose(p, 0.75 * (1 - np.exp(-probe)), atol=1e-5)
    np.testing.assert_allclose(dp, 0.75 * np.exp(-probe), atol=1e-3)


def test_sampled_grid_domain_error_outside_range():
    times = np.linspace(0.0, 2.0, 65)
    f = SampledGrid(times, 0.5 * (1 - np.exp(-times)))
    with pytest.raises(DomainError) as exc:
        f.value(2.5)
    assert exc.value.t == 2.5
    with pytest.raises(DomainError):
        f.value(np.array([1.0, 3.0]))
    # boundary itself is fine
    assert f.value(2.0) == pytest.approx(0.5 * (1 - math.exp(-2.0)), abs=1e-8)


def _bits(pair):
    return tuple(np.asarray(x, dtype=float).tobytes() for x in pair)


# Stacked interpolant builds: every grid's column replays its own PCHIP build.

# Flat runs, sign changes and mixed slopes reach PCHIP's edge cases.
_SAMPLE_VALUE = st.one_of(
    st.sampled_from([0.0, 0.5, -0.5, 1.0]),
    st.floats(min_value=-10.0, max_value=10.0),
)


@st.composite
def _sample_times(draw, size):
    steps = draw(st.lists(st.floats(min_value=1e-3, max_value=2.0), min_size=size - 1,
                          max_size=size - 1))
    return np.concatenate([[0.0], np.cumsum(steps)])


@st.composite
def _sampled_batch(draw):
    """Grids on two different sample-time arrays, and one built beforehand."""
    size = draw(st.integers(3, 12))
    times = [draw(_sample_times(size)), draw(_sample_times(draw(st.integers(3, 12))))]
    grids = []
    for k in draw(st.lists(st.sampled_from([0, 1]), max_size=6)) + [0, 1]:
        tail = st.lists(_SAMPLE_VALUE, min_size=times[k].size - 1, max_size=times[k].size - 1)
        grids.append(SampledGrid(times[k], [0.0] + draw(tail)))
    built = grids.pop(draw(st.integers(0, len(grids) - 1)))
    built.value(0.0)
    grids.insert(draw(st.integers(0, len(grids))), built)
    return grids


# Slopes near the smallest doubles overflow inside PCHIP's harmonic mean, in
# the reference build as much as in the stacked one.
@pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(_sampled_batch(), st.floats(min_value=0.0, max_value=1.0))
def test_stacked_interpolants_replay_per_grid_builds(grids, fraction):
    build_interpolants(grids + grids[:1])
    for g in grids:
        ref = PchipInterpolator(g.times, g.values, extrapolate=False)
        dref = ref.derivative()
        end = float(g.times[-1])
        probe = np.concatenate([g.times, np.linspace(0.0, end, 29)])
        assert _bits(g.value_and_derivative(probe)) == _bits((ref(probe), dref(probe)))
        t = fraction * end
        got = g.value_and_derivative(t)
        assert all(type(x) is float for x in got)
        assert _bits(got) == _bits((float(ref(t)), float(dref(t))))
        with pytest.raises(DomainError) as exc:
            g.value(np.array([0.0, end + 1.0]))
        assert exc.value.t == end + 1.0


# Closed-form templates: each replays its parsed formula bit for bit.

_PARAM = st.floats(min_value=0.0, max_value=10.0)
_TEMPLATES = st.one_of(
    st.builds(ProductTemplate, _PARAM, _PARAM, _PARAM, _PARAM),
    st.builds(DifferenceTemplate, _PARAM, _PARAM, _PARAM, _PARAM),
)


@settings(max_examples=300, deadline=None)
@given(_TEMPLATES, st.lists(st.floats(min_value=0.0, max_value=20.0), max_size=40))
def test_templates_replay_their_expression_on_arrays(f, times):
    parsed = Expression(f.as_expression())
    t = np.array([0.0] + times)
    assert _bits(f.value_and_derivative(t)) == _bits(parsed.value_and_derivative(t))


@settings(max_examples=300, deadline=None)
@given(_TEMPLATES, st.floats(min_value=0.0, max_value=20.0))
def test_templates_replay_their_expression_on_scalars(f, t):
    got = f.value_and_derivative(t)
    want = Expression(f.as_expression()).value_and_derivative(t)
    assert all(type(x) is float for x in got)
    assert _bits(got) == _bits(want)


def test_template_formulas_and_descriptions():
    f = ProductTemplate(0.5, 1.25, 0.2, 0.75)
    assert f.as_expression() == "0.5*(1-exp(-1.25*t))*(1-0.2*sin(0.75*t)^2)"
    g = DifferenceTemplate(0.5, 1.25, 1e-05, 0.5)
    assert g.as_expression() == "0.5*(1-exp(-1.25*t)) - 1e-05*(1-exp(-0.5*t))"
    assert g.describe() == {"kind": "expression", "formula": g.as_expression()}
    # numpy scalars are stored as floats, so the formula spells plain numbers
    assert ProductTemplate(*map(np.float64, (0.5, 1.25, 0.2, 0.75))) == f
    assert f.value(0.0) == 0.0


@pytest.mark.parametrize("bad", [-1.0, -0.0, math.inf, math.nan])
def test_templates_reject_negative_or_nonfinite_parameters(bad):
    with pytest.raises(ValueError):
        ProductTemplate(0.5, 1.0, bad, 1.0)
    with pytest.raises(ValueError):
        DifferenceTemplate(0.5, bad, 0.1, 1.0)


def test_kind_names_the_description():
    samples = SampledGrid(np.linspace(0.0, 1.0, 5), np.linspace(0.0, 0.5, 5))
    for f in (ExpRelax(0.5, 1.0), Expression("t"), samples, ProductTemplate(0.5, 1, 0, 1)):
        assert f.describe()["kind"] == f.kind
    assert Expression("0.5*t").as_expression() == "0.5*t"
    with pytest.raises(TypeError):
        samples.as_expression()


# ---------------------------------------------------------------------------
# Channel and mixture specs
# ---------------------------------------------------------------------------


def test_channel_spec_validates_dimension_and_basis():
    f = ExpRelax(0.5, 1.0)
    with pytest.raises(ValueError):
        ChannelSpec(4, 1, f)  # composite
    with pytest.raises(ValueError):
        ChannelSpec(2, 0, f)
    with pytest.raises(ValueError):
        ChannelSpec(2, 4, f)  # only d+1 = 3 labels
    ChannelSpec(2, 3, f)


def test_single_channel_eigenvalues_qutrit():
    # d=3, p = 0.75(1-e^{-t}) at t = ln 4: p = 0.5625, off-label eigenvalue
    # 1 - (3/2) p = 5/32; the channel's own label stays at 1.
    ch = ChannelSpec(3, 2, ExpRelax(0.75, 1.0))
    lam = single_channel_eigenvalues(ch, math.log(4.0))
    assert lam.shape == (4,)
    assert lam[1] == pytest.approx(1.0, abs=1e-15)
    for idx in (0, 2, 3):
        assert lam[idx] == pytest.approx(5.0 / 32.0, abs=1e-14)


def test_single_channel_eigenvalues_vectorized():
    ch = ChannelSpec(2, 1, ExpRelax(0.5, 1.0))
    t = np.linspace(0.0, 3.0, 7)
    lam = single_channel_eigenvalues(ch, t)
    assert lam.shape == (3, 7)
    np.testing.assert_allclose(lam[0], 1.0, atol=1e-15)
    np.testing.assert_allclose(lam[1], np.exp(-t), atol=1e-14)
    np.testing.assert_allclose(lam[2], np.exp(-t), atol=1e-14)


def test_mixture_spec_normalizes_tuples():
    spec = MixtureSpec(
        2,
        [
            (0.5, ChannelSpec(2, 1, ExpRelax(0.5, 1.0))),
            (0.5, ChannelSpec(2, 2, ExpRelax(0.5, 1.0))),
        ],
    )
    assert len(spec.components) == 2
    assert spec.components[0].weight == 0.5
    assert spec.components[1].channel.basis == 2
    assert not spec.has_sampled_functions()


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _mix(*pairs, d=2):
    return MixtureSpec(d, [(w, ChannelSpec(d, b, f)) for w, b, f in pairs])


def test_validate_accepts_well_formed_mixture():
    spec = _mix(
        (0.4, 1, ExpRelax(0.5, 1.0)),
        (0.6, 2, Expression("0.3*(1-exp(-2*t))")),
    )
    report = validate_mixture(spec, default_grid())
    assert report.passed and report.structural_ok and report.p_in_range
    assert report.issues == ()


def test_validate_flags_weight_sum():
    spec = _mix((0.5, 1, ExpRelax(0.5, 1.0)), (0.2, 2, ExpRelax(0.5, 1.0)))
    report = validate_mixture(spec, default_grid())
    assert not report.structural_ok
    assert any(i.kind == "weight-sum" for i in report.issues)


def test_validate_flags_negative_weight():
    spec = _mix((1.2, 1, ExpRelax(0.5, 1.0)), (-0.2, 2, ExpRelax(0.5, 1.0)))
    report = validate_mixture(spec, default_grid())
    assert any(i.kind == "weight" for i in report.issues)


def test_validate_flags_dimension_mismatch():
    spec = MixtureSpec(2, [(1.0, ChannelSpec(3, 1, ExpRelax(0.5, 1.0)))])
    report = validate_mixture(spec, default_grid())
    assert not report.structural_ok
    assert any(i.kind == "dimension" for i in report.issues)


def test_validate_locates_first_range_violation():
    # 1.2(1-e^{-t}) crosses 1 where e^{-t} = 1/6, i.e. t = ln 6.
    spec = _mix((1.0, 1, ExpRelax(1.2, 1.0)))
    report = validate_mixture(spec, default_grid())
    assert report.structural_ok and not report.p_in_range and not report.passed
    (issue,) = [i for i in report.issues if i.kind == "p-range"]
    assert issue.time == pytest.approx(math.log(6.0), abs=1e-9)


def test_validate_reports_domain_issue_with_time():
    times = np.linspace(0.0, 2.0, 65)
    f = SampledGrid(times, 0.5 * (1 - np.exp(-times)))
    spec = _mix((1.0, 1, f))
    report = validate_mixture(spec, default_grid(5.0, 64))
    assert not report.p_in_range
    (issue,) = [i for i in report.issues if i.kind == "p-domain"]
    assert issue.time is not None and issue.time > 2.0
