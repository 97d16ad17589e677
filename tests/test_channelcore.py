"""Decoherence functions, channel/mixture specs, and validation."""

import ast
import math
import pathlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

import paulimix
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
from paulimix import semigroupforge
from paulimix.channelcore import _bisect, _Functions
from paulimix.exprcalc import DomainError
from util import reference_bisect


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
    with pytest.raises(ValueError, match="need at least 3 samples"):
        SampledGrid(np.array([0.0, 1.0]), np.array([0.0, 0.5]))
    with pytest.raises(ValueError, match="sample times must start at 0, got "):
        SampledGrid(np.array([0.1, 1.0, 2.0]), np.zeros(3))
    with pytest.raises(ValueError, match="strictly ascending"):
        SampledGrid(np.array([0.0, 1.0, 0.5]), np.zeros(3))
    with pytest.raises(ValueError, match="strictly ascending"):
        SampledGrid(np.array([0.0, 1.0, 1.0]), np.zeros(3))  # a repeated time
    with pytest.raises(ValueError, match="must vanish at t=0, got "):
        SampledGrid(np.array([0.0, 1.0, 2.0]), np.array([0.3, 0.5, 0.6]))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="samples must be finite"):
            SampledGrid(np.array([0.0, bad, 2.0]), np.zeros(3))
        with pytest.raises(ValueError, match="samples must be finite"):
            SampledGrid(np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.5, bad]))
    # a NaN first time fails the finiteness check, not the start-at-0 check
    with pytest.raises(ValueError, match="samples must be finite"):
        SampledGrid(np.array([math.nan, 1.0, 2.0]), np.zeros(3))
    equal_length = "times and values must be 1-d arrays of equal length"
    with pytest.raises(ValueError, match=equal_length):
        SampledGrid(np.array([0.0, 1.0, 2.0]), np.zeros((3, 1)))
    with pytest.raises(ValueError, match=equal_length):
        SampledGrid(np.array([0.0, 1.0, 2.0]), np.zeros((1, 3)))
    with pytest.raises(ValueError, match=equal_length):
        SampledGrid(np.array([0.0, 1.0, 2.0]), np.zeros(4))
    with pytest.raises(ValueError, match=equal_length):
        SampledGrid(np.array([0.0, 1.0, 2.0, 3.0]), np.zeros(3))


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


# Sampled grids: every grid, stacked in a table or alone, evaluated on a
# common grid or pointwise, gives the bits of scipy's own PCHIP build of it.

# Flat runs, sign changes and mixed slopes reach PCHIP's edge cases; the
# smallest doubles make slopes whose harmonic mean overflows.
_SAMPLE_VALUE = st.one_of(
    st.sampled_from([0.0, 0.5, -0.5, 1.0, 5e-324, -5e-324, 1e-310]),
    st.floats(min_value=-10.0, max_value=10.0),
)


@st.composite
def _sample_times(draw, size):
    steps = draw(st.lists(st.floats(min_value=1e-3, max_value=2.0), min_size=size - 1,
                          max_size=size - 1))
    return np.concatenate([[0.0], np.cumsum(steps)])


def _drawn_table(d: int, seed: int) -> _Functions:
    """The function table of a block of theorem-scan mixtures."""
    return semigroupforge._draw(np.random.default_rng(seed), d, 6, 2, d + 1, 0.05).functions


@st.composite
def _sampled_batch(draw):
    """Grids on two different sample-time arrays, one of them evaluated
    alone beforehand, and the sampled grids of a scanner draw."""
    size = draw(st.integers(3, 12))
    times = [draw(_sample_times(size)), draw(_sample_times(draw(st.integers(3, 12))))]
    grids = []
    for k in draw(st.lists(st.sampled_from([0, 1]), max_size=6)) + [0, 1]:
        tail = st.lists(_SAMPLE_VALUE, min_size=times[k].size - 1, max_size=times[k].size - 1)
        grids.append(SampledGrid(times[k], [0.0] + draw(tail)))
    table = _drawn_table(draw(st.sampled_from([2, 5, 31])), draw(st.integers(0, 2**32 - 1)))
    grids += [table.build(i) for i in np.flatnonzero(table.sampled())[:3]]
    built = grids.pop(draw(st.integers(0, len(grids) - 1)))
    built.value(0.0)
    grids.insert(draw(st.integers(0, len(grids))), built)
    return grids


def _scipy(g: SampledGrid, t):
    """``(p, p')`` of scipy's PCHIP build of ``g`` at ``t``."""
    ref = PchipInterpolator(g.times, g.values, extrapolate=False)
    return ref(t), ref.derivative()(t)


# Slopes near the smallest doubles overflow inside PCHIP's harmonic mean, in
# scipy's build as much as in the kernel.
@pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(_sampled_batch(), st.floats(min_value=0.0, max_value=1.0))
def test_stacked_interpolants_replay_per_grid_builds(grids, fraction):
    # A table stacks the grids of each sample-time array into one value
    # matrix; the whole table, each grid's table of one (a stack of one
    # row), and each grid alone all give the bits of scipy's per-grid build,
    # at every sample (the last included) and between.
    table, rows = _Functions.of(grids + grids[:1])
    assert rows[-1] == rows[0]
    common_end = min(float(g.times[-1]) for g in grids)
    knots = np.concatenate([g.times[g.times <= common_end] for g in grids])
    common = np.concatenate([np.linspace(0.0, common_end, 29), knots])
    stacked = table.evaluate(common)
    for g, i in zip(grids, rows):
        assert _bits(stacked[:, i]) == _bits(_scipy(g, common))
        end = float(g.times[-1])
        probe = np.concatenate([g.times, np.linspace(0.0, end, 29)])
        expected = _bits(_scipy(g, probe))
        assert _bits(_Functions.of([g])[0].evaluate(probe)[:, 0]) == expected
        assert _bits(g.value_and_derivative(probe)) == expected
        for t in (fraction * end, float(g.times[1]), end):
            got = g.value_and_derivative(t)
            assert all(type(x) is float for x in got)
            assert _bits(got) == _bits(tuple(float(x) for x in _scipy(g, t)))
        with pytest.raises(DomainError) as exc:
            g.value(np.array([0.0, end + 1.0]))
        assert exc.value.t == end + 1.0


def test_an_overflowing_harmonic_mean_warns_as_in_scipy():
    # Slopes of 5e-324 overflow w/m in the harmonic mean, and a flat run
    # divides by 0 there; the warnings are scipy's, no more and no fewer.
    times = np.arange(5.0)
    values = np.array([0.0, 5e-324, 5e-324, 1e-323, 1.5e-323])
    caught = []
    for evaluate in (lambda: _scipy(SampledGrid(times, values), 1.5),
                     lambda: SampledGrid(times, values).value_and_derivative(1.5)):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            evaluate()
        caught.append([(w.category, str(w.message)) for w in seen])
    assert caught[0] == caught[1] == [(RuntimeWarning, "overflow encountered in divide")] * 2


@pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(_sampled_batch(), st.sampled_from([2, 5, 31]), st.integers(0, 2**32 - 1), st.data())
def test_pointwise_interpolants_replay_per_grid_builds(grids, d, seed, data):
    # ``at`` evaluates one (function, time) pair per point: functions of
    # every family in any order, each as often as drawn, at samples (the
    # last included) and between, each pair twice.  Every sampled point has
    # the bits of scipy's build of its grid, every other point those of its
    # function alone.  Both a table of objects and a scanner draw's own
    # table are probed.
    objects = _Functions.of(grids + [ExpRelax(0.5, 1.0), ProductTemplate(0.5, 1.0, 0.2, 0.7)])[0]
    for table in (objects, _drawn_table(d, seed)):
        functions = [table.build(i) for i in range(table.size)]
        rows = data.draw(st.lists(st.integers(0, table.size - 1), min_size=1, max_size=30))
        times = []
        for i in rows:
            f = functions[i]
            end = float(f.times[-1]) if isinstance(f, SampledGrid) else 5.0
            on_sample = st.sampled_from(f.times.tolist()) if isinstance(f, SampledGrid) else st.just(end)
            times.append(data.draw(st.one_of(on_sample, st.floats(min_value=0.0, max_value=end))))
        rows, times = np.array(rows * 2), np.array(times * 2)
        expected = np.empty((2, rows.size))
        for k, (i, t) in enumerate(zip(rows, times)):
            f = functions[i]
            pair = _scipy(f, t) if isinstance(f, SampledGrid) else f.value_and_derivative(t)
            expected[:, k] = pair
        assert _bits(table.at(rows, times)) == _bits(expected)


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
    got = re.escape(f"must be finite and nonnegative, got {bad!r}")
    with pytest.raises(ValueError, match="^ProductTemplate depth " + got):
        ProductTemplate(0.5, 1.0, bad, 1.0)
    with pytest.raises(ValueError, match="^ProductTemplate scale " + got):
        ProductTemplate(bad, 1.0, 0.1, bad)  # the first bad field is named
    with pytest.raises(ValueError, match="^DifferenceTemplate rate " + got):
        DifferenceTemplate(0.5, bad, 0.1, 1.0)
    with pytest.raises(ValueError, match="^DifferenceTemplate rate2 " + got):
        DifferenceTemplate(0.5, 1.0, 0.1, bad)


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


@pytest.mark.parametrize(
    "weights, nonfinite",
    [((math.nan, 1.0), [1]), ((1.0, math.inf), [2]), ((math.inf, -math.inf), [1, 2])],
)
def test_validate_flags_a_nonfinite_weight(weights, nonfinite):
    # A NaN weight compares false against every bound, and inf + -inf sums
    # to NaN: each is a weight issue, and the sum is off the simplex.
    spec = _mix((weights[0], 1, ExpRelax(0.5, 1.0)), (weights[1], 2, ExpRelax(0.5, 1.0)))
    report = validate_mixture(spec, default_grid())
    assert not report.passed and not report.structural_ok
    flagged = [i for i in report.issues if i.kind == "weight"]
    assert [i.component for i in flagged] == nonfinite
    assert all(i.message.endswith("is not finite") for i in flagged)
    assert [i.kind for i in report.issues].count("weight-sum") == 1


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


_SAMPLE_TIMES = np.linspace(0.0, 5.0, 41)
_EVERY_KIND = {
    "exp_relax": ExpRelax(0.7, 1.3),
    "product": ProductTemplate(0.6, 1.3, 0.2, 1.1),
    "difference": DifferenceTemplate(0.9, 1.2, 0.3, 2.5),
    "expression": Expression(
        "0.3*(1-exp(-1.7*t)) + 0.1*ln(1+t^2) + 0.05*sin(3*t)^2 + 0.05*(1-cos(t))"
        " + 0.1*(sqrt(1+t)-1) + 0.01*((1+t)^2.5-1) + 0.01*((1+t)^t-1)"
    ),
    "samples": SampledGrid(_SAMPLE_TIMES, 0.5 * (1 - np.exp(-_SAMPLE_TIMES))),
}


@pytest.mark.parametrize("kind", list(_EVERY_KIND))
def test_a_value_does_not_depend_on_its_position_in_the_array(kind):
    # Bisection rounds evaluate a point among others, at any position of
    # arrays of any length (a SIMD loop's body or its tail): its value must
    # have the bits that it has alone.  A value is the value plane of the
    # dual pair, for a scalar and an array alike.
    func = _EVERY_KIND[kind]
    rng = np.random.default_rng(15)
    others = rng.uniform(0.0, 5.0, 40)
    assert func.value(others).tobytes() == func.value_and_derivative(others)[0].tobytes()
    for t in np.concatenate([[0.0, 5.0, 1.0 / 3.0], rng.uniform(0.0, 5.0, 5)]):
        alone = np.float64(func.value(float(t))).tobytes()
        assert np.float64(func.value_and_derivative(float(t))[0]).tobytes() == alone
        assert func.value(np.array([t])).tobytes() == alone
        assert func.value_and_derivative(np.array([t]))[0].tobytes() == alone
        for size in range(1, 41):
            for at in range(size):
                times = others[:size].copy()
                times[at] = t
                assert func.value(times)[at].tobytes() == alone, (size, at)


# ---------------------------------------------------------------------------
# Bisection in rounds against the one-halving-at-a-time reference
# ---------------------------------------------------------------------------


@st.composite
def bisection_cases(draw):
    """``(f, rows, lo, hi, flo, xtol)`` for up to six brackets of widths from
    1 down to 2**-40, so that they retire at different halvings.  Row ``r``
    is ``slope*(t - c)``, with ``c`` the midpoint of the bracket's halving
    ``depth`` (an exact zero there, at any level of a round), optionally
    NaN below a cut or folded into several roots by a sine.  ``flo`` may
    disagree with ``f(lo)`` or be NaN; ``f`` may raise in small holes."""
    size = draw(st.integers(0, 6))
    lo, hi, flo, pieces = [], [], [], []
    for _ in range(size):
        a = draw(st.floats(0.0, 8.0))
        b = a + 2.0 ** -draw(st.integers(0, 40))
        x, y = a, b
        for right in draw(st.lists(st.booleans(), max_size=14)):
            m = 0.5 * (x + y)
            x, y = (m, y) if right else (x, m)
        c = 0.5 * (x + y)
        slope = draw(st.sampled_from([1.0, -1.0, 3.0, -0.25]))
        shape = draw(st.sampled_from(["line", "line", "nan-below", "sine"]))
        cut = draw(st.floats(a, b))
        lo.append(a)
        hi.append(b)
        pieces.append((shape, c, slope, cut, 40.0 / (b - a)))
        flo.append(draw(st.sampled_from([slope * (a - c), -1.0, 1.0, 0.0, math.nan])))
    anchors = lo + hi + [piece[1] for piece in pieces]
    holes = draw(st.lists(st.sampled_from(anchors), max_size=2)) if size else []
    holes = [h + draw(st.floats(-0.5, 0.5)) * 2.0 ** -draw(st.integers(0, 40)) for h in holes]
    radius = draw(st.sampled_from([1e-9, 1e-4, 1e-2]))

    def f(rows, ts):
        assert rows.tolist() == sorted(rows.tolist())
        out = []
        for row, t in zip(rows.tolist(), ts.tolist()):
            if any(abs(t - h) < radius for h in holes):
                raise ArithmeticError(f"hole at t={t!r}, row {row}")
            shape, c, slope, cut, freq = pieces[row]
            if shape == "nan-below" and t < cut:
                out.append(math.nan)
            elif shape == "sine":
                out.append(math.sin(freq * (t - c)))
            else:
                out.append(slope * (t - c))
        return np.array(out)

    xtol = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]))
    return f, np.arange(size), np.array(lo), np.array(hi), np.array(flo), xtol


def _outcome(bisect, f, rows, lo, hi, flo, xtol):
    try:
        return bisect(f, rows, lo.copy(), hi.copy(), flo.copy(), xtol).tobytes()
    except ArithmeticError as err:
        return str(err)


@settings(max_examples=300, deadline=None)
@given(bisection_cases())
def test_rounds_replay_plain_bisection_bit_for_bit(case):
    # Every root has the reference's bits, and an error is the one that
    # one-halving-at-a-time bisection meets first (xtol = 0 runs into the
    # 200-halving cap).
    assert _outcome(_bisect, *case) == _outcome(reference_bisect, *case)



# The function table's format: channelcore alone names its families.

_FAMILY_NAMES = {"_ClosedForms", "_Samples", "_Lone", "_entry"}


def test_only_channelcore_names_the_function_families():
    package = pathlib.Path(paulimix.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert "channelcore.py" in [m.name for m in modules]
    for path in modules:
        if path.name == "channelcore.py":
            continue
        named = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.update([node.name, node.asname])
        assert not named & _FAMILY_NAMES, f"{path.name} names {sorted(named & _FAMILY_NAMES)}"
