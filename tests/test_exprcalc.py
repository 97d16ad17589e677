"""Expression parsing and dual-number evaluation."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulimix import exprcalc
from paulimix.channelcore import Expression
from paulimix.exprcalc import Binary, Num, Unary, Var
from util import random_expression, reference_eval_dual


def ev(src, t):
    d = exprcalc.eval_dual(exprcalc.parse(src), t)
    return d.value, d.derivative


# ---------------------------------------------------------------------------
# Values and derivatives (hand-verified constants)
# ---------------------------------------------------------------------------


def test_identity_variable():
    assert ev("t", 3.0) == (3.0, 1.0)


def test_exponential_relaxation_at_ln3():
    # 0.75*(1 - e^{-t}) at t = ln 3: value 0.75*(2/3) = 1/2, slope 0.75/3 = 1/4
    value, deriv = ev("0.75*(1-exp(-t))", math.log(3.0))
    assert value == pytest.approx(0.5, abs=1e-15)
    assert deriv == pytest.approx(0.25, abs=1e-15)


def test_frozen_double_rate_point():
    value, deriv = ev("0.5*(1-exp(-2*t))", 0.5)
    assert value == 0.31606027941427883
    assert deriv == 0.36787944117144233


def test_unary_minus_binds_below_power():
    assert ev("-t^2", 3.0) == (-9.0, -6.0)


def test_power_is_right_associative():
    assert ev("2^3^2", 1.0)[0] == 512.0


def test_precedence_mul_over_add():
    assert ev("2*3+4", 0.0)[0] == 10.0
    assert ev("2+3*4", 0.0)[0] == 14.0


def test_division_and_chain():
    value, deriv = ev("t/(1+t)", 1.0)
    assert value == pytest.approx(0.5, abs=1e-15)
    assert deriv == pytest.approx(0.25, abs=1e-15)  # 1/(1+t)^2


def test_trig_derivatives():
    value, deriv = ev("sin(2*t)", 0.3)
    assert value == pytest.approx(math.sin(0.6), abs=1e-15)
    assert deriv == pytest.approx(2.0 * math.cos(0.6), abs=1e-15)
    value, deriv = ev("cos(t)^2", 0.7)
    assert value == pytest.approx(math.cos(0.7) ** 2, abs=1e-15)
    assert deriv == pytest.approx(-2.0 * math.cos(0.7) * math.sin(0.7), abs=1e-14)


def test_log_sqrt_derivatives():
    value, deriv = ev("ln(1+t^2)", 1.5)
    assert value == pytest.approx(math.log(3.25), abs=1e-15)
    assert deriv == pytest.approx(3.0 / 3.25, abs=1e-15)
    value, deriv = ev("sqrt(4+t)", 5.0)
    assert value == pytest.approx(3.0, abs=1e-15)
    assert deriv == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_negative_base_integer_power():
    value, deriv = ev("(-2)^3", 0.0)
    assert value == -8.0
    value, deriv = ev("(t-2)^2", 1.0)  # base negative, constant integer exponent
    assert value == 1.0
    assert deriv == -2.0


def test_variable_exponent_requires_positive_base():
    value, _ = ev("2^t", 3.0)
    assert value == pytest.approx(8.0, rel=1e-15)
    with pytest.raises(exprcalc.DomainError):
        ev("(-2)^t", 3.0)


def test_array_evaluation():
    d = exprcalc.eval_dual(exprcalc.parse("t^2"), np.array([1.0, 2.0, 3.0]))
    assert isinstance(d.value, np.ndarray)
    np.testing.assert_allclose(d.value, [1.0, 4.0, 9.0])
    np.testing.assert_allclose(d.derivative, [2.0, 4.0, 6.0])


def test_scalar_returns_floats():
    d = exprcalc.eval_dual(exprcalc.parse("exp(-t)"), 1.0)
    assert isinstance(d.value, float) and isinstance(d.derivative, float)


# ---------------------------------------------------------------------------
# Domain errors
# ---------------------------------------------------------------------------


def test_pole_reports_time():
    with pytest.raises(exprcalc.DomainError) as exc:
        ev("1/(1-t)", 1.0)
    assert exc.value.t == 1.0


def test_pole_reports_first_bad_time_in_array():
    ast = exprcalc.parse("1/(2-t)")
    with pytest.raises(exprcalc.DomainError) as exc:
        exprcalc.eval_dual(ast, np.array([0.0, 1.0, 2.0, 3.0]))
    assert exc.value.t == 2.0


def test_log_of_nonpositive():
    with pytest.raises(exprcalc.DomainError):
        ev("ln(t-2)", 1.0)


def test_sqrt_derivative_singular_at_zero():
    with pytest.raises(exprcalc.DomainError):
        ev("sqrt(t)", 0.0)


def test_fractional_power_of_negative_base():
    with pytest.raises(exprcalc.DomainError):
        ev("(t-5)^0.5", 1.0)


# ---------------------------------------------------------------------------
# Parse errors are positioned
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "source,position",
    [
        ("2**3", 2),
        ("(1+t", 4),
        ("", 0),
        ("2 + * 3", 4),
        ("foo(t)", 0),
        ("t t", 2),
        ("1..2", 0),
    ],
)
def test_parse_error_positions(source, position):
    with pytest.raises(exprcalc.ParseError) as exc:
        exprcalc.parse(source)
    assert exc.value.position == position


def test_unknown_character_rejected():
    with pytest.raises(exprcalc.ParseError):
        exprcalc.parse("t @ 2")


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@given(st.text(alphabet="t0123456789+-*/^(). ", max_size=24))
@settings(max_examples=300, deadline=None)
def test_parser_total_over_junk(source):
    # Every input either parses or raises a positioned ParseError; evaluation
    # of whatever parses either yields finite duals or a stamped DomainError.
    try:
        ast = exprcalc.parse(source)
    except exprcalc.ParseError as exc:
        assert 0 <= exc.position <= len(source)
        return
    try:
        d = exprcalc.eval_dual(ast, 1.25)
    except exprcalc.DomainError as exc:
        assert exc.t == 1.25
        return
    assert math.isfinite(d.value) and math.isfinite(d.derivative)


@given(st.integers(min_value=0, max_value=10_000), st.floats(0.1, 3.0))
@settings(max_examples=200, deadline=None)
def test_dual_derivative_matches_finite_differences(seed, t):
    rng = np.random.default_rng(seed)
    source = random_expression(rng)
    ast = exprcalc.parse(source)
    h = 1e-6
    d = exprcalc.eval_dual(ast, t)
    f_plus = exprcalc.eval_dual(ast, t + h).value
    f_minus = exprcalc.eval_dual(ast, t - h).value
    fd = (f_plus - f_minus) / (2.0 * h)
    assert d.derivative == pytest.approx(fd, rel=1e-5, abs=1e-5 * max(1.0, abs(fd)))


def test_parse_is_pure():
    ast1 = exprcalc.parse("1-exp(-t)")
    ast2 = exprcalc.parse("1-exp(-t)")
    assert ast1 == ast2


# ---------------------------------------------------------------------------
# The compiled evaluator against the reference tree walk
# ---------------------------------------------------------------------------


def outcome(evaluate, ast, t):
    """The result's types and bits, or the error's type, message and ``t``."""
    try:
        d = evaluate(ast, t)
    except exprcalc.DomainError as exc:
        return type(exc), str(exc), exc.t
    bits = [np.asarray(x, dtype=float).view(np.uint64).tolist() for x in (d.value, d.derivative)]
    return type(d.value), type(d.derivative), bits


def assert_matches_reference(ast, t):
    assert outcome(exprcalc.eval_dual, ast, t) == outcome(reference_eval_dual, ast, t)
    compiled = exprcalc.compile_ast(ast)
    assert outcome(exprcalc.eval_dual, compiled, t) == outcome(reference_eval_dual, ast, t)


TIMES = [
    1.25,
    0.0,
    np.array([0.75]),
    np.array([-1.0, 0.0, 2.5]),
    np.linspace(-3.0, 3.0, 1024),
]

SOURCES = [
    "t", "0", "2*3+4", "-t^2", "2^3^2", "(-2)^3", "(t-2)^2", "t^0", "(t-1)^-2",
    "t^-1", "t^0.5", "(t-5)^0.5", "2^t", "(0-2)^t", "t^t", "(1+t^2)^(sin(t))",
    "exp(-1.3*t)*(1-0.2*sin(1.1*t)^2)", "ln(1+t^2)", "ln(t)", "sqrt(t)",
    "sqrt(4+t)", "cos(t)/(1-t)", "1/(2-t)", "t/0", "ln(0-1)*t", "t+ln(0-1)",
    "t^ln(0-1)", "ln(t-5)+ln(0-1)", "sqrt(0)*t", "exp(1000)*t", "t*exp(1000)",
    "(2^0.5)^t", "0*sqrt((t-1)^2-1e-8)", "-(-0)*t", "1/(t-t)",
]


@pytest.mark.parametrize("source", SOURCES)
def test_compiled_evaluation_matches_the_tree_walk(source):
    ast = exprcalc.parse(source)
    for t in TIMES:
        assert_matches_reference(ast, t)


NUMBERS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 0.5, -1.0, 3.0, 1e-300, 1e300]),
    st.floats(-4.0, 4.0),
)
LEAVES = st.one_of(st.builds(Num, NUMBERS), st.just(Var()))


def extend(children):
    exponents = st.one_of(
        st.integers(-3, 4).map(lambda k: Num(float(k))),
        st.integers(1, 3).map(lambda k: Unary("neg", Num(float(k)))),
        st.floats(-2.5, 2.5).filter(lambda x: x != math.floor(x)).map(Num),
        st.builds(Binary, st.sampled_from(["*", "+"]), st.just(Var()), children),
        children,
    )
    return st.one_of(
        st.builds(Unary, st.sampled_from(["neg", "exp", "ln", "sin", "cos", "sqrt"]), children),
        st.builds(Binary, st.sampled_from(["+", "-", "*", "/"]), children, children),
        st.builds(lambda b, e: Binary("^", b, e), children, exponents),
    )


@st.composite
def evaluation_times(draw):
    size = draw(st.sampled_from([None, 1, 3, 1024]))
    if size is None:
        return draw(st.floats(-3.0, 3.0))
    if size == 1024:
        lo = draw(st.floats(-3.0, 3.0))
        return np.linspace(lo, lo + draw(st.floats(0.0, 6.0)), size)
    return np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=size, max_size=size)))


@settings(max_examples=400, deadline=None)
@given(st.recursive(LEAVES, extend, max_leaves=10), evaluation_times())
def test_random_trees_match_the_tree_walk_bit_for_bit(ast, t):
    assert_matches_reference(ast, t)


def test_expression_pickles_to_equal_values_and_derivatives():
    f = Expression("0.5*sin(t)^2")
    g = pickle.loads(pickle.dumps(f))
    assert g == f and hash(g) == hash(f) and repr(g) == repr(f)
    t = np.linspace(0.0, 5.0, 257)
    for a, b in zip(f.value_and_derivative(t), g.value_and_derivative(t)):
        assert a.tobytes() == b.tobytes()
