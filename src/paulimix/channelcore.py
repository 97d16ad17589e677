"""Decoherence functions, dephasing channels, and their convex mixtures.

A channel here is the generalized Pauli (MUB dephasing) channel

    E_alpha^p(rho) = (1 - p) rho + (p/(d-1)) sum_{k=1}^{d-1} U_alpha^k rho U_alpha^{k+},

driven by a time-dependent mixing probability ``p(t)`` with ``p(0) = 0``.
On the operator ``U_beta^m`` it acts by the scalar

    lambda = 1                      for beta == alpha,
    lambda = 1 - (d/(d-1)) p(t)     for beta != alpha,

which is everything the spectral layer needs to know about it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from types import SimpleNamespace
from typing import ClassVar, Optional, Sequence, Tuple

import numpy as np

from . import exprcalc
from .exprcalc import DomainError
from .mubgen import check_dimension

__all__ = [
    "DecoherenceFunction",
    "ExpRelax",
    "Expression",
    "ProductTemplate",
    "DifferenceTemplate",
    "SampledGrid",
    "ChannelSpec",
    "MixtureComponent",
    "MixtureSpec",
    "ValidationIssue",
    "MixtureValidation",
    "MixtureValidationError",
    "validate_mixture",
    "single_channel_eigenvalues",
]

_P_INITIAL_TOL = 1e-9
_WEIGHT_SUM_TOL = 1e-12
_RANGE_SLACK = 1e-12


class DecoherenceFunction:
    """Base class: a mixing probability ``p(t)`` with ``p(0) = 0``."""

    kind: ClassVar[str]  # the ``kind`` key of ``describe()`` and of configs

    def value_and_derivative(self, t):
        """Return ``(p(t), dp/dt)``; floats for scalar ``t``, arrays for arrays."""
        raise NotImplementedError

    def value(self, t):
        """``p(t)`` alone: ``value_and_derivative(t)[0]``, for every class.
        A function is evaluated only as its dual pair, so its value is
        always the value plane of that pair, bit for bit."""
        return self.value_and_derivative(t)[0]

    def as_expression(self) -> str:
        """Source text that ``Expression`` parses to this function."""
        raise TypeError(f"{type(self).__name__} has no closed-form expression")

    def describe(self) -> dict:
        """JSON/config-ready description of the function."""
        raise NotImplementedError


@dataclass(frozen=True)
class ExpRelax(DecoherenceFunction):
    """Exponential relaxation ``p(t) = scale * (1 - exp(-rate*t))``, with a
    finite ``scale`` and a finite ``rate > 0``."""

    kind = "exp_relax"
    scale: float
    rate: float

    def __post_init__(self):
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise ValueError(
                f"relaxation rate must be positive and finite, got {self.rate!r}"
            )
        if not math.isfinite(self.scale):
            raise ValueError(f"relaxation scale must be finite, got {self.scale!r}")

    def value_and_derivative(self, t):
        arr = np.asarray(t, dtype=float)
        p, dp = self._dual(arr)
        if arr.ndim == 0:
            return float(p), float(dp)
        return p, dp

    def _dual(self, t):
        decay = np.exp(-self.rate * t)
        return self.scale * (1.0 - decay), self.scale * self.rate * decay

    def as_expression(self) -> str:
        return f"{self.scale!r}*(1-exp(-{self.rate!r}*t))"

    def describe(self) -> dict:
        return {"kind": self.kind, "scale": self.scale, "rate": self.rate}


@dataclass(frozen=True)
class Expression(DecoherenceFunction):
    """A decoherence function given by an expression in ``t`` (see ``exprcalc``)."""

    kind = "expression"
    source: str

    def __post_init__(self):
        ast = exprcalc.parse(self.source)
        object.__setattr__(self, "_ast", ast)
        object.__setattr__(self, "_run", exprcalc.compile_ast(ast))
        p0 = exprcalc.eval_dual(self._run, 0.0).value  # type: ignore[attr-defined]
        if abs(p0) > _P_INITIAL_TOL:
            raise ValueError(
                f"decoherence function must vanish at t=0, got p(0)={p0:g} "
                f"for {self.source!r}"
            )

    def __reduce__(self):
        # The compiled closures do not pickle; the source rebuilds them.
        return type(self), (self.source,)

    @property
    def ast(self) -> exprcalc.ExprAst:
        return self._ast  # type: ignore[attr-defined]

    def value_and_derivative(self, t):
        dual = exprcalc.eval_dual(self._run, t)  # type: ignore[attr-defined]
        return dual.value, dual.derivative

    def as_expression(self) -> str:
        return self.source

    def describe(self) -> dict:
        return {"kind": self.kind, "formula": self.source}


class _Template(DecoherenceFunction):
    """A closed form that replays ``Expression(self.as_expression())``.

    ``value_and_derivative`` performs, on the same numpy arrays, exactly the
    operations that ``exprcalc.eval_dual`` performs on the parsed formula
    (a scalar ``t`` becomes a 1-element array, as there), so values and
    derivatives equal the parsed formula's bit for bit, signed zeros
    included, with no parsing and no tree walk.  Parameters must be finite
    and nonnegative; they are stored as Python floats, whose ``repr`` the
    formula spells.
    """

    kind = "expression"

    def __post_init__(self):
        for name in self.__dataclass_fields__:  # the parameters, in order
            value = float(getattr(self, name))
            if not math.isfinite(value) or math.copysign(1.0, value) < 0:
                raise ValueError(
                    f"{type(self).__name__} {name} must be finite and "
                    f"nonnegative, got {value!r}"
                )
            object.__setattr__(self, name, value)

    def value_and_derivative(self, t):
        arr = np.asarray(t, dtype=float)
        if arr.ndim == 0:
            p, dp = self._dual(arr.reshape(1))
            return float(p[0]), float(dp[0])
        return self._dual(arr)

    def _dual(self, t: np.ndarray):
        raise NotImplementedError

    def describe(self) -> dict:
        return {"kind": self.kind, "formula": self.as_expression()}


def _scaled_relax(scale: float, rate: float, t: np.ndarray):
    """Dual value of the parsed ``scale*(1-exp(-rate*t))``."""
    e = np.exp(-rate * t)
    de = e * (-0.0 * t + -rate)
    a = 1.0 - e
    da = 0.0 - de
    return scale * a, 0.0 * a + scale * da


@dataclass(frozen=True)
class ProductTemplate(_Template):
    """``p(t) = scale*(1-exp(-rate*t))*(1-depth*sin(freq*t)^2)``, in closed form."""

    scale: float
    rate: float
    depth: float
    freq: float

    def _dual(self, t):
        sa, dsa = _scaled_relax(self.scale, self.rate, t)
        ft = self.freq * t
        dft = 0.0 * t + self.freq
        sn = np.sin(ft)
        dsn = np.cos(ft) * dft
        sq = sn**2.0
        dsq = 2.0 * sn**1.0 * dsn
        b = 1.0 - self.depth * sq
        db = 0.0 - (0.0 * sq + self.depth * dsq)
        return sa * b, dsa * b + sa * db

    def as_expression(self) -> str:
        return (
            f"{self.scale!r}*(1-exp(-{self.rate!r}*t))"
            f"*(1-{self.depth!r}*sin({self.freq!r}*t)^2)"
        )


@dataclass(frozen=True)
class DifferenceTemplate(_Template):
    """``p(t) = scale*(1-exp(-rate*t)) - m*(1-exp(-rate2*t))``, in closed form."""

    scale: float
    rate: float
    m: float
    rate2: float

    def _dual(self, t):
        sa, dsa = _scaled_relax(self.scale, self.rate, t)
        mb, dmb = _scaled_relax(self.m, self.rate2, t)
        return sa - mb, dsa - dmb

    def as_expression(self) -> str:
        return (
            f"{self.scale!r}*(1-exp(-{self.rate!r}*t)) "
            f"- {self.m!r}*(1-exp(-{self.rate2!r}*t))"
        )


@dataclass(frozen=True, eq=False)
class SampledGrid(DecoherenceFunction):
    """Sampled values on an ascending time grid, monotone-cubic interpolated.

    Interpolation is shape-preserving cubic (PCHIP, Fritsch & Butland 1984,
    with Moler's one-sided end slopes); the derivative comes from the
    interpolant itself, not from finite differences of the samples.
    Evaluation outside the sampled range is a domain error.  The samples are
    validated on construction.  Evaluated alone, the grid computes its own
    knot derivatives on first use (:func:`_knots`); a function table instead
    stacks the values of its grids on shared sample times and computes them
    once for all (:class:`_Samples`).  Both evaluate through :func:`_pchip`,
    which works row by row, so each row has the bits of the grid alone, and
    both give bit for bit what scipy's PCHIP interpolator and its
    ``derivative()`` give.
    """

    kind = "samples"
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or values.ndim != 1 or times.size != values.size:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if times.size < 3:
            raise ValueError("need at least 3 samples")
        if not (np.isfinite(times).all() and np.isfinite(values).all()):
            raise ValueError("samples must be finite")
        if times[0] != 0.0:
            raise ValueError(f"sample times must start at 0, got {times[0]!r}")
        if not (times[1:] > times[:-1]).all():
            raise ValueError("sample times must be strictly ascending")
        if abs(values[0]) > _P_INITIAL_TOL:
            raise ValueError(f"decoherence function must vanish at t=0, got {values[0]!r}")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_knots", None)  # computed on first use

    def value_and_derivative(self, t):
        clipped = _clip(self.times, t)
        values = self.values[None]  # a stack of one row
        if self._knots is None:  # type: ignore[attr-defined]
            object.__setattr__(self, "_knots", _knots(self.times, values))
        p, dp = _pchip(self.times, values, self._knots, 0, clipped)  # type: ignore[attr-defined]
        if clipped.ndim == 0:
            return float(p), float(dp)
        return p, dp

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "times": [float(x) for x in self.times],
            "values": [float(x) for x in self.values],
        }


def _clip(times: np.ndarray, t) -> np.ndarray:
    """``t`` as a float array clipped to the range of the sample ``times``,
    which it may exceed by the range slack only."""
    arr = np.asarray(t, dtype=float)
    lo, hi = times[0], times[-1]
    out = (arr < lo - _RANGE_SLACK) | (arr > hi + _RANGE_SLACK)
    if np.any(out):
        bad = float(np.atleast_1d(arr)[np.atleast_1d(out)][0])
        raise DomainError("time outside sampled range", bad)
    return np.clip(arr, lo, hi)


def _knots(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The PCHIP derivatives at the samples of each row of ``values``
    (shape ``(G, n)``) on the sample ``times``, computed with the operations
    of scipy's PCHIP ``_find_derivatives`` and ``_edge_case`` in the same
    order, along the last axis.  Inside, a derivative is 0 where the
    slopes on either side differ in sign or one of them is 0, and their
    weighted harmonic mean elsewhere.  At each end it is the one-sided
    three-point slope, set to 0 if its sign is not that of the end slope
    ``m0``, else to ``3*m0`` if the first two slopes differ in sign and it
    exceeds ``3*|m0|``."""
    h = times[1:] - times[:-1]
    m = (values[:, 1:] - values[:, :-1]) / h
    sign = np.sign(m)
    flat = (sign[:, 1:] != sign[:, :-1]) | (m[:, 1:] == 0) | (m[:, :-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    # Division by 0 lands only where ``flat`` discards it; an overflow warns.
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = (w1 / m[:, :-1] + w2 / m[:, 1:]) / (w1 + w2)
    d = np.zeros_like(values)
    d[:, 1:-1][~flat] = 1.0 / mean[~flat]
    for end, h0, h1, m0, m1 in ((0, h[0], h[1], m[:, 0], m[:, 1]),
                                (-1, h[-1], h[-2], m[:, -1], m[:, -2])):
        one_sided = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        turned = np.sign(one_sided) != np.sign(m0)
        steep = (np.sign(m0) != np.sign(m1)) & (np.abs(one_sided) > 3.0 * np.abs(m0))
        d[:, end] = np.where(turned, 0.0, np.where(steep, 3.0 * m0, one_sided))
    return d


def _pchip(times: np.ndarray, values: np.ndarray, knots: np.ndarray, rows, t: np.ndarray):
    """``[p, p']`` of row ``rows`` of ``values`` at ``t`` (within the sample
    range), ``rows`` and ``t`` broadcast together, given the rows'
    derivatives ``knots`` (:func:`_knots`).  Only the interval of each
    point is formed: its step and slope as :func:`_knots` forms them, its
    coefficients as scipy's cubic Hermite spline forms them, and the sums
    as scipy's piecewise-polynomial evaluation sums the value and the
    ``derivative()`` polynomial, power by power from the constant term;
    so both are bit for bit what scipy's PCHIP interpolator of the row and
    its ``derivative()`` give.  A point on a sample lies in the interval
    that starts there, the last sample in the last interval."""
    n = times.size
    i = np.minimum(np.searchsorted(times, t, side="right") - 1, n - 2)
    at = rows * n + i  # (row, i) in the flattened (G, n) arrays
    t0 = times.take(i)
    h = times.take(i + 1) - t0
    y, d0, d1 = values.take(at), knots.take(at), knots.take(at + 1)
    m = (values.take(at + 1) - y) / h
    bend = (d0 + d1 - 2 * m) / h
    c0 = bend / h
    c1 = (m - d0) / h - bend
    s = t - t0
    s2 = s * s
    value = ((0.0 + y) + d0 * s) + c1 * s2 + c0 * (s2 * s)
    derivative = ((0.0 + d0) + (2.0 * c1) * s) + (3.0 * c0) * s2
    return value, derivative


# A function family holds G functions as arrays and evaluates them together.
# Calling it on a 1-d ``t`` returns ``[p, p']``, each plane of shape
# ``(G, t.size)`` and bit for bit what each member's ``value_and_derivative``
# returns alone; ``at(members, t)`` returns ``[p, p']`` of member
# ``members[k]`` at ``t[k]``, shape ``(t.size,)`` each, also bit for bit.
# ``build(k)`` is member ``k`` as an object.  A family checks nothing: its
# members come from objects that their constructors checked, or from the
# scanners' draws, which are valid by construction.


class _ClosedForms:
    """Functions of one closed-form class ``kind`` (``ExpRelax`` or a
    template) as ``(G, 1)`` parameter columns.  ``_dual(self, t)`` of these
    classes reads only its parameters from ``self``, so on the columns it
    evaluates all G at once, each row by its own function's operations."""

    sampled = False

    def __init__(self, kind, given):
        self.kind = kind
        self.given = given  # each member's parameters, as given, in field order
        self._names = [f.name for f in fields(kind)]
        self.params = np.array(given, dtype=float).reshape(len(given), len(self._names))
        self._columns = SimpleNamespace(
            **{name: self.params[:, i : i + 1].copy() for i, name in enumerate(self._names)}
        )

    def __call__(self, t):
        return self.kind._dual(self._columns, t)

    def at(self, members, t):
        # The same operations, elementwise, with each point's own parameters.
        points = SimpleNamespace(
            **{name: self.params[members, i] for i, name in enumerate(self._names)}
        )
        return self.kind._dual(points, t)

    def build(self, k):
        return self.kind(*self.given[k])


class _Samples:
    """Sampled grids on shared sample ``times``: one value matrix ``params``
    (a row per grid) and its PCHIP :func:`_knots`, computed on first use.
    Each grid is a row of :func:`_pchip`, so it has the bits of the grid
    evaluated alone, which are scipy's PCHIP interpolator's."""

    kind = SampledGrid
    sampled = True

    def __init__(self, times, params):
        self.times = times
        self.params = params
        self._knots = None

    def __call__(self, t):
        return self.at(np.arange(len(self.params))[:, None], t)

    def at(self, members, t):
        if self._knots is None:
            self._knots = _knots(self.times, self.params)
        return _pchip(self.times, self.params, self._knots, members, _clip(self.times, t))

    def build(self, k):
        return SampledGrid(self.times, self.params[k])


class _Lone:
    """One function of any other kind, evaluated alone."""

    def __init__(self, f: DecoherenceFunction):
        self.kind = type(f)
        self.f = f
        self.sampled = isinstance(f, SampledGrid)

    def __call__(self, t):
        return self.f.value_and_derivative(t)

    def at(self, members, t):
        return self.f.value_and_derivative(t)

    def build(self, k):
        return self.f


_CLOSED_FORMS = (ExpRelax, ProductTemplate, DifferenceTemplate)


def _entry(f: DecoherenceFunction) -> tuple:
    """``f`` as a table entry (see :meth:`_Functions.of_entries`)."""
    kind = type(f)
    if kind is SampledGrid:
        return kind, (f.times, f.values)
    if kind in _CLOSED_FORMS:
        params = tuple(vars(f).values())  # in field order
        if all(isinstance(v, float) for v in params):
            return kind, params
    return None, f


class _Functions:
    """A table of decoherence functions, row ``i`` function ``i``, held by
    ``families``: ``(rows, family)`` pairs, in order of each family's first
    row, that evaluate them a family at a time.  Each closed form in
    ``_CLOSED_FORMS`` with float parameters joins one :class:`_ClosedForms`
    per class, sampled grids one :class:`_Samples` per array of sample
    times, and any other function is alone (:class:`_Lone`)."""

    def __init__(self, size: int, families: list):
        self.size = size
        self.families = families
        self._members = None  # per function: its family and its place there

    @classmethod
    def of_entries(cls, entries: Sequence[tuple]) -> "_Functions":
        """The table whose row ``i`` is ``entries[i]``: ``(class, constructor
        arguments)``, or ``(None, f)`` for a function ``f`` evaluated alone.
        A sampled grid's arguments are ``(times, values)``."""
        groups: dict = {}
        for i, (kind, args) in enumerate(entries):
            shared = args[0].tobytes() if kind is SampledGrid else None  # the sample times
            groups.setdefault((kind, i if kind is None else shared), []).append(i)
        columns = []
        for (kind, _), rows in groups.items():
            members = [entries[i][1] for i in rows]
            if kind is SampledGrid:
                members = (members[0][0], np.stack([values for _, values in members]))
            elif kind is None:
                (members,) = members
            columns.append((kind, np.array(rows, dtype=np.intp), members))
        return cls.of_columns(len(entries), columns)

    @classmethod
    def of_columns(cls, size: int, columns: Sequence[tuple]) -> "_Functions":
        """The table of ``size`` functions given a family at a time:
        ``(kind, rows, members)`` for the functions ``rows`` of one family.
        A closed form's ``members`` are its functions' parameters, a row
        each in field order; a sampled grid's are ``(times, values)``,
        shared sample times and a value row per grid; ``(None, [i], f)``
        is a function ``f`` evaluated alone."""
        families = []
        for kind, rows, members in columns:
            if kind is SampledGrid:
                family = _Samples(*members)
            elif kind is not None:
                family = _ClosedForms(kind, members)
            else:
                family = _Lone(members)
            families.append((rows, family))
        families.sort(key=lambda pair: pair[0][0])
        return cls(size, families)

    @classmethod
    def of(cls, functions: Sequence[DecoherenceFunction]):
        """The table of the distinct ``functions``, in first-use order, and
        the row of each of them.  Functions that compare equal share a row;
        a ``SampledGrid``, and any unhashable function, compares by
        identity."""
        index: dict = {}
        distinct, rows = [], []
        for f in functions:
            try:
                i = index.setdefault(f, len(distinct))
            except TypeError:  # unhashable: keyed by identity
                i = index.setdefault(("id", id(f)), len(distinct))
            if i == len(distinct):
                distinct.append(f)
            rows.append(i)
        return cls.of_entries([_entry(f) for f in distinct]), rows

    def evaluate(self, times: np.ndarray) -> np.ndarray:
        """Values ``[p, p']`` of every function, shape ``(2, F, n)``, bit for
        bit as each returns them alone.  If a family raises, the functions
        run again one by one in table order, so the first function that
        fails alone raises its own error."""
        out = np.empty((2, self.size, times.size))
        try:
            for rows, family in self.families:
                for plane, value in zip(out, family(times)):
                    plane[rows] = value
        except Exception:
            if self.size > 1:
                for i in range(self.size):
                    self.build(i).value_and_derivative(times)
            raise
        return out

    def _located(self):
        if self._members is None:
            family = np.empty(self.size, dtype=np.intp)
            member = np.empty(self.size, dtype=np.intp)
            for f, (rows, _) in enumerate(self.families):
                family[rows] = f
                member[rows] = np.arange(rows.size)
            self._members = family, member
        return self._members

    def at(self, rows: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Values ``[p, p']`` of function ``rows[k]`` at ``t[k]``, shape
        ``(2, t.size)``, bit for bit as each function gives them alone; each
        family evaluates its points in one call, and raises what it raises
        (``dynamics._rows_at`` runs the functions alone then)."""
        family, member = self._located()
        of = family[rows]
        out = np.empty((2, t.size))
        for f in np.unique(of).tolist():
            points = np.flatnonzero(of == f)
            out[:, points] = self.families[f][1].at(member[rows[points]], t[points])
        return out

    def sampled(self) -> np.ndarray:
        """Which functions are sampled grids."""
        flags = np.zeros(self.size, dtype=bool)
        for rows, family in self.families:
            flags[rows] = family.sampled
        return flags

    def build(self, i: int) -> DecoherenceFunction:
        """Function ``i`` as an object, built from its family, so it raises
        what its class's constructor raises."""
        family, member = self._located()
        return self.families[family[i]][1].build(member[i])


def check_basis(d: int, basis: int) -> None:
    """Raise ``ValueError`` unless ``basis`` is a label in ``1..d+1``."""
    if not 1 <= basis <= d + 1:
        raise ValueError(f"basis label must lie in 1..{d + 1}, got {basis}")


@dataclass(frozen=True)
class ChannelSpec:
    """One dephasing channel: dimension, basis label in 1..d+1, and ``p(t)``."""

    dimension: int
    basis: int
    p: DecoherenceFunction

    def __post_init__(self):
        check_dimension(self.dimension)
        check_basis(self.dimension, self.basis)
        if not isinstance(self.p, DecoherenceFunction):
            raise TypeError("p must be a DecoherenceFunction")


@dataclass(frozen=True)
class MixtureComponent:
    weight: float
    channel: ChannelSpec


@dataclass(frozen=True)
class MixtureSpec:
    """A convex mixture of dephasing channels (repeated basis labels allowed).

    The constructor is permissive so that invalid mixtures can be built and
    fed to :func:`validate_mixture`, which reports all violations.
    """

    dimension: int
    components: Tuple[MixtureComponent, ...]

    def __post_init__(self):
        comps = []
        for entry in self.components:
            if isinstance(entry, MixtureComponent):
                comps.append(entry)
            else:
                weight, channel = entry
                comps.append(MixtureComponent(float(weight), channel))
        object.__setattr__(self, "components", tuple(comps))

    @property
    def functions(self) -> Tuple[DecoherenceFunction, ...]:
        return tuple(c.channel.p for c in self.components)

    def has_sampled_functions(self) -> bool:
        return any(isinstance(f, SampledGrid) for f in self.functions)


@dataclass(frozen=True)
class ValidationIssue:
    kind: str  # 'weight', 'weight-sum', 'dimension', 'p-range', 'p-domain'
    message: str
    component: Optional[int] = None  # 1-based component index
    time: Optional[float] = None


@dataclass(frozen=True)
class MixtureValidation:
    passed: bool
    structural_ok: bool
    p_in_range: bool
    issues: Tuple[ValidationIssue, ...]


class MixtureValidationError(ValueError):
    """Raised by consumers that require a structurally valid mixture."""

    def __init__(self, issues: Sequence[ValidationIssue]):
        text = "; ".join(i.message for i in issues)
        super().__init__(f"invalid mixture: {text}")
        self.issues = tuple(issues)


_DEPTH = 5  # halvings per round of _bisect


def _bisect(f, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray, flo: np.ndarray, xtol: float):
    """Bisect the brackets ``[lo, hi]`` of ``rows`` (``flo = f(rows, lo)``)
    together, as if each were bisected alone: a bracket stops at an exact
    zero of ``f`` (at that midpoint), once ``hi - lo <= xtol``, or after 200
    halvings, at the midpoint of its last bracket.

    The halvings go in rounds of ``_DEPTH`` (see :func:`_round`): one
    ``f(rows, t)`` call, with ``rows`` in order, on every point that the
    round's halvings can reach, and then the halvings, replayed from those
    values.  A round whose call raises is run again as plain halvings,
    rounds of depth 1 on the true midpoints, so the error raised is the one
    that plain bisection meets first, and a point that plain bisection
    never visits changes nothing."""
    roots = np.empty(lo.size)
    live = np.arange(lo.size)
    # Halving reads flo only as flo < 0, and lo moves only to midpoints that
    # agree with it there, so that flag is fixed per bracket.
    below = flo < 0.0
    step = plain = 0  # halvings made; plain ones until step reaches plain
    while step < 200:
        wide = hi - lo > xtol
        if np.count_nonzero(wide) < live.size:
            roots[live[~wide]] = 0.5 * (lo[~wide] + hi[~wide])
            live, rows, lo, hi, below = live[wide], rows[wide], lo[wide], hi[wide], below[wide]
        if not live.size:
            return roots
        depth = 1 if step < plain else min(_DEPTH, 200 - step)
        try:
            done, at, lo, hi = _round(f, rows, lo, hi, below, xtol, depth)
        except Exception:
            if depth == 1:
                raise
            plain = step + depth
            continue
        step += depth
        roots[live[done]] = at
        live, rows, below = live[~done], rows[~done], below[~done]
    roots[live] = 0.5 * (lo + hi)
    return roots


def _round(f, rows, lo, hi, below, xtol, depth):
    """``depth`` halvings of the brackets ``[lo, hi]`` from one ``f`` call
    on each bracket's tree of the ``2**depth - 1`` midpoints that they can
    reach, each ``0.5*(a + b)`` of its parent interval ``[a, b]``, so each
    is the float that plain bisection computes.  Returns which brackets
    stopped, their roots, and the new ends of the others."""
    n = 1 << depth
    # Tree points by position: x[:, k] lies k/n of the way from lo to hi.
    x = np.empty((lo.size, n + 1))
    x[:, 0], x[:, n] = lo, hi
    h = n // 2
    while h:
        x[:, h::2 * h] = 0.5 * (x[:, : n - h : 2 * h] + x[:, 2 * h :: 2 * h])
        h //= 2
    fx = np.asarray(f(np.repeat(rows, n - 1), x[:, 1:n].ravel()), dtype=float)
    # The halvings, on Python floats (the same IEEE arithmetic and NaN
    # comparisons): the bracket is [x[q], x[k + w]], its midpoint x[k].
    xtol = float(xtol)
    done, at, ends = [], [], []
    for xb, fb, neg in zip(x.tolist(), fx.reshape(lo.size, n - 1).tolist(), below.tolist()):
        q, w = 0, n
        for _ in range(depth):
            w //= 2
            k = q + w
            if not xb[k + w] - xb[q] > xtol:
                at.append(xb[k])
                break
            fmid = fb[k - 1]
            if fmid == 0.0:  # the bracket collapses onto x[k]
                at.append(0.5 * (xb[k] + xb[k]))
                break
            if (fmid < 0.0) == neg:
                q = k
        else:
            done.append(False)
            ends.append((xb[q], xb[q + w]))
            continue
        done.append(True)
    lo, hi = np.array(ends).reshape(-1, 2).T
    return np.array(done), np.array(at), lo, hi


def range_exit(value, times: np.ndarray, k: int, bound: float) -> float:
    """Where ``value(t)`` (``t`` an array) crosses ``bound`` (0 or 1) into the
    first sample ``k`` of ``times`` outside [0, 1]: ``times[0]`` for ``k = 0``,
    else bisected between ``times[k-1]`` and ``times[k]`` down to 1e-12, in
    :func:`_bisect`'s rounds (one ``value`` call on a midpoint tree each)."""
    if k == 0:
        return float(times[0])
    g = lambda _rows, t: np.asarray(value(t), dtype=float) - bound
    row = np.zeros(1, dtype=np.intp)
    lo, hi = np.array(times[k - 1 : k + 1], dtype=float).reshape(2, 1)
    return float(_bisect(g, row, lo, hi, g(row, lo), 1e-12)[0])


def bracket_roots(values: np.ndarray, times: np.ndarray, f, xtol: float):
    """Zeros of each row of ``values`` (shape ``(rows, n)``, sampled at ``times``).

    Returns one list of roots per row, in ascending grid order.  Brackets come
    from one sign test over the whole array, with these rules for grid
    interval ``k`` of a row, ``a = values[row, k]``, ``b = values[row, k+1]``:

    - an exact zero ``a == 0`` with ``k > 0`` is reported at ``times[k]`` and
      the interval is not bisected (the first column is never a root);
    - a sign change from a nonzero ``a`` (``(a < 0) != (b < 0)``, so also
      ``a < 0, b == 0``) is bisected down to ``xtol``, all brackets together
      (:func:`_bisect`): ``f(rows, t)`` returns the values at points ``t``
      strictly inside the live brackets (a round's midpoint trees, or the
      midpoints of plain halvings), whose ``rows`` come in (row, interval)
      order;
    - ``values[row, -1] == 0`` reports ``times[-1]``, after any root of the
      last interval;
    - NaN compares false everywhere: it is never a zero, counts as
      nonnegative, and a bracket from a NaN ``a`` is bisected from it.
    """
    a = values[:, :-1]
    below = values < 0.0
    zero = a == 0.0
    zero[:, 0] = False
    flip = (a != 0.0) & (below[:, :-1] != below[:, 1:])
    rows, ks = np.nonzero(zero | flip)
    found = times[ks]
    cut = flip[rows, ks]
    lo, hi = times[ks[cut]], times[ks[cut] + 1]
    found[cut] = _bisect(f, rows[cut], lo, hi, a[rows[cut], ks[cut]], xtol)
    roots = [[] for _ in range(values.shape[0])]
    for row, t in zip(rows.tolist(), found.tolist()):
        roots[row].append(t)
    for row in np.flatnonzero(values[:, -1] == 0.0).tolist():
        roots[row].append(float(times[-1]))
    return roots


def structural_issues(spec: MixtureSpec) -> list[ValidationIssue]:
    """The weight-simplex and dimension issues of a mixture, in report order."""
    issues: list[ValidationIssue] = []
    weights = [c.weight for c in spec.components]
    if not spec.components:
        issues.append(ValidationIssue("weight-sum", "mixture has no components"))
    for i, w in enumerate(weights, start=1):
        if not math.isfinite(w):
            issues.append(
                ValidationIssue("weight", f"component {i} weight {w!r} is not finite", i)
            )
        elif w < 0:
            issues.append(
                ValidationIssue("weight", f"component {i} weight {w!r} is negative", i)
            )
    total = float(sum(weights))
    if spec.components and not abs(total - 1.0) <= _WEIGHT_SUM_TOL:
        issues.append(
            ValidationIssue(
                "weight-sum", f"weights sum to {total!r}, expected 1 within {_WEIGHT_SUM_TOL}"
            )
        )
    for i, comp in enumerate(spec.components, start=1):
        if comp.channel.dimension != spec.dimension:
            issues.append(
                ValidationIssue(
                    "dimension",
                    f"component {i} has dimension {comp.channel.dimension}, "
                    f"mixture declares {spec.dimension}",
                    i,
                )
            )
    return issues


def range_violations(p) -> Tuple[np.ndarray, np.ndarray]:
    """Masks of the samples of ``p`` above 1 and below 0 (beyond a 1e-12 slack)."""
    p = np.atleast_1d(p)
    return p > 1.0 + _RANGE_SLACK, p < -_RANGE_SLACK


def validate_mixture(spec: MixtureSpec, grid) -> MixtureValidation:
    """Check the weight simplex, dimension consistency, and ``p`` ranges.

    Range violations are located to the first offending time (refined between
    the bracketing grid points).  The report never raises; domain errors during
    evaluation become issues.
    """
    times = np.asarray(getattr(grid, "times", grid), dtype=float)
    issues = structural_issues(spec)
    structural_ok = not issues

    p_in_range = True
    for i, comp in enumerate(spec.components, start=1):
        func = comp.channel.p
        try:
            p, _ = func.value_and_derivative(times)
        except DomainError as err:
            p_in_range = False
            issues.append(
                ValidationIssue("p-domain", f"component {i}: {err}", i, err.t)
            )
            continue
        high, low = range_violations(p)
        for bad, bound, label in ((high, 1.0, "above 1"), (low, 0.0, "below 0")):
            if not np.any(bad):
                continue
            p_in_range = False
            t_bad = range_exit(func.value, times, int(np.argmax(bad)), bound)
            issues.append(
                ValidationIssue(
                    "p-range",
                    f"component {i}: p(t) leaves [0,1] ({label}) near t={t_bad:.12g}",
                    i,
                    t_bad,
                )
            )
    return MixtureValidation(
        passed=structural_ok and p_in_range,
        structural_ok=structural_ok,
        p_in_range=p_in_range,
        issues=tuple(issues),
    )


def single_channel_eigenvalues(channel: ChannelSpec, t):
    """Per-label eigenvalues of one channel at time(s) ``t``.

    Label ``beta == channel.basis`` gives 1; every other label gives
    ``1 - (d/(d-1)) p(t)``.  Returns shape ``(d+1,)`` for scalar ``t`` and
    ``(d+1, n)`` for an array of times.  Out-of-range ``p`` is not an error
    here; callers flag validity separately.
    """
    d = channel.dimension
    arr = np.asarray(t, dtype=float)
    p, _ = channel.p.value_and_derivative(arr)
    off = 1.0 - (d / (d - 1.0)) * np.atleast_1d(np.asarray(p, dtype=float))
    lam = np.ones((d + 1, off.size))
    for beta in range(d + 1):
        if beta != channel.basis - 1:
            lam[beta] = off
    if arr.ndim == 0:
        return lam[:, 0]
    return lam
