"""Shared test oracles, deliberately independent of the library internals:

* ``min_eig_by_inertia`` — minimum eigenvalue of a Hermitian matrix by
  Sylvester-inertia bisection on LDL^H factorizations (no iterative
  eigensolver involved);
* ``rk4_path`` — classic fourth-order Runge-Kutta integration;
* ``qubit_rates_abc`` — qubit decay rates assembled from the three
  log-derivative combinations A, B, C;
* ``random_expression`` — random smooth expression strings, domain-safe on
  t in [0.05, 3.5];
* ``reference_eval_dual`` — the tree-walking dual-number evaluator that
  ``exprcalc.eval_dual`` replaced, kept as the reference its compiled
  closures must match bit for bit;
* ``reference_bisect`` — the lockstep bisection, one ``f`` call per halving,
  that ``channelcore._bisect``'s rounds replaced, kept as the reference
  their roots and errors must match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.linalg import ldl

from paulimix.exprcalc import Binary, DomainError, DualValue, ExprAst, Num, Unary, Var


def _count_eigs_below(m: np.ndarray, x: float) -> int:
    """Number of eigenvalues of Hermitian ``m`` strictly below ``x``."""
    shifted = m - x * np.eye(m.shape[0])
    _, d, _ = ldl(shifted, lower=True)
    count = 0
    i = 0
    n = d.shape[0]
    while i < n:
        if i + 1 < n and (d[i, i + 1] != 0 or d[i + 1, i] != 0):
            block = d[i : i + 2, i : i + 2]
            tr = float(block[0, 0].real + block[1, 1].real)
            det = float(
                (block[0, 0] * block[1, 1] - block[0, 1] * block[1, 0]).real
            )
            disc = max(tr * tr / 4.0 - det, 0.0)
            for ev in (tr / 2.0 - np.sqrt(disc), tr / 2.0 + np.sqrt(disc)):
                if ev < 0:
                    count += 1
            i += 2
        else:
            if d[i, i].real < 0:
                count += 1
            i += 1
    return count


def min_eig_by_inertia(m: np.ndarray, xtol: float = 1e-12) -> float:
    m = np.asarray(m)
    scale = float(np.abs(m).sum()) + 1.0
    lo, hi = -scale, scale
    # invariant: count(< lo) == 0, count(< hi) >= 1
    for _ in range(200):
        if hi - lo <= xtol * max(1.0, abs(lo), abs(hi)):
            break
        mid = 0.5 * (lo + hi)
        if _count_eigs_below(m, mid) >= 1:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def rk4_path(f, y0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Integrate y' = f(t, y) across ``times``; returns array (len(times), len(y0))."""
    y = np.array(y0, dtype=float)
    out = [y.copy()]
    for k in range(len(times) - 1):
        t, h = times[k], times[k + 1] - times[k]
        k1 = f(t, y)
        k2 = f(t + h / 2.0, y + h / 2.0 * k1)
        k3 = f(t + h / 2.0, y + h / 2.0 * k2)
        k4 = f(t + h, y + h * k3)
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(y.copy())
    return np.asarray(out)


def qubit_rates_abc(lam: np.ndarray, dlam: np.ndarray) -> np.ndarray:
    """Qubit decay rates from the A, B, C log-derivative combinations.

    With A = -(ln lam_2)'/4, B = -(ln lam_1)'/4, C = -(ln lam_3)'/4:
    gamma_1 = A - B + C, gamma_2 = -A + B + C, gamma_3 = A + B - C.
    """
    a = -dlam[1] / lam[1] / 4.0
    b = -dlam[0] / lam[0] / 4.0
    c = -dlam[2] / lam[2] / 4.0
    return np.stack([a - b + c, -a + b + c, a + b - c])


def random_expression(rng: np.random.Generator, depth: int = 0) -> str:
    """A random smooth expression over t, finite (with finite derivative)
    for every t in [0.05, 3.5]."""
    a = rng.uniform(0.2, 2.5)
    b = rng.uniform(0.2, 2.5)
    if depth >= 2:
        leaves = [
            f"{a:.6f}*t",
            f"{a:.6f}",
            f"sin({b:.6f}*t)",
            f"cos({b:.6f}*t)",
            f"exp(-{b:.6f}*t)",
            f"ln(1 + {a:.6f}*t^2)",
            f"sqrt({a:.6f} + t^2)",
            f"t^{int(rng.integers(1, 4))}",
        ]
        return leaves[rng.integers(len(leaves))]
    u = random_expression(rng, depth + 1)
    v = random_expression(rng, depth + 1)
    forms = [
        f"({u}) + ({v})",
        f"({u}) - ({v})",
        f"({u}) * ({v})",
        f"({u}) / ({b:.6f} + t^2)",
        f"-({u})",
        f"({u})",
    ]
    return forms[rng.integers(len(forms))]


# ---------------------------------------------------------------------------
# Reference dual-number evaluator: a walk of the tree, node by node
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Dual:
    value: Union[float, np.ndarray]
    derivative: Union[float, np.ndarray]

    def __add__(self, other: "_Dual") -> "_Dual":
        return _Dual(self.value + other.value, self.derivative + other.derivative)

    def __sub__(self, other: "_Dual") -> "_Dual":
        return _Dual(self.value - other.value, self.derivative - other.derivative)

    def __neg__(self) -> "_Dual":
        return _Dual(-self.value, -self.derivative)

    def __mul__(self, other: "_Dual") -> "_Dual":
        return _Dual(
            self.value * other.value,
            self.derivative * other.value + self.value * other.derivative,
        )


def _first_bad_time(t: np.ndarray, bad: np.ndarray) -> float:
    flat_t = np.broadcast_to(t, bad.shape).ravel()
    return float(flat_t[bad.ravel().argmax()])


def _contains_var(node: ExprAst) -> bool:
    if isinstance(node, Var):
        return True
    if isinstance(node, Unary):
        return _contains_var(node.arg)
    if isinstance(node, Binary):
        return _contains_var(node.left) or _contains_var(node.right)
    return False


def _eval(node: ExprAst, t: np.ndarray) -> _Dual:
    if isinstance(node, Num):
        return _Dual(np.full_like(t, node.value), np.zeros_like(t))
    if isinstance(node, Var):
        return _Dual(t.copy(), np.ones_like(t))
    if isinstance(node, Unary):
        u = _eval(node.arg, t)
        return _apply_unary(node.op, u, t)
    if isinstance(node, Binary):
        if node.op == "^":
            return _apply_pow(node, t)
        left = _eval(node.left, t)
        right = _eval(node.right, t)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            zero = right.value == 0
            if np.any(zero):
                raise DomainError("division by zero", _first_bad_time(t, zero))
            val = left.value / right.value
            der = (left.derivative - val * right.derivative) / right.value
            return _Dual(val, der)
    raise TypeError(f"not an expression node: {node!r}")


def _apply_unary(op: str, u: _Dual, t: np.ndarray) -> _Dual:
    if op == "neg":
        return -u
    if op == "exp":
        e = np.exp(u.value)
        return _Dual(e, e * u.derivative)
    if op == "ln":
        bad = u.value <= 0
        if np.any(bad):
            raise DomainError("ln of non-positive argument", _first_bad_time(t, bad))
        return _Dual(np.log(u.value), u.derivative / u.value)
    if op == "sin":
        return _Dual(np.sin(u.value), np.cos(u.value) * u.derivative)
    if op == "cos":
        return _Dual(np.cos(u.value), -np.sin(u.value) * u.derivative)
    if op == "sqrt":
        bad = u.value < 0
        if np.any(bad):
            raise DomainError("sqrt of negative argument", _first_bad_time(t, bad))
        root = np.sqrt(u.value)
        zero = root == 0
        if np.any(zero):
            raise DomainError(
                "sqrt derivative singular at zero argument", _first_bad_time(t, zero)
            )
        return _Dual(root, u.derivative / (2.0 * root))
    raise ValueError(f"unknown unary op {op!r}")


def _apply_pow(node: Binary, t: np.ndarray) -> _Dual:
    base = _eval(node.left, t)
    if not _contains_var(node.right):
        # constant exponent: evaluate once, keep the power rule so negative
        # bases work for integer exponents
        n = float(_eval(node.right, np.zeros(1)).value[0])
        if n == np.floor(n):
            if n < 0:
                zero = base.value == 0
                if np.any(zero):
                    raise DomainError(
                        "zero base with negative exponent", _first_bad_time(t, zero)
                    )
            val = base.value**n
            if n == 0:
                return _Dual(val, np.zeros_like(t))
            der = n * base.value ** (n - 1) * base.derivative
            return _Dual(val, der)
        bad = base.value <= 0
        if np.any(bad):
            raise DomainError(
                "non-positive base with non-integer exponent", _first_bad_time(t, bad)
            )
        val = base.value**n
        return _Dual(val, n * base.value ** (n - 1) * base.derivative)
    expo = _eval(node.right, t)
    bad = base.value <= 0
    if np.any(bad):
        raise DomainError(
            "non-positive base with variable exponent", _first_bad_time(t, bad)
        )
    val = base.value**expo.value
    log_base = np.log(base.value)
    der = val * (expo.derivative * log_base + expo.value * base.derivative / base.value)
    return _Dual(val, der)


def reference_eval_dual(ast: ExprAst, t) -> DualValue:
    """``exprcalc.eval_dual`` as a walk of the tree on full arrays."""
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    if scalar:
        arr = arr.reshape(1)
    if not np.all(np.isfinite(arr)):
        raise DomainError("non-finite evaluation time", float(arr[~np.isfinite(arr)][0]))
    with np.errstate(all="ignore"):
        out = _eval(ast, arr)
    bad = ~(np.isfinite(out.value) & np.isfinite(out.derivative))
    if np.any(bad):
        raise DomainError("non-finite result", _first_bad_time(arr, bad))
    if scalar:
        return DualValue(float(out.value[0]), float(out.derivative[0]))
    return DualValue(out.value, out.derivative)


# ---------------------------------------------------------------------------
# Reference bisection: one halving step, and one f call, at a time
# ---------------------------------------------------------------------------


def reference_bisect(f, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray, flo: np.ndarray, xtol: float):
    """Bisect the brackets ``[lo, hi]`` of ``rows`` (``flo = f(rows, lo)``;
    all three are overwritten) together: each step calls ``f(rows, mids)``
    once for the live brackets, in order.  A bracket stops at an exact zero
    of ``f``, once ``hi - lo <= xtol``, or after 200 halvings, at the
    midpoint of its last bracket, as if it were bisected alone."""
    roots = np.empty(lo.size)
    live = np.arange(lo.size)
    for _ in range(200):
        wide = hi - lo > xtol
        if np.count_nonzero(wide) < live.size:
            roots[live[~wide]] = 0.5 * (lo[~wide] + hi[~wide])
            live, rows, lo, hi, flo = live[wide], rows[wide], lo[wide], hi[wide], flo[wide]
        if not live.size:
            return roots
        mid = 0.5 * (lo + hi)
        fmid = np.asarray(f(rows, mid), dtype=float)
        # An exact zero collapses its bracket onto mid, whose midpoint is mid.
        zero = fmid == 0.0
        up = (flo < 0.0) == (fmid < 0.0)
        np.copyto(lo, mid, where=up | zero)
        np.copyto(flo, fmid, where=up)
        np.copyto(hi, mid, where=~up | zero)
    roots[live] = 0.5 * (lo + hi)
    return roots
