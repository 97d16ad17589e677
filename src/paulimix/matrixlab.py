"""Matrix-level channel checks: Choi matrices, superoperators, positivity.

Conventions
-----------
* vec() is column-stacking, so ``vec(A @ rho @ B) = (B.T kron A) vec(rho)``
  and a Kraus term ``K rho K+`` contributes ``conj(K) kron K`` to the
  superoperator.
* The Choi matrix uses the unnormalized maximally entangled vector
  ``|Omega> = sum_i |ii>``:  ``C = sum_ij E(E_ij) kron E_ij``.  Complete
  positivity of the map is positive semidefiniteness of ``C``; trace
  preservation is ``tr_1 C = identity``.
* ``apply_channel`` maps one operator or a ``(..., d, d)`` stack of them, and
  ``choi`` is that action on the ``(d, d, d, d)`` stack of matrix units, one
  call per matrix (about 1.7 s for two components at d = 31 on a 2-vCPU VM).
* Positivity checks take the smallest eigenvalue of the Hermitian part from
  LAPACK (``numpy.linalg.eigvalsh``); the tests judge it against LDL inertia
  counts, an oracle that shares no code with it.
* This dense ``d^2 x d^2`` layer is an independent cross-check.  CP verdicts
  on intermediate maps come from the closed-form Choi spectrum in
  :func:`paulimix.dynamics.intermediate_map_check` and never pass through it.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from . import mubgen
from .channelcore import MixtureSpec

__all__ = [
    "PsdCheck",
    "ComposeCheck",
    "DensityCheck",
    "hermiticity_deviation",
    "psd_check",
    "check_density_matrix",
    "apply_channel",
    "superoperator",
    "choi",
    "partial_trace_first",
    "compose_check",
]

_HERM_INPUT_TOL = 1e-10


@dataclass(frozen=True)
class PsdCheck:
    passed: bool
    min_eigenvalue: float
    tolerance: float


@dataclass(frozen=True)
class ComposeCheck:
    passed: bool
    deviation: float
    tolerance: float


@dataclass(frozen=True)
class DensityCheck:
    passed: bool
    hermiticity_deviation: float
    trace_deviation: float
    min_eigenvalue: float


def hermiticity_deviation(m: np.ndarray) -> float:
    m = np.asarray(m)
    return float(np.abs(m - m.conj().T).max())


def psd_check(m: np.ndarray, tol: float = 1e-10) -> PsdCheck:
    """Positive-semidefiniteness verdict: min eigenvalue >= -tol.

    Rejects inputs with non-finite entries or not Hermitian within 1e-10.
    """
    m = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    dev = hermiticity_deviation(m)
    if dev > _HERM_INPUT_TOL:
        raise ValueError(f"matrix is not Hermitian (deviation {dev:g})")
    min_eig = float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])
    return PsdCheck(passed=min_eig >= -tol, min_eigenvalue=min_eig, tolerance=tol)


def check_density_matrix(
    rho: np.ndarray,
    herm_tol: float = 1e-12,
    trace_tol: float = 1e-12,
    eig_floor: float = -1e-10,
) -> DensityCheck:
    rho = np.asarray(rho, dtype=complex)
    herm_dev = hermiticity_deviation(rho)
    trace_dev = abs(complex(np.trace(rho)) - 1.0)
    min_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
    return DensityCheck(
        passed=herm_dev <= herm_tol and trace_dev <= trace_tol and min_eig >= eig_floor,
        hermiticity_deviation=herm_dev,
        trace_deviation=float(trace_dev),
        min_eigenvalue=min_eig,
    )


# ---------------------------------------------------------------------------
# Channel action, superoperator, Choi
# ---------------------------------------------------------------------------


def _unitary_powers(weyl: mubgen.WeylSet, basis: int) -> list[np.ndarray]:
    """[U^1, ..., U^(d-1)] for the 1-based basis label."""
    u = weyl.unitaries[basis - 1]
    powers = []
    acc = np.eye(weyl.dimension, dtype=complex)
    for _ in range(weyl.dimension - 1):
        acc = acc @ u
        powers.append(acc)
    return powers


def apply_channel(spec: MixtureSpec, t: float, rho: np.ndarray) -> np.ndarray:
    """Apply the mixture at time ``t`` to ``rho`` of shape ``(..., d, d)``;
    each slice of the result is bit for bit the action on that slice alone.

    Trace and Hermiticity are preserved identically; the output is a valid
    state whenever every component's ``p(t)`` lies in [0, 1].
    """
    d = spec.dimension
    weyl = mubgen.weyl_set(d)
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (d, d):
        raise ValueError(f"operators must have shape (..., {d}, {d}), got {rho.shape}")
    out = np.zeros_like(rho)
    for comp in spec.components:
        p = float(comp.channel.p.value(t))
        twirl = np.zeros_like(rho)
        for uk in _unitary_powers(weyl, comp.channel.basis):
            twirl += uk @ rho @ uk.conj().T
        out += comp.weight * ((1.0 - p) * rho + (p / (d - 1.0)) * twirl)
    return out


def superoperator(spec: MixtureSpec, t: float) -> np.ndarray:
    """Column-stacking superoperator matrix of the mixture at time ``t``."""
    d = spec.dimension
    weyl = mubgen.weyl_set(d)
    m = np.zeros((d * d, d * d), dtype=complex)
    eye = np.eye(d * d, dtype=complex)
    for comp in spec.components:
        p = float(comp.channel.p.value(t))
        term = np.zeros_like(m)
        for uk in _unitary_powers(weyl, comp.channel.basis):
            term += np.kron(uk.conj(), uk)
        m += comp.weight * ((1.0 - p) * eye + (p / (d - 1.0)) * term)
    return m


def choi(spec: MixtureSpec, t: float) -> np.ndarray:
    """Choi matrix ``sum_ij E(E_ij) kron E_ij``: the channel action on the
    stack of matrix units, regrouped so entry ``(a*d + i, b*d + j)`` is ``E(E_ij)[a, b]``."""
    d = spec.dimension
    images = apply_channel(spec, t, np.eye(d * d).reshape(d, d, d, d))
    # ``+ 0.0`` maps -0.0 to 0.0: the Choi matrix carries no signed zeros.
    return images.transpose(2, 0, 3, 1).reshape(d * d, d * d) + 0.0


def partial_trace_first(c: np.ndarray, d: int) -> np.ndarray:
    """Trace out the first tensor factor of a ``d^2 x d^2`` matrix."""
    c = np.asarray(c)
    return np.einsum("aiaj->ij", c.reshape(d, d, d, d))


def compose_check(spec: MixtureSpec, s: float, t: float, tol: float = 1e-9) -> ComposeCheck:
    """Max-norm deviation ``||M(s) M(t) - M(s+t)||_max`` of the superoperators."""
    ms = superoperator(spec, s)
    mt = superoperator(spec, t)
    mst = superoperator(spec, s + t)
    deviation = float(np.abs(ms @ mt - mst).max())
    return ComposeCheck(passed=deviation <= tol, deviation=deviation, tolerance=tol)
