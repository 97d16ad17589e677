"""Mutually unbiased bases and their Weyl-type dephasing unitaries.

For a prime dimension ``d`` a complete family of ``d+1`` mutually unbiased
bases (MUBs) exists: any two vectors from different bases overlap with
squared modulus exactly ``1/d``.  For odd primes the family is the
computational basis plus ``d`` bases built from quadratic Gauss-sum phases

    |phi_j^(r)>[k] = omega^(r*k^2 + j*k) / sqrt(d),    omega = exp(2*pi*i/d),

whose pairwise overlaps are Gauss sums of modulus ``sqrt(d)``.  For ``d = 2``
the family is the three Pauli eigenbases (z, x, y).

Each basis ``alpha`` induces the unitary

    U_alpha = sum_i omega^i |phi_i^(alpha)><phi_i^(alpha)|,

with spectrum ``{omega^i}`` and ``U_alpha^d = 1``; these generate the
dephasing channels studied elsewhere in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "MubFamily",
    "WeylSet",
    "MubReport",
    "DIMENSION_RANGE",
    "is_prime",
    "construct_mub",
    "build_unitaries",
    "verify_mub",
    "weyl_set",
]

DIMENSION_RANGE = (2, 31)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


@dataclass(frozen=True, eq=False)
class MubFamily:
    """``d+1`` orthonormal bases; ``bases[alpha, i]`` is the i-th vector."""

    dimension: int
    bases: np.ndarray  # complex, shape (d+1, d, d)


@dataclass(frozen=True, eq=False)
class WeylSet:
    """Dephasing unitaries ``U_alpha`` of one MUB family, plus their root of unity."""

    dimension: int
    unitaries: np.ndarray  # complex, shape (d+1, d, d)
    omega: complex


@dataclass(frozen=True)
class MubReport:
    dimension: int
    max_orthonormality_deviation: float
    max_unbiasedness_deviation: float
    tolerance: float
    passed: bool


# The admissible dimensions.  check_dimension runs for every channel spec
# built, so its primality test is a set lookup.
_PRIME_DIMENSIONS = frozenset(
    n for n in range(DIMENSION_RANGE[0], DIMENSION_RANGE[1] + 1) if is_prime(n)
)


def check_dimension(d: int) -> None:
    """Reject a dimension that is not an integer, not in range, or not prime."""
    lo, hi = DIMENSION_RANGE
    if not isinstance(d, (int, np.integer)) or isinstance(d, bool):
        raise ValueError(f"dimension must be an integer, got {d!r}")
    if d < lo or d > hi:
        raise ValueError(f"dimension must lie in [{lo}, {hi}], got {d}")
    if d not in _PRIME_DIMENSIONS:
        raise ValueError(
            f"dimension {d} is composite; a complete family of d+1 mutually "
            f"unbiased bases is only constructed here for prime d"
        )


def construct_mub(d: int) -> MubFamily:
    """Build the complete family of ``d+1`` MUBs for a prime ``2 <= d <= 31``.

    Rejects composite or out-of-range dimensions with an explanatory error.
    """
    check_dimension(d)
    if d == 2:
        s = 1.0 / np.sqrt(2.0)
        bases = np.array(
            [
                [[1, 0], [0, 1]],  # z eigenbasis (computational)
                [[s, s], [s, -s]],  # x eigenbasis
                [[s, 1j * s], [s, -1j * s]],  # y eigenbasis
            ],
            dtype=complex,
        )
    else:
        bases = np.empty((d + 1, d, d), dtype=complex)
        bases[0] = np.eye(d, dtype=complex)
        k = np.arange(d)
        norm = 1.0 / np.sqrt(d)
        for r in range(d):
            for j in range(d):
                # reduce the integer phase exponent mod d before exponentiating
                # so the angles stay small and exact
                phase = (r * k * k + j * k) % d
                bases[1 + r, j] = norm * np.exp(2j * np.pi * phase / d)
    bases.setflags(write=False)
    return MubFamily(dimension=d, bases=bases)


def build_unitaries(family: MubFamily) -> WeylSet:
    """Form ``U_alpha = sum_i omega^i P_i^(alpha)`` for each basis of the family."""
    d = family.dimension
    omega = np.exp(2j * np.pi / d)
    unitaries = np.empty((d + 1, d, d), dtype=complex)
    for alpha in range(d + 1):
        u = np.zeros((d, d), dtype=complex)
        for i in range(d):
            v = family.bases[alpha, i]
            u += omega**i * np.outer(v, v.conj())
        unitaries[alpha] = u
    unitaries.setflags(write=False)
    return WeylSet(dimension=d, unitaries=unitaries, omega=complex(omega))


def verify_mub(family: MubFamily, tolerance: float = 1e-12) -> MubReport:
    """Report the family's worst orthonormality and unbiasedness deviations.

    Orthonormality: ``|<phi_i^(a)|phi_j^(a)> - delta_ij|`` within each basis.
    Unbiasedness: ``||<phi_i^(a)|phi_j^(b)>|^2 - 1/d|`` across distinct bases.
    """
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise ValueError(f"tolerance must not be NaN, infinite or negative, got {tolerance!r}")
    d = family.dimension
    bases = family.bases
    ortho_dev = 0.0
    unbias_dev = 0.0
    eye = np.eye(d)
    for a in range(d + 1):
        gram = bases[a] @ bases[a].conj().T
        ortho_dev = max(ortho_dev, float(np.abs(gram - eye).max()))
        for b in range(a + 1, d + 1):
            overlaps = np.abs(bases[a] @ bases[b].conj().T) ** 2
            unbias_dev = max(unbias_dev, float(np.abs(overlaps - 1.0 / d).max()))
    passed = ortho_dev <= tolerance and unbias_dev <= tolerance
    return MubReport(
        dimension=d,
        max_orthonormality_deviation=ortho_dev,
        max_unbiasedness_deviation=unbias_dev,
        tolerance=tolerance,
        passed=passed,
    )


@lru_cache(maxsize=None)
def weyl_set(d: int) -> WeylSet:
    """Cached ``build_unitaries(construct_mub(d))``."""
    return build_unitaries(construct_mub(d))
