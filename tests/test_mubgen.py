"""Mutually unbiased bases and the unitaries generated from them."""

import numpy as np
import pytest

from paulimix import ChannelSpec, ExpRelax, SameChannelRequest, mubgen, theorem2_scan

PRIMES = [2, 3, 5, 7, 11]

SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


@pytest.mark.parametrize("d", PRIMES)
def test_constructed_families_are_unbiased(d):
    family = mubgen.construct_mub(d)
    report = mubgen.verify_mub(family, 1e-12)
    assert report.passed
    assert report.max_orthonormality_deviation <= 1e-12
    assert report.max_unbiasedness_deviation <= 1e-12
    assert family.bases.shape == (d + 1, d, d)


def test_largest_supported_prime():
    report = mubgen.verify_mub(mubgen.construct_mub(31), 1e-12)
    assert report.passed


def test_verify_mub_rejects_a_nan_tolerance():
    with pytest.raises(ValueError, match="tolerance must not be NaN"):
        mubgen.verify_mub(mubgen.construct_mub(3), float("nan"))


def test_verify_mub_rejects_an_infinite_tolerance():
    with pytest.raises(ValueError, match="infinite"):
        mubgen.verify_mub(mubgen.construct_mub(3), float("inf"))


def test_verify_mub_rejects_a_negative_tolerance():
    # A negative tolerance would fail every family, correct ones included.
    with pytest.raises(ValueError, match="infinite or negative, got -1.0"):
        mubgen.verify_mub(mubgen.construct_mub(3), -1.0)
    assert mubgen.verify_mub(mubgen.construct_mub(3), 0.0).tolerance == 0.0


@pytest.mark.parametrize("bad", [0, 1, 4, 6, 9, 32, 100])
def test_out_of_scope_dimensions_rejected(bad):
    with pytest.raises(ValueError):
        mubgen.construct_mub(bad)


def test_non_integer_dimensions_rejected():
    with pytest.raises(ValueError):
        mubgen.construct_mub(2.5)
    with pytest.raises(ValueError):
        mubgen.construct_mub(True)


def test_qubit_unitaries_are_the_pauli_matrices():
    weyl = mubgen.build_unitaries(mubgen.construct_mub(2))
    np.testing.assert_allclose(weyl.unitaries[0], SIGMA_Z, atol=1e-15)
    np.testing.assert_allclose(weyl.unitaries[1], SIGMA_X, atol=1e-15)
    np.testing.assert_allclose(weyl.unitaries[2], SIGMA_Y, atol=1e-15)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_unitary_power_cycle(d):
    weyl = mubgen.build_unitaries(mubgen.construct_mub(d))
    eye = np.eye(d)
    for u in weyl.unitaries:
        np.testing.assert_allclose(np.conj(u.T) @ u, eye, atol=1e-13)
        np.testing.assert_allclose(np.linalg.matrix_power(u, d), eye, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_unitary_spectrum_is_the_full_root_set(d):
    # Each generator has simple spectrum {omega^0, ..., omega^{d-1}}.
    weyl = mubgen.build_unitaries(mubgen.construct_mub(d))
    roots = np.exp(2j * np.pi * np.arange(d) / d)
    for u in weyl.unitaries:
        got = np.linalg.eigvals(u)
        # one computed eigenvalue within 1e-10 of each root of unity
        dist = np.abs(got[None, :] - roots[:, None])
        assert dist.min(axis=1).max() <= 1e-10
        assert dist.min(axis=0).max() <= 1e-10


@pytest.mark.parametrize("d", [2, 3, 5])
def test_cross_basis_twirl_vanishes(d):
    # sum_k U_a^k M U_a^{-k} projects onto the diagonal of M in basis a; for
    # M a nontrivial power of a *different* basis generator the diagonal is
    # zero, so the sum must vanish.
    weyl = mubgen.build_unitaries(mubgen.construct_mub(d))
    for a in range(d + 1):
        ua = weyl.unitaries[a]
        powers_a = [np.linalg.matrix_power(ua, k) for k in range(d)]
        for b in range(d + 1):
            for m in range(1, d):
                ubm = np.linalg.matrix_power(weyl.unitaries[b], m)
                acc = np.zeros((d, d), dtype=complex)
                for k in range(d):
                    acc += powers_a[k] @ ubm @ np.conj(powers_a[k].T)
                if a == b:
                    np.testing.assert_allclose(acc, d * ubm, atol=1e-12)
                else:
                    assert np.abs(acc).max() <= 1e-10


def test_perturbed_family_fails_verification():
    family = mubgen.construct_mub(3)
    bases = family.bases.copy()
    bases[1, 0, 0] += 1e-3
    broken = mubgen.MubFamily(3, bases)
    report = mubgen.verify_mub(broken, 1e-12)
    assert not report.passed
    assert (
        max(report.max_orthonormality_deviation, report.max_unbiasedness_deviation)
        >= 1e-4
    )


def test_weyl_set_is_cached():
    assert mubgen.weyl_set(3) is mubgen.weyl_set(3)
    assert mubgen.weyl_set(3).dimension == 3
    assert len(mubgen.weyl_set(3).unitaries) == 4


DIMENSION_CHECKED = {
    "ChannelSpec": lambda d: ChannelSpec(d, 1, ExpRelax(0.5, 1.0)),
    "SameChannelRequest": lambda d: SameChannelRequest(d, 1.0, 0.5, ExpRelax(0.25, 1.0)),
    "theorem2_scan": lambda d: theorem2_scan(d, 100, 0),
    "construct_mub": mubgen.construct_mub,
}


@pytest.mark.parametrize("build", DIMENSION_CHECKED.values(), ids=DIMENSION_CHECKED.keys())
@pytest.mark.parametrize("bad", [1, 4, 32, True, 2.0], ids=repr)
def test_every_entry_point_shares_the_dimension_check(build, bad):
    with pytest.raises(ValueError):
        build(bad)


@pytest.mark.parametrize("build", DIMENSION_CHECKED.values(), ids=DIMENSION_CHECKED.keys())
def test_every_entry_point_accepts_a_numpy_integer_dimension(build):
    assert build(np.int64(5)) is not None
