"""Channel action on states, Choi matrices, PSD checks, composition checks."""

import math

import numpy as np
import pytest

from paulimix import (
    AllChannelsRequest,
    ChannelSpec,
    ExpRelax,
    MixtureSpec,
    apply_channel,
    build_all_channels_mix,
    check_density_matrix,
    choi,
    compose_check,
    default_grid,
    hermiticity_deviation,
    intermediate_map_check,
    mixture_eigenvalues,
    partial_trace_first,
    psd_check,
    random_decoherence_function,
    superoperator,
)


def equal_thirds_mix():
    return build_all_channels_mix(AllChannelsRequest(2, 1.0, (1 / 3, 1 / 3, 1 / 3)))


def random_mixture(rng, d):
    n = int(rng.integers(1, d + 2))
    bases = rng.integers(1, d + 2, size=n)
    weights = rng.dirichlet(np.ones(n))
    return MixtureSpec(
        d,
        [
            (
                float(w),
                ChannelSpec(
                    d,
                    int(b),
                    ExpRelax(float(rng.uniform(0.1, 0.8)), float(rng.uniform(0.2, 2.0))),
                ),
            )
            for w, b in zip(weights, bases)
        ],
    )


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2


# ---------------------------------------------------------------------------
# Channel action
# ---------------------------------------------------------------------------


def test_apply_channel_at_time_zero_is_identity():
    rng = np.random.default_rng(0)
    spec = random_mixture(rng, 3)
    rho = random_hermitian(rng, 3)
    rho = rho @ rho.conj().T
    rho /= np.trace(rho).real
    np.testing.assert_allclose(apply_channel(spec, 0.0, rho), rho, atol=1e-14)


def test_full_dephasing_in_x_basis_sends_ground_state_to_maximally_mixed():
    # Basis label 2 is the sigma_x eigenbasis; p -> 1/2 kills the x-coherence
    # and |0><0| has none to spare in that basis beyond the mixed part.
    spec = MixtureSpec(2, [(1.0, ChannelSpec(2, 2, ExpRelax(0.5, 1.0)))])
    rho = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    out = apply_channel(spec, 40.0, rho)
    np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-12)


def test_equal_thirds_mix_contracts_everything_to_maximally_mixed():
    rng = np.random.default_rng(1)
    rho = random_hermitian(rng, 2)
    rho = rho @ rho.conj().T
    rho /= np.trace(rho).real
    out = apply_channel(equal_thirds_mix(), 20.0, rho)
    np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-6)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_apply_channel_on_a_stack_matches_each_slice_bit_for_bit(d):
    rng = np.random.default_rng(40 + d)
    spec = random_mixture(rng, d)
    stack = rng.normal(size=(2, 3, d, d)) + 1j * rng.normal(size=(2, 3, d, d))
    out = apply_channel(spec, 0.9, stack)
    assert out.shape == stack.shape
    for i in range(2):
        for j in range(3):
            assert out[i, j].tobytes() == apply_channel(spec, 0.9, stack[i, j]).tobytes()


@pytest.mark.parametrize("shape", [(3,), (3, 4), (4, 3), (2, 3, 4), (3, 3, 2)])
def test_apply_channel_rejects_a_wrong_trailing_shape(shape):
    spec = random_mixture(np.random.default_rng(0), 3)
    with pytest.raises(ValueError):
        apply_channel(spec, 0.5, np.zeros(shape))


@pytest.mark.parametrize("d", [2, 3])
def test_channel_preserves_hermiticity_and_trace(d):
    rng = np.random.default_rng(d)
    spec = random_mixture(rng, d)
    for _ in range(5):
        m = random_hermitian(rng, d)  # not necessarily positive
        out = apply_channel(spec, float(rng.uniform(0.0, 4.0)), m)
        assert hermiticity_deviation(out) <= 1e-13
        assert abs(np.trace(out) - np.trace(m)) <= 1e-12


# ---------------------------------------------------------------------------
# PSD checks
# ---------------------------------------------------------------------------


def test_eigensystem_minimum_matches_inertia_bisection():
    from util import min_eig_by_inertia

    rng = np.random.default_rng(7)
    for _ in range(4):
        m = random_hermitian(rng, 9)
        min_eig = psd_check(m).min_eigenvalue
        assert min_eig == pytest.approx(min_eig_by_inertia(m), abs=1e-10)


def test_psd_check_verdicts():
    ok = psd_check(np.eye(3))
    assert ok.passed and ok.min_eigenvalue == pytest.approx(1.0, abs=1e-12)
    bad = psd_check(np.diag([1.0, -0.5]))
    assert not bad.passed and bad.min_eigenvalue == pytest.approx(-0.5, abs=1e-12)
    with pytest.raises(ValueError):
        psd_check(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_psd_check_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError):
        psd_check(np.diag([bad, 1.0, 1.0]))


def test_density_matrix_check():
    assert check_density_matrix(np.eye(2) / 2).passed
    report = check_density_matrix(np.diag([1.5, -0.5]))
    assert not report.passed


# ---------------------------------------------------------------------------
# Choi matrices
# ---------------------------------------------------------------------------


def test_choi_of_identity_channel_is_rank_one():
    spec = equal_thirds_mix()
    c = choi(spec, 0.0)
    vals = np.sort(np.linalg.eigvalsh(c))
    np.testing.assert_allclose(vals, [0.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_dephasing_choi_eigenvalues():
    spec = MixtureSpec(2, [(1.0, ChannelSpec(2, 1, ExpRelax(0.5, 1.0)))])
    t = 0.8
    p = 0.5 * (1 - math.exp(-t))
    c = choi(spec, t)
    vals = np.sort(np.linalg.eigvalsh(c))
    np.testing.assert_allclose(vals, [0.0, 0.0, 2 * p, 2 * (1 - p)], atol=1e-12)


def choi_by_matrix_units(spec, t):
    """Reference Choi matrix: one channel action per matrix unit, summed as
    ``kron(E(E_ij), E_ij)``."""
    d = spec.dimension
    c = np.zeros((d * d, d * d), dtype=complex)
    unit = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            unit[i, j] = 1.0
            c += np.kron(apply_channel(spec, t, unit), unit)
            unit[i, j] = 0.0
    return c


def scanner_mixture(rng, d):
    """A mixture drawn as the scanners draw theirs."""
    size = int(rng.integers(1, d + 2))
    bases = rng.choice(d + 1, size=size, replace=False) + 1
    weights = rng.dirichlet(np.ones(size))
    return MixtureSpec(
        d,
        [
            (float(w), ChannelSpec(d, int(b), random_decoherence_function(rng)))
            for b, w in zip(bases, weights)
        ],
    )


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13])
def test_choi_matches_per_unit_reference_bit_for_bit(d):
    rng = np.random.default_rng(50 + d)
    kinds = set()
    draws = 0
    # At least three mixtures, and every kind of scanner draw among them.
    while draws < 3 or len(kinds) < 4:
        spec = scanner_mixture(rng, d)
        kinds.update(type(f).__name__ for f in spec.functions)
        draws += 1
        for t in (0.0, 0.7, float(rng.uniform(0.0, 5.0))):
            assert choi(spec, t).tobytes() == choi_by_matrix_units(spec, t).tobytes()
    assert kinds == {"ExpRelax", "ProductTemplate", "DifferenceTemplate", "SampledGrid"}


@pytest.mark.parametrize("d", [2, 3])
def test_choi_partial_trace_and_trace(d):
    rng = np.random.default_rng(10 + d)
    spec = random_mixture(rng, d)
    c = choi(spec, 1.3)
    assert abs(np.trace(c).real - d) <= 1e-10
    np.testing.assert_allclose(partial_trace_first(c, d), np.eye(d), atol=1e-10)


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13, 31])
def test_closed_form_choi_minimum_matches_dense_choi(d):
    from util import min_eig_by_inertia

    rng = np.random.default_rng(20 + d)
    spec = random_mixture(rng, d)
    grid = default_grid(3.0, 64)
    traj = mixture_eigenvalues(spec, grid)
    # lambda = 1 at times[0], so the intermediate map is the mixture at t_b.
    t_b = float(grid.times[int(rng.integers(1, len(grid)))])
    check = intermediate_map_check(traj, float(grid.times[0]), t_b)
    c = choi(spec, t_b)
    c = 0.5 * (c + c.conj().T)  # exactly real diagonal for the LDL oracle
    assert check.min_choi_eigenvalue == pytest.approx(min_eig_by_inertia(c), abs=1e-10)
    assert check.min_choi_eigenvalue == pytest.approx(np.linalg.eigvalsh(c)[0], abs=1e-10)


# ---------------------------------------------------------------------------
# Superoperator spectrum vs label eigenvalues
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3])
def test_superoperator_spectrum_matches_label_eigenvalues(d):
    rng = np.random.default_rng(30 + d)
    for _ in range(5):
        spec = random_mixture(rng, d)
        t = float(rng.uniform(0.1, 3.0))
        m = superoperator(spec, t)
        # The k and d-k power terms are mutual adjoints, so the mixture
        # superoperator is Hermitian and a Hermitian eigensolver applies.
        assert hermiticity_deviation(m) <= 1e-13
        vals = np.linalg.eigvalsh(m)
        labels = single_label_values(spec, t)
        expected = np.sort(np.concatenate([[1.0], np.repeat(labels, d - 1)]))
        np.testing.assert_allclose(np.sort(vals), expected, atol=1e-10)


def single_label_values(spec, t):
    total = np.zeros(())
    per_label = np.zeros(spec.dimension + 1)
    for comp in spec.components:
        p = comp.channel.p.value(t)
        total = total + comp.weight * p
        per_label[comp.channel.basis - 1] += comp.weight * p
    d = spec.dimension
    return 1.0 - (d / (d - 1)) * (total - per_label)


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------


def test_semigroup_composes_exactly():
    report = compose_check(equal_thirds_mix(), 0.3, 0.7)
    assert report.passed
    assert report.deviation <= 1e-12


def test_composition_with_zero_time_is_free():
    rng = np.random.default_rng(99)
    spec = random_mixture(rng, 3)
    report = compose_check(spec, 0.0, 1.1)
    assert report.passed and report.deviation <= 1e-15


def test_three_semigroup_mix_fails_composition_by_scalar_gap():
    f = ExpRelax(0.5, 1.0)
    spec = MixtureSpec(2, [(1 / 3, ChannelSpec(2, b, f)) for b in (1, 2, 3)])
    s, t = 0.3, 0.7
    lam = lambda u: (1 + 2 * math.exp(-u)) / 3
    expected_gap = abs(lam(s) * lam(t) - lam(s + t))
    report = compose_check(spec, s, t)
    assert not report.passed
    assert report.deviation == pytest.approx(expected_gap, abs=1e-10)
    assert expected_gap == pytest.approx(0.028994648155181046, abs=1e-15)
