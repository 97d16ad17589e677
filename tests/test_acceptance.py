"""Acceptance suite: ten end-to-end checks, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py``; each criterion is a single
test function and also prints ``criterion N: PASS`` when it succeeds (visible
with ``-s``).
"""

import math
import time

import numpy as np
import pytest

from paulimix import (
    AllChannelsRequest,
    ChannelSpec,
    ExpRelax,
    Expression,
    MixtureSpec,
    SameChannelRequest,
    WeightBoundError,
    build_all_channels_mix,
    build_same_channel_mix,
    classify,
    compose_check,
    construct_mub,
    default_grid,
    detect_semigroup,
    intermediate_map_check,
    mixture_eigenvalues,
    parse,
    rates_from_spectrum,
    superoperator,
    theorem1_scan,
    theorem2_scan,
    verify_mub,
    weyl_set,
)
from paulimix.exprcalc import eval_dual
from util import qubit_rates_abc, random_expression

LN3 = math.log(3.0)


def equal_thirds_mix(c=1.0):
    return build_all_channels_mix(AllChannelsRequest(2, c, (1 / 3, 1 / 3, 1 / 3)))


def three_semigroup_mix():
    f = ExpRelax(0.5, 1.0)
    return MixtureSpec(2, [(1 / 3, ChannelSpec(2, b, f)) for b in (1, 2, 3)])


def two_semigroup_mix():
    f = ExpRelax(0.5, 1.0)
    return MixtureSpec(2, [(0.5, ChannelSpec(2, 1, f)), (0.5, ChannelSpec(2, 2, f))])


def test_criterion_01_equal_three_channel_mix_is_semigroup_with_rate_quarter():
    start = time.perf_counter()
    spec = equal_thirds_mix()
    grid = default_grid(5.0, 512)
    report = classify(spec, grid)
    assert report.is_semigroup

    rates = rates_from_spectrum(mixture_eigenvalues(spec, grid))
    assert np.abs(rates.gamma - 0.25).max() <= 1e-8  # gamma = c/4 on all of [0, 5]

    # Each input alone: rate 3c/(6 - 2 e^{ct}), divergent at t* = ln 3.
    early = grid.times[grid.times <= 1.0]
    input_grid = default_grid(1.0, 64)
    for comp in spec.components:
        single = MixtureSpec(2, [(1.0, comp.channel)])
        g = rates_from_spectrum(mixture_eigenvalues(single, input_grid)).gamma
        self_rate = g[comp.channel.basis - 1]
        expected = 3.0 / (6.0 - 2.0 * np.exp(input_grid.times))
        assert np.abs(self_rate - expected).max() <= 1e-9
    for verdict in report.inputs:
        assert verdict.verdict == "noninvertible"
        assert abs(verdict.singular_times[0] - LN3) <= 1e-9
    assert time.perf_counter() - start < 1.0
    print("criterion 1: PASS")


def test_criterion_02_equal_semigroup_mix_has_decaying_rates():
    grid = default_grid(5.0, 512)
    traj = mixture_eigenvalues(three_semigroup_mix(), grid)
    rates = rates_from_spectrum(traj)
    expected = 1.0 / (2.0 * (2.0 + np.exp(grid.times)))
    assert np.abs(rates.gamma - expected[None, :]).max() <= 1e-9
    assert abs(rates.gamma[0, 0] - 1.0 / 6.0) <= 1e-12
    assert not detect_semigroup(traj, rates, 1e-8).is_semigroup
    print("criterion 2: PASS")


def test_criterion_03_same_basis_pairing_gives_constant_half_rate():
    def check(req):
        spec = build_same_channel_mix(req)
        grid = default_grid(5.0 / req.rate, 256)
        rates = rates_from_spectrum(mixture_eigenvalues(spec, grid))
        shared = rates.gamma[req.basis - 1]
        target = req.rate / 2.0
        assert np.abs(shared - target).max() <= 1e-8
        for label in range(3):
            if label != req.basis - 1:
                assert np.abs(rates.gamma[label]).max() <= 1e-8

    check(SameChannelRequest(2, 1.0, 0.5, Expression("0.3*sin(t)^2")))
    rng = np.random.default_rng(314)
    for _ in range(20):
        q = ExpRelax(float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.2, 1.0)))
        check(SameChannelRequest(2, 1.0, 0.5, q))
    print("criterion 3: PASS")


def test_criterion_04_qubit_scan_finds_no_counterexamples():
    start = time.perf_counter()
    report = theorem1_scan(1000, 20260813)
    assert report.passed and not report.counterexamples
    assert report.details["subset_semigroups"] == 0
    assert report.details["min_noninvertible_inputs"] >= 2
    assert time.perf_counter() - start < 60.0
    print("criterion 4: PASS")


def test_criterion_05_prime_dimension_scans_and_weight_bound():
    start = time.perf_counter()
    for d in (3, 5):
        report = theorem2_scan(d, 500, 20260813)
        assert report.passed and not report.counterexamples
        assert report.details["subset_semigroups"] == 0
        assert report.details["min_noninvertible_inputs"] >= d
    with pytest.raises(WeightBoundError) as exc:
        build_all_channels_mix(AllChannelsRequest(3, 1.0, (0.1, 0.3, 0.3, 0.3)))
    assert exc.value.bound == pytest.approx(2 / 9, abs=0)
    assert "0.2222" in str(exc.value)
    assert time.perf_counter() - start < 300.0
    print("criterion 5: PASS")


def test_criterion_06_unbiased_bases_and_twirling_identity():
    for d in (2, 3, 5, 7, 11):
        report = verify_mub(construct_mub(d), 1e-12)
        assert report.passed, f"d={d}: {report}"
    for d in (2, 3, 5):
        weyl = weyl_set(d)
        for alpha in range(d + 1):
            for beta in range(d + 1):
                if alpha == beta:
                    continue
                ua = weyl.unitaries[alpha]
                ub = weyl.unitaries[beta]
                for m in range(1, d):
                    total = np.zeros((d, d), dtype=complex)
                    uk = np.eye(d, dtype=complex)
                    for _ in range(d):
                        total += uk @ np.linalg.matrix_power(ub, m) @ uk.conj().T
                        uk = uk @ ua
                    assert np.abs(total).max() <= 1e-10
    print("criterion 6: PASS")


def test_criterion_07_spectral_and_superoperator_layers_agree():
    for d in (2, 3):
        rng = np.random.default_rng(900 + d)
        for _ in range(50):
            n = int(rng.integers(1, d + 2))
            bases = rng.integers(1, d + 2, size=n)
            weights = rng.dirichlet(np.ones(n))
            funcs = [
                ExpRelax(float(rng.uniform(0.1, 0.45)), float(rng.uniform(0.2, 2.0)))
                for _ in range(n)
            ]
            spec = MixtureSpec(
                d,
                [
                    (float(w), ChannelSpec(d, int(b), f))
                    for w, b, f in zip(weights, bases, funcs)
                ],
            )
            t = float(rng.uniform(0.1, 3.0))
            vals = np.linalg.eigvalsh(superoperator(spec, t))
            lam = np.ones(d + 1)
            for w, b, f in zip(weights, bases, funcs):
                p = float(f.value(t))
                for label in range(d + 1):
                    if label != b - 1:
                        lam[label] -= (d / (d - 1)) * w * p
            expected = np.sort(np.concatenate([[1.0], np.repeat(lam, d - 1)]))
            assert np.abs(np.sort(vals) - expected).max() <= 1e-10

            if d == 2:
                grid = default_grid(4.0, 64)
                lam_t = np.ones((3, 64))
                dlam_t = np.zeros((3, 64))
                for w, b, f in zip(weights, bases, funcs):
                    p, dp = f.value_and_derivative(grid.times)
                    for label in range(3):
                        if label != b - 1:
                            lam_t[label] -= 2.0 * w * p
                            dlam_t[label] -= 2.0 * w * dp
                oracle = qubit_rates_abc(lam_t, dlam_t)
                got = rates_from_spectrum(mixture_eigenvalues(spec, grid)).gamma
                scale = np.maximum(1.0, np.abs(oracle))
                assert (np.abs(got - oracle) / scale).max() <= 1e-9
    print("criterion 7: PASS")


def test_criterion_08_semigroup_verdict_matches_composition_law():
    constructions = [
        equal_thirds_mix(),
        build_all_channels_mix(AllChannelsRequest(3, 1.0, (0.25,) * 4)),
        build_same_channel_mix(SameChannelRequest(2, 1.0, 0.5, Expression("0.3*sin(t)^2"))),
        build_same_channel_mix(SameChannelRequest(3, 1.0, 0.25, Expression("(1-exp(-2*t))/3"))),
    ]
    rng = np.random.default_rng(7)
    grid = default_grid(5.0, 256)
    for spec in constructions:
        traj = mixture_eigenvalues(spec, grid)
        assert detect_semigroup(traj, rates_from_spectrum(traj), 1e-8).is_semigroup
        for _ in range(20):
            s, t = rng.uniform(0.05, 2.5, size=2)
            report = compose_check(spec, float(s), float(t), tol=1e-9)
            assert report.passed, (spec.dimension, s, t, report.deviation)

    mix = three_semigroup_mix()
    lam = lambda u: (1 + 2 * math.exp(-u)) / 3
    for s, t in [(0.3, 0.7), (0.5, 0.5), (1.0, 1.4)]:
        report = compose_check(mix, s, t, tol=1e-9)
        assert not report.passed
        assert abs(report.deviation - abs(lam(s) * lam(t) - lam(s + t))) <= 1e-10
    print("criterion 8: PASS")


def test_criterion_09_choi_verdict_matches_rate_sign_criterion():
    grid = default_grid(5.0, 512)
    mixtures = [equal_thirds_mix(), three_semigroup_mix(), two_semigroup_mix()]
    rng = np.random.default_rng(42)
    n = len(grid)
    for spec in mixtures:
        traj = mixture_eigenvalues(spec, grid)
        rates = rates_from_spectrum(traj)
        disagreements = 0
        for _ in range(100):
            ia = int(rng.integers(1, n - 6))
            ib = int(rng.integers(ia + 5, n))
            check = intermediate_map_check(
                traj, float(grid.times[ia]), float(grid.times[ib]), psd_tol=1e-8
            )
            assert check.defined  # all three mixtures stay invertible
            rate_sign_ok = bool(rates.gamma[:, ia : ib + 1].min() >= -1e-8)
            disagreements += int(check.is_cp != rate_sign_ok)
        assert disagreements == 0
    print("criterion 9: PASS")


def test_criterion_10_dual_derivatives_match_finite_differences():
    rng = np.random.default_rng(1234)
    h = 1e-6
    for _ in range(100):
        source = random_expression(rng)
        ast = parse(source)
        for t in rng.uniform(0.05 + 2 * h, 3.5, size=5):
            deriv = eval_dual(ast, float(t)).derivative
            fd = (
                eval_dual(ast, float(t) + h).value - eval_dual(ast, float(t) - h).value
            ) / (2 * h)
            assert abs(deriv - fd) / max(1.0, abs(deriv)) <= 1e-6, source
    print("criterion 10: PASS")
