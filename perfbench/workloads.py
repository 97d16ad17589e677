"""Seeded workloads: each is an endless sequence of rounds of operations.

Round ``r`` of a workload is drawn from ``numpy.random.default_rng([seed, r])``
and is the same for the same seed.  Every round runs the same fixed slots
(command kinds and sizes) with freshly drawn parameters, so that runs on
different seeds do comparable work.  The program sees only the argv lists,
the INI files written here, and (for intermediate maps) eigenvalue arrays
computed here.

An operation is one ``paulimix.cli.main(argv)`` call or one batch of
``dynamics.intermediate_map_check`` calls.  Its ``check`` compares the outputs
with expectations from :mod:`oracle`, which never calls paulimix.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

import oracle
from oracle import Ambiguous, Mixture, r

WORKLOADS = {
    "simplex-scan": "many mixtures on short grids: scan sweeps where the "
    "zero-crossing search and bisection dominate",
    "analyze-configs": "few mixtures on long grids with refinement, plus heavy "
    "trajectory CSV writing",
    "verify-suite": "matrix-layer CP checks and randomized theorem scanners; "
    "no zero-crossing search",
}

MAX_DRAWS = 2000


@dataclass
class Op:
    kind: str
    units: dict  # work counted for throughput, e.g. {"mixtures": 120}
    check: Callable  # check(result) -> list of problem strings
    argv: Optional[list] = None
    call: Optional[Callable] = None  # call(paulimix) for library operations
    outputs: tuple = ()
    known_defect: Optional[str] = None
    defect_check: Optional[Callable] = None  # passes on the known wrong output
    digest_text: Optional[Callable] = field(default=None, repr=False)


def run_ok(result) -> list:
    rc, _out, err = result
    return [] if rc == 0 else [f"exit code {rc}: {err.strip()[-300:]}"]


# ---------------------------------------------------------------------------
# simplex-scan
# ---------------------------------------------------------------------------


def _compositions(n: int, k: int):
    for cut in itertools.combinations(range(k + n - 1), n - 1):
        parts, prev = [], -1
        for c in cut:
            parts.append(c - prev - 1)
            prev = c
        parts.append(k + n - 2 - prev)
        yield parts


def scan_op(out_dir: str, slot: int, d: int, family: str, k: int, c: float) -> Op:
    csv_path = os.path.join(out_dir, f"scan_s{slot}.csv")
    lattice = list(_compositions(d + 1, k))

    def invalid(j):
        return family == "matched" and any(ji * d * d < (d - 1) * k for ji in j)

    classified = sum(1 for j in lattice if not invalid(j))

    def check(result):
        problems = run_ok(result)
        if problems:
            return problems
        rows = oracle.read_csv_rows(csv_path)
        if len(rows) != len(lattice):
            return [f"{len(rows)} rows, expected {len(lattice)}"]
        seen = set()
        for row in rows:
            x = [float(row[f"x_{i}"]) for i in range(1, d + 2)]
            j = tuple(round(v * k) for v in x)
            if sum(j) != k or any(abs(v * k - ji) > 1e-9 for v, ji in zip(x, j)):
                problems.append(f"weights {x} are not on the {k}-lattice")
                continue
            seen.add(j)
            if invalid(j):
                if row["status"] != "invalid":
                    problems.append(f"{j}: expected invalid, got {row['status']}")
                continue
            if row["status"] != "ok":
                problems.append(f"{j}: status {row['status']}")
                continue
            semi = row["is_semigroup"] == "true"
            noninv = int(row["noninvertible_inputs"])
            if family == "matched":
                want = sum(1 for ji in j if d * ji < k)
                if not semi or row["is_cp_divisible"] != "true":
                    problems.append(f"{j}: matched point is not a CP-divisible semigroup")
                if noninv != want or noninv < d:
                    problems.append(f"{j}: {noninv} noninvertible inputs, expected {want}")
            else:
                corner = sum(1 for ji in j if ji) == 1
                if semi != corner:
                    problems.append(f"{j}: is_semigroup={semi}, expected {corner}")
                if noninv:
                    problems.append(f"{j}: {noninv} noninvertible inputs, expected 0")
        if len(seen) != len(lattice):
            problems.append("simplex points repeated or missing")
        summary = json.loads(result[1])
        if summary["points"] != len(lattice) or summary["points"] - summary["invalid_points"] != classified:
            problems.append("summary counts disagree with the CSV")
        return problems[:5]

    argv = ["scan", str(d), "--family", family, "--divisions", str(k),
            "--rate", r(c), "--out", csv_path]
    return Op(f"scan-{family}-d{d}", {"mixtures": classified}, check, argv=argv,
              outputs=(csv_path,))


def simplex_scan_round(rng, index: int, out_dir: str, tiny: bool) -> list:
    # Sizes cycle with the round index, the same for every seed; the seed
    # draws the rates.  c >= 1 keeps every matched singular time
    # ln(k)/c <= ln(60) < 5 inside the default window.
    k3, k5, k2 = (2, 1, 8) if tiny else ((4, 5, 6)[index % 3], (2, 3)[index % 2],
                                         40 + (8 * index) % 21)
    return [
        scan_op(out_dir, 0, 3, "semigroup", k3, rng.uniform(0.5, 2.0)),
        scan_op(out_dir, 1, 5, "semigroup", k5, rng.uniform(0.5, 2.0)),
        scan_op(out_dir, 2, 2, "matched", k2, rng.uniform(1.0, 2.0)),
    ]


# ---------------------------------------------------------------------------
# analyze-configs
# ---------------------------------------------------------------------------


@dataclass
class Expect:
    is_semigroup: Optional[bool] = None
    is_cp_divisible: Optional[bool] = None
    exponents: Optional[list] = None
    singular: Optional[list] = None  # [(label, t)]
    inputs: Optional[list] = None  # [(verdict, [t])]
    lam: Optional[Callable] = None  # t -> (d+1, n)
    gamma: Optional[Callable] = None  # t -> (d+1, n)
    time_tol: float = oracle.TIME_TOL


def analyze_op(out_dir, slot, kind, mix: Mixture, t_max, points, expect: Expect,
               defect: Optional[tuple] = None) -> Op:
    """``defect`` = (description, Expect of the known wrong output), if any."""
    stem = f"cfg_s{slot}"
    cfg = os.path.join(out_dir, stem + ".ini")
    traj = os.path.join(out_dir, stem + "_trajectory.csv")
    cls = os.path.join(out_dir, stem + "_classification.json")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(mix.ini(t_max, points, traj, cls))
    d = mix.dimension

    def check(result, e=expect):
        problems = run_ok(result)
        if problems:
            return problems
        doc = oracle.read_json(cls)
        t, lam, gamma = oracle.read_trajectory(traj, d)
        if t[0] != 0.0 or not oracle.close(t[-1], t_max, 1e-15) or t.size < points:
            problems.append("trajectory grid does not span the configured window")
        if not doc["p_in_range"]:
            problems.append("p_in_range is false")
        for key in ("is_semigroup", "is_cp_divisible"):
            want = getattr(e, key)
            if want is not None and doc[key] != want:
                problems.append(f"{key}={doc[key]}, expected {want}")
        if e.exponents is not None:
            got = [float(v) for v in doc["semigroup_exponents"]]
            if len(got) != len(e.exponents) or not all(
                oracle.close(g, w, 1e-9, 1e-12) for g, w in zip(got, e.exponents)
            ):
                problems.append(f"exponents {got}, expected {e.exponents}")
        if e.singular is not None:
            got = [(s["label"], float(s["time"])) for s in doc["singular_times"]]
            if [g[0] for g in got] != [w[0] for w in e.singular] or not oracle.times_match(
                [g[1] for g in got], [w[1] for w in e.singular], e.time_tol
            ):
                problems.append(f"singular times {got}, expected {e.singular}")
        if e.inputs is not None:
            for v, (verdict, times) in zip(doc["inputs"], e.inputs):
                got_t = [float(x) for x in v["singular_times"]]
                if v["verdict"] != verdict or not oracle.times_match(got_t, times, e.time_tol):
                    problems.append(
                        f"input {v['component']}: {v['verdict']} {got_t}, "
                        f"expected {verdict} {times}"
                    )
            if len(doc["inputs"]) != len(e.inputs):
                problems.append("wrong number of input verdicts")
        if e.lam is not None:
            dev = float(np.abs(lam - e.lam(t)).max())
            if dev > 1e-9:
                problems.append(f"lambda deviates from the closed form by {dev:g}")
        if e.gamma is not None:
            want = e.gamma(t)
            dev = float((np.abs(gamma - want) / np.maximum(np.abs(want), 1e-300)).max())
            if dev > 1e-7:
                problems.append(f"gamma deviates from the closed form by {dev:g} (relative)")
        return problems

    op = Op(f"analyze-{kind}", {"configs": 1}, check, argv=["analyze", cfg],
            outputs=(traj, cls))
    if defect is not None:
        op.known_defect = defect[0]
        op.defect_check = lambda result: check(result, defect[1])
    return op


def _cell(t_max, points):
    return t_max / (points - 1)


def _input_expect(mix: Mixture, t_max, points):
    out = []
    for i in range(len(mix.components)):
        zs = oracle.roots(mix.input_lambda(i), t_max, _cell(t_max, points))
        out.append(("noninvertible" if zs else "invertible", zs))
    return out


def _output_expect(mix: Mixture, t_max, points):
    found = []
    for beta in range(mix.dimension + 1):
        f = lambda t, b=beta: mix.eigenvalues(t)[b]  # noqa: E731
        found += [(beta + 1, z) for z in oracle.roots(f, t_max, _cell(t_max, points))]
    return sorted(found)


def all_channels_case(rng, d):
    c = rng.uniform(0.5, 3.0)
    for _ in range(MAX_DRAWS):
        x = (d - 1) / d**2 + rng.dirichlet(np.ones(d + 1)) / d**2
        g = 1.0 - d * x
        # ties x = 1/d and singular times within 1% of the window's end are
        # redrawn: the window is 5/c, and t* = ln(1/g)/c.
        if np.all(np.abs(g) > 1e-3) and np.all((g <= 0) | (g > 0.01)):
            break
    comps = tuple(
        (float(xi), i + 1, oracle.exp_relax((d - 1) / (xi * d**2), c)) for i, xi in enumerate(x)
    )
    t_max = 5.0 / c
    inputs = []
    for xi in x:
        ts = oracle.all_channels_singular_time(float(xi), d, c)
        inputs.append(("noninvertible", [ts]) if ts is not None else ("invertible", []))
    rate = (d - 1) * c / d**2
    expect = Expect(
        is_semigroup=True, is_cp_divisible=True, exponents=[c] * (d + 1), singular=[],
        inputs=inputs,
        lam=lambda t: np.exp(-c * t)[None, :].repeat(d + 1, axis=0),
        gamma=lambda t: np.full((d + 1, t.size), rate),
    )
    return Mixture(d, comps), t_max, expect


def same_basis_case(rng, d, template, points):
    for _ in range(MAX_DRAWS):
        c = rng.uniform(0.5, 2.0)
        a = rng.uniform(0.1, 0.4)
        basis = int(rng.integers(1, d + 2))
        s, k = rng.uniform(0.2, 1.0), rng.uniform(0.2, 2.0)
        if template == "product":
            q_src, q = oracle.product_template(s, k, rng.uniform(0.1, 0.5), rng.uniform(0.3, 2.0))
        else:
            m, k2 = s * rng.uniform(0.0, 0.8), k * rng.uniform(0.2, 1.0)
            q_src, q = oracle.difference_template(s, k, m, k2)
        big_f, big_q = (d - 1) / d / (1.0 - a), a / (1.0 - a)
        p_src = f"{r(big_f)}*(1-exp(-{r(c)}*t)) - {r(big_q)}*({q_src})"

        def p(t, big_f=big_f, big_q=big_q, c=c, q=q):
            return big_f * (1.0 - np.exp(-c * t)) - big_q * q(t)

        t_max = 5.0 / c
        tt = np.linspace(0.0, t_max, 8001)[1:]
        if not (np.all(p(tt) > 1e-9) and np.all(p(tt) < 1.0 - 1e-6)):
            continue
        mix = Mixture(d, ((1.0 - a, basis, oracle.expression(p_src, p)),
                          (a, basis, oracle.expression(q_src, q))))
        try:
            inputs = _input_expect(mix, t_max, points)
        except Ambiguous:
            continue
        exps = [0.0 if beta == basis - 1 else c for beta in range(d + 1)]

        def lam(t, basis=basis, c=c):
            out = np.exp(-c * t)[None, :].repeat(d + 1, axis=0)
            out[basis - 1] = 1.0
            return out

        expect = Expect(is_semigroup=True, is_cp_divisible=True, exponents=exps,
                        singular=[], inputs=inputs, lam=lam)
        return mix, t_max, expect
    raise RuntimeError("no admissible same-basis draw")


def equal_mix_case(rng, d):
    c = rng.uniform(0.5, 2.0)
    comps = tuple(
        (1.0 / (d + 1), b, oracle.exp_relax((d - 1) / d, c)) for b in range(1, d + 2)
    )
    mix = Mixture(d, comps)
    t_max = 5.0 / c
    expect = Expect(
        is_semigroup=False, is_cp_divisible=True, singular=[],
        inputs=[("semigroup", [])] * (d + 1),
        lam=mix.eigenvalues,
        gamma=lambda t: oracle.equal_mix_rate(t, d, c)[None, :].repeat(d + 1, axis=0),
    )
    return mix, t_max, expect


# Scales of the random inputs start at 0.7: an exponential input with scale
# (d-1)/d (1/2 at d=2, 2/3 at d=3) is an exact semigroup, and within the
# sampled-input tolerance 1e-5 of it the product rightly says "semigroup".
MIN_RANDOM_SCALE = 0.7


def _random_expression(rng):
    s, k = rng.uniform(MIN_RANDOM_SCALE, 1.0), rng.uniform(0.3, 2.5)
    pick = int(rng.integers(3))
    if pick == 0:
        return oracle.expression(*oracle.exp_template(s, k))
    if pick == 1:
        return oracle.expression(
            *oracle.product_template(s, k, rng.uniform(0.1, 0.5), rng.uniform(0.3, 2.0))
        )
    return oracle.expression(
        *oracle.difference_template(s, k, s * rng.uniform(0.0, 0.5), k * rng.uniform(0.2, 1.0))
    )


def _random_samples(rng, t_max):
    times = np.linspace(0.0, t_max, 257)
    s, k = rng.uniform(MIN_RANDOM_SCALE, 1.0), rng.uniform(0.3, 2.5)
    return oracle.samples(times, s * (1.0 - np.exp(-k * times)))


def random_case(rng, d, points, sampled):
    """Random mixture whose output map loses invertibility inside the window."""
    t_max = 5.0
    for _ in range(MAX_DRAWS):
        n = 3
        bases = rng.integers(1, d + 2, size=n)
        weights = 0.05 + (1.0 - 0.05 * n) * rng.dirichlet([6.0, 1.0, 1.0])
        weights[-1] = 1.0 - weights[:-1].sum()
        funcs = [
            _random_samples(rng, t_max) if sampled and i != 1 else _random_expression(rng)
            for i in range(n)
        ]
        mix = Mixture(d, tuple((float(w), int(b), f) for w, b, f in zip(weights, bases, funcs)))
        try:
            singular = _output_expect(mix, t_max, points)
            if not singular:
                continue
            inputs = _input_expect(mix, t_max, points)
        except Ambiguous:
            continue
        return mix, t_max, Expect(is_semigroup=False, singular=singular, inputs=inputs,
                                  lam=mix.eigenvalues)
    raise RuntimeError("no admissible random draw")


def tangential_probe():
    """Qubit input p = sin(t)^2 / 2, so lambda = cos(t)^2 touches 0 at pi/2.

    Returns the mixture, window, expectation, and the known defect (ROADMAP
    3a): at the time of writing the zero is missed, the input is reported
    invertible and the output map has no singular time.
    """
    f = oracle.expression("0.5*sin(t)^2", lambda t: 0.5 * np.sin(t) ** 2)
    mix = Mixture(2, ((1.0, 1, f),))
    half_pi = math.pi / 2
    expect = Expect(
        singular=[(2, half_pi), (3, half_pi)],
        inputs=[("noninvertible", [half_pi])],
        lam=mix.eigenvalues,
        time_tol=1e-6,
    )
    missed = Expect(singular=[], inputs=[("invertible", [])], lam=mix.eigenvalues)
    text = ("tangential zero missed (ROADMAP 3a): qubit p = 0.5*sin(t)^2 should be "
            "noninvertible at t = pi/2")
    return mix, 3.0, expect, (text, missed)


def analyze_round(rng, out_dir: str, tiny: bool) -> list:
    def n(points):
        return 64 if tiny else points

    slots = [
        ("all-channels-d2", lambda: all_channels_case(rng, 2), 4096),
        ("same-basis-product-d2", lambda: same_basis_case(rng, 2, "product", n(2048)), 2048),
        ("random-expression-d2", lambda: random_case(rng, 2, n(1024), False), 1024),
        ("all-channels-d3", lambda: all_channels_case(rng, 3), 2048),
        ("equal-mix-d2", lambda: equal_mix_case(rng, 2), 1024),
        ("random-samples-d3", lambda: random_case(rng, 3, n(768), True), 768),
        ("all-channels-d5", lambda: all_channels_case(rng, 5), 1024),
        ("same-basis-difference-d3", lambda: same_basis_case(rng, 3, "difference", n(1536)), 1536),
        ("equal-mix-d5", lambda: equal_mix_case(rng, 5), 512),
        ("all-channels-d31", lambda: all_channels_case(rng, 31), 512),
    ]
    ops = []
    for slot, (kind, make, points) in enumerate(slots):
        mix, t_max, expect = make()
        ops.append(analyze_op(out_dir, slot, kind, mix, t_max, n(points), expect))
    mix, t_max, expect, defect = tangential_probe()
    ops.append(analyze_op(out_dir, len(slots), "tangential-d2", mix, t_max, n(512), expect,
                          defect))
    return ops


# ---------------------------------------------------------------------------
# verify-suite
# ---------------------------------------------------------------------------


def verify_op(out_dir, slot, what, args, units, seed) -> Op:
    path = os.path.join(out_dir, f"verify_s{slot}.json")
    argv = ["verify", what, *args, "--seed", str(seed), "--report", path]

    def check(result):
        problems = run_ok(result)
        if problems:
            return problems
        doc = oracle.read_json(path)
        if doc.get("pass") is not True or doc.get("counterexamples"):
            problems.append(f"{what}: pass={doc.get('pass')}")
        if doc.get("seed") != seed:
            problems.append(f"{what}: report seed {doc.get('seed')}, expected {seed}")
        return problems

    return Op(f"verify-{what}", units, check, argv=argv, outputs=(path,))


def imap_op(pm, rng, count: int) -> Op:
    """Intermediate-map CP verdicts on a d=3 mixture, against the closed form."""
    d, points, t_max = 3, 256, 5.0
    x = rng.dirichlet(np.ones(d + 1))
    x[-1] = 1.0 - x[:-1].sum()
    scales, rates = rng.uniform(0.3, 0.6, d + 1), rng.uniform(0.3, 3.0, d + 1)
    times = np.linspace(0.0, t_max, points)
    p = scales[:, None] * (1.0 - np.exp(-np.outer(rates, times)))
    dp = (scales * rates)[:, None] * np.exp(-np.outer(rates, times))
    f = d / (d - 1.0)
    lam = 1.0 - f * ((x[:, None] * p).sum(0)[None, :] - x[:, None] * p)
    dlam = -f * ((x[:, None] * dp).sum(0)[None, :] - x[:, None] * dp)
    traj = pm.dynamics.SpectralTrajectory(d, pm.dynamics.TimeGrid(times), lam, dlam)
    pairs, spectra = [], []
    while len(pairs) < count:
        ia, ib = sorted(int(v) for v in rng.choice(points, size=2, replace=False))
        mu = lam[:, ib] / lam[:, ia]
        spec = oracle.choi_spectrum(mu, d)
        if abs(spec.min()) < 1e-6:
            continue  # verdict within rounding of the PSD tolerance
        pairs.append((float(times[ia]), float(times[ib])))
        spectra.append((mu, spec))

    def call(paulimix):
        check_map = paulimix.dynamics.intermediate_map_check
        return [check_map(traj, ta, tb) for ta, tb in pairs]

    def check(results):
        problems = []
        for res, (mu, spec) in zip(results, spectra):
            want_cp = bool(spec.min() >= -1e-10)
            if not res.defined or res.is_cp != want_cp:
                problems.append(f"({res.t_a}, {res.t_b}): is_cp={res.is_cp}, expected {want_cp}")
            elif abs(res.min_choi_eigenvalue - spec.min()) > 1e-9:
                problems.append(
                    f"({res.t_a}, {res.t_b}): min Choi eigenvalue {res.min_choi_eigenvalue!r}, "
                    f"closed form {spec.min()!r}"
                )
            elif not np.allclose(res.eigenvalue_ratios, mu, rtol=1e-12, atol=0):
                problems.append(f"({res.t_a}, {res.t_b}): eigenvalue ratios differ")
        return problems[:5]

    def digest_text(results):
        return "".join(f"{x.t_a!r},{x.t_b!r},{x.is_cp},{x.min_choi_eigenvalue!r}\n" for x in results)

    return Op("imap-d3", {"cp_checks": count}, check, call=call, digest_text=digest_text)


def verify_round(rng, index: int, out_dir: str, tiny: bool, pm) -> list:
    # Sized so that the scanners (theorem1, theorem2) and the matrix-layer
    # checks (intermediate maps, cptp) each take about half of a round.
    # Sizes cycle with the round index; the seed draws the scanner seeds and
    # the intermediate-map inputs.
    d2 = 3 if tiny else 5
    ops = []
    for slot in range(2):
        j = 2 * index + slot
        t1 = 100 if tiny else 100 + (23 * j) % 61
        t2 = 100 if tiny else 100 + (17 * j) % 41
        s1, s2 = (int(v) for v in rng.integers(0, 2**31, size=2))
        ops += [
            verify_op(out_dir, 2 * slot, "theorem1", ["--trials", str(t1)], {"trials": t1}, s1),
            verify_op(out_dir, 2 * slot + 1, "theorem2", ["--d", str(d2), "--trials", str(t2)],
                      {"trials": t2}, s2),
        ]
    imap = imap_op(pm, rng, 4 if tiny else 12 + (5 * index) % 9)
    cptp = [
        verify_op(out_dir, 4 + slot, "cptp", ["--d", str(d2), "--trials", "1"],
                  {"cp_checks": 3}, int(rng.integers(0, 2**31)))
        for slot in range(2)
    ]
    return [ops[0], imap, ops[1], cptp[0], ops[2], cptp[1], ops[3]]


def make_round(workload: str, seed: int, index: int, out_dir: str, tiny: bool, pm) -> list:
    rng = np.random.default_rng([seed, index])
    if workload == "simplex-scan":
        return simplex_scan_round(rng, index, out_dir, tiny)
    if workload == "analyze-configs":
        return analyze_round(rng, out_dir, tiny)
    if workload == "verify-suite":
        return verify_round(rng, index, out_dir, tiny, pm)
    raise ValueError(f"unknown workload {workload!r}")
