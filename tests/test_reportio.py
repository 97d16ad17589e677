"""CSV block rendering against the per-cell ``fmt_float`` text."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulimix import (
    AllChannelsRequest,
    analyze_mixture,
    build_all_channels_mix,
    construct_mub,
    default_grid,
    reportio,
    simplex_lattice,
)
from paulimix.semigroupforge import SimplexScan
from paulimix.reportio import _csv_block, fmt_float

# Bit patterns that uniform 64-bit draws almost never hit.
SPECIAL_BITS = [
    0x0000000000000000,  # 0.0
    0x8000000000000000,  # -0.0
    0x0000000000000001,  # smallest subnormal
    0x800FFFFFFFFFFFFF,  # largest negative subnormal
    0x7FF0000000000000,  # inf
    0xFFF0000000000000,  # -inf
    0x7FF8000000000000,  # quiet nan
    0x7FF0000000000001,  # signalling nan payload
    0xFFF8000000000123,  # negative nan with payload
    0x3FF0000000000000,  # 1.0
]

bit_patterns = st.one_of(st.integers(0, 2**64 - 1), st.sampled_from(SPECIAL_BITS))


@st.composite
def bit_tables(draw):
    """A float64 table whose cells repeat a few raw bit patterns."""
    pool = draw(st.lists(bit_patterns, min_size=1, max_size=10))
    n = draw(st.integers(0, 10))
    k = draw(st.integers(1, 6))
    cells = draw(st.lists(st.sampled_from(pool), min_size=n * k, max_size=n * k))
    return np.array(cells, dtype=np.uint64).view(np.float64).reshape(n, k)


@settings(max_examples=300, deadline=None)
@given(bit_tables())
def test_block_matches_fmt_float_row_for_row(table):
    lines = _csv_block("h", table).split("\n")
    assert lines[0] == "h"
    assert lines[-1] == ""
    assert lines[1:-1] == [",".join(map(fmt_float, row)) for row in table]


def test_signed_zeros_stay_apart_among_repeats():
    table = np.array(
        [
            [0.0, 1.5, -0.0],
            [-0.0, 1.5, 0.0],
            [0.0, 0.1, -0.0],
            [-0.0, 0.1, 1.5],
        ]
    )
    assert _csv_block("a,b,c", table) == (
        "a,b,c\n"
        "0,1.5,-0\n"
        "-0,1.5,0\n"
        "0,0.10000000000000001,-0\n"
        "-0,0.10000000000000001,1.5\n"
    )


def test_fmt_float_spells_non_finite_values():
    assert fmt_float(float("nan")) == "nan"
    assert fmt_float(-float("nan")) == "nan"
    assert fmt_float(float("inf")) == "inf"
    assert fmt_float(-float("inf")) == "-inf"
    assert fmt_float(-0.0) == "-0"
    assert fmt_float(np.float64(0.1)) == "0.10000000000000001"


def per_cell_matrix_csv(m):
    lines = ["row,col,re,im"]
    for i in range(m.shape[0]):
        for j in range(m.shape[1]):
            v = complex(m[i, j])
            lines.append(f"{i},{j},{fmt_float(v.real)},{fmt_float(v.imag)}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("is_complex", [True, False], ids=["complex", "real"])
def test_matrix_csv_matches_per_cell_loop(is_complex):
    rng = np.random.default_rng(3)
    m = rng.standard_normal((5, 7))
    if is_complex:
        m = m + 1j * rng.standard_normal((5, 7))
    m[0, :3] = [0.0, -0.0, np.inf]
    m[1, :] = m[0, 0]
    assert reportio.matrix_csv(m) == per_cell_matrix_csv(m)


def test_mub_bases_csv_matches_per_cell_loop():
    bases = construct_mub(3).bases
    lines = ["basis,vector,component,re,im"]
    for b, j, k in np.ndindex(bases.shape):
        v = complex(bases[b, j, k])
        lines.append(f"{b + 1},{j},{k},{fmt_float(v.real)},{fmt_float(v.imag)}")
    assert reportio.mub_bases_csv(construct_mub(3)) == "\n".join(lines) + "\n"


def test_trajectory_csv_formats_without_per_cell_calls(monkeypatch):
    spec = build_all_channels_mix(AllChannelsRequest(3, 1.0, (0.25, 0.25, 0.25, 0.25)))
    result = analyze_mixture(spec, default_grid(2.0, 32))

    def refuse(x):
        raise AssertionError("fmt_float called per cell")

    monkeypatch.setattr(reportio, "fmt_float", refuse)
    text = reportio.trajectory_csv(result.spectral, result.rates)
    assert text.count("\n") == 33
    assert text.startswith("t,lambda_1,lambda_2,lambda_3,lambda_4,gamma_1,")


def per_row_scan_csv(scan):
    """The simplex-scan CSV, one f-string per row."""
    d = scan.dimension
    lines = [",".join([f"x_{i}" for i in range(1, d + 2)] + [
        "status", "is_semigroup", "is_cp_divisible", "min_rate", "noninvertible_inputs",
    ])]
    flag = ("false", "true")
    for row in range(len(scan.counts)):
        weights = ",".join(fmt_float(k / scan.divisions) for k in scan.counts[row])
        if scan.valid[row]:
            semi = flag[bool(scan.is_semigroup[row])]
            cpdiv = flag[bool(scan.is_cp_divisible[row])]
            rate, noninv = fmt_float(scan.min_rate[row]), scan.noninvertible_inputs[row]
            lines.append(f"{weights},ok,{semi},{cpdiv},{rate},{noninv}")
        else:
            lines.append(f"{weights},invalid,,,,")
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([2, 3, 5]),
    st.integers(1, 7),
    st.randoms(use_true_random=False),
    st.lists(bit_patterns, min_size=1, max_size=6),
)
def test_simplex_scan_csv_matches_per_row_loop(d, divisions, rnd, pool):
    # Arbitrary verdict columns, min_rate among special bit patterns: the
    # record gather against the per-row text.
    counts = simplex_lattice(d + 1, divisions)
    n = len(counts)
    valid = np.array([rnd.random() < 0.7 for _ in range(n)])
    bits = np.array([rnd.choice(pool) for _ in range(n)], dtype=np.uint64)
    scan = SimplexScan(
        dimension=d,
        family="matched",
        rate=1.0,
        divisions=divisions,
        counts=counts,
        valid=valid,
        is_semigroup=valid & np.array([rnd.random() < 0.5 for _ in range(n)]),
        is_cp_divisible=valid & np.array([rnd.random() < 0.5 for _ in range(n)]),
        min_rate=np.where(valid, bits.view(np.float64), np.nan),
        noninvertible_inputs=np.where(valid, [rnd.randint(0, d + 1) for _ in range(n)], 0),
    )
    assert reportio.simplex_scan_csv(scan) == per_row_scan_csv(scan)


# ---------------------------------------------------------------------------
# The fixed-notation fast path, 1e-4 <= |x| < 1e17, and its edges
# ---------------------------------------------------------------------------

fast_range = st.floats(1e-4, 1e17, exclude_max=True).flatmap(
    lambda x: st.sampled_from([x, -x])
)


@st.composite
def fast_tables(draw):
    n, k = draw(st.integers(1, 12)), draw(st.integers(1, 5))
    return np.array(draw(st.lists(fast_range, min_size=n * k, max_size=n * k))).reshape(n, k)


@settings(max_examples=300, deadline=None)
@given(fast_tables())
def test_fast_range_matches_fmt_float(table):
    lines = _csv_block("h", table).split("\n")
    assert lines[1:-1] == [",".join(map(fmt_float, row)) for row in table]


def edge_values():
    values = [1234567890123456.75, 123456789012345.625]  # exact ties at digit 17
    for k in range(-4, 18):
        for toward in (np.inf, -np.inf):
            values.append(float(np.nextafter(10.0**k, toward)))
        values.append(10.0**k)
    for edge in (1e-4, 1e17):
        values += [float(np.nextafter(edge, 0.0)), edge, float(np.nextafter(edge, np.inf))]
    values += [0.0, -0.0, np.inf, -np.inf, np.nan]
    return values


def test_named_edges_match_fmt_float_in_one_table():
    values = edge_values()
    values += [-v for v in values]
    values += [0.0] * (-len(values) % 4)
    table = np.array(values).reshape(-1, 4)
    lines = _csv_block("h", table).split("\n")
    assert lines[1:-1] == [",".join(map(fmt_float, row)) for row in table]
    assert fmt_float(1234567890123456.75) == "1234567890123456.8"
    assert fmt_float(123456789012345.625) == "123456789012345.62"


def test_a_table_of_several_chunks_matches_fmt_float():
    rng = np.random.default_rng(11)
    table = rng.choice(np.array(edge_values() + list(rng.standard_normal(5000))), (40000, 3))
    lines = _csv_block("h", table).split("\n")
    assert lines[1:-1] == [",".join(map(fmt_float, row)) for row in table]
