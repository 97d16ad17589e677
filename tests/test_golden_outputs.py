"""Byte-identity goldens for CLI outputs and construction diagnostics.

The digests were captured before the zero-crossing search was vectorised;
that search (and every later refactor of the root finding) must leave these
outputs unchanged, byte for byte.  A digest mismatch means some reported
number moved, not only its formatting.
"""

import hashlib
import textwrap

import numpy as np
import pytest

from paulimix import (
    ConstructionError,
    Expression,
    SameChannelRequest,
    SampledGrid,
    build_same_channel_mix,
)
from paulimix.cli import main


@pytest.fixture(autouse=True)
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("PAULIMIX_OUT", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# Output map loses invertibility (lambda_3 crosses 0 near t = 0.57, lambda_2
# near t = 0.90), so the analysis refines the grid around both times.
EXPRESSION_SINGULAR = """\
    [run]
    dimension = 2
    t_max = 5.0
    points = 256

    [component.1]
    weight = 0.6
    basis = 1
    kind = expression
    formula = "1-exp(-2*t)"

    [component.2]
    weight = 0.4
    basis = 2
    kind = expression
    formula = "0.8*sin(t)^2"
    """

# Sampled qutrit inputs: the off-label eigenvalue 1 - (3/2) p of the second
# input crosses zero near t = 1.57 and lambda_3 = lambda_4 of the output near
# t = 2.24, so both searches run on interpolated (PCHIP) functions.
SAMPLES_SINGULAR = """\
    [run]
    dimension = 3
    t_max = 5.0
    points = 128

    [component.1]
    weight = 0.5
    basis = 1
    kind = samples
    times = 0, 0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4, 4.5, 5
    values = 0, 0.2, 0.35, 0.45, 0.52, 0.57, 0.6, 0.62, 0.63, 0.635, 0.64

    [component.2]
    weight = 0.5
    basis = 2
    kind = samples
    times = 0, 0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4, 4.5, 5
    values = 0, 0.3, 0.5, 0.65, 0.75, 0.82, 0.86, 0.88, 0.89, 0.895, 0.9
    """


@pytest.mark.parametrize(
    "argv, csv_name, csv_digest, stdout_digest",
    [
        (
            ["scan", "2", "--family", "matched", "--divisions", "20"],
            "scan_d2_matched.csv",
            "9002a25ed7d37f80fd9ce6a1cf05aa16a28aba2bb6dc6e9fc895796a92badecc",
            "bd87b5d578e9a94e92e5b6f1e96e10bf1f206156cb3f2187309334db5a45d243",
        ),
        (
            ["scan", "3", "--family", "semigroup", "--divisions", "4"],
            "scan_d3_semigroup.csv",
            "efe103067f6765db099a7a3e1cdae2abefe4828ba0fa931bb756cc8cbcf2f000",
            "26fa5f9faba744c7810f91ee3454ed725caa015a70f304101951b84bc2e005c9",
        ),
        # The four below were captured while scan still classified one
        # lattice point at a time; the batched classifier must match them.
        (
            ["scan", "7", "--divisions", "3"],
            "scan_d7_semigroup.csv",
            "02f456ab8f676dd16a5bb7bea9a67363ea7fa64cdb2dfa49086ebddde0928eca",
            "aaee9dd8df6bed40e6bf2404be287c46cf3029a57436f1ddebd0ae37e382fc14",
        ),
        (
            ["scan", "31", "--divisions", "2"],
            "scan_d31_semigroup.csv",
            "e77d0c3a9f7511bd4e849835811e6b8983812cb103c33cca5c904f0ef144172f",
            "91eabc99c6df649fe57580513908254407b170d375ae8945c6c9057d0f9cadd8",
        ),
        (
            ["scan", "5", "--family", "matched", "--divisions", "30", "--rate", "0.3"],
            "scan_d5_matched.csv",
            "11a4ab6d52f19b06f39d3abbd6a310f63d9f464eef7caa4b0a9087f8c0c70c0a",
            "576b9f5b4f8b317891d8b98aad4a7431b05af91bcc0f9fd24b823175aefc6d90",
        ),
        # At rate 40 the eigenvalues of points off some label fall below the
        # pole tolerance, so these rows have pole columns.
        (
            ["scan", "3", "--divisions", "6", "--rate", "40"],
            "scan_d3_semigroup.csv",
            "13269ed1bd8a2bd35621d0834fb4193fb1bef3daae068cbf482bc4a712c6aef8",
            "178a296cf368dee0e5bbd0a72560dd1268984e682b8d64a06c1e1ed192addd34",
        ),
    ],
)
def test_scan_outputs_are_byte_identical(
    out_dir, capsys, argv, csv_name, csv_digest, stdout_digest
):
    assert main(argv) == 0
    # The summary names the CSV by its absolute path.
    stdout = capsys.readouterr().out.replace(str(out_dir), "OUT")
    assert sha256((out_dir / csv_name).read_text()) == csv_digest
    assert sha256(stdout) == stdout_digest


@pytest.mark.parametrize(
    "config, json_digest, csv_digest",
    [
        (
            EXPRESSION_SINGULAR,
            "d7d280389e667c92a9a06ed91d5052311c9c63a8bf4035b2ceeac4d1b2e93cb0",
            "f60393b4f1b1e542c17bd5c07a1a8479dcbe0a96382f5981a0efd303402ff84e",
        ),
        (
            SAMPLES_SINGULAR,
            "edae9818057d42c093d5bb310551b8336b4f75af194ab5ac30f6440a7689bd26",
            "c7b0de6aa28d83ee97e6f018011ed6505e94e9257e52d7441a39c0211aac8e76",
        ),
    ],
    ids=["expression", "samples"],
)
def test_analyze_outputs_are_byte_identical(out_dir, config, json_digest, csv_digest):
    (out_dir / "mix.ini").write_text(textwrap.dedent(config))
    assert main(["analyze", str(out_dir / "mix.ini")]) == 0
    classification = (out_dir / "mix_classification.json").read_text()
    assert '"singular_times": []' not in classification.split('"inputs"')[0]
    assert sha256(classification) == json_digest
    assert sha256((out_dir / "mix_trajectory.csv").read_text()) == csv_digest


def test_same_basis_construct_output_is_byte_identical(capsys):
    argv = ["construct", "2", "1.0", "--same", "0.5", "--q", "0.25*(1-exp(-2*t))"]
    assert main(argv) == 0
    digest = "941956cc45a5780cf084f7ef8d9b5b1f1508054beea9c186edb30b45c2f8958a"
    assert sha256(capsys.readouterr().out) == digest


def test_closed_form_first_violation_is_pinned():
    req = SameChannelRequest(2, 1.0, 0.5, Expression("0.8*sin(t)^2"))
    with pytest.raises(ConstructionError) as exc:
        build_same_channel_mix(req)
    assert exc.value.first_violation == 1.2166039897355967


def test_sampled_first_violation_is_pinned():
    times = np.linspace(0.0, 5.0, 257)
    q = SampledGrid(times, 0.8 * np.sin(times) ** 2)
    with pytest.raises(ConstructionError) as exc:
        build_same_channel_mix(SameChannelRequest(2, 1.0, 0.5, q))
    assert exc.value.first_violation == 1.2166068447541534


# Captured while the dense PSD check still ran the hand-written Jacobi
# solver; the switch to LAPACK must not move any cptp verdict or number.
@pytest.mark.parametrize(
    "d, digest",
    [
        (3, "5cb0a6c8b923846e6539d5c4f77fa6cabde58908760ebcc40d6c1dad44586579"),
        (5, "b66b4e37abde75989c5f49082f74721f58c44caf4ff11c8fe1dc597c283a854b"),
    ],
)
def test_verify_cptp_output_is_byte_identical(capsys, d, digest):
    assert main(["verify", "cptp", "--d", str(d), "--trials", "4"]) == 0
    assert sha256(capsys.readouterr().out) == digest


# Captured while ``choi`` still called ``apply_channel`` once per matrix
# unit; building it from one action on the stack of units must match them.
@pytest.mark.parametrize(
    "d, seed, digest",
    [
        (2, 0, "a147a9d39607a9d76652b050c2088d7fd8aeb8aab0663efcd3a067b03f3afbe8"),
        (7, 0, "4b5db051f461ffbadaf5ae438e21fb20a5aa6b19ae1d49768bb8b22649e7f2d9"),
        (2, 1, "202a990d2756f2e680713f521cac8ebbe5571229946ba5b5cc36be4ced6830dd"),
        (7, 2, "a024a921353b1231f9f3a121d47f885dd29a5f2460bd1fd166a95da4eb66a391"),
    ],
)
def test_verify_cptp_seeded_output_is_byte_identical(capsys, d, seed, digest):
    argv = ["verify", "cptp", "--d", str(d), "--trials", "4", "--seed", str(seed)]
    assert main(argv) == 0
    assert sha256(capsys.readouterr().out) == digest


# Captured while the scanners' product and difference draws were still
# formatted into expression strings and parsed; the closed-form templates
# must replay every draw, verdict and number of those reports.
@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["theorem1", "--trials", "120", "--seed", "5"],
            "074a0da28aaae62ba7876416f2912d03fd3f94ae28e4040a8cff6d41fafa3467",
        ),
        (
            ["theorem2", "--d", "5", "--trials", "100", "--seed", "3"],
            "fa048477fa1d422977d79e9666ebbdd6141ea007723639c6955529acafb24c67",
        ),
        # These two were captured while every trial still got its own
        # one-mixture semigroup verdict; the sliced, batched scanner must
        # match them.
        (
            ["theorem1", "--trials", "1000", "--seed", "0"],
            "0b2f49e45869742adc0e78b064f3249665bde087440224d3d22341cd0ea2034c",
        ),
        (
            ["theorem2", "--d", "31", "--trials", "100", "--seed", "0"],
            "f35003823a505eee523e7be0abc90d27a52d710bef48bf04e42e567d40b587df",
        ),
    ],
)
def test_verify_scanner_output_is_byte_identical(capsys, argv, digest):
    assert main(["verify", *argv]) == 0
    assert sha256(capsys.readouterr().out) == digest


# Goldens below were captured while every CSV cell still went through
# ``fmt_float`` one at a time; the block renderer must reproduce them.

# A qutrit mixture for the choi/superop dumps.
QUTRIT_DUMP = """\
    [run]
    dimension = 3
    t_max = 5.0
    points = 64

    [component.1]
    weight = 0.7
    basis = 1
    kind = expression
    formula = "1-exp(-2*t)"

    [component.2]
    weight = 0.3
    basis = 3
    kind = expression
    formula = "0.5*sin(t)^2"
    """


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["dump", "mub-bases", "--d", "3"],
            "bdc205541dc73675705bebf621ae5c4dbad44e5528ef6cd5c91e065498a52a84",
        ),
        (
            ["dump", "mub-unitaries", "--d", "3"],
            "6c123f9433c555b0412ee83fc591085192a10c4097efcceca574baab30a7601e",
        ),
        (
            ["dump", "choi", "--config", "mix.ini", "--t", "0.7"],
            "ff35c4d3b20e893f51810c5bab21ae78b3c1e4571f687515d1a9d292639403cd",
        ),
        (
            ["dump", "superop", "--config", "mix.ini", "--t", "0.7"],
            "494d69319cc9b589934d5615b9d00b1facdbbbbf65c2d79defd6a2d83516061c",
        ),
    ],
    ids=["mub-bases", "mub-unitaries", "choi", "superop"],
)
def test_dump_outputs_are_byte_identical(out_dir, capsys, argv, digest):
    (out_dir / "mix.ini").write_text(textwrap.dedent(QUTRIT_DUMP))
    assert main(argv) == 0
    assert sha256(capsys.readouterr().out) == digest


# The all-channels semigroup: every label decays as exp(-t), so the spectrum
# is degenerate and most trajectory cells repeat a few doubles.
def test_all_channels_analyze_trajectory_is_byte_identical(out_dir, capsys):
    weights = ["0.2", "0.16", "0.16", "0.16", "0.16", "0.16"]
    assert main(["construct", "5", "1.0", *weights, "--out", "all.ini"]) == 0
    assert main(["analyze", str(out_dir / "all.ini")]) == 0
    csv = (out_dir / "all_trajectory.csv").read_text()
    assert sha256(csv) == "ac8de7c1e1b6a7a518be9b8fc6712950b76354d4d4035fc91acb267684f5710c"


# lambda_2 = lambda_3 = 1 - t vanishes at t = 1, which is off the 64-point
# grid; refinement adds t = 1 itself, where every rate is a pole (inf).
POLE_ON_REFINED_GRID = """\
    [run]
    dimension = 2
    t_max = 2.0
    points = 64

    [component.1]
    weight = 1.0
    basis = 1
    kind = expression
    formula = "0.5*t"
    """


def test_pole_columns_trajectory_is_byte_identical(out_dir):
    (out_dir / "pole.ini").write_text(textwrap.dedent(POLE_ON_REFINED_GRID))
    assert main(["analyze", str(out_dir / "pole.ini")]) == 0
    csv = (out_dir / "pole_trajectory.csv").read_text()
    assert "\n1,1,0,0,inf,inf,inf\n" in csv
    assert sha256(csv) == "493892b702540f0d3e67208ad7e0d4b5a800777eee15956c04dc132e8abf378b"
