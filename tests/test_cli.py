"""Command-line interface: exit codes, outputs, determinism."""

import json
import shutil
import subprocess
import textwrap
import warnings

import pytest

from paulimix.cli import main


@pytest.fixture(autouse=True)
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("PAULIMIX_OUT", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_config(path, text):
    path.write_text(textwrap.dedent(text))
    return str(path)


EQUAL_THIRDS = """\
    [run]
    dimension = 2
    t_max = 5.0
    points = 256

    [component.1]
    weight = 0.3333333333333333
    basis = 1
    kind = exp_relax
    scale = 0.75
    rate = 1.0

    [component.2]
    weight = 0.3333333333333333
    basis = 2
    kind = exp_relax
    scale = 0.75
    rate = 1.0

    [component.3]
    weight = 0.3333333333333334
    basis = 3
    kind = exp_relax
    scale = 0.75
    rate = 1.0
    """


# ---------------------------------------------------------------------------
# construct -> analyze round trip
# ---------------------------------------------------------------------------


def test_construct_then_analyze_round_trip(out_dir, capsys):
    rc = main(["construct", "2", "1.0", "0.25", "0.25", "0.5", "--out", "mix.ini"])
    assert rc == 0
    out, err = capsys.readouterr()
    forecast = json.loads(out)
    assert forecast["construction"] == "all-channels"
    assert forecast["noninvertible_count"] == 2
    verdicts = [ch["verdict"] for ch in forecast["channels"]]
    assert verdicts == ["noninvertible", "noninvertible", "semigroup"]
    assert "config: " in err

    rc = main(["analyze", str(out_dir / "mix.ini")])
    assert rc == 0
    out, _ = capsys.readouterr()
    assert "is_semigroup: true" in out
    assert "is_cp_divisible: true" in out
    report = json.loads((out_dir / "mix_classification.json").read_text())
    assert report["is_semigroup"] is True
    csv_text = (out_dir / "mix_trajectory.csv").read_text()
    assert csv_text.splitlines()[0] == "t,lambda_1,lambda_2,lambda_3,gamma_1,gamma_2,gamma_3"


def test_construct_same_channel_emits_commented_forecast_plus_config(out_dir, capsys):
    rc = main(["construct", "2", "1.0", "--same", "0.5", "--q", "0.3*sin(t)^2"])
    assert rc == 0
    out, _ = capsys.readouterr()
    forecast_lines = [l[2:] for l in out.splitlines() if l.startswith("# ")]
    config_lines = [l for l in out.splitlines() if not l.startswith("# ")]
    forecast = json.loads("\n".join(forecast_lines))
    assert forecast["construction"] == "same-channel"
    assert forecast["channels"][0]["verdict"] == "noninvertible"
    assert forecast["channels"][0]["singular_times"][0] == pytest.approx(
        1.6074280131462158, abs=1e-6
    )
    assert forecast["channels"][1]["verdict"] == "invertible"

    cfg = out_dir / "same.ini"
    cfg.write_text("\n".join(config_lines))
    rc = main(["analyze", str(cfg)])
    assert rc == 0
    report = json.loads((out_dir / "same_classification.json").read_text())
    assert report["is_semigroup"] is True


def test_construct_weight_below_bound_exits_2(capsys):
    rc = main(["construct", "3", "1.0", "0.1", "0.3", "0.3", "0.3"])
    assert rc == 2
    _, err = capsys.readouterr()
    assert "0.2222" in err


def test_construct_same_requires_q(capsys):
    rc = main(["construct", "2", "1.0", "--same", "0.5"])
    assert rc == 2
    _, err = capsys.readouterr()
    assert "--q" in err


def test_construct_same_exits_2_when_the_partner_leaves_the_unit_interval(capsys):
    # The partner p(t) of q = 0.8*sin(t)^2 turns negative near t = 1.2167.
    rc = main(["construct", "2", "1.0", "--same", "0.5", "--q", "0.8*sin(t)^2"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: constructed p(t) leaves [0, 1]")


def test_construct_rejects_a_nonfinite_weight(out_dir, capsys):
    assert main(["construct", "2", "1.0", "nan", "0.5", "0.5", "--out", "c.ini"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: weights must be finite, got (nan, 0.5, 0.5)\n"
    assert not (out_dir / "c.ini").exists()


def test_construct_same_rejects_a_basis_beyond_d_plus_1(out_dir, capsys):
    argv = ["construct", "2", "1.0", "--same", "0.3", "--q", "0.2*(1-exp(-t))", "--basis", "4"]
    assert main([*argv, "--out", "c.ini"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: basis label must lie in 1..3, got 4\n"
    assert not (out_dir / "c.ini").exists()


# ---------------------------------------------------------------------------
# analyze error paths
# ---------------------------------------------------------------------------


def test_analyze_rejects_a_nan_weight_before_writing(out_dir, tmp_path, capsys):
    cfg = write_config(tmp_path / "nan.ini", EQUAL_THIRDS.replace("0.3333333333333333", "nan", 1))
    assert main(["analyze", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: invalid mixture: component 1 weight nan is not finite")
    assert not list(out_dir.glob("nan_*"))


def test_analyze_rejects_bad_weight_sum(out_dir, tmp_path, capsys):
    cfg = write_config(
        tmp_path / "bad.ini",
        """\
        [run]
        dimension = 2

        [component.1]
        weight = 0.5
        basis = 1
        kind = exp_relax
        scale = 0.5
        rate = 1.0

        [component.2]
        weight = 0.2
        basis = 2
        kind = exp_relax
        scale = 0.5
        rate = 1.0
        """,
    )
    rc = main(["analyze", cfg])
    assert rc == 2
    _, err = capsys.readouterr()
    assert "sum" in err


def test_analyze_exits_3_when_samples_do_not_cover_grid(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "short.ini",
        """\
        [run]
        dimension = 2
        t_max = 5.0

        [component.1]
        weight = 1.0
        basis = 1
        kind = samples
        times = 0.0, 0.5, 1.0, 1.5, 2.0
        values = 0.0, 0.1, 0.17, 0.21, 0.24
        """,
    )
    rc = main(["analyze", cfg])
    assert rc == 3
    _, err = capsys.readouterr()
    assert "error:" in err


def test_analyze_reports_position_of_config_errors(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "broken.ini",
        """\
        [run]
        dimension = 2

        [component.1]
        weight = 1.0
        basis = 1
        """,
    )
    rc = main(["analyze", cfg])
    assert rc == 2
    _, err = capsys.readouterr()
    assert "[component.1]" in err and "kind" in err


def test_analyze_rejects_non_numeric_weight(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "nan.ini",
        """\
        [run]
        dimension = 2

        [component.1]
        weight = heavy
        basis = 1
        kind = exp_relax
        scale = 0.5
        rate = 1.0
        """,
    )
    rc = main(["analyze", cfg])
    assert rc == 2
    _, err = capsys.readouterr()
    assert "[component.1] weight" in err


def test_analyze_rejects_unknown_tolerance_key(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "tol.ini",
        """\
        [run]
        dimension = 2

        [tolerances]
        fuzz = 0.1

        [component.1]
        weight = 1.0
        basis = 1
        kind = exp_relax
        scale = 0.5
        rate = 1.0
        """,
    )
    rc = main(["analyze", cfg])
    assert rc == 2
    _, err = capsys.readouterr()
    assert "fuzz" in err


@pytest.mark.parametrize(
    "key, raw", [("semigroup", "nan"), ("cp", "-1e-8"), ("pole", "inf"), ("singularity", "-inf")]
)
def test_analyze_rejects_a_nonfinite_or_negative_tolerance(tmp_path, capsys, key, raw):
    cfg = write_config(
        tmp_path / "tol.ini",
        f"""\
        [run]
        dimension = 2

        [tolerances]
        {key} = {raw}

        [component.1]
        weight = 1.0
        basis = 1
        kind = exp_relax
        scale = 0.5
        rate = 1.0
        """,
    )
    assert main(["analyze", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"tol.ini: [tolerances]: tolerance {key} must be finite and nonnegative" in err


def test_analyze_missing_config_exits_2(capsys):
    rc = main(["analyze", "no_such_file.ini"])
    assert rc == 2
    _, err = capsys.readouterr()
    assert "not found" in err


def test_analyze_flags_out_of_range_function_with_exit_2(out_dir, tmp_path, capsys):
    cfg = write_config(
        tmp_path / "hot.ini",
        """\
        [run]
        dimension = 2

        [component.1]
        weight = 1.0
        basis = 1
        kind = exp_relax
        scale = 1.2
        rate = 1.0
        """,
    )
    rc = main(["analyze", cfg])
    assert rc == 2
    # Outputs are still written: the excursion is flagged, not fatal.
    report = json.loads((out_dir / "hot_classification.json").read_text())
    assert report["p_in_range"] is False


def test_analyze_respects_output_section(out_dir, tmp_path):
    cfg = write_config(
        tmp_path / "routed.ini",
        EQUAL_THIRDS
        + """\

    [output]
    trajectory = sub/flow.csv
    classification = sub/report.json
    """,
    )
    rc = main(["analyze", cfg])
    assert rc == 0
    assert (out_dir / "sub" / "flow.csv").exists()
    assert (out_dir / "sub" / "report.json").exists()


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def test_scan_matched_family_tight_grid(out_dir, capsys):
    rc = main(["scan", "2", "--divisions", "3", "--family", "matched"])
    assert rc == 0
    out, _ = capsys.readouterr()
    summary = json.loads(out)
    assert summary["points"] == 10
    assert summary["invalid_points"] == 9
    assert summary["proper_points"] == 1
    assert summary["semigroup_fraction"] == 1.0
    rows = (out_dir / "scan_d2_matched.csv").read_text().splitlines()
    ok_rows = [r for r in rows if ",ok," in r]
    assert len(ok_rows) == 1
    assert ok_rows[0].split(",")[4] == "true"  # is_semigroup


def test_scan_semigroup_family_corners_and_fractions(out_dir, capsys):
    rc = main(["scan", "2", "--divisions", "4"])
    assert rc == 0
    out, _ = capsys.readouterr()
    summary = json.loads(out)
    assert summary["family"] == "semigroup"
    assert summary["corner_points"] == 3
    assert summary["corner_semigroups"] == 3
    assert summary["proper_points"] == 12
    assert summary["semigroup_fraction"] == 0.0
    assert summary["cp_divisible_fraction"] == pytest.approx(0.25)
    rows = (out_dir / "scan_d2_semigroup.csv").read_text().splitlines()
    corner = next(r for r in rows if r.startswith("1,0,0,"))
    assert corner.split(",")[3:6] == ["ok", "true", "true"]
    eternal = next(r for r in rows if r.startswith("0.5,0.5,0,"))
    fields = eternal.split(",")
    assert fields[4] == "false" and fields[5] == "false"
    assert fields[7] == "0"  # both inputs stay invertible


def test_scan_rejects_bad_step(capsys):
    rc = main(["scan", "2", "--step", "0"])
    assert rc == 2


@pytest.mark.parametrize("family", ["semigroup", "matched"])
def test_scan_rejects_infinite_rate(out_dir, capsys, family):
    rc = main(["scan", "2", "--rate", "inf", "--divisions", "2", "--family", family])
    assert rc == 2
    assert "relaxation rate must be positive and finite" in capsys.readouterr().err
    assert not list(out_dir.glob("*.csv"))


@pytest.mark.parametrize("t_max", ["inf", "nan", "0", "-1"])
def test_scan_rejects_bad_window_without_warnings(capsys, t_max):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["scan", "2", "--t-max", t_max, "--divisions", "2"])
    assert rc == 2
    assert "t_max must be finite and positive" in capsys.readouterr().err


def test_scan_reads_a_negative_rate_with_an_exponent_as_the_rate(out_dir, capsys):
    # Argparse alone takes "-1e-3" and "-inf" for flags, not for values.
    assert main(["scan", "2", "--rate", "-1e-3", "--divisions", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: relaxation rate must be positive and finite, got -0.001\n"
    assert not list(out_dir.glob("*.csv"))


@pytest.mark.parametrize("value", ["1", "-1e-3"])
def test_an_abbreviated_option_is_an_unknown_argument(out_dir, capsys, value):
    # No parser takes abbreviations, so "--ra" is never "--rate", whatever
    # its value, and every float option is joined by its one spelling.
    with pytest.raises(SystemExit) as exc:
        main(["scan", "2", "--ra", value, "--divisions", "2"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --ra {value}\n" in capsys.readouterr().err
    assert not list(out_dir.glob("*.csv"))


def test_analyze_rejects_infinite_rate(out_dir, capsys):
    cfg = out_dir / "inf.ini"
    write_config(
        cfg,
        """
        [run]
        dimension = 2

        [component.1]
        weight = 1.0
        basis = 1
        kind = exp_relax
        scale = 0.5
        rate = inf
        """,
    )
    assert main(["analyze", str(cfg)]) == 2
    assert "[component.1]" in capsys.readouterr().err


@pytest.mark.parametrize("rate", ["inf", "nan", "0", "-1", "1e-320"])
def test_construct_rejects_infinite_rate(out_dir, capsys, rate):
    # The rate is checked before the default window 5/rate is derived from it.
    assert main(["construct", "2", rate, "0.4", "0.3", "0.3", "--out", "c.ini"]) == 2
    assert "target rate" in capsys.readouterr().err
    assert not (out_dir / "c.ini").exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--t-max", "-1"], "grid t_max must be finite and positive"),
        (["--points", "5"], "grid needs at least 32 points"),
    ],
)
def test_construct_rejects_a_bad_grid_before_writing(out_dir, capsys, flags, message):
    argv = ["construct", "2", "1.0", "0.3", "0.3", "0.4", *flags, "--out", "c.ini"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err
    assert not (out_dir / "c.ini").exists()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_mub_passes(capsys):
    rc = main(["verify", "mub", "--d", "3"])
    assert rc == 0
    out, _ = capsys.readouterr()
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["dimension"] == 3


def test_verify_theorem1_report_is_byte_identical(out_dir, capsys):
    rc = main(["verify", "theorem1", "--trials", "120", "--seed", "3", "--report", "r1.json"])
    assert rc == 0
    out, _ = capsys.readouterr()
    assert "theorem1: pass" in out
    rc = main(["verify", "theorem1", "--trials", "120", "--seed", "3", "--report", "r2.json"])
    assert rc == 0
    capsys.readouterr()
    assert (out_dir / "r1.json").read_bytes() == (out_dir / "r2.json").read_bytes()
    doc = json.loads((out_dir / "r1.json").read_text())
    assert doc["pass"] is True and doc["trials"] == 120


def test_verify_theorem2_passes(capsys):
    rc = main(["verify", "theorem2", "--d", "3", "--trials", "100", "--seed", "1"])
    assert rc == 0
    doc = json.loads(capsys.readouterr()[0])
    assert doc["details"]["min_noninvertible_inputs"] >= 3


def test_verify_cptp_passes(capsys):
    rc = main(["verify", "cptp", "--trials", "20", "--seed", "1"])
    assert rc == 0
    doc = json.loads(capsys.readouterr()[0])
    assert doc["pass"] is True


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_verify_cptp_without_trials_exits_2(capsys, trials):
    assert main(["verify", "cptp", "--trials", trials]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "need at least 1 trial" in err


@pytest.mark.parametrize("what", [["theorem1"], ["theorem2", "--d", "3"], ["cptp"]])
def test_verify_rejects_a_negative_seed(capsys, what):
    assert main(["verify", *what, "--trials", "100", "--seed", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: seed must be a nonnegative integer, got -1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["mub", "--tol", "nan"],
        ["mub", "--tol", "-1"],
        ["cptp", "--tol", "nan"],
        ["cptp", "--tol", "-1"],
        ["cptp", "--tol", "inf"],
    ],
)
def test_verify_rejects_a_nonfinite_or_negative_tolerance(capsys, argv):
    assert main(["verify", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--tol must be finite and nonnegative" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "theorem1", "--d", "5", "--trials", "100"], "--d must be 2, got 5"),
        (["verify", "theorem1", "--tol", "0.5"], "verify theorem1 takes no --tol"),
        (["verify", "theorem2", "--tol", "0.5"], "verify theorem2 takes no --tol"),
        (["verify", "mub", "--trials", "7"], "verify mub takes no --trials"),
        (["verify", "mub", "--seed", "3"], "verify mub takes no --seed"),
        (["scan", "2", "--divisions", "4", "--step", "0.1"],
         "give either --divisions or --step, not both"),
        (["construct", "2", "1.0", "0.3", "0.3", "0.4", "--q", "t"],
         "--q applies only with --same"),
        (["construct", "2", "1.0", "0.3", "0.3", "0.4", "--basis", "3"],
         "--basis applies only with --same"),
        (["dump", "mub-bases", "--d", "2", "--t", "3", "--config", "nothere.ini"],
         "dump mub-bases takes no --config"),
        (["dump", "mub-bases", "--d", "2", "--t", "3"], "dump mub-bases takes no --t"),
        (["dump", "mub-unitaries", "--d", "3", "--t", "2"], "dump mub-unitaries takes no --t"),
    ],
)
def test_an_option_that_the_mode_ignores_exits_2(out_dir, capsys, argv, message):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err
    assert not list(out_dir.iterdir())


def test_verify_theorem1_accepts_the_qubit_dimension(capsys):
    assert main(["verify", "theorem1", "--d", "2", "--trials", "100"]) == 0
    assert json.loads(capsys.readouterr()[0])["details"]["dimension"] == 2


def test_verify_report_under_a_regular_file_exits_2(out_dir, capsys):
    (out_dir / "taken").write_text("not a directory\n")
    rc = main(["verify", "mub", "--report", "taken/report.json"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "taken" in err


# ---------------------------------------------------------------------------
# analyze determinism
# ---------------------------------------------------------------------------


def test_analyze_outputs_are_byte_identical(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path / "det.ini", EQUAL_THIRDS)
    for sub in ("one", "two"):
        monkeypatch.setenv("PAULIMIX_OUT", str(tmp_path / sub))
        assert main(["analyze", cfg]) == 0
        capsys.readouterr()
    for name in ("det_trajectory.csv", "det_classification.json"):
        a = (tmp_path / "one" / name).read_bytes()
        b = (tmp_path / "two" / name).read_bytes()
        assert a == b


# ---------------------------------------------------------------------------
# dump
# ---------------------------------------------------------------------------


def test_dump_mub_bases_stdout(capsys):
    rc = main(["dump", "mub-bases", "--d", "2"])
    assert rc == 0
    out, _ = capsys.readouterr()
    lines = out.splitlines()
    assert lines[0] == "basis,vector,component,re,im"
    assert lines[1] == "1,0,0,1,0"


def test_dump_choi_requires_config(capsys):
    rc = main(["dump", "choi"])
    assert rc == 2
    _, err = capsys.readouterr()
    assert "--config" in err


@pytest.mark.parametrize("what", ["choi", "superop"])
def test_dump_of_a_config_takes_no_dimension(out_dir, tmp_path, capsys, what):
    cfg = write_config(tmp_path / "q.ini", EQUAL_THIRDS)  # a d = 2 config
    assert main(["dump", what, "--d", "5", "--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"dump {what} takes no --d" in err


def test_dump_superop_matrix(out_dir, tmp_path, capsys):
    cfg = write_config(tmp_path / "mix.ini", EQUAL_THIRDS)
    rc = main(["dump", "superop", "--config", cfg, "--t", "0.0", "--out", "m.csv"])
    assert rc == 0
    rows = (out_dir / "m.csv").read_text().splitlines()
    assert rows[0] == "row,col,re,im"
    # identity superoperator at t = 0
    cells = {tuple(r.split(",")[:2]): r.split(",")[2] for r in rows[1:]}
    assert cells[("0", "0")] == "1" and cells[("0", "1")] == "0"


@pytest.mark.parametrize("what", ["choi", "superop"])
def test_dump_rejects_an_invalid_mixture_before_writing(out_dir, tmp_path, capsys, what):
    # Weights 0.2 and 0.5: the map would not be trace preserving.
    text = EQUAL_THIRDS.replace("0.3333333333333333", "0.2", 1)
    text = text.replace("0.3333333333333333", "0.5", 1).replace("0.3333333333333334", "0.0")
    cfg = write_config(tmp_path / "bad.ini", text)
    assert main(["dump", what, "--config", cfg, "--out", "m.csv"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: invalid mixture: weights sum to 0.7")
    assert not (out_dir / "m.csv").exists()


@pytest.mark.parametrize("t", ["nan", "-3", "inf", "-inf", "-1e-3"])
def test_dump_rejects_a_time_that_is_not_finite_and_nonnegative(out_dir, tmp_path, capsys, t):
    cfg = write_config(tmp_path / "mix.ini", EQUAL_THIRDS)
    assert main(["dump", "choi", "--config", cfg, "--t", t, "--out", "m.csv"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --t must be finite and nonnegative, got {float(t)!r}\n"
    assert not (out_dir / "m.csv").exists()


# ---------------------------------------------------------------------------
# console entry point
# ---------------------------------------------------------------------------


def test_main_reuses_one_parser_across_calls(out_dir, capsys):
    assert main(["verify", "mub", "--d", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["dimension"] == 3
    assert main(["dump", "mub-bases", "--d", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "1,0,0,1,0"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    # defaults of one call do not leak into the next
    assert main(["verify", "mub"]) == 0
    assert json.loads(capsys.readouterr().out)["dimension"] == 2


def test_installed_console_script_smoke():
    exe = shutil.which("paulimix")
    assert exe, "console script should be installed with the package"
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "analyze" in proc.stdout
