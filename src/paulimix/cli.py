"""Command-line front end.

Subcommands
-----------
analyze    run a mixture described by an INI config; write trajectory CSV and
           classification JSON
construct  emit a ready-to-analyze config for one of the semigroup
           constructions, plus the per-input invertibility forecast
verify     run a self-check (mub | theorem1 | theorem2 | cptp) and report JSON
scan       classify mixtures across a simplex grid of weights; CSV + summary
dump       write MUB bases/unitaries or Choi/superoperator matrices as CSV

Exit codes: 0 success/pass, 1 internal error or failed verification,
2 validation/config error, 3 evaluation/domain error.  The environment
variable ``PAULIMIX_OUT`` names the default output directory.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import math
import os
import re
import sys
import traceback
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import dynamics, matrixlab, mubgen, reportio, semigroupforge
from .channelcore import (
    ChannelSpec,
    DecoherenceFunction,
    ExpRelax,
    Expression,
    MixtureSpec,
    MixtureValidationError,
    SampledGrid,
    structural_issues,
)
from .dynamics import Tolerances, default_grid
from .exprcalc import DomainError, ParseError
from .semigroupforge import (
    AllChannelsRequest,
    SameChannelRequest,
    build_all_channels_mix,
    build_same_channel_mix,
    forecast_invertibility,
)

__all__ = ["main", "RunConfig", "parse_run_config", "ConfigError"]

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_EVAL = 3

OUTPUT_ENV = "PAULIMIX_OUT"


class ConfigError(ValueError):
    """Malformed configuration; message carries file/section/key position."""


@dataclass(frozen=True)
class RunConfig:
    dimension: int
    grid: dynamics.TimeGrid
    tolerances: Tolerances
    mixture: MixtureSpec
    trajectory_path: str
    classification_path: str


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def _get(cp, section: str, key: str, path: str, required: bool = False):
    if cp.has_option(section, key):
        return cp.get(section, key)
    if required:
        raise ConfigError(f"{path}: [{section}]: missing required key '{key}'")
    return None


def _as_int(raw: str, path: str, where: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{path}: {where}: expected an integer, got {raw!r}") from None


def _as_float(raw: str, path: str, where: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{path}: {where}: expected a number, got {raw!r}") from None


def _float_list(raw: str, path: str, where: str) -> List[float]:
    parts = [p for p in re.split(r"[,\s]+", raw.strip()) if p]
    return [_as_float(p, path, where) for p in parts]


def _parse_function(cp, section: str, path: str) -> DecoherenceFunction:
    kind = _get(cp, section, "kind", path, required=True).strip()
    where = f"[{section}]"
    try:
        if kind == "exp_relax":
            scale = _as_float(
                _get(cp, section, "scale", path, required=True), path, f"{where} scale"
            )
            rate = _as_float(
                _get(cp, section, "rate", path, required=True), path, f"{where} rate"
            )
            return ExpRelax(scale, rate)
        if kind == "expression":
            formula = _get(cp, section, "formula", path, required=True).strip()
            if len(formula) >= 2 and formula[0] == formula[-1] and formula[0] in "\"'":
                formula = formula[1:-1]
            return Expression(formula)
        if kind == "samples":
            times = _float_list(
                _get(cp, section, "times", path, required=True), path, f"{where} times"
            )
            values = _float_list(
                _get(cp, section, "values", path, required=True),
                path,
                f"{where} values",
            )
            return SampledGrid(np.asarray(times), np.asarray(values))
    except ParseError as exc:
        raise ConfigError(
            f"{path}: {where} formula: {exc} (position {exc.position})"
        ) from None
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {where}: {exc}") from None
    raise ConfigError(
        f"{path}: {where}: unknown kind {kind!r} "
        "(expected exp_relax, expression, or samples)"
    )


def parse_run_config(path: str) -> RunConfig:
    if not os.path.exists(path):
        raise ConfigError(f"{path}: config file not found")
    cp = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh, source=path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not cp.has_section("run"):
        raise ConfigError(f"{path}: missing [run] section")
    dimension = _as_int(
        _get(cp, "run", "dimension", path, required=True), path, "[run] dimension"
    )
    t_max_raw = _get(cp, "run", "t_max", path)
    points_raw = _get(cp, "run", "points", path)
    t_max = _as_float(t_max_raw, path, "[run] t_max") if t_max_raw else 5.0
    points = _as_int(points_raw, path, "[run] points") if points_raw else 512
    try:
        grid = default_grid(t_max, points)
    except ValueError as exc:
        raise ConfigError(f"{path}: [run]: {exc}") from None

    kwargs = {}
    if cp.has_section("tolerances"):
        for key in ("semigroup", "cp", "pole", "singularity"):
            raw = _get(cp, "tolerances", key, path)
            if raw is not None:
                kwargs[key] = _as_float(raw, path, f"[tolerances] {key}")
        for key in cp.options("tolerances"):
            if key not in ("semigroup", "cp", "pole", "singularity"):
                raise ConfigError(f"{path}: [tolerances]: unknown key {key!r}")
    try:
        tolerances = Tolerances(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: [tolerances]: {exc}") from None

    sections = []
    for section in cp.sections():
        m = re.fullmatch(r"component\.(\d+)", section)
        if m:
            sections.append((int(m.group(1)), section))
    if not sections:
        raise ConfigError(f"{path}: no [component.N] sections found")
    sections.sort()
    components = []
    for _, section in sections:
        where = f"[{section}]"
        weight = _as_float(
            _get(cp, section, "weight", path, required=True), path, f"{where} weight"
        )
        basis = _as_int(
            _get(cp, section, "basis", path, required=True), path, f"{where} basis"
        )
        func = _parse_function(cp, section, path)
        try:
            components.append((weight, ChannelSpec(dimension, basis, func)))
        except ValueError as exc:
            raise ConfigError(f"{path}: {where}: {exc}") from None

    mixture = MixtureSpec(dimension, components)
    stem = os.path.splitext(os.path.basename(path))[0]
    traj_raw = _get(cp, "output", "trajectory", path) if cp.has_section("output") else None
    cls_raw = (
        _get(cp, "output", "classification", path) if cp.has_section("output") else None
    )
    return RunConfig(
        dimension=dimension,
        grid=grid,
        tolerances=tolerances,
        mixture=mixture,
        trajectory_path=_resolve_out(traj_raw, f"{stem}_trajectory.csv"),
        classification_path=_resolve_out(cls_raw, f"{stem}_classification.json"),
    )


def _out_dir() -> str:
    return os.environ.get(OUTPUT_ENV) or "."


def _resolve_out(value: Optional[str], default_name: str) -> str:
    p = value if value else default_name
    if not os.path.isabs(p):
        p = os.path.join(_out_dir(), p)
    return p


def _write_text(path: str, text: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def cmd_analyze(args) -> int:
    cfg = parse_run_config(args.config)
    result = dynamics.analyze_mixture(cfg.mixture, cfg.grid, cfg.tolerances)
    _write_text(cfg.trajectory_path, reportio.trajectory_csv(result.spectral, result.rates))
    _write_text(
        cfg.classification_path,
        reportio.to_json(reportio.classification_dict(result.report)),
    )
    report = result.report
    print(f"trajectory: {cfg.trajectory_path}")
    print(f"classification: {cfg.classification_path}")
    print(f"is_semigroup: {'true' if report.is_semigroup else 'false'}")
    print(f"is_cp_divisible: {'true' if report.is_cp_divisible else 'false'}")
    if not report.p_in_range:
        print(
            "error: a decoherence function leaves [0, 1] on the grid; "
            "see the classification report",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    return EXIT_OK


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def _render_config(spec: MixtureSpec, t_max: float, points: int) -> str:
    lines = [
        "[run]",
        f"dimension = {spec.dimension}",
        f"t_max = {reportio.fmt_float(t_max)}",
        f"points = {points}",
        "",
    ]
    for k, comp in enumerate(spec.components, start=1):
        desc = comp.channel.p.describe()
        lines.append(f"[component.{k}]")
        lines.append(f"weight = {reportio.fmt_float(comp.weight)}")
        lines.append(f"basis = {comp.channel.basis}")
        lines.append(f"kind = {desc['kind']}")
        if desc["kind"] == "exp_relax":
            lines.append(f"scale = {reportio.fmt_float(desc['scale'])}")
            lines.append(f"rate = {reportio.fmt_float(desc['rate'])}")
        elif desc["kind"] == "expression":
            lines.append(f"formula = \"{desc['formula']}\"")
        else:
            lines.append(
                "times = " + ", ".join(reportio.fmt_float(x) for x in desc["times"])
            )
            lines.append(
                "values = " + ", ".join(reportio.fmt_float(x) for x in desc["values"])
            )
        lines.append("")
    return "\n".join(lines)


def cmd_construct(args) -> int:
    d = args.dimension
    c = args.rate
    if args.same is not None:
        if args.weights:
            raise ConfigError("give either positional weights or --same, not both")
        if not args.q:
            raise ConfigError("--same requires --q EXPRESSION for the free channel")
        try:
            q = Expression(args.q)
        except ParseError as exc:
            raise ConfigError(f"--q: {exc} (position {exc.position})") from None
        basis = args.basis if args.basis is not None else 1
        req = SameChannelRequest(d, c, args.same, q, basis=basis)
    else:
        for name, value in (("--q", args.q), ("--basis", args.basis)):
            if value is not None:
                raise ConfigError(f"{name} applies only with --same")
        if len(args.weights) != d + 1:
            raise ConfigError(
                f"need {d + 1} weights for dimension {d}, got {len(args.weights)}"
            )
        req = AllChannelsRequest(d, c, tuple(args.weights))
    # The request has checked the rate that the default window divides by.
    t_max = args.t_max if args.t_max is not None else 5.0 / c
    grid = default_grid(t_max, args.points)
    if isinstance(req, SameChannelRequest):
        spec = build_same_channel_mix(req, grid=default_grid(t_max, 1024))
        report = dynamics.classify(spec, default_grid(t_max, 256))
        forecast_doc = reportio.same_channel_forecast_dict(req, report)
    else:
        spec = build_all_channels_mix(req)
        forecast_doc = reportio.forecast_dict(forecast_invertibility(req))

    config_text = _render_config(spec, grid.t_max, len(grid))
    forecast_json = reportio.to_json(forecast_doc)
    if args.out:
        path = _resolve_out(args.out, args.out)
        _write_text(path, config_text)
        sys.stdout.write(forecast_json)
        print(f"config: {path}", file=sys.stderr)
    else:
        for line in forecast_json.rstrip("\n").split("\n"):
            print(f"# {line}")
        sys.stdout.write(config_text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

# The options that each mode of ``verify`` and ``dump`` reads; a given option
# that the chosen mode ignores is rejected.
_MODE_OPTIONS = {
    "verify": {
        "mub": ("d", "tol"),
        "theorem1": ("d", "trials", "seed"),
        "theorem2": ("d", "trials", "seed"),
        "cptp": ("d", "trials", "seed", "tol"),
    },
    "dump": {
        "mub-bases": ("d",),
        "mub-unitaries": ("d",),
        "choi": ("config", "t"),
        "superop": ("config", "t"),
    },
}


def _reject_ignored(args) -> None:
    modes = _MODE_OPTIONS[args.command]
    for name in dict.fromkeys(name for reads in modes.values() for name in reads):
        if getattr(args, name) is not None and name not in modes[args.what]:
            raise ConfigError(f"{args.command} {args.what} takes no --{name}")


def cmd_verify(args) -> int:
    what = args.what
    _reject_ignored(args)
    if what == "theorem1" and args.d not in (None, 2):
        raise ConfigError(f"verify theorem1 is the qubit scan: --d must be 2, got {args.d}")
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ConfigError(f"--tol must be finite and nonnegative, got {args.tol!r}")
    seed = args.seed if args.seed is not None else 0
    if what == "mub":
        d = args.d if args.d is not None else 2
        tol = args.tol if args.tol is not None else 1e-12
        doc = reportio.mub_report_dict(mubgen.verify_mub(mubgen.construct_mub(d), tol))
    elif what == "theorem1":
        trials = args.trials if args.trials is not None else 1000
        doc = reportio.scan_report_dict(semigroupforge.theorem1_scan(trials, seed))
    elif what == "theorem2":
        d = args.d if args.d is not None else 3
        trials = args.trials if args.trials is not None else 500
        doc = reportio.scan_report_dict(semigroupforge.theorem2_scan(d, trials, seed))
    else:  # cptp
        d = args.d if args.d is not None else 2
        trials = args.trials if args.trials is not None else 20
        tol = args.tol if args.tol is not None else 1e-10
        doc = reportio.scan_report_dict(semigroupforge.cptp_scan(d, trials, seed, tol))
    passed = bool(doc["pass"])
    text = reportio.to_json(doc)
    if args.report:
        path = _resolve_out(args.report, args.report)
        _write_text(path, text)
        print(f"{what}: {'pass' if passed else 'FAIL'} ({path})")
    else:
        sys.stdout.write(text)
    return EXIT_OK if passed else EXIT_INTERNAL


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def cmd_scan(args) -> int:
    d = args.dimension
    if args.divisions is not None and args.step is not None:
        raise ConfigError("give either --divisions or --step, not both")
    if args.divisions is not None:
        divisions = args.divisions
    elif args.step is not None:
        if not 0 < args.step <= 1:
            raise ConfigError(f"--step must lie in (0, 1], got {args.step!r}")
        reciprocal = 1.0 / args.step  # inf for the least subnormal steps
        divisions = round(reciprocal) if math.isfinite(reciprocal) else 0
        if divisions < 1 or abs(reciprocal - divisions) > 1e-9 * divisions:
            raise ConfigError(f"--step must be 1/N for an integer N, got {args.step!r}")
    else:
        divisions = 10
    if divisions < 1:
        raise ConfigError(f"--divisions must be positive, got {divisions}")
    grid = default_grid(args.t_max, args.points)
    scan = semigroupforge.simplex_scan(d, divisions, args.family, args.rate, grid)
    csv_path = _resolve_out(args.out, f"scan_d{d}_{args.family}.csv")
    _write_text(csv_path, reportio.simplex_scan_csv(scan))
    summary = reportio.simplex_scan_dict(scan)
    summary["csv"] = csv_path
    sys.stdout.write(reportio.to_json(summary))
    return EXIT_OK


# ---------------------------------------------------------------------------
# dump
# ---------------------------------------------------------------------------


def cmd_dump(args) -> int:
    what = args.what
    _reject_ignored(args)
    if what in ("mub-bases", "mub-unitaries"):
        d = args.d if args.d is not None else 2
        family = mubgen.construct_mub(d)
        if what == "mub-bases":
            text = reportio.mub_bases_csv(family)
        else:
            weyl = mubgen.build_unitaries(family)
            blocks = []
            for b in range(d + 1):
                blocks.append(f"# unitary U_{b + 1}")
                blocks.append(reportio.matrix_csv(weyl.unitaries[b]).rstrip("\n"))
            text = "\n".join(blocks) + "\n"
    else:
        if not args.config:
            raise ConfigError(f"dump {what} requires --config")
        t = args.t if args.t is not None else 1.0
        if not (math.isfinite(t) and t >= 0.0):
            raise ConfigError(f"--t must be finite and nonnegative, got {t!r}")
        cfg = parse_run_config(args.config)
        issues = structural_issues(cfg.mixture)
        if issues:
            raise MixtureValidationError(issues)
        if what == "choi":
            m = matrixlab.choi(cfg.mixture, t)
        else:
            m = matrixlab.superoperator(cfg.mixture, t)
        text = reportio.matrix_csv(m)
    if args.out:
        path = _resolve_out(args.out, args.out)
        _write_text(path, text)
        print(path)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _reads_as_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads every token ``float()`` reads as a
    value, never as an option: argparse alone takes only ``-N`` and
    ``-N.N`` for negative numbers, so it reads ``-1e-3`` or ``-inf``, as a
    positional or after ``--t``, as an unknown option.  After ``--`` every
    token is a value, as in argparse."""

    def _parse_optional(self, arg_string):
        if _reads_as_float(arg_string):
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    full = functools.partial(_Parser, allow_abbrev=False)  # options in full
    parser = full(
        prog="paulimix",
        description="Convex mixtures of generalized dephasing channels: "
        "decay rates, semigroup detection, CP divisibility.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=full)

    pa = sub.add_parser("analyze", help="classify the mixture in an INI config")
    pa.add_argument("config", help="path to the run configuration")
    pa.set_defaults(handler=cmd_analyze)

    pc = sub.add_parser("construct", help="emit a semigroup construction config")
    pc.add_argument("dimension", type=int, help="prime Hilbert-space dimension")
    pc.add_argument("rate", type=float, help="target semigroup rate c")
    pc.add_argument(
        "weights",
        nargs="*",
        type=float,
        help="d+1 mixing weights (omit when using --same)",
    )
    pc.add_argument("--same", type=float, metavar="A", help="same-basis variant, a in (0,1)")
    pc.add_argument("--q", metavar="EXPR", help="free decoherence function q(t)")
    pc.add_argument("--basis", type=int, default=None, help="basis label for --same (default 1)")
    pc.add_argument("--t-max", type=float, default=None, help="analysis window (default 5/c)")
    pc.add_argument("--points", type=int, default=512, help="grid points for the config")
    pc.add_argument("--out", help="write the config here instead of stdout")
    pc.set_defaults(handler=cmd_construct)

    pv = sub.add_parser("verify", help="run a self-check")
    pv.add_argument("what", choices=["mub", "theorem1", "theorem2", "cptp"])
    pv.add_argument("--d", type=int, default=None, help="dimension (prime)")
    pv.add_argument("--trials", type=int, default=None)
    pv.add_argument("--seed", type=int, default=None, help="scanner seed (default 0)")
    pv.add_argument("--tol", type=float, default=None)
    pv.add_argument("--report", metavar="PATH", help="write the JSON report here")
    pv.set_defaults(handler=cmd_verify)

    ps = sub.add_parser("scan", help="classify mixtures across a weight-simplex grid")
    ps.add_argument("dimension", type=int)
    ps.add_argument("--divisions", type=int, default=None, help="simplex grid divisions")
    ps.add_argument("--step", type=float, default=None, help="grid step (alternative)")
    ps.add_argument(
        "--family",
        choices=["semigroup", "matched"],
        default="semigroup",
        help="input functions: fixed semigroup form, or weight-matched construction",
    )
    ps.add_argument("--rate", type=float, default=1.0)
    ps.add_argument("--t-max", type=float, default=5.0)
    ps.add_argument("--points", type=int, default=128)
    ps.add_argument("--out", help="CSV output path")
    ps.set_defaults(handler=cmd_scan)

    pd = sub.add_parser("dump", help="write matrices as CSV")
    pd.add_argument("what", choices=["mub-bases", "mub-unitaries", "choi", "superop"])
    pd.add_argument("--d", type=int, default=None, help="dimension for MUB dumps")
    pd.add_argument("--config", help="mixture config for choi/superop dumps")
    pd.add_argument("--t", type=float, default=None, help="time for choi/superop dumps (default 1)")
    pd.add_argument("--out", help="output path (default stdout)")
    pd.set_defaults(handler=cmd_dump)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`build_parser`, built once per process (parsing
    leaves it unchanged)."""
    return build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"error: {exc} (position {exc.position})", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError) as exc:
        # ConfigError and the library's validation errors are ValueErrors.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as exc:
        print(f"error: {exc} (t = {exc.t!r})", file=sys.stderr)
        return EXIT_EVAL
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EVAL
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
