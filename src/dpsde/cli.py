"""Command-line front door.

Subcommands:
  validate   check (alpha, beta) against the well-posedness condition
  simulate   one path of a chosen scheme (or the reference solver) to CSV
  converge   full Monte Carlo convergence study -> CSV table + JSON summary
  compare    new vs old scheme on identical increments -> CSV + JSON
  check      built-in invariant suite

One table, ``_OPTIONS``, gives every option its parser, default and help;
``_COMMANDS`` names the options of each subcommand.  The study defaults are
``params.STOCK_STUDY``, the defaults of ``default_study`` too.  This module
imports only the standard library, ``.errors`` and ``.params``; each handler
imports the solver modules it runs, so ``validate``, ``--help`` and a value
that fails to parse start without numpy.  Options may also come from a
UTF-8 config file of ``key = value`` lines (``#`` starts a comment): a key
must name one of the subcommand's own options and appear once, and explicit
flags override the file.  argparse only collects the raw strings; flag and
config values go through the same parser, so a bad value (or an empty list
entry) fails the same way from either, with InvalidOption.  The output
paths (``--out``, ``--out-csv``, ``--out-json``) are flags only; their
default directory is $DPSDE_OUTPUT_DIR (else the working directory).
Before any work starts, that directory must exist, no output path may be a
directory, and a study's two outputs must be distinct files.  ``--workers``
defaults to 2, the one count the studies were timed at, or to 1 where the
platform has no os.fork.
Exit codes: 0 ok, 1 runtime failure (OSError, MemoryError), 2 bad input
(DPSDEError); each prints one machine-parsable stderr line, any other
exception a traceback.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

from . import params as params_mod
from .errors import DPSDEError, InvalidOption, UnknownFormat, UnknownScheme

__all__ = ["main"]


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(map(int, raw.split(",")))


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(map(float, raw.split(",")))


# option names that default_study spells differently
_STUDY_ARGS = {"model": "model_id", "seed": "master_seed"}
_STOCK = params_mod.STOCK_STUDY

_OPTIONS = {
    "model": (str, _STOCK["model_id"], "catalog model id"),
    "alpha": (float, _STOCK["alpha"], "running-max weight"),
    "beta": (float, _STOCK["beta"], "running-min weight"),
    "x0": (float, _STOCK["x0"], "initial condition"),
    "horizon": (float, _STOCK["horizon"], "time horizon T"),
    "grid_steps": (int, _STOCK["grid_steps"], "grid steps L"),
    "n": (int, 8, "delay parameter"),
    "n_list": (_ints, _STOCK["n_list"], "comma-separated delays"),
    "p_list": (_floats, _STOCK["p_list"], "comma-separated moments"),
    "paths": (int, _STOCK["paths"], "Monte Carlo paths"),
    "seed": (int, _STOCK["master_seed"], "master seed"),
    "scheme": (str, _STOCK["scheme"], "scheme variant: new, old or general; simulate also takes reference"),
    "path_index": (int, 0, "path substream index"),
    "workers": (int, 2 if hasattr(os, "fork") else 1, "worker processes"),
    "format": (str, "csv", "path output format, csv or json"),
}

_PARAMS = ("alpha", "beta", "x0", "horizon")
_STUDY = ("model", *_PARAMS, "grid_steps", "n_list", "p_list", "paths", "seed")
_COMMANDS = {
    "validate": ("check the well-posedness condition", _PARAMS),
    "simulate": (
        "one path of a scheme or the reference",
        ("model", *_PARAMS, "grid_steps", "n", "seed", "scheme", "path_index", "format"),
    ),
    "converge": ("Monte Carlo strong-error study", (*_STUDY, "scheme", "workers")),
    "compare": ("new vs old scheme on identical noise", (*_STUDY, "workers")),
    "check": ("run the built-in invariant suite", ()),
}


# argparse reads a value such as -1e3, -inf or -nan as an unknown option: its
# own pattern for negative numbers knows only -1 and -1.5
_NEGATIVE_NUMBER = re.compile(r"-\.?\d|-(?:inf|nan)", re.IGNORECASE)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpsde",
        description="Delay-based approximation schemes and convergence studies "
        "for doubly perturbed SDEs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, names) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        if names:
            p.add_argument("--config", help="key = value config file; flags override it")
        for name in names:
            _, default, help_text = _OPTIONS[name]
            shown = ",".join(map(str, default)) if isinstance(default, tuple) else default
            # unset flags stay out of the namespace, so the config file can fill them
            p.add_argument("--" + name.replace("_", "-"), dest=name, default=argparse.SUPPRESS,
                           help=f"{help_text} (default {shown})")
        if command == "simulate":
            p.add_argument("--out", help="output path (default <outdir>/simulate.<format>)")
        elif command in ("converge", "compare"):
            p.add_argument("--out-csv", help=f"error table CSV (default <outdir>/{command}.csv)")
            p.add_argument("--out-json", help=f"summary JSON (default <outdir>/{command}.json)")
    return parser


def _parse(name: str, raw: str, source: str):
    try:
        return _OPTIONS[name][0](raw)
    except ValueError as exc:
        raise InvalidOption(f"{source}: {exc}") from None


def _parse_config_file(path: str, names: tuple[str, ...]) -> dict:
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidOption(f"config file {path} is not UTF-8: {exc}") from None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidOption(f"config line is not 'key = value': {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        name = key.replace("-", "_")
        if name not in names:
            raise InvalidOption(f"unknown config key {key!r} in {path}; this subcommand's keys: {', '.join(names)}")
        if name in values:
            raise InvalidOption(f"config key {key!r} is set twice in {path}")
        values[name] = _parse(name, value, f"config key {key!r} in {path}")
    return values


def _settings(args: argparse.Namespace) -> argparse.Namespace:
    """The subcommand's options: defaults, then the config file, then flags."""
    names = _COMMANDS[args.command][1]
    values = {name: _OPTIONS[name][1] for name in names}
    if getattr(args, "config", None):
        values.update(_parse_config_file(args.config, names))
    for key, raw in vars(args).items():
        values[key] = _parse(key, raw, "flag --" + key.replace("_", "-")) if key in names else raw
    return argparse.Namespace(**values)


def _out_path(given: str | None, default_name: str) -> Path:
    """The output path, checked before any work: not a directory, in a directory that exists."""
    out = Path(given) if given else Path(os.environ.get("DPSDE_OUTPUT_DIR", ".")) / default_name
    if not out.parent.is_dir():
        raise FileNotFoundError(f"output directory does not exist: {out.parent}")
    if out.is_dir():
        raise IsADirectoryError(f"output path is a directory: {out}")
    return out


def _cmd_validate(s) -> int:
    try:
        params = params_mod.validate(s.alpha, s.beta, s.x0, s.horizon)
    except DPSDEError as exc:  # a RhoTooLarge reason carries rho=...
        print(f"verdict=reject reason={type(exc).__name__}: {exc}")
        return 2
    print(f"rho={params.rho!r} verdict=accept beyond_mao={params_mod.beyond_mao(params)}")
    return 0


def _cmd_simulate(s) -> int:
    from .driver import generate_increments, lag_map, make_grid, single_path
    from .models import get_model
    from .output import write_path_csv, write_path_json
    from .reference import reference_steps
    from .scheme import SCHEME_KINDS, scheme_blocks

    writers = {"csv": write_path_csv, "json": write_path_json}
    params = params_mod.validate(s.alpha, s.beta, s.x0, s.horizon)
    model = get_model(s.model)
    grid = make_grid(s.grid_steps, params.horizon)
    # every check before the increments are drawn
    if s.format not in writers:
        raise UnknownFormat(f"format must be one of {', '.join(writers)}, got {s.format!r}")
    if s.scheme == "reference":
        lag_map(grid, s.n)  # the reference does not use n, but a bad n is still an error
        blocks = reference_steps(model, params, grid)
    elif s.scheme in SCHEME_KINDS:
        blocks = scheme_blocks(s.scheme, model, params, grid, s.n)
    else:
        raise UnknownScheme(f"scheme must be one of {', '.join(SCHEME_KINDS)}, reference, got {s.scheme!r}")
    out = _out_path(s.out, f"simulate.{s.format}")
    path = single_path(blocks, grid, generate_increments(s.seed, s.path_index, grid))
    writers[s.format](path, out)
    print(f"wrote {out}")
    return 0


def _cmd_study(s) -> int:
    from .experiments import ConvergenceReport, compare_schemes, default_study, run_convergence
    from .output import write_report_csv, write_report_json

    study = {_STUDY_ARGS.get(name, name): value for name, value in vars(s).items()}
    spec = default_study(**{name: value for name, value in study.items() if name in _STOCK})
    out_csv = _out_path(s.out_csv, f"{s.command}.csv")
    out_json = _out_path(s.out_json, f"{s.command}.json")
    if out_csv.resolve() == out_json.resolve():
        raise InvalidOption(f"--out-csv and --out-json name the same file: {out_csv}")
    run = run_convergence if s.command == "converge" else compare_schemes
    result = run(spec, workers=s.workers)
    write_report_csv(result, out_csv)
    write_report_json(result, out_json)
    if isinstance(result, ConvergenceReport):
        labelled = [("", result)]
    else:
        labelled = [(f"scheme={rep.scheme} ", rep) for rep in (result.new, result.old)]
    for label, rep in labelled:
        for fit in rep.fits:
            print(f"{label}p={fit.p!r} slope={fit.slope!r}")
        for p, reason in rep.skipped_fits:
            print(f"{label}p={p!r} slope=skipped reason={reason}")
    print(f"wrote {out_csv} and {out_json}")
    return 0


def _cmd_check(s) -> int:
    from .checks import run_all_checks

    return 0 if run_all_checks() else 1


_HANDLERS = {
    "validate": _cmd_validate,
    "simulate": _cmd_simulate,
    "converge": _cmd_study,
    "compare": _cmd_study,
    "check": _cmd_check,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](_settings(args))
    except (DPSDEError, OSError, MemoryError) as exc:
        kind = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__  # numpy's is private
        print(f"dpsde: error: {kind}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, DPSDEError) else 1  # I/O and memory are runtime failures


if __name__ == "__main__":
    sys.exit(main())
