"""Command-line front door.

Subcommands:
  validate   check (alpha, beta) against the well-posedness condition
  simulate   one path of a chosen scheme (or the reference solver) to CSV
  converge   full Monte Carlo convergence study -> CSV table + JSON summary
  compare    new vs old scheme on identical increments -> CSV + JSON
  check      built-in invariant suite

Options may come from a config file of ``key = value`` lines (``#`` starts
a comment); explicit flags override the file, and a key that names no
option is rejected.  The default output directory is taken from
$DPSDE_OUTPUT_DIR (falling back to the working directory).  Exit codes:
0 ok, 1 runtime/I-O failure, 2 validation failure; failures print a single
machine-parsable line on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import checks as checks_mod
from . import params as params_mod
from .driver import generate_increments, lag_map, make_grid
from .errors import DPSDEError, InvalidWorkerCount, NonZeroStart, UnknownFormat
from .experiments import StudySpec, compare_schemes, run_convergence
from .models import get_model
from .output import write_path_csv, write_path_json, write_report_csv, write_report_json
from .reference import solve_reference
from .scheme import simulate_general_x0, simulate_new, simulate_old

__all__ = ["main"]

_DEFAULTS = {
    "model": "affine",
    "alpha": 0.6,
    "beta": -1.0,
    "x0": 0.0,
    "horizon": 1.0,
    "grid_steps": 4096,
    "n": 8,
    "n_list": "8,16,32,64",
    "p_list": "2,4",
    "paths": 2000,
    "seed": 42,
    "scheme": "new",
    "path_index": 0,
    "workers": 1,
}

# every option a config file can set (the keys _setting reads)
_CONFIG_KEYS = frozenset(_DEFAULTS) | {"format"}


def _parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line is not 'key = value': {raw!r}")
        key, value = line.split("=", 1)
        name = key.strip().replace("-", "_")
        if name not in _CONFIG_KEYS:
            known = ", ".join(sorted(k.replace("_", "-") for k in _CONFIG_KEYS))
            raise ValueError(f"unknown config key {key.strip()!r} in {path}; known keys: {known}")
        values[name] = value.strip()
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpsde",
        description="Delay-based approximation schemes and convergence studies "
        "for doubly perturbed SDEs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *names: str) -> None:
        p.add_argument("--config", help="key = value config file; flags override it")
        opts = {
            "model": dict(help=f"catalog model id (default {_DEFAULTS['model']})"),
            "alpha": dict(type=float, help=f"running-max weight (default {_DEFAULTS['alpha']})"),
            "beta": dict(type=float, help=f"running-min weight (default {_DEFAULTS['beta']})"),
            "x0": dict(type=float, help=f"initial condition (default {_DEFAULTS['x0']})"),
            "horizon": dict(type=float, help=f"time horizon T (default {_DEFAULTS['horizon']})"),
            "grid_steps": dict(type=int, help=f"grid steps L (default {_DEFAULTS['grid_steps']})"),
            "n": dict(type=int, help=f"delay parameter (default {_DEFAULTS['n']})"),
            "n_list": dict(help=f"comma-separated delays (default {_DEFAULTS['n_list']})"),
            "p_list": dict(help=f"comma-separated moments (default {_DEFAULTS['p_list']})"),
            "paths": dict(type=int, help=f"Monte Carlo paths (default {_DEFAULTS['paths']})"),
            "seed": dict(type=int, help=f"master seed (default {_DEFAULTS['seed']})"),
            "scheme": dict(
                choices=["new", "old", "general", "reference"],
                help=f"scheme variant (default {_DEFAULTS['scheme']})",
            ),
            "path_index": dict(type=int, help=f"path substream index (default {_DEFAULTS['path_index']})"),
            "workers": dict(type=int, help=f"worker threads (default {_DEFAULTS['workers']})"),
        }
        for name in names:
            p.add_argument("--" + name.replace("_", "-"), dest=name, **opts[name])

    p_val = sub.add_parser("validate", help="check the well-posedness condition")
    common(p_val, "alpha", "beta", "x0", "horizon")

    p_sim = sub.add_parser("simulate", help="one path of a scheme or the reference")
    common(p_sim, "model", "alpha", "beta", "x0", "horizon", "grid_steps", "n", "seed", "scheme", "path_index")
    p_sim.add_argument("--out", help="output path (default <outdir>/simulate.<format>)")
    p_sim.add_argument("--format", help="path output format, csv or json (default csv)")

    p_con = sub.add_parser("converge", help="Monte Carlo strong-error study")
    common(p_con, "model", "alpha", "beta", "x0", "horizon", "grid_steps", "n_list", "p_list", "paths", "seed", "scheme", "workers")
    p_con.add_argument("--out-csv", dest="out_csv", help="error table CSV (default <outdir>/converge.csv)")
    p_con.add_argument("--out-json", dest="out_json", help="summary JSON (default <outdir>/converge.json)")

    p_cmp = sub.add_parser("compare", help="new vs old scheme on identical noise")
    common(p_cmp, "model", "alpha", "beta", "x0", "horizon", "grid_steps", "n_list", "p_list", "paths", "seed", "workers")
    p_cmp.add_argument("--out-csv", dest="out_csv", help="error table CSV (default <outdir>/compare.csv)")
    p_cmp.add_argument("--out-json", dest="out_json", help="summary JSON (default <outdir>/compare.json)")

    sub.add_parser("check", help="run the built-in invariant suite")
    return parser


def _setting(args: argparse.Namespace, config: dict[str, str], key: str, cast=None):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        raw = config[key]
        return cast(raw) if cast else raw
    return _DEFAULTS.get(key)


def _int_list(raw) -> tuple[int, ...]:
    if isinstance(raw, tuple):
        return raw
    return tuple(int(tok) for tok in str(raw).split(",") if tok.strip())


def _float_list(raw) -> tuple[float, ...]:
    if isinstance(raw, tuple):
        return raw
    return tuple(float(tok) for tok in str(raw).split(",") if tok.strip())


def _out_dir() -> Path:
    return Path(os.environ.get("DPSDE_OUTPUT_DIR", "."))


def _cmd_validate(args, config) -> int:
    alpha = float(_setting(args, config, "alpha", float))
    beta = float(_setting(args, config, "beta", float))
    x0 = float(_setting(args, config, "x0", float))
    horizon = float(_setting(args, config, "horizon", float))
    try:
        params = params_mod.validate(alpha, beta, x0, horizon)
    except DPSDEError as exc:
        rho = None
        if alpha < 1.0 and beta < 1.0:
            rho = (alpha * beta) / ((1.0 - alpha) * (1.0 - beta))
        rho_part = f"rho={rho!r} " if rho is not None else ""
        print(f"{rho_part}verdict=reject reason={type(exc).__name__}: {exc}")
        return 2
    print(f"rho={params.rho!r} verdict=accept beyond_mao={params_mod.beyond_mao(params)}")
    return 0


_PATH_WRITERS = {"csv": write_path_csv, "json": write_path_json}

_SIMULATORS = {
    "new": simulate_new,
    "old": simulate_old,
    "general": simulate_general_x0,
    "reference": lambda model, params, grid, n, dw: solve_reference(model, params, grid, dw),
}


def _cmd_simulate(args, config) -> int:
    params = params_mod.validate(
        float(_setting(args, config, "alpha", float)),
        float(_setting(args, config, "beta", float)),
        float(_setting(args, config, "x0", float)),
        float(_setting(args, config, "horizon", float)),
    )
    model = get_model(str(_setting(args, config, "model")))
    grid = make_grid(int(_setting(args, config, "grid_steps", int)), params.horizon)
    n = int(_setting(args, config, "n", int))
    seed = int(_setting(args, config, "seed", int))
    path_index = int(_setting(args, config, "path_index", int))
    scheme = str(_setting(args, config, "scheme"))
    fmt = str(_setting(args, config, "format") or "csv")
    # every check before the increments are drawn
    if scheme not in _SIMULATORS:
        raise ValueError(f"unknown scheme {scheme!r}")
    if fmt not in _PATH_WRITERS:
        raise UnknownFormat(f"format must be one of {', '.join(_PATH_WRITERS)}, got {fmt!r}")
    if scheme == "new" and params.x0 != 0.0:
        raise NonZeroStart(f"--scheme new requires x0 = 0, got x0={params.x0!r}; use --scheme general")
    if scheme != "reference":
        lag_map(grid, n)
    dw = generate_increments(seed, path_index, grid)
    path = _SIMULATORS[scheme](model, params, grid, n, dw)
    out = Path(args.out) if getattr(args, "out", None) else _out_dir() / f"simulate.{fmt}"
    _PATH_WRITERS[fmt](path, out)
    print(f"wrote {out}")
    return 0


def _study_spec(args, config) -> tuple[StudySpec, int]:
    params = params_mod.validate(
        float(_setting(args, config, "alpha", float)),
        float(_setting(args, config, "beta", float)),
        float(_setting(args, config, "x0", float)),
        float(_setting(args, config, "horizon", float)),
    )
    scheme = str(_setting(args, config, "scheme"))
    if scheme == "reference":
        raise ValueError("studies need a scheme variant: new, old or general")
    spec = StudySpec(
        model_id=str(_setting(args, config, "model")),
        params=params,
        n_list=_int_list(_setting(args, config, "n_list")),
        p_list=_float_list(_setting(args, config, "p_list")),
        paths=int(_setting(args, config, "paths", int)),
        grid=make_grid(int(_setting(args, config, "grid_steps", int)), params.horizon),
        master_seed=int(_setting(args, config, "seed", int)),
        scheme=scheme,
    )
    workers = int(_setting(args, config, "workers", int))
    if workers < 1:
        raise InvalidWorkerCount(f"workers must be >= 1, got {workers}")
    return spec, workers


def _cmd_converge(args, config) -> int:
    spec, workers = _study_spec(args, config)
    report = run_convergence(spec, workers=workers)
    out_csv = Path(args.out_csv) if args.out_csv else _out_dir() / "converge.csv"
    out_json = Path(args.out_json) if args.out_json else _out_dir() / "converge.json"
    write_report_csv(report, out_csv)
    write_report_json(report, out_json)
    for fit in report.fits:
        print(f"p={fit.p!r} slope={fit.slope!r}")
    for p, reason in report.skipped_fits:
        print(f"p={p!r} slope=skipped reason={reason}")
    print(f"wrote {out_csv} and {out_json}")
    return 0


def _cmd_compare(args, config) -> int:
    spec, workers = _study_spec(args, config)
    comparison = compare_schemes(spec, workers=workers)
    out_csv = Path(args.out_csv) if args.out_csv else _out_dir() / "compare.csv"
    out_json = Path(args.out_json) if args.out_json else _out_dir() / "compare.json"
    write_report_csv(comparison, out_csv)
    write_report_json(comparison, out_json)
    for label, rep in (("new", comparison.new), ("old", comparison.old)):
        for fit in rep.fits:
            print(f"scheme={label} p={fit.p!r} slope={fit.slope!r}")
        for p, reason in rep.skipped_fits:
            print(f"scheme={label} p={p!r} slope=skipped reason={reason}")
    print(f"wrote {out_csv} and {out_json}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _parse_config_file(args.config) if getattr(args, "config", None) else {}
        if args.command == "validate":
            return _cmd_validate(args, config)
        if args.command == "simulate":
            return _cmd_simulate(args, config)
        if args.command == "converge":
            return _cmd_converge(args, config)
        if args.command == "compare":
            return _cmd_compare(args, config)
        if args.command == "check":
            return 0 if checks_mod.run_all_checks() else 1
        raise ValueError(f"unknown command {args.command!r}")
    except (DPSDEError, ValueError, KeyError) as exc:
        print(f"dpsde: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"dpsde: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
