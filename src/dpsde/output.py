"""CSV and JSON writers for paths and study reports.

Numeric CSV fields use repr (shortest round-trip) so emitted files are
byte-stable for identical runs; the only timestamp lives in the JSON
metadata block.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .experiments import ConvergenceReport, SchemeComparison

__all__ = [
    "write_path_csv",
    "write_path_json",
    "write_report_csv",
    "write_report_json",
]

_PATH_HEADER = "k,t,phi,M,I,X"
_REPORT_HEADER = "scheme,model,alpha,beta,n,p,error,std_err"


def _fmt(value: float) -> str:
    return repr(float(value))


def write_path_csv(path_obj, dest: str | Path) -> None:
    """Write one simulated path (scheme or reference) as k,t,phi,M,I,X rows."""
    columns = (path_obj.grid.times(), path_obj.phi, path_obj.big_m, path_obj.big_i, path_obj.x)
    # whole columns as Python floats, whose repr is what _fmt writes
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    lines = [_PATH_HEADER]
    lines += [f"{k},{t!r},{phi!r},{m!r},{i!r},{x!r}" for k, (t, phi, m, i, x) in enumerate(rows)]
    Path(dest).write_text("\n".join(lines) + "\n")


def write_path_json(path_obj, dest: str | Path) -> None:
    """Write one simulated path as parallel JSON arrays (same fields as CSV)."""
    body = {
        "k": list(range(len(path_obj.x))),
        "t": path_obj.grid.times().tolist(),
        "phi": path_obj.phi.tolist(),
        "M": path_obj.big_m.tolist(),
        "I": path_obj.big_i.tolist(),
        "X": path_obj.x.tolist(),
    }
    Path(dest).write_text(json.dumps(body, indent=2) + "\n")


def _report_rows(report: ConvergenceReport) -> list[str]:
    return [
        f"{report.scheme},{report.model_id},{_fmt(report.alpha)},{_fmt(report.beta)},"
        f"{e.n},{_fmt(e.p)},{_fmt(e.estimate)},{_fmt(e.std_err)}"
        for e in report.errors
    ]


def write_report_csv(report: ConvergenceReport | SchemeComparison, dest: str | Path) -> None:
    """Write per-(n, p) error estimates; a comparison emits both schemes' rows."""
    lines = [_REPORT_HEADER]
    if isinstance(report, SchemeComparison):
        lines += _report_rows(report.new) + _report_rows(report.old)
    else:
        lines += _report_rows(report)
    Path(dest).write_text("\n".join(lines) + "\n")


def _report_dict(report: ConvergenceReport) -> dict:
    return {
        "metadata": {
            "scheme": report.scheme,
            "model": report.model_id,
            "alpha": report.alpha,
            "beta": report.beta,
            "x0": report.x0,
            "horizon": report.horizon,
            "grid_steps": report.grid_steps,
            "paths": report.paths,
            "master_seed": report.master_seed,
        },
        "errors": [
            {"n": e.n, "p": e.p, "estimate": e.estimate, "std_err": e.std_err}
            for e in report.errors
        ],
        "slopes": [
            {"p": f.p, "slope": f.slope, "intercept": f.intercept} for f in report.fits
        ],
    }


def write_report_json(report: ConvergenceReport | SchemeComparison, dest: str | Path) -> None:
    """JSON summary: slopes, error table and run metadata (plus a timestamp)."""
    if isinstance(report, SchemeComparison):
        body = {"new": _report_dict(report.new), "old": _report_dict(report.old)}
        body["new"]["metadata"]["generated_at"] = _now()
    else:
        body = _report_dict(report)
        body["metadata"]["generated_at"] = _now()
    Path(dest).write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()
