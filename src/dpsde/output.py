"""CSV and JSON writers for paths and study reports.

Numeric fields use repr (shortest round-trip) so emitted files are
byte-stable for identical runs; the only timestamp lives in the JSON
metadata block.

Path columns.  Both path writers format their float columns through one
formatter, ``_column_reprs``.  On a sampled path the running extrema M and
I are step functions (a few dozen distinct values in a few thousand
points), so the formatter finds the runs of bitwise-equal neighbours
through an int64 view of the column, calls float.__repr__ once per run
head, and repeats each head over its run.  Runs are keyed by bits, not by
value: -0.0 == 0.0, but their reprs differ, and NaN != NaN although its
repr does not change.  The CSV joins each row's fields with commas.  The
JSON writes the layout of ``json.dumps(body, indent=2)`` directly, one
number per line; the non-finite values are spelled as json spells them,
nan as NaN, inf as Infinity and -inf as -Infinity.  A path always has at
least two grid points, so no array is written empty.
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

_PATH_FIELDS = ("k", "t", "phi", "M", "I", "X")
_REPORT_HEADER = "scheme,model,alpha,beta,n,p,error,std_err"
# how json.dumps spells the floats whose repr is not JSON
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _fmt(value: float) -> str:
    return repr(float(value))


def _column_reprs(values, spelling: dict[str, str] | None = None) -> list[str]:
    """[repr(v) for v in values] for a float column, one repr per run of equal bits.

    ``spelling`` maps a repr to the text written in its place.
    """
    col = np.asarray(values, dtype=float)
    bits = col.view(np.int64)
    head = np.empty(col.size, dtype=bool)
    head[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=head[1:])
    texts = list(map(repr, col[head].tolist()))
    if spelling:
        texts = list(map(spelling.get, texts, texts))
    run = np.cumsum(head) - 1
    return np.array(texts, dtype=object)[run].tolist()


def _path_columns(path_obj, spelling: dict[str, str] | None = None) -> list[list[str]]:
    """The k, t, phi, M, I, X columns of a path as text."""
    floats = (path_obj.grid.times(), path_obj.phi, path_obj.big_m, path_obj.big_i, path_obj.x)
    k = list(map(str, range(len(path_obj.x))))
    return [k] + [_column_reprs(c, spelling) for c in floats]


def write_path_csv(path_obj, dest: str | Path) -> None:
    """Write one simulated path (scheme or reference) as k,t,phi,M,I,X rows."""
    rows = map(",".join, zip(*_path_columns(path_obj)))
    Path(dest).write_text("\n".join([",".join(_PATH_FIELDS), *rows]) + "\n")


def write_path_json(path_obj, dest: str | Path) -> None:
    """Write one simulated path as parallel JSON arrays (same fields as CSV)."""
    columns = _path_columns(path_obj, _JSON_NON_FINITE)
    arrays = [
        f'"{name}": [\n    ' + ",\n    ".join(col) + "\n  ]"
        for name, col in zip(_PATH_FIELDS, columns)
    ]
    Path(dest).write_text("{\n  " + ",\n  ".join(arrays) + "\n}\n")


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
