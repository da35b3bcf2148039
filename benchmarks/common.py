"""Workload table, output digests and output checks shared by the benchmark.

Nothing here imports dpsde or numpy: run.py judges the program's output
files the way a user reads them, and the child processes reuse the workload
table and the digest rule so that both sides agree on what an output is.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_ROOT = ROOT / ".bench_out"

# Paths per chunk in dpsde.experiments; the traced run chunks the same way.
CHUNK = 256
# Relative tolerance of the step identity X = x0 + phi + alpha*M + beta*I.
IDENTITY_RTOL = 1e-12

_STUDY_HEADER = "scheme,model,alpha,beta,n,p,error,std_err"
_PATH_HEADER = "k,t,phi,M,I,X"
_PATH_FIELDS = ("k", "t", "phi", "M", "I", "X")
# (scheme, format) of each `dpsde simulate` call of one path export.
EXPORTS = tuple((s, f) for s in ("general", "reference") for f in ("csv", "json"))


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a dpsde CLI command and its fixed parameters."""

    name: str
    command: str  # "converge", "compare" or "simulate"
    model: str
    alpha: float
    beta: float
    x0: float
    grid_steps: int
    n_list: tuple[int, ...]
    p_list: tuple[float, ...] = ()
    paths: int = 1
    horizon: float = 1.0

    @property
    def is_study(self) -> bool:
        return self.command != "simulate"

    @property
    def kinds(self) -> tuple[str, ...]:
        """Scheme kernels the operation runs, in the order it runs them."""
        return {"converge": ("new",), "compare": ("new", "old"), "simulate": ("general",)}[self.command]

    @property
    def paths_per_op(self) -> int:
        """Paths one operation finishes: study paths, or distinct exported paths."""
        return self.paths if self.is_study else 2

    def outputs(self) -> tuple[str, ...]:
        if self.is_study:
            return (f"{self.command}.csv", f"{self.command}.json")
        return tuple(f"{s}.{f}" for s, f in EXPORTS)

    def _common_args(self, seed: int) -> list[str]:
        return [
            "--model", self.model,
            "--alpha", repr(self.alpha),
            "--beta", repr(self.beta),
            "--x0", repr(self.x0),
            "--horizon", repr(self.horizon),
            "--grid-steps", str(self.grid_steps),
            "--seed", str(seed),
        ]

    def argvs(self, seed: int, outdir: Path) -> list[list[str]]:
        """The `dpsde` command lines of one operation (never --workers)."""
        if self.is_study:
            argv = [self.command, *self._common_args(seed)]
            argv += ["--n-list", ",".join(map(str, self.n_list))]
            argv += ["--p-list", ",".join(map(repr, self.p_list))]
            argv += ["--paths", str(self.paths)]
            if self.command == "converge":
                argv += ["--scheme", "new"]
            csv_name, json_name = self.outputs()
            argv += ["--out-csv", str(outdir / csv_name), "--out-json", str(outdir / json_name)]
            return [argv]
        return [
            ["simulate", *self._common_args(seed), "--scheme", scheme, "--n", str(self.n_list[0]),
             "--path-index", "0", "--format", fmt, "--out", str(outdir / f"{scheme}.{fmt}")]
            for scheme, fmt in EXPORTS
        ]

    def validate_argv(self) -> list[str]:
        """The `dpsde validate` command line used to time set-up."""
        return ["validate", "--alpha", repr(self.alpha), "--beta", repr(self.beta),
                "--x0", repr(self.x0), "--horizon", repr(self.horizon)]


# Why each workload is here is written down in README.md next to this file.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("converge-stock", "converge", "affine", 0.6, -1.0, 0.0, 2048,
                 (8, 16, 32, 64), (2.0, 4.0), paths=CHUNK),
        Workload("compare-fine", "compare", "bounded-trig", -2.0, 0.5, 0.0, 2048,
                 (32, 64, 128, 256), (2.0, 4.0), paths=CHUNK // 2),
        Workload("path-export", "simulate", "affine", 0.6, -1.0, 0.5, 2048, (8,)),
    )
}


# ---------------------------------------------------------------- digests

def normalized_bytes(path: Path) -> bytes:
    """File contents, with `generated_at` removed from a study JSON summary."""
    data = path.read_bytes()
    if path.name not in ("converge.json", "compare.json"):
        return data
    try:
        body = json.loads(data)
        meta = body["new"]["metadata"] if "new" in body else body["metadata"]
        del meta["generated_at"]
    except (ValueError, KeyError, TypeError):
        return data  # malformed: the digest will not match a good one
    return (json.dumps(body, indent=2, sort_keys=True) + "\n").encode()


def output_digests(workload: Workload, outdir: Path) -> dict[str, list | None]:
    """{file: [sha256, size]} of the normalized outputs; None for a missing file."""
    out: dict[str, list | None] = {}
    for name in workload.outputs():
        path = outdir / name
        if not path.is_file():
            out[name] = None
        elif path.suffix == ".json" and workload.is_study:
            data = normalized_bytes(path)
            out[name] = [hashlib.sha256(data).hexdigest(), len(data)]
        else:
            h = hashlib.sha256()
            with path.open("rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
            out[name] = [h.hexdigest(), path.stat().st_size]
    return out


def tree_digest(root: Path, patterns: tuple[str, ...]) -> str:
    """SHA-256 over the relative names and contents of the matching files."""
    h = hashlib.sha256()
    files = sorted({p for pat in patterns for p in root.glob(pat) if p.is_file()})
    for path in files:
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------- output checks

def _ols_slope(ns: list[int], errors: list[float]) -> float:
    x = [math.log2(n) for n in ns]
    y = [math.log2(e) for e in errors]
    xm, ym = sum(x) / len(x), sum(y) / len(y)
    return sum((a - xm) * (b - ym) for a, b in zip(x, y)) / sum((a - xm) ** 2 for a in x)


def study_problems(w: Workload, seed: int, outdir: Path) -> list[str]:
    """Check a study's CSV table and JSON summary against each other and the spec."""
    csv_name, json_name = w.outputs()
    lines = (outdir / csv_name).read_text().splitlines()
    if not lines or lines[0] != _STUDY_HEADER:
        return [f"{csv_name}: bad header"]
    expected = [(k, p, n) for k in w.kinds for p in w.p_list for n in w.n_list]
    if len(lines) - 1 != len(expected):
        return [f"{csv_name}: {len(lines) - 1} rows, expected {len(expected)}"]
    problems: list[str] = []
    table: dict[tuple[str, float, int], tuple[float, float]] = {}
    for line, (kind, p, n) in zip(lines[1:], expected):
        prefix = f"{kind},{w.model},{w.alpha!r},{w.beta!r},{n},{p!r},"
        fields = line[len(prefix):].split(",") if line.startswith(prefix) else []
        try:
            est, se = (float(v) for v in fields)
        except ValueError:
            problems.append(f"{csv_name}: malformed row {line!r}")
            continue
        if not (math.isfinite(est) and math.isfinite(se) and est > 0.0 and se >= 0.0):
            problems.append(f"{csv_name}: non-finite or non-positive values in {line!r}")
        table[(kind, p, n)] = (est, se)
    try:
        body = json.loads((outdir / json_name).read_text())
        reports = {k: (body[k] if w.command == "compare" else body) for k in w.kinds}
        for kind, rep in reports.items():
            meta = rep["metadata"]
            want = dict(scheme=kind, model=w.model, alpha=w.alpha, beta=w.beta, x0=w.x0,
                        horizon=w.horizon, grid_steps=w.grid_steps, paths=w.paths, master_seed=seed)
            if any(meta[key] != val for key, val in want.items()):
                problems.append(f"{json_name}: {kind} metadata differs from the workload")
            got = {(kind, e["p"], e["n"]): (e["estimate"], e["std_err"]) for e in rep["errors"]}
            if got != {key: val for key, val in table.items() if key[0] == kind}:
                problems.append(f"{json_name}: {kind} error table differs from {csv_name}")
            slopes = {s["p"]: s["slope"] for s in rep["slopes"]}
            for p in w.p_list:
                ests = [table.get((kind, p, n), (math.nan,))[0] for n in w.n_list]
                if p not in slopes or not math.isfinite(slopes[p]):
                    problems.append(f"{json_name}: {kind} slope for p={p!r} missing or non-finite")
                elif all(math.isfinite(e) and e > 0 for e in ests):
                    want_slope = _ols_slope(list(w.n_list), ests)
                    if abs(slopes[p] - want_slope) > 1e-9 * max(1.0, abs(want_slope)):
                        problems.append(f"{json_name}: {kind} slope for p={p!r} is not the fit of the table")
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"{json_name}: malformed summary ({type(exc).__name__}: {exc})")
    return problems


def _path_columns(csv_path: Path) -> dict[str, list]:
    lines = csv_path.read_text().splitlines()
    if not lines or lines[0] != _PATH_HEADER:
        raise ValueError("bad header")
    cols: dict[str, list] = {f: [] for f in _PATH_FIELDS}
    for line in lines[1:]:
        k, *vals = line.split(",")
        if len(vals) != 5:
            raise ValueError(f"malformed row {line!r}")
        cols["k"].append(int(k))
        for f, v in zip(_PATH_FIELDS[1:], vals):
            cols[f].append(float(v))
    return cols


def path_problems(w: Workload, seed: int, outdir: Path) -> list[str]:
    """Check exported paths: shape, finiteness, monotone extrema, step identity,
    and CSV and JSON holding the same numbers."""
    problems: list[str] = []
    h = w.horizon / w.grid_steps
    for scheme in ("general", "reference"):
        name = f"{scheme}.csv"
        try:
            cols = _path_columns(outdir / name)
            body = json.loads((outdir / f"{scheme}.json").read_text())
        except (ValueError, OSError) as exc:
            problems.append(f"{scheme}: unreadable export ({type(exc).__name__}: {exc})")
            continue
        if cols["k"] != list(range(w.grid_steps + 1)) or cols["t"] != [k * h for k in cols["k"]]:
            problems.append(f"{name}: grid columns k,t are not 0..L and k*h")
        values = cols["phi"] + cols["M"] + cols["I"] + cols["X"]
        if not all(math.isfinite(v) for v in values):
            problems.append(f"{name}: non-finite values")
            continue
        big_m, big_i = cols["M"], cols["I"]
        if any(b < a for a, b in zip(big_m, big_m[1:])) or any(b > a for a, b in zip(big_i, big_i[1:])):
            problems.append(f"{name}: M is not non-decreasing or I is not non-increasing")
        for phi, m, i, x in zip(cols["phi"], big_m, big_i, cols["X"]):
            parts = (w.x0, phi, w.alpha * m, w.beta * i)
            if abs(x - sum(parts)) > IDENTITY_RTOL * max(1.0, abs(x), *map(abs, parts)):
                problems.append(f"{name}: step identity X = x0 + phi + alpha*M + beta*I fails")
                break
        if not isinstance(body, dict) or any(body.get(f) != cols[f] for f in _PATH_FIELDS):
            problems.append(f"{scheme}.json: differs from {name}")
    return problems


def output_problems(w: Workload, seed: int, outdir: Path) -> list[str]:
    """Every reason the outputs in `outdir` are wrong for (workload, seed)."""
    missing = [n for n in w.outputs() if not (outdir / n).is_file()]
    if missing:
        return [f"missing output {n}" for n in missing]
    return study_problems(w, seed, outdir) if w.is_study else path_problems(w, seed, outdir)
