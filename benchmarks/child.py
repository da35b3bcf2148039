"""Child process of the benchmark: the timed operations or the traced run.

    python3 benchmarks/child.py ops   --workload W --seed S --seconds R --setups K --out DIR
    python3 benchmarks/child.py trace --workload W --seed S --out DIR

`ops` drives the workload through `dpsde.cli.main` again and again for R
seconds, timing each operation, and reports the times, the digests of each
operation's outputs and the process's peak RSS.  Between operations it also
times K set-ups, spread evenly over the R seconds, each a fresh
`python -m dpsde.cli validate` process, after one untimed warm-up.  `trace` runs one operation
by calling each layer's public functions from here, in the order and chunks
the CLI uses, and records a span around every call.  Either mode prints one
JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

from common import CHUNK, EXPORTS, ROOT, WORKLOADS, Workload, output_digests


def _import_dpsde():
    import dpsde

    src = ROOT / "src"
    if not Path(dpsde.__file__).resolve().is_relative_to(src):
        sys.exit(f"benchmark: dpsde was imported from {dpsde.__file__}, not from {src}")
    return dpsde


def _versions() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "dpsde": _import_dpsde().__version__}


def time_setup(w: Workload) -> float:
    """Wall time of `python -m dpsde.cli validate ...` with the workload's
    parameters: interpreter start, import, argument parsing, validation, exit."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "dpsde.cli", *w.validate_argv()], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        sys.exit("benchmark: a set-up run timed out")
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0 or "verdict=accept" not in proc.stdout:
        sys.exit(f"benchmark: set-up run failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return elapsed


def run_ops(w: Workload, seed: int, seconds: float, setup_runs: int, outdir: Path) -> dict:
    from dpsde.cli import main

    argvs = w.argvs(seed, outdir)
    ops, setups = [], []
    if setup_runs:
        time_setup(w)  # warm-up: byte-compiles the sources in a fresh checkout
    begin = time.perf_counter()
    while True:
        # Set-up k runs once k/K of the time has passed, so that set-ups and
        # operations sample the same stretch of a shared host's load.
        if len(setups) < setup_runs and time.perf_counter() - begin >= len(setups) * seconds / setup_runs:
            setups.append(time_setup(w))
        for name in w.outputs():
            (outdir / name).unlink(missing_ok=True)
        codes, error, stderr = [], None, io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                for argv in argvs:
                    codes.append(main(argv))
                    if codes[-1] != 0:
                        break
        except Exception as exc:  # a crash inside the program is a failed operation
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        ops.append({"seconds": t1 - t0, "codes": codes, "error": error,
                    "stderr": stderr.getvalue(), "digests": output_digests(w, outdir)})
        if t1 - begin + (t1 - t0) > seconds:
            break
    setups += [time_setup(w) for _ in range(setup_runs - len(setups))]
    return {"ops": ops, "setups": setups,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


class Tracer:
    """Spans (name, start, end, parent, run id) and counts, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._stack[-1] if self._stack else None, "run": self.run_id}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(amount)


def _count_scheme_out(tr: Tracer, arrays, used) -> None:
    tr.count("scheme.path_steps", (arrays[0].size // arrays[0].shape[-1]) * (arrays[0].shape[-1] - 1))
    tr.count("scheme.bytes_out_computed", sum(a.nbytes for a in arrays))
    tr.count("scheme.bytes_used", sum(a.nbytes for a in used))


def traced_study(w: Workload, seed: int, outdir: Path, tr: Tracer) -> None:
    """One study, layer by layer, as dpsde.experiments runs it with one worker."""
    import numpy as np

    from dpsde.driver import generate_increments, make_grid
    from dpsde.errors import DegenerateFit
    from dpsde.experiments import (ConvergenceReport, ErrorEstimate, RateFit, SchemeComparison,
                                   StudySpec, rate_fit)
    from dpsde.models import get_model
    from dpsde.output import write_report_csv, write_report_json
    from dpsde.params import validate
    from dpsde.reference import solve_reference_batch
    from dpsde.scheme import simulate_general_x0_batch, simulate_new_batch, simulate_old_batch

    batch_fns = {"new": simulate_new_batch, "old": simulate_old_batch, "general": simulate_general_x0_batch}

    def mean_and_se(values):
        est = float(np.mean(values))
        se = float(np.std(values, ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
        return est, se

    with tr.span("op"):
        params = validate(w.alpha, w.beta, w.x0, w.horizon)
        spec = StudySpec(model_id=w.model, params=params, n_list=w.n_list, p_list=w.p_list,
                         paths=w.paths, grid=make_grid(w.grid_steps, w.horizon), master_seed=seed,
                         scheme="new")
        model, grid = get_model(spec.model_id), spec.grid
        gaps = {(kind, n): np.empty(w.paths) for kind in w.kinds for n in w.n_list}
        for s in range(0, w.paths, CHUNK):
            e = min(s + CHUNK, w.paths)
            with tr.span("driver.increments"):
                rows = [generate_increments(seed, i, grid) for i in range(s, e)]
            tr.count("driver.increments_calls", len(rows))
            tr.count("driver.bytes_computed", sum(r.nbytes for r in rows))
            dw = np.stack(rows)
            with tr.span("reference.solve"):
                ref = solve_reference_batch(model, params, grid, dw)[3]
            tr.count("reference.path_steps", (e - s) * grid.steps)
            for kind in w.kinds:
                for n in w.n_list:
                    with tr.span(f"scheme.{kind}.n{n}"):
                        out = batch_fns[kind](model, params, grid, n, dw)
                    _count_scheme_out(tr, out, out[3:])
                    xn = out[3]
                    del out
                    with tr.span("experiments.reduce"):
                        gaps[(kind, n)][s:e] = np.max(np.abs(xn - ref), axis=1)
            tr.count("experiments.chunks", 1)

        with tr.span("experiments.reduce"):
            reports = {}
            for kind in w.kinds:
                errors, fits = [], []
                for p in w.p_list:
                    per_n = []
                    for n in w.n_list:
                        est, se = mean_and_se(gaps[(kind, n)] ** p)
                        errors.append(ErrorEstimate(n=n, p=p, estimate=est, std_err=se))
                        per_n.append((n, est))
                    try:
                        slope, intercept = rate_fit(per_n)
                    except DegenerateFit:
                        continue
                    fits.append(RateFit(p=p, slope=slope, intercept=intercept))
                reports[kind] = ConvergenceReport(
                    scheme=kind, model_id=w.model, alpha=params.alpha, beta=params.beta,
                    x0=params.x0, horizon=params.horizon, grid_steps=grid.steps, paths=w.paths,
                    master_seed=seed, errors=tuple(errors), fits=tuple(fits))
        report = SchemeComparison(**reports) if w.command == "compare" else reports["new"]
        csv_name, json_name = w.outputs()
        with tr.span("output.report_csv"):
            write_report_csv(report, outdir / csv_name)
        with tr.span("output.report_json"):
            write_report_json(report, outdir / json_name)


def traced_export(w: Workload, seed: int, outdir: Path, tr: Tracer) -> None:
    """One path export: the four `dpsde simulate` calls, layer by layer."""
    from dpsde.driver import generate_increments, make_grid
    from dpsde.models import get_model
    from dpsde.output import write_path_csv, write_path_json
    from dpsde.params import validate
    from dpsde.reference import solve_reference
    from dpsde.scheme import simulate_general_x0

    writers = {"csv": write_path_csv, "json": write_path_json}
    n = w.n_list[0]
    with tr.span("op"):
        for scheme, fmt in EXPORTS:
            params = validate(w.alpha, w.beta, w.x0, w.horizon)
            model, grid = get_model(w.model), make_grid(w.grid_steps, w.horizon)
            with tr.span("driver.increments"):
                dw = generate_increments(seed, 0, grid)
            tr.count("driver.increments_calls", 1)
            tr.count("driver.bytes_computed", dw.nbytes)
            if scheme == "general":
                with tr.span(f"scheme.general.n{n}"):
                    path = simulate_general_x0(model, params, grid, n, dw)
                arrays = (path.phi, path.big_m, path.big_i, path.x)
                _count_scheme_out(tr, arrays, arrays)  # the writers use all four
            else:
                with tr.span("reference.solve"):
                    path = solve_reference(model, params, grid, dw)
                tr.count("reference.path_steps", grid.steps)
            with tr.span(f"output.path_{fmt}"):
                writers[fmt](path, outdir / f"{scheme}.{fmt}")
            tr.count("experiments.chunks", 1)


def run_trace(w: Workload, seed: int, outdir: Path) -> dict:
    tracer = Tracer(f"{w.name}:{seed}:{os.getpid()}")
    (traced_study if w.is_study else traced_export)(w, seed, outdir, tracer)
    (outdir / "spans.json").write_text(json.dumps(tracer.spans, indent=1) + "\n")
    return {"spans": tracer.spans, "counts": tracer.counts, "digests": output_digests(w, outdir)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["ops", "trace"])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--setups", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    w = WORKLOADS[args.workload]
    args.out.mkdir(parents=True, exist_ok=True)
    versions = _versions()
    if args.mode == "ops":
        result = run_ops(w, args.seed, args.seconds, args.setups, args.out)
    else:
        result = run_trace(w, args.seed, args.out)
    print(json.dumps({**result, "versions": versions}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
