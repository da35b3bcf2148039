"""Benchmark of the dpsde Monte Carlo pipeline, run through its CLI.

    python3 benchmarks/run.py --workload converge-stock [--seed 42] [--seconds 40] [--trace 0|1]

Run from anywhere inside a source checkout; nothing needs installing.  With
--trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
metrics of a separate traced run.  Each line before the last names a metric
with its unit and sample count; the last line is one JSON object with the
keys correct, attempted, failed and metrics.  See README.md for the
workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from common import BENCH_DIR, OUT_ROOT, ROOT, WORKLOADS, Workload, output_digests, output_problems, tree_digest

# Timed set-ups per run, spread over the operations (see child.py).
SETUP_RUNS = 10
TIME_LIMIT_S = 170.0  # a run ends within 180 s


class BenchError(Exception):
    """The benchmark could not measure: a child process failed or timed out."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_child(mode: str, w: Workload, seed: int, outdir: Path, seconds: float, timeout: float,
              setups: int = 0) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "child.py"), mode, "--workload", w.name,
            "--seed", str(seed), "--seconds", repr(seconds), "--setups", str(setups),
            "--out", str(outdir)]
    if timeout <= 0:
        raise BenchError(f"out of time before starting child {mode}")
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped the child
        raise BenchError(f"child {mode} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"child {mode} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def pinned_digests(w: Workload, seed: int, versions: dict) -> tuple[dict | None, str]:
    """Pinned output digests that apply to this run, and a note saying why or why not."""
    pins = json.loads((BENCH_DIR / "digests.json").read_text())
    stamp = f"seed {pins['seed']}, Python {pins['python']}, numpy {pins['numpy']}"
    if seed != pins["seed"]:
        return None, f"no pinned digests for seed {seed} (pinned: {stamp}); checked structure only"
    if (versions["python"], versions["numpy"]) != (pins["python"], pins["numpy"]):
        return None, (f"pinned digests hold for {stamp}, not Python {versions['python']}, "
                      f"numpy {versions['numpy']}; checked structure only")
    return pins["sha256"][w.name], f"outputs checked against digests pinned for {stamp}"


def judge(w: Workload, seed: int, outdir: Path, ops: list[dict], pinned: dict | None):
    """Check the outputs on disk (the last operation's) and count failed operations.

    An operation fails if it raised, a command exited non-zero, or its output
    digests differ from the checked outputs.  Returns (problems, good digests
    or None, number failed).
    """
    problems = output_problems(w, seed, outdir)
    on_disk = output_digests(w, outdir)
    if pinned is not None:
        got = {name: d and d[0] for name, d in on_disk.items()}
        problems += [f"{name}: sha256 {got[name]} differs from pinned {want}"
                     for name, want in pinned.items() if got.get(name) != want]
    good = None if problems else on_disk
    n_cmds = len(w.argvs(seed, outdir))
    failed = sum(1 for op in ops
                 if op["error"] or op["codes"] != [0] * n_cmds or op["digests"] != good)
    return problems, good, failed


def layer_metrics(w: Workload, trace: dict, op_s: float) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced operation, plus a readable breakdown."""
    spans = trace["spans"]
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s in spans:
        total[s["name"]] += s["end"] - s["start"]
        calls[s["name"]] += 1
    wall = total["op"]

    def summed(pred) -> float:
        return sum(t for name, t in total.items() if pred(name))

    scheme = summed(lambda n: n.startswith("scheme."))
    output_csv = summed(lambda n: n.startswith("output.") and n.endswith("_csv"))
    output_json = summed(lambda n: n.startswith("output.") and n.endswith("_json"))
    layers = total["driver.increments"] + total["reference.solve"] + scheme + output_csv + output_json
    c = trace["counts"]
    m = {
        "driver.increments_s": total["driver.increments"],
        "driver.increments_calls": c["driver.increments_calls"],
        "driver.bytes_computed": c["driver.bytes_computed"],
        "reference.solve_s": total["reference.solve"],
        "reference.path_steps": c["reference.path_steps"],
        "reference.ns_per_path_step": total["reference.solve"] / c["reference.path_steps"] * 1e9,
        "scheme.solve_s": scheme,
        "scheme.longest_delay_s": summed(lambda n: n.startswith("scheme.") and n.endswith(f".n{min(w.n_list)}")),
        "scheme.shortest_delay_s": summed(lambda n: n.startswith("scheme.") and n.endswith(f".n{max(w.n_list)}")),
        "scheme.path_steps": c["scheme.path_steps"],
        "scheme.ns_per_path_step": scheme / c["scheme.path_steps"] * 1e9,
        "scheme.bytes_out_computed": c["scheme.bytes_out_computed"],
        "scheme.useful_ratio": c["scheme.bytes_used"] / c["scheme.bytes_out_computed"],
        "experiments.chunks": c["experiments.chunks"],
        "experiments.other_s": wall - layers,
        "output.csv_s": output_csv,
        "output.json_s": output_json,
        "output.bytes_written": sum(d[1] for d in trace["digests"].values() if d),
        "trace.overhead_s": wall - op_s,
    }
    lines = [f"  {name:<28} {t:9.4f} s {100 * t / wall:6.1f}%  {calls[name]} spans"
             for name, t in sorted(total.items()) if name != "op"]
    lines.append(f"  layer spans {layers:.4f} s + experiments.other_s {wall - layers:.4f} s "
                 f"(self time of op, includes experiments.reduce) = traced op {wall:.4f} s")
    return m, lines


def check_counts_repeat(w: Workload, seed: int, metrics: dict, declared: list[dict]) -> list[str]:
    """Counts must repeat exactly between runs of the same code and seed.

    The counts of every traced run are kept in .bench_out/counts; a later run
    of the same source and benchmark code with the same seed must match them.
    """
    names = [d["name"] for d in declared if d["unit"] in ("count", "B", "ratio")]
    counts = {n: metrics[n] for n in names}
    code = tree_digest(ROOT, ("src/**/*.py", "benchmarks/*.py", "benchmarks/*.json"))
    record = OUT_ROOT / "counts" / f"{w.name}-seed{seed}-{code[:16]}.json"
    if record.is_file():
        before = json.loads(record.read_text())
        if before != counts:
            return [f"counts differ from an earlier run of the same code: {before} vs {counts}"]
        return []
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps(counts, indent=1) + "\n")
    return []


def environment(w: Workload, seed: int, versions: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():  # else git would report a repository enclosing the checkout
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                  text=True, timeout=10)
            commit = proc.stdout.strip() if proc.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"workload": w.name, "seed": seed, "nproc": len(os.sched_getaffinity(0)), **versions,
            "commit": commit,
            "src_sha256": tree_digest(ROOT, ("src/**/*.py",))}


def declared_metrics(bench: dict, section: str, values: dict) -> dict:
    """The metrics object of the result: exactly the declared names, with their units."""
    declared = {d["name"]: d["unit"] for d in bench[section]}
    if set(values) != set(declared):
        raise BenchError(f"measured {sorted(values)} but {section} declares {sorted(declared)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}


def measure(w: Workload, seed: int, seconds: float, trace: bool, bench: dict) -> dict:
    start = time.perf_counter()

    def left() -> float:
        return TIME_LIMIT_S - (time.perf_counter() - start)

    outdir = OUT_ROOT / w.name
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    run = run_child("ops", w, seed, outdir, seconds, left() - (45.0 if trace else 10.0),
                    0 if trace else SETUP_RUNS)
    ops, setups, versions = run["ops"], run["setups"], run["versions"]
    pinned, note = pinned_digests(w, seed, versions)
    problems, good, failed = judge(w, seed, outdir, ops, pinned)
    attempted = len(ops)
    times = sorted(op["seconds"] for op in ops)
    op_s = times[0]  # the fastest operation: see "Why the fastest operation" in README.md
    # The highest percentile with at least ten operations beyond it, if any.
    tail = max((q for q in (75, 90, 95, 99) if len(times) * (100 - q) >= 1000), default=None)
    lines = ["op_s samples: " + " ".join(f"{op['seconds']:.4f}" for op in ops),
             f"op_s distribution over {len(times)} operations: fastest {times[0]:.4f} s, "
             f"median {statistics.median(times):.4f} s"
             + (f", {tail}th percentile {times[len(times) * tail // 100]:.4f} s" if tail else "")
             + f", slowest {times[-1]:.4f} s"]
    if trace:
        traced = run_child("trace", w, seed, outdir / "traced", 0.0, left())
        attempted += 1
        if traced["digests"] != output_digests(w, outdir):
            problems.append("traced run's outputs differ from the untraced run's")
            failed += 1
        values, breakdown = layer_metrics(w, traced, op_s)
        problems += check_counts_repeat(w, seed, values, bench["per_layer"])
        lines += [f"traced operation, spans by name (kept in {outdir / 'traced' / 'spans.json'}):", *breakdown]
        metrics = declared_metrics(bench, "per_layer", values)
    else:
        values = {
            "setup_s": statistics.median(setups),
            "op_s": op_s,
            "paths_per_s": w.paths_per_op / op_s,
            "peak_rss_mb": run["maxrss_kb"] / 1024.0,
        }
        metrics = declared_metrics(bench, "end_to_end", values)
    samples = {"setup_s": f"median of {len(setups)} set-ups", "op_s": f"fastest of {len(ops)} operations",
               "paths_per_s": f"{w.paths_per_op} paths per operation / op_s",
               "peak_rss_mb": "ru_maxrss of the operation process"}
    for name, m in metrics.items():
        lines.append(f"{name:<28} {m['value']:>16.6g} {m['unit']:<6} {samples.get(name, '')}".rstrip())
    lines.append(f"failed_ratio {failed}/{attempted} = {failed / attempted:.3g}")
    return {"env": environment(w, seed, versions), "note": note, "problems": problems,
            "lines": lines, "ops": ops, "good_digests": good,
            "result": {"correct": not problems and failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics}}


def main() -> int:
    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "dpsde" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"benchmark: {ROOT} is not a dpsde source checkout (src/dpsde or BENCHMARK.json missing)",
              file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    w = WORKLOADS[args.workload]
    try:
        rec = measure(w, args.seed, args.seconds, bool(args.trace), bench)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    (OUT_ROOT / w.name / "result.json").write_text(json.dumps(rec, indent=1) + "\n")
    print(f"dpsde benchmark: workload {w.name}, seed {args.seed}, trace {args.trace}")
    print("env " + json.dumps(rec["env"]))
    for line in [rec["note"]] + [f"PROBLEM: {p}" for p in rec["problems"]] + rec["lines"]:
        print(line)
    print(json.dumps(rec["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
