"""Self-test of the benchmark itself.

    python3 benchmarks/selftest.py

1. Runs run.py for one operation on path-export (seed 42, checked against
   the pinned digests, end-to-end metrics) and on compare-fine (seed 7,
   checked by structure only, per-layer metrics).  Each result must be
   correct with no failed operation, and must print exactly the metrics
   BENCHMARK.json declares for its mode, each with the declared unit.
2. Corrupts copies of those outputs (one changed byte, an injected NaN) and
   checks that the output check rejects each copy with and without pinned
   digests, and that an operation whose outputs are corrupted, which raised,
   or which exited non-zero counts as failed, so failed_ratio > 0.
3. Runs run.py in a directory holding only BENCHMARK.json and benchmarks/,
   where it must exit non-zero without printing a result.

Exits 0 when every check holds and prints one line per failed check otherwise.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

from common import BENCH_DIR, OUT_ROOT, ROOT, WORKLOADS, output_digests, output_problems
from run import judge, pinned_digests

WORK_DIR = OUT_ROOT / "selftest"
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_declared(workload: str, seed: int, trace: int) -> dict:
    """Run one operation and check the printed result against BENCHMARK.json."""
    proc = run_bench(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1",
                     "--trace", str(trace))
    expect(proc.returncode == 0, f"{workload} --trace {trace} exits 0 ({proc.stderr.strip()[-300:]})")
    result = json.loads(proc.stdout.splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload}: result keys")
    expect(result["correct"] and result["failed"] == 0, f"{workload}: correct, nothing failed")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {d["name"]: d["unit"] for d in bench["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(printed == declared, f"{workload}: printed metrics and units are the declared ones")
    return json.loads((OUT_ROOT / workload / "result.json").read_text())


def corrupt(src: Path, name: str, edit) -> Path:
    dest = WORK_DIR / f"{src.name}-{name}-{edit.__name__}"
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(src, dest, ignore=shutil.ignore_patterns("traced", "result.json"))
    path = dest / name
    path.write_text(edit(path.read_text()))
    return dest


def flip_byte(text: str) -> str:
    """Change one digit in the middle of the file."""
    i = len(text) // 2
    while not text[i].isdigit() or text[i] == "9":
        i += 1
    return text[:i] + chr(ord(text[i]) + 1) + text[i + 1:]


def inject_nan(text: str) -> str:
    """Replace the first decimal number after the middle of the file by NaN."""
    mid = len(text) // 2
    m = re.compile(r"-?\d+\.\d+(e-?\d+)?").search(text, mid)
    return text[: m.start()] + ("NaN" if text.lstrip().startswith("{") else "nan") + text[m.end():]


def check_failure_accounting(workload: str, seed: int, record: dict, victims: tuple[str, ...]) -> None:
    w = WORKLOADS[workload]
    good_dir = OUT_ROOT / workload
    good_op = record["ops"][0]
    pinned, _ = pinned_digests(w, seed, {k: record["env"][k] for k in ("python", "numpy")})
    for name in victims:
        for edit in (flip_byte, inject_nan):
            bad_dir = corrupt(good_dir, name, edit)
            what = f"{workload}: {edit.__name__} in {name}"
            expect(bool(output_problems(w, seed, bad_dir)), f"{what} fails the structural check")
            problems, _, failed = judge(w, seed, bad_dir, [good_op], pinned)
            expect(bool(problems) and failed == 1, f"{what} on disk fails its operation")
            bad_op = dict(good_op, digests=output_digests(w, bad_dir))
            _, _, failed = judge(w, seed, good_dir, [good_op, bad_op], pinned)
            expect(failed == 1, f"{what} in one of two operations: failed_ratio {failed}/2 > 0")
    for bad_op in (dict(good_op, error="RuntimeError: boom"), dict(good_op, codes=[2])):
        _, _, failed = judge(w, seed, good_dir, [good_op, bad_op], pinned)
        expect(failed == 1, f"{workload}: an operation that raised or exited non-zero counts as failed")


def check_bare_directory() -> None:
    bare = WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, "--workload", "converge-stock", "--seed", "42", "--seconds", "1", "--trace", "0")
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    expect(proc.returncode != 0 and not last[0].startswith("{"),
           f"without src/ the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    WORK_DIR.mkdir(parents=True)
    export = check_declared("path-export", 42, 0)
    check_failure_accounting("path-export", 42, export, ("reference.csv", "general.json"))
    compare = check_declared("compare-fine", 7, 1)
    check_failure_accounting("compare-fine", 7, compare, ("compare.csv", "compare.json"))
    check_bare_directory()
    print(f"{len(failures)} failed checks" if failures else "all checks hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
