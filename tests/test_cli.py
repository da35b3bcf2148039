import contextlib
import hashlib
import io
import json
import math
import os
import re
import string
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dpsde.driver
import dpsde.experiments
from dpsde import cli
from dpsde.cli import main
from dpsde.driver import _philox_key, generate_increments, make_grid
from dpsde.models import builtin_catalog


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_accept(capsys):
    code, out, _ = run_cli(capsys, "validate", "--alpha", "0.6", "--beta", "-1.0")
    assert code == 0
    assert "verdict=accept" in out
    rho = float(out.split("rho=")[1].split()[0])
    assert rho == pytest.approx(-0.75)
    assert "beyond_mao=True" in out


def test_validate_reject_boundary(capsys):
    code, out, _ = run_cli(capsys, "validate", "--alpha", "0.5", "--beta", "0.5")
    assert code == 2
    assert "rho=1" in out
    assert "verdict=reject" in out


def test_validate_alpha_out_of_range(capsys):
    code, out, _ = run_cli(capsys, "validate", "--alpha", "1.0", "--beta", "0.0")
    assert code == 2
    assert "AlphaOutOfRange" in out


def test_simulate_unit_diffusion_x_equals_cumulative_noise(capsys, tmp_path):
    dest = tmp_path / "path.csv"
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--model", "zero-drift-unit-diffusion",
        "--alpha", "0", "--beta", "0", "--n", "8",
        "--grid-steps", "512",
        "--out", str(dest),
    )
    assert code == 0
    rows = [line.split(",") for line in dest.read_text().splitlines()[1:]]
    x = np.array([float(r[5]) for r in rows])
    phi = np.array([float(r[2]) for r in rows])
    assert np.max(np.abs(x - phi)) <= 1e-12


def test_simulate_json_format(capsys, tmp_path):
    dest = tmp_path / "path.json"
    code, _, _ = run_cli(
        capsys,
        "simulate", "--model", "affine", "--alpha", "0.6", "--beta", "-1.0",
        "--n", "8", "--grid-steps", "256", "--format", "json", "--out", str(dest),
    )
    assert code == 0
    body = json.loads(dest.read_text())
    assert set(body) == {"k", "t", "phi", "M", "I", "X"}
    assert len(body["X"]) == 257


def test_simulate_reference_scheme(capsys, tmp_path):
    dest = tmp_path / "ref.csv"
    code, _, _ = run_cli(
        capsys,
        "simulate", "--scheme", "reference", "--model", "affine",
        "--alpha", "0.6", "--beta", "-1.0", "--grid-steps", "256",
        "--out", str(dest),
    )
    assert code == 0
    assert dest.read_text().startswith("k,t,phi,M,I,X\n")


def test_simulate_rejects_bad_params(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "simulate", "--alpha", "0.5", "--beta", "0.5", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2
    assert err.startswith("dpsde: error: RhoTooLarge:")
    assert len(err.strip().splitlines()) == 1


def test_converge_tiny_study(capsys, tmp_path):
    out_csv = tmp_path / "c.csv"
    out_json = tmp_path / "c.json"
    code, out, _ = run_cli(
        capsys,
        "converge",
        "--grid-steps", "256", "--n-list", "8,16,32", "--p-list", "2,4",
        "--paths", "30", "--out-csv", str(out_csv), "--out-json", str(out_json),
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 7  # header + 3 n x 2 p
    body = json.loads(out_json.read_text())
    assert len(body["slopes"]) == 2
    assert "slope=" in out


def test_converge_byte_identical_across_worker_counts(capsys, tmp_path, monkeypatch):
    # 300 paths give spans of at least 100 paths, so --workers 2 and 3 fork
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    args = [
        "converge", "--grid-steps", "256", "--n-list", "8,16,32", "--p-list", "2",
        "--paths", "300",
    ]
    outputs = {}
    for workers in ("1", "2", "3"):
        out_csv, out_json = tmp_path / f"{workers}.csv", tmp_path / f"{workers}.json"
        code, _, _ = run_cli(capsys, *args, "--workers", workers, "--out-csv", str(out_csv), "--out-json", str(out_json))
        assert code == 0
        with pytest.raises(ChildProcessError):  # every child is reaped
            os.waitpid(-1, os.WNOHANG)
        body = json.loads(out_json.read_text())
        body["metadata"].pop("generated_at")
        outputs[workers] = (out_csv.read_bytes(), body)
    assert len(forks) == 3
    assert outputs["1"] == outputs["2"] == outputs["3"]


def test_workers_default_to_two_processes(capsys):
    assert cli._OPTIONS["workers"][1] == 2
    with pytest.raises(SystemExit):
        main(["converge", "--help"])
    assert re.search(r"--workers WORKERS\s+worker processes \(default 2\)", capsys.readouterr().out)


def test_cli_without_fork_or_sched_getaffinity_defaults_to_one_worker():
    # A platform without os.fork (Windows) or os.sched_getaffinity (macOS):
    # the CLI still imports and defaults to one process, a one-process study
    # runs, and workers > 1 is rejected before any increment is drawn.
    script = """
import os
del os.fork, os.sched_getaffinity
import dpsde.cli, dpsde.experiments
from dpsde.errors import InvalidWorkerCount
assert dpsde.cli._OPTIONS["workers"][1] == 1
spec = dpsde.experiments.default_study(grid_steps=256, n_list=(8, 16, 32), paths=5)
assert dpsde.experiments.run_convergence(spec).errors
def no_work(*args):
    raise AssertionError("increments drawn")
dpsde.experiments.generate_increments = no_work
try:
    dpsde.experiments.run_convergence(spec, workers=2)
except InvalidWorkerCount as exc:
    print(exc)
"""
    src = str(Path(dpsde.experiments.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "workers=2 needs os.fork, which this platform lacks\n"


_STARTUP = """
import sys
import dpsde
code = 0
if sys.argv[1:]:
    from dpsde.cli import main
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:  # --help
        code = exc.code
print(code, "numpy" in sys.modules)
"""


@pytest.mark.parametrize("argv,code,numpy_loaded", [
    ([], 0, False),
    (["validate"], 0, False),
    (["--help"], 0, False),
    (["converge", "--help"], 0, False),
    (["converge", "--alpha", "abc"], 2, False),
    (["converge", "--grid-steps", "256", "--n-list", "8,16,32", "--paths", "5", "--workers", "1",
      "--out-csv", "{tmp}/x.csv", "--out-json", "{tmp}/x.json"], 0, True),
], ids=["import", "validate", "help", "converge-help", "bad-alpha", "converge"])
def test_only_commands_that_compute_import_numpy(tmp_path, argv, code, numpy_loaded):
    # the package and the CLI's parameter gate are pure Python: a fresh interpreter
    # loads numpy only once a handler that computes runs
    src = str(Path(dpsde.experiments.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    done = subprocess.run([sys.executable, "-c", _STARTUP, *argv], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == f"{code} {numpy_loaded}", done.stderr


def test_every_public_name_is_its_home_modules_object():
    import importlib

    import dpsde

    for module, names in dpsde._EXPORTS.items():
        home = importlib.import_module(f"dpsde.{module}")
        for name in names:
            assert getattr(dpsde, name) is getattr(home, name), name
    assert sorted(dpsde.__all__) == sorted(name for names in dpsde._EXPORTS.values() for name in names)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        dpsde.no_such_name


def test_every_public_name_has_a_reader_outside_the_tests():
    # no public API that only tests call: each exported name is read by another module of the
    # package, by the benchmark or by the acceptance suite.  An AST, not a word search: prose
    # such as "non-Lipschitz" is no reader, and Python 3.11's tokenize does not split f-strings
    import ast

    import dpsde

    repo = Path(__file__).resolve().parents[1]
    src = repo / "src" / "dpsde"
    read = {}
    for path in [*src.glob("*.py"), *(repo / "benchmarks").glob("*.py"), repo / "tests" / "test_acceptance.py"]:
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        read[path] = {n.id for n in nodes if isinstance(n, ast.Name)}
        read[path] |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        read[path] |= {n.name for n in nodes if isinstance(n, ast.alias)}

    def has_reader(name, home):
        return any(name in names for path, names in read.items() if path not in (src / "__init__.py", src / f"{home}.py"))

    unread = [name for name, home in dpsde._HOME.items() if not has_reader(name, home)]
    assert unread == []


def test_every_name_the_benchmark_imports_resolves():
    # the benchmark imports solvers inside its functions, so a removed name breaks
    # only its run; walk every `from dpsde... import` node, nested ones included
    import ast
    import importlib

    repo = Path(__file__).resolve().parents[1]
    imported = [
        (node.module, alias.name)
        for path in (repo / "benchmarks").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dpsde"
        for alias in node.names
    ]
    assert ("dpsde.scheme", "simulate_old_batch") in imported
    missing = [(module, name) for module, name in imported if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_config_file_and_flag_override(capsys, tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        "# tiny study\n"
        "grid_steps = 256\n"
        "n_list = 8,16,32\n"
        "p_list = 2\n"
        "paths = 25  # inline comment\n"
        "alpha = 0.6\n"
        "beta = -1.0\n"
    )
    out_csv = tmp_path / "from_cfg.csv"
    code, _, _ = run_cli(
        capsys,
        "converge", "--config", str(cfg),
        "--paths", "10",  # flag beats the file
        "--out-csv", str(out_csv), "--out-json", str(tmp_path / "from_cfg.json"),
    )
    assert code == 0
    body = json.loads((tmp_path / "from_cfg.json").read_text())
    assert body["metadata"]["paths"] == 10
    assert body["metadata"]["grid_steps"] == 256


def test_config_file_rejects_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("grid-step = 512\n")  # typo for grid-steps
    out_json = tmp_path / "x.json"
    code, _, err = run_cli(
        capsys,
        "converge", "--config", str(cfg), "--paths", "5",
        "--out-csv", str(tmp_path / "x.csv"), "--out-json", str(out_json),
    )
    assert code == 2
    assert "'grid-step'" in err
    assert not out_json.exists()


def test_config_file_rejects_a_key_set_twice(capsys, tmp_path):
    cfg = tmp_path / "dup.cfg"
    cfg.write_text("alpha = 0.5\nbeta = -1\nalpha = 0.1\n")
    code, out, err = run_cli(capsys, "validate", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("dpsde: error: InvalidOption: config key 'alpha' is set twice")
    cfg.write_text("grid_steps = 256\nn-list = 8,16,32\nn_list = 8,16\n")  # one key, two spellings
    code, _, err = run_cli(capsys, "converge", "--config", str(cfg), "--paths", "5",
                           "--out-csv", str(tmp_path / "x.csv"), "--out-json", str(tmp_path / "x.json"))
    assert code == 2
    assert "config key 'n_list' is set twice" in err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("command", ["converge", "compare"])
def test_study_rejects_one_file_for_both_outputs_before_work(capsys, tmp_path, monkeypatch, command):
    def no_increments(*args):
        raise AssertionError("increments drawn for clashing output paths")

    monkeypatch.setattr(dpsde.experiments, "generate_increments", no_increments)
    (tmp_path / "sub").mkdir()
    for out_csv, out_json in (("same.out", "same.out"), ("same.out", "sub/../same.out")):
        code, out, err = run_cli(
            capsys,
            command, "--grid-steps", "256", "--n-list", "8,16,32", "--paths", "5",
            "--out-csv", str(tmp_path / out_csv), "--out-json", str(tmp_path / out_json),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("dpsde: error: InvalidOption: --out-csv and --out-json name the same file")
        assert list(tmp_path.iterdir()) == [tmp_path / "sub"]


def test_converge_new_scheme_rejects_nonzero_x0_before_work(capsys, tmp_path, monkeypatch):
    import dpsde.experiments

    def no_increments(*args):
        raise AssertionError("increments drawn for an invalid study")

    monkeypatch.setattr(dpsde.experiments, "generate_increments", no_increments)
    code, _, err = run_cli(
        capsys,
        "converge", "--scheme", "new", "--x0", "0.5", "--grid-steps", "256",
        "--n-list", "8,16,32", "--paths", "5",
        "--out-csv", str(tmp_path / "x.csv"), "--out-json", str(tmp_path / "x.json"),
    )
    assert code == 2
    assert "NonZeroStart" in err


def test_simulate_new_scheme_rejects_nonzero_x0_before_work(capsys, tmp_path, monkeypatch):
    import dpsde.driver

    def no_increments(*args):
        raise AssertionError("increments drawn for an invalid path")

    monkeypatch.setattr(dpsde.driver, "generate_increments", no_increments)
    code, _, err = run_cli(
        capsys,
        "simulate", "--scheme", "new", "--x0", "0.5", "--grid-steps", "256", "--n", "8",
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2
    assert "NonZeroStart" in err and "scheme 'general'" in err
    assert not (tmp_path / "x.csv").exists()


def test_compare_with_nonzero_x0_names_no_flag_it_lacks(capsys, tmp_path, monkeypatch):
    # compare has no --scheme, so the library's NonZeroStart names the scheme, not a flag
    def no_increments(*args):
        raise AssertionError("increments drawn for an invalid study")

    monkeypatch.setattr(dpsde.experiments, "generate_increments", no_increments)
    code, out, err = run_cli(
        capsys, "compare", "--x0", "0.5", "--out-csv", str(tmp_path / "x.csv"), "--out-json", str(tmp_path / "x.json"),
    )
    assert (code, out) == (2, "")
    assert err.startswith("dpsde: error: NonZeroStart: ") and len(err.splitlines()) == 1
    assert "--" not in err and "scheme 'general'" in err
    assert list(tmp_path.iterdir()) == []


def test_only_the_cli_names_flags_in_an_error():
    # the library is called from Python too, where a flag such as --scheme means nothing
    import ast

    named = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise):
                texts = [c.value for c in ast.walk(node) if isinstance(c, ast.Constant) and isinstance(c.value, str)]
                named += [(path.name, node.lineno, t) for t in texts if re.search(r"--\w", t)]
    assert named == []


# SHA-256 of the CSV, and of the JSON without its generated_at line, for each study below
_PINNED_STUDY = ("--paths", "128", "--grid-steps", "512", "--n-list", "8,16,32", "--p-list", "2,4")
# its n=8 runs tile: m=512 lag rows by 128 columns (64 per span at --workers 2) exceed experiments._TILE
_TILED_STUDY = ("--paths", "128", "--grid-steps", "4096", "--n-list", "8,16,32", "--p-list", "2,4")
_PINS = {  # case: (command, study, digests)
    "converge": ("converge", _PINNED_STUDY, ("0df3338b2bad5fd5a5be5ab877785464ff572410135fba56823982d8c9450eaa",
                                             "46abc781de3b2a60b3f53ad41435a6d0e1812ea67f52ded8142f7ab3b49cf942")),
    "compare": ("compare", _PINNED_STUDY, ("e3a9515bef54481bed47aa90c474dd5133c1cd31eaff8451465ade375045120f",
                                           "a8b986cdc62014059cb75104b7405ef8dd11ecef3e7e09c9a91c0bd30c45c901")),
    "converge-tiled": ("converge", _TILED_STUDY, ("1e99bf2e26eb623e2efc9b839fd33821f27954b1b76b3fd220580ae1e16ba078",
                                                  "037d07ef92128790cbd3e3b9453e613cb499c29e0790461458c5a9b09fa00bcb")),
}


@pytest.mark.skipif((sys.version.split()[0], np.__version__) != ("3.11.7", "2.4.6"),
                    reason="the output pins were taken with Python 3.11.7 and numpy 2.4.6")
@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("case", list(_PINS))
def test_study_outputs_match_their_pins_bit_for_bit(capsys, tmp_path, monkeypatch, case, workers):
    # 128 paths make two spans of 64, so --workers 2 forks
    command, study, pins = _PINS[case]
    forks, real_fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    out_csv, out_json = tmp_path / "x.csv", tmp_path / "x.json"
    code, _, _ = run_cli(capsys, command, *study, "--workers", workers,
                         "--out-csv", str(out_csv), "--out-json", str(out_json))
    assert (code, len(forks)) == (0, int(workers) - 1)
    body, stamps = re.subn(r'\n *"generated_at": "[^"]*",?', "", out_json.read_text())
    assert stamps == 1
    digests = tuple(hashlib.sha256(data).hexdigest() for data in (out_csv.read_bytes(), body.encode()))
    assert digests == pins


def test_converge_non_finite_path_exits_2(capsys, tmp_path, monkeypatch):
    import dpsde.experiments
    from dpsde.models import CoefficientModel

    nan_late = CoefficientModel(
        id="nan-after-half",
        drift=lambda t, x: np.where(t > 0.5, np.nan, 0.0) + 0.0 * x,
        diffusion=lambda t, x: 1.0 + 0.0 * x,
    )
    monkeypatch.setattr(dpsde.experiments, "get_model", lambda model_id: nan_late)
    out_csv = tmp_path / "x.csv"
    code, _, err = run_cli(
        capsys,
        "converge", "--grid-steps", "256", "--n-list", "8,16,32", "--paths", "5",
        "--out-csv", str(out_csv), "--out-json", str(tmp_path / "x.json"),
    )
    assert code == 2
    assert "NonFinitePath" in err and "n=8" in err
    assert not out_csv.exists()


def test_value_error_inside_a_study_propagates_out_of_main(tmp_path, monkeypatch):
    # every deliberate error is a DPSDEError; a bare ValueError is a bug, and
    # it keeps its traceback rather than exiting 2 as bad input.  Path 200
    # (known by its first increment) lies in the second span of two, so the
    # error is raised in the child and again in this process's rerun
    build = dpsde.experiments.scheme_blocks
    first = generate_increments(42, 200, make_grid(256, 1.0))[0]

    def failing(*args):
        stream = build(*args)

        def run(dw):
            if first in dw[0]:
                raise ValueError("bug in a span")
            return stream(dw)

        return run

    monkeypatch.setattr(dpsde.experiments, "scheme_blocks", failing)
    with pytest.raises(ValueError, match="^bug in a span$"):
        main(["converge", "--grid-steps", "256", "--n-list", "8,16,32", "--paths", "300", "--workers", "2",
              "--out-csv", str(tmp_path / "x.csv"), "--out-json", str(tmp_path / "x.json")])
    assert not (tmp_path / "x.csv").exists()


def test_compare_writes_both_schemes(capsys, tmp_path):
    out_csv = tmp_path / "cmp.csv"
    code, out, _ = run_cli(
        capsys,
        "compare", "--grid-steps", "256", "--n-list", "8,16,32", "--p-list", "2",
        "--paths", "20", "--out-csv", str(out_csv), "--out-json", str(tmp_path / "cmp.json"),
    )
    assert code == 0
    schemes = {line.split(",")[0] for line in out_csv.read_text().splitlines()[1:]}
    assert schemes == {"new", "old"}
    assert "scheme=old" in out


def test_output_dir_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("DPSDE_OUTPUT_DIR", str(tmp_path))
    code, _, _ = run_cli(
        capsys,
        "simulate", "--model", "gbm", "--alpha", "0", "--beta", "0",
        "--x0", "1.0", "--n", "8", "--grid-steps", "256", "--scheme", "old",
    )
    assert code == 0
    assert (tmp_path / "simulate.csv").exists()


def test_unknown_model_is_validation_failure(capsys, tmp_path, monkeypatch):
    # a named DPSDEError, printed without KeyError's quotes around the message
    import dpsde.driver
    import dpsde.experiments

    def no_increments(*args):
        raise AssertionError("increments drawn for an unknown model")

    monkeypatch.setattr(dpsde.driver, "generate_increments", no_increments)
    monkeypatch.setattr(dpsde.experiments, "generate_increments", no_increments)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("model = no-such\n")
    for argv in (
        ["simulate", "--model", "no-such", "--alpha", "0", "--beta", "0", "--out", str(tmp_path / "x.csv")],
        ["converge", "--model", "no-such", "--out-csv", str(tmp_path / "x.csv"), "--out-json", str(tmp_path / "x.json")],
        ["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("dpsde: error: UnknownModel: unknown model 'no-such'; known models: ")
        assert len(err.splitlines()) == 1 and out == ""
    assert list(tmp_path.iterdir()) == [cfg]


def test_misaligned_delay_fails_cleanly(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "converge", "--grid-steps", "256", "--n-list", "7", "--p-list", "2",
        "--paths", "5", "--out-csv", str(tmp_path / "x.csv"), "--out-json", str(tmp_path / "x.json"),
    )
    assert code == 2
    assert "DelayNotAligned" in err


def test_unwritable_output_is_runtime_failure(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "simulate", "--alpha", "0", "--beta", "0", "--grid-steps", "256", "--n", "8",
        "--out", str(tmp_path / "missing-dir" / "x.csv"),
    )
    assert code == 1
    assert err.startswith("dpsde: error:")


class _ArrayMemoryError(MemoryError):
    """Stands in for numpy's private MemoryError subclass of a failed allocation."""


def test_memory_error_is_a_runtime_failure(capsys, tmp_path, monkeypatch):
    def out_of_memory(*args):
        raise _ArrayMemoryError("Unable to allocate 8.00 EiB for an array")

    monkeypatch.setattr(dpsde.driver, "generate_increments", out_of_memory)
    code, out, err = run_cli(capsys, "simulate", "--grid-steps", "256", "--out", str(tmp_path / "x.csv"))
    assert (code, out) == (1, "")
    assert err == "dpsde: error: MemoryError: Unable to allocate 8.00 EiB for an array\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["simulate", "converge", "compare"])
def test_grid_steps_beyond_one_paths_increments_exits_2_before_work(capsys, tmp_path, monkeypatch, command):
    # 2**60 float64 increments are 2**63 bytes, past sys.maxsize: numpy cannot even size the array
    def no_increments(*args):
        raise AssertionError("increments drawn for a grid no path fits")

    monkeypatch.setattr(dpsde.driver, "generate_increments", no_increments)
    monkeypatch.setattr(dpsde.experiments, "generate_increments", no_increments)
    outs = ["--out", str(tmp_path / "x")] if command == "simulate" else [
        "--out-csv", str(tmp_path / "x.csv"), "--out-json", str(tmp_path / "x.json")]
    code, out, err = run_cli(capsys, command, "--grid-steps", str(2**60), *outs)
    assert (code, out) == (2, "")
    assert err.startswith("dpsde: error: InvalidGrid: steps must be at most") and len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,where", [
    (["--paths", "64", "--grid-steps", "512", "--p-list", "700"], "n=8, p=700.0"),  # rows of error=0.0
    (["--paths", "256", "--grid-steps", "1024", "--p-list", "300"], "n=64, p=300.0"),  # 6.47e-189 with std_err=0.0
])
def test_moments_outside_the_float_range_exit_2(capsys, tmp_path, argv, where):
    code, out, err = run_cli(capsys, "converge", *argv, "--workers", "1",
                             "--out-csv", str(tmp_path / "x.csv"), "--out-json", str(tmp_path / "x.json"))
    assert (code, out) == (2, "")
    assert err.startswith(f"dpsde: error: MomentOutOfRange: stat**p leaves the float range for scheme 'new', {where}")
    assert len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["converge", "compare"])
@pytest.mark.parametrize("option,value", [
    ("--grid-steps", str(2**58)),  # a 256-path piece's (L+1, 256) reference is 2**69 bytes
    ("--paths", str(10**19)),  # the per-path statistics are 2 * 4 * 8 * 10**19 bytes
])
def test_study_beyond_the_address_space_exits_2_before_work(capsys, tmp_path, monkeypatch, command, option, value):
    def no_work(*args, **kwargs):
        raise AssertionError("study work started for arrays no process can address")

    monkeypatch.setattr(dpsde.experiments, "generate_increments", no_work)
    monkeypatch.setattr(dpsde.experiments, "_per_path_sup", no_work)
    code, out, err = run_cli(capsys, command, option, value, "--workers", "1",
                             "--out-csv", str(tmp_path / "x.csv"), "--out-json", str(tmp_path / "x.json"))
    assert (code, out) == (2, "")
    assert err.startswith("dpsde: error: InvalidStudy: study too large to address") and len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args,error", [
    (("simulate", "--n", str(10**400)), "DelayTooFine: delay 1/"),
    (("converge", "--n-list", f"8,16,{10**400}"), "DelayTooFine: delay 1/"),
    (("simulate", "--horizon", "1e-310"), "DelayNotAligned: delay 1/8 exceeds the horizon 1e-310"),
    (("converge", "--horizon", "1e-310", "--paths", "4"), "DelayNotAligned: delay 1/8 exceeds the horizon 1e-310"),
], ids=["simulate-huge-n", "converge-huge-n", "simulate-tiny-horizon", "converge-tiny-horizon"])
def test_delay_beyond_the_floats_exits_2(capsys, tmp_path, args, error):
    # n * T cannot be a float, or L / (n * T) is inf: lag_map decides in exact arithmetic
    outs = ["--out", str(tmp_path / "x")] if args[0] == "simulate" else [
        "--out-csv", str(tmp_path / "x.csv"), "--out-json", str(tmp_path / "x.json")]
    code, out, err = run_cli(capsys, *args, *outs)
    assert (code, out) == (2, "")
    assert err.startswith(f"dpsde: error: {error}") and len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_config_file_that_is_not_utf8_exits_2(capsys, tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_bytes(b"alpha = 0.5 # \xff\n")
    for command in ("validate", "converge"):
        code, out, err = run_cli(capsys, command, "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith(f"dpsde: error: InvalidOption: config file {cfg} is not UTF-8:")
        assert len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("command,outs", [
    (["converge"], ["--out-csv", "{missing}/x.csv", "--out-json", "{tmp}/x.json"]),
    (["converge"], ["--out-csv", "{tmp}/x.csv", "--out-json", "{missing}/x.json"]),
    (["compare"], ["--out-csv", "{tmp}/x.csv", "--out-json", "{missing}/x.json"]),
    (["compare"], []),
    (["simulate", "--scheme", "reference"], ["--out", "{missing}/x.csv"]),
    (["simulate"], []),
], ids=["converge-csv", "converge-json", "compare-json", "compare-env", "simulate-out", "simulate-env"])
def test_missing_output_directory_exits_1_before_work(capsys, tmp_path, monkeypatch, command, outs):
    def no_increments(*args):
        raise AssertionError("increments drawn for an output that cannot be written")

    monkeypatch.setattr(dpsde.driver, "generate_increments", no_increments)
    monkeypatch.setattr(dpsde.experiments, "generate_increments", no_increments)
    monkeypatch.setenv("DPSDE_OUTPUT_DIR", str(tmp_path / "missing"))
    study = [] if command[0] == "simulate" else ["--n-list", "8,16,32", "--paths", "5"]
    outs = [arg.format(tmp=tmp_path, missing=tmp_path / "missing") for arg in outs]
    code, out, err = run_cli(capsys, *command, "--grid-steps", "256", *study, *outs)
    assert code == 1 and out == ""
    assert err.startswith("dpsde: error: FileNotFoundError: output directory does not exist:")
    assert len(err.splitlines()) == 1 and str(tmp_path / "missing") in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command,outs,taken", [
    (["converge"], ["--out-csv", "{tmp}/x.csv", "--out-json", "{tmp}/taken"], "taken"),
    (["converge"], ["--out-csv", "{tmp}/taken", "--out-json", "{tmp}/x.json"], "taken"),
    (["compare"], ["--out-json", "{tmp}/taken"], "taken"),
    (["converge"], [], "converge.json"),
    (["simulate", "--scheme", "reference"], ["--out", "{tmp}/taken"], "taken"),
    (["simulate"], [], "simulate.csv"),
], ids=["converge-json", "converge-csv", "compare-json", "converge-env", "simulate-out", "simulate-env"])
def test_output_path_naming_a_directory_exits_1_before_work(capsys, tmp_path, monkeypatch, command, outs, taken):
    # the directory may be named by a flag or be the default name under
    # $DPSDE_OUTPUT_DIR; either way nothing is drawn, solved or written
    def no_increments(*args):
        raise AssertionError("increments drawn for an output that cannot be written")

    monkeypatch.setattr(dpsde.driver, "generate_increments", no_increments)
    monkeypatch.setattr(dpsde.experiments, "generate_increments", no_increments)
    monkeypatch.setenv("DPSDE_OUTPUT_DIR", str(tmp_path))
    (tmp_path / taken).mkdir()
    study = [] if command[0] == "simulate" else ["--n-list", "8,16,32", "--paths", "5"]
    outs = [arg.format(tmp=tmp_path) for arg in outs]
    code, out, err = run_cli(capsys, *command, "--grid-steps", "256", *study, *outs)
    assert code == 1 and out == ""
    assert err == f"dpsde: error: IsADirectoryError: output path is a directory: {tmp_path / taken}\n"
    assert list(tmp_path.iterdir()) == [tmp_path / taken]
    assert list((tmp_path / taken).iterdir()) == []


def test_check_subcommand_passes(capsys):
    code, out, _ = run_cli(capsys, "check")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert all(l.startswith("PASS") for l in lines)
    assert len(lines) >= 7


@pytest.mark.parametrize("source", ["flag", "config"])
def test_simulate_unknown_format_exits_2_before_work(capsys, tmp_path, monkeypatch, source):
    import dpsde.driver

    def no_increments(*args):
        raise AssertionError("increments drawn for an invalid format")

    monkeypatch.setattr(dpsde.driver, "generate_increments", no_increments)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("format = xml\n" if source == "config" else "grid_steps = 256\n")
    flag = ["--format", "xml"] if source == "flag" else []
    dest = tmp_path / "o.txt"
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), *flag, "--out", str(dest))
    assert code == 2
    assert err.startswith("dpsde: error: UnknownFormat:") and "'xml'" in err
    assert not dest.exists()


def test_converge_rejects_negative_workers_before_work(capsys, tmp_path, monkeypatch):
    import dpsde.experiments

    def no_increments(*args):
        raise AssertionError("increments drawn for an invalid worker count")

    monkeypatch.setattr(dpsde.experiments, "generate_increments", no_increments)
    code, _, err = run_cli(
        capsys,
        "converge", "--workers", "-2", "--grid-steps", "256", "--n-list", "8,16,32", "--paths", "5",
        "--out-csv", str(tmp_path / "x.csv"), "--out-json", str(tmp_path / "x.json"),
    )
    assert code == 2
    assert "InvalidWorkerCount" in err and "-2" in err
    assert not (tmp_path / "x.csv").exists()


def test_compare_config_rejects_zero_workers(capsys, tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("workers = 0\ngrid_steps = 256\nn_list = 8,16,32\npaths = 5\n")
    code, _, err = run_cli(
        capsys,
        "compare", "--config", str(cfg),
        "--out-csv", str(tmp_path / "x.csv"), "--out-json", str(tmp_path / "x.json"),
    )
    assert code == 2
    assert "InvalidWorkerCount" in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", ["converge", "compare"])
def test_skipped_rate_fits_are_printed(capsys, tmp_path, command):
    # gbm started at 0 stays at 0, so every estimate is 0 and no slope can be fitted
    out_json = tmp_path / "x.json"
    code, out, _ = run_cli(
        capsys,
        command, "--model", "gbm", "--x0", "0", "--grid-steps", "256", "--n-list", "8,16,32",
        "--p-list", "2,4", "--paths", "5", "--out-csv", str(tmp_path / "x.csv"), "--out-json", str(out_json),
    )
    assert code == 0
    skipped = [line for line in out.splitlines() if "slope=skipped" in line]
    prefixes = [""] if command == "converge" else ["scheme=new ", "scheme=old "]
    assert skipped == [
        f"{prefix}p={p} slope=skipped reason=rate fit needs positive finite estimates"
        for prefix in prefixes
        for p in ("2.0", "4.0")
    ]
    body = json.loads(out_json.read_text())
    reports = [body] if command == "converge" else [body["new"], body["old"]]
    for rep in reports:
        assert rep["slopes"] == [] and "skipped_fits" not in rep


@pytest.mark.parametrize("n", ["0", "7"])
def test_simulate_reference_rejects_bad_delay_before_work(capsys, tmp_path, monkeypatch, n):
    import dpsde.driver

    def no_increments(*args):
        raise AssertionError("increments drawn for an invalid delay")

    monkeypatch.setattr(dpsde.driver, "generate_increments", no_increments)
    dest = tmp_path / "ref.csv"
    code, _, err = run_cli(
        capsys,
        "simulate", "--scheme", "reference", "--n", n, "--grid-steps", "256", "--out", str(dest),
    )
    assert code == 2
    assert err.startswith("dpsde: error: DelayNotAligned:")
    assert not dest.exists()


@pytest.mark.parametrize("command,line", [
    ("converge", "path_index = 3"),
    ("converge", "format = xml"),
    ("converge", "n = 0"),
    ("compare", "scheme = old"),
    ("validate", "paths = 5"),
])
def test_config_keys_are_checked_per_subcommand(capsys, tmp_path, command, line):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"grid_steps = 256\n{line}\n" if command != "validate" else f"{line}\n")
    outs = [] if command == "validate" else ["--out-csv", str(tmp_path / "x.csv"), "--out-json", str(tmp_path / "x.json")]
    code, out, err = run_cli(capsys, command, "--config", str(cfg), *outs)
    assert code == 2
    assert f"unknown config key {line.split()[0]!r}" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("command", ["simulate", "converge"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_unknown_scheme_exits_2_before_work(capsys, tmp_path, monkeypatch, command, source):
    import dpsde.driver
    import dpsde.experiments

    def no_increments(*args):
        raise AssertionError("increments drawn for an invalid scheme")

    monkeypatch.setattr(dpsde.driver, "generate_increments", no_increments)
    monkeypatch.setattr(dpsde.experiments, "generate_increments", no_increments)
    scheme = "bogus" if command == "simulate" else "reference"
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"grid_steps = 256\nscheme = {scheme}\n" if source == "config" else "grid_steps = 256\n")
    flag = ["--scheme", scheme] if source == "flag" else []
    outs = ["--out", str(tmp_path / "o.csv")] if command == "simulate" else [
        "--n-list", "8,16,32", "--paths", "5", "--out-csv", str(tmp_path / "o.csv"), "--out-json", str(tmp_path / "o.json")]
    code, _, err = run_cli(capsys, command, "--config", str(cfg), *flag, *outs)
    assert code == 2
    assert err.startswith("dpsde: error: UnknownScheme: scheme must be one of") and repr(scheme) in err
    assert list(tmp_path.iterdir()) == [cfg]


def test_config_value_goes_through_the_flag_parser_before_work(capsys, tmp_path, monkeypatch):
    import dpsde.experiments

    def no_increments(*args):
        raise AssertionError("increments drawn for an unparsable config value")

    monkeypatch.setattr(dpsde.experiments, "generate_increments", no_increments)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("grid_steps = 256\nalpha = abc\n")
    code, _, err = run_cli(
        capsys,
        "converge", "--config", str(cfg), "--n-list", "8,16,32", "--paths", "5",
        "--out-csv", str(tmp_path / "x.csv"), "--out-json", str(tmp_path / "x.json"),
    )
    assert code == 2
    assert err.startswith("dpsde: error: InvalidOption: config key 'alpha'") and "'abc'" in err
    assert len(err.strip().splitlines()) == 1
    assert list(tmp_path.iterdir()) == [cfg]


def test_config_line_without_equals_exits_2_before_work(capsys, tmp_path, monkeypatch):
    import dpsde.experiments

    def no_increments(*args):
        raise AssertionError("increments drawn for a config line without '='")

    monkeypatch.setattr(dpsde.experiments, "generate_increments", no_increments)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("grid_steps = 256\npaths 10\n")
    code, out, err = run_cli(
        capsys,
        "converge", "--config", str(cfg), "--n-list", "8,16,32",
        "--out-csv", str(tmp_path / "x.csv"), "--out-json", str(tmp_path / "x.json"),
    )
    assert code == 2
    assert out == ""
    assert err.strip() == "dpsde: error: InvalidOption: config line is not 'key = value': 'paths 10'"
    assert list(tmp_path.iterdir()) == [cfg]


_SAME_SETTINGS = {
    "simulate": {"model": "bounded-trig", "alpha": "-2.0", "beta": "0.5", "x0": "0.25", "horizon": "0.5",
                 "grid-steps": "256", "n": "16", "seed": "7", "scheme": "general", "path-index": "3"},
    "converge": {"model": "bounded-trig", "alpha": "-2.0", "beta": "0.5", "horizon": "0.5",
                 "grid-steps": "256", "n-list": "8,16,32", "p-list": "2,3", "paths": "20", "seed": "7",
                 "scheme": "old", "workers": "2"},
}


@pytest.mark.parametrize("command,fmt", [("simulate", "csv"), ("simulate", "json"), ("converge", None)])
def test_flags_and_config_file_give_identical_outputs(capsys, tmp_path, command, fmt):
    settings = dict(_SAME_SETTINGS[command], **({"format": fmt} if fmt else {}))
    cfg = tmp_path / "c.cfg"
    # spaces after commas in lists, as people write them
    cfg.write_text("".join(f"{k} = {v.replace(',', ', ')}\n" for k, v in settings.items()))
    flags = [arg for k, v in settings.items() for arg in ("--" + k, v)]
    bodies = []
    for name, args in (("flags", flags), ("config", ["--config", str(cfg)])):
        if command == "simulate":
            outs = ["--out", str(tmp_path / f"{name}.{fmt}")]
        else:
            outs = ["--out-csv", str(tmp_path / f"{name}.csv"), "--out-json", str(tmp_path / f"{name}.json")]
        code, _, _ = run_cli(capsys, command, *args, *outs)
        assert code == 0
        if command == "simulate":
            bodies.append((tmp_path / f"{name}.{fmt}").read_bytes())
        else:
            body = json.loads((tmp_path / f"{name}.json").read_text())
            body["metadata"].pop("generated_at")
            bodies.append(((tmp_path / f"{name}.csv").read_bytes(), body))
    assert bodies[0] == bodies[1]
    if command == "simulate":  # the settings took effect: 257 grid points, not the default 4097
        rows = bodies[0].decode().splitlines()[1:] if fmt == "csv" else json.loads(bodies[0])["k"]
        assert len(rows) == 257
    else:
        assert bodies[0][1]["metadata"]["grid_steps"] == 256
        assert sorted({e["n"] for e in bodies[0][1]["errors"]}) == [8, 16, 32]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("name,value", [("alpha", "abc"), ("n-list", "8,x"), ("n-list", ",")])
def test_bad_option_value_prints_one_error_line(capsys, tmp_path, monkeypatch, source, name, value):
    import dpsde.experiments

    def no_increments(*args):
        raise AssertionError("increments drawn for an unparsable value")

    monkeypatch.setattr(dpsde.experiments, "generate_increments", no_increments)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{name} = {value}\n" if source == "config" else "grid_steps = 256\n")
    flag = ["--" + name, value] if source == "flag" else []
    code, out, err = run_cli(
        capsys,
        "converge", "--config", str(cfg), *flag, "--paths", "5",
        "--out-csv", str(tmp_path / "x.csv"), "--out-json", str(tmp_path / "x.json"),
    )
    where = f"flag --{name}" if source == "flag" else f"config key {name!r}"
    assert code == 2
    assert err.startswith(f"dpsde: error: InvalidOption: {where}") and repr(value.split(",")[-1]) in err
    assert len(err.splitlines()) == 1 and out == ""
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("option,value", [
    ("n-list", "8,8,16"), ("p-list", "2,2"), ("p-list", "nan,inf"), ("p-list", "inf"), ("p-list", "0.5"), ("paths", "0"),
])
def test_invalid_study_exits_2_before_work(capsys, tmp_path, monkeypatch, option, value):
    import dpsde.experiments

    def no_increments(*args):
        raise AssertionError("increments drawn for an invalid study")

    monkeypatch.setattr(dpsde.experiments, "generate_increments", no_increments)
    args = {"grid-steps": "256", "n-list": "8,16,32", "paths": "5", option: value}
    code, _, err = run_cli(
        capsys,
        "converge", *(arg for k, v in args.items() for arg in ("--" + k, v)),
        "--out-csv", str(tmp_path / "x.csv"), "--out-json", str(tmp_path / "x.json"),
    )
    assert code == 2
    assert err.startswith("dpsde: error: InvalidStudy:")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command,option,value", [
    ("simulate", "--path-index", "-1"),
    ("simulate", "--path-index", str(2**64)),
    ("simulate", "--seed", "-1"),
    ("converge", "--seed", "-1"),
    ("converge", "--seed", str(2**64)),
])
def test_seed_or_path_index_outside_64_bits_exits_2(capsys, tmp_path, monkeypatch, command, option, value):
    # -1 used to be masked to 2**64 - 1, so two inputs wrote the same file
    import dpsde.experiments

    def no_increments(*args):
        raise AssertionError("increments drawn for a study with an invalid seed")

    monkeypatch.setattr(dpsde.experiments, "generate_increments", no_increments)
    outs = ["--out", str(tmp_path / "x.csv")] if command == "simulate" else [
        "--n-list", "8,16,32", "--paths", "5", "--out-csv", str(tmp_path / "x.csv"), "--out-json", str(tmp_path / "x.json")]
    code, _, err = run_cli(capsys, command, "--grid-steps", "256", option, value, *outs)
    assert code == 2
    assert err.startswith("dpsde: error: SeedOutOfRange:") and value in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [["converge"], ["compare"], ["simulate", "--scheme", "general"],
                                     ["simulate", "--scheme", "reference"]])
def test_alpha_plus_beta_rounding_to_one_exits_2_before_work(capsys, tmp_path, monkeypatch, command):
    # validate accepts (0.3, 0.7), but 1 - 0.3 - 0.7 is 0.0, so the start
    # level x0/(1-alpha-beta) of the reference and the general scheme is undefined
    import dpsde.driver
    import dpsde.experiments

    def no_increments(*args):
        raise AssertionError("increments drawn for an undefined time-zero level")

    monkeypatch.setattr(dpsde.driver, "generate_increments", no_increments)
    monkeypatch.setattr(dpsde.experiments, "generate_increments", no_increments)
    outs = ["--out", str(tmp_path / "x.csv")] if command[0] == "simulate" else [
        "--n-list", "8,16,32", "--paths", "5", "--out-csv", str(tmp_path / "x.csv"), "--out-json", str(tmp_path / "x.json")]
    code, _, err = run_cli(capsys, *command, "--alpha", "0.3", "--beta", "0.7", "--grid-steps", "256", *outs)
    assert code == 2
    assert err.startswith("dpsde: error: UndefinedTimeZero:")
    assert list(tmp_path.iterdir()) == []


def run_main(argv):
    """main(argv) in-process as (exit code, stdout, stderr), argparse's own exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


_FLOAT_OPTIONS = sorted(name for name, (parse, _, _) in cli._OPTIONS.items() if parse is float)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_FLOAT_OPTIONS), st.floats(), st.sampled_from([repr, "{:e}".format]))
@example("alpha", -1e3, "{:e}".format)
@example("beta", -math.inf, repr)
@example("x0", -0.0, "{:e}".format)
@example("horizon", math.nan, repr)
def test_float_flag_value_reads_the_same_as_its_own_token_or_after_equals(name, value, spell):
    # every float option is one of validate's; argparse's own negative-number pattern knows only -1 and -1.5
    flag, text = "--" + name.replace("_", "-"), spell(value)
    apart = run_main(["validate", flag, text])
    assert apart == run_main(["validate", f"{flag}={text}"])
    assert "usage:" not in apart[2]


def test_negative_exponent_value_and_help():
    assert run_main(["validate", "--alpha", "-1e3", "--beta", "0"]) == (
        0, "rho=-0.0 verdict=accept beyond_mao=True\n", "")
    code, out, err = run_main(["validate", "--help"])
    assert code == 0 and out.startswith("usage: dpsde validate") and err == ""


def test_one_subcommand_parser_prints_the_full_parsers_help():
    # main fills in the options of the subcommand named first only
    def help_text(parser, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
            parser.parse_args(argv)
        return out.getvalue()

    full = cli._build_parser(tuple(cli._COMMANDS))
    assert help_text(cli._build_parser([]), ["--help"]) == help_text(full, ["--help"])
    assert run_main(["--help"]) == (0, help_text(full, ["--help"]), "")
    for command in cli._COMMANDS:
        want = help_text(full, [command, "--help"])
        assert command in want and want.startswith(f"usage: dpsde {command}")
        assert help_text(cli._build_parser([command]), [command, "--help"]) == want, command
        assert run_main([command, "--help"]) == (0, want, ""), command


@pytest.mark.parametrize("alpha,beta,line", [
    ("-inf", "-1", "verdict=reject reason=AlphaOutOfRange: alpha must be finite and < 1, got -inf\n"),
    ("0", "-inf", "verdict=reject reason=BetaOutOfRange: beta must be finite and < 1, got -inf\n"),
    ("0.5", "0.5", "verdict=reject reason=RhoTooLarge: rho=1.0: need |alpha*beta| < (1-alpha)(1-beta)\n"),
], ids=["alpha-inf", "beta-inf", "rho-one"])
def test_validate_reject_shows_rho_only_in_a_rho_reason(alpha, beta, line):
    # rho is shown only inside a RhoTooLarge reason; a non-finite input has none
    assert run_main(["validate", "--alpha", alpha, "--beta", beta]) == (2, line, "")


_WORDS = st.text(alphabet=string.ascii_letters, max_size=8)
_NOT_A_NUMBER = _WORDS.filter(lambda t: t.lower() not in ("", "nan", "inf", "infinity"))
_NON_FINITE = st.sampled_from(["nan", "inf", "-inf"])


def _floats_in(**bounds):
    return st.floats(allow_nan=False, **bounds).map(repr)


def _list_with(bad):
    return bad.map(lambda v: f"8,{v}")


# values that every subcommand taking the option rejects, all other options at their defaults
# (alpha=0.6, beta=-1, x0=0, T=1, L=4096, n=8, n_list 8..64, scheme new)
_BAD_VALUES = {
    "model": _WORDS.filter(lambda t: t not in {m.id for m in builtin_catalog()}),
    "alpha": _floats_in(min_value=0.7) | _NON_FINITE | _NOT_A_NUMBER,  # rho >= 1 at beta=-1 from 2/3 on
    "beta": _floats_in(min_value=0.5) | _NON_FINITE | _NOT_A_NUMBER,  # rho >= 1 at alpha=0.6 from 0.4 on
    "x0": _floats_in().filter(lambda v: float(v) != 0.0) | _NON_FINITE | _NOT_A_NUMBER,  # scheme new needs x0=0
    # a horizon below 1/8 is shorter than the longest default delay 1/8, down to subnormals where L/(n*T) is inf
    "horizon": _floats_in(max_value=0.0) | _floats_in(min_value=0.0, max_value=0.1, exclude_min=True, exclude_max=True)
               | _NON_FINITE | _NOT_A_NUMBER,
    "grid_steps": st.integers(max_value=0).map(str) | st.integers(min_value=2**60).map(str) | _NOT_A_NUMBER,
    "n": st.integers(max_value=0).map(str) | st.integers(min_value=4097).map(str) | st.integers(min_value=2**1024).map(str)
         | st.just("3") | _NOT_A_NUMBER,
    "n_list": st.sampled_from(["", ",", "8,,16,32", "8,16,32,"])
              | _list_with(st.integers(max_value=0) | st.integers(min_value=513) | st.integers(min_value=2**1024))
              | st.lists(st.integers(1, 64), min_size=1).map(lambda ns: ",".join(map(str, ns + ns[:1])))
              | _list_with(_NOT_A_NUMBER),
    "p_list": st.sampled_from(["", "2,,4", "2,4,", "2,2"])
              | _list_with(_floats_in(max_value=0.999) | _NON_FINITE | _NOT_A_NUMBER),
    "paths": st.integers(max_value=1).map(str) | _NOT_A_NUMBER,
    "seed": st.integers(max_value=-1).map(str) | st.integers(min_value=2**64).map(str) | _NOT_A_NUMBER,
    "scheme": _WORDS.filter(lambda t: t not in ("new", "old", "general", "reference")),
    "path_index": st.integers(max_value=-1).map(str) | st.integers(min_value=2**64).map(str) | _NOT_A_NUMBER,
    "workers": st.integers(max_value=0).map(str) | st.integers(min_value=65).map(str) | _NOT_A_NUMBER,
    "format": _WORDS.filter(lambda t: t not in ("csv", "json")),
}
_CHECKED = [(command, name) for command in ("simulate", "converge", "compare") for name in cli._COMMANDS[command][1]]


def _no_increments(master_seed, path_index, grid):
    _philox_key(master_seed, path_index)  # generate_increments checks the key before it draws
    raise AssertionError("increments drawn for a bad option value")


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_CHECKED), st.sampled_from(["flag", "config"]), st.data())
def test_every_bad_option_value_exits_2_with_one_error_line_before_work(checked, source, data):
    # validate is left out: it reports a rejected value as its verdict on stdout
    command, name = checked
    value = data.draw(_BAD_VALUES[name], label=name)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(dpsde.driver, "generate_increments", _no_increments)
        mp.setattr(dpsde.experiments, "generate_increments", _no_increments)
        cfg = Path(tmp) / "c.cfg"
        cfg.write_text(f"{name} = {value}\n" if source == "config" else "")
        flag = ["--" + name.replace("_", "-"), value] if source == "flag" else []
        outs = ["--out", f"{tmp}/o"] if command == "simulate" else ["--out-csv", f"{tmp}/o", "--out-json", f"{tmp}/j"]
        code, out, err = run_main([command, "--config", str(cfg), *flag, *outs])
        assert (code, out) == (2, "")
        assert re.fullmatch(r"dpsde: error: [A-Za-z]+: [^\n]*\n", err), err
        assert sorted(p.name for p in Path(tmp).iterdir()) == ["c.cfg"]
