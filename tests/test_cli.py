import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dpsde import cli
from dpsde.cli import main


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


def test_converge_byte_identical_across_worker_counts(capsys, tmp_path):
    args = [
        "converge", "--grid-steps", "256", "--n-list", "8,16,32", "--p-list", "2",
        "--paths", "40",
    ]
    code, _, _ = run_cli(capsys, *args, "--workers", "1",
                         "--out-csv", str(tmp_path / "a.csv"), "--out-json", str(tmp_path / "a.json"))
    assert code == 0
    code, _, _ = run_cli(capsys, *args, "--workers", "4",
                         "--out-csv", str(tmp_path / "b.csv"), "--out-json", str(tmp_path / "b.json"))
    assert code == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    a = json.loads((tmp_path / "a.json").read_text())
    b = json.loads((tmp_path / "b.json").read_text())
    a["metadata"].pop("generated_at")
    b["metadata"].pop("generated_at")
    assert a == b


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
    import dpsde.cli

    def no_increments(*args):
        raise AssertionError("increments drawn for an invalid path")

    monkeypatch.setattr(dpsde.cli, "generate_increments", no_increments)
    code, _, err = run_cli(
        capsys,
        "simulate", "--scheme", "new", "--x0", "0.5", "--grid-steps", "256", "--n", "8",
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2
    assert "NonZeroStart" in err and "--scheme general" in err
    assert not (tmp_path / "x.csv").exists()


def test_converge_non_finite_path_exits_2(capsys, tmp_path, monkeypatch):
    import dpsde.experiments
    from dpsde.models import CoefficientModel, Lipschitz

    nan_late = CoefficientModel(
        id="nan-after-half",
        drift=lambda t, x: np.where(t > 0.5, np.nan, 0.0) + 0.0 * x,
        diffusion=lambda t, x: 1.0 + 0.0 * x,
        regularity=Lipschitz(1.0),
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


def test_unknown_model_is_validation_failure(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "simulate", "--model", "no-such", "--alpha", "0", "--beta", "0",
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2
    assert "no-such" in err


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


def test_check_subcommand_passes(capsys):
    code, out, _ = run_cli(capsys, "check")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert all(l.startswith("PASS") for l in lines)
    assert len(lines) >= 7


@pytest.mark.parametrize("source", ["flag", "config"])
def test_simulate_unknown_format_exits_2_before_work(capsys, tmp_path, monkeypatch, source):
    import dpsde.cli

    def no_increments(*args):
        raise AssertionError("increments drawn for an invalid format")

    monkeypatch.setattr(dpsde.cli, "generate_increments", no_increments)
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
    import dpsde.cli

    def no_increments(*args):
        raise AssertionError("increments drawn for an invalid delay")

    monkeypatch.setattr(dpsde.cli, "generate_increments", no_increments)
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
    import dpsde.cli
    import dpsde.experiments

    def no_increments(*args):
        raise AssertionError("increments drawn for an invalid scheme")

    monkeypatch.setattr(dpsde.cli, "generate_increments", no_increments)
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
    assert err.startswith("dpsde: error: ValueError: config key 'alpha'") and "'abc'" in err
    assert len(err.strip().splitlines()) == 1
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
@pytest.mark.parametrize("name,value", [("alpha", "abc"), ("n-list", "8,x")])
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
    assert err.startswith(f"dpsde: error: ValueError: {where}") and repr(value.split(",")[-1]) in err
    assert len(err.splitlines()) == 1 and out == ""
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("option,value", [
    ("n-list", "8,8,16"), ("n-list", ","), ("p-list", "nan,inf"), ("p-list", "inf"), ("p-list", "0.5"), ("paths", "0"),
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
    import dpsde.cli
    import dpsde.experiments

    def no_increments(*args):
        raise AssertionError("increments drawn for an undefined time-zero level")

    monkeypatch.setattr(dpsde.cli, "generate_increments", no_increments)
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
