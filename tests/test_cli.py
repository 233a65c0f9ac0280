"""Command-line interface: exit codes and written artifacts."""

import io
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cauchyls
from cauchyls import MixedSolver, OperatorContext, build_grid
from cauchyls.cli import main
from cauchyls.config import MAX_FINE_CELLS
from cauchyls.experiments import OUTPUT_ROOT_ENV


@pytest.fixture()
def out_root(monkeypatch, tmp_path):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    return tmp_path


def _write_cfg(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return str(p)


def test_solve_writes_outputs(out_root, tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "geometry.nx = 16\nmethod.max_iters = 3\n"
                               "output.directory = runs/t\n")
    assert main(["solve", cfg]) == 0
    assert (out_root / "runs" / "t" / "history.csv").is_file()
    assert (out_root / "runs" / "t" / "summary.txt").is_file()
    assert "stopped at iteration 3" in capsys.readouterr().out


def test_solve_rejects_bad_config(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "geometry.nx = 2\n")
    assert main(["solve", cfg]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["geometry.height = nan",
                                  "method.alpha = inf",
                                  "truth.intervals = 0.2:-inf"])
def test_solve_rejects_non_finite_numbers(tmp_path, capsys, line):
    cfg = _write_cfg(tmp_path, f"geometry.nx = 16\n{line}\n")
    assert main(["solve", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command, text", [
    ("solve", "init.intervals = 0.2:0.5, 0.4:0.6"),
    ("solve", "init.intervals = 0.2:0.4, 0.4:0.6"),
    ("solve", "geometry.height = 0.03"),
    ("svd", "geometry.nx = 8"),
    ("solve", "geometry.nx = 16\ngeometry.refine = 1000"),
    # Path("") would be the current directory
    ("solve", "output.directory ="),
    ("svd", "output.directory ="),
])
def test_inputs_that_would_crash_later_exit_2(tmp_path, capsys, command,
                                              text):
    cfg = _write_cfg(tmp_path, f"method.max_iters = 1\n{text}\n")
    assert main([command, cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("line, fragment", [
    # not keys: transport's step length and sign clamp have no option
    ("method.cfl_max = 0.9", "unknown key 'method.cfl_max'"),
    ("method.eps_clamp = 0.1", "unknown key 'method.eps_clamp'"),
    # not a key: every run starts from the signed distance of init.intervals
    ("init.constant = -0.1", "unknown key 'init.constant'"),
    # eta^2 underflows to 0
    ("method.eta = 1e-300", "error: method.eta "),
])
def test_removed_key_and_underflowing_eta_exit_2(out_root, tmp_path, capsys,
                                                  line, fragment):
    cfg = _write_cfg(tmp_path, f"geometry.nx = 16\nmethod.max_iters = 1\n"
                               f"{line}\n")
    assert main(["solve", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err \
        and err.count("\n") == 1


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    p = tmp_path / "run.cfg"
    p.write_bytes(b"geometry.nx = 16\n\xff\n")
    assert main(["solve", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["solve", "svd"])
def test_degenerate_strip_exits_3(out_root, tmp_path, capsys, command):
    # hy = 2.5e-301: the closed-form symbols take their thin-strip limit,
    # every mode passes unchanged (forward -1, adjoint -1, offset 0)
    thin = "geometry.height = 1e-300\ngeometry.ny = 4\nmethod.max_iters = 1\n"
    assert main([command, _write_cfg(tmp_path, thin)]) == 0
    forward, adjoint, offset = OperatorContext(
        build_grid(1.0, 1e-300, 64, 4)).symbols
    assert np.abs(forward + 1.0).max() <= 1e-12
    assert np.abs(adjoint + 1.0).max() <= 1e-12
    assert np.abs(offset).max() <= 1e-12
    capsys.readouterr()
    # hx = 6.25e-202: 1/hx^2 overflows in the x-stencil eigenvalues
    narrow = ("geometry.width = 1e-200\ngeometry.height = 5e-201\n"
              "geometry.nx = 16\ngeometry.ny = 8\n"
              "truth.intervals = 3e-201:7e-201\n"
              "init.intervals = 4.5e-201:5.5e-201\nmethod.max_iters = 1\n")
    assert main([command, _write_cfg(tmp_path, narrow)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["solve", "svd"])
def test_strip_near_the_float_maximum_runs(out_root, tmp_path, capsys,
                                           command):
    # nx * height overflows, height / width does not: ny is the isotropic
    # 16 rows, and the outputs, timing rows aside, are those of ny = 16 given
    big = ("geometry.width = 1e308\ngeometry.height = 1e308\n"
           "geometry.nx = 16\nmethod.max_iters = 20\n")
    outputs = []
    for name, ny in (("unset", ""), ("given", "geometry.ny = 16\n")):
        cfg = _write_cfg(tmp_path, f"{big}{ny}output.directory = {name}\n")
        assert main([command, cfg]) == 0
        outputs.append({p.name: [line for line in p.read_text().splitlines()
                                 if not line.startswith(("wall_time_s",
                                                         "iters_per_s"))]
                        for p in (out_root / name).iterdir()})
    assert outputs[0] == outputs[1]
    summary = "summary.txt" if command == "solve" else "svd_summary.txt"
    assert "ny = 16" in outputs[0][summary]
    if command == "solve":
        assert {"stop_reason = stagnation", "stop_iteration = 10"} \
            <= set(outputs[0][summary])


def test_non_finite_iterate_exits_3(out_root, tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "geometry.nx = 16\nmethod.alpha = 1e-310\n"
                               "method.max_iters = 3\n")
    assert main(["solve", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure: iteration 1") \
        and err.count("\n") == 1


@pytest.mark.parametrize("method", ["tikhonov", "transport"])
def test_overflowing_residual_norm_exits_3(out_root, tmp_path, capsys,
                                           method):
    # noise of size 1e155 squares past the largest double in the residual
    # norm, where the discrepancy stop could never fire; at 1e154 it still
    # fires on the initial iterate
    base = (f"geometry.nx = 16\nmethod = {method}\nmethod.max_iters = 3\n"
            f"output.directory = runs/n\n")
    cfg = _write_cfg(tmp_path, f"{base}data.noise_level = 1e154\n")
    assert main(["solve", cfg]) == 0
    assert "stopped at iteration 0 (discrepancy)" in capsys.readouterr().out
    cfg = _write_cfg(tmp_path, f"{base}data.noise_level = 1e155\n")
    assert main(["solve", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure: iteration 0: the residual norm") \
        and err.count("\n") == 1


def test_implicit_step_runs_at_nx_512(out_root, tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "geometry.nx = 512\nmethod.step = implicit\n"
                               "method.max_iters = 2\noutput.directory = runs/i\n")
    assert main(["solve", cfg]) == 0
    assert "stopped at iteration 2" in capsys.readouterr().out
    history = (out_root / "runs" / "i" / "history.csv").read_text()
    assert len(history.splitlines()) == 4


def test_unwritable_output_directory_exits_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "geometry.nx = 16\nmethod.max_iters = 1\n"
                               f"output.directory = {tmp_path}/run.cfg/out\n")
    assert main(["solve", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_solve_missing_config_file(capsys):
    assert main(["solve", "/nonexistent/file.cfg"]) == 2


def test_svd_writes_spectrum(out_root, tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "geometry.nx = 16\noutput.directory = runs/s\n")
    assert main(["svd", cfg]) == 0
    sigma_lines = (out_root / "runs" / "s" / "sigma.csv").read_text().splitlines()
    assert sigma_lines[0] == "k,sigma"
    vals = [float(line.split(",")[1]) for line in sigma_lines[1:]]
    assert len(vals) == 17
    assert np.all(np.diff(vals) <= 0)
    summary = (out_root / "runs" / "s" / "svd_summary.txt").read_text()
    assert "decay_slope" in summary and "reference_slope" in summary


def test_svd_size_guard(tmp_path, capsys):
    # the config's grid bound is the only width limit svd has
    cfg = _write_cfg(tmp_path, f"geometry.nx = {MAX_FINE_CELLS + 1}\n"
                               "geometry.refine = 1\n")
    assert main(["svd", cfg]) == 2
    assert "synthesis grid" in capsys.readouterr().err


@pytest.mark.parametrize("height", [0.5, 1.0])
def test_svd_factorizes_nothing(monkeypatch, out_root, tmp_path, height):
    # every config is on the cosine path, so the spectrum comes from the
    # per-mode symbols
    def refuse(*args, **kwargs):
        raise AssertionError("MixedSolver built for the svd subcommand")

    monkeypatch.setattr(MixedSolver, "__init__", refuse)
    cfg = _write_cfg(tmp_path, f"geometry.nx = 64\ngeometry.height = {height}"
                               "\noutput.directory = runs/s\n")
    assert main(["svd", cfg]) == 0
    sigma_lines = (out_root / "runs" / "s" / "sigma.csv").read_text().splitlines()
    assert len(sigma_lines) == 66


def _dir_bytes(path):
    """File name -> bytes, summary.txt without its timing rows."""
    files = {}
    for f in sorted(path.iterdir()):
        data = f.read_bytes()
        if f.name == "summary.txt":
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if not line.startswith((b"wall_time_s", b"iters_per_s")))
        files[f.name] = data
    return files


def test_solve_rerun_removes_stale_snapshots(out_root, tmp_path):
    run = out_root / "runs" / "r"
    base = "geometry.nx = 16\nmethod.max_iters = 3\noutput.directory = runs/r\n"
    assert main(["solve", _write_cfg(tmp_path, base + "output.snapshots = 0, 3\n")]) == 0
    # files that only look like snapshots stay
    others = ("snapshot_3.csv.bak", "snapshot_x.csv", "notes.txt")
    for name in others:
        (run / name).write_text("keep\n")
    assert main(["solve", _write_cfg(tmp_path, base + "output.snapshots = 0\n")]) == 0
    assert sorted(p.name for p in run.iterdir()) == sorted(
        ("history.csv", "snapshot_0.csv", "summary.txt") + others)
    assert all((run / name).read_text() == "keep\n" for name in others)


def test_solve_rerun_into_populated_directory_matches_fresh(out_root, tmp_path):
    # the shorter run has fewer history rows and other snapshot iterations
    longer = ("geometry.nx = 32\nmethod.max_iters = 12\n"
              "output.snapshots = 0, 5, 12\noutput.directory = runs/{}\n")
    shorter = ("geometry.nx = 16\nmethod.max_iters = 4\n"
               "output.snapshots = 0, 2\noutput.directory = runs/{}\n")
    assert main(["solve", _write_cfg(tmp_path, longer.format("rerun"))]) == 0
    before = _dir_bytes(out_root / "runs" / "rerun")
    assert main(["solve", _write_cfg(tmp_path, shorter.format("rerun"))]) == 0
    assert main(["solve", _write_cfg(tmp_path, shorter.format("fresh"))]) == 0
    rerun = _dir_bytes(out_root / "runs" / "rerun")
    fresh = _dir_bytes(out_root / "runs" / "fresh")
    assert rerun == fresh
    # every file was overwritten by shorter bytes: a missing truncate shows
    assert all(len(before[name]) > len(data) for name, data in fresh.items()
               if name in before)


def test_svd_rerun_into_populated_directory_matches_fresh(out_root, tmp_path):
    text = "geometry.nx = {}\ngeometry.height = {}\noutput.directory = runs/{}\n"
    assert main(["svd", _write_cfg(tmp_path, text.format(64, 1.0, "rerun"))]) == 0
    before = _dir_bytes(out_root / "runs" / "rerun")
    assert main(["svd", _write_cfg(tmp_path, text.format(16, 0.5, "rerun"))]) == 0
    assert main(["svd", _write_cfg(tmp_path, text.format(16, 0.5, "fresh"))]) == 0
    rerun = _dir_bytes(out_root / "runs" / "rerun")
    assert sorted(rerun) == ["sigma.csv", "svd_summary.txt"]
    assert rerun == _dir_bytes(out_root / "runs" / "fresh")
    assert len(before["sigma.csv"]) > len(rerun["sigma.csv"])


# imports the CLI and runs each config named on the command line, printing
# the scipy modules loaded after the import and after each run
_SCIPY_PROBE = """
import sys
from cauchyls.cli import main

def report():
    print('scipy:', sorted(m for m in sys.modules
                           if m.split('.')[0] == 'scipy'))

report()
for cfg in sys.argv[1:]:
    assert main(['solve', cfg]) == 0
    report()
"""


def test_cli_loads_no_scipy(tmp_path):
    configs = []
    for method in ("tikhonov", "transport"):
        cfg = tmp_path / f"{method}.cfg"
        cfg.write_text(f"geometry.nx = 16\nmethod = {method}\n"
                       f"method.max_iters = 3\noutput.directory = {method}\n")
        configs.append(str(cfg))
    src = Path(cauchyls.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src),
               **{OUTPUT_ROOT_ENV: str(tmp_path)})
    out = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, *configs],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    reports = [line for line in out.stdout.splitlines()
               if line.startswith("scipy:")]
    assert reports == ["scipy: []"] * 3, out.stdout
    for method in ("tikhonov", "transport"):
        assert (tmp_path / method / "history.csv").is_file()


def test_unknown_experiment_name(capsys):
    assert main(["experiment", "exp9"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_experiment_exp1_end_to_end(out_root, capsys):
    # exact data: the seed splits into the two inclusions, then the band
    # narrows until the target error fires
    assert main(["experiment", "exp1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("exp1: stop target_error@326") \
        and "split at iter 26" in out
    assert (out_root / "runs" / "exp1" / "history.csv").is_file()


def test_experiment_exp3_end_to_end(out_root, capsys):
    # the noisy run stops by discrepancy after a handful of iterations
    assert main(["experiment", "exp3"]) == 0
    assert capsys.readouterr().out.startswith("exp3: stop discrepancy@")
    run_dir = out_root / "runs" / "exp3"
    assert (run_dir / "history.csv").is_file()
    summary = (run_dir / "summary.txt").read_text()
    assert "stop_reason = discrepancy" in summary


def _pairs(draw_float):
    """Interval lists with a <= b."""
    pair = st.tuples(draw_float, draw_float).map(sorted)
    return st.lists(pair, max_size=3).map(
        lambda ps: ", ".join(f"{a!r}:{b!r}" for a, b in ps))


# per key: values around and across its valid range
_VALUES = {
    "geometry.width": st.floats(0.5, 2.0),
    "geometry.height": st.floats(0.02, 2.0),
    "geometry.ny": st.integers(-1, 16),
    "geometry.refine": st.integers(0, 3),
    "method": st.sampled_from(["tikhonov", "transport", "newton"]),
    "method.alpha": st.floats(1e-8, 1e3),
    "method.beta": st.floats(-0.1, 1.0),
    "method.eps_cells": st.floats(0.05, 8.0),
    "method.eps_min_cells": st.floats(0.01, 8.0),
    "method.step": st.sampled_from(["explicit", "implicit", "newton"]),
    "method.eta": st.floats(1e-12, 1.0),
    "method.tau": st.floats(0.5, 3.0),
    "method.target_error": st.floats(-0.1, 1.0),
    "method.dt": st.floats(1e-4, 10.0),
    "truth.intervals": _pairs(st.floats(-0.1, 1.1)),
    "init.intervals": _pairs(st.floats(-0.1, 1.1)),
    "data.noise_level": st.floats(-0.1, 0.5),
    "data.seed": st.integers(0, 2 ** 32),
    "output.snapshots": st.lists(st.integers(-2, 8), max_size=3).map(
        lambda ks: ", ".join(map(str, ks))),
}
_JUNK = st.sampled_from(["", "nan", "-inf", "x", "1:2", "1e400", "0"])


@st.composite
def _config_text(draw):
    """A small run: nx <= 24 and max_iters <= 5, one value in ten junk."""
    keys = draw(st.lists(st.sampled_from(sorted(_VALUES)), max_size=8,
                         unique=True))
    nx = draw(st.one_of(st.integers(8, 24), st.integers(-1, 7)))
    lines = [f"geometry.nx = {nx}"]
    for k in keys:
        junk = draw(st.integers(0, 9)) == 0
        lines.append(f"{k} = {draw(_JUNK if junk else _VALUES[k].map(str))}")
    lines.append(f"method.max_iters = {draw(st.integers(0, 5))}")
    return "\n".join(lines)


@settings(max_examples=150, deadline=None)
@given(_config_text(), st.booleans())
def test_solve_on_random_configs_exits_0_2_or_3(text, under_a_file):
    # never a traceback: the exception would fail this test
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        out = cfg if under_a_file else Path(tmp)
        cfg.write_text(f"{text}\noutput.directory = {out}/out\n")
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["solve", str(cfg)])
    assert code in (0, 2, 3)
    if code:
        assert err.getvalue().count("\n") == 1
