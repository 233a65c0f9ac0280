"""Command-line interface: exit codes and written artifacts."""

import numpy as np
import pytest

from cauchyls.cli import main
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
])
def test_inputs_that_would_crash_later_exit_2(tmp_path, capsys, command,
                                              text):
    cfg = _write_cfg(tmp_path, f"method.max_iters = 1\n{text}\n")
    assert main([command, cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_non_finite_iterate_exits_3(out_root, tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "geometry.nx = 16\nmethod.alpha = 1e-310\n"
                               "method.max_iters = 3\n")
    assert main(["solve", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure: iteration 1") \
        and err.count("\n") == 1


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
    cfg = _write_cfg(tmp_path, "geometry.nx = 512\n")
    assert main(["svd", cfg]) == 2


def test_unknown_experiment_name(capsys):
    assert main(["experiment", "exp9"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_experiment_exp3_end_to_end(out_root, capsys):
    # the noisy run stops by discrepancy after a handful of iterations
    assert main(["experiment", "exp3"]) == 0
    assert capsys.readouterr().out.startswith("exp3: stop discrepancy@")
    run_dir = out_root / "runs" / "exp3"
    assert (run_dir / "history.csv").is_file()
    summary = (run_dir / "summary.txt").read_text()
    assert "stop_reason = discrepancy" in summary
