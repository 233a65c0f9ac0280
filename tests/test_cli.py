"""Command-line interface: exit codes and written artifacts."""

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    ("solve", "geometry.nx = 16\ngeometry.refine = 1000"),
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
    "method.eps_clamp": st.floats(0.0, 1.5),
    "method.cfl_max": st.floats(0.0, 1.2),
    "truth.intervals": _pairs(st.floats(-0.1, 1.1)),
    "init.intervals": _pairs(st.floats(-0.1, 1.1)),
    "init.constant": st.floats(-2.0, 2.0),
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
