"""Run pipeline, CSV writers, built-in experiment configs."""

from dataclasses import replace

import numpy as np
import pytest

from cauchyls import MixedSolver, RunConfig
from cauchyls.experiments import (EXP2_REL_RESIDUAL, exp1_config, exp2_config,
                                  exp3_config, execute, history_csv,
                                  indicator_trace, sigma_csv, snapshot_csv,
                                  iterations_to_relative_residual, prepare,
                                  resolve_output_dir, run_config,
                                  transport_benchmark_config,
                                  write_run_outputs, OUTPUT_ROOT_ENV)
from cauchyls.record import RunRecord


def _tiny(**kw) -> RunConfig:
    base = dict(nx=16, refine=2, max_iters=5, alpha=100.0, eps_cells=4.0,
                truth_intervals=((0.3, 0.7),), init_intervals=((0.4, 0.6),),
                output_dir="runs/tiny")
    base.update(kw)
    return RunConfig(**base)


def test_prepare_synthesizes_on_finer_grid():
    setup = prepare(_tiny())
    assert setup.grid.nx == 16
    assert setup.eps == pytest.approx(4.0 * setup.grid.hx)
    # truth indicator sampled on the inversion grid
    x = setup.grid.xs
    inside = (x >= 0.3) & (x <= 0.7)
    assert np.array_equal(setup.truth.values, inside.astype(float))
    # the synthesized pair does not close on the coarse grid (finer forward)
    from cauchyls import apply_forward
    res = apply_forward(setup.ctx, setup.truth).values - setup.data.rhs.values
    assert np.abs(res).max() > 1e-8


@pytest.mark.parametrize("cfg", [
    exp1_config(), exp2_config(0.5), exp2_config(1.0), exp3_config(),
    transport_benchmark_config()], ids=["exp1", "exp2_h0.5", "exp2_h1",
                                        "exp3", "transport"])
def test_builtin_runs_factorize_nothing(monkeypatch, cfg):
    def refuse(*args, **kwargs):
        raise AssertionError("MixedSolver built on a constant-coefficient run")

    monkeypatch.setattr(MixedSolver, "__init__", refuse)
    record = execute(prepare(replace(cfg, max_iters=min(cfg.max_iters, 40))))
    assert record.stop_iteration <= 40


def test_indicator_trace_values():
    setup = prepare(_tiny())
    t = indicator_trace(setup.grid, ((0.25, 0.5),))
    x = setup.grid.xs
    assert np.array_equal(t.values, ((x >= 0.25) & (x <= 0.5)).astype(float))


def test_run_config_history_lengths():
    record, setup = run_config(_tiny())
    assert len(record.residuals) == 6  # initial state plus 5 iterations
    assert record.stop_reason == "max_iters"
    assert len(record.components) == 6


def test_iterations_to_relative_residual_scans_first_crossing():
    record, setup = run_config(_tiny(max_iters=3))
    rec = RunRecord()
    from cauchyls import l2_norm_trace
    threshold = l2_norm_trace(setup.data.rhs)
    rec.residuals = [2 * threshold, 0.5 * threshold, 0.1 * threshold]
    assert iterations_to_relative_residual(rec, setup.data, 1.0) == 1
    rec.residuals = [2 * threshold] * 3
    assert iterations_to_relative_residual(rec, setup.data, 1.0) is None


def test_write_run_outputs_files_and_headers(tmp_path):
    record, setup = run_config(_tiny(snapshot_iters=(0, 2)))
    out = write_run_outputs(record, setup, tmp_path / "o")
    history = (out / "history.csv").read_text()
    assert history.splitlines()[0] == "iter,residual,error,components"
    assert len(history.splitlines()) == 7
    assert (out / "snapshot_0.csv").is_file()
    assert (out / "snapshot_2.csv").is_file()
    summary = (out / "summary.txt").read_text()
    assert "stop_reason = max_iters" in summary


def test_floats_round_trip_through_csv(tmp_path):
    record, setup = run_config(_tiny())
    out = write_run_outputs(record, setup, tmp_path / "o")
    lines = (out / "history.csv").read_text().splitlines()[1:]
    parsed = [float(line.split(",")[1]) for line in lines]
    # 17 significant digits reproduce the binary doubles exactly
    assert parsed == record.residuals


_SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e-310, 0.1, -1 / 3,
            1.7976931348623157e308]


def _reference_row(*values) -> str:
    return ",".join(v if isinstance(v, str) else f"{v:.17g}"
                    for v in values) + "\n"


@pytest.mark.parametrize("with_errors", [True, False])
def test_csv_rows_print_each_value_as_17_digit_float(with_errors):
    n = len(_SPECIAL)
    rec = RunRecord(residuals=[np.float64(v) for v in _SPECIAL],
                    errors=_SPECIAL[::-1] if with_errors else None,
                    components=list(range(n)))
    errors = _SPECIAL[::-1] if with_errors else ["nan"] * n
    assert history_csv(rec) == "iter,residual,error,components\n" + "".join(
        _reference_row(str(k), _SPECIAL[k], errors[k], str(k))
        for k in range(n))

    vals = np.array(_SPECIAL)
    grid = prepare(_tiny()).grid
    phi, q = np.resize(vals, grid.xs.size), np.resize(vals[::-1], grid.xs.size)
    assert snapshot_csv(grid, phi, q) == "x,phi,q\n" + "".join(
        _reference_row(x, p, qq) for x, p, qq in zip(grid.xs, phi, q))
    assert sigma_csv(vals) == "k,sigma\n" + "".join(
        _reference_row(str(k), s) for k, s in enumerate(vals, start=1))


def test_output_root_env_anchors_relative_dirs(monkeypatch, tmp_path):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    cfg = _tiny(output_dir="runs/somewhere")
    assert resolve_output_dir(cfg) == tmp_path / "runs" / "somewhere"
    monkeypatch.delenv(OUTPUT_ROOT_ENV)
    assert not resolve_output_dir(cfg).is_absolute()


def test_noisy_run_is_deterministic():
    cfg = _tiny(noise_level=0.1, seed=123, max_iters=4)
    rec_a, _ = run_config(cfg)
    rec_b, _ = run_config(cfg)
    assert history_csv(rec_a) == history_csv(rec_b)


def test_builtin_configs_validate():
    assert exp1_config().validate()
    assert exp2_config(0.5).validate()
    assert exp2_config(1.0).validate()
    assert exp3_config().validate()
    assert transport_benchmark_config().validate()


def test_exp1_problem_and_band_rule():
    cfg = exp1_config()
    assert cfg.truth_intervals == ((0.2, 0.4), (0.6, 0.8))
    assert cfg.init_intervals == ((0.25, 0.35),)
    assert (cfg.height, cfg.nx, cfg.refine, cfg.noise_level) == (0.5, 64, 2, 0)
    # the band starts at 4 cells and may narrow below half a cell
    assert cfg.eps_cells == 4.0 and cfg.eps_min_cells < 0.5
    assert cfg.step == "implicit" and cfg.target_error == 0.03


def test_summary_reports_final_band(tmp_path):
    record, setup = run_config(_tiny(eps_min_cells=1.0))
    out = write_run_outputs(record, setup, tmp_path / "run")
    summary = (out / "summary.txt").read_text()
    assert f"final_eps = {record.final_eps:.17g}" in summary


def test_summary_reports_iteration_rate(tmp_path):
    record, setup = run_config(_tiny())
    out = write_run_outputs(record, setup, tmp_path / "run")
    rows = dict(line.split(" = ") for line in
                (out / "summary.txt").read_text().splitlines())
    assert float(rows["iters_per_s"]) == pytest.approx(
        record.stop_iteration / record.wall_time, abs=0.06)
    # written next to the wall time
    keys = list(rows)
    assert keys.index("iters_per_s") == keys.index("wall_time_s") + 1


@pytest.mark.parametrize("cfg, evaluations", [
    (_tiny(), 6),
    # the transport indicator changes at 3 of the first 40 iterates
    (replace(transport_benchmark_config(), max_iters=40, target_error=None),
     4),
], ids=["tikhonov", "transport"])
def test_summary_reports_residual_evaluations(tmp_path, cfg, evaluations):
    texts = []
    for name in ("run", "rerun"):
        record, setup = run_config(cfg)
        out = write_run_outputs(record, setup, tmp_path / name)
        texts.append((out / "summary.txt").read_text())
    rows = dict(line.split(" = ") for line in texts[0].splitlines())
    assert int(rows["residual_evaluations"]) == evaluations
    # the row before the timing rows, which it leaves next to each other
    keys = list(rows)
    assert keys.index("wall_time_s") == \
        keys.index("residual_evaluations") + 1
    # the count is deterministic
    untimed = [[line for line in text.splitlines()
                if not line.startswith(("wall_time_s", "iters_per_s"))]
               for text in texts]
    assert untimed[0] == untimed[1]


def test_exp3_shares_exp2_problem():
    base, noisy = exp2_config(0.5), exp3_config()
    assert noisy.truth_intervals == base.truth_intervals
    assert noisy.init_intervals == base.init_intervals
    assert noisy.height == base.height
    assert noisy.noise_level == 0.1 and noisy.tau == 1.5


def test_exp2_rel_residual_constant():
    assert EXP2_REL_RESIDUAL == 1e-3


@pytest.mark.parametrize("cfg, stop, residual, error", [
    (exp1_config(), ("target_error", 326), 0.0011023050792472284, 0.0),
    (exp2_config(0.5), ("max_iters", 3000), 0.0002941678981296502,
     0.09956641869596733),
    (exp2_config(1.0), ("max_iters", 3000), 9.736433816674628e-06,
     0.09955861796380074),
    (exp3_config(), ("discrepancy", 6), 0.05321139670059613,
     0.1292148452709492),
    (transport_benchmark_config(), ("target_error", 62),
     0.007820973143143275, 0.0),
    (replace(transport_benchmark_config(), nx=256), ("target_error", 227),
     0.001954373722174954, 0.0),
], ids=["exp1", "exp2_h0.5", "exp2_h1", "exp3", "transport",
        "transport_nx256"])
def test_builtin_run_outcomes(cfg, stop, residual, error):
    """Each built-in run keeps its stop reason and iteration, and its final
    residual and error to 1e-10 relative (an error of 0 exactly)."""
    record = execute(prepare(cfg))
    assert (record.stop_reason, record.stop_iteration) == stop
    assert abs(record.residuals[-1] - residual) <= 1e-10 * residual
    assert abs(record.errors[-1] - error) <= 1e-10 * error
