"""Run pipeline, CSV writers, built-in experiment configs."""

from dataclasses import replace

import numpy as np
import pytest

from cauchyls import MixedSolver, RunConfig
from cauchyls.experiments import (EXP2_REL_RESIDUAL, exp1_config, exp2_config,
                                  exp3_config, execute, history_csv,
                                  indicator_trace,
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


def test_exp3_shares_exp2_problem():
    base, noisy = exp2_config(0.5), exp3_config()
    assert noisy.truth_intervals == base.truth_intervals
    assert noisy.init_intervals == base.init_intervals
    assert noisy.height == base.height
    assert noisy.noise_level == 0.1 and noisy.tau == 1.5


def test_exp2_rel_residual_constant():
    assert EXP2_REL_RESIDUAL == 1e-3
