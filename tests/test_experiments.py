"""Run pipeline, CSV writers, built-in experiment configs."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchyls import (Grid, MixedSolver, RunConfig, build_grid, config,
                      levelset, parse_config)
from cauchyls.experiments import (EXP2_REL_RESIDUAL, exact_problem,
                                  exp1_config, exp2_config, exp3_config,
                                  execute, history_csv, indicator_trace,
                                  node_text, sigma_csv, snapshot_csv,
                                  summary_text,
                                  iterations_to_relative_residual, prepare,
                                  resolve_output_dir, run_config,
                                  transport_benchmark_config,
                                  write_run_outputs, OUTPUT_ROOT_ENV)
from cauchyls.operator import GRID_CACHE_SIZE
from cauchyls.pde import SolverError
from cauchyls.record import RunRecord
from output_hashes import output_digest


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


# residual and error norms: zero, subnormal, normal, inf and nan
_NORMS = st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, np.inf, np.nan]),
                   st.floats(min_value=0.0, allow_nan=False))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_NORMS, _NORMS, st.integers(0, 40),
                          st.integers(1, 6)), min_size=1, max_size=30),
       st.booleans())
def test_history_csv_is_the_row_by_row_table(runs, with_truth):
    """Runs of repeated rows, as transport's reused evaluations give, print
    as every row printed on its own; without a truth the errors are nan."""
    rows = [(r, e, c) for r, e, c, m in runs for _ in range(m)]
    rec = RunRecord(residuals=[r for r, _, _ in rows],
                    errors=[e for _, e, _ in rows] if with_truth else None,
                    components=[c for _, _, c in rows])
    errors = rec.errors if with_truth else [np.nan] * len(rows)
    assert history_csv(rec) == "iter,residual,error,components\n" + "".join(
        "%d,%.17g,%.17g,%d\n" % row
        for row in zip(range(len(rows)), rec.residuals, errors,
                       rec.components))


def test_snapshot_csv_keeps_each_grid_its_own_coordinates():
    """The cached coordinate text of one grid never serves another: grids
    of another width at the same nx, and of another nx, alternate."""
    node_text.cache_clear()
    grids = [build_grid(1.0, 0.5, 16), build_grid(0.7, 0.5, 16),
             build_grid(0.7, 0.5, 24)]
    rng = np.random.default_rng(3)
    for grid in grids + grids[::-1]:
        phi = rng.normal(size=grid.nx + 1)
        q = (phi >= 0).astype(float)
        assert snapshot_csv(grid, phi, q) == "x,phi,q\n" + "".join(
            "%.17g,%.17g,%.17g\n" % row for row in zip(grid.xs, phi, q))


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
    # a RunConfig checks itself when it is built, replace included
    for cfg in (exp1_config(), exp2_config(0.5), exp2_config(1.0),
                exp3_config(), transport_benchmark_config()):
        assert replace(cfg) == cfg


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
    assert f"final_eps = {record.rows['final_eps']:.17g}" in summary


@pytest.mark.parametrize("cfg, in_band", [
    (exp2_config(0.5), True),
    # eps 1e-3 cells: no node ever lies in the band
    (replace(exp2_config(0.5), eps_cells=1e-3), False),
    (replace(transport_benchmark_config(), max_iters=5), None),
], ids=["exp2", "exp2_empty_band_stall", "transport"])
def test_summary_reports_final_band_nodes(tmp_path, cfg, in_band):
    """Tikhonov runs count the nodes with -eps <= phi <= 0 at the stop,
    right after final_eps; transport has no band and writes no row."""
    record, setup = run_config(cfg)
    out = write_run_outputs(record, setup, tmp_path / "run")
    rows = dict(line.split(" = ") for line in
                (out / "summary.txt").read_text().splitlines())
    if in_band is None:
        assert "final_band_nodes" not in rows and "final_eps" not in rows
        return
    phi = record.final_phi.values
    eps = record.rows["final_eps"]
    nodes = int(rows["final_band_nodes"])
    assert nodes == record.rows["final_band_nodes"] \
        == np.count_nonzero((phi >= -eps) & (phi <= 0.0))
    assert (nodes > 0) == in_band
    keys = list(rows)
    assert keys.index("final_band_nodes") == keys.index("final_eps") + 1


def test_summary_reports_final_step_cells(tmp_path):
    """max|dphi| / h of the last step, right after final_band_nodes; nan
    when the run took no step."""
    record, setup = run_config(_tiny(snapshot_iters=(4, 5)))
    out = write_run_outputs(record, setup, tmp_path / "run")
    rows = dict(line.split(" = ") for line in
                (out / "summary.txt").read_text().splitlines())
    keys = list(rows)
    assert keys.index("final_step_cells") == \
        keys.index("final_band_nodes") + 1
    assert float(rows["final_step_cells"]) == record.rows["final_step_cells"]
    last = record.snapshots[5][0] - record.snapshots[4][0]
    assert record.rows["final_step_cells"] == pytest.approx(
        np.abs(last).max() / setup.grid.hx, rel=1e-9)
    record, setup = run_config(_tiny(max_iters=0))
    out = write_run_outputs(record, setup, tmp_path / "none")
    assert "final_step_cells = nan\n" in (out / "summary.txt").read_text()


# summary.txt's rows before and after those of the flow's record.rows
SUMMARY_INPUTS = ["method", "nx", "ny", "width", "height", "refine",
                  "noise_level", "seed", "delta", "eps"]
SUMMARY_OUTCOME = ["stop_reason", "stop_iteration", "final_residual",
                   "final_error", "final_components", "residual_evaluations",
                   "wall_time_s", "iters_per_s"]


@pytest.mark.parametrize("cfg, flow_rows", [
    (_tiny(), ["final_eps", "final_band_nodes", "final_step_cells"]),
    (_tiny(method="transport"), []),
], ids=["tikhonov", "transport"])
def test_summary_keys_in_order(tmp_path, cfg, flow_rows):
    record, setup = run_config(cfg)
    out = write_run_outputs(record, setup, tmp_path / "run")
    keys = [line.split(" = ")[0] for line in
            (out / "summary.txt").read_text().splitlines()]
    assert keys == SUMMARY_INPUTS + flow_rows + SUMMARY_OUTCOME
    assert list(record.rows) == flow_rows


def test_summary_prints_flow_rows_as_given():
    """A flow's rows print between eps and stop_reason in insertion order,
    floats as %.17g and other values as they are."""
    setup = prepare(_tiny())
    record = RunRecord(residuals=[0.25], components=[1],
                       rows={"a": 0.1, "b": 3})
    lines = summary_text(record, setup).splitlines()
    at = lines.index(f"eps = {setup.eps:.17g}")
    assert lines[at + 1:at + 4] == ["a = 0.10000000000000001", "b = 3",
                                    "stop_reason = max_iters"]
    # no errors were recorded
    assert "final_error = nan" in lines


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
    # the stall stops: the implicit step with band narrowing, whose band
    # ends empty at its floor; a band that holds no node from the start, so
    # no step moves phi; transport started at the truth on data made on its
    # own grid, where the velocity is rounding noise
    (replace(exp1_config(), height=1.0), ("empty_band", 1711),
     0.007843717667839941, 0.7126096406869612),
    (replace(exp2_config(0.5), eps_cells=1e-3), ("empty_band", 1),
     0.2900405101814721, 0.5303300858899106),
    (replace(transport_benchmark_config(), refine=1, target_error=None,
             init_intervals=((0.3, 0.7),)), ("stagnation", 10),
     4.163336342344337e-17, 0.0),
], ids=["exp1", "exp2_h0.5", "exp2_h1", "exp3", "transport",
        "transport_nx256", "exp1_h1_stall", "exp2_empty_band_stall",
        "transport_at_truth_stall"])
def test_builtin_run_outcomes(cfg, stop, residual, error):
    """Each built-in run keeps its stop reason and iteration, and its final
    residual and error to 1e-10 relative (an error of 0 exactly)."""
    record = execute(prepare(cfg))
    assert (record.stop_reason, record.stop_iteration) == stop
    assert abs(record.residuals[-1] - residual) <= 1e-10 * residual
    assert abs(record.errors[-1] - error) <= 1e-10 * error


def test_output_digest_skips_timing_rows_and_sees_history(tmp_path):
    """tests/output_hashes.py's digest: two runs of one config hash the
    same though their timing rows differ, and one history value moved by
    one ulp changes the digest."""
    digests, summaries = [], []
    for k in range(2):
        setup = prepare(exp3_config())
        record = execute(setup)
        record.wall_time += k
        out = write_run_outputs(record, setup, tmp_path / str(k))
        digests.append(output_digest(out))
        summaries.append((out / "summary.txt").read_text())
    assert summaries[0] != summaries[1]
    assert digests[0] == digests[1]
    record.residuals[3] = np.nextafter(record.residuals[3], np.inf)
    out = write_run_outputs(record, setup, tmp_path / "moved")
    assert output_digest(out) != digests[0]


# -- the per-process cache of the noise-free problem --------------------------

def _untimed_outputs(out) -> dict[str, str]:
    """Every output file's text; summary.txt without its timing rows."""
    return {p.name: "".join(
        line for line in p.read_text().splitlines(keepends=True)
        if not line.startswith(("wall_time_s", "iters_per_s")))
        for p in sorted(out.iterdir())}


@pytest.mark.parametrize("cfg", [
    exp2_config(0.5), exp3_config(), replace(exp3_config(), seed=7),
    transport_benchmark_config()],
    ids=["exp2", "exp3", "exp3_seed7", "transport"])
def test_warm_prepare_writes_what_a_cold_one_does(tmp_path, cfg):
    outputs = []
    for name in ("cold", "warm"):
        if name == "cold":
            exact_problem.cache_clear()
        hits = exact_problem.cache_info().hits
        record, setup = run_config(cfg)
        assert exact_problem.cache_info().hits == hits + (name == "warm")
        outputs.append(_untimed_outputs(
            write_run_outputs(record, setup, tmp_path / name)))
    assert "history.csv" in outputs[0] and "snapshot_0.csv" in outputs[0]
    assert outputs[0] == outputs[1]


def test_noise_seeds_share_the_read_only_exact_problem():
    a, b = prepare(exp3_config()), prepare(replace(exp3_config(), seed=7))
    for t in (a.data.g1, a.data.z, a.phi0, a.truth):
        assert not t.values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            t.values[0] = 1.0
    assert a.data.g1 is b.data.g1 and a.data.z is b.data.z
    assert a.phi0 is b.phi0 and a.truth is b.truth
    # only the flux datum carries each seed's noise
    assert not np.array_equal(a.data.g2.values, b.data.g2.values)
    exact = prepare(exp2_config(0.5)).data
    assert exact.g1 is a.data.g1 and not exact.g2.values.flags.writeable


def test_exact_problem_cache_is_bounded_and_keeps_no_failure():
    exact_problem.cache_clear()
    for k in range(GRID_CACHE_SIZE + 2):
        prepare(_tiny(eps_cells=1.0 + k))
    info = exact_problem.cache_info()
    assert info.maxsize == info.currsize == GRID_CACHE_SIZE
    # the synthesis grid's x-stencil overflows (see operator_context)
    narrow = Grid(1e-200, 5e-201, 16, 8)
    for _ in range(2):
        with np.errstate(over="ignore"), pytest.raises(SolverError):
            exact_problem(narrow, 2, ((3e-201, 7e-201),),
                          ((4.5e-201, 5.5e-201),), 4 * narrow.hx)
    assert exact_problem.cache_info().currsize == GRID_CACHE_SIZE


def test_list_valued_intervals_prepare():
    """A RunConfig built in code may get lists, which do not hash; it
    stores their float pairs, on which the cache keys."""
    listed = prepare(_tiny(truth_intervals=[[0.3, 0.7]],
                           init_intervals=[[0.4, 0.6]]))
    tupled = prepare(_tiny())
    assert listed.phi0 is tupled.phi0 and listed.truth is tupled.truth
    assert listed.data is tupled.data


def test_code_built_config_equals_the_parsed_one():
    """Lists set in code are stored as the parser's tuples, init sorted:
    the two configs are equal, hash alike and share one exact_problem
    entry."""
    parsed = parse_config("truth.intervals = 0.6:0.8, 0.2:0.4\n"
                          "init.intervals = 0.7:0.75, 0.25:0.35\n"
                          "output.snapshots = 0, 5\n")
    built = RunConfig(truth_intervals=[[0.6, 0.8], [0.2, 0.4]],
                      init_intervals=[(0.7, 0.75), [0.25, 0.35]],
                      snapshot_iters=[0, np.int64(5)])
    assert built == parsed and hash(built) == hash(parsed)
    assert built.truth_intervals == ((0.6, 0.8), (0.2, 0.4))
    assert built.init_intervals == ((0.25, 0.35), (0.7, 0.75))
    assert type(built.snapshot_iters[1]) is int
    exact_problem.cache_clear()
    a, b = prepare(parsed), prepare(built)
    info = exact_problem.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert a.phi0 is b.phi0 and a.data is b.data


def test_prepare_makes_no_validation_pass(monkeypatch):
    """A RunConfig checked itself when it was built, so prepare neither
    checks it again nor converts its intervals."""
    cfg = exp3_config()
    # warm the cache: a cold exact_problem builds phi0, whose
    # init_levelset takes any intervals and checks them itself
    prepare(cfg)
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for owner, name in ((RunConfig, "__post_init__"),
                        (RunConfig, "tikhonov_params"),
                        (RunConfig, "transport_params"),
                        (config, "disjoint_intervals"),
                        (levelset, "disjoint_intervals")):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    setup = prepare(cfg)
    assert calls == []
    assert setup.cfg is cfg
