"""Flat key = value config parsing and validation."""

import pytest

from cauchyls import ConfigError, RunConfig, load_config, parse_config

FULL = """
# full inversion setup
geometry.width = 1.0
geometry.height = 0.5
geometry.nx = 32
geometry.ny = 16
geometry.refine = 2

method = transport
method.alpha = 50
method.beta = 0.002
method.eps_cells = 3
method.eta = 1e-7
method.tau = 2.0
method.max_iters = 123
method.target_error = 0.05
method.dt = 0.25
method.eps_clamp = 0.2
method.cfl_max = 0.8

truth.intervals = 0.2:0.4, 0.6:0.8
init.intervals = 0.45:0.55
data.noise_level = 0.1
data.seed = 99
output.directory = runs/custom
output.snapshots = 0, 10, 100
"""


def test_full_round_trip():
    cfg = parse_config(FULL)
    assert cfg.nx == 32 and cfg.ny == 16 and cfg.refine == 2
    assert cfg.method == "transport"
    assert cfg.alpha == 50.0 and cfg.beta == 0.002 and cfg.eps_cells == 3.0
    assert cfg.tau == 2.0 and cfg.max_iters == 123
    assert cfg.target_error == 0.05
    assert cfg.dt == 0.25 and cfg.eps_clamp == 0.2 and cfg.cfl_max == 0.8
    assert cfg.truth_intervals == ((0.2, 0.4), (0.6, 0.8))
    assert cfg.init_intervals == ((0.45, 0.55),)
    assert cfg.noise_level == 0.1 and cfg.seed == 99
    assert cfg.output_dir == "runs/custom"
    assert cfg.snapshot_iters == (0, 10, 100)


def test_step_and_band_floor_keys():
    cfg = parse_config("method.step = implicit\nmethod.eps_cells = 4\n"
                       "method.eps_min_cells = 0.25\n")
    assert cfg.step == "implicit" and cfg.eps_min_cells == 0.25
    defaults = parse_config("")
    assert defaults.step == "explicit" and defaults.eps_min_cells is None


def test_comments_and_blanks_ignored():
    cfg = parse_config("# just a comment\n\ngeometry.nx = 16  # trailing\n")
    assert cfg.nx == 16


def test_defaults_validate():
    assert RunConfig().validate() is not None
    assert parse_config("").nx == 64


@pytest.mark.parametrize("line, fragment", [
    ("nonsense.key = 1", "unknown key"),
    ("geometry.nx", "key = value"),
    ("geometry.nx = many", "bad value"),
    ("truth.intervals = 0.2-0.4", "a:b"),
    ("output.snapshots = a, b", "integers"),
])
def test_malformed_lines_rejected(line, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(line)


@pytest.mark.parametrize("text", [
    "geometry.nx = 2",
    "geometry.height = 0",
    "method = magic",
    "method.alpha = -1",
    "method.cfl_max = 0.99",
    "method.eps_clamp = 2",
    "data.noise_level = 0.1\nmethod.tau = 1.0",
    "init.intervals = 0.5:0.4",
    "truth.intervals = 0.0:0.5",
    "method.step = magic",
    "method.eps_min_cells = 0",
    "method.eps_cells = 2\nmethod.eps_min_cells = 3",
    "method.step = implicit\ngeometry.nx = 512",
    "method.cfl_max = 1e-300",
    "data.seed = -1",
    "geometry.nx = 1025\ngeometry.refine = 1",
    "geometry.nx = 16\ngeometry.ny = 600",
    "geometry.nx = 1" + "0" * 400,
    "geometry.width = 1e-300\ngeometry.height = 1e300",
])
def test_validation_failures(text):
    with pytest.raises(ConfigError):
        parse_config(text)


def test_target_error_needs_truth():
    with pytest.raises(ConfigError):
        RunConfig(target_error=0.05, truth_intervals=None).validate()
    # an empty truth union is a legal degenerate truth, not a missing one
    assert parse_config("method.target_error = 0.05\ntruth.intervals =\n")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.cfg")


def test_load_config_reads_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("geometry.nx = 8\nmethod.max_iters = 2\n")
    cfg = load_config(p)
    assert cfg.nx == 8 and cfg.max_iters == 2
