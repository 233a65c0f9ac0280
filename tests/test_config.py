"""Flat key = value config parsing and validation."""

import math
import re
from dataclasses import fields, replace

import pytest

from cauchyls import ConfigError, RunConfig, load_config, parse_config
from cauchyls.config import _KEYS

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
    assert cfg.dt == 0.25
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
    # building a RunConfig checks it, so the defaults pass by getting here
    cfg = RunConfig()
    assert parse_config("") == cfg and cfg.nx == 64


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
    # not keys: transport's step length and sign clamp have no option
    "method.cfl_max = 0.99",
    "method.cfl_max = 1e-300",
    "method.eps_clamp = 2",
    "data.noise_level = 0.1\nmethod.tau = 1.0",
    "init.intervals = 0.5:0.4",
    "truth.intervals = 0.0:0.5",
    "method.step = magic",
    "method.eps_min_cells = 0",
    "method.eps_cells = 2\nmethod.eps_min_cells = 3",
    "data.noise_level = -0.1",
    "data.seed = -1",
    "output.snapshots = 0, -3",
    "geometry.nx = 1025\ngeometry.refine = 1",
    "geometry.nx = 16\ngeometry.ny = 600",
    "geometry.nx = 1" + "0" * 400,
    "geometry.width = 1e-300\ngeometry.height = 1e300",
])
def test_validation_failures(text):
    with pytest.raises(ConfigError):
        parse_config(text)


def test_overlapping_init_intervals_name_the_pair():
    with pytest.raises(ConfigError, match=r"^init\.intervals must be "
                       r"disjoint, got 0\.2:0\.4 and 0\.4:0\.6$"):
        parse_config("init.intervals = 0.4:0.6, 0.2:0.4")


def test_implicit_step_validates_at_any_cosine_path_width():
    # every config is on the cosine path, where the dense maps (and so the
    # implicit step's normal matrix) exist at any width the grid bound allows
    cfg = parse_config("method.step = implicit\ngeometry.nx = 512")
    assert cfg.step == "implicit" and cfg.nx == 512


def test_target_error_needs_truth():
    with pytest.raises(ConfigError):
        RunConfig(target_error=0.05, truth_intervals=None)
    # an empty truth union is a legal degenerate truth, not a missing one
    cfg = parse_config("method.target_error = 0.05\ntruth.intervals =\n")
    assert cfg.truth_intervals == ()


def test_validation_requires_a_truth():
    # the data are synthesized from the truth flux
    with pytest.raises(ConfigError, match="truth.intervals"):
        RunConfig(truth_intervals=None)


@pytest.mark.parametrize("field, value", [
    ("alpha", math.nan), ("beta", math.nan), ("eta", math.nan),
    ("dt", math.nan), ("target_error", math.nan), ("eps_cells", math.inf),
    ("noise_level", math.nan), ("width", math.nan),
])
def test_non_finite_field_set_in_code_rejected(field, value):
    # a config built in code meets the checks a parsed one does
    key = next(k for k, (name, _) in _KEYS.items() if name == field)
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        replace(RunConfig(), **{field: value})


@pytest.mark.parametrize("text, key", [
    ("method.alpha = 0", "method.alpha"),
    ("method.beta = -1", "method.beta"),
    ("method.eps_cells = 0", "method.eps_cells"),
    ("method.eps_min_cells = 3", "method.eps_min_cells"),
    # its bound is method.eps_cells, not the params field eps
    ("method.eps_cells = 4\nmethod.eps_min_cells = 8",
     "method.eps_min_cells"),
    ("method.step = magic", "method.step"),
    ("method.eta = 0", "method.eta"),
    ("method.max_iters = -1", "method.max_iters"),
    ("method.dt = 0", "method.dt"),
    ("method.target_error = -1", "method.target_error"),
    # eta^2 underflows to 0, where curvature_term would divide 0 by 0
    ("method.eta = 1e-300", "method.eta"),
])
def test_method_range_failures_name_the_key(text, key):
    # the ranges are the params objects'; the message opens with the config
    # key and names every other value by its key too, no bare field name
    with pytest.raises(ConfigError, match=f"^{key} ") as err:
        parse_config(text)
    bare = {f.name.removesuffix("_cells") for f in fields(RunConfig)}
    assert not bare & set(re.findall(r"(?<![.\w])\w+(?![.\w])",
                                     str(err.value)))


def test_every_key_sets_its_own_field():
    names = [name for name, _ in _KEYS.values()]
    assert sorted(names) == sorted(f.name for f in fields(RunConfig))


def test_params_take_every_field_from_the_config():
    # every method value off its default, so a field the builders forget
    # would keep the params default
    cfg = replace(RunConfig(), alpha=7.0, beta=0.5, eps_cells=3.0,
                  eps_min_cells=0.5, step="implicit", eta=1e-3, tau=2.5,
                  max_iters=9, target_error=0.25, dt=0.125)
    for params in (cfg.tikhonov_params(), cfg.transport_params()):
        # eps has no default; it is checked below
        for f in fields(params):
            if f.name != "eps":
                assert getattr(params, f.name) != f.default, f.name
    hx = cfg.width / cfg.nx
    assert cfg.tikhonov_params().eps == 3.0 * hx
    assert cfg.tikhonov_params().eps_min == 0.5 * hx


def test_output_directory_may_not_be_empty():
    # Path("") is the current directory, which a run would write into and
    # prune stale snapshots from; "." names it explicitly
    with pytest.raises(ConfigError, match="output.directory"):
        parse_config("output.directory =\n")
    with pytest.raises(ConfigError, match="output.directory"):
        RunConfig(output_dir="")
    assert parse_config("output.directory = .\n").output_dir == "."


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.cfg")


def test_load_config_reads_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("geometry.nx = 8\nmethod.max_iters = 2\n")
    cfg = load_config(p)
    assert cfg.nx == 8 and cfg.max_iters == 2
