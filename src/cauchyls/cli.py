"""Command-line front end.

Subcommands:
    solve <config>        run one reconstruction described by a config file
    experiment <name>     run a built-in experiment (exp1, exp2, exp3)
    svd <config>          assemble the forward matrix and report its spectrum

Exit codes: 0 on success, 2 for configuration or validation failures and
unreadable or unwritable paths, 3 when a solve or an iterate breaks down.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import ConfigError, load_config
from .experiments import (EXPERIMENT_NAMES, resolve_output_dir, run_config,
                          run_experiment, write_run_outputs, write_svd_outputs)
from .grid import build_grid
from .operator import (DECAY_FIT_LAST, decay_slope, operator_context,
                       singular_values)
from .pde import SolverError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def cmd_solve(path: str) -> int:
    cfg = load_config(path)
    # an unusable output directory fails here, before the run
    resolve_output_dir(cfg).mkdir(parents=True, exist_ok=True)
    record, setup = run_config(cfg)
    out = write_run_outputs(record, setup)
    print(f"{cfg.method}: stopped at iteration {record.stop_iteration} "
          f"({record.stop_reason}), outputs in {out}")
    return EXIT_OK


def cmd_experiment(name: str) -> int:
    print(run_experiment(name))
    return EXIT_OK


def cmd_svd(path: str) -> int:
    cfg = load_config(path)
    # nx + 1 singular values, and decay_slope fits up to DECAY_FIT_LAST
    if cfg.nx < DECAY_FIT_LAST - 1:
        raise ConfigError(f"svd requires geometry.nx >= {DECAY_FIT_LAST - 1}, "
                          f"got {cfg.nx}")
    grid = build_grid(cfg.width, cfg.height, cfg.nx, cfg.ny)
    sigma = singular_values(operator_context(grid).maps[0])
    slope = decay_slope(sigma)

    out = write_svd_outputs(grid, sigma, slope, resolve_output_dir(cfg))
    print(f"spectrum written to {out}, fitted decay slope {slope:.6g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cauchyls",
        description="Level-set reconstruction of an unknown boundary flux "
                    "from overdetermined Cauchy data on a strip.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run a reconstruction from a config")
    p_solve.add_argument("config", help="path to a key = value config file")

    p_exp = sub.add_parser("experiment", help="run a built-in experiment")
    p_exp.add_argument("name", help="one of " + ", ".join(EXPERIMENT_NAMES))

    p_svd = sub.add_parser("svd", help="spectrum of the assembled forward map")
    p_svd.add_argument("config", help="path to a key = value config file")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a non-finite iterate ends in SolverError; numpy's floating-point
        # warnings on the way there would only add lines to stderr
        with np.errstate(all="ignore"):
            if args.command == "solve":
                return cmd_solve(args.config)
            if args.command == "experiment":
                return cmd_experiment(args.name)
            return cmd_svd(args.config)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
