"""Command-line front end: solve, sweep, certify, oracle-check.

Configuration is one flat YAML document (units: Hz, s, W, bits, dB); any
unknown key is rejected.  Exit codes: 0 success, 1 malformed config,
2 solver/check failure, 3 infeasible instance.
"""
from __future__ import annotations

import argparse
import functools
import operator
import sys
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import yaml

from . import certify, sim, solver
from .model import SolveStatus, SystemParams, comm_rate, radar_mi

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ERROR = 2
EXIT_INFEASIBLE = 3

DEFAULTS: dict = {
    # scenario constants
    "n_subcarriers": 128,
    "n_antennas": 5,
    "delta_f": 2.5e5,
    "symbol_duration": 5e-6,
    "total_time": 1e-4,
    "power_cap": 50.0,
    "efficiency": 0.5,
    "mi_floor": 0.0,
    "rate_floor": 0.0,
    # channel draw
    "radar_snr_db": 10.0,
    "comm_snr_db": 10.0,
    "seed": 0,
    "normalization": "empirical",
    # sweep
    "sweep_variable": "mi_floor",
    "sweep_values": [50.0, 100.0, 150.0],
    "trials": 10,
    "master_seed": 0,
    "schemes": ["op", "eq"],
    "out": "sweep.csv",
    # oracle cross-check
    "oracle_tau2_steps": 200,
    "oracle_gamma_steps": 200,
    # default: certify.OracleGrid.gamma_edge derives it per instance
    "oracle_gamma_max": None,
    "oracle_rel_tol": 0.02,
}


class ConfigError(ValueError):
    pass


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            # libyaml's parser where PyYAML was built with it: same documents, faster
            raw = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping of flat keys")
    unknown = sorted(set(raw) - set(DEFAULTS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    cfg = dict(DEFAULTS)
    cfg.update(raw)
    return cfg


@contextmanager
def _invalid(what: str):
    """Report a conversion or constructor error on config values as a
    ``ConfigError``; the commands build every typed value in one of these
    before they solve anything."""
    try:
        yield
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc


def _integer(cfg: dict, key: str) -> int:
    """``cfg[key]``, which must be an integer: a float, a bool or a string is
    a ``ConfigError`` naming the key, not a value rounded or parsed."""
    value = cfg[key]
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ConfigError(f"{key} must be an integer, not {value!r}")


def build_params(cfg: dict) -> SystemParams:
    names = [f.name for f in fields(SystemParams)]
    with _invalid("system parameters"):
        return SystemParams(**{n: cfg[n] for n in names})


def _channel(cfg: dict, params: SystemParams):
    with _invalid("channel"):
        return sim.sample_channel(
            _integer(cfg, "seed"),
            params,
            float(cfg["radar_snr_db"]),
            float(cfg["comm_snr_db"]),
            cfg["normalization"],
        )


def _print_solution(params, chan, sol) -> None:
    print(f"status       : {sol.status.value}")
    print(f"energy       : {sol.energy:.6e} J")
    print(f"tau1 / tau2  : {sol.tau1:.6e} s / {sol.tau2:.6e} s")
    if sol.status is SolveStatus.OPTIMAL:
        mi = radar_mi(sol.gamma, chan.radar_snr, sol.tau2, params.delta_f)
        rate = comm_rate(sol.gamma, chan.comm_snr, sol.tau2, params.delta_f)
        print(f"achieved MI  : {mi:.3f} bits (floor {params.mi_floor:.3f})")
        print(f"achieved DIR : {rate:.3f} bits (floor {params.rate_floor:.3f})")
        print(f"ofdm symbols : {round(sol.tau2 / params.symbol_duration)}")


def _cmd_solve(cfg: dict) -> int:
    params = build_params(cfg)
    chan = _channel(cfg, params)
    sol = solver.solve(params, chan)
    _print_solution(params, chan, sol)
    return EXIT_INFEASIBLE if sol.status is SolveStatus.INFEASIBLE else EXIT_OK


def _cmd_sweep(cfg: dict) -> int:
    params = build_params(cfg)
    with _invalid("sweep"):
        config = sim.SweepConfig(
            base=params,
            radar_snr_db=float(cfg["radar_snr_db"]),
            comm_snr_db=float(cfg["comm_snr_db"]),
            sweep_variable=cfg["sweep_variable"],
            sweep_values=tuple(float(v) for v in cfg["sweep_values"]),
            trials=_integer(cfg, "trials"),
            master_seed=_integer(cfg, "master_seed"),
            schemes=tuple(cfg["schemes"]),
            normalization=cfg["normalization"],
        )
        out = Path(cfg["out"])
        if out.is_dir() or not out.parent.is_dir():
            raise ValueError(f"out {out} is not a file in an existing directory")
    rows = sim.run_sweep(config)
    sim.write_csv(rows, cfg["out"])
    n_ok = sum(r.status == SolveStatus.OPTIMAL.value for r in rows)
    print(f"wrote {len(rows)} rows ({n_ok} optimal) to {cfg['out']}")
    return EXIT_OK


def _cmd_certify(cfg: dict) -> int:
    params = build_params(cfg)
    chan = _channel(cfg, params)
    sol = solver.solve(params, chan)
    _print_solution(params, chan, sol)
    if sol.status is SolveStatus.INFEASIBLE:
        return EXIT_INFEASIBLE
    if sol.status is SolveStatus.ZERO_DEMAND:
        print("certificate  : trivially valid (zero demand)")
        return EXIT_OK
    cert = certify.kkt_certificate(params, chan, sol)
    print(f"mu           : {cert.mu:.6e}")
    print(f"rank(Y)      : {cert.rank_y} (expect {params.n_antennas - 1})")
    print(f"||Y Q||      : {cert.complementary_residual:.3e}")
    print(f"rank-1 ratio : {cert.rank_one_ratio:.3e}")
    print(f"valid        : {cert.valid}")
    return EXIT_OK if cert.valid else EXIT_ERROR


def _cmd_oracle_check(cfg: dict) -> int:
    params = build_params(cfg)
    if params.n_subcarriers > 3:
        raise ConfigError("oracle-check requires n_subcarriers <= 3")
    gamma_max = cfg["oracle_gamma_max"]
    with _invalid("oracle grid"):
        grid = certify.OracleGrid(
            tau2_steps=_integer(cfg, "oracle_tau2_steps"),
            gamma_steps=_integer(cfg, "oracle_gamma_steps"),
            gamma_max=None if gamma_max is None else float(gamma_max),
        )
    with _invalid("oracle_rel_tol"):
        rel_tol = float(cfg["oracle_rel_tol"])
        if not rel_tol >= 0.0:
            raise ValueError(f"{rel_tol} is not a nonnegative tolerance")
    chan = _channel(cfg, params)
    sol = solver.solve(params, chan)
    ref = certify.brute_force_oracle(params, chan, grid)
    print(f"solver: {sol.status.value}, energy {sol.energy:.6e} J")
    print(f"oracle: {ref.status.value}, energy {ref.energy:.6e} J")
    if sol.status != ref.status:
        print("status mismatch")
        return EXIT_ERROR
    if sol.status is not SolveStatus.OPTIMAL:
        return EXIT_OK
    rel = abs(sol.energy - ref.energy) / max(ref.energy, 1e-300)
    print(f"relative gap: {rel:.4%} (tolerance {rel_tol:.2%})")
    return EXIT_OK if rel <= rel_tol else EXIT_ERROR


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it costs ten parses."""
    parser = argparse.ArgumentParser(
        prog="wpirc",
        description="Minimum-energy allocation for a wireless-powered radar-communication link",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "sweep", "certify", "oracle-check"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the YAML config")
        p.add_argument("--seed", type=int, help="override the channel seed")
        if name == "sweep":
            p.add_argument("--out", help="override the output CSV path")
            p.add_argument("--trials", type=int, help="override the trial count")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
            cfg["master_seed"] = args.seed
        for key in ("out", "trials"):  # sweep only
            if getattr(args, key, None) is not None:
                cfg[key] = getattr(args, key)

        if args.command == "solve":
            return _cmd_solve(cfg)
        if args.command == "sweep":
            return _cmd_sweep(cfg)
        if args.command == "certify":
            return _cmd_certify(cfg)
        return _cmd_oracle_check(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except solver.SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
