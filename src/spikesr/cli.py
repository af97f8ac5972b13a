"""Command-line front end.

Subcommands: recover (Matrix Pencil on a samples file), experiment
(amplification or phase-transition sweeps to CSV/JSONL), worstcase (worst-case
cluster perturbation report), decimation (admissible blowup factors and
conditioning bounds), version.

Every option can come from a config file (flat key=value lines or a JSON
object); explicit flags win over the config file, which wins over defaults.
The experiment seed defaults to 0 and the resolved configuration is embedded
in every output, so runs are reproducible byte for byte apart from one
timestamp line.  The other subcommands draw no random numbers and record a
null seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .decimation import admissible_lambdas, gautschi_bounds
from .errors import DegenerateFitError, InsufficientDataError, SpikesrError
from .experiments import (
    DEFAULT_AMPLIFICATION_RANGES,
    DEFAULT_PHASE_RANGES,
    amplification_sweep,
    fit_loglog_slope,
    phase_transition_sweep,
    write_records_csv,
    write_records_jsonl,
)
from .matrix_pencil import mp_recover
from .signal import ClusterGeometry, SpectralSamples, SpikeTrain
from .worstcase import worst_case_signal

EXIT_PARSE = 2
EXIT_ESTIMATOR = 3
EXIT_DEGENERATE_FIT = 4


@dataclasses.dataclass
class RunConfig:
    """Resolved parameters of one CLI run, embedded in every output."""

    subcommand: str
    params: dict
    seed: int | None
    output: str | None
    fmt: str

    def to_json_dict(self) -> dict:
        return {
            "subcommand": self.subcommand,
            "params": self.params,
            "seed": self.seed,
            "output": self.output,
            "format": self.fmt,
        }


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}", EXIT_PARSE) from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CliError(f"bad JSON config: {exc}", EXIT_PARSE) from exc
        if not isinstance(obj, dict):
            raise CliError("JSON config must be an object", EXIT_PARSE)
        return {str(k): v for k, v in obj.items()}
    config = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"bad config line (expected key=value): {line!r}", EXIT_PARSE)
        key, value = line.split("=", 1)
        config[key.strip()] = value.strip()
    return config


def _resolve(args, config: dict, key: str, default=None, cast=None):
    """Flag > config file > default."""
    value = getattr(args, key, None)
    if value is None:
        value = config.get(key, default)
    if value is None or cast is None:
        return value
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad value for {key}: {value!r}", EXIT_PARSE) from exc


def _parse_range(value) -> tuple:
    parts = value if isinstance(value, (list, tuple)) else str(value).split(",")
    try:
        lo, hi = parts
        return (float(lo), float(hi))
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad range {value!r}: expected lo,hi", EXIT_PARSE) from exc


def _read_json_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot parse input file {path}: {exc}", EXIT_PARSE) from exc


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_json_report(run_config: RunConfig, body: dict) -> None:
    payload = {"timestamp": _timestamp(), "config": run_config.to_json_dict()}
    payload.update(body)
    text = json.dumps(payload, indent=2, sort_keys=False) + "\n"
    if run_config.output:
        with open(run_config.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_recover(args, config: dict) -> int:
    path = _resolve(args, config, "input")
    if not path:
        raise CliError("recover needs --input", EXIT_PARSE)
    d = _resolve(args, config, "order", cast=int)
    if d is None:
        raise CliError("recover needs --order", EXIT_PARSE)
    pencil = _resolve(args, config, "pencil", cast=int)

    obj = _read_json_file(path)
    try:
        samples = SpectralSamples.from_json_dict(
            {
                "values": obj["values"],
                "noise_bound": obj.get("noise_bound", 0.0),
                "actual_noise": obj.get("actual_noise", 0.0),
            }
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"bad samples file: {exc}", EXIT_PARSE) from exc

    try:
        result = mp_recover(samples, d, pencil)
    except (SpikesrError, np.linalg.LinAlgError) as exc:
        raise CliError(f"recovery failed: {exc}", EXIT_ESTIMATOR) from exc
    except ValueError as exc:
        raise CliError(f"bad recovery input: {exc}", EXIT_PARSE) from exc

    run_config = RunConfig(
        subcommand="recover",
        params={"input": path, "order": d, "pencil": result.pencil_param},
        seed=None,
        output=_resolve(args, config, "output"),
        fmt="json",
    )
    _write_json_report(run_config, result.to_json_dict())
    return 0


def _print_amplification_fits(records) -> None:
    for quantity, node_class, label in (
        ("kx", "cluster", "cluster node slope"),
        ("ka", "cluster", "cluster amplitude slope"),
        ("kx", "noncluster", "non-cluster node slope"),
        ("ka", "noncluster", "non-cluster amplitude slope"),
    ):
        try:
            fit = fit_loglog_slope(records, quantity, node_class)
            print(
                f"{label}: {fit.slope:+.3f} (intercept {fit.intercept:+.3f}, "
                f"r^2 {fit.r_squared:.3f}, residual std {fit.residual_std:.3f}, "
                f"n {fit.count})"
            )
        except InsufficientDataError as exc:
            print(f"{label}: {exc}")


def cmd_experiment(args, config: dict) -> int:
    kind = _resolve(args, config, "kind")
    if kind not in ("amplification", "phase"):
        raise CliError("experiment needs --kind amplification|phase", EXIT_PARSE)
    p = _resolve(args, config, "p", cast=int)
    d = _resolve(args, config, "d", cast=int)
    if p is None or d is None:
        raise CliError("experiment needs -p and -d", EXIT_PARSE)
    defaults = (
        DEFAULT_AMPLIFICATION_RANGES if kind == "amplification" else DEFAULT_PHASE_RANGES
    )
    h_range = _parse_range(_resolve(args, config, "h_range", defaults["h_range"]))
    n_range = _parse_range(_resolve(args, config, "n_range", defaults["n_range"]))
    eps_range = _parse_range(_resolve(args, config, "eps_range", defaults["eps_range"]))
    trials = _resolve(args, config, "trials", 500, int)
    scheme = _resolve(args, config, "scheme", "S1")
    seed = _resolve(args, config, "seed", 0, int)
    node_index = _resolve(args, config, "node_index", cast=int)
    if node_index is not None and kind == "amplification":
        raise CliError("node_index applies only to --kind phase", EXIT_PARSE)
    fmt = _resolve(args, config, "format", "csv")
    if fmt not in ("csv", "jsonl"):
        raise CliError(f"bad value for format: {fmt!r} (expected csv or jsonl)", EXIT_PARSE)
    output = _resolve(args, config, "output")

    boundary = None
    try:
        if kind == "amplification":
            records = amplification_sweep(
                p, d, h_range, n_range, eps_range, trials, scheme, seed
            )
        else:
            records, boundary = phase_transition_sweep(
                p, d, h_range, n_range, eps_range, trials, scheme, seed, node_index
            )
    except DegenerateFitError as exc:
        raise CliError(str(exc), EXIT_DEGENERATE_FIT) from exc
    except ValueError as exc:
        raise CliError(f"bad experiment input: {exc}", EXIT_PARSE) from exc

    run_config = RunConfig(
        subcommand="experiment",
        params={
            "kind": kind,
            "p": p,
            "d": d,
            "h_range": list(h_range),
            "n_range": list(n_range),
            "eps_range": list(eps_range),
            "trials": trials,
            "scheme": scheme,
            "node_index": node_index,
        },
        seed=seed,
        output=output,
        fmt=fmt,
    )
    meta = dict(run_config.to_json_dict())
    meta["timestamp"] = _timestamp()
    if output:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            if fmt == "jsonl":
                write_records_jsonl(records, fh, meta)
            else:
                write_records_csv(records, fh, meta)

    if kind == "amplification":
        _print_amplification_fits(records)
    else:
        print(
            f"boundary slope: {boundary.slope:+.3f} (intercept {boundary.intercept:+.3f}, "
            f"successes {boundary.n_success}, failures {boundary.n_failure})"
        )
    return 0


def _geometry_from_args(args, config: dict, train: SpikeTrain) -> ClusterGeometry:
    p = _resolve(args, config, "p", cast=int)
    if p is None:
        raise CliError("need -p (cluster size)", EXIT_PARSE)
    kappa = _resolve(args, config, "kappa", 1, int)
    lo = kappa - 1
    if not (p >= 2 and 0 <= lo and lo + p <= train.d):
        raise CliError(
            "cluster indices fall outside the signal (need p >= 2)", EXIT_PARSE
        )
    cluster = train.nodes[lo : lo + p]
    extent = _resolve(args, config, "extent", cast=float)
    if extent is None:
        extent = float(cluster[-1] - cluster[0])
    span = float(train.nodes[-1] - train.nodes[0]) if train.d > 1 else extent
    T = max(span, extent)
    gaps = np.diff(cluster)
    tau = float(gaps.min() / extent) if extent > 0 else 1.0
    try:
        return ClusterGeometry(
            p=p,
            d=train.d,
            h=extent,
            T=T,
            tau=min(1.0, tau),
            eta=min(1.0, extent / T) if T > 0 else 1.0,
            kappa=kappa,
        )
    except ValueError as exc:
        raise CliError(f"bad cluster geometry: {exc}", EXIT_PARSE) from exc


def cmd_worstcase(args, config: dict) -> int:
    path = _resolve(args, config, "input")
    if not path:
        raise CliError("worstcase needs --input", EXIT_PARSE)
    epsilon = _resolve(args, config, "epsilon", cast=float)
    if epsilon is None:
        raise CliError("worstcase needs --epsilon", EXIT_PARSE)
    obj = _read_json_file(path)
    try:
        train = SpikeTrain.from_json_dict(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"bad spike-train file: {exc}", EXIT_PARSE) from exc
    geometry = _geometry_from_args(args, config, train)
    omega = _resolve(args, config, "omega", cast=float)
    grid_points = _resolve(args, config, "grid_points", 1001, int)

    try:
        report = worst_case_signal(train, geometry, epsilon, omega, grid_points)
    except SpikesrError as exc:
        raise CliError(str(exc), EXIT_ESTIMATOR) from exc
    except ValueError as exc:
        raise CliError(f"bad worst-case input: {exc}", EXIT_PARSE) from exc

    run_config = RunConfig(
        subcommand="worstcase",
        params={
            "input": path,
            "p": geometry.p,
            "kappa": geometry.kappa,
            "extent": geometry.h,
            "epsilon": epsilon,
            "omega": omega,
            "grid_points": grid_points,
        },
        seed=None,
        output=_resolve(args, config, "output"),
        fmt="json",
    )
    _write_json_report(run_config, report.to_json_dict())
    return 0


def cmd_decimation(args, config: dict) -> int:
    path = _resolve(args, config, "input")
    if not path:
        raise CliError("decimation needs --input", EXIT_PARSE)
    omega = _resolve(args, config, "omega", cast=float)
    if omega is None:
        raise CliError("decimation needs --omega", EXIT_PARSE)
    obj = _read_json_file(path)
    try:
        train = SpikeTrain.from_json_dict(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"bad spike-train file: {exc}", EXIT_PARSE) from exc
    geometry = _geometry_from_args(args, config, train)
    alpha = _resolve(args, config, "alpha", cast=float)

    try:
        admissible = admissible_lambdas(train.nodes, geometry, omega, alpha)
    except SpikesrError as exc:
        raise CliError(str(exc), EXIT_ESTIMATOR) from exc
    except ValueError as exc:
        raise CliError(f"bad decimation input: {exc}", EXIT_PARSE) from exc

    # Conditioning report at the midpoint of the widest admissible interval.
    widest = max(admissible.intervals, key=lambda ab: ab[1] - ab[0])
    sample_rate = 0.5 * (widest[0] + widest[1])
    mapped = np.exp(2j * np.pi * sample_rate * train.nodes)
    try:
        bounds = gautschi_bounds(mapped)
    except SpikesrError as exc:
        raise CliError(str(exc), EXIT_ESTIMATOR) from exc

    run_config = RunConfig(
        subcommand="decimation",
        params={
            "input": path,
            "p": geometry.p,
            "kappa": geometry.kappa,
            "extent": geometry.h,
            "omega": omega,
            "alpha": alpha,
        },
        seed=None,
        output=_resolve(args, config, "output"),
        fmt="json",
    )
    _write_json_report(
        run_config,
        {
            "admissible": admissible.to_json_dict(),
            "sample_rate": sample_rate,
            "bounds": bounds.to_json_dict(),
        },
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikesr",
        description="Super-resolution of clustered spike trains",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp):
        sp.add_argument("--config", help="config file (key=value lines or JSON object)")
        sp.add_argument("--output", "-o", help="output file path")

    sp = sub.add_parser("recover", help="Matrix Pencil recovery from a samples file")
    common(sp)
    sp.add_argument("--input", "-i", help="SpectralSamples JSON file")
    sp.add_argument("--order", "-d", type=int, help="model order d")
    sp.add_argument("--pencil", "-L", type=int, help="pencil parameter (default ceil(N/2))")

    sp = sub.add_parser("experiment", help="amplification or phase-transition sweep")
    common(sp)
    sp.add_argument("--seed", type=int, help="base random seed (default 0)")
    sp.add_argument("--kind", choices=["amplification", "phase"])
    sp.add_argument("-p", type=int, help="cluster size")
    sp.add_argument("-d", type=int, help="total node count")
    sp.add_argument("--trials", type=int, help="number of trials (default 500)")
    sp.add_argument("--scheme", choices=["S1", "S2"], help="perturbation scheme (default S1)")
    sp.add_argument("--h-range", dest="h_range", help="lo,hi cluster extents")
    sp.add_argument("--n-range", dest="n_range", help="lo,hi sample counts")
    sp.add_argument("--eps-range", dest="eps_range", help="lo,hi noise levels")
    sp.add_argument("--node-index", dest="node_index", type=int,
                    help="track a single node's success (1-based, phase only)")
    sp.add_argument("--format", choices=["csv", "jsonl"], help="output format (default csv)")

    sp = sub.add_parser("worstcase", help="worst-case cluster perturbation report")
    common(sp)
    sp.add_argument("--input", "-i", help="SpikeTrain JSON file")
    sp.add_argument("-p", type=int, help="cluster size")
    sp.add_argument("--kappa", type=int, help="1-based index of the first cluster node")
    sp.add_argument("--extent", type=float, help="cluster extent (default: measured)")
    sp.add_argument("--epsilon", type=float, help="perturbation level")
    sp.add_argument("--omega", type=float, help="bandwidth for the deviation check")
    sp.add_argument("--grid-points", dest="grid_points", type=int)

    sp = sub.add_parser("decimation", help="admissible blowup factors and bounds")
    common(sp)
    sp.add_argument("--input", "-i", help="SpikeTrain JSON file")
    sp.add_argument("-p", type=int, help="cluster size")
    sp.add_argument("--kappa", type=int, help="1-based index of the first cluster node")
    sp.add_argument("--extent", type=float, help="cluster extent (default: measured)")
    sp.add_argument("--omega", type=float, help="bandwidth")
    sp.add_argument("--alpha", type=float, help="angular threshold (default 1/d^2)")

    sub.add_parser("version", help="print the package version")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "version":
        print(f"spikesr {__version__}")
        return 0
    try:
        config = _load_config_file(args.config) if args.config else {}
        handler = {
            "recover": cmd_recover,
            "experiment": cmd_experiment,
            "worstcase": cmd_worstcase,
            "decimation": cmd_decimation,
        }[args.subcommand]
        return handler(args, config)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
