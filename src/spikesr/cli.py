"""Command-line front end.

Subcommands: recover (Matrix Pencil on a samples file), experiment
(amplification or phase-transition sweeps to CSV), worstcase (worst-case
cluster perturbation report), decimation (admissible blowup factors and
conditioning bounds), version.

Every option can also come from a config file of flag tokens, one per line,
written as they would be typed after the subcommand (`--kind=phase`, `-p=2`);
blank lines and lines starting with `#` are skipped.  main places the tokens
between the subcommand and the command line's own flags, so argparse alone
reads and checks every value, and explicit flags win over the config file,
which wins over the options' defaults.  The experiment seed defaults to 0
and the resolved configuration is embedded in every output, so runs are
reproducible byte for byte apart from one timestamp line.  The other
subcommands draw no random numbers and record a null seed.

Failures map to exit codes in one place, main: a CliError exits with 2, a
DegenerateFitError with 4, any other package error or a LinAlgError with 3,
and a ValueError or a MemoryError with 2.  A value that argparse rejects,
from a flag or a config file, and a missing required option exit 2 through
argparse itself.

This module is the one place that reads and writes the JSON files (the spike
train and samples inputs, and the recover, worstcase and decimation reports)
and frames the sweep files: it writes their timestamp and config around the
records that the experiments writers emit.  The library types know nothing
of either format.  A complex array is written as [re, im] pairs and a real
one as a list of floats.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .decimation import admissible_lambdas, gautschi_bounds
from .errors import DegenerateFitError, InsufficientDataError, SpikesrError
from .experiments import (
    DEFAULT_AMPLIFICATION_RANGES,
    DEFAULT_PHASE_RANGES,
    SCHEMES,
    amplification_sweep,
    fit_loglog_slope,
    phase_transition_sweep,
    write_records_csv,
)
from .matrix_pencil import mp_recover
from .signal import ClusterGeometry, SpectralSamples, SpikeTrain
from .worstcase import spectral_deviation, worst_case_signal

EXIT_PARSE = 2
EXIT_ESTIMATOR = 3
EXIT_DEGENERATE_FIT = 4


class CliError(Exception):
    """An input or output error that main reports and exits 2 for."""


def _load_config_file(path: str) -> list:
    """The flag tokens of a config file: one per line, blank lines and `#`
    comments skipped.  A line that is not a flag exits 2, naming the line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.strip() for line in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read config file: {exc}") from exc
    tokens = [line for line in lines if line and not line.startswith("#")]
    for token in tokens:
        if not token.startswith("-"):
            raise CliError(f"bad config line (expected a flag token): {token!r}")
    return tokens


def _parse_range(text: str) -> tuple:
    try:
        lo, hi = text.split(",")
        return (float(lo), float(hi))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad range {text!r}: expected lo,hi") from exc


def _complex_array(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


def _spike_train(obj) -> SpikeTrain:
    """Train of a spike-train file; SpikeTrain rejects non-finite values."""
    return SpikeTrain(amplitudes=_complex_array(obj["amplitudes"]), nodes=obj["nodes"])


def _spectral_samples(obj) -> SpectralSamples:
    """Samples of a samples file: its values alone, which SpectralSamples
    rejects unless finite; other keys, such as an older file's actual_noise,
    are ignored."""
    return SpectralSamples(values=_complex_array(obj["values"]), actual_noise=0.0)


def _read_input(path: str, kind: str, parse):
    """parse applied to the JSON value in the file at path; a file that does
    not parse, or that parse rejects, exits 2."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot parse input file {path}: {exc}") from exc
    try:
        return parse(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"bad {kind} file: {exc}") from exc


def _json_default(array: np.ndarray) -> list:
    """json.dumps hook for the ndarrays in a report, the only values it cannot
    encode itself: [re, im] pairs for a complex array, floats for a real one."""
    if np.iscomplexobj(array):
        return np.stack((array.real, array.imag), axis=-1).tolist()
    return array.tolist()


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _run_config(args) -> dict:
    """Resolved configuration of one CLI run, embedded in every output: the
    params hold each declared option in declaration order, except output
    and seed, which sit beside them."""
    params = {action.dest: getattr(args, action.dest) for action in args.options}
    seed, output = (params.pop(key, None) for key in ("seed", "output"))
    return {"subcommand": args.subcommand, "params": params, "seed": seed, "output": output}


def _write_output(path: str, write, mode: str = "w") -> None:
    try:
        with open(path, mode, encoding="utf-8", newline="") as fh:
            write(fh)
    except OSError as exc:
        raise CliError(f"cannot write output file: {exc}") from exc


def _check_writable(path: str) -> None:
    """Fail before any work when the output file cannot be opened for
    writing; a file the check creates is removed again."""
    existed = os.path.exists(path)
    _write_output(path, lambda fh: None, mode="a")
    if not existed:
        os.remove(path)


def _write_json_report(args, body: dict) -> None:
    payload = {"timestamp": _timestamp(), "config": _run_config(args), **body}
    text = json.dumps(payload, indent=2, default=_json_default) + "\n"
    if args.output:
        _write_output(args.output, lambda fh: fh.write(text))
    else:
        sys.stdout.write(text)


def _write_sweep(args, sweep, stream) -> None:
    """A sweep file: the run's timestamp and config in two comment lines,
    then the CSV of the sweep's records."""
    stream.write(f"# timestamp: {_timestamp()}\n")
    stream.write(f"# config: {json.dumps(_run_config(args), sort_keys=True)}\n")
    write_records_csv(sweep, stream)


def cmd_recover(args) -> int:
    samples = _read_input(args.input, "samples", _spectral_samples)
    result = mp_recover(samples, args.order)
    _write_json_report(args, {
        "nodes": result.estimate.nodes,
        "amplitudes": result.estimate.amplitudes,
        "sigma": result.singular_values,
    })
    return 0


def _print_amplification_fits(sweep) -> None:
    for quantity, node_class, label in (
        ("kx", "cluster", "cluster node slope"),
        ("ka", "cluster", "cluster amplitude slope"),
        ("kx", "noncluster", "non-cluster node slope"),
        ("ka", "noncluster", "non-cluster amplitude slope"),
    ):
        try:
            fit = fit_loglog_slope(sweep, quantity, node_class)
            print(
                f"{label}: {fit.slope:+.3f} (intercept {fit.intercept:+.3f}, "
                f"r^2 {fit.r_squared:.3f}, residual std {fit.residual_std:.3f}, "
                f"n {fit.count})"
            )
        except InsufficientDataError as exc:
            print(f"{label}: {exc}")


def _print_failure_counts(sweep, node_index) -> None:
    """One line counting a sweep's failed trials in three kinds:
    construction failures (worst_case_signal raised, so no eps0 was
    measured), estimator failures (mp_recover raised after eps0 was
    measured), and scored trials whose outcome fails: the success of node
    node_index (1-based) when it is given, else of every node."""
    failed = sweep.failure_code != 0
    construction = int(np.count_nonzero(failed & np.isnan(sweep.epsilon0)))
    estimator = int(np.count_nonzero(failed)) - construction
    flags = sweep.successes
    ok = flags.all(axis=1) if node_index is None else flags[:, node_index - 1]
    scored = int(np.count_nonzero(~failed & ~ok))
    print(
        f"failed trials: {construction} construction, {estimator} estimator, "
        f"{scored} scored, of {len(sweep)}"
    )


def cmd_experiment(args) -> int:
    if args.node_index is not None and args.kind == "amplification":
        raise CliError("node_index applies only to --kind phase")
    ranges = (
        DEFAULT_AMPLIFICATION_RANGES if args.kind == "amplification" else DEFAULT_PHASE_RANGES
    )
    for key, (lo, hi) in ranges.items():
        if getattr(args, key) is None:
            setattr(args, key, (float(lo), float(hi)))
    if args.output:
        _check_writable(args.output)
    sweep_args = (
        args.p, args.d, args.h_range, args.n_range, args.eps_range,
        args.trials, args.scheme, args.seed,
    )
    if args.kind == "amplification":
        sweep = amplification_sweep(*sweep_args)
    else:
        sweep, boundary = phase_transition_sweep(*sweep_args, args.node_index)

    if args.output:
        _write_output(args.output, lambda fh: _write_sweep(args, sweep, fh))

    if args.kind == "amplification":
        _print_amplification_fits(sweep)
    else:
        print(
            f"boundary slope: {boundary.slope:+.3f} (intercept {boundary.intercept:+.3f}, "
            f"successes {boundary.n_success}, failures {boundary.n_failure})"
        )
    _print_failure_counts(sweep, args.node_index)
    return 0


def _train_and_geometry(args) -> tuple[SpikeTrain, ClusterGeometry]:
    """The spike train of --input and the cluster that -p and --kappa pick
    out of it (see ClusterGeometry.from_nodes)."""
    train = _read_input(args.input, "spike-train", _spike_train)
    return train, ClusterGeometry.from_nodes(train.nodes, args.p, args.kappa)


def cmd_worstcase(args) -> int:
    train, geometry = _train_and_geometry(args)
    report = worst_case_signal(train, args.p, args.epsilon, args.kappa)
    omega = 1.0 / geometry.h if args.omega is None else args.omega
    if args.omega is None and np.isinf(omega):
        message = f"the default omega 1/h is not finite at cluster extent h = {geometry.h!r}"
        raise ValueError(f"{message}; set --omega")
    _write_json_report(args, {
        "perturbed": {
            "amplitudes": report.perturbed.amplitudes,
            "nodes": report.perturbed.nodes,
        },
        "moment_match_error": report.moment_match_error,
        "last_moment_delta": report.last_moment_delta,
        "node_displacement": report.node_displacement,
        "amplitude_displacement": report.amplitude_displacement,
        "spectral_deviation": spectral_deviation(
            train, report.perturbed, omega, args.grid_points
        ),
    })
    return 0


def cmd_decimation(args) -> int:
    train, geometry = _train_and_geometry(args)
    admissible = admissible_lambdas(train.nodes, geometry, args.omega, args.alpha)

    # Conditioning report at the midpoint of the widest admissible interval.
    widest = max(admissible.intervals, key=lambda ab: ab[1] - ab[0])
    sample_rate = 0.5 * (widest[0] + widest[1])
    bounds = gautschi_bounds(np.exp(2j * np.pi * sample_rate * train.nodes))
    _write_json_report(args, {
        "admissible": {"intervals": admissible.intervals},
        "sample_rate": sample_rate,
        "bounds": {
            "delta": bounds.delta,
            "gamma": bounds.gamma,
            "amplitude_row_bounds": bounds.amplitude_row_bounds,
            "node_row_bounds": bounds.node_row_bounds,
            "empirical_amplitude_row_norms": bounds.empirical_amplitude_row_norms,
            "empirical_node_row_norms": bounds.empirical_node_row_norms,
            "condition_number": bounds.condition_number,
        },
    })
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser.  Each subcommand records the Action of every option
    that an output's config embeds in its `options` default, next to its
    `handler`; the options a run cannot do without are declared required."""
    parser = argparse.ArgumentParser(
        prog="spikesr",
        description="Super-resolution of clustered spike trains",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, handler, help_text):
        """Add a subcommand; returns the function that declares its options."""
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="config file of flag tokens, one per line")
        options = []
        sp.set_defaults(handler=handler, options=options)

        def option(*flags, **kwargs):
            options.append(sp.add_argument(*flags, **kwargs))

        option("--output", "-o", help="output file path")
        return option

    def cluster_options(option):
        option("--input", "-i", required=True, help="SpikeTrain JSON file")
        option("-p", type=int, required=True, help="cluster size")
        option("--kappa", type=int, default=1,
               help="1-based index of the first cluster node (default %(default)s)")

    option = command("recover", cmd_recover, "Matrix Pencil recovery from a samples file")
    option("--input", "-i", required=True, help="SpectralSamples JSON file")
    option("--order", "-d", type=int, required=True, help="model order d")

    option = command("experiment", cmd_experiment, "amplification or phase-transition sweep")
    option("--seed", type=int, default=0, help="base random seed (default %(default)s)")
    option("--kind", choices=["amplification", "phase"], required=True)
    option("-p", type=int, required=True, help="cluster size")
    option("-d", type=int, required=True, help="total node count")
    option("--trials", type=int, default=500, help="number of trials (default %(default)s)")
    option("--scheme", choices=SCHEMES, default="S1",
           help="perturbation scheme (default %(default)s)")
    option("--h-range", dest="h_range", type=_parse_range, help="lo,hi cluster extents")
    option("--n-range", dest="n_range", type=_parse_range,
           help="lo,hi sample counts; hi must reach 2d+2, and smaller draws "
                "are raised to 2d+2")
    option("--eps-range", dest="eps_range", type=_parse_range, help="lo,hi noise levels")
    option("--node-index", dest="node_index", type=int,
           help="track a single node's success (1-based, phase only)")

    option = command("worstcase", cmd_worstcase, "worst-case cluster perturbation report")
    cluster_options(option)
    option("--epsilon", type=float, required=True, help="perturbation level")
    option("--omega", type=float, help="bandwidth for the deviation check")
    option("--grid-points", dest="grid_points", type=int, default=1001,
           help="deviation grid size (default %(default)s)")

    option = command("decimation", cmd_decimation, "admissible blowup factors and bounds")
    cluster_options(option)
    option("--omega", type=float, required=True, help="bandwidth")
    option("--alpha", type=float, help="angular threshold (default 1/d^2)")

    sub.add_parser("version", help="print the package version")
    return parser


def main(argv=None) -> int:
    """Run one subcommand; its failures map to exit codes here and nowhere
    else."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        # The config tokens go between the subcommand and the command line's
        # own flags, so those flags, parsed later, win.
        config_parser = argparse.ArgumentParser(prog="spikesr", add_help=False)
        config_parser.add_argument("--config")
        known, rest = config_parser.parse_known_args(argv)
        tokens = _load_config_file(known.config) if known.config else []
        args = build_parser().parse_args([*rest[:1], *tokens, *rest[1:]])
        if args.subcommand == "version":
            print(f"spikesr {__version__}")
            return 0
        if args.config:  # the command line's --config never reaches this parse
            raise CliError("a config file cannot set --config")
        return args.handler(args)
    except CliError as exc:
        message, code = str(exc), EXIT_PARSE
    except DegenerateFitError as exc:
        message, code = str(exc), EXIT_DEGENERATE_FIT
    # LinAlgError is a ValueError, so it must be caught first.
    except (SpikesrError, np.linalg.LinAlgError) as exc:
        message, code = str(exc), EXIT_ESTIMATOR
    # An input too large to allocate for, such as a huge --n-range, is an
    # input error too.
    except (ValueError, MemoryError) as exc:
        message, code = f"bad {args.subcommand} input: {exc}", EXIT_PARSE
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
