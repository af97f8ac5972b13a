"""The benchmark workloads and their correctness checks.

Every workload runs in passes.  A pass is a fixed amount of seeded work (a
sweep of K trials with its fits and CSV output, or a scan of K grid points);
pass i of seed s always sees the same inputs.  run_pass returns what the pass
measured; a failed correctness check raises CheckFailed naming the check.

A sweep trial fails when its record's failure tag is set (worst_case_signal
or mp_recover raised); a scan point fails when admissible_lambdas or
gautschi_bounds raises.
"""

from __future__ import annotations

import io
import math
import os
import time
from contextlib import redirect_stdout
from dataclasses import dataclass

import numpy as np

from spikesr import cli, decimation, experiments, signal, worstcase
from spikesr.errors import EmptyAdmissibleSetError, NearCoincidentNodesError


class CheckFailed(Exception):
    """A correctness check failed; the message starts with the check's name."""


def check(ok: bool, name: str, detail: str) -> None:
    if not ok:
        raise CheckFailed(f"{name}: {detail}")


@dataclass
class PassResult:
    attempted: int
    failed: int
    csv_bytes: int = 0
    # records (or scan rows) of the first passes, pooled for the accuracy metrics
    kept: list | None = None


def _pass_rng(tag: int, seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([tag, seed, index])


def _hankel_cells(args, kwargs, _result):
    samples = args[0] if args else kwargs["samples"]
    n = len(samples.values)
    pencil = args[2] if len(args) > 2 else kwargs.get("pencil_param")
    L = -(-n // 2) if pencil is None else pencil
    return (L + 1) * (n - L)


def _missed(_args, _kwargs, record):
    """1 when single_experiment returned a record that missed a node."""
    if record is None:
        return None
    return int(record.failure is None and not record.all_success())


def _interval_count(_args, _kwargs, result):
    return None if result is None else len(result)


class Workload:
    """Pass bookkeeping shared by every workload."""

    def __init__(self, seed: int, out_dir: str, tiny: bool):
        self.seed = seed
        self.trials = self.tiny_trials if tiny else self.pass_trials

    def keep(self, index: int, items: list) -> list | None:
        """Keep a pass's records for the pooled fits only for the first
        min_passes passes, so memory does not grow with machine speed."""
        return items if index < self.min_passes else None

    def run_checks(self, results) -> dict:
        """fit_err and fit_err_amp of the records pooled over the kept passes,
        checked against the stated tolerances."""
        accuracy = self.accuracy([item for r in results if r.kept for item in r.kept])
        for name, value in accuracy.items():
            check(
                value <= self.fit_tol[name],
                f"{name}-tolerance",
                f"{value:.4f} exceeds the stated tolerance {self.fit_tol[name]}",
            )
        return accuracy

    def cli_cross_check(self) -> float:
        """CLI run time in ms; 0 for workloads without a CLI cross-check."""
        return 0.0

    def cleanup(self) -> None:
        """Remove the files the passes wrote."""


class AmpS2Small(Workload):
    """Worst-case (S2) amplification sweep with the default ranges, N 48-96,
    p=2, d=4."""

    name = "amp-s2-small"
    tag = 1
    p, d = 2, 4
    scheme = "S2"
    ranges = (
        experiments.DEFAULT_AMPLIFICATION_RANGES["h_range"],
        experiments.DEFAULT_AMPLIFICATION_RANGES["n_range"],
        experiments.DEFAULT_AMPLIFICATION_RANGES["eps_range"],
    )
    pass_trials, tiny_trials = 500, 200
    min_passes = 32
    trial_span = "experiments.single_experiment"
    fit_tol = {"fit_err": 0.3, "fit_err_amp": 0.3}

    def __init__(self, seed: int, out_dir: str, tiny: bool):
        super().__init__(seed, out_dir, tiny)
        self.csv_path = os.path.join(out_dir, f"{self.name}-records.csv")

    def cleanup(self) -> None:
        if os.path.exists(self.csv_path):
            os.remove(self.csv_path)

    def inputs(self, index: int) -> int:
        """Base seed of pass index; the sweep derives every trial from it."""
        return int(_pass_rng(self.tag, self.seed, index).integers(2**31))

    def sweep_args(self, trials: int, base_seed: int) -> tuple:
        return (self.p, self.d, *self.ranges, trials, self.scheme, base_seed)

    def warm_up(self) -> None:
        experiments.amplification_sweep(*self.sweep_args(1, self.inputs(0)))

    def patches(self) -> list:
        return [
            (experiments, "amplification_sweep", "experiments.sweep", None),
            (experiments, "single_experiment", "experiments.single_experiment", _missed),
            (experiments, "mp_recover", "matrix_pencil.mp_recover", _hankel_cells),
            (experiments, "sample_spectrum", "signal.sample_spectrum", None),
            (experiments, "clean_spectrum", "signal.clean_spectrum", None),
            (experiments, "worst_case_signal", "worstcase.worst_case_signal", None),
            (worstcase, "prony_solve", "prony.prony_solve", None),
        ]

    def _write_csv(self, records, tracer) -> int:
        with tracer.span("experiments.write_records"):
            with open(self.csv_path, "w", encoding="utf-8", newline="") as fh:
                experiments.write_records_csv(records, fh)
        return os.path.getsize(self.csv_path)

    def accuracy(self, records) -> dict:
        """Distances of the cluster node and amplitude slopes from 2p-2 and
        2p-1."""
        kx = experiments.fit_loglog_slope(records, "kx", "cluster").slope
        ka = experiments.fit_loglog_slope(records, "ka", "cluster").slope
        return {
            "fit_err": abs(kx - (2 * self.p - 2)),
            "fit_err_amp": abs(ka - (2 * self.p - 1)),
        }

    def _result(self, index, records, csv_bytes) -> PassResult:
        check(
            len(records) == self.trials,
            "record-count",
            f"{len(records)} records for {self.trials} trials",
        )
        return PassResult(
            attempted=len(records),
            failed=sum(rec.failure is not None for rec in records),
            csv_bytes=csv_bytes,
            kept=self.keep(index, records),
        )

    def run_pass(self, index: int, tracer) -> PassResult:
        with tracer.span("bench.pass"):
            records = experiments.amplification_sweep(
                *self.sweep_args(self.trials, self.inputs(index))
            )
            with tracer.span("experiments.fit"):
                for quantity in ("kx", "ka"):
                    for node_class in ("cluster", "noncluster"):
                        experiments.fit_loglog_slope(records, quantity, node_class)
            csv_bytes = self._write_csv(records, tracer)
        return self._result(index, records, csv_bytes)

    def cli_cross_check(self) -> float:
        """Run `spikesr experiment` in-process with this workload's parameters
        and compare its CSV rows with the library path's; returns CLI ms."""
        base_seed = self.inputs(0)
        cli_path = self.csv_path + ".cli"
        argv = [
            "experiment", "--kind", "amplification", "-p", str(self.p),
            "-d", str(self.d), "--scheme", self.scheme,
            "--trials", str(self.trials), "--seed", str(base_seed), "-o", cli_path,
        ]
        start = time.perf_counter()
        with redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        elapsed_ms = (time.perf_counter() - start) * 1e3
        check(code == 0, "cli-cross-check", f"spikesr experiment exited {code}")
        with open(cli_path, "r", encoding="utf-8", newline="") as fh:
            cli_text = fh.read()
        os.remove(cli_path)

        records = experiments.amplification_sweep(
            *self.sweep_args(self.trials, base_seed)
        )
        buffer = io.StringIO()
        experiments.write_records_csv(records, buffer)
        lib_rows = _rows_below_header(buffer.getvalue())
        cli_rows = _rows_below_header(cli_text)
        check(
            cli_rows == lib_rows and len(lib_rows) == self.trials * self.d,
            "cli-cross-check",
            f"CLI CSV rows ({len(cli_rows)}) differ from the library's ({len(lib_rows)})",
        )
        return elapsed_ms


class DecimationScan(Workload):
    """Admissible blowup rates and Gautschi bounds over a seeded bandwidth grid.

    Layout: the standard clustered layout with p=3, d=8 rescaled by 1/(2 pi);
    at each grid point omega * h is drawn in (0.3, 0.9) * (2d-1)/2 and the
    angular threshold alpha log-uniformly in [1/d^2, 1.5], so that some points
    have no admissible rate (with the default alpha = 1/d^2 none fail).

    fit_err and fit_err_amp measure how tightly the Gautschi bounds follow the
    computed inverse of the confluent Vandermonde matrix: the median over
    points of log10(largest cluster row bound / largest measured cluster row
    norm), for the node and the amplitude rows.  An inflated bound raises
    them; a bound below the measured norm fails criterion 7.
    """

    name = "decimation-scan"
    tag = 3
    p, d = 3, 8
    omega_range = (50.0, 8000.0)
    omega_h_factors = (0.3, 0.9)
    alpha_max = 1.5
    pass_trials, tiny_trials = 250, 100
    min_passes = 16
    trial_span = "bench.scan_point"
    # Decades by which the median point's bound may exceed the measured norm.
    fit_tol = {"fit_err": 3.0, "fit_err_amp": 3.0}
    # Over the scan's srf span (about 5 to 26) the non-cluster factor of the
    # bound falls with srf, so the bounds' log-log slopes against srf measure
    # about 2.1 and 2.3, against 2p-2 = 4 and 2p-1 = 5.  The check catches
    # bounds that stop growing with srf.
    min_bound_slope = 1.0

    def inputs(self, index: int, count: int | None = None) -> list:
        """(omega, omega*h factor, alpha) per point: each drawn stratified, so
        that every pass covers its ranges evenly (a Latin hypercube); omega on
        a geometric grid, alpha log-uniformly."""
        count = self.trials if count is None else count
        rng = _pass_rng(self.tag, self.seed, index)

        def stratified(lo, hi, order):
            return lo + (hi - lo) * (order + rng.uniform(size=count)) / count

        omegas = np.exp(stratified(*np.log(self.omega_range), np.arange(count)))
        factors = stratified(*self.omega_h_factors, rng.permutation(count))
        alphas = np.exp(stratified(
            math.log(1.0 / self.d**2), math.log(self.alpha_max), rng.permutation(count)
        ))
        return list(zip(omegas.tolist(), factors.tolist(), alphas.tolist()))

    def warm_up(self) -> None:
        self.scan_point(*self.inputs(0, 1)[0])

    def patches(self) -> list:
        return [
            (decimation, "admissible_lambdas", "decimation.admissible_lambdas", _interval_count),
            (decimation, "sigma_intervals", "decimation.sigma_intervals", None),
            (decimation, "gautschi_bounds", "decimation.gautschi_bounds", None),
            (decimation, "predicted_condition_numbers",
             "decimation.predicted_condition_numbers", None),
        ]

    def scan_point(self, omega: float, factor: float, alpha: float):
        """(srf, then the largest cluster node and amplitude row bounds and
        measured row norms), or None when the point has no admissible rate or
        near-coincident mapped nodes."""
        p, d = self.p, self.d
        h = factor * (2 * d - 1) / 2.0 / omega
        layout = signal.standard_cluster_geometry(p, d, 2.0 * math.pi * h)
        nodes = signal.make_clustered_nodes(layout) / (2.0 * math.pi)
        geometry = signal.ClusterGeometry(
            p=p, d=d, h=h, T=1.0, tau=layout.tau, eta=layout.eta / 2.0, kappa=1
        )
        try:
            admissible = decimation.admissible_lambdas(nodes, geometry, omega, alpha)
        except EmptyAdmissibleSetError:
            return None
        widest = max(admissible.intervals, key=lambda ab: ab[1] - ab[0])
        rate = 0.5 * (widest[0] + widest[1])
        angles = 2.0 * math.pi * rate * nodes
        gaps = np.abs(angles[:, None] - angles[None, :]) % (2.0 * math.pi)
        gaps = np.minimum(gaps, 2.0 * math.pi - gaps)
        noncluster = ~np.eye(d, dtype=bool)
        noncluster[:p, :p] = False
        closest = float(gaps[noncluster].min())
        check(
            closest >= alpha - 1e-9,
            "criterion-8-separation",
            f"omega {omega!r}: non-cluster pair {closest!r} apart at rate {rate!r}, "
            f"alpha {alpha!r}",
        )
        try:
            bounds = decimation.gautschi_bounds(np.exp(1j * angles))
        except NearCoincidentNodesError:
            return None
        slack = 1.0 + 1e-9
        check(
            np.all(bounds.empirical_node_row_norms <= bounds.node_row_bounds * slack)
            and np.all(
                bounds.empirical_amplitude_row_norms
                <= bounds.amplitude_row_bounds * slack
            ),
            "criterion-7-dominance",
            f"omega {omega!r}: measured inverse row norms exceed the Gautschi bounds",
        )
        decimation.predicted_condition_numbers(geometry, omega)
        srf = 1.0 / (rate * geometry.tau * h)
        return (
            srf,
            float(bounds.node_row_bounds[:p].max()),
            float(bounds.amplitude_row_bounds[:p].max()),
            float(bounds.empirical_node_row_norms[:p].max()),
            float(bounds.empirical_amplitude_row_norms[:p].max()),
        )

    def run_pass(self, index: int, tracer) -> PassResult:
        points = self.inputs(index)
        rows = []
        with tracer.span("bench.pass"):
            for point in points:
                with tracer.span("bench.scan_point"):
                    row = self.scan_point(*point)
                if row is not None:
                    rows.append(row)
        return PassResult(
            attempted=len(points),
            failed=len(points) - len(rows),
            kept=self.keep(index, rows),
        )

    def accuracy(self, rows) -> dict:
        """Median excess of the bounds over the measured norms, in decades,
        after checking that the bounds grow with srf."""
        logs = np.log10(np.array(rows))
        for column, rows_name in ((1, "node"), (2, "amplitude")):
            slope = float(np.polyfit(logs[:, 0], logs[:, column], 1)[0])
            check(
                slope >= self.min_bound_slope,
                "bound-exponent",
                f"{rows_name} row bounds grow like srf^{slope:.3f}, "
                f"below srf^{self.min_bound_slope}",
            )
        return {
            "fit_err": float(np.median(logs[:, 1] - logs[:, 3])),
            "fit_err_amp": float(np.median(logs[:, 2] - logs[:, 4])),
        }


def _rows_below_header(text: str) -> list:
    lines = text.splitlines(keepends=True)
    header = experiments.CSV_HEADER + "\n"
    check(header in lines, "cli-cross-check", "no CSV header line")
    return lines[lines.index(header) + 1:]


WORKLOADS = {cls.name: cls for cls in (AmpS2Small, DecimationScan)}
