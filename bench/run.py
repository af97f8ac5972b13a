"""spikesr benchmark: sweep throughput, failure share and fit accuracy.

Run from the repository root:

    python3 bench/run.py --workload amp-s2-small --seed 1 --seconds 20 --trace 0

With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
prints the per-layer metrics of a traced run and writes its spans to
bench/out/trace-<workload>.json.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  A failed correctness
check exits 1 and names the check.  The package is imported from src/ next
to this directory; without it the run exits 2.  trials_per_s is scaled by a
fixed reference workload timed after each pass, and setup_s by a fresh
process that only imports numpy, timed right after each setup probe;
bench/README.md says why.
"""

import os

# One BLAS thread, set before numpy is first imported (here or in a child).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import NullTracer, Tracer, summarize  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 9
SETUP_TIMEOUT_S = 60
# The shared host swings between speeds about 1.6x apart, for seconds to
# minutes at a time.  Each timed pass is therefore paired with fixed reference
# work that spikesr cannot change, timed right after it, and its rate is
# scaled by (that reference time) / REFERENCE_S.
REFERENCE_S = 0.005
# Likewise each setup probe is paired with a fresh process that imports only
# numpy, and its time is scaled by REFERENCE_SETUP_S / (that process's time).
REFERENCE_SETUP_S = 0.15
REFERENCE_SETUP_CODE = "import time, numpy; print(f'ready {time.perf_counter()!r}')"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small passes and one setup probe (smoke runs)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def use_checkout_sources():
    """Put this checkout's src/ first on the import path, or exit 2."""
    if not (SRC / "spikesr" / "__init__.py").is_file():
        print(f"error: no spikesr sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def reference_seconds() -> float:
    """Time of fixed work with the workloads' mix of small complex SVDs and
    Python-level list work."""
    import numpy as np

    rng = np.random.default_rng(12345)
    matrix = rng.standard_normal((24, 48)) + 1j * rng.standard_normal((24, 48))
    start = time.perf_counter()
    total = 0.0
    for i in range(40):
        total += float(np.linalg.svd(matrix, compute_uv=False)[0])
        total += sorted((j * 7919) % 1000 for j in range(200))[i]
    return time.perf_counter() - start


def _spawn_to_ready(cmd) -> float:
    """Seconds from spawning cmd to the "ready" stamp it prints, read on the
    monotonic clock, which every process shares."""
    start = time.perf_counter()
    proc = subprocess.run(cmd, check=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
                          capture_output=True, text=True)
    return float(proc.stdout.split()[-1]) - start


def measure_setup(args) -> tuple:
    """Setup times of fresh processes that import the package, build their
    inputs and run one warm-up trial, each followed by a fresh process that
    only imports numpy.  Returns both lists of times."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    if args.tiny:
        cmd.append("--tiny")
    probes, refs = [], []
    for _ in range(1 if args.tiny else SETUP_PROBES):
        probes.append(_spawn_to_ready(cmd))
        refs.append(_spawn_to_ready([sys.executable, "-c", REFERENCE_SETUP_CODE]))
    return probes, refs


def _keep_going(start, seconds, passes, min_passes):
    return passes < min_passes or time.perf_counter() - start < seconds


def run_untraced(workload, seconds, min_passes):
    tracer = NullTracer()
    results, times, refs = [], [], []
    start = time.perf_counter()
    while _keep_going(start, seconds, len(results), min_passes):
        t0 = time.perf_counter()
        results.append(workload.run_pass(len(results), tracer))
        times.append(time.perf_counter() - t0)
        refs.append(reference_seconds())
    return results, times, refs


def run_traced(workload, seconds, min_pairs):
    """Pairs of untraced and traced passes over the same inputs, alternating
    which runs first; only the traced one records spans.  Returns one result
    per pair (both passes of a pair compute the same result)."""
    null, tracer = NullTracer(), Tracer()
    results, plain_s, traced_s = [], [], []
    start = time.perf_counter()
    while _keep_going(start, seconds, len(results), min_pairs):
        index = len(results)
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                for patch in workload.patches():
                    tracer.wrap(*patch)
            try:
                t0 = time.perf_counter()
                result = workload.run_pass(index, tracer if traced else null)
                elapsed = time.perf_counter() - t0
            finally:
                tracer.restore()
            (traced_s if traced else plain_s).append(elapsed)
        results.append(result)
    return results, plain_s, traced_s, tracer


def end_to_end(workload, results, times, refs, setup, accuracy):
    """Pass rates and setup times are scaled to the reference speed, pass by
    pass and probe by probe; the notes give the raw medians."""
    rates = [workload.trials / t * ref / REFERENCE_S for t, ref in zip(times, refs)]
    probes, setup_refs = setup
    setups = [t / ref * REFERENCE_SETUP_S for t, ref in zip(probes, setup_refs)]
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "trials_per_s": (statistics.median(rates), "1/s"),
        "fail_share": (failed / attempted, "ratio"),
        "fit_err": (accuracy["fit_err"], "exponent"),
        "fit_err_amp": (accuracy["fit_err_amp"], "exponent"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
    }
    notes = {
        "trials_per_s": f"median of {len(times)} passes of {workload.trials} trials; "
                        f"raw {workload.trials / statistics.median(times):.1f}/s, "
                        f"reference work {statistics.median(refs) * 1e3:.2f} ms",
        "fail_share": f"{failed} failed of {attempted} attempted",
        "setup_s": f"median of {len(probes)} fresh processes; "
                   f"raw {statistics.median(probes):.4f} s, "
                   f"numpy-only process {statistics.median(setup_refs):.4f} s",
    }
    return metrics, notes


# (span, time metric, failure classes counted there), for each wrapped layer.
LAYER_SPANS = (
    ("signal.sample_spectrum", "ms", ()),
    ("signal.clean_spectrum", "ms", ()),
    ("matrix_pencil.mp_recover", "ms", ("RankDeficiencyError", "EigenFailureError")),
    ("prony.prony_solve", "ms", ("DegenerateSystemError", "RepeatedRootsError")),
    ("worstcase.worst_case_signal", "self_ms", ("EpsilonTooLargeError",)),
    ("decimation.admissible_lambdas", "self_ms", ("EmptyAdmissibleSetError",)),
    ("decimation.sigma_intervals", "ms", ()),
    ("decimation.gautschi_bounds", "ms", ("NearCoincidentNodesError",)),
)
# Layers whose failures end a trial or scan point.  prony_solve's failures
# are not among them: worst_case_signal turns them into EpsilonTooLargeError.
ENDS_TRIAL = (
    "matrix_pencil.mp_recover",
    "worstcase.worst_case_signal",
    "decimation.admissible_lambdas",
    "decimation.gautschi_bounds",
)
LAYER_ORDER = ("signal", "matrix_pencil", "prony", "worstcase", "decimation",
               "experiments", "cli", "trace")


def per_layer(workload, results, plain_s, traced_s, tracer, cli_ms):
    """Per-layer metrics from the spans of the traced passes."""
    from workloads import check

    stats = summarize(tracer.spans)
    empty = {"calls": 0, "ns": 0, "self_ns": 0, "failed": {}, "extra": 0.0}
    span = lambda name: stats.get(name, empty)  # noqa: E731
    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value, unit)

    # Calls, time and the failure breakdown by exception class.
    for name, time_metric, classes in LAYER_SPANS:
        entry = span(name)
        put(f"{name}.calls", entry["calls"], "count")
        if time_metric == "ms":
            put(f"{name}.ms", entry["ns"] / 1e6, "ms")
        else:
            put(f"{name}.self_ms", entry["self_ns"] / 1e6, "ms")
        if not classes:
            continue
        unexpected = set(entry["failed"]) - set(classes)
        check(not unexpected, "failure-classes",
              f"{name} raised unexpected {sorted(unexpected)}")
        put(f"{name}.failed", sum(entry["failed"].values()), "count")
        for cls in classes:
            put(f"{name}.failed.{cls}", entry["failed"].get(cls, 0), "count")
    put("experiments.single_experiment.missed",
        int(span("experiments.single_experiment")["extra"]), "count")
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    raised = sum(metrics[f"{name}.failed"][0] for name in ENDS_TRIAL)
    check(
        raised == failed,
        "failure-breakdown",
        f"layer failures {raised} != fail_share x attempted = {failed} of {attempted}",
    )
    check(
        metrics["prony.prony_solve.failed"][0]
        <= metrics["worstcase.worst_case_signal.failed"][0],
        "failure-breakdown",
        "more prony_solve failures than worst_case_signal failures",
    )

    wc_calls = span("worstcase.worst_case_signal")["calls"]
    wc_failed = metrics["worstcase.worst_case_signal.failed"][0]
    put("worstcase.accept_ratio",
        (wc_calls - wc_failed) / wc_calls if wc_calls else 0.0, "ratio")
    put("matrix_pencil.hankel_cells", int(span("matrix_pencil.mp_recover")["extra"]), "count")
    put("decimation.admissible_pieces",
        int(span("decimation.admissible_lambdas")["extra"]), "count")

    put("experiments.single_experiment.self_ms",
        span("experiments.single_experiment")["self_ns"] / 1e6, "ms")
    put("experiments.sweep.self_ms", span("experiments.sweep")["self_ns"] / 1e6, "ms")
    trials_ns = sorted(stats[workload.trial_span]["durations_ns"])
    cuts = statistics.quantiles(trials_ns, n=100, method="inclusive")
    put("experiments.trial_ms_p50", statistics.median(trials_ns) / 1e6, "ms")
    put("experiments.trial_ms_p99", cuts[98] / 1e6, "ms")
    put("experiments.fit.ms", span("experiments.fit")["ns"] / 1e6, "ms")
    put("experiments.write_records.ms", span("experiments.write_records")["ns"] / 1e6, "ms")
    put("experiments.write_records.bytes", sum(r.csv_bytes for r in results), "B")
    put("cli.experiment.ms", cli_ms, "ms")

    wall_ms = sum(traced_s) * 1e3
    layer_ms = sum(
        entry["self_ns"] for name, entry in stats.items() if not name.startswith("bench.")
    ) / 1e6
    put("trace.overhead_share", sum(traced_s) / sum(plain_s) - 1.0, "ratio")
    put("trace.wall_ms", wall_ms, "ms")
    put("trace.layer_self_ms", layer_ms, "ms")
    put("trace.remainder_ms", wall_ms - layer_ms, "ms")
    put("trace.remainder_share", (wall_ms - layer_ms) / wall_ms, "ratio")
    put("trace.spans", len(tracer.spans), "count")
    notes = {
        "trace.overhead_share": f"{len(traced_s)} traced against {len(plain_s)} "
                                "untraced passes over the same inputs",
        "trace.remainder_ms": "benchmark glue outside every layer span",
    }
    ordered = sorted(metrics.items(), key=lambda kv: LAYER_ORDER.index(kv[0].split(".")[0]))
    return dict(ordered), notes


def emit(metrics, notes, attempted):
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value!r} {unit}{note}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))


def report_failure(message: str) -> int:
    for stream in (sys.stderr, sys.stdout):
        print(f"FAILED CHECK {message}", file=stream)
    return 1


def main(argv=None) -> int:
    args = parse_args(argv)
    use_checkout_sources()
    from spikesr.errors import SpikesrError
    from workloads import WORKLOADS, CheckFailed

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, str(OUT_DIR), args.tiny)
    if args.setup_probe:
        for index in range(workload.min_passes):
            workload.inputs(index)
        workload.warm_up()
        print(f"ready {time.perf_counter()!r}")
        return 0

    env = environment()
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    min_passes = 1 if args.tiny else workload.min_passes
    try:
        workload.warm_up()
        if args.trace == 0:
            setup = measure_setup(args)
            results, times, refs = run_untraced(workload, args.seconds, min_passes)
            accuracy = workload.run_checks(results)
            metrics, notes = end_to_end(
                workload, results, times, refs, setup, accuracy
            )
            attempted = sum(r.attempted for r in results)
        else:
            results, plain_s, traced_s, tracer = run_traced(
                workload, args.seconds, max(1, min_passes // 2)
            )
            accuracy = workload.run_checks(results)
            cli_ms = workload.cli_cross_check()
            metrics, notes = per_layer(
                workload, results, plain_s, traced_s, tracer, cli_ms
            )
            attempted = 2 * sum(r.attempted for r in results)
            tracer.write(
                OUT_DIR / f"trace-{args.workload}.json",
                {"workload": args.workload, "seed": args.seed, "env": env},
            )
    except CheckFailed as exc:
        return report_failure(str(exc))
    except SpikesrError as exc:
        return report_failure(f"unexpected-error: {type(exc).__name__}: {exc}")
    finally:
        workload.cleanup()
    emit(metrics, notes, attempted)
    return 0


if __name__ == "__main__":
    sys.exit(main())
