"""Monte Carlo recovery experiments: error-amplification factors and noise
thresholds for clustered signals.

A single experiment builds the standard clustered layout, rescales it to the
unit torus, samples its spectrum under one of two perturbation schemes, runs
the Matrix Pencil estimator, and records per-node errors, success flags, and
noise-normalized amplification factors.  Sweeps repeat this over log-uniform
parameter draws and the fitting helpers extract the power-law scalings.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    DegenerateFitError,
    InsufficientDataError,
    SpikesrError,
)
from .matrix_pencil import mp_recover
from .signal import (
    SpectralSamples,
    SpikeTrain,
    clean_spectrum,
    make_clustered_nodes,
    sample_spectrum,
    standard_cluster_geometry,
)
from .worstcase import worst_case_signal

__all__ = [
    "DEFAULT_AMPLIFICATION_RANGES",
    "DEFAULT_PHASE_RANGES",
    "ExperimentRecord",
    "SlopeFit",
    "PhaseBoundaryFit",
    "single_experiment",
    "amplification_sweep",
    "phase_transition_sweep",
    "fit_loglog_slope",
    "write_records_csv",
    "write_records_jsonl",
    "CSV_HEADER",
]

CSV_HEADER = (
    "scheme,p,d,h,N,eps_req,eps0,srf,node_index,node_class,e,succ,Kx,Ka,seed"
)

SCHEMES = ("S1", "S2")

# Default sweep ranges.  The amplification ranges keep the super-resolution
# factor roughly in [1, 30], where the estimator tracks the predicted power
# laws cleanly: larger SRF lets cluster failures leak into the non-cluster
# amplitude fits, and wide sample-count ranges let the random-noise averaging
# (error ~ 1/sqrt(N)) masquerade as an SRF dependence.  The phase ranges span
# the success/failure boundary for cluster sizes 2 and 3.
DEFAULT_AMPLIFICATION_RANGES = {
    "h_range": (5e-3, 6e-2),
    "n_range": (48, 96),
    "eps_range": (1e-12, 1e-4),
}
DEFAULT_PHASE_RANGES = {
    "h_range": (2e-3, 1e-1),
    "n_range": (32, 128),
    "eps_range": (1e-12, 1.0),
}

# The least span of log10(srf), in decades, over which the fits below fit a
# slope.  A narrower sweep fixes none: at 0.01 decade the standard error of a
# p = 2 cluster node slope is about 5, ten times its value at 0.1 decade.
_MIN_LOG_SRF_SPAN = 0.1


@dataclass(frozen=True, slots=True)
class ExperimentRecord:
    """Outcome of one recovery experiment.

    h is the cluster extent of the [0, pi] layout before rescaling to the
    torus; srf = 1/(N * gap) with gap the rescaled cluster spacing.  Per-node
    tuples are indexed like the true nodes (the first p are the cluster);
    amplification factors are present exactly where the node succeeded, the
    measured noise was nonzero and the factor is finite.  failure tags records
    where the estimator or the worst-case construction raised instead of
    returning an estimate.

    A sweep holds thousands of records, so the class is slotted (no
    __dict__), and the per-node tuples of a failed trial (and the factors of
    a trial whose measured noise is zero) are constants shared by every such
    record with the same d; a failed record's kx is its ka.  Compare them by
    value and do not rely on their identity.
    """

    scheme: str
    p: int
    d: int
    h: float
    n_samples: int
    epsilon_requested: float
    epsilon0: float
    srf: float
    seed: int
    node_errors: tuple
    successes: tuple
    kx: tuple
    ka: tuple
    failure: Optional[str] = None

    def node_class(self, index: int) -> str:
        """'cluster' or 'noncluster' for a 0-based node index."""
        return "cluster" if index < self.p else "noncluster"

    def all_success(self) -> bool:
        return bool(all(self.successes))


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares line through (log10 x, log10 y) points."""

    slope: float
    intercept: float
    r_squared: float
    residual_std: float
    count: int


@dataclass(frozen=True)
class PhaseBoundaryFit:
    """Logistic decision boundary log10(eps) = intercept + slope * log10(srf)."""

    slope: float
    intercept: float
    n_success: int
    n_failure: int


def _circular_distance(a, b) -> np.ndarray:
    """Distance on the unit torus, min over integer shifts of |a - b - n|.

    Elementwise with broadcasting, so an outer pair of arguments gives the
    matrix of distances between two node sets.
    """
    frac = (a - b) % 1.0
    return np.minimum(frac, 1.0 - frac)


def _scheme_amplitudes(scheme: str, d: int) -> np.ndarray:
    if scheme == "S1":
        return 1j ** np.arange(d)
    if scheme == "S2":
        return ((-1.0) ** np.arange(d)).astype(complex)
    raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")


@lru_cache(maxsize=64)
def _missing_node_tuples(d: int) -> tuple:
    """Per-node errors, success flags and factors of a trial with d nodes
    that measured none of them, built once per d and shared by every record
    that keeps them."""
    return (math.nan,) * d, (False,) * d, (None,) * d


def _factors(values: np.ndarray, successes: tuple) -> tuple:
    """Each factor where its node succeeded and the factor is finite, else None."""
    return tuple(
        v if ok and math.isfinite(v) else None
        for v, ok in zip(values.tolist(), successes)
    )


def single_experiment(
    p: int,
    d: int,
    h: float,
    n_samples: int,
    epsilon: float,
    scheme: str,
    seed: int,
) -> ExperimentRecord:
    """Run one clustered-recovery experiment and measure its amplification factors.

    The layout of standard_cluster_geometry is divided by 2 pi so the nodes
    live in [0, 1/2); scheme S1 samples the spectrum with bounded random noise,
    scheme S2 samples the exact spectrum of worst_case_signal(train, p,
    epsilon).perturbed, which perturbs the cluster of the first p nodes at
    level epsilon.  The measured perturbation epsilon0 is the largest deviation
    of the samples from the clean spectrum of the unperturbed signal.  Node j
    succeeds when the nearest estimate lands within a third of its separation
    from the other true nodes; on success the node and amplitude errors are
    normalized by epsilon0/N and epsilon0 respectively.
    """
    if n_samples < 2 * d:
        raise ValueError("need at least 2 d samples")
    x = make_clustered_nodes(standard_cluster_geometry(p, d, h)) / (2.0 * math.pi)
    amps = _scheme_amplitudes(scheme, d)
    train = SpikeTrain(amplitudes=amps, nodes=x)

    gap = (h / (2.0 * math.pi)) / (p - 1)
    srf = 1.0 / (n_samples * gap)
    if not math.isfinite(srf):
        raise ValueError(f"cluster extent h={h!r} is too small for a finite srf")

    eps0 = math.nan
    failure = None
    node_errors, successes, kx = _missing_node_tuples(d)
    ka = kx
    try:
        if scheme == "S1":
            samples = sample_spectrum(train, n_samples, epsilon, seed)
        else:
            perturbed = worst_case_signal(train, p, epsilon).perturbed
            values = clean_spectrum(perturbed, n_samples)
            samples = SpectralSamples(
                values, float(np.abs(clean_spectrum(train, n_samples) - values).max())
            )
        eps0 = samples.actual_noise
        result = mp_recover(samples, d)
    except SpikesrError as exc:
        # a worst-case failure leaves eps0 NaN; an estimator failure keeps it
        failure = str(exc)
    else:
        est_nodes = result.estimate.nodes
        est_amps = result.estimate.amplitudes
        # dist[j, l]: estimate j to true node l.  True node l is scored by its
        # nearest estimate, and Kx/Ka compare true node l with that estimate.
        dist = _circular_distance(est_nodes[:, None], x[None, :])
        errors = dist.min(axis=0)
        nearest = dist.argmin(axis=0)
        gaps = np.abs(x[:, None] - x[None, :])
        gaps.flat[:: d + 1] = np.inf
        node_errors = tuple(errors.tolist())
        successes = tuple((errors < gaps.min(axis=1) / 3.0).tolist())
        if eps0 > 0:
            amp_err = amps - est_amps[nearest]
            # a subnormal eps0 can overflow a factor; it is kept as missing
            with np.errstate(over="ignore"):
                kx_all = _circular_distance(x, est_nodes[nearest]) * n_samples / eps0
                # hypot, not np.abs: complex np.abs may differ from the scalar
                # abs in the last ulp, and hypot matches it bit for bit
                ka_all = np.hypot(amp_err.real, amp_err.imag) / eps0
            kx = _factors(kx_all, successes)
            ka = _factors(ka_all, successes)

    return ExperimentRecord(
        scheme=scheme,
        p=p,
        d=d,
        h=h,
        n_samples=n_samples,
        epsilon_requested=epsilon,
        epsilon0=eps0,
        srf=srf,
        seed=seed,
        node_errors=node_errors,
        successes=successes,
        kx=kx,
        ka=ka,
        failure=failure,
    )


def _log_bounds(bounds: tuple) -> tuple:
    """Logs of a positive, finite, ordered (lo, hi) range, for log-uniform draws."""
    lo, hi = bounds
    if not 0 < lo <= hi:
        raise ValueError("range bounds must be positive and ordered")
    if not math.isfinite(hi):
        raise ValueError("range bounds must be finite")
    return np.log(lo), np.log(hi)


def amplification_sweep(
    p: int,
    d: int,
    h_range: tuple,
    n_range: tuple,
    eps_range: tuple,
    trials: int,
    scheme: str,
    base_seed: int,
) -> list[ExperimentRecord]:
    """Repeat single_experiment with (h, N, eps) drawn log-uniformly per trial.

    Each trial derives its own random stream from (base_seed, trial index), so
    the full sweep is reproducible and individual trials can be re-run from the
    seed stored on their record.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    log_h, log_n, log_eps = map(_log_bounds, (h_range, n_range, eps_range))
    if h_range[1] >= math.pi:
        raise ValueError("cluster extent must be below pi")
    records = []
    for t in range(trials):
        rng = np.random.default_rng([base_seed, t])
        h = float(np.exp(rng.uniform(*log_h)))
        n = int(round(float(np.exp(rng.uniform(*log_n)))))
        n = max(n, 2 * d + 2)
        eps = float(np.exp(rng.uniform(*log_eps)))
        noise_seed = int(rng.integers(0, 2**63 - 1))
        records.append(single_experiment(p, d, h, n, eps, scheme, noise_seed))
    return records


def _logistic_boundary(features: np.ndarray, outcomes: np.ndarray) -> PhaseBoundaryFit:
    """Newton-iterated logistic regression of outcome on [1, log srf, log eps]."""
    n, _ = features.shape
    ridge = 1e-6
    w = np.zeros(3)
    for _ in range(200):
        logits = features @ w
        prob = 1.0 / (1.0 + np.exp(-np.clip(logits, -35, 35)))
        grad = features.T @ (outcomes - prob) - ridge * w
        curv = (features.T * (prob * (1.0 - prob) + 1e-12)) @ features + ridge * np.eye(3)
        step = np.linalg.solve(curv, grad)
        w = w + step
        if np.abs(step).max() < 1e-10:
            break
    if abs(w[2]) < 1e-12:
        raise DegenerateFitError("degenerate fit: no dependence on the noise level")
    return PhaseBoundaryFit(
        slope=float(-w[1] / w[2]),
        intercept=float(-w[0] / w[2]),
        n_success=int(outcomes.sum()),
        n_failure=int(len(outcomes) - outcomes.sum()),
    )


def phase_transition_sweep(
    p: int,
    d: int,
    h_range: tuple,
    n_range: tuple,
    eps_range: tuple,
    trials: int,
    scheme: str,
    base_seed: int,
    node_index: Optional[int] = None,
) -> tuple[list[ExperimentRecord], PhaseBoundaryFit]:
    """Sweep (srf, eps) space and fit the success/failure boundary.

    The outcome of a trial is all-nodes success, or the success of one node
    when node_index (1-based) is given.  The boundary is the 50% level set of
    a logistic fit in (log10 srf, log10 eps); its slope is the exponent of the
    critical noise level as a power of srf.

    Raises DegenerateFitError when every trial shares one outcome, or when
    the trials span less than 0.1 decade of srf.
    """
    if node_index is not None and not 1 <= node_index <= d:
        raise ValueError("node_index must lie in 1..d")
    records = amplification_sweep(
        p, d, h_range, n_range, eps_range, trials, scheme, base_seed
    )
    outcomes = []
    rows = []
    for rec in records:
        if node_index is None:
            ok = rec.all_success()
        else:
            ok = bool(rec.successes[node_index - 1])
        eps_for_fit = rec.epsilon0
        if not math.isfinite(eps_for_fit) or eps_for_fit <= 0:
            eps_for_fit = rec.epsilon_requested
        outcomes.append(ok)
        rows.append((1.0, math.log10(rec.srf), math.log10(eps_for_fit)))
    outcome_arr = np.array(outcomes, dtype=float)
    if outcome_arr.min() == outcome_arr.max():
        raise DegenerateFitError("degenerate fit: all trials share one outcome")
    log_srfs = [row[1] for row in rows]
    if max(log_srfs) - min(log_srfs) < _MIN_LOG_SRF_SPAN:
        raise DegenerateFitError(
            f"degenerate fit: the trials span less than {_MIN_LOG_SRF_SPAN} decade of srf"
        )
    fit = _logistic_boundary(np.array(rows), outcome_arr)
    return records, fit


def _ols_loglog(xs: Sequence[float], ys: Sequence[float]) -> SlopeFit:
    lx = np.log10(np.asarray(xs, dtype=float))
    ly = np.log10(np.asarray(ys, dtype=float))
    n = len(lx)
    design = np.column_stack([lx, np.ones(n)])
    (slope, intercept), res, *_ = np.linalg.lstsq(design, ly, rcond=None)
    predicted = design @ np.array([slope, intercept])
    ss_res = float(np.sum((ly - predicted) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    resid_std = math.sqrt(ss_res / (n - 2)) if n > 2 else 0.0
    return SlopeFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r2,
        residual_std=resid_std,
        count=n,
    )


def fit_loglog_slope(
    records: Iterable[ExperimentRecord],
    quantity: str = "kx",
    node_class: str = "cluster",
) -> SlopeFit:
    """OLS slope of log10(amplification factor) against log10(srf).

    quantity selects the node ("kx") or amplitude ("ka") factors; node_class
    selects "cluster" or "noncluster" nodes.  Only successful nodes carry
    factors; fewer than 10 of them, or points that span less than 0.1 decade
    of srf, raise InsufficientDataError.
    """
    if quantity not in ("kx", "ka"):
        raise ValueError("quantity must be 'kx' or 'ka'")
    if node_class not in ("cluster", "noncluster"):
        raise ValueError("node_class must be 'cluster' or 'noncluster'")
    xs, ys = [], []
    for rec in records:
        factors = rec.kx if quantity == "kx" else rec.ka
        for j, value in enumerate(factors):
            if rec.node_class(j) != node_class or value is None:
                continue
            if value > 0 and math.isfinite(value):
                xs.append(rec.srf)
                ys.append(value)
    if len(xs) < 10:
        raise InsufficientDataError(
            f"insufficient data: {len(xs)} usable points in class {node_class!r}"
        )
    if math.log10(max(xs)) - math.log10(min(xs)) < _MIN_LOG_SRF_SPAN:
        raise InsufficientDataError(
            f"insufficient data: the {len(xs)} usable points in class {node_class!r} "
            f"span less than {_MIN_LOG_SRF_SPAN} decade of srf"
        )
    return _ols_loglog(xs, ys)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _json_cell(value):
    return None if isinstance(value, float) and math.isnan(value) else value


def _rows(record: ExperimentRecord, cell):
    """Each node's values of a record in CSV_HEADER order, mapped by cell.

    The per-trial values are mapped once per record, not once per node.
    """
    trial = [
        cell(value)
        for value in (
            record.scheme,
            record.p,
            record.d,
            record.h,
            record.n_samples,
            record.epsilon_requested,
            record.epsilon0,
            record.srf,
        )
    ]
    seed = cell(record.seed)
    for j in range(record.d):
        yield [
            *trial,
            cell(j + 1),
            cell(record.node_class(j)),
            cell(record.node_errors[j]),
            cell(record.successes[j]),
            cell(record.kx[j]),
            cell(record.ka[j]),
            seed,
        ]


def write_records_csv(records, stream) -> None:
    """Write one CSV row per (record, node) under CSV_HEADER."""
    stream.write(CSV_HEADER + "\n")
    writer = csv.writer(stream, lineterminator="\n")
    for record in records:
        writer.writerows(_rows(record, _format_cell))


def write_records_jsonl(records, stream) -> None:
    """JSON-lines alternative to the CSV output with the same fields."""
    fields = CSV_HEADER.split(",")
    for record in records:
        for row in _rows(record, _json_cell):
            stream.write(json.dumps(dict(zip(fields, row)), sort_keys=True) + "\n")
