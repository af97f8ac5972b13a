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
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    DegenerateFitError,
    InsufficientDataError,
    SpikesrError,
)
from .matrix_pencil import default_pencil_param, mp_recover
from .signal import (
    ClusterGeometry,
    SpikeTrain,
    clean_spectrum,
    make_clustered_nodes,
    sample_spectrum,
    standard_cluster_geometry,
)
from .worstcase import worst_case_signal

__all__ = [
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


@dataclass(frozen=True)
class ExperimentRecord:
    """Outcome of one recovery experiment.

    h is the cluster extent of the [0, pi] layout before rescaling to the
    torus; srf = 1/(N * gap) with gap the rescaled cluster spacing.  Per-node
    tuples are indexed like the true nodes (the first p are the cluster);
    amplification factors are present exactly where the node succeeded and the
    measured noise was nonzero.  failure tags records where the estimator or
    the worst-case construction raised instead of returning an estimate.
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
    weights: tuple
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
        return np.array([(-1.0) ** j for j in range(d)], dtype=complex)
    raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")


def _failed_record(scheme, p, d, h, n, eps, eps0, srf, seed, tag) -> ExperimentRecord:
    return ExperimentRecord(
        scheme=scheme,
        p=p,
        d=d,
        h=h,
        n_samples=n,
        epsilon_requested=eps,
        epsilon0=eps0,
        srf=srf,
        seed=seed,
        node_errors=tuple([math.nan] * d),
        successes=tuple([False] * d),
        kx=tuple([None] * d),
        ka=tuple([None] * d),
        failure=tag,
    )


def single_experiment(
    p: int,
    d: int,
    h: float,
    n_samples: int,
    epsilon: float,
    scheme: str,
    seed: int,
    noise_kind: str = "disk",
) -> ExperimentRecord:
    """Run one clustered-recovery experiment and measure its amplification factors.

    The layout of standard_cluster_geometry is divided by 2 pi so the nodes
    live in [0, 1/2); scheme S1 samples the spectrum with bounded random noise,
    scheme S2 samples the exact spectrum of the worst-case perturbed signal at
    level epsilon.  The measured perturbation epsilon0 is the largest deviation
    of the samples from the clean spectrum of the unperturbed signal.  Node j
    succeeds when the nearest estimate lands within a third of its separation
    from the other true nodes; on success the node and amplitude errors are
    normalized by epsilon0/N and epsilon0 respectively.
    """
    if n_samples < 2 * d:
        raise ValueError("need at least 2 d samples")
    layout_geometry = standard_cluster_geometry(p, d, h)
    x = make_clustered_nodes(layout_geometry) / (2.0 * math.pi)
    amps = _scheme_amplitudes(scheme, d)
    train = SpikeTrain(amplitudes=amps, nodes=x)

    gap = (h / (2.0 * math.pi)) / (p - 1)
    srf = 1.0 / (n_samples * gap)

    if scheme == "S1":
        samples = sample_spectrum(train, n_samples, epsilon, seed, noise_kind)
        eps0 = samples.actual_noise
    else:
        norm_geometry = ClusterGeometry(
            p=p,
            d=d,
            h=h / (2.0 * math.pi),
            T=1.0,
            tau=layout_geometry.tau,
            eta=layout_geometry.eta / 2.0,
            kappa=1,
        )
        try:
            perturbed = worst_case_signal(
                train, norm_geometry, epsilon, omega=1.0, grid_points=3
            ).perturbed
        except SpikesrError as exc:
            return _failed_record(
                scheme, p, d, h, n_samples, epsilon, math.nan, srf, seed, str(exc)
            )
        samples = sample_spectrum(perturbed, n_samples, 0.0, seed)
        eps0 = float(
            np.abs(clean_spectrum(train, n_samples) - samples.values).max()
        )

    try:
        result = mp_recover(samples, d, default_pencil_param(n_samples))
    except SpikesrError as exc:
        return _failed_record(
            scheme, p, d, h, n_samples, epsilon, eps0, srf, seed, str(exc)
        )

    est_nodes = result.estimate.nodes
    est_amps = result.estimate.amplitudes
    # dist[j, l]: estimate j to true node l.  Estimate j is scored by its
    # nearest true node, and Kx/Ka compare true node j with the estimate
    # indexed by that nearest true node.
    dist = _circular_distance(est_nodes[:, None], x[None, :])
    errors = dist.min(axis=1)
    nearest = dist.argmin(axis=1)
    gaps = np.abs(x[:, None] - x[None, :])
    np.fill_diagonal(gaps, np.inf)
    successes = (errors < gaps.min(axis=1) / 3.0).tolist()
    kx = ka = (None,) * d
    if eps0 > 0:
        amp_err = amps - est_amps[nearest]
        kx_all = _circular_distance(x, est_nodes[nearest]) * n_samples / eps0
        # hypot, not np.abs: complex np.abs may differ from the scalar abs
        # in the last ulp, and hypot matches it bit for bit
        ka_all = np.hypot(amp_err.real, amp_err.imag) / eps0
        kx = tuple(v if ok else None for v, ok in zip(kx_all.tolist(), successes))
        ka = tuple(v if ok else None for v, ok in zip(ka_all.tolist(), successes))

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
        node_errors=tuple(errors.tolist()),
        successes=tuple(successes),
        kx=kx,
        ka=ka,
    )


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    if not 0 < lo <= hi:
        raise ValueError("range bounds must be positive and ordered")
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def amplification_sweep(
    p: int,
    d: int,
    h_range: tuple,
    n_range: tuple,
    eps_range: tuple,
    trials: int,
    scheme: str,
    base_seed: int,
    noise_kind: str = "disk",
) -> list[ExperimentRecord]:
    """Repeat single_experiment with (h, N, eps) drawn log-uniformly per trial.

    Each trial derives its own random stream from (base_seed, trial index), so
    the full sweep is reproducible and individual trials can be re-run from the
    seed stored on their record.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    records = []
    for t in range(trials):
        rng = np.random.default_rng([base_seed, t])
        h = _log_uniform(rng, *h_range)
        n = int(round(_log_uniform(rng, *n_range)))
        n = max(n, 2 * d + 2)
        eps = _log_uniform(rng, *eps_range)
        noise_seed = int(rng.integers(0, 2**63 - 1))
        records.append(
            single_experiment(p, d, h, n, eps, scheme, noise_seed, noise_kind)
        )
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
        weights=tuple(float(v) for v in w),
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
    noise_kind: str = "disk",
) -> tuple[list[ExperimentRecord], PhaseBoundaryFit]:
    """Sweep (srf, eps) space and fit the success/failure boundary.

    The outcome of a trial is all-nodes success, or the success of one node
    when node_index (1-based) is given.  The boundary is the 50% level set of
    a logistic fit in (log10 srf, log10 eps); its slope is the exponent of the
    critical noise level as a power of srf.

    Raises DegenerateFitError when every trial shares one outcome.
    """
    records = amplification_sweep(
        p, d, h_range, n_range, eps_range, trials, scheme, base_seed, noise_kind
    )
    outcomes = []
    rows = []
    for rec in records:
        if node_index is None:
            ok = rec.all_success()
        else:
            if not 1 <= node_index <= d:
                raise ValueError("node_index must lie in 1..d")
            ok = bool(rec.successes[node_index - 1])
        eps_for_fit = rec.epsilon0
        if not math.isfinite(eps_for_fit) or eps_for_fit <= 0:
            eps_for_fit = rec.epsilon_requested
        outcomes.append(ok)
        rows.append((1.0, math.log10(rec.srf), math.log10(eps_for_fit)))
    outcome_arr = np.array(outcomes, dtype=float)
    if outcome_arr.min() == outcome_arr.max():
        raise DegenerateFitError("degenerate fit: all trials share one outcome")
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
    factors; fewer than 10 of them raises InsufficientDataError.
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
    return _ols_loglog(xs, ys)


def _record_rows(record: ExperimentRecord) -> list[dict]:
    rows = []
    for j in range(record.d):
        rows.append(
            {
                "scheme": record.scheme,
                "p": record.p,
                "d": record.d,
                "h": record.h,
                "N": record.n_samples,
                "eps_req": record.epsilon_requested,
                "eps0": record.epsilon0,
                "srf": record.srf,
                "node_index": j + 1,
                "node_class": record.node_class(j),
                "e": record.node_errors[j],
                "succ": record.successes[j],
                "Kx": record.kx[j],
                "Ka": record.ka[j],
                "seed": record.seed,
            }
        )
    return rows


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_records_csv(records, stream, config: Optional[dict] = None) -> None:
    """Write one CSV row per (record, node); metadata goes in comment lines.

    The timestamp, when present in config under key "timestamp", is confined
    to its own comment line so outputs stay byte-comparable without it.
    """
    if config:
        meta = dict(config)
        stamp = meta.pop("timestamp", None)
        if stamp is not None:
            stream.write(f"# timestamp: {stamp}\n")
        stream.write(f"# config: {json.dumps(meta, sort_keys=True)}\n")
    stream.write(CSV_HEADER + "\n")
    writer = csv.writer(stream, lineterminator="\n")
    for record in records:
        for row in _record_rows(record):
            writer.writerow([_format_cell(row[key]) for key in CSV_HEADER.split(",")])


def write_records_jsonl(records, stream, config: Optional[dict] = None) -> None:
    """JSON-lines alternative to the CSV output with the same fields."""
    if config:
        stream.write(json.dumps({"config": config}, sort_keys=True) + "\n")
    for record in records:
        for row in _record_rows(record):
            clean = {
                k: (None if isinstance(v, float) and math.isnan(v) else v)
                for k, v in row.items()
            }
            stream.write(json.dumps(clean, sort_keys=True) + "\n")
