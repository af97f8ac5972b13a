"""Monte Carlo recovery experiments: error-amplification factors and noise
thresholds for clustered signals.

A single experiment builds the standard clustered layout, rescales it to the
unit torus, samples its spectrum under one of two perturbation schemes, runs
the Matrix Pencil estimator, and records per-node errors, success flags, and
noise-normalized amplification factors.  Sweeps repeat this over log-uniform
parameter draws and the fitting helpers extract the power-law scalings.
"""

from __future__ import annotations

import math
import operator
import struct
import sys
from array import array
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
    _check_cluster_indices,
    _check_standard_extent,
    _standard_nodes,
    clean_spectrum,
    sample_spectrum,
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

# amplification_sweep draws the arguments of this many trials, each from its
# own stream and in trial order, before it runs them, so that one np.exp
# serves the block.  The block, not the sweep, bounds the draws held at
# once: about 60 KB (tracemalloc) whatever the trial count.
_DRAW_BLOCK = 256

# The least span of log10(srf), in decades, over which the fits below fit a
# slope.  A narrower sweep fixes none: at 0.01 decade the standard error of a
# p = 2 cluster node slope is about 5, ten times its value at 0.1 decade.
_MIN_LOG_SRF_SPAN = 0.1


# A record's measured numbers, as float64: the header h, epsilon_requested,
# epsilon0, then, for a trial that scored its nodes, a node block of the d
# node errors and the d amplitude factors.
_HEADER = struct.Struct("3d")


@lru_cache(maxsize=64)
def _layout(d: int) -> struct.Struct:
    """The header and node block of a scored record with d nodes."""
    return struct.Struct(f"{3 + 2 * d}d")


@dataclass(frozen=True, slots=True)
class ExperimentRecord:
    """Outcome of one recovery experiment.

    h is the cluster extent of the [0, pi] layout before rescaling to the
    torus; srf = 1/(N * gap) with gap the rescaled cluster spacing.  Per-node
    tuples are indexed like the true nodes (the first p are the cluster);
    amplification factors are present exactly where the node succeeded, the
    measured noise was nonzero and the factor is finite, and None elsewhere.
    failure tags records where the estimator or the worst-case construction
    raised instead of returning an estimate.

    A sweep holds thousands of records, so the class is slotted (no
    __dict__) and keeps the trial's measured numbers as float64 in the one
    bytes value numbers: h, epsilon_requested and epsilon0, then, only for
    a trial that scored its nodes, the d node errors and the d amplitude
    factors (NaN for a missing factor).  Build a record with build(), which
    packs them; h, epsilon_requested, epsilon0, node_errors and ka unpack
    them on each read, and srf and the node factors kx = e N / epsilon0 are
    computed from them.  A record without node errors reads NaN errors and
    missing factors, from tuples shared by every such record with the same
    d.  Success flags come from a bounded cache keyed by the flags, so
    records with equal flags mostly share one tuple.  Compare records by
    value and do not rely on the identity of what they return.
    """

    scheme: str
    p: int
    d: int
    n_samples: int
    successes: tuple
    failure: Optional[str]
    seed: int
    numbers: bytes

    @classmethod
    def build(
        cls,
        scheme: str,
        p: int,
        d: int,
        h: float,
        n_samples: int,
        epsilon_requested: float,
        epsilon0: float,
        seed: int,
        successes: tuple,
        node_errors: Optional[Sequence[float]] = None,
        ka: Optional[Sequence[float]] = None,
        failure: Optional[str] = None,
    ) -> "ExperimentRecord":
        """The record of a trial, with its floats packed into numbers.

        A trial that scored its nodes passes its d node errors and its d
        amplitude factors, NaN where a factor is missing; one that did not
        passes neither and stores no node block.  The floats read back as
        Python floats, bit for bit; the other arguments are kept as given.
        """
        if node_errors is None:
            numbers = _HEADER.pack(h, epsilon_requested, epsilon0)
        else:
            numbers = _layout(d).pack(h, epsilon_requested, epsilon0, *node_errors, *ka)
        return cls(scheme, p, d, n_samples, successes, failure, seed, numbers)

    def _values(self) -> tuple:
        """h, epsilon_requested and epsilon0, then the node block if the
        record stores one: the d node errors and the d amplitude factors,
        NaN where a factor is missing."""
        if len(self.numbers) == _HEADER.size:
            return _HEADER.unpack(self.numbers)
        return _layout(self.d).unpack(self.numbers)

    @property
    def h(self) -> float:
        return _HEADER.unpack_from(self.numbers)[0]

    @property
    def epsilon_requested(self) -> float:
        return _HEADER.unpack_from(self.numbers)[1]

    @property
    def epsilon0(self) -> float:
        return _HEADER.unpack_from(self.numbers)[2]

    @property
    def node_errors(self) -> tuple:
        d, values = self.d, self._values()
        return values[3 : 3 + d] if len(values) > 3 else _unscored_nodes(d)[0]

    @property
    def ka(self) -> tuple:
        d, values = self.d, self._values()
        return _present(values[3 + d :]) if len(values) > 3 else _unscored_nodes(d)[1]

    @property
    def srf(self) -> float:
        """1/(N * gap), as _srf computes it from p, h and N."""
        return _srf(self.p, self.h, self.n_samples)

    @property
    def kx(self) -> tuple:
        """Node factors e N / epsilon0 where the node succeeded and the factor
        is finite, else None; a fresh tuple on each read unless shared."""
        d, values = self.d, self._values()
        if len(values) == 3:
            return _unscored_nodes(d)[1]
        return _present(
            _node_factors(values[3 : 3 + d], self.successes, self.n_samples, values[2])
        )

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
    matrix of distances between two node sets.  Symmetric, and exact given
    the difference a - b: subtracting its nearest integer rounds nothing,
    where reducing it mod 1 would round a small negative difference.
    """
    diff = a - b
    return np.abs(diff - np.rint(diff))


def _check_scheme(scheme: str) -> None:
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")


@lru_cache(maxsize=64)
def _scheme_amplitudes(scheme: str, d: int) -> np.ndarray:
    """Read-only amplitudes of a scheme's d nodes, built once per (scheme, d)."""
    _check_scheme(scheme)
    if scheme == "S1":
        amps = 1j ** np.arange(d)
    else:
        amps = ((-1.0) ** np.arange(d)).astype(complex)
    amps.flags.writeable = False
    return amps


@lru_cache(maxsize=256)
def _shared_flags(successes: tuple) -> tuple:
    """The first tuple seen of a pattern of success flags, so the records
    of a sweep hold one tuple per pattern rather than one per trial."""
    return successes


@lru_cache(maxsize=64)
def _unscored_nodes(d: int) -> tuple:
    """Node errors and node factors of a record with d nodes and no node
    block, built once per d and shared by every such record: all NaN and
    all missing."""
    return (math.nan,) * d, (None,) * d


def _factors(values: list, successes: tuple) -> list:
    """Each factor where its node succeeded and the factor is finite, else NaN."""
    return [
        v if ok and math.isfinite(v) else math.nan for v, ok in zip(values, successes)
    ]


def _node_factors(errors, successes, n_samples: int, eps0: float) -> list:
    """The node factors e N / eps0 of the node errors, by _factors."""
    if not eps0 > 0:
        return [math.nan] * len(errors)
    # a subnormal eps0 can overflow a factor to inf, which Python float
    # division returns without a warning; it is kept as missing
    return _factors([e * n_samples / eps0 for e in errors], successes)


def _present(factors) -> tuple:
    """The factors with None for each NaN, which marks a missing factor."""
    return tuple(None if math.isnan(v) else v for v in factors)


def _nearest_gaps(nodes: list) -> list:
    """Distance from each of a strictly increasing list of nodes to its
    nearest other node, inf for a lone node.  Float subtraction rounds
    monotonically, so a farther node is never computed as closer than a
    neighbour, and the neighbour gaps give the minimum over all pairs."""
    gaps = [b - a for a, b in zip(nodes, nodes[1:])]
    return list(map(min, [math.inf, *gaps], [*gaps, math.inf]))


def _srf(p: int, h: float, n_samples: int) -> float:
    """1/(N * gap) with gap the cluster spacing of the layout rescaled to the
    torus.  An h too small for a finite srf raises ValueError."""
    gap = (h / (2.0 * math.pi)) / (p - 1)
    # a gap that underflows to 0 has no finite srf either
    srf = 1.0 / (n_samples * gap) if gap else math.inf
    if not math.isfinite(srf):
        raise ValueError(f"cluster extent h={h!r} is too small for a finite srf")
    return srf


def _measure(
    train: SpikeTrain, p: int, n_samples: int, epsilon: float, scheme: str, seed: int
) -> SpectralSamples:
    """The trial's samples and their measured noise epsilon0: S1 samples with
    bounded random noise, S2 the exact spectrum of the worst-case signal,
    with epsilon0 its deviation from the clean spectrum of train."""
    if scheme == "S1":
        return sample_spectrum(train, n_samples, epsilon, seed)
    values = clean_spectrum(worst_case_signal(train, p, epsilon).perturbed, n_samples)
    return SpectralSamples(
        values, float(np.abs(clean_spectrum(train, n_samples) - values).max())
    )


def _score(x: list, train: SpikeTrain, estimate: SpikeTrain, eps0: float) -> tuple:
    """Per-node errors, success flags and amplitude factors (NaN where
    missing) of an estimate of train, whose nodes are x as Python floats."""
    # dist[j, l]: estimate j to true node l.  True node l is scored by its
    # nearest estimate, and Ka compares true node l with that estimate.
    dist = _circular_distance(estimate.nodes[:, None], train.nodes[None, :])
    errors = dist.min(axis=0).tolist()
    # Python scalars on the d per-node values, for the reason prony.py
    # gives; they round as float64 does.
    successes = _shared_flags(
        tuple(e < gap / 3.0 for e, gap in zip(errors, _nearest_gaps(x)))
    )
    if not eps0 > 0:
        return errors, successes, [math.nan] * len(x)
    amp_err = train.amplitudes - estimate.amplitudes[dist.argmin(axis=0)]
    # hypot, not np.abs: complex np.abs may differ from the scalar abs in
    # the last ulp, and hypot matches it bit for bit
    amp_errors = np.hypot(amp_err.real, amp_err.imag).tolist()
    return errors, successes, _factors([a / eps0 for a in amp_errors], successes)


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

    The nodes are the layout of make_clustered_nodes(standard_cluster_geometry(
    p, d, h)), built as Python floats by signal._standard_nodes with the same
    checks and bits, divided by 2 pi so they live in [0, 1/2).  Scheme S1
    samples the spectrum with bounded random noise, scheme S2 samples the
    exact spectrum of worst_case_signal(train, p, epsilon).perturbed, which
    perturbs the cluster of the first p nodes at level epsilon.  The measured
    perturbation epsilon0 is the largest deviation of the samples from the
    clean spectrum of the unperturbed signal.  Node j succeeds when the
    nearest estimate lands within a third of its separation from the other
    true nodes; on success the node and amplitude errors are normalized by
    epsilon0/N and epsilon0 respectively.

    The trial measures (_measure), estimates (mp_recover) and scores
    (_score); each stage calls the public functions through this module's
    names.  h and epsilon are taken as Python floats and p, d, n_samples and
    seed as Python ints, so numpy scalars give the record a Python call
    gives; a count that is not an integer, such as 64.0, raises TypeError.
    """
    p, d, n_samples, seed = map(operator.index, (p, d, n_samples, seed))
    h, epsilon = float(h), float(epsilon)
    if n_samples < 2 * d:
        raise ValueError("need at least 2 d samples")
    _check_cluster_indices(p, d)
    x = [node / (2.0 * math.pi) for node in _standard_nodes(p, d, h)]
    train = SpikeTrain(amplitudes=_scheme_amplitudes(scheme, d), nodes=x)

    # the record computes its srf on read; a draw that gives none fails here
    _srf(p, h, n_samples)

    eps0 = math.nan
    try:
        samples = _measure(train, p, n_samples, epsilon, scheme, seed)
        # a worst-case failure leaves eps0 NaN; an estimator failure keeps it
        eps0 = samples.actual_noise
        estimate = mp_recover(samples, d).estimate
    except SpikesrError as exc:
        # interned, so the records of a sweep share each distinct message
        return ExperimentRecord.build(
            scheme, p, d, h, n_samples, epsilon, eps0, seed, _shared_flags((False,) * d),
            failure=sys.intern(str(exc)),
        )
    errors, successes, ka = _score(x, train, estimate, eps0)
    return ExperimentRecord.build(
        scheme, p, d, h, n_samples, epsilon, eps0, seed, successes, errors, ka
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
    seed stored on their record.  A sample count drawn below 2d+2 is raised
    to 2d+2; an n_range whose upper bound rounds below 2d+2 raises ValueError
    before any trial.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    log_h, log_n, log_eps = map(_log_bounds, (h_range, n_range, eps_range))
    _check_standard_extent(h_range[1])
    _check_cluster_indices(p, d)
    if round(n_range[1]) < 2 * d + 2:
        raise ValueError(
            f"n_range must reach 2 d + 2 = {2 * d + 2} samples; "
            f"its upper bound rounds to {round(n_range[1])}"
        )
    # The largest srf a trial can draw, from the least h and N; each trial
    # checks its own drawn h again, against rounding in the draw.
    _srf(p, h_range[0], max(round(n_range[0]), 2 * d + 2))
    records = []
    for start in range(0, trials, _DRAW_BLOCK):
        logs, noise_seeds = [], []
        for t in range(start, min(start + _DRAW_BLOCK, trials)):
            rng = np.random.default_rng([base_seed, t])
            logs += (rng.uniform(*log_h), rng.uniform(*log_n), rng.uniform(*log_eps))
            noise_seeds.append(int(rng.integers(0, 2**63 - 1)))
        draws = iter(np.exp(logs).tolist())
        for h, n, eps, noise_seed in zip(draws, draws, draws, noise_seeds):
            n = max(round(n), 2 * d + 2)
            records.append(single_experiment(p, d, h, n, eps, scheme, noise_seed))
    return records


def _logistic_boundary(features: np.ndarray, outcomes: np.ndarray) -> PhaseBoundaryFit:
    """Newton-iterated logistic regression of outcome on [1, log srf, log eps]."""
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

    eps is the noise on the samples.  Under S1 it is the measured eps0, or
    the requested bound where a trial measured no finite positive eps0.
    Under S2 a rejected construction measures no eps0, so every trial takes
    the same unit: the leading-order spectral size of the requested bump,
    eps (2 pi (N - 1))^(2p-1) / (2p-1)!, from the Taylor term of order 2p-1
    at the highest sampled frequency N - 1.  It is a leading-order
    approximation: on the accepted trials of a 2 000-trial sweep on the
    default phase ranges it is about 1.08 eps0 in the median at p = 2, d = 3,
    and about 10^4 eps0 at p = 3, d = 5.

    Raises DegenerateFitError when every trial shares one outcome, or when
    the trials span less than 0.1 decade of srf.
    """
    if node_index is not None:
        node_index = operator.index(node_index)
        if not 1 <= node_index <= d:
            raise ValueError("node_index must lie in 1..d")
    records = amplification_sweep(
        p, d, h_range, n_range, eps_range, trials, scheme, base_seed
    )
    n = len(records)
    if node_index is None:
        outcomes = np.fromiter((rec.all_success() for rec in records), float, n)
    else:
        k = node_index - 1
        outcomes = np.fromiter((rec.successes[k] for rec in records), float, n)
    # rows [1, log10 srf, log10 eps]; math.log10 keeps the scalar bits
    features = np.ones((n, 3))
    features[:, 1] = np.fromiter((math.log10(rec.srf) for rec in records), float, n)
    if scheme == "S1":
        log_eps = (
            math.log10(rec.epsilon0 if 0 < rec.epsilon0 < math.inf else rec.epsilon_requested)
            for rec in records
        )
    else:
        order = 2 * p - 1
        log_factorial = math.log10(math.factorial(order))
        log_eps = (
            math.log10(rec.epsilon_requested)
            + order * math.log10(2.0 * math.pi * (rec.n_samples - 1))
            - log_factorial
            for rec in records
        )
    features[:, 2] = np.fromiter(log_eps, float, n)
    if outcomes.min() == outcomes.max():
        raise DegenerateFitError("degenerate fit: all trials share one outcome")
    if features[:, 1].max() - features[:, 1].min() < _MIN_LOG_SRF_SPAN:
        raise DegenerateFitError(
            f"degenerate fit: the trials span less than {_MIN_LOG_SRF_SPAN} decade of srf"
        )
    fit = _logistic_boundary(features, outcomes)
    return records, fit


def _ols_loglog(xs: Sequence[float], ys: Sequence[float]) -> SlopeFit:
    """Least-squares line through (log10 x, log10 y) from centred sums:
    slope = sum(dx dy) / sum(dx^2), with the residuals formed in place.
    The x values must not all be equal."""
    lx = np.array(xs, dtype=float)
    ly = np.array(ys, dtype=float)
    np.log10(lx, out=lx)
    np.log10(ly, out=ly)
    n = len(lx)
    x_mean, y_mean = float(lx.mean()), float(ly.mean())
    lx -= x_mean
    ly -= y_mean
    ss_tot = float(ly @ ly)
    slope = float(lx @ ly) / float(lx @ lx)
    lx *= slope
    ly -= lx
    ss_res = float(ly @ ly)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    resid_std = math.sqrt(ss_res / (n - 2)) if n > 2 else 0.0
    return SlopeFit(
        slope=slope,
        intercept=y_mean - slope * x_mean,
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
    # float buffers hold no float object per point; each record's numbers
    # are unpacked once, and srf is computed once per record that has a point
    xs, ys = array("d"), array("d")
    cluster, node = node_class == "cluster", quantity == "kx"
    for rec in records:
        if len(rec.numbers) == _HEADER.size:
            continue  # no node block, so no factors
        p, d, n_samples = rec.p, rec.d, rec.n_samples
        h, _, eps0, *block = _layout(d).unpack(rec.numbers)
        lo, hi = (0, p) if cluster else (p, d)
        if not node:
            values = block[d + lo : d + hi]
        elif eps0 > 0:
            # the factors of _node_factors, inline and without its finite
            # test, which the test below repeats: calling it took the four
            # fits of a 500-trial S2 pass from 1.6 to 1.8-2.6 ms
            values = [
                e * n_samples / eps0 if ok else math.nan
                for e, ok in zip(block[lo:hi], rec.successes[lo:hi])
            ]
        else:
            continue
        srf = None
        for value in values:
            # false for NaN, the missing factor, and for inf
            if 0 < value < math.inf:
                if srf is None:
                    srf = _srf(p, h, n_samples)
                xs.append(srf)
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


def write_records_csv(records, stream) -> None:
    """Write one CSV row per (record, node) under CSV_HEADER, one write per
    record.

    Every number cell is the str of its value, so a numpy scalar count
    writes the same number as the Python int it holds; a success flag is
    true or false, a missing factor is an empty cell, and node_class is
    cluster for node indices 1..p, else noncluster.  The scheme cell is
    written as it is: a record whose scheme is not in SCHEMES raises
    ValueError, one whose node block does not hold 2 d values raises
    struct.error, and one with fewer than d success flags raises IndexError,
    before any of its rows is written.
    """
    stream.write(CSV_HEADER + "\n")
    for rec in records:
        _check_scheme(rec.scheme)
        # the record's numbers are unpacked, and its trial cells, srf and kx
        # formed, once per record
        p, d, n_samples, flags = rec.p, rec.d, rec.n_samples, rec.successes
        h, eps_req, eps0, *block = rec._values()
        trial = (
            f"{rec.scheme},{p!s},{d!s},{h!s},{n_samples!s},"
            f"{eps_req!s},{eps0!s},{_srf(p, h, n_samples)!s}"
        )
        tail = f",{rec.seed!s}\n"
        if block:
            kx = _node_factors(block[:d], flags, n_samples, eps0)
            # a NaN factor, the missing one, is the one cell unequal to itself
            rows = [
                f"{trial},{j + 1},{'cluster' if j < p else 'noncluster'},{block[j]!s},"
                f"{'true' if flags[j] else 'false'},{'' if kx[j] != kx[j] else str(kx[j])},"
                f"{'' if block[d + j] != block[d + j] else str(block[d + j])}{tail}"
                for j in range(d)
            ]
        else:
            # no node block: every node error is NaN and every factor missing
            rows = [
                f"{trial},{j + 1},{'cluster' if j < p else 'noncluster'},nan,"
                f"{'true' if flags[j] else 'false'},,{tail}"
                for j in range(d)
            ]
        stream.write("".join(rows))
