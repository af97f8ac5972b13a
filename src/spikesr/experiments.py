"""Monte Carlo recovery experiments: error-amplification factors and noise
thresholds for clustered signals.

A single experiment builds the standard clustered layout, rescales it to the
unit torus, samples its spectrum under one of two perturbation schemes, runs
the Matrix Pencil estimator, and records per-node node and amplitude errors
and success flags, from which the noise-normalized amplification factors are
derived.  Sweeps repeat this over log-uniform parameter draws and the fitting
helpers extract the power-law scalings.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby, repeat
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
    "Sweep",
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


@lru_cache(maxsize=64)
def _trial_dtype(d: int) -> np.dtype:
    """What one trial of d nodes measured, as one numpy record: h,
    epsilon_requested and epsilon0 (float64), n_samples and seed (int64),
    and d per-node values of successes (bool), node_errors and
    amplitude_errors (float64, |a - a_est| per node, NaN where missing)."""
    return np.dtype([
        ("h", np.float64), ("epsilon_requested", np.float64), ("epsilon0", np.float64),
        ("n_samples", np.int64), ("seed", np.int64), ("successes", np.bool_, (d,)),
        ("node_errors", np.float64, (d,)), ("amplitude_errors", np.float64, (d,)),
    ])


@dataclass(frozen=True, eq=False)
class Sweep:
    """The outcomes of a sweep's trials: one record of _trial_dtype(d) per
    trial, and the failure of each.

    Each field of the trials reads as a read-only column indexed by trial,
    such as sweep.h or sweep.successes (n x d); the nodes are indexed like
    the true nodes (the first p are the cluster).  failure_code holds a
    small unsigned integer per trial, 0 where the trial returned an
    estimate, else k where it raised failure_messages[k - 1].  A trial that
    raised has all-false successes and NaN node and amplitude errors; its
    epsilon0 is NaN when the worst-case construction raised and measured
    when the estimator did.  A Sweep is checked on construction: its scheme
    is in SCHEMES, 2 <= p <= d and its trials are of _trial_dtype(d), or it
    raises ValueError.  Its arrays are made read-only then, so a copy or an
    unpickled Sweep is frozen too.

    A Sweep is a sequence of its trials' rows: len() counts its trials, and
    indexing or iterating gives ExperimentRecord views.  It compares by
    identity; compare the rows to compare outcomes.
    """

    scheme: str
    p: int
    d: int
    trials: np.ndarray
    failure_code: np.ndarray
    failure_messages: tuple

    def __post_init__(self):
        _check_scheme(self.scheme)
        _check_cluster_indices(self.p, self.d)
        if self.trials.dtype != _trial_dtype(self.d):
            raise ValueError(f"trials must be of the trial dtype of d={self.d}")
        self.trials.setflags(write=False)
        self.failure_code.setflags(write=False)

    def __len__(self) -> int:
        return len(self.trials)

    def __getitem__(self, index: int) -> "ExperimentRecord":
        index, n = operator.index(index), len(self.trials)
        if not -n <= index < n:
            raise IndexError("sweep index out of range")
        return ExperimentRecord(self, index % n)

    def __iter__(self):
        return map(ExperimentRecord, repeat(self), range(len(self.trials)))

    def __reduce__(self):
        # numpy unpickles an array writeable; the constructor freezes it again
        return Sweep, tuple(vars(self).values())

    def _take(self, indices) -> "Sweep":
        """The trials at indices, a slice or a sequence of indices, as a Sweep."""
        trials, codes = self.trials[indices], self.failure_code[indices]
        return Sweep(self.scheme, self.p, self.d, trials, codes, self.failure_messages)


def _cell(name: str) -> property:
    """A row's cell of a trial field as a Python value, or as a tuple of
    Python values for a per-node field."""

    def read(row):
        value = row._sweep.trials[name][row._index].tolist()
        return tuple(value) if isinstance(value, list) else value

    return property(read)


@dataclass(frozen=True, eq=False, repr=False)
class ExperimentRecord:
    """The outcome of one recovery experiment: a frozen view of one row of a
    Sweep, whose two fields are the Sweep and the row's index.

    h is the cluster extent of the [0, pi] layout before rescaling to the
    torus; srf = 1/(N * gap) with gap the rescaled cluster spacing.  Per-node
    tuples are indexed like the true nodes (the first p are the cluster);
    the factors kx = e N / epsilon0 and ka = |a - a_est| / epsilon0 are
    present exactly where the node succeeded, the measured noise was
    positive and the factor is finite, and None elsewhere.  failure is the
    message of the error that the estimator or the worst-case construction
    raised instead of returning an estimate, else None.

    Every attribute is read from the Sweep as Python values: each field of
    the trials under the name of its Sweep column, a per-node one as a
    tuple, and srf, kx and ka computed on each read by _srf and _factors,
    as the fit and the CSV writer compute them.  Rows compare and hash by
    their scheme, p, d, failure and the bytes of their trial, so a row of a
    sweep equals the row single_experiment returns for the same trial, and a
    row pickles and copies alone, as a one-trial Sweep of its own values.
    """

    __slots__ = ("_sweep", "_index")
    _sweep: Sweep
    _index: int

    scheme = property(operator.attrgetter("_sweep.scheme"))
    p = property(operator.attrgetter("_sweep.p"))
    d = property(operator.attrgetter("_sweep.d"))

    @property
    def failure(self) -> Optional[str]:
        code = self._sweep.failure_code[self._index]
        return self._sweep.failure_messages[code - 1] if code else None

    @property
    def srf(self) -> float:
        sweep, index = self._sweep, self._index
        return _srf(sweep.p, sweep.h[index], sweep.n_samples[index]).item()

    def _factor_cells(self, quantity: str) -> tuple:
        factors = _factors(self._sweep._take([self._index]), quantity)[0].tolist()
        # NaN, the one value unequal to itself, marks a missing factor
        return tuple([None if v != v else v for v in factors])

    kx = property(lambda row: row._factor_cells("kx"))
    ka = property(lambda row: row._factor_cells("ka"))

    def all_success(self) -> bool:
        return bool(all(self._sweep.successes[self._index]))

    def _key(self) -> tuple:
        """The row's values, with its trial as its bytes, so that a NaN
        compares equal to itself and -0.0 unequal to 0.0."""
        trial = self._sweep.trials[self._index].tobytes()
        return self.scheme, self.p, self.d, self.failure, trial

    def __eq__(self, other):
        if not isinstance(other, ExperimentRecord):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        trial = tuple([getattr(self, name) for name in self._sweep.trials.dtype.names])
        return _trial_row, (self.scheme, self.p, self.d, self.failure, trial)

    def __repr__(self) -> str:
        names = ("scheme", "p", "d", *self._sweep.trials.dtype.names, "failure")
        cells = (f"{name}={getattr(self, name)!r}" for name in names)
        return f"ExperimentRecord({', '.join(cells)})"


# each field of the trials is a read-only column of a Sweep, and a cell of a
# row under the same name
for _name in _trial_dtype(2).names:
    setattr(Sweep, _name, property(lambda sweep, name=_name: sweep.trials[name]))
    setattr(ExperimentRecord, _name, _cell(_name))


def _trial_row(scheme, p, d, failure, trial: tuple) -> ExperimentRecord:
    """The row of a one-trial Sweep of the given values, with trial the cells
    of _trial_dtype(d) in its order."""
    messages = () if failure is None else (failure,)
    # code 1 names the one message of a failed trial
    codes = np.array([len(messages)], np.uint8)
    sweep = Sweep(scheme, p, d, np.array([trial], _trial_dtype(d)), codes, messages)
    return ExperimentRecord(sweep, 0)


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
    amps.setflags(write=False)
    return amps


def _factors(sweep: Sweep, quantity: str) -> np.ndarray:
    """The node ("kx", e N / epsilon0) or amplitude ("ka") factors of each
    trial and node of a Sweep: each where the node succeeded, epsilon0 > 0
    and the factor is finite (a subnormal epsilon0 can overflow it), else NaN."""
    if quantity == "kx":
        numerators = sweep.node_errors * sweep.n_samples[:, None]
    else:
        numerators = sweep.amplitude_errors
    eps0 = sweep.epsilon0[:, None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        values = numerators / eps0
    return np.where(sweep.successes & (eps0 > 0) & np.isfinite(values), values, np.nan)


def _nearest_gaps(nodes: list) -> list:
    """Distance from each of a strictly increasing list of nodes to its
    nearest other node, inf for a lone node.  Float subtraction rounds
    monotonically, so a farther node is never computed as closer than a
    neighbour, and the neighbour gaps give the minimum over all pairs."""
    gaps = [b - a for a, b in zip(nodes, nodes[1:])]
    return list(map(min, [math.inf, *gaps], [*gaps, math.inf]))


def _srf(p: int, h, n_samples):
    """1/(N * gap) with gap the cluster spacing of the layout rescaled to the
    torus, of one trial or, to the same bits, of columns of trials."""
    return 1.0 / (n_samples * ((h / (2.0 * math.pi)) / (p - 1)))


def _check_srf(p: int, h: float, n_samples: int) -> None:
    """Raise ValueError where h is too small for a finite _srf."""
    try:
        srf = _srf(p, h, n_samples)
    except ZeroDivisionError:  # the gap underflows to 0
        srf = math.inf
    if not math.isfinite(srf):
        raise ValueError(f"cluster extent h={h!r} is too small for a finite srf")


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


def _score(x: list, train: SpikeTrain, estimate: SpikeTrain) -> tuple:
    """Per-node errors, success flags and amplitude errors of an estimate of
    train, whose nodes are x as Python floats, as arrays for the trial's
    record."""
    # dist[j, l]: estimate j to true node l.  True node l is scored by its
    # nearest estimate, and its amplitude error is against that estimate.
    dist = _circular_distance(estimate.nodes[:, None], train.nodes[None, :])
    errors = dist.min(axis=0)
    successes = errors < np.divide(_nearest_gaps(x), 3.0)
    amp_err = train.amplitudes - estimate.amplitudes[dist.argmin(axis=0)]
    # hypot, not np.abs: complex np.abs may differ from the scalar abs in
    # the last ulp, and hypot matches it bit for bit
    return errors, successes, np.hypot(amp_err.real, amp_err.imag)


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
    gives; a count that is not an integer, such as 64.0, raises TypeError,
    and a seed outside the int64 field of the trial, negative or from 2**63
    up, ValueError.  The record is the row of a one-trial Sweep.
    """
    p, d, n_samples, seed = map(operator.index, (p, d, n_samples, seed))
    h, epsilon = float(h), float(epsilon)
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    if seed >= 2**63:
        raise ValueError("seed must be below 2**63")
    if n_samples < 2 * d:
        raise ValueError("need at least 2 d samples")
    _check_cluster_indices(p, d)
    x = [node / (2.0 * math.pi) for node in _standard_nodes(p, d, h)]
    train = SpikeTrain(amplitudes=_scheme_amplitudes(scheme, d), nodes=x)

    # the record computes its srf on read; a draw that gives none fails here
    _check_srf(p, h, n_samples)

    eps0, failure = math.nan, None
    try:
        samples = _measure(train, p, n_samples, epsilon, scheme, seed)
        # a worst-case failure leaves eps0 NaN; an estimator failure keeps it
        eps0 = samples.actual_noise
        estimate = mp_recover(samples, d).estimate
    except SpikesrError as exc:
        failure, errors = str(exc), [math.nan] * d
        successes, amplitude_errors = (False,) * d, errors
    else:
        errors, successes, amplitude_errors = _score(x, train, estimate)
    trial = (h, epsilon, eps0, n_samples, seed, successes, errors, amplitude_errors)
    return _trial_row(scheme, p, d, failure, trial)


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
) -> Sweep:
    """Repeat single_experiment with (h, N, eps) drawn log-uniformly per trial.

    Each trial derives its own random stream from (base_seed, trial index), so
    the full sweep is reproducible and individual trials can be re-run from the
    seed stored on their record.  A sample count drawn below 2d+2 is raised
    to 2d+2; an n_range whose upper bound rounds below 2d+2 raises ValueError
    before any trial, as do an unknown scheme and a negative base_seed; a
    base_seed that is not an integer raises TypeError.  Each trial's record
    is copied into the trials of the returned Sweep, and each distinct
    failure message is kept once.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    _check_scheme(scheme)
    if not hasattr(type(base_seed), "__index__"):
        raise TypeError(f"base_seed must be an integer, not {base_seed!r}")
    if base_seed < 0:
        raise ValueError(f"base_seed must be a non-negative integer, not {base_seed!r}")
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
    _check_srf(p, h_range[0], max(round(n_range[0]), 2 * d + 2))
    table = np.empty(trials, _trial_dtype(d))
    codes, messages = array("L"), {}
    for start in range(0, trials, _DRAW_BLOCK):
        logs, noise_seeds = [], []
        for t in range(start, min(start + _DRAW_BLOCK, trials)):
            rng = np.random.default_rng([base_seed, t])
            logs += (rng.uniform(*log_h), rng.uniform(*log_n), rng.uniform(*log_eps))
            noise_seeds.append(int(rng.integers(0, 2**63 - 1)))
        draws = iter(np.exp(logs).tolist())
        trial_draws = zip(draws, draws, draws, noise_seeds)
        for index, (h, n, eps, noise_seed) in enumerate(trial_draws, start):
            n = max(round(n), 2 * d + 2)
            row = single_experiment(p, d, h, n, eps, scheme, noise_seed)
            table[index] = row._sweep.trials[row._index]
            failure = row.failure
            code = 0 if failure is None else messages.setdefault(failure, len(messages) + 1)
            codes.append(code)
    codes = np.array(codes, np.min_scalar_type(len(messages)))
    return Sweep(scheme, p, d, table, codes, tuple(messages))


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
) -> tuple[Sweep, PhaseBoundaryFit]:
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
    sweep = amplification_sweep(
        p, d, h_range, n_range, eps_range, trials, scheme, base_seed
    )
    n, flags = len(sweep), sweep.successes
    outcomes = flags.all(axis=1) if node_index is None else flags[:, node_index - 1]
    outcomes = outcomes.astype(float)
    # rows [1, log10 srf, log10 eps]; math.log10 keeps the scalar bits
    features = np.ones((n, 3))
    srf = _srf(p, sweep.h, sweep.n_samples)
    features[:, 1] = np.fromiter(map(math.log10, srf.tolist()), float, n)
    if scheme == "S1":
        eps0 = sweep.epsilon0
        measured = np.where((0 < eps0) & (eps0 < math.inf), eps0, sweep.epsilon_requested)
        log_eps = map(math.log10, measured.tolist())
    else:
        order = 2 * p - 1
        log_factorial = math.log10(math.factorial(order))
        draws = zip(sweep.epsilon_requested.tolist(), sweep.n_samples.tolist())
        log_eps = (
            math.log10(eps) + order * math.log10(2.0 * math.pi * (n - 1)) - log_factorial
            for eps, n in draws
        )
    features[:, 2] = np.fromiter(log_eps, float, n)
    if outcomes.min() == outcomes.max():
        raise DegenerateFitError("degenerate fit: all trials share one outcome")
    if features[:, 1].max() - features[:, 1].min() < _MIN_LOG_SRF_SPAN:
        raise DegenerateFitError(
            f"degenerate fit: the trials span less than {_MIN_LOG_SRF_SPAN} decade of srf"
        )
    return sweep, _logistic_boundary(features, outcomes)


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


def _runs(records):
    """Each run of consecutive rows of one Sweep in records, in order, as the
    Sweep of those rows (Sweep._take); a Sweep is one run of all its rows."""
    if isinstance(records, Sweep):
        yield records
        return
    for sweep, run in groupby(records, operator.attrgetter("_sweep")):
        yield sweep._take([row._index for row in run])


def _fit_points(run: Sweep, quantity: str, cluster: bool) -> tuple:
    """The (srf, factor) points of a Sweep, in row and then node order: the
    factors (_factors) of its cluster or non-cluster nodes that are present
    and positive."""
    nodes = slice(0, run.p) if cluster else slice(run.p, run.d)
    values = _factors(run, quantity)[:, nodes]
    # false for NaN, the missing factor
    usable = values > 0
    srf = np.broadcast_to(_srf(run.p, run.h, run.n_samples)[:, None], values.shape)
    return srf[usable], values[usable]


def fit_loglog_slope(
    records: Sweep | Iterable[ExperimentRecord],
    quantity: str = "kx",
    node_class: str = "cluster",
) -> SlopeFit:
    """OLS slope of log10(amplification factor) against log10(srf).

    records is a Sweep or any iterable of its rows, which may come from
    several Sweeps; each run of consecutive rows of one Sweep is read as
    one Sweep of those rows, and the points keep the order of the rows.
    quantity selects the node ("kx") or amplitude ("ka") factors; node_class
    selects "cluster" or "noncluster" nodes.  Only successful nodes carry
    factors; fewer than 10 of them, or points that span less than 0.1 decade
    of srf, raise InsufficientDataError.
    """
    if quantity not in ("kx", "ka"):
        raise ValueError("quantity must be 'kx' or 'ka'")
    if node_class not in ("cluster", "noncluster"):
        raise ValueError("node_class must be 'cluster' or 'noncluster'")
    points = [_fit_points(run, quantity, node_class == "cluster") for run in _runs(records)]
    xs = np.concatenate([x for x, _ in points]) if points else np.empty(0)
    ys = np.concatenate([y for _, y in points]) if points else np.empty(0)
    if len(xs) < 10:
        raise InsufficientDataError(
            f"insufficient data: {len(xs)} usable points in class {node_class!r}"
        )
    if math.log10(xs.max()) - math.log10(xs.min()) < _MIN_LOG_SRF_SPAN:
        raise InsufficientDataError(
            f"insufficient data: the {len(xs)} usable points in class {node_class!r} "
            f"span less than {_MIN_LOG_SRF_SPAN} decade of srf"
        )
    return _ols_loglog(xs, ys)


def write_records_csv(records: Sweep | Iterable[ExperimentRecord], stream) -> None:
    """Write one CSV row per (record, node) under CSV_HEADER, one write per
    record.

    records is a Sweep or any iterable of its rows, read as fit_loglog_slope
    reads them.  Every number cell is the str of its Python value; a success
    flag is true or false, a missing factor is an empty cell, and node_class
    is cluster for node indices 1..p, else noncluster.
    """
    stream.write(CSV_HEADER + "\n")
    for run in _runs(records):
        scheme, p, d = run.scheme, run.p, run.d
        # a block of trials at a time is read as Python lists
        for start in range(0, len(run), _DRAW_BLOCK):
            block = run._take(slice(start, start + _DRAW_BLOCK))
            columns = (
                block.h, block.n_samples, block.epsilon_requested, block.epsilon0,
                block.seed, block.successes, block.node_errors,
                _srf(p, block.h, block.n_samples), _factors(block, "kx"), _factors(block, "ka"),
            )
            for h, n, eps_req, eps0, seed, flags, errors, srf, kx, ka in zip(
                *[column.tolist() for column in columns]
            ):
                # the trial cells are formed once per record
                trial = f"{scheme},{p!s},{d!s},{h!s},{n!s},{eps_req!s},{eps0!s},{srf!s}"
                tail = f",{seed!s}\n"
                # a NaN factor, the missing one, is the one cell unequal to itself
                rows = [
                    f"{trial},{j + 1},{'cluster' if j < p else 'noncluster'},{errors[j]!s},"
                    f"{'true' if flags[j] else 'false'},{'' if kx[j] != kx[j] else str(kx[j])},"
                    f"{'' if ka[j] != ka[j] else str(ka[j])}{tail}"
                    for j in range(d)
                ]
                stream.write("".join(rows))
