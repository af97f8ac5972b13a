"""Blowup factors and conditioning analysis for decimated spectral sampling.

Mapping nodes x_j to points exp(2 pi i lambda x_j) on the unit circle turns
the choice of sampling rate lambda into a separation problem: the set of rates
at which two nodes stay angularly close is a periodic union of short intervals,
and removing those unions over all pairs involving a non-cluster node leaves
the admissible rates.  Row-wise bounds on the inverse confluent Vandermonde of
the mapped nodes then predict how recovery errors amplify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import EmptyAdmissibleSetError, NearCoincidentNodesError
from .signal import ClusterGeometry

__all__ = [
    "IntervalSet",
    "JacobianBoundReport",
    "angular_distance",
    "sigma_intervals",
    "admissible_lambdas",
    "confluent_vandermonde",
    "gautschi_bounds",
    "predicted_condition_numbers",
]

# Mapped nodes closer than this are near-coincident for gautschi_bounds.
_MIN_GAP = 1e-12
# Floor on the separations whose reciprocals _sigma_pieces takes.
_TINY_SEP = 2.0**-1020
# Most sigma-set pieces _sigma_pieces builds for one range.
_MAX_PIECES = 2**24
# admissible_lambdas pads each sigma-set piece outward by this much.
_PAD = 1e-12


class IntervalSet:
    """Finite union of disjoint closed intervals, kept sorted.

    The components are held as two arrays of start and end points, and every
    operation works on those arrays.  Overlapping or touching inputs are
    merged on construction in one pass: the intervals are sorted by start,
    and a new component begins wherever a start exceeds the running maximum
    of the ends before it.  Merging only compares and copies endpoints, so it
    is exact.  Degenerate single-point intervals are allowed; the constructor
    raises ValueError for reversed intervals and NaN endpoints.  Sets built
    inside this module from pieces that are valid by construction skip that
    check.
    """

    __slots__ = ("_starts", "_ends")

    def __init__(self, intervals=()):
        pairs = np.array(list(intervals), dtype=float)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("intervals must be (start, end) pairs")
        starts, ends = pairs[:, 0], pairs[:, 1]
        if np.isnan(starts).any() or np.isnan(ends).any():
            raise ValueError("interval endpoints must not be NaN")
        reversed_ = np.flatnonzero(ends < starts)
        if reversed_.size:
            k = reversed_[0]
            raise ValueError(f"invalid interval [{starts[k]}, {ends[k]}]")
        self._starts, self._ends = _merge(starts, ends)

    @classmethod
    def _from_components(cls, starts: np.ndarray, ends: np.ndarray) -> "IntervalSet":
        """Set whose components are already sorted, disjoint and not touching."""
        out = cls.__new__(cls)
        out._starts, out._ends = starts, ends
        return out

    @property
    def intervals(self) -> tuple:
        return tuple(zip(self._starts.tolist(), self._ends.tolist()))

    def __len__(self) -> int:
        return self._starts.size

    def __iter__(self):
        return iter(self.intervals)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntervalSet)
            and np.array_equal(self._starts, other._starts)
            and np.array_equal(self._ends, other._ends)
        )

    def __repr__(self) -> str:
        return f"IntervalSet({list(self.intervals)!r})"

    def contains(self, x: float) -> bool:
        return bool(np.any((self._starts <= x) & (x <= self._ends)))

    def to_json_dict(self) -> dict:
        return {"intervals": [[a, b] for a, b in self.intervals]}


# The kernels below run once per scan point, on arrays of a few dozen
# entries.  At that size numpy's module-level wrappers (np.sum, np.all,
# np.argsort, np.repeat, np.flatnonzero, np.atleast_1d, ...) spend about a
# microsecond each on Python-level dispatch, more than the arithmetic, so the
# kernels call the ndarray methods and ufuncs those wrappers end in, which run
# the same C loops and give bit-identical results.
def _merge(starts: np.ndarray, ends: np.ndarray) -> tuple:
    """Start and end arrays of the sorted disjoint components of the closed
    intervals [starts[i], ends[i]], which the caller has checked are ordered
    and free of NaN."""
    if starts.size == 0:
        return starts, ends
    # Intervals with tied starts never split a component: the running maximum
    # of their ends is the same in any order, so sorting by start suffices and
    # any sort, stable or not, gives the same components.
    order = starts.argsort()
    starts, reach = starts[order], np.maximum.accumulate(ends[order])
    breaks = (starts[1:] > reach[:-1]).nonzero()[0]
    first = np.concatenate(([0], breaks + 1))
    last = np.concatenate((breaks, [starts.size - 1]))
    return starts[first], reach[last]


@lru_cache(maxsize=64)
def _noncluster_pairs(d: int, kappa: int, p: int) -> np.ndarray:
    """Read-only d x d mask of the pairs j < k that involve a node outside the
    cluster of p nodes starting at 1-based index kappa."""
    in_cluster = np.zeros(d, dtype=bool)
    in_cluster[kappa - 1 : kappa - 1 + p] = True
    mask = np.triu(~np.logical_and.outer(in_cluster, in_cluster), 1)
    mask.flags.writeable = False
    return mask


@lru_cache(maxsize=64)
def _partner_columns(d: int) -> np.ndarray:
    """Read-only d x (d-1) index table: row j lists every column but j, in
    order."""
    cols = np.broadcast_to(np.arange(d), (d, d))[~np.eye(d, dtype=bool)]
    cols = cols.reshape(d, d - 1)
    cols.flags.writeable = False
    return cols


@lru_cache(maxsize=64)
def _confluent_factors(d: int) -> tuple:
    """Read-only exponent row 0..2d-1 and derivative factors 1..2d-1 (as a
    column) of the 2d x 2d confluent Vandermonde."""
    exponents = np.arange(2 * d)
    factors = np.arange(1, 2 * d)[:, None]
    exponents.flags.writeable = False
    factors.flags.writeable = False
    return exponents, factors


@dataclass(frozen=True, eq=False)
class JacobianBoundReport:
    """Analytic row bounds for the inverse confluent Vandermonde of a node set,
    together with the measured l1 row norms of the actually computed inverse.

    Rows 1..d of the inverse act on amplitude coordinates, rows d+1..2d on node
    coordinates; the analytic bounds are (1 + 2 (1+|z_j|) Delta_j) Gamma_j and
    (1 + |z_j|) Gamma_j respectively.  condition_number, the 2-norm condition
    number of the confluent matrix, needs a full SVD; it is computed on first
    read from the matrix, which the report keeps read-only, and then cached,
    so a caller that needs only the bounds and row norms never pays for it.
    """

    delta: np.ndarray
    gamma: np.ndarray
    amplitude_row_bounds: np.ndarray
    node_row_bounds: np.ndarray
    empirical_amplitude_row_norms: np.ndarray
    empirical_node_row_norms: np.ndarray
    _matrix: np.ndarray = field(repr=False)

    @cached_property
    def condition_number(self) -> float:
        return float(np.linalg.cond(self._matrix))

    def to_json_dict(self) -> dict:
        return {
            "delta": list(map(float, self.delta)),
            "gamma": list(map(float, self.gamma)),
            "amplitude_row_bounds": list(map(float, self.amplitude_row_bounds)),
            "node_row_bounds": list(map(float, self.node_row_bounds)),
            "empirical_amplitude_row_norms": list(
                map(float, self.empirical_amplitude_row_norms)
            ),
            "empirical_node_row_norms": list(map(float, self.empirical_node_row_norms)),
            "condition_number": float(self.condition_number),
        }


def angular_distance(alpha: complex, beta: complex) -> float:
    """|Arg(alpha / beta)| with the principal branch, a value in [0, pi]."""
    if alpha == 0 or beta == 0:
        raise ValueError("angular distance is undefined for zero")
    return float(abs(np.angle(complex(alpha) / complex(beta))))


def _sigma_pieces(seps: np.ndarray, alpha: float, lo: float, hi: float):
    """Start and end arrays of every piece of the sigma sets of all
    separations seps, clipped to [lo, hi]; pieces may overlap.

    Separation delta contributes the closed intervals of half-width
    alpha / (2 pi delta) centered at ell / delta, for every integer ell whose
    interval meets [lo, hi].  A separation below 2**-1020, whose reciprocal
    may overflow, takes the period 2**1020, and a half-width above about
    2**1020 is capped there.  On a range within +-2**1018 such a separation
    has one piece, the one about 0, and the capped values give exactly that
    piece, with no overflow and no NaN.

    The pieces are counted from the float bounds before any is built: a
    count that is not finite, or more than _MAX_PIECES in all, raises
    ValueError naming the separation with the most pieces.
    """
    # A count too large for float64 overflows or turns NaN here; the check
    # below rejects it, so the warnings on the way say nothing more.
    with np.errstate(over="ignore", invalid="ignore"):
        half_width = alpha / np.maximum(2.0 * math.pi * seps, alpha * _TINY_SEP)
        period = 1.0 / np.maximum(seps, _TINY_SEP)
        first = np.ceil((lo - half_width) / period)
        last = np.floor((hi + half_width) / period)
        counts = np.maximum(last - first + 1.0, 0.0)
    # Running totals in float64, exact while they stay below the cap.
    totals = counts.cumsum()
    if totals.size and not totals[-1] <= _MAX_PIECES:
        k = np.nan_to_num(counts, nan=np.inf).argmax()
        count = f"{counts[k]:.3g}" if np.isfinite(counts[k]) else "too many"
        raise ValueError(
            f"separation {float(seps[k])!r} gives {count} sigma-set pieces on "
            f"[{lo!r}, {hi!r}]; at most {_MAX_PIECES} are built in all"
        )
    owner = np.arange(seps.size).repeat(counts.astype(np.int64))
    offsets = totals - counts
    ell = first[owner] + (np.arange(owner.size) - offsets[owner])
    center = ell * period[owner]
    half = half_width[owner]
    starts = np.maximum(center - half, lo)
    ends = np.minimum(center + half, hi)
    keep = starts <= ends
    return starts[keep], ends[keep]


def _check_alpha(alpha: float) -> None:
    if not 0 < alpha <= math.pi:
        raise ValueError("angular threshold must lie in (0, pi]")


def sigma_intervals(delta: float, alpha: float, interval) -> IntervalSet:
    """Rates lambda in [a, b] at which two nodes separated by delta stay within
    angular distance alpha after mapping to the unit circle.

    The result is the intersection of [a, b] with the periodic union of
    closed intervals of half-width alpha / (2 pi delta) centered at the
    integer multiples of 1 / delta.  It is the one-separation case of the
    piece generator admissible_lambdas uses for all pairs at once, and raises
    ValueError when that would build more than _MAX_PIECES = 2**24 pieces.
    """
    if not delta > 0:
        raise ValueError("node separation must be positive")
    if not math.isfinite(delta):
        raise ValueError("node separation must be finite")
    _check_alpha(alpha)
    a, b = float(interval[0]), float(interval[1])
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("interval endpoints must be finite")
    if b < a:
        raise ValueError("empty interval")
    starts, ends = _sigma_pieces(np.array([float(delta)]), alpha, a, b)
    return IntervalSet._from_components(*_merge(starts, ends))


def admissible_lambdas(
    nodes,
    geometry: ClusterGeometry,
    omega: float,
    alpha: float | None = None,
) -> IntervalSet:
    """Blowup factors in [omega/(2(2d-1)), omega/(2d-1)] keeping mapped nodes apart.

    Every pair involving a non-cluster node must keep mapped angular distance
    at least alpha (default 1/d^2); cluster pairs automatically satisfy the
    linear separation 2 pi lambda tau h on this range because omega h is capped
    at (2d-1)/2.  The set is built with one merge: the sigma-set pieces of all
    those pairs (see sigma_intervals) are generated together as flat arrays,
    each piece is padded outward by _PAD = 1e-12 so that the returned set is
    conservative, and the padded pieces are merged once.  The admissible
    components are the gaps of positive length before, between and after the
    merged components clipped to the range.  Rounding is monotone, so padding
    each piece gives the same set as padding the merged components.  Only
    clipped components of positive length bound the gaps: a component that
    clips to a single point is dropped, so the gaps on either side of it join
    into one.

    Raises ValueError for non-finite or non-positive omega, alpha outside
    (0, pi], non-finite or coincident nodes, and a range that would need
    more than _MAX_PIECES sigma-set pieces; EmptyAdmissibleSetError when
    nothing in the range survives.
    """
    x = np.asarray(nodes, dtype=float)
    d = geometry.d
    if len(x) != d:
        raise ValueError("node count does not match the geometry")
    if not np.isfinite(x).all():
        raise ValueError("nodes must be finite")
    if not math.isfinite(omega):
        raise ValueError("omega must be finite")
    if omega <= 0:
        raise ValueError("omega must be positive")
    if omega * geometry.h > (2 * d - 1) / 2 + 1e-12:
        raise ValueError("omega exceeds the cluster condition omega h <= (2d-1)/2")
    if alpha is None:
        alpha = 1.0 / d**2
    _check_alpha(alpha)
    gaps = np.abs(np.subtract.outer(x, x))
    if np.count_nonzero(gaps == 0) > d:  # more zeros than the diagonal holds
        raise ValueError("node separation must be positive")
    seps = gaps[_noncluster_pairs(d, geometry.kappa, geometry.p)]
    lo = omega / (2.0 * (2 * d - 1))
    hi = omega / (2 * d - 1)
    starts, ends = _sigma_pieces(seps, alpha, lo, hi)
    # No endpoint check before the merge: _sigma_pieces keeps only pieces with
    # starts <= ends, which drops NaN and reversed ones, and padding by the
    # non-negative _PAD keeps them ordered.
    starts, ends = _merge(starts - _PAD, ends + _PAD)
    starts, ends = np.maximum(starts, lo), np.minimum(ends, hi)
    keep = starts < ends
    gap_starts = np.concatenate(([lo], ends[keep]))
    gap_ends = np.concatenate((starts[keep], [hi]))
    keep = gap_starts < gap_ends
    if not keep.any():
        raise EmptyAdmissibleSetError(
            "empty admissible set: every rate in the range violates a separation condition"
        )
    return IntervalSet._from_components(gap_starts[keep], gap_ends[keep])


def _node_array(z) -> np.ndarray:
    """Complex 1-D array of the nodes z; a scalar counts as one node.  Raises
    ValueError for empty or non-1-D input."""
    w = np.asarray(z, dtype=complex)
    if w.ndim == 0:
        w = w.reshape(1)
    if w.ndim != 1 or w.size == 0:
        raise ValueError(f"nodes z must be a non-empty 1-D array, got shape {w.shape}")
    return w


def confluent_vandermonde(z) -> np.ndarray:
    """2d x 2d confluent Vandermonde of d distinct values: plain power columns
    followed by their derivative columns.

    Both blocks come from one table of the powers w_j^k, k < 2d: derivative
    row k is k times plain row k-1, and derivative row 0 is zero.  Raises
    ValueError for empty or non-1-D input.
    """
    return _confluent(_node_array(z))


def _confluent(w: np.ndarray) -> np.ndarray:
    """confluent_vandermonde of a complex 1-D array already checked."""
    d = w.size
    exponents, factors = _confluent_factors(d)
    plain = np.power.outer(w, exponents).T  # 2d x d
    out = np.empty((2 * d, 2 * d), dtype=complex)
    out[:, :d] = plain
    out[0, d:] = 0.0
    out[1:, d:] = factors * plain[:-1]
    return out


def gautschi_bounds(z) -> JacobianBoundReport:
    """Closed-form l1 row bounds for the inverse confluent Vandermonde, plus the
    measured row norms of the computed inverse for a dominance check.

    Delta_j sums the reciprocal gaps from node j, Gamma_j is the squared
    product of (1+|z_l|)/|z_j-z_l| over the other nodes; empty sums and
    products (d = 1) give 0 and 1.  A scalar z counts as one node.  The
    partner-column table and the confluent Vandermonde's exponents depend
    only on d; they are built once per d and shared read-only.

    Raises ValueError for empty, non-1-D or non-finite nodes and
    NearCoincidentNodesError when two nodes lie closer than 1e-12.
    """
    w = _node_array(z)
    if not np.isfinite(w).all():
        raise ValueError("nodes must be finite")
    d = w.size
    cols = _partner_columns(d)
    # Row j lists the gaps from node j to the other nodes, in index order.
    partner_gaps = np.abs(w[:, None] - w[cols])
    if d > 1 and partner_gaps.min() < _MIN_GAP:
        raise NearCoincidentNodesError("near-coincident nodes: separation below threshold")

    one_plus_modulus = 1.0 + np.abs(w)
    delta = (1.0 / partner_gaps).sum(axis=1)
    gamma = (one_plus_modulus[cols] / partner_gaps).prod(axis=1) ** 2
    amp_bounds = (1.0 + 2.0 * one_plus_modulus * delta) * gamma
    node_bounds = one_plus_modulus * gamma

    matrix = _confluent(w)
    inverse = np.linalg.inv(matrix)
    row_norms = np.abs(inverse).sum(axis=1)
    matrix.flags.writeable = False
    return JacobianBoundReport(
        delta=delta,
        gamma=gamma,
        amplitude_row_bounds=amp_bounds,
        node_row_bounds=node_bounds,
        empirical_amplitude_row_norms=row_norms[:d],
        empirical_node_row_norms=row_norms[d:],
        _matrix=matrix,
    )


def predicted_condition_numbers(
    geometry: ClusterGeometry, omega: float
) -> list[tuple[float, float]]:
    """Per-node (node factor, amplitude factor) error-amplification scaling
    shapes, with all proportionality constants set to one.

    Cluster nodes amplify like (omega tau h)^{-2p+2} / omega for nodes and
    (omega tau h)^{-2p+1} for amplitudes; the rest sit at the 1/omega and 1
    baselines.
    """
    if not (math.isfinite(omega) and omega > 0):
        raise ValueError("omega must be finite and positive")
    p = geometry.p
    srf_gap = omega * geometry.tau * geometry.h
    cluster_node = (1.0 / omega) * srf_gap ** (-2 * p + 2)
    cluster_amp = srf_gap ** (-2 * p + 1)
    cluster = geometry.cluster_slice
    return [
        (cluster_node, cluster_amp)
        if cluster.start <= j < cluster.stop
        else (1.0 / omega, 1.0)
        for j in range(geometry.d)
    ]
