"""Spike-train signal model: clustered node layouts and spectral sampling.

A spike train is a finite sum of weighted point masses sum_j a_j delta(x - x_j)
with complex amplitudes and strictly increasing real nodes.  Its transform
is evaluated with the convention F(s) = sum_j a_j exp(-2 pi i s x_j), and the
unit-rate measurement sequence is m_k = F(-k) = sum_j a_j exp(2 pi i x_j k).
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpikeTrain",
    "ClusterGeometry",
    "SpectralSamples",
    "fourier_at",
    "clean_spectrum",
    "sample_spectrum",
    "standard_cluster_geometry",
    "make_clustered_nodes",
]


def _frozen_1d(values, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype, ndmin=1)
    if out.ndim != 1:
        raise ValueError("expected a one-dimensional sequence")
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class SpikeTrain:
    """Weighted point masses at strictly increasing real positions.

    The amplitudes and nodes must be finite; a NaN or infinite one raises
    ValueError("amplitudes and nodes must be finite").
    """

    amplitudes: np.ndarray
    nodes: np.ndarray

    def __post_init__(self):
        amps = _frozen_1d(self.amplitudes, complex)
        nodes = _frozen_1d(self.nodes, float)
        if len(amps) != len(nodes):
            raise ValueError("amplitudes and nodes must have equal length")
        if len(nodes) == 0:
            raise ValueError("a spike train needs at least one node")
        # Python scalars: every S2 trial builds three trains of a handful of
        # values, where numpy's per-call overhead would outweigh the check.
        positions = nodes.tolist()
        if not (
            all(map(cmath.isfinite, amps.tolist()))
            and all(map(math.isfinite, positions))
        ):
            raise ValueError("amplitudes and nodes must be finite")
        if not all(a < b for a, b in zip(positions, positions[1:])):
            raise ValueError("nodes must be strictly increasing")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "nodes", nodes)

    @property
    def d(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class ClusterGeometry:
    """Parameters of a clustered node configuration.

    p of the d nodes (indices kappa..kappa+p-1, 1-based) form a cluster of
    extent at most h with pairwise gaps at least tau*h; every pair involving a
    node outside the cluster is separated by at least eta*T and at most T.
    """

    p: int
    d: int
    h: float
    T: float
    tau: float
    eta: float
    kappa: int = 1

    def __post_init__(self):
        _check_cluster_indices(self.p, self.d, self.kappa)
        if not (0 < self.h <= self.T):
            raise ValueError("cluster extent h must satisfy 0 < h <= T")
        if not (0 < self.tau <= 1):
            raise ValueError("tau must lie in (0, 1]")
        if not (0 < self.eta <= 1):
            raise ValueError("eta must lie in (0, 1]")

    @classmethod
    def from_nodes(cls, nodes, p: int, kappa: int = 1) -> "ClusterGeometry":
        """Geometry of the p-node cluster at 1-based index kappa of a node vector.

        d is the node count, h the span of the cluster nodes and T the span
        of all nodes; tau is the smallest cluster gap over h and eta the
        smallest separation of a pair holding a non-cluster node over T,
        both capped at 1; eta is 1 when every node is in the cluster.  The
        nodes must be strictly increasing.  A positive separation whose
        ratio to its scale rounds to 0 raises ValueError naming the
        separation and the scale.
        """
        x = np.asarray(nodes, dtype=float).tolist()
        _check_cluster_indices(p, len(x), kappa)
        gaps = [b - a for a, b in zip(x, x[1:])]
        if not all(gap > 0 for gap in gaps):
            raise ValueError("nodes must be strictly increasing")
        h = x[kappa - 2 + p] - x[kappa - 1]
        T = x[-1] - x[0]
        inner = slice(kappa - 1, kappa + p - 2)
        tau = _scaled_gap(min(gaps[inner]), "cluster", h, "the cluster extent h")
        # The nodes are sorted, so the closest pair holding a non-cluster node
        # is a neighbour pair outside the cluster's own p-1 gaps.
        del gaps[inner]
        eta = _scaled_gap(min(gaps), "non-cluster", T, "the node span T") if gaps else 1.0
        return cls(p=p, d=len(x), h=h, T=T, tau=tau, eta=eta, kappa=kappa)

    @property
    def cluster_slice(self) -> slice:
        """0-based slice selecting the cluster nodes."""
        return slice(self.kappa - 1, self.kappa - 1 + self.p)


def _scaled_gap(gap: float, kind: str, scale: float, scale_name: str) -> float:
    """gap / scale capped at 1.  A positive gap too small against its scale
    for the ratio to be a positive float is an input error, reported in
    terms of the separation rather than of tau or eta."""
    ratio = gap / scale
    if ratio == 0 < gap:
        raise ValueError(
            f"smallest {kind} separation {gap!r} over {scale_name} = {scale!r} rounds to 0"
        )
    return min(1.0, ratio)


def _check_cluster_indices(p: int, d: int, kappa: int = 1) -> None:
    """Reject a cluster of p nodes at 1-based index kappa that does not fit
    in d nodes or has fewer than two nodes.  A count that is not an integer,
    such as 2.0, raises TypeError."""
    p, d, kappa = map(operator.index, (p, d, kappa))
    if not (2 <= p <= d):
        raise ValueError("cluster size p must satisfy 2 <= p <= d")
    if not (1 <= kappa <= d - p + 1):
        raise ValueError("kappa must index a contiguous cluster inside the node vector")


@dataclass(frozen=True, eq=False)
class SpectralSamples:
    """Equispaced unit-rate spectral measurements with their measured noise.

    values[k] approximates m_k = F(-k); actual_noise is the measured maximum
    of |values[k] - m_k|.  The values must be finite; a NaN or infinite one
    raises ValueError("samples must be finite").
    """

    values: np.ndarray
    actual_noise: float

    def __post_init__(self):
        vals = _frozen_1d(self.values, complex)
        if not np.isfinite(vals).all():
            raise ValueError("samples must be finite")
        if not 0 <= self.actual_noise < math.inf:
            raise ValueError("actual_noise must be finite and nonnegative")
        object.__setattr__(self, "values", vals)


def fourier_at(train: SpikeTrain, s):
    """Evaluate F(s) = sum_j a_j exp(-2 pi i s x_j) at scalar or array s."""
    phases = np.exp(-2j * np.pi * np.multiply.outer(np.asarray(s, dtype=float), train.nodes))
    return phases @ train.amplitudes


def clean_spectrum(train: SpikeTrain, count: int) -> np.ndarray:
    """Noiseless unit-rate samples m_k = F(-k), k = 0..count-1.  A count that
    is not an integer, such as 4.0, raises TypeError."""
    count = operator.index(count)
    if count < 1:
        raise ValueError("need at least one sample")
    return fourier_at(train, -np.arange(count))


def sample_spectrum(
    train: SpikeTrain,
    count: int,
    noise_bound: float,
    rng_seed,
) -> SpectralSamples:
    """Noisy unit-rate samples values[k] = m_k + n_k with |n_k| <= noise_bound.

    The noise is bounded disk noise: n_k = r exp(i theta) with r uniform on
    [0, noise_bound] and theta uniform on [0, 2 pi).  Deterministic given
    rng_seed.  noise_bound must be finite and nonnegative.
    """
    if not 0 <= noise_bound < math.inf:
        raise ValueError("noise_bound must be finite and nonnegative")
    clean = clean_spectrum(train, count)
    rng = np.random.default_rng(rng_seed)
    radius = rng.uniform(0.0, noise_bound, count)
    theta = rng.uniform(0.0, 2.0 * np.pi, count)
    noise = radius * np.exp(1j * theta)
    return SpectralSamples(values=clean + noise, actual_noise=float(np.abs(noise).max()))


def standard_cluster_geometry(p: int, d: int, h: float) -> ClusterGeometry:
    """Geometry of the standard experiment layout on [0, pi].

    The cluster occupies [0, h] with p equispaced nodes; the d-p remaining
    nodes split the rest of [0, pi] evenly, which gives T = pi,
    tau = 1/(p-1) and eta = (pi - h) / (pi (d - p + 1)).
    """
    _check_cluster_indices(p, d)
    _check_standard_extent(h)
    return ClusterGeometry(
        p=p,
        d=d,
        h=h,
        T=math.pi,
        tau=1.0 / (p - 1),
        eta=(math.pi - h) / (math.pi * (d - p + 1)),
        kappa=1,
    )


def make_clustered_nodes(geometry: ClusterGeometry) -> np.ndarray:
    """Node vector of the standard clustered layout on [0, pi].

    Cluster nodes sit at (j-1) h/(p-1) for j = 1..p; the remaining nodes are
    equispaced over the rest of the interval.  Requires kappa == 1 (the layout
    places the cluster first) and h < pi so the vector is strictly increasing.
    """
    if geometry.kappa != 1:
        raise ValueError("the standard layout places the cluster at the start (kappa == 1)")
    return np.array(_standard_nodes(geometry.p, geometry.d, geometry.h), dtype=float)


def _check_standard_extent(h: float) -> None:
    """Reject a cluster extent of the standard layout outside (0, pi): h
    must lie below pi for the layout's nodes to increase, and be positive
    for its ClusterGeometry, whose T is pi."""
    if h >= math.pi:
        raise ValueError("cluster extent must be below pi")
    if not 0 < h:
        raise ValueError("cluster extent h must satisfy 0 < h <= T")


def _standard_nodes(p: int, d: int, h: float) -> list:
    """The standard layout of make_clustered_nodes as a list of floats, for
    a valid cluster size p <= d.  An extent h outside (0, pi) raises the
    ValueError standard_cluster_geometry would.

    Python floats, for the reason prony._order_tables gives: each node is
    the same product and sum numpy forms elementwise, so the nodes are
    bit-identical to the array arithmetic's.
    """
    _check_standard_extent(h)
    step = h / (p - 1)
    edge = (p - 1) * step
    rest_gap = (math.pi - edge) / (d - p + 1)
    nodes = [step * j for j in range(p)]
    nodes += [edge + rest_gap * j for j in range(1, d - p + 1)]
    if not all(a < b for a, b in zip(nodes, nodes[1:])):
        raise ValueError("layout parameters do not give strictly increasing nodes")
    return nodes
