"""Spike-train signal model: clustered node layouts and spectral sampling.

A spike train is a finite sum of weighted point masses sum_j a_j delta(x - x_j)
with complex amplitudes and strictly increasing real nodes.  Its transform
is evaluated with the convention F(s) = sum_j a_j exp(-2 pi i s x_j), and the
unit-rate measurement sequence is m_k = F(-k) = sum_j a_j exp(2 pi i x_j k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpikeTrain",
    "ClusterGeometry",
    "SpectralSamples",
    "fourier_at",
    "clean_spectrum",
    "sample_spectrum",
    "moments",
    "standard_cluster_geometry",
    "make_clustered_nodes",
]


def _complex_to_json(values) -> list:
    """[[re, im], ...] lists of a complex sequence: the JSON form of every
    complex array the package writes."""
    values = np.asarray(values, dtype=complex)
    return np.stack((values.real, values.imag), axis=-1).tolist()


def _complex_from_json(pairs) -> np.ndarray:
    """Complex array of [[re, im], ...] pairs, the inverse of _complex_to_json."""
    return np.array([complex(re, im) for re, im in pairs])


def _frozen_1d(values, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype, ndmin=1)
    if out.ndim != 1:
        raise ValueError("expected a one-dimensional sequence")
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class SpikeTrain:
    """Weighted point masses at strictly increasing real positions."""

    amplitudes: np.ndarray
    nodes: np.ndarray

    def __post_init__(self):
        amps = _frozen_1d(self.amplitudes, complex)
        nodes = _frozen_1d(self.nodes, float)
        if len(amps) != len(nodes):
            raise ValueError("amplitudes and nodes must have equal length")
        if len(nodes) == 0:
            raise ValueError("a spike train needs at least one node")
        if not (nodes[1:] > nodes[:-1]).all():
            raise ValueError("nodes must be strictly increasing")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "nodes", nodes)

    @property
    def d(self) -> int:
        return len(self.nodes)

    def to_json_dict(self) -> dict:
        return {
            "amplitudes": _complex_to_json(self.amplitudes),
            "nodes": [float(x) for x in self.nodes],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SpikeTrain":
        """Train of a JSON object; its amplitudes and nodes must be finite."""
        amplitudes = _complex_from_json(obj["amplitudes"])
        nodes = np.array(obj["nodes"], dtype=float)
        if not (np.isfinite(amplitudes).all() and np.isfinite(nodes).all()):
            raise ValueError("amplitudes and nodes must be finite")
        return cls(amplitudes=amplitudes, nodes=nodes)


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
    def from_nodes(
        cls, nodes, p: int, kappa: int = 1, extent: float | None = None
    ) -> "ClusterGeometry":
        """Geometry of the p-node cluster at 1-based index kappa of a node vector.

        d is the node count and h the extent, which defaults to the span of
        the cluster nodes.  A given extent may fall below that span only by
        the rounding of the node positions, so that the nominal extent of
        nodes such as 0.3 and 0.301 is accepted.  T is the larger of h and
        the span of all nodes, tau the smallest cluster gap over h and eta
        h over T, both capped at 1.
        """
        # Python floats: every S2 trial calls this, and numpy's per-call
        # overhead on a handful of nodes would outweigh the arithmetic.
        x = np.asarray(nodes, dtype=float).tolist()
        _check_cluster_indices(p, len(x), kappa)
        cluster = x[kappa - 1 : kappa - 1 + p]
        span = cluster[-1] - cluster[0]
        if extent is None:
            h = span
        else:
            h = float(extent)
            if h < span - 2 * np.spacing(max(map(abs, cluster))):
                raise ValueError(
                    f"extent {h!r} is below the span {span!r} of the cluster nodes"
                )
        T = max(x[-1] - x[0], h)
        tau = min(b - a for a, b in zip(cluster, cluster[1:])) / h if h > 0 else 1.0
        return cls(
            p=p, d=len(x), h=h, T=T, tau=min(1.0, tau), eta=min(1.0, h / T), kappa=kappa
        )

    @property
    def cluster_slice(self) -> slice:
        """0-based slice selecting the cluster nodes."""
        return slice(self.kappa - 1, self.kappa - 1 + self.p)


def _check_cluster_indices(p: int, d: int, kappa: int = 1) -> None:
    """Reject a cluster of p nodes at 1-based index kappa that does not fit
    in d nodes or has fewer than two nodes."""
    if not (2 <= p <= d):
        raise ValueError("cluster size p must satisfy 2 <= p <= d")
    if not (1 <= kappa <= d - p + 1):
        raise ValueError("kappa must index a contiguous cluster inside the node vector")


@dataclass(frozen=True, eq=False)
class SpectralSamples:
    """Equispaced unit-rate spectral measurements with a recorded noise level.

    values[k] approximates m_k = F(-k); noise_bound is the requested bound on
    |values[k] - m_k| and actual_noise the measured maximum deviation (when the
    clean samples were known at construction).
    """

    values: np.ndarray
    noise_bound: float
    actual_noise: float

    def __post_init__(self):
        vals = _frozen_1d(self.values, complex)
        if self.noise_bound < 0 or self.actual_noise < 0:
            raise ValueError("noise magnitudes must be nonnegative")
        object.__setattr__(self, "values", vals)

    def to_json_dict(self) -> dict:
        return {
            "values": _complex_to_json(self.values),
            "noise_bound": float(self.noise_bound),
            "actual_noise": float(self.actual_noise),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SpectralSamples":
        """Samples of a JSON object; noise_bound and actual_noise default to 0."""
        return cls(
            values=_complex_from_json(obj["values"]),
            noise_bound=float(obj.get("noise_bound", 0.0)),
            actual_noise=float(obj.get("actual_noise", 0.0)),
        )


def fourier_at(train: SpikeTrain, s):
    """Evaluate F(s) = sum_j a_j exp(-2 pi i s x_j) at scalar or array s."""
    s_arr = np.asarray(s, dtype=float)
    phases = np.exp(-2j * np.pi * np.multiply.outer(s_arr, train.nodes))
    out = phases @ train.amplitudes
    return complex(out) if s_arr.ndim == 0 else out


def clean_spectrum(train: SpikeTrain, count: int) -> np.ndarray:
    """Noiseless unit-rate samples m_k = F(-k), k = 0..count-1."""
    if count < 1:
        raise ValueError("need at least one sample")
    k = np.arange(count)
    return np.exp(2j * np.pi * np.multiply.outer(k, train.nodes)) @ train.amplitudes


def sample_spectrum(
    train: SpikeTrain,
    count: int,
    noise_bound: float,
    rng_seed,
) -> SpectralSamples:
    """Noisy unit-rate samples values[k] = m_k + n_k with |n_k| <= noise_bound.

    The noise is bounded disk noise: n_k = r exp(i theta) with r uniform on
    [0, noise_bound] and theta uniform on [0, 2 pi).  Deterministic given
    rng_seed.
    """
    if noise_bound < 0:
        raise ValueError("noise_bound must be nonnegative")
    clean = clean_spectrum(train, count)
    rng = np.random.default_rng(rng_seed)
    radius = rng.uniform(0.0, noise_bound, count)
    theta = rng.uniform(0.0, 2.0 * np.pi, count)
    noise = radius * np.exp(1j * theta)
    return SpectralSamples(
        values=clean + noise,
        noise_bound=float(noise_bound),
        actual_noise=float(np.abs(noise).max()),
    )


def moments(train: SpikeTrain, count: int) -> np.ndarray:
    """Algebraic moments m_k = sum_j a_j x_j^k for k = 0..count-1."""
    if count < 1:
        raise ValueError("need at least one moment")
    k = np.arange(count)
    powers = np.power.outer(train.nodes, k).T  # count x d
    return powers @ train.amplitudes


def standard_cluster_geometry(p: int, d: int, h: float) -> ClusterGeometry:
    """Geometry of the standard experiment layout on [0, pi].

    The cluster occupies [0, h] with p equispaced nodes; the d-p remaining
    nodes split the rest of [0, pi] evenly, which gives T = pi,
    tau = 1/(p-1) and eta = (pi - h) / (pi (d - p + 1)).
    """
    _check_cluster_indices(p, d)
    if h >= math.pi:
        raise ValueError("cluster extent must be below pi")
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
    p, d, h = geometry.p, geometry.d, geometry.h
    if h >= math.pi:
        raise ValueError("cluster extent must be below pi")
    step = h / (p - 1)
    cluster = step * np.arange(p)
    rest_gap = (math.pi - (p - 1) * step) / (d - p + 1)
    rest = (p - 1) * step + rest_gap * np.arange(1, d - p + 1)
    nodes = np.concatenate([cluster, rest])
    if not (nodes[1:] > nodes[:-1]).all():
        raise ValueError("layout parameters do not give strictly increasing nodes")
    return nodes
