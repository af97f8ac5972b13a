"""Worst-case cluster perturbations: signals that move nodes and amplitudes as
far as the noise level permits while barely changing the spectrum.

The construction recenters the cluster, keeps its first 2p-1 power moments,
bumps the last one by epsilon, and re-solves the moment system of order p.
The resulting signal matches the original everywhere outside the cluster and
deviates from it spectrally by an amount proportional to epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DegenerateSystemError,
    EpsilonTooLargeError,
    RepeatedRootsError,
)
from .prony import prony_map, prony_solve
from .signal import ClusterGeometry, SpikeTrain, _check_cluster_indices, fourier_at

__all__ = [
    "WorstCaseReport",
    "worst_case_signal",
    "displacement_scaling_probe",
]

# Relative imaginary part, and relative gap, at or below which the perturbed
# cluster nodes count as complex or coincident.
_IMAG_TOL = 1e-9
# displacement_scaling_probe bumps by this multiple of (omega tau h)^(2p-1),
# small enough to stay inside the solvable regime.
_PROBE_EPS_COEFF = 0.02


class _Construction(NamedTuple):
    """Intermediates of one worst-case construction, kept for the report's
    diagnostics.  At epsilon = 0 the new cluster is the source cluster."""

    source: SpikeTrain
    omega: float
    grid_points: int
    moments: np.ndarray  # centered-cluster moments of orders 0..2p-1
    centered: np.ndarray  # centered source cluster nodes
    amplitudes: np.ndarray  # real source cluster amplitudes
    new_nodes: np.ndarray  # centered perturbed cluster nodes
    new_amplitudes: np.ndarray


@dataclass(frozen=True, eq=False)
class WorstCaseReport:
    """Perturbed signal plus measured deviations from the source signal.

    moment_match_error is the worst mismatch of the centered-cluster moments
    of orders 0..2p-2; last_moment_delta the change in the order-(2p-1) moment
    (equal to the requested epsilon up to roundoff); the displacements are
    maxima over the cluster; spectral_deviation is the maximum transform
    difference over a frequency grid.  These five diagnostics are computed on
    first read from the construction's intermediates and then cached, so a
    caller that needs only the perturbed signal never pays for them.  At
    epsilon = 0 the construction is the identity and every diagnostic reads
    exactly zero.
    """

    perturbed: SpikeTrain
    _construction: _Construction = field(repr=False)

    @cached_property
    def _new_moments(self) -> np.ndarray:
        c = self._construction
        return prony_map(c.new_amplitudes, c.new_nodes, len(c.moments)).real

    @cached_property
    def moment_match_error(self) -> float:
        c = self._construction
        return float(np.abs(self._new_moments[:-1] - c.moments[:-1]).max())

    @cached_property
    def last_moment_delta(self) -> float:
        c = self._construction
        return float(self._new_moments[-1] - c.moments[-1])

    @cached_property
    def node_displacement(self) -> float:
        c = self._construction
        return float(np.abs(c.new_nodes - c.centered).max())

    @cached_property
    def amplitude_displacement(self) -> float:
        c = self._construction
        return float(np.abs(c.new_amplitudes - c.amplitudes).max())

    @cached_property
    def spectral_deviation(self) -> float:
        c = self._construction
        return _spectral_deviation(
            c.source, self.perturbed, c.omega, c.grid_points
        )


def _spectral_deviation(
    original: SpikeTrain,
    perturbed: SpikeTrain,
    omega: float,
    grid_points: int,
) -> float:
    """Maximum of |F_perturbed(s) - F_original(s)| over an equispaced grid on
    [-omega, omega]."""
    grid = np.linspace(-omega, omega, grid_points)
    return float(np.abs(fourier_at(perturbed, grid) - fourier_at(original, grid)).max())


def worst_case_signal(
    train: SpikeTrain,
    geometry: ClusterGeometry,
    epsilon: float,
    omega: float | None = None,
    grid_points: int = 1001,
) -> WorstCaseReport:
    """Build the worst-case perturbation of the cluster part of a signal.

    The cluster amplitudes must be real (the construction solves a real moment
    system).  Steps: center the cluster at the midpoint of its extreme nodes,
    compute its first 2p power moments, add epsilon to the last one, re-solve
    the moment system of order p, and splice the perturbed cluster back while
    leaving the non-cluster part untouched.  At epsilon = 0 the perturbed
    signal is the source itself.

    Raises EpsilonTooLargeError when the perturbed system has complex or
    coincident nodes (imaginary parts above, or gaps at most, 1e-9 times the
    node scale), or when the displaced cluster would break the global node
    ordering.

    The spectral deviation in the report is measured on grid_points >= 2
    equispaced points of [-omega, omega] with omega defaulting to 1/h; a
    given omega must be finite and positive.
    """
    if not math.isfinite(epsilon):
        raise ValueError("epsilon must be finite")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    if omega is not None and not (math.isfinite(omega) and omega > 0):
        raise ValueError("omega must be finite and positive")
    p = geometry.p
    if train.d != geometry.d:
        raise ValueError("signal size does not match the geometry")
    sl = geometry.cluster_slice
    omega_eff = (1.0 / geometry.h) if omega is None else float(omega)

    cluster_amps = train.amplitudes[sl]
    if np.abs(cluster_amps.imag).max() > 1e-12 * max(1.0, np.abs(cluster_amps).max()):
        raise ValueError("cluster amplitudes must be real")
    amps_c = cluster_amps.real.astype(float)
    nodes_c = train.nodes[sl]
    if grid_points < 2:
        raise ValueError("need at least two grid points")

    center = 0.5 * (nodes_c[0] + nodes_c[-1])
    centered = nodes_c - center
    g = prony_map(amps_c, centered, 2 * p).real
    if epsilon == 0:
        return WorstCaseReport(
            train,
            _Construction(train, omega_eff, grid_points, g, centered, amps_c, centered, amps_c),
        )
    g_bumped = g.copy()
    g_bumped[2 * p - 1] += epsilon

    try:
        sol = prony_solve(g_bumped.astype(complex), p)
    except (DegenerateSystemError, RepeatedRootsError) as exc:
        raise EpsilonTooLargeError(f"epsilon too large: {exc}") from exc

    node_scale = max(1.0, np.abs(sol.nodes).max())
    if np.abs(sol.nodes.imag).max() > _IMAG_TOL * node_scale:
        raise EpsilonTooLargeError(
            "epsilon too large: perturbed moment system has complex nodes"
        )
    order = sol.nodes.real.argsort()
    new_nodes = sol.nodes.real[order]
    if (new_nodes[1:] - new_nodes[:-1]).min() <= _IMAG_TOL * node_scale:
        raise EpsilonTooLargeError(
            "epsilon too large: perturbed nodes coincide after the real snap"
        )
    new_amps = sol.amplitudes[order].real

    spliced_nodes = train.nodes.copy()
    spliced_amps = train.amplitudes.copy()
    spliced_nodes[sl] = new_nodes + center
    spliced_amps[sl] = new_amps
    if not (spliced_nodes[1:] > spliced_nodes[:-1]).all():
        raise EpsilonTooLargeError(
            "epsilon too large: displaced cluster breaks the node ordering"
        )
    perturbed = SpikeTrain(amplitudes=spliced_amps, nodes=spliced_nodes)

    return WorstCaseReport(
        perturbed,
        _Construction(train, omega_eff, grid_points, g, centered, amps_c, new_nodes, new_amps),
    )


def displacement_scaling_probe(
    p: int,
    d: int,
    h_values: Sequence[float],
    omega: float,
) -> list[tuple[float, float, float]]:
    """Displacement amplification of the worst-case construction across cluster sizes.

    For each h the centered cluster is blown up by omega (p equispaced nodes
    spanning omega*h, alternating unit amplitudes; any extra d-p nodes sit far
    to the right and stay untouched) and perturbed with
    epsilon = 0.02 (omega tau h)^{2p-1}.

    Returns one (srf, node_displacement/epsilon, amplitude_displacement/epsilon)
    row per h, where srf = 1/(omega tau h).  On a log-log scale the node column
    grows with slope 2p-2 and the amplitude column with slope 2p-1.
    """
    _check_cluster_indices(p, d)
    tau = 1.0 / (p - 1)
    rows = []
    for h in h_values:
        extent = omega * h
        gap = tau * extent
        cluster = -extent / 2.0 + gap * np.arange(p)
        spectators = extent / 2.0 + (1.0 + extent) * np.arange(1, d - p + 1)
        nodes = np.concatenate([cluster, spectators])
        train = SpikeTrain(amplitudes=(-1.0) ** np.arange(d), nodes=nodes)
        geometry = ClusterGeometry.from_nodes(nodes, p)
        eps = _PROBE_EPS_COEFF * (omega * tau * h) ** (2 * p - 1)
        report = worst_case_signal(train, geometry, eps)
        srf = 1.0 / (omega * tau * h)
        rows.append(
            (srf, report.node_displacement / eps, report.amplitude_displacement / eps)
        )
    return rows
