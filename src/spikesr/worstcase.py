"""Worst-case cluster perturbations: signals that move nodes and amplitudes as
far as the noise level permits while barely changing the spectrum.

The construction recenters the cluster, keeps its first 2p-1 power moments,
bumps the last one by epsilon, and re-solves the moment system of order p.
The resulting signal matches the original everywhere outside the cluster and
deviates from it spectrally by an amount proportional to epsilon, which
spectral_deviation measures on a frequency grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateSystemError,
    EpsilonTooLargeError,
    RepeatedRootsError,
)
from .prony import prony_map, prony_solve
from .signal import SpikeTrain, _check_cluster_indices, fourier_at

__all__ = [
    "WorstCaseReport",
    "worst_case_signal",
    "spectral_deviation",
    "displacement_scaling_probe",
]

# Relative imaginary part, and relative gap, at or below which the perturbed
# cluster nodes count as complex or coincident.
_IMAG_TOL = 1e-9
# displacement_scaling_probe bumps by this multiple of (tau h)^(2p-1), small
# enough to stay inside the solvable regime.
_PROBE_EPS_COEFF = 0.02


@dataclass(frozen=True, eq=False)
class WorstCaseReport:
    """Perturbed signal plus measured deviations of its cluster from the source.

    The report keeps the centered source cluster (its nodes, amplitudes and
    first 2p moments g) and the centered perturbed cluster, and computes
    each deviation from them on first read.  moment_match_error is the worst
    mismatch of the centered-cluster moments of orders 0..2p-2;
    last_moment_delta the change in the order-(2p-1) moment (equal to the
    requested epsilon up to roundoff); the displacements are maxima over the
    cluster.  At epsilon = 0 every deviation is exactly zero.
    """

    perturbed: SpikeTrain
    source_nodes: np.ndarray
    source_amplitudes: np.ndarray
    source_moments: np.ndarray
    perturbed_nodes: np.ndarray
    perturbed_amplitudes: np.ndarray

    @cached_property
    def _perturbed_moments(self) -> np.ndarray:
        return prony_map(
            self.perturbed_amplitudes, self.perturbed_nodes, len(self.source_moments)
        ).real

    @cached_property
    def moment_match_error(self) -> float:
        return float(np.abs(self._perturbed_moments[:-1] - self.source_moments[:-1]).max())

    @cached_property
    def last_moment_delta(self) -> float:
        return float(self._perturbed_moments[-1] - self.source_moments[-1])

    @cached_property
    def node_displacement(self) -> float:
        return float(np.abs(self.perturbed_nodes - self.source_nodes).max())

    @cached_property
    def amplitude_displacement(self) -> float:
        return float(np.abs(self.perturbed_amplitudes - self.source_amplitudes).max())


def spectral_deviation(
    original: SpikeTrain,
    perturbed: SpikeTrain,
    omega: float,
    grid_points: int,
) -> float:
    """Maximum of |F_perturbed(s) - F_original(s)| over grid_points >= 2
    equispaced points of [-omega, omega]; omega must be finite and positive."""
    if not (math.isfinite(omega) and omega > 0):
        raise ValueError("omega must be finite and positive")
    if grid_points < 2:
        raise ValueError("need at least two grid points")
    grid = np.linspace(-omega, omega, grid_points)
    return float(np.abs(fourier_at(perturbed, grid) - fourier_at(original, grid)).max())


def worst_case_signal(
    train: SpikeTrain,
    p: int,
    epsilon: float,
    kappa: int = 1,
) -> WorstCaseReport:
    """Build the worst-case perturbation of the p-node cluster at 1-based
    index kappa of a signal.

    The cluster amplitudes must be real (the construction solves a real moment
    system) and nonzero.  Steps: center the cluster at the midpoint of its
    extreme nodes, compute its first 2p power moments, add epsilon to the last
    one, re-solve the moment system of order p, and splice the perturbed
    cluster back while leaving the non-cluster part untouched.  At epsilon = 0
    the perturbed signal is the source itself.

    Raises EpsilonTooLargeError when the perturbed system has complex or
    coincident nodes (imaginary parts above, or gaps at most, 1e-9 times the
    node scale), or when the displaced cluster would break the global node
    ordering.
    """
    if not math.isfinite(epsilon):
        raise ValueError("epsilon must be finite")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    _check_cluster_indices(p, train.d, kappa)
    sl = slice(kappa - 1, kappa - 1 + p)

    # The checks read their p or d values as Python scalars, for the reason
    # prony.py gives: every S2 trial runs them on a handful of values.  The
    # moduli come from numpy's abs, and Python floats round and compare as
    # float64 does, so each check decides as it would on the arrays.
    cluster_amps = train.amplitudes[sl]
    if max(map(abs, cluster_amps.imag.tolist())) > 1e-12 * max(
        1.0, *abs(cluster_amps).tolist()
    ):
        raise ValueError("cluster amplitudes must be real")
    amps_c = cluster_amps.real.astype(float)
    if not all(amps_c.tolist()):
        raise ValueError("cluster amplitudes must be nonzero")
    nodes = train.nodes.tolist()
    nodes_c = nodes[sl]

    center = 0.5 * (nodes_c[0] + nodes_c[-1])
    centered = train.nodes[sl] - center
    g = prony_map(amps_c, centered, 2 * p).real
    if epsilon == 0:
        perturbed, new_nodes, new_amps = train, centered, amps_c
    else:
        g_bumped = g.copy()
        g_bumped[2 * p - 1] += epsilon
        try:
            sol = prony_solve(g_bumped, p)
        except (DegenerateSystemError, RepeatedRootsError) as exc:
            raise EpsilonTooLargeError(f"epsilon too large: {exc}") from exc

        node_scale = max(1.0, *abs(sol.nodes).tolist())
        if max(map(abs, sol.nodes.imag.tolist())) > _IMAG_TOL * node_scale:
            raise EpsilonTooLargeError(
                "epsilon too large: perturbed moment system has complex nodes"
            )
        order = sol.nodes.real.argsort()
        new_nodes = sol.nodes.real[order]
        snapped = new_nodes.tolist()
        if min(b - a for a, b in zip(snapped, snapped[1:])) <= _IMAG_TOL * node_scale:
            raise EpsilonTooLargeError(
                "epsilon too large: perturbed nodes coincide after the real snap"
            )
        nodes[sl] = [x + center for x in snapped]
        if not all(a < b for a, b in zip(nodes, nodes[1:])):
            raise EpsilonTooLargeError(
                "epsilon too large: displaced cluster breaks the node ordering"
            )
        # read only now, so a rejected construction never fits amplitudes
        new_amps = sol.amplitudes[order].real
        spliced_amps = train.amplitudes.copy()
        spliced_amps[sl] = new_amps
        perturbed = SpikeTrain(amplitudes=spliced_amps, nodes=nodes)

    return WorstCaseReport(perturbed, centered, amps_c, g, new_nodes, new_amps)


def displacement_scaling_probe(
    p: int,
    h_values: Sequence[float],
) -> list[tuple[float, float, float]]:
    """Displacement amplification of the worst-case construction across cluster sizes.

    For each h the centered cluster (p equispaced nodes spanning h,
    alternating unit amplitudes) is perturbed with
    epsilon = 0.02 (tau h)^{2p-1}, where tau = 1/(p-1).  Each h is read as a
    float.  Before any solve, an h that is not finite and positive, or whose
    epsilon underflows to 0 or overflows, raises ValueError naming it.

    Returns one (srf, node_displacement/epsilon, amplitude_displacement/epsilon)
    row per h, where srf = 1/(tau h).  On a log-log scale the node column
    grows with slope 2p-2 and the amplitude column with slope 2p-1.
    """
    _check_cluster_indices(p, p)
    tau = 1.0 / (p - 1)
    probes = []
    for h in map(float, h_values):
        gap = tau * h
        try:
            eps = _PROBE_EPS_COEFF * gap ** (2 * p - 1) if 0 < h < math.inf else 0.0
        except OverflowError:
            eps = math.inf
        if not 0 < eps < math.inf:
            raise ValueError(
                f"cannot probe h = {h}: need a finite h > 0 with a finite epsilon > 0"
            )
        probes.append((h, gap, eps))
    rows = []
    for h, gap, eps in probes:
        nodes = -h / 2.0 + gap * np.arange(p)
        train = SpikeTrain(amplitudes=(-1.0) ** np.arange(p), nodes=nodes)
        report = worst_case_signal(train, p, eps)
        rows.append(
            (1.0 / gap, report.node_displacement / eps, report.amplitude_displacement / eps)
        )
    return rows
