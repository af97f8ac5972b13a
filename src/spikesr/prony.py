"""Exact solution of Prony moment systems.

The forward map sends amplitudes a_j and (generally complex) nodes w_j to the
power sums mu_k = sum_j a_j w_j^k.  Given 2d such values of a system that has a
solution with distinct nodes and nonzero amplitudes, the parameters are unique
up to node permutation and are recovered here by the classical method: null
vector of a Hankel matrix, companion-matrix roots, Vandermonde least squares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSystemError, RepeatedRootsError

__all__ = [
    "PronySolution",
    "prony_map",
    "prony_polynomial",
    "prony_solve",
    "recurrence_residual",
]


@dataclass(frozen=True)
class PronySolution:
    """Recovered amplitudes and (complex) nodes, sorted by node argument."""

    amplitudes: np.ndarray
    nodes: np.ndarray

    def __post_init__(self):
        amps = np.atleast_1d(np.asarray(self.amplitudes, dtype=complex)).copy()
        nodes = np.atleast_1d(np.asarray(self.nodes, dtype=complex)).copy()
        if len(amps) != len(nodes) or len(nodes) == 0:
            raise ValueError("amplitudes and nodes must be nonempty and of equal length")
        amps.flags.writeable = False
        nodes.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "nodes", nodes)

    @property
    def d(self) -> int:
        return len(self.nodes)

    def to_json_dict(self) -> dict:
        return {
            "amplitudes": [[float(a.real), float(a.imag)] for a in self.amplitudes],
            "nodes": [[float(z.real), float(z.imag)] for z in self.nodes],
        }


def prony_map(amplitudes, nodes, count: int) -> np.ndarray:
    """Power sums mu_k = sum_j a_j w_j^k for k = 0..count-1."""
    if count < 1:
        raise ValueError("need at least one output value")
    a = np.atleast_1d(np.asarray(amplitudes, dtype=complex))
    w = np.atleast_1d(np.asarray(nodes, dtype=complex))
    if a.shape != w.shape:
        raise ValueError("amplitudes and nodes must have equal length")
    k = np.arange(count)
    return np.power.outer(w, k).T @ a


def prony_polynomial(nodes) -> np.ndarray:
    """Monic polynomial with the given roots, coefficients ascending (c_d = 1)."""
    w = np.atleast_1d(np.asarray(nodes, dtype=complex))
    return np.poly(w)[::-1]


def prony_solve(
    mu,
    d: int,
    null_tol: float = 1e-10,
    coincidence_tol: float = 1e-9,
) -> PronySolution:
    """Recover d amplitudes and nodes from the first 2d power sums.

    Steps: build the d x (d+1) Hankel matrix [mu_{i+j}], take its null vector
    as the coefficients of the monic node polynomial, read the nodes off the
    companion-matrix roots, then fit amplitudes by least squares on the full
    2d x d Vandermonde.  The null vector comes from the smallest right singular
    vector; the system is flagged degenerate when the second-smallest singular
    value is also negligible (null space dimension above one) or when the
    leading polynomial coefficient vanishes.

    Raises DegenerateSystemError or RepeatedRootsError accordingly.  The output
    is sorted by principal argument of the nodes, ties broken by modulus.
    """
    data = np.atleast_1d(np.asarray(mu, dtype=complex))
    if d < 1:
        raise ValueError("order d must be at least 1")
    if len(data) != 2 * d:
        raise ValueError(f"need exactly 2 d = {2 * d} values, got {len(data)}")

    idx = np.add.outer(np.arange(d), np.arange(d + 1))
    hankel = data[idx]
    _, sigma, vh = np.linalg.svd(hankel)
    if sigma[0] == 0 or sigma[-1] / sigma[0] < null_tol:
        raise DegenerateSystemError(
            "degenerate system: Hankel null space is not one-dimensional"
        )
    coeffs = vh[-1].conj()  # ascending: c_0 .. c_d
    if abs(coeffs[-1]) < 1e-12 * np.abs(coeffs).max():
        raise DegenerateSystemError(
            "degenerate system: leading polynomial coefficient vanishes"
        )
    coeffs = coeffs / coeffs[-1]

    nodes = np.roots(coeffs[::-1])  # companion-matrix eigenvalues
    scale = max(1.0, np.abs(nodes).max())
    gaps = np.abs(np.subtract.outer(nodes, nodes))
    np.fill_diagonal(gaps, np.inf)
    if gaps.min() < coincidence_tol * scale:
        raise RepeatedRootsError("repeated roots: recovered nodes coincide")

    order = np.lexsort((np.abs(nodes), np.angle(nodes)))
    nodes = nodes[order]
    vand = np.power.outer(nodes, np.arange(2 * d)).T
    amps, *_ = np.linalg.lstsq(vand, data, rcond=None)
    return PronySolution(amplitudes=amps, nodes=nodes)


def recurrence_residual(nu, prony_coeffs) -> float:
    """Worst violation of the moment recurrence sum_l nu_{k+l} c_l over all windows.

    prony_coeffs holds the ascending coefficients of the monic node polynomial;
    the residual is zero (to roundoff) exactly when nu is a power-sum sequence
    of the polynomial's roots.
    """
    seq = np.atleast_1d(np.asarray(nu, dtype=complex))
    c = np.atleast_1d(np.asarray(prony_coeffs, dtype=complex))
    d = len(c) - 1
    if d < 1:
        raise ValueError("polynomial must have degree at least 1")
    if abs(c[-1] - 1.0) > 1e-12:
        raise ValueError("coefficients must be monic (last coefficient 1)")
    if len(seq) < d + 1:
        raise ValueError("sequence must cover at least one full window")
    windows = len(seq) - d
    residuals = [abs(seq[k : k + d + 1] @ c) for k in range(windows)]
    return float(max(residuals))
