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
from .signal import _frozen_1d

__all__ = [
    "PronySolution",
    "prony_map",
    "prony_solve",
]

# The Hankel system counts as degenerate when its smallest singular value
# falls below this multiple of the largest.
_NULL_TOL = 1e-10
# Recovered nodes closer than this multiple of max(1, largest modulus) coincide.
_COINCIDENCE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class PronySolution:
    """Recovered amplitudes and (complex) nodes, sorted by node argument."""

    amplitudes: np.ndarray
    nodes: np.ndarray

    def __post_init__(self):
        amps = _frozen_1d(self.amplitudes, complex)
        nodes = _frozen_1d(self.nodes, complex)
        if len(amps) != len(nodes) or len(nodes) == 0:
            raise ValueError("amplitudes and nodes must be nonempty and of equal length")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "nodes", nodes)


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


def _monic_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of a monic polynomial given by its ascending coefficients.

    The eigenvalues of the same companion matrix np.roots(coeffs[::-1])
    builds, so the roots are bit-identical to it, without its input handling.
    An exactly zero constant coefficient goes through np.roots, which strips
    it and appends an exact zero root.
    """
    if coeffs[0] == 0:
        return np.roots(coeffs[::-1])
    desc = coeffs[::-1]
    companion = np.eye(len(coeffs) - 1, k=-1, dtype=complex)
    companion[0] = -desc[1:] / desc[0]
    return np.linalg.eigvals(companion)


def prony_solve(mu, d: int) -> PronySolution:
    """Recover d amplitudes and nodes from the first 2d power sums.

    Steps: build the d x (d+1) Hankel matrix [mu_{i+j}], take its null vector
    as the coefficients of the monic node polynomial, read the nodes off the
    companion-matrix roots, then fit amplitudes by least squares on the full
    2d x d Vandermonde.  The null vector comes from the smallest right singular
    vector; the system is flagged degenerate when the second-smallest singular
    value is also negligible, below _NULL_TOL times the largest (null space
    dimension above one), or when the leading polynomial coefficient vanishes.
    Two recovered nodes closer than _COINCIDENCE_TOL times max(1, largest
    node modulus) are repeated roots.

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
    if sigma[0] == 0 or sigma[-1] / sigma[0] < _NULL_TOL:
        raise DegenerateSystemError(
            "degenerate system: Hankel null space is not one-dimensional"
        )
    coeffs = vh[-1].conj()  # ascending: c_0 .. c_d
    if abs(coeffs[-1]) < 1e-12 * np.abs(coeffs).max():
        raise DegenerateSystemError(
            "degenerate system: leading polynomial coefficient vanishes"
        )
    coeffs = coeffs / coeffs[-1]

    nodes = _monic_roots(coeffs)
    scale = max(1.0, np.abs(nodes).max())
    gaps = np.abs(np.subtract.outer(nodes, nodes))
    gaps.flat[:: d + 1] = np.inf
    if gaps.min() < _COINCIDENCE_TOL * scale:
        raise RepeatedRootsError("repeated roots: recovered nodes coincide")

    order = np.lexsort((np.abs(nodes), np.arctan2(nodes.imag, nodes.real)))
    nodes = nodes[order]
    vand = np.power.outer(nodes, np.arange(2 * d)).T
    amps, *_ = np.linalg.lstsq(vand, data, rcond=None)
    return PronySolution(amplitudes=amps, nodes=nodes)
