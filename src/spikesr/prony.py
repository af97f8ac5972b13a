"""Exact solution of Prony moment systems.

The forward map sends amplitudes a_j and (generally complex) nodes w_j to the
power sums mu_k = sum_j a_j w_j^k.  Given 2d such values of a system that has a
solution with distinct nodes and nonzero amplitudes, the parameters are unique
up to node permutation and are recovered here by the classical method: null
vector of a Hankel matrix, companion-matrix roots, Vandermonde least squares.
"""

from __future__ import annotations

import cmath
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DegenerateSystemError, RepeatedRootsError

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
    """Recovered (complex) nodes, sorted by node argument, and the 2d power
    sums they solve, both read-only.

    The amplitudes are fitted on first read, by least squares on the full
    2d x d Vandermonde of the nodes, and kept: a caller that rejects the
    nodes never pays for the fit.
    """

    nodes: np.ndarray
    power_sums: np.ndarray

    @cached_property
    def amplitudes(self) -> np.ndarray:
        exponents = _order_tables(len(self.nodes))[2]
        vand = np.power.outer(self.nodes, exponents).T
        amps, *_ = np.linalg.lstsq(vand, self.power_sums, rcond=None)
        return amps


def prony_map(amplitudes, nodes, count: int) -> np.ndarray:
    """Power sums mu_k = sum_j a_j w_j^k for k = 0..count-1.  A count that is
    not an integer, such as 2.0, raises TypeError."""
    count = operator.index(count)
    if count < 1:
        raise ValueError("need at least one output value")
    a = np.atleast_1d(np.asarray(amplitudes, dtype=complex))
    w = np.atleast_1d(np.asarray(nodes, dtype=complex))
    if a.shape != w.shape:
        raise ValueError("amplitudes and nodes must have equal length")
    k = np.arange(count)
    return np.power.outer(w, k).T @ a


# The S2 kernels (prony_solve here; worst_case_signal, mp_recover,
# single_experiment, its node layout signal._standard_nodes and SpikeTrain's
# checks) run once per trial on arrays of p or d entries.  At that size
# numpy's module-level helpers (np.eye, np.add.outer on fresh aranges) and
# its reductions (ndarray.max, .min and .all, which pass through Python
# wrappers) cost more in dispatch than the arithmetic, so an order's tables
# are built once and the tests read their few values as Python scalars
# (tolist, item), and the layout is built on Python floats.  Python floats
# round and compare exactly as float64 does, every modulus comes from numpy's
# abs, and each LAPACK call gets the float64 or complex128 arrays its
# array-only form would, so the results equal those of that form bit for bit.
@lru_cache(maxsize=64)
def _order_tables(d: int) -> tuple:
    """Read-only tables of an order-d system: the d x (d+1) Hankel index
    [i + j], the d x d down-shift that _monic_roots turns into a companion
    matrix, and the Vandermonde exponent row 0..2d-1."""
    tables = (
        np.add.outer(np.arange(d), np.arange(d + 1)),
        np.eye(d, k=-1, dtype=complex),
        np.arange(2 * d),
    )
    for table in tables:
        table.flags.writeable = False
    return tables


def _monic_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of a monic polynomial given by its ascending coefficients.

    The eigenvalues of the same companion matrix np.roots(coeffs[::-1])
    builds, so the roots are bit-identical to it, without its input handling.
    An exactly zero constant coefficient goes through np.roots, which strips
    it and appends an exact zero root.
    """
    if coeffs.item(0) == 0:
        return np.roots(coeffs[::-1])
    desc = coeffs[::-1]
    companion = _order_tables(len(coeffs) - 1)[1].copy()
    companion[0] = -desc[1:] / desc[0]
    return np.linalg.eigvals(companion)


def prony_solve(mu, d: int) -> PronySolution:
    """Recover d amplitudes and nodes from the first 2d power sums.

    Steps: build the d x (d+1) Hankel matrix [mu_{i+j}], take its null vector
    as the coefficients of the monic node polynomial, and read the nodes off
    the companion-matrix roots.  The amplitudes are fitted by least squares
    on the full 2d x d Vandermonde when the solution's amplitudes are first
    read.  The null vector comes from the smallest right singular vector; the
    system is flagged degenerate when the second-smallest singular value is
    also negligible, below _NULL_TOL times the largest (null space dimension
    above one), or when the leading polynomial coefficient vanishes.
    Two recovered nodes closer than _COINCIDENCE_TOL times max(1, largest
    node modulus) are repeated roots.

    Raises DegenerateSystemError or RepeatedRootsError accordingly.  The output
    is sorted by principal argument of the nodes, ties broken by modulus.  An
    order that is not an integer, such as 2.0, raises TypeError.
    """
    d = operator.index(d)
    data = np.array(mu, dtype=complex, ndmin=1)
    if d < 1:
        raise ValueError("order d must be at least 1")
    if len(data) != 2 * d:
        raise ValueError(f"need exactly 2 d = {2 * d} values, got {len(data)}")
    if not all(map(cmath.isfinite, data.tolist())):
        raise ValueError("power sums must be finite")

    hankel_index = _order_tables(d)[0]
    _, sigma, vh = np.linalg.svd(data[hankel_index])
    largest, smallest = sigma.item(0), sigma.item(-1)
    if largest == 0 or smallest / largest < _NULL_TOL:
        raise DegenerateSystemError(
            "degenerate system: Hankel null space is not one-dimensional"
        )
    coeffs = vh[-1].conj()  # ascending: c_0 .. c_d
    if abs(coeffs.item(-1)) < 1e-12 * max(abs(coeffs).tolist()):
        raise DegenerateSystemError(
            "degenerate system: leading polynomial coefficient vanishes"
        )
    coeffs = coeffs / coeffs[-1]

    nodes = _monic_roots(coeffs)
    moduli = abs(nodes)
    scale = max(1.0, *moduli.tolist())
    gaps = abs(nodes[:, None] - nodes)
    gaps.flat[:: d + 1] = np.inf
    if min(gaps.ravel().tolist()) < _COINCIDENCE_TOL * scale:
        raise RepeatedRootsError("repeated roots: recovered nodes coincide")

    order = np.lexsort((moduli, np.arctan2(nodes.imag, nodes.real)))
    nodes = nodes[order]
    # the amplitude fit reads both arrays later, so neither may change
    nodes.flags.writeable = data.flags.writeable = False
    return PronySolution(nodes=nodes, power_sums=data)
