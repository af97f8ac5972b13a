"""Matrix Pencil recovery of spike parameters from noisy unit-rate spectra.

Given samples values[k] ~ sum_j a_j exp(2 pi i x_j k), the noiseless sample
Hankel matrix H[i, j] = values[i + j] factors as V A W^T with V[i, j] = z_j^i
and z_j = exp(2 pi i x_j), so its column space is spanned by the Vandermonde
columns of the z_j.  That space is shift invariant: deleting the first row of
V equals deleting its last row and multiplying by diag(z).  The estimator
takes one SVD of H, keeps the d leading left singular vectors U (a basis of
the signal subspace, which filters the noise), and solves the shift equation
U[:-1] Psi = U[1:] by least squares; the eigenvalues of the d x d matrix Psi
are the z_j.  This is the shift-invariance form of the Matrix Pencil method
(Hua & Sarkar 1990, IEEE TASSP 38(5); ESPRIT, Roy & Kailath 1989).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import EigenFailureError, RankDeficiencyError
from .signal import SpectralSamples, SpikeTrain

__all__ = [
    "RecoveryResult",
    "mp_recover",
]

# The d-th Hankel singular value counts as zero below this multiple of the first.
_RANK_TOL = 1e-13


@dataclass(frozen=True, eq=False)
class RecoveryResult:
    """Estimated signal plus diagnostics of the pencil solve.

    Node estimates live in (-1/2, 1/2] (principal angles of the recovered
    eigenvalues divided by 2 pi).  singular_values are the d leading singular
    values of the full sample Hankel matrix.
    """

    estimate: SpikeTrain
    singular_values: np.ndarray


def mp_recover(samples: SpectralSamples, d: int) -> RecoveryResult:
    """Recover d nodes and amplitudes from N >= 2d unit-rate samples.

    One SVD of the (ceil(N/2)+1) x floor(N/2) sample Hankel matrix gives the
    d leading left singular vectors U; the least-squares solution Psi of
    U[:-1] Psi = U[1:] has the node exponentials z_j as its eigenvalues.  The
    node amplitudes are fitted by least squares on the N x d Fourier
    Vandermonde of the recovered angles.  Nodes are returned sorted ascending.
    The samples are finite, as SpectralSamples requires; a d that is not an
    integer, such as 2.0, raises TypeError.

    Raises RankDeficiencyError when the d-th singular value of the Hankel
    matrix falls under 1e-13 times its largest one, and EigenFailureError
    when the shift solve fails or yields coincident nodes.
    """
    d = operator.index(d)
    values = samples.values
    n = len(values)
    if d < 1:
        raise ValueError("model order d must be at least 1")
    if n < 2 * d:
        raise ValueError(f"need at least 2 d = {2 * d} samples, got {n}")
    L = -(-n // 2)

    hankel = values[np.add.outer(np.arange(L + 1), np.arange(n - L))]
    u, sigma, _ = np.linalg.svd(hankel, full_matrices=False)
    u, sigma = u[:, :d], sigma[:d]
    # Scalar tests on the d-sized results, for the reason prony.py gives.
    if sigma.item(-1) < _RANK_TOL * sigma.item(0):
        raise RankDeficiencyError(
            "rank deficiency: the Hankel matrix has fewer than d significant singular values"
        )

    try:
        psi, *_ = np.linalg.lstsq(u[:-1], u[1:], rcond=None)
        z = np.linalg.eigvals(psi)
    except np.linalg.LinAlgError as exc:
        raise EigenFailureError(f"eigen failure: {exc}") from exc

    nodes = np.arctan2(z.imag, z.real) / (2.0 * np.pi)
    order = nodes.argsort(kind="stable")
    nodes = nodes[order]
    sorted_nodes = nodes.tolist()
    if not all(map(math.isfinite, sorted_nodes)) or any(
        b <= a for a, b in zip(sorted_nodes, sorted_nodes[1:])
    ):
        raise EigenFailureError("eigen failure: recovered nodes are not distinct")

    vand = np.exp(2j * np.pi * np.multiply.outer(np.arange(n), nodes))
    amps, *_ = np.linalg.lstsq(vand, values, rcond=None)

    return RecoveryResult(
        estimate=SpikeTrain(amplitudes=amps, nodes=nodes),
        singular_values=sigma,
    )
