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

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EigenFailureError, RankDeficiencyError
from .signal import SpectralSamples, SpikeTrain

__all__ = [
    "RecoveryResult",
    "build_hankel",
    "default_pencil_param",
    "mp_recover",
]


@dataclass(frozen=True)
class RecoveryResult:
    """Estimated signal plus diagnostics of the pencil solve.

    Node estimates live in (-1/2, 1/2] (principal angles of the recovered
    eigenvalues divided by 2 pi).  singular_values are the d leading singular
    values of the full sample Hankel matrix; eigenvalues are the raw
    shift-matrix eigenvalues before angle extraction, ordered like the nodes.
    """

    estimate: SpikeTrain
    pencil_param: int
    singular_values: np.ndarray
    eigenvalues: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "nodes": [float(x) for x in self.estimate.nodes],
            "amplitudes": [
                [float(a.real), float(a.imag)] for a in self.estimate.amplitudes
            ],
            "L": int(self.pencil_param),
            "sigma": [float(s) for s in self.singular_values],
        }


def _sample_values(samples) -> np.ndarray:
    if isinstance(samples, SpectralSamples):
        return samples.values
    return np.atleast_1d(np.asarray(samples, dtype=complex))


def build_hankel(samples, pencil_param: int) -> np.ndarray:
    """(L+1) x (N-L) Hankel matrix H[i, j] = values[i + j]."""
    values = _sample_values(samples)
    n = len(values)
    if not 1 <= pencil_param <= n - 1:
        raise ValueError(f"pencil parameter must lie in [1, {n - 1}]")
    idx = np.add.outer(np.arange(pencil_param + 1), np.arange(n - pencil_param))
    return values[idx]


def default_pencil_param(count: int) -> int:
    """ceil(N / 2), the pencil parameter used throughout the experiments."""
    if count < 3:
        raise ValueError("need at least 3 samples")
    return -(-count // 2)


def mp_recover(
    samples,
    d: int,
    pencil_param: Optional[int] = None,
    rank_tol: float = 1e-13,
) -> RecoveryResult:
    """Recover d nodes and amplitudes from N >= 2d unit-rate samples.

    One SVD of the (L+1) x (N-L) sample Hankel matrix gives the d leading left
    singular vectors U; the least-squares solution Psi of U[:-1] Psi = U[1:]
    has the node exponentials z_j as its eigenvalues.  The node amplitudes are
    fitted by least squares on the N x d Fourier Vandermonde of the recovered
    angles.  Nodes are returned sorted ascending.

    Raises RankDeficiencyError when the d-th singular value of the Hankel
    matrix falls under rank_tol times its largest one, and EigenFailureError
    when the shift solve fails or yields coincident nodes.
    """
    values = _sample_values(samples)
    n = len(values)
    if d < 1:
        raise ValueError("model order d must be at least 1")
    if n < 2 * d:
        raise ValueError(f"need at least 2 d = {2 * d} samples, got {n}")
    L = default_pencil_param(n) if pencil_param is None else pencil_param
    if not d <= L <= n - d:
        raise ValueError(f"pencil parameter must lie in [{d}, {n - d}]")

    u, sigma, _ = np.linalg.svd(build_hankel(values, L), full_matrices=False)
    u, sigma = u[:, :d], sigma[:d]
    if sigma[-1] < rank_tol * sigma[0]:
        raise RankDeficiencyError(
            "rank deficiency: the Hankel matrix has fewer than d significant singular values"
        )

    try:
        psi, *_ = np.linalg.lstsq(u[:-1], u[1:], rcond=None)
        z = np.linalg.eigvals(psi)
    except np.linalg.LinAlgError as exc:
        raise EigenFailureError(f"eigen failure: {exc}") from exc

    nodes = np.angle(z) / (2.0 * np.pi)
    order = np.argsort(nodes, kind="stable")
    nodes = nodes[order]
    z = z[order]
    if not np.all(np.isfinite(nodes)) or np.any(np.diff(nodes) <= 0):
        raise EigenFailureError("eigen failure: recovered nodes are not distinct")

    vand = np.exp(2j * np.pi * np.multiply.outer(np.arange(n), nodes))
    amps, *_ = np.linalg.lstsq(vand, values, rcond=None)

    return RecoveryResult(
        estimate=SpikeTrain(amplitudes=amps, nodes=nodes),
        pencil_param=L,
        singular_values=sigma,
        eigenvalues=z,
    )
