"""Print the sha256 identity of twelve fixed amplification sweeps, of
one fixed decimation scan and of a fixed set of sigma sets.

Run from the repository root:

    python tools/sweep_hashes.py

Each line names a sweep and gives the first 16 hex digits of the sha256 of
its CSV, as written by write_records_csv: schemes S1 and S2, (p, d) in
{(2, 3), (2, 4), (3, 5)}, DEFAULT_AMPLIFICATION_RANGES ("amp") and
DEFAULT_PHASE_RANGES ("phase"), 300 trials from base seed 7.  After the
digests it prints the float.hex slope of each fit of those sweeps: the four
fit_loglog_slope fits (kx and ka, cluster and noncluster) of each "amp"
sweep and the phase_transition_sweep boundary of each "phase" sweep, or the
class of the exception a fit raises.

The last line is the digest of a decimation scan: 200 points of the
standard p=3, d=8 layout divided by 2 pi, drawn from seed 7 with omega
log-uniform in [50, 8000], omega h uniform in (0.3, 0.9) (2d-1)/2 and
alpha log-uniform in [1/d^2, 1.5].  It hashes each point's admissible set,
the midpoint of its widest interval, and the Gautschi bounds and measured
row norms of the nodes mapped at that rate, or the class of the package
error a step raises.

The sigma line is the digest of the sigma_intervals sets of 2000 draws from
seed 7: separation delta log-uniform in [1e-3, 100], a range starting
uniform in [-10, 10] and log-uniform in [1e-6, 50] long, and alpha one of
pi, the float just below pi, 1.0 and 0.1 for about half the draws and
log-uniform in [1e-3, pi) for the rest.  At alpha near pi neighbouring
pieces touch or nearly touch, so the joins are covered.

A change that should leave the sweep output, its fits and the decimation
analysis alone prints the same lines as its parent on the same machine; the
digits may differ between machines whose BLAS kernels round differently.
"""

import hashlib
import io
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spikesr.decimation import (  # noqa: E402
    admissible_lambdas,
    gautschi_bounds,
    sigma_intervals,
)
from spikesr.errors import SpikesrError  # noqa: E402
from spikesr.experiments import (  # noqa: E402
    DEFAULT_AMPLIFICATION_RANGES,
    DEFAULT_PHASE_RANGES,
    SCHEMES,
    amplification_sweep,
    fit_loglog_slope,
    phase_transition_sweep,
    write_records_csv,
)
from spikesr.signal import (  # noqa: E402
    ClusterGeometry,
    make_clustered_nodes,
    standard_cluster_geometry,
)

SIZES = ((2, 3), (2, 4), (3, 5))
RANGES = (("amp", DEFAULT_AMPLIFICATION_RANGES), ("phase", DEFAULT_PHASE_RANGES))
TRIALS = 300
BASE_SEED = 7
SCAN_P, SCAN_D = 3, 8
SCAN_POINTS = 200
SIGMA_DRAWS = 2000
SIGMA_ALPHAS = (math.pi, math.nextafter(math.pi, 0.0), 1.0, 0.1)


def digest(records) -> str:
    stream = io.StringIO()
    write_records_csv(records, stream)
    return hashlib.sha256(stream.getvalue().encode()).hexdigest()[:16]


def slope_hex(fit) -> str:
    """The float.hex slope of the fit that fit() returns, or the class of
    the package error it raises."""
    try:
        return fit().slope.hex()
    except SpikesrError as exc:
        return type(exc).__name__


def scan_digest() -> str:
    """Digest of the fixed decimation scan the module docstring describes."""
    p, d = SCAN_P, SCAN_D
    rng = np.random.default_rng(BASE_SEED)
    omegas = np.exp(rng.uniform(math.log(50.0), math.log(8000.0), SCAN_POINTS))
    factors = rng.uniform(0.3, 0.9, SCAN_POINTS)
    alphas = np.exp(rng.uniform(math.log(1.0 / d**2), math.log(1.5), SCAN_POINTS))
    sha = hashlib.sha256()
    for omega, factor, alpha in zip(omegas.tolist(), factors.tolist(), alphas.tolist()):
        h = factor * (2 * d - 1) / 2.0 / omega
        layout = standard_cluster_geometry(p, d, 2.0 * math.pi * h)
        nodes = make_clustered_nodes(layout) / (2.0 * math.pi)
        try:
            admissible = admissible_lambdas(
                nodes, ClusterGeometry.from_nodes(nodes, p), omega, alpha
            )
            sha.update(repr(admissible.intervals).encode())
            lo, hi = max(admissible.intervals, key=lambda ab: ab[1] - ab[0])
            rate = 0.5 * (lo + hi)
            sha.update(rate.hex().encode())
            bounds = gautschi_bounds(np.exp(2j * math.pi * rate * nodes))
        except SpikesrError as exc:
            sha.update(type(exc).__name__.encode())
            continue
        for rows in (
            bounds.amplitude_row_bounds,
            bounds.node_row_bounds,
            bounds.empirical_amplitude_row_norms,
            bounds.empirical_node_row_norms,
        ):
            sha.update(rows.tobytes())
    return sha.hexdigest()[:16]


def sigma_digest() -> str:
    """Digest of the fixed sigma sets the module docstring describes."""
    rng = np.random.default_rng(BASE_SEED)
    deltas = np.exp(rng.uniform(math.log(1e-3), math.log(100.0), SIGMA_DRAWS))
    starts = rng.uniform(-10.0, 10.0, SIGMA_DRAWS)
    lengths = np.exp(rng.uniform(math.log(1e-6), math.log(50.0), SIGMA_DRAWS))
    drawn = np.exp(rng.uniform(math.log(1e-3), math.log(math.pi), SIGMA_DRAWS))
    # a pick below len(SIGMA_ALPHAS) takes that fixed alpha, any other the drawn one
    picks = rng.integers(0, 2 * len(SIGMA_ALPHAS), SIGMA_DRAWS)
    sha = hashlib.sha256()
    for delta, a, length, alpha, pick in zip(
        deltas.tolist(), starts.tolist(), lengths.tolist(), drawn.tolist(), picks.tolist()
    ):
        if pick < len(SIGMA_ALPHAS):
            alpha = SIGMA_ALPHAS[pick]
        sha.update(repr(sigma_intervals(delta, alpha, (a, a + length)).intervals).encode())
    return sha.hexdigest()[:16]


def main() -> None:
    fits = []
    for scheme in SCHEMES:
        for p, d in SIZES:
            for name, ranges in RANGES:
                sweep = f"{scheme} ({p}, {d}) {name}"
                kwargs = dict(ranges, trials=TRIALS, scheme=scheme, base_seed=BASE_SEED)
                records = amplification_sweep(p, d, **kwargs)
                print(f"{sweep}: {digest(records)}")
                if name == "amp":
                    for quantity in ("kx", "ka"):
                        for node_class in ("cluster", "noncluster"):
                            slope = slope_hex(
                                lambda: fit_loglog_slope(records, quantity, node_class)
                            )
                            fits.append(f"{sweep} {quantity} {node_class}: {slope}")
                else:
                    slope = slope_hex(lambda: phase_transition_sweep(p, d, **kwargs)[1])
                    fits.append(f"{sweep} boundary: {slope}")
    print("\n".join(fits))
    print(f"decimation ({SCAN_P}, {SCAN_D}) scan: {scan_digest()}")
    print(f"decimation sigma sets: {sigma_digest()}")


if __name__ == "__main__":
    main()
