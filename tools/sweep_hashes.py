"""Print the sha256 identity of twelve fixed amplification sweeps.

Run from the repository root:

    python tools/sweep_hashes.py

Each line names a sweep and gives the first 16 hex digits of the sha256 of
its CSV, as written by write_records_csv: schemes S1 and S2, (p, d) in
{(2, 3), (2, 4), (3, 5)}, DEFAULT_AMPLIFICATION_RANGES ("amp") and
DEFAULT_PHASE_RANGES ("phase"), 300 trials from base seed 7.  After the
digests it prints the float.hex slope of each fit of those sweeps: the four
fit_loglog_slope fits (kx and ka, cluster and noncluster) of each "amp"
sweep and the phase_transition_sweep boundary of each "phase" sweep, or the
class of the exception a fit raises.  A change that should leave the sweep
output and its fits alone prints the same lines as its parent on the same
machine; the digits may differ between machines whose BLAS kernels round
differently.
"""

import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

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

SIZES = ((2, 3), (2, 4), (3, 5))
RANGES = (("amp", DEFAULT_AMPLIFICATION_RANGES), ("phase", DEFAULT_PHASE_RANGES))
TRIALS = 300
BASE_SEED = 7


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


if __name__ == "__main__":
    main()
