"""Print the sha256 identity of twelve fixed amplification sweeps.

Run from the repository root:

    python tools/sweep_hashes.py

Each line names a sweep and gives the first 16 hex digits of the sha256 of
its CSV, as written by write_records_csv: schemes S1 and S2, (p, d) in
{(2, 3), (2, 4), (3, 5)}, DEFAULT_AMPLIFICATION_RANGES ("amp") and
DEFAULT_PHASE_RANGES ("phase"), 300 trials from base seed 7.  A change that should leave the sweep output
alone prints the same lines as its parent on the same machine; the digits
may differ between machines whose BLAS kernels round differently.
"""

import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spikesr.experiments import (  # noqa: E402
    DEFAULT_AMPLIFICATION_RANGES,
    DEFAULT_PHASE_RANGES,
    amplification_sweep,
    write_records_csv,
)

SCHEMES = ("S1", "S2")
SIZES = ((2, 3), (2, 4), (3, 5))
RANGES = (("amp", DEFAULT_AMPLIFICATION_RANGES), ("phase", DEFAULT_PHASE_RANGES))
TRIALS = 300
BASE_SEED = 7


def digest(records) -> str:
    stream = io.StringIO()
    write_records_csv(records, stream)
    return hashlib.sha256(stream.getvalue().encode()).hexdigest()[:16]


def main() -> None:
    for scheme in SCHEMES:
        for p, d in SIZES:
            for name, ranges in RANGES:
                records = amplification_sweep(
                    p, d, **ranges, trials=TRIALS, scheme=scheme, base_seed=BASE_SEED
                )
                print(f"{scheme} ({p}, {d}) {name}: {digest(records)}")


if __name__ == "__main__":
    main()
