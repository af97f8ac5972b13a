"""Print the bytes a sweep's records hold, per record, for schemes S1 and S2.

Run from the repository root:

    python tools/record_bytes.py

For each scheme, eight amplification sweeps (p=2, d=4,
DEFAULT_AMPLIFICATION_RANGES, 500 trials each, base seeds 1000-1007) run
under tracemalloc, and the line gives the traced memory still held once
they have returned, divided by the 4 000 records: the records, their
per-node tuples and floats, and the list slots that keep them.  One
warm-up sweep fills the module caches first, so they are not counted.
The figure depends on the interpreter's object sizes, so compare it with
a parent commit's on the same Python.
"""

import gc
import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spikesr.experiments import (  # noqa: E402
    DEFAULT_AMPLIFICATION_RANGES,
    SCHEMES,
    amplification_sweep,
)

P, D = 2, 4
TRIALS = 500
BASE_SEEDS = range(1000, 1008)


def sweep(scheme: str, base_seed: int) -> list:
    return amplification_sweep(
        P, D, **DEFAULT_AMPLIFICATION_RANGES, trials=TRIALS, scheme=scheme,
        base_seed=base_seed,
    )


def bytes_per_record(scheme: str) -> tuple:
    """(traced bytes held per record, record count) for one scheme."""
    sweep(scheme, BASE_SEEDS[0])
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [sweep(scheme, seed) for seed in BASE_SEEDS]
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    count = sum(map(len, kept))
    return held / count, count


def main() -> None:
    for scheme in SCHEMES:
        per_record, count = bytes_per_record(scheme)
        print(f"{scheme} (p={P}, d={D}, {count} records): {per_record:.0f} B per record")


if __name__ == "__main__":
    main()
