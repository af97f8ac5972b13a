"""Print the bytes a sweep's results hold, per record, for schemes S1 and S2.

Run from the repository root:

    python tools/record_bytes.py

For each scheme, eight amplification sweeps (p=2, d=4,
DEFAULT_AMPLIFICATION_RANGES, 500 trials each, base seeds 1000-1007) run
under tracemalloc, and two lines give the traced memory still held once
they have returned, divided by the 4 000 records:

- "S1"/"S2": the kept Sweeps alone, their trial array, failure codes and
  tables;
- "S1 pooled"/"S2 pooled": the kept Sweeps with every row view pooled into
  one list, as bench/workloads.py pools the kept passes for its fits; the
  difference is the view, its index and its list slot.

One warm-up sweep fills the module caches first, so they are not counted.
The figures depend on the interpreter's object sizes, so compare them with
a parent commit's on the same Python, as CI does on pull requests.
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


def sweep(scheme: str, base_seed: int):
    return amplification_sweep(
        P, D, **DEFAULT_AMPLIFICATION_RANGES, trials=TRIALS, scheme=scheme,
        base_seed=base_seed,
    )


def bytes_per_record(scheme: str) -> tuple:
    """(traced bytes held per record by the kept Sweeps, the same with every
    row pooled in one list, record count) for one scheme."""
    sweep(scheme, BASE_SEEDS[0])
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [sweep(scheme, seed) for seed in BASE_SEEDS]
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
        pooled = [row for result in kept for row in result]
        held_pooled = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    count = len(pooled)
    return held / count, held_pooled / count, count


def main() -> None:
    for scheme in SCHEMES:
        kept, pooled, count = bytes_per_record(scheme)
        for label, figure in ((scheme, kept), (f"{scheme} pooled", pooled)):
            print(f"{label} (p={P}, d={D}, {count} records): {figure:.0f} B per record")


if __name__ == "__main__":
    main()
