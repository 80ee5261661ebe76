"""Record the reference values that run.py compares round 0 against.

    python3 perfbench/record_reference.py

Runs set-up and round 0 of every workload with the default seed and writes
each checked call's summary values to reference_seed0.json. Rerun it only
when a change to pqc_lens is meant to change analyzer results, and say so
in the change.
"""
from __future__ import annotations

import json
import sys
import tempfile

from run import DEFAULT_SEED, HERE, REFERENCE_FILE, ROOT, SCRATCH_PREFIX, prepare


def main() -> int:
    prepare()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, Round

    recorded = {}
    with tempfile.TemporaryDirectory(prefix=SCRATCH_PREFIX, dir=ROOT) as scratch:
        for name, cls in WORKLOADS.items():
            workload = cls(DEFAULT_SEED, scratch)
            workload.setup()
            rnd = Round(DEFAULT_SEED, 0, None)
            workload.run_round(rnd)
            if rnd.failures:
                print("\n".join(rnd.failures), file=sys.stderr)
                return 1
            recorded[name] = rnd.summaries
            print(f"{name}: {len(rnd.summaries)} calls recorded")
    REFERENCE_FILE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
