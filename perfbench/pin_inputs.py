"""Write ``input_digests.json``: the digest of every workload's
generated inputs for seeds 0-99.  ``run.py`` fails a run whose inputs
no longer match the digest pinned for its seed.  Re-run only when the
inputs are meant to change, which starts a new baseline.

    python3 perfbench/pin_inputs.py
"""

import json
import os
import sys

import common

SEEDS = range(100)


def main() -> int:
    sys.path.insert(0, common.SRC)
    import run
    digests = {}
    for workload in run.workloads():
        digests[workload] = {str(seed): run.input_digest(workload, seed)
                             for seed in SEEDS}
    path = os.path.join(common.BENCH_DIR, "input_digests.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
