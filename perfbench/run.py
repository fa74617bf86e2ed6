"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Generates the workload's inputs from
the seed, pins itself to one CPU, measures for ``--seconds`` and
checks every output.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  The line before it carries the
raw and probe-normalized value of every end-to-end metric, the sample
counts and the input digest, for ``report.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import common

# The end-to-end metrics reported probe-normalized ("norm": CPU-bound
# timings, scaled to the nominal probe time); the rest are reported as
# measured ("raw").  NOTES.md gives the steadiness behind the choice.
NORMALIZED = ("units_per_s", "unit_p50_ms", "unit_p90_ms", "setup_s")


def workloads():
    import inprocess
    import serve_edit
    return {"kernel-parse": inprocess.kernel_parse,
            "fuzz-diff": inprocess.fuzz_diff,
            "serve-edit": serve_edit.serve_edit}


def input_digest(workload: str, seed: int) -> str:
    import inprocess
    import serve_edit
    if workload == "serve-edit":
        return serve_edit.make_inputs(seed)[1]
    return inprocess.make_inputs(workload, seed)[1]


def load_definition() -> dict:
    with open(os.path.join(common.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not common.have_program():
        print(f"perfbench: no program under {common.SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, common.SRC)
    table = workloads()
    if args.workload not in table:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(table)}", file=sys.stderr)
        return 2
    definition = load_definition()

    run_dir = common.run_dir(args.workload)
    # Everything the program caches goes to this run's own directory.
    os.environ["REPRO_CACHE_DIR"] = os.path.join(run_dir, "cache")
    try:
        result = table[args.workload](args.seed, args.seconds,
                                      bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    # Inputs must be a pure function of the seed, and must match the
    # digest pinned for this seed when there is one.
    digest = result["digest"]
    inputs_ok = (input_digest(args.workload, args.seed) == digest
                 and common.check_pinned_digest(args.workload, args.seed,
                                                digest))
    if not inputs_ok:
        print(f"perfbench: inputs of {args.workload} seed {args.seed} "
              f"changed (digest {digest})", file=sys.stderr)

    if args.trace:
        metrics = {}
        layers = result["layers"]
        for spec in definition["per_layer"]:
            # A layer not on this workload's path did no work: 0.
            metrics[spec["name"]] = {"value": layers.get(spec["name"], 0),
                                     "unit": spec["unit"]}
        detail = {"layers_measured": sorted(layers)}
    else:
        forms = {spec["name"]: ("norm" if spec["name"] in NORMALIZED
                                else "raw")
                 for spec in definition["end_to_end"]}
        metrics = {spec["name"]: {
            "value": result["e2e"][spec["name"]][forms[spec["name"]]],
            "unit": spec["unit"]} for spec in definition["end_to_end"]}
        detail = {"e2e": result["e2e"], "forms": forms,
                  "detail": result.get("detail", {})}
    print(json.dumps({"perfbench": dict(
        detail, workload=args.workload, seed=args.seed,
        trace=args.trace, digest=digest)}))
    print(json.dumps({"correct": bool(result["correct"] and inputs_ok),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0 if inputs_ok else 1


if __name__ == "__main__":
    sys.exit(main())
