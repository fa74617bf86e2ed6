"""Collect, print and compare benchmark result sets.

A result set is a directory of run outputs, one file per run, each
holding the standard output of ``run.py`` (``<workload>-<seed>.out``).

    python3 perfbench/report.py collect DIR [--workloads A,B] [--seeds 1-10]
                                        [--seconds S] [--trace 0|1]
    python3 perfbench/report.py show DIR
    python3 perfbench/report.py spread DIR
    python3 perfbench/report.py diff PARENT_DIR CHANGE_DIR

``show`` prints every metric by name with its unit, one row per
workload (the median over that workload's runs; traced runs in a table
of their own).  ``spread`` prints
the steadiness table: each end-to-end metric's IQR/median, raw and
probe-normalized.  ``diff`` marks every (workload, metric) pair as
better, worse, within (its bound) or unresolved: following §6.5 of the
choosing-metrics guide, a pair whose run-to-run spread is wider than
its bound is unresolved unless every change run reads better (or
worse) than every parent run.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def definition() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def load(directory: str,
         trace: int = 0) -> Dict[str, List[Tuple[dict, dict]]]:
    """workload -> [(result line, detail line)] per run made with
    ``--trace trace``."""
    runs: Dict[str, List[Tuple[dict, dict]]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.out"))):
        with open(path, encoding="utf-8") as handle:
            lines = [line for line in handle.read().splitlines()
                     if line.startswith("{")]
        if len(lines) < 2:
            print(f"report: {path}: no result", file=sys.stderr)
            continue
        result, detail = json.loads(lines[-1]), json.loads(lines[-2])
        info = detail["perfbench"]
        if info["trace"] == trace:
            runs.setdefault(info["workload"], []).append((result, info))
    return runs


def spread(values: List[float]) -> float:
    """IQR / median, with the quartiles ``statistics.quantiles`` gives."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def values(runs: List[Tuple[dict, dict]], name: str) -> List[float]:
    return [r["metrics"][name]["value"] for r, _i in runs
            if name in r["metrics"]]


# -- commands ------------------------------------------------------------


def cmd_collect(args: argparse.Namespace) -> int:
    defn = definition()
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in defn["workloads"]])
    low, _sep, high = args.seeds.partition("-")
    seeds = range(int(low), int(high or low) + 1)
    seconds = args.seconds or defn["run_seconds"]
    os.makedirs(args.dir, exist_ok=True)
    status = 0
    for seed in seeds:
        for name in names:
            out = os.path.join(args.dir, f"{name}-{seed}.out")
            with open(out, "w", encoding="utf-8") as handle:
                code = subprocess.call(
                    [sys.executable, os.path.join(HERE, "run.py"),
                     "--workload", name, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace",
                     str(args.trace)],
                    cwd=ROOT, stdout=handle, timeout=900)
            print(f"{name} seed {seed}: exit {code}", flush=True)
            status = status or code
    return status


def cmd_show(args: argparse.Namespace) -> int:
    """One row per workload: the median of every metric over its runs,
    with each column headed by the metric's name and unit."""
    for trace in (0, 1):
        groups = dict(sorted(load(args.dir, trace).items()))
        if not groups:
            continue
        first = next(iter(groups.values()))[0][0]["metrics"]
        print("| workload | runs | correct | " + " | ".join(
            f"{metric} ({entry['unit']})"
            for metric, entry in first.items()) + " |")
        print("|---" * (len(first) + 3) + "|")
        for name, group in groups.items():
            ok = all(result["correct"] for result, _info in group)
            cells = [f"{statistics.median(values(group, m)):.6g}"
                     for m in first]
            print(f"| {name} | {len(group)} | {ok} | "
                  + " | ".join(cells) + " |")
        print()
    return 0


def cmd_spread(args: argparse.Namespace) -> int:
    runs = load(args.dir)
    defn = definition()
    print("| workload | metric | runs | raw IQR/med | norm IQR/med "
          "| form | bound |")
    print("|---|---|---|---|---|---|---|")
    for name, group in sorted(runs.items()):
        for spec in defn["end_to_end"]:
            metric = spec["name"]
            raw = [i["e2e"][metric]["raw"] for _r, i in group]
            norm = [i["e2e"][metric].get("norm") for _r, i in group]
            norm_s = (f"{spread(norm):.4f}" if None not in norm
                      else "—")
            form = group[0][1]["forms"].get(metric, "raw")
            print(f"| {name} | {metric} | {len(group)} | "
                  f"{spread(raw):.4f} | {norm_s} | {form} "
                  f"| {spec['bound']} |")
    return 0


def verdict(parent: List[float], change: List[float], bound: float,
            higher_better: bool) -> str:
    sign = 1.0 if higher_better else -1.0
    if max(spread(parent), spread(change)) > bound:
        change_signed = [v * sign for v in change]
        parent_signed = [v * sign for v in parent]
        if min(change_signed) > max(parent_signed):
            return "better"
        if max(change_signed) < min(parent_signed):
            return "worse"
        return "unresolved"
    base = statistics.median(parent)
    moved = sign * (statistics.median(change) - base)
    delta = moved / abs(base) if base else moved
    if delta < -bound:
        return "worse"
    if delta > bound:
        return "better"
    return "within"


def diff_rows(parent: Dict, change: Dict, specs: List[dict]) -> int:
    """Print one verdict per (workload, metric); count the worse."""
    worse = 0
    for name in sorted(set(parent) & set(change)):
        print(name)
        for spec in specs:
            metric = spec["name"]
            a = values(parent[name], metric)
            b = values(change[name], metric)
            if not a or not b:
                continue
            base, moved = statistics.median(a), statistics.median(b)
            rel = (moved - base) / base if base else 0.0
            mark = verdict(a, b, spec["bound"],
                           spec["better"] == "higher")
            worse += mark == "worse"
            print(f"  {metric:30s} {base:12.6g} -> {moved:12.6g} "
                  f"{spec['unit']:6s} {rel:+8.2%}  {mark}")
    return worse


def cmd_diff(args: argparse.Namespace) -> int:
    """End-to-end metrics against their bounds (exit 1 if any is
    worse); per-layer metrics, which have no bound, for information."""
    defn = definition()
    worse = diff_rows(load(args.parent, 0), load(args.change, 0),
                      defn["end_to_end"])
    diff_rows(load(args.parent, 1), load(args.change, 1),
              [dict(spec, bound=0.0) for spec in defn["per_layer"]])
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    collect = sub.add_parser("collect")
    collect.add_argument("dir")
    collect.add_argument("--workloads", default="")
    collect.add_argument("--seeds", default="1-10")
    collect.add_argument("--seconds", type=float, default=0)
    collect.add_argument("--trace", type=int, default=0)
    for command in ("show", "spread"):
        sub.add_parser(command).add_argument("dir")
    diff = sub.add_parser("diff")
    diff.add_argument("parent")
    diff.add_argument("change")
    args = parser.parse_args(argv)
    return {"collect": cmd_collect, "show": cmd_show,
            "spread": cmd_spread, "diff": cmd_diff}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
