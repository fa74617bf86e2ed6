"""The in-process workloads: ``kernel-parse`` and ``fuzz-diff``.

Both run one pinned process that calls one public entry point per
unit — ``repro.Session.parse_file`` or ``repro.qa.check_unit`` — with
a probe right before every call on the same CPU.
"""

from __future__ import annotations

import os
import random
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

import common
from common import Probe, Samples, median
from tracing import SELF_METRICS, Spans

# kernel-parse: a seeded synthetic kernel, larger than the repo's
# BENCH_SPEC (12 units), with every configuration error removed so
# that every unit is expected to parse ``ok``.
KERNEL_SHAPE = dict(subsystems=12, drivers_per_subsystem=10,
                    functions_per_driver=2, figure6_entries=4,
                    error_configs=False)
# fuzz-diff: default FuzzSpec units, checked on up to 12 configurations.
FUZZ_UNITS = 400
FUZZ_MAX_CONFIGS = 12
# Probe repetitions: about a tenth of one unit's time.
KERNEL_PROBE_REPS = 2
FUZZ_PROBE_REPS = 1
# Traced runs cover a fixed number of items, so counts repeat exactly.
TRACE_ITEMS = {"kernel-parse": 30, "fuzz-diff": 60}
# kernel-parse spot-check: units differentially checked per run.
SPOT_UNITS = 3
SPOT_MAX_CONFIGS = 4
SETUP_SAMPLES = 9
# The traced kernel-parse run also parses its units as one
# ``BatchEngine`` batch over this many workers.
ENGINE_WORKERS = 2


def kernel_spec(seed: int) -> Any:
    from repro.corpus import KernelSpec
    return KernelSpec(seed=seed, **KERNEL_SHAPE)


def fuzz_seeds(seed: int) -> List[int]:
    return [seed * 100003 + index for index in range(FUZZ_UNITS)]


def make_inputs(workload: str, seed: int) -> Tuple[Any, str]:
    """(inputs, digest) for one workload and seed."""
    if workload == "kernel-parse":
        from repro.corpus import generate_kernel
        corpus = generate_kernel(kernel_spec(seed))
        digest = common.digest_texts(sorted(corpus.files.items()))
        return corpus, digest
    from repro.corpus.fuzz import generate_fuzz_unit
    units = [generate_fuzz_unit(s) for s in fuzz_seeds(seed)]
    digest = common.digest_texts((u.seed, u.text) for u in units)
    return units, digest


# -- shared loop ---------------------------------------------------------


def timed_loop(items: List[Any], seconds: float, probe: Probe,
               call: Callable[[Any], Any],
               check: Callable[[Any, Any], bool]) -> Tuple[Samples, int]:
    """Call ``call`` on items in order, wrapping around, for
    ``seconds`` of wall time.  Returns the samples and the number of
    calls whose result failed ``check`` (checked outside timing)."""
    samples = Samples(probe)
    failed = 0
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline:
        item = items[index % len(items)]
        index += 1
        probe.run()
        start = time.perf_counter()
        try:
            result = call(item)
        except Exception as error:  # counted, not fatal to the run
            print(f"perfbench: {item!r}: {error!r}", file=sys.stderr)
            result = None
        op_s = time.perf_counter() - start
        ok = result is not None and check(item, result)
        samples.add(op_s, ok)
        failed += not ok
    return samples, failed


def end_to_end(samples: Samples, setup: Dict[str, float],
               attempted: int, failed: int) -> Dict[str, Dict]:
    return {
        "units_per_s": samples.rate(),
        "unit_p50_ms": samples.latency(0.5),
        "unit_p90_ms": samples.latency(0.9),
        "setup_s": setup,
        "peak_rss_mb": {"raw": common.vm_hwm_mb()},
        "success_frac": {"raw": (attempted - failed) / attempted},
    }


def setup_time(workload: str, cache_dir: str) -> Dict:
    argv = [sys.executable, os.path.join(common.BENCH_DIR,
                                         "setup_child.py"), workload]
    env = common.child_env(cache_dir)
    return common.time_setup(
        lambda: common.spawn_until_ready(argv, env), SETUP_SAMPLES)


# -- traced runs ---------------------------------------------------------


def paired_trace(items: List[Any], probe: Probe,
                 call: Callable[[Any], Any],
                 keep: Tuple[str, ...]) -> Tuple[Spans, Dict]:
    """Run every item twice, once traced and once not, alternating
    which goes first, with a probe before each pair.  Returns the
    spans and the benchmark's own figures: the tracing overhead and
    the raw (untraced) latencies."""
    spans = Spans()
    plain, traced = Samples(probe), Samples(probe)
    for index, item in enumerate(items):
        probe.run()
        for traced_turn in ((False, True) if index % 2 == 0
                            else (True, False)):
            if traced_turn:
                spans.install(keep_results=keep)
            start = time.perf_counter()
            call(item)
            seconds = time.perf_counter() - start
            if traced_turn:
                spans.uninstall()
                traced.add(seconds)
            else:
                plain.add(seconds)
    overhead = sum(traced.normalized()) / sum(plain.normalized()) - 1.0
    return spans, {"bench.trace_overhead_frac": overhead,
                   "raw.units_per_s": plain.rate()["raw"],
                   "raw.unit_p50_ms": plain.latency(0.5)["raw"],
                   "raw.unit_p90_ms": plain.latency(0.9)["raw"]}


def result_counters(results: List[Any]) -> Dict[str, float]:
    """Counters read from ``SuperCResult`` objects the program
    returned: FMLR stats, the BDD manager's stats, the preprocessor's
    stats, and the AST's size."""
    from repro.cpp.tree import token_count
    from repro.parser.ast import Node, StaticChoice
    totals: Dict[str, float] = {
        "fmlr.iterations": 0, "fmlr.single_iterations": 0,
        "fmlr.forks": 0, "fmlr.merges": 0, "fmlr.max_subparsers": 0,
        "fmlr.action_lookups": 0, "bdd.nodes_created": 0,
        "bdd.apply_calls": 0, "bdd.apply_cache_hits": 0,
        "cpp.invocations": 0, "cpp.hoisted_invocations": 0,
        "cpp.conditionals": 0, "cpp.tokens_out": 0,
        "ast.nodes": 0, "ast.choice_nodes": 0}
    for result in results:
        stats = result.parse.stats
        totals["fmlr.iterations"] += stats.iterations
        totals["fmlr.single_iterations"] += sum(
            1 for live in stats.subparser_counts if live == 1)
        totals["fmlr.forks"] += stats.forks
        totals["fmlr.merges"] += stats.merges
        totals["fmlr.max_subparsers"] = max(
            totals["fmlr.max_subparsers"], stats.max_subparsers)
        totals["fmlr.action_lookups"] += stats.action_lookups
        bdd = result.unit.manager.stats()
        totals["bdd.nodes_created"] += bdd["nodes_created"]
        totals["bdd.apply_calls"] += bdd["apply_calls"]
        totals["bdd.apply_cache_hits"] += bdd["apply_cache_hits"]
        cpp = result.unit.stats
        totals["cpp.invocations"] += cpp.invocations
        totals["cpp.hoisted_invocations"] += cpp.hoisted_invocations
        totals["cpp.conditionals"] += cpp.conditionals
        totals["cpp.tokens_out"] += token_count(result.unit.tree)
        stack = [result.ast]
        while stack:
            node = stack.pop()
            if isinstance(node, Node):
                totals["ast.nodes"] += 1
                stack.extend(node.children)
            elif isinstance(node, StaticChoice):
                totals["ast.choice_nodes"] += 1
                stack.extend(branch for _cond, branch in node.branches)
            elif isinstance(node, (tuple, list)):
                stack.extend(node)
    single = totals.pop("fmlr.single_iterations")
    hits = totals.pop("bdd.apply_cache_hits")
    iterations, calls = totals["fmlr.iterations"], totals["bdd.apply_calls"]
    totals["fmlr.single_frac"] = single / iterations if iterations else 0.0
    totals["bdd.apply_cache_hit_rate"] = hits / calls if calls else 0.0
    return totals


def layer_metrics(spans: Spans, items: int, counters: Dict,
                  overhead: Dict, probe: Probe) -> Dict[str, float]:
    """Per-layer metrics of one traced run: self seconds per item for
    every layer, the counters, and the benchmark's own figures."""
    layers = {SELF_METRICS[name]: seconds / items
              for name, seconds in spans.self_times().items()
              if name in SELF_METRICS}
    fmlr_total = sum(spans.durations("fmlr"))
    layers["fmlr.tokens_per_s"] = (counters.get("cpp.tokens_out", 0)
                                   / fmlr_total if fmlr_total else 0.0)
    layers.update(counters)
    layers.update(overhead)
    layers["bench.probe_ms"] = median(probe.samples) * 1e3
    return layers


def engine_layers(corpus: Any, units: List[str],
                  cpus: set) -> Tuple[Dict[str, float], int]:
    """The engine layer's figures: ``units`` parsed as one
    ``BatchEngine`` batch (the ``superc-batch`` path) over
    ``ENGINE_WORKERS`` workers without the result cache, allowed on
    ``cpus`` for the batch.  Returns the figures and the number of
    units that did not come back ``ok``."""
    import resource
    from repro.engine import BatchEngine, CorpusJob, EngineConfig
    job = CorpusJob(units, corpus.include_paths, files=dict(corpus.files))
    engine = BatchEngine(EngineConfig(workers=ENGINE_WORKERS,
                                      use_result_cache=False))
    pinned = os.sched_getaffinity(0)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    os.sched_setaffinity(0, cpus)
    try:
        report = engine.run(job)
    finally:
        os.sched_setaffinity(0, pinned)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    child_cpu = ((after.ru_utime - before.ru_utime)
                 + (after.ru_stime - before.ru_stime))
    workers = min(ENGINE_WORKERS, len(cpus))
    return ({"engine.child_cpu_s": child_cpu / len(units),
             "engine.parallel_eff": report.cpu_seconds
             / (report.wall_seconds * workers)},
            report.units - report.ok)


# -- kernel-parse --------------------------------------------------------


def kernel_parse(seed: int, seconds: float, trace: bool,
                 run_dir: str) -> Dict[str, Any]:
    import repro
    cpus = common.pin_cpu()
    corpus, digest = make_inputs("kernel-parse", seed)
    probe = Probe(KERNEL_PROBE_REPS)
    cache_dir = os.path.join(run_dir, "cache")
    setup = setup_time("kernel-parse", cache_dir)
    session = repro.Session(files=corpus.files,
                            include_paths=tuple(corpus.include_paths))
    units = list(corpus.units)
    random.Random(seed).shuffle(units)

    if trace:
        items = units[:TRACE_ITEMS["kernel-parse"]]
        spans, overhead = paired_trace(items, probe, session.parse_file,
                                       keep=("api",))
        overhead["raw.setup_s"] = setup["raw"]
        results = [r for _n, r in spans.take_results()]
        counters = result_counters(results)
        failed = sum(1 for r in results if r.status != "ok")
        engine, engine_failed = engine_layers(corpus, items, cpus)
        counters.update(engine)
        failed += engine_failed
        spans.write(os.path.join(common.WORK, "last-trace-kernel-parse.jsonl"))
        return {"correct": failed == 0, "attempted": 2 * len(items),
                "failed": failed, "digest": digest,
                "layers": layer_metrics(spans, len(items), counters,
                                        overhead, probe)}

    samples, failed = timed_loop(
        units, seconds, probe, session.parse_file,
        lambda unit, result: result.status == "ok")
    attempted = len(samples)
    e2e = end_to_end(samples, setup, attempted, failed)
    spot_ok = spot_check(corpus, units[:SPOT_UNITS], seed)
    return {"correct": failed == 0 and spot_ok, "attempted": attempted,
            "failed": failed, "digest": digest, "e2e": e2e,
            "detail": {"distinct_units": min(attempted, len(units)),
                       "probe_ms": median(probe.samples) * 1e3,
                       "spot_check_ok": spot_ok}}


def spot_check(corpus: Any, units: List[str], seed: int) -> bool:
    """Differentially check sampled units against the single-
    configuration oracle on sampled configurations."""
    from repro.qa import DifferentialChecker
    checker = DifferentialChecker(files=corpus.files,
                                  include_paths=corpus.include_paths,
                                  max_configs=SPOT_MAX_CONFIGS)
    for unit in units:
        outcome = checker.check_source(corpus.files[unit], unit,
                                       seed=seed)
        if outcome.disagreements or outcome.superc_status != "ok":
            print(f"perfbench: spot-check {unit}: "
                  f"{outcome.disagreements[:2]}", file=sys.stderr)
            return False
    return True


# -- fuzz-diff -----------------------------------------------------------


def fuzz_diff(seed: int, seconds: float, trace: bool,
              run_dir: str) -> Dict[str, Any]:
    from repro.qa import DifferentialChecker, check_unit
    common.pin_cpu()
    units, digest = make_inputs("fuzz-diff", seed)
    probe = Probe(FUZZ_PROBE_REPS)
    cache_dir = os.path.join(run_dir, "cache")
    setup = setup_time("fuzz-diff", cache_dir)
    checker = DifferentialChecker(files={}, include_paths=(),
                                  max_configs=FUZZ_MAX_CONFIGS)
    configs: List[int] = []

    def call(unit: Any) -> Any:
        return check_unit(checker, unit)

    def clean(unit: Any, outcome: Any) -> bool:
        configs.append(outcome.configs_checked)
        return not outcome.disagreements

    if trace:
        items = units[:TRACE_ITEMS["fuzz-diff"]]
        spans, overhead = paired_trace(items, probe, call,
                                       keep=("api", "qa"))
        overhead["raw.setup_s"] = setup["raw"]
        kept = spans.take_results()
        counters = result_counters([r for n, r in kept if n == "api"])
        outcomes = [r for n, r in kept if n == "qa"]
        failed = sum(1 for o in outcomes if o.disagreements)
        counters["qa.configs_checked"] = sum(o.configs_checked
                                             for o in outcomes)
        spans.write(os.path.join(common.WORK, "last-trace-fuzz-diff.jsonl"))
        return {"correct": failed == 0, "attempted": len(items),
                "failed": failed, "digest": digest,
                "layers": layer_metrics(spans, len(items), counters,
                                        overhead, probe)}

    samples, failed = timed_loop(units, seconds, probe, call, clean)
    attempted = len(samples)
    e2e = end_to_end(samples, setup, attempted, failed)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "digest": digest, "e2e": e2e,
            "detail": {"distinct_units": min(attempted, len(units)),
                       "configs_checked": sum(configs),
                       "probe_ms": median(probe.samples) * 1e3}}
