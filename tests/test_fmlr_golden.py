"""Golden equivalence fixture for the FMLR engine.

``tests/data/fmlr_golden.json`` records, per parsed unit, everything
observable about an FMLR parse: the status, a digest of the AST dump,
``invalid_configs``, the diagnostic and failure text, every
``FMLRStats`` field (the per-iteration ``subparser_counts`` as a
digest) and the BDD manager's counters.  The inputs are every unit of
the benchmark kernel corpus at the default optimization level plus
seeded fuzz units at all seven Figure 8 levels, plus a Figure 6
initializer after an unconditional prefix at all seven levels under a
tiny soft kill switch, so forking, merging, shared reduces, lazy
shifts, MAPR mode and fork shedding are all covered.

The fixture pins the engine's behaviour, not its speed: any change to
the parse loop must reproduce it exactly.  Regenerate it only for an
intended behaviour change, by running this module as a script::

    PYTHONPATH=src python tests/test_fmlr_golden.py
"""

import copy
import hashlib
import json
import os
from typing import Any, Dict, Iterator, Tuple

import pytest

from repro.corpus import KernelSpec, generate_kernel
from repro.corpus.fuzz import FuzzSpec, generate_fuzz_unit
from repro.parser.ast import dump
from repro.parser.fmlr import FMLROptions, OPTIMIZATION_LEVELS
from repro.superc import SuperC

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "data", "fmlr_golden.json")

# The benchmark kernel corpus (BENCH_SPEC in benchmarks/conftest.py).
KERNEL_SPEC = KernelSpec(seed=2012, subsystems=4,
                         drivers_per_subsystem=3, figure6_entries=10)
# Half the default item count keeps the MAPR levels, which never merge,
# within the test's time budget.
FUZZ_SPEC = FuzzSpec(items=4)
FUZZ_SEEDS = range(40)
FUZZ_KILL_SWITCH = 500
# Figure 6 with 8 entries reaches 13-16 live subparsers at every level
# below "Shared & Lazy", so this kill switch sheds forks there.
SHED_KILL_SWITCH = 12
SHED_SOURCE = "\n".join(
    ["typedef int word;",
     "int prefix(word a) { return a + 1; }",
     "static int (*check_part[])(struct parsed *) = {"]
    + [line for index in range(8)
       for line in (f"#ifdef CONFIG_ACORN_{index}",
                    f"  adfspart_check_{index},", "#endif")]
    + ["  ((void *)0)", "};", ""])


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def unit_record(result: Any) -> Dict[str, Any]:
    """Everything observable about one parse, in JSON form."""
    stats = dict(vars(result.parse.stats))
    counts = stats.pop("subparser_counts")
    stats["subparser_counts_sha256"] = _digest(
        ",".join(str(count) for count in counts))
    return {
        "status": result.status,
        "ast_sha256": _digest(dump(result.ast)),
        "invalid_configs": result.invalid_configs.to_expr_string(),
        "diagnostics": [repr(diag) for diag in result.diagnostics],
        "failures": [str(failure) for failure in result.failures],
        "fmlr": stats,
        "bdd": result.unit.manager.stats(),
    }


def _level_options(level: str, kill_switch: int) -> FMLROptions:
    options = copy.copy(OPTIMIZATION_LEVELS[level])
    options.kill_switch = kill_switch
    return options


def kernel_records() -> Iterator[Tuple[str, Dict[str, Any]]]:
    corpus = generate_kernel(KERNEL_SPEC)
    superc = SuperC(corpus.filesystem(),
                    include_paths=corpus.include_paths)
    for unit in corpus.units:
        yield unit, unit_record(superc.parse_file(unit))


def level_records(text: str, filename: str, kill_switch: int) \
        -> Iterator[Tuple[str, Dict[str, Any]]]:
    for level in OPTIMIZATION_LEVELS:
        superc = SuperC(options=_level_options(level, kill_switch))
        yield level, unit_record(superc.parse_source(text, filename))


def fuzz_records(seed: int) -> Iterator[Tuple[str, Dict[str, Any]]]:
    unit = generate_fuzz_unit(seed, FUZZ_SPEC)
    return level_records(unit.text, unit.filename, FUZZ_KILL_SWITCH)


def shed_records() -> Iterator[Tuple[str, Dict[str, Any]]]:
    return level_records(SHED_SOURCE, "figure6.c", SHED_KILL_SWITCH)


def collect() -> Dict[str, Any]:
    return {
        "kernel": dict(kernel_records()),
        "fuzz": {str(seed): dict(fuzz_records(seed))
                 for seed in FUZZ_SEEDS},
        "shed": dict(shed_records()),
    }


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_fixture_covers_inputs(golden):
    assert len(golden["kernel"]) == len(generate_kernel(KERNEL_SPEC).units)
    assert sorted(golden["fuzz"]) == sorted(str(s) for s in FUZZ_SEEDS)
    for levels in [*golden["fuzz"].values(), golden["shed"]]:
        assert sorted(levels) == sorted(OPTIMIZATION_LEVELS)
    # The shedding group must actually shed.
    assert any(record["fmlr"]["kill_switch_trips"]
               for record in golden["shed"].values())


def test_kernel_units_match_golden(golden):
    for unit, record in kernel_records():
        assert record == golden["kernel"][unit], unit


@pytest.mark.parametrize("seed", list(FUZZ_SEEDS))
def test_fuzz_unit_matches_golden(golden, seed):
    for level, record in fuzz_records(seed):
        assert record == golden["fuzz"][str(seed)][level], level


def test_shedding_unit_matches_golden(golden):
    for level, record in shed_records():
        assert record == golden["shed"][level], level


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(collect(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")
