"""Shared benchmark machinery: CPU pinning, the reference probe,
per-run work directories, set-up timing, memory and statistics.

Nothing here imports ``repro`` at module level, so the probe stays
independent of the program under test.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import sysconfig
import time
import warnings
from typing import Callable, Dict, Iterable, List, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# Every latency class must reach this many samples in one run, so that
# its p90 has at least ten samples beyond it.
MIN_CLASS_SAMPLES = 100
# The latency a failed operation is given: past any latency limit.
MISSED_S = 60.0

# The nominal probe time every normalized timing is scaled to: a
# normalized value reads as "what this timing would have been had the
# probe taken exactly this long".  Fixed once; changing it rescales
# every normalized metric, so it is part of the benchmark definition.
NOMINAL_PROBE_S = 0.009
# How the program's time follows the probe's: when the probe takes
# twice as long, a unit takes 2 ** 0.8 times as long.  Fitted once on a
# 2-vCPU cloud box over 10 runs (kernel-parse 0.78, fuzz-diff 0.87);
# with an exponent of 1 normalized kernel-parse latencies moved against
# the probe (r = -0.6).
PROBE_EXPONENT = 0.8
# Probe repetitions before each set-up sample (see ``time_setup``).
SETUP_PROBE_REPS = 3


def have_program() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


# -- CPU pinning ---------------------------------------------------------


def pin_cpu() -> set:
    """Pin this process (and every child it starts later) to one CPU:
    the highest-numbered one it may run on.  Returns the CPUs it could
    run on before."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    return allowed


# -- the reference probe -------------------------------------------------


class Probe:
    """A fixed CPU-bound task that does not use the program.

    Parses a fixed slice of a standard-library module with the pure
    Python ``lib2to3`` driver — interpreter work of the same kind as
    the program's (dict lookups, small objects, method calls) — so its
    time tracks the machine's current speed.  It runs with the garbage
    collector off, and its garbage is collected by :meth:`run` before
    the caller times anything else.
    """

    SOURCE_MODULE = "posixpath.py"
    SOURCE_LINES = 130

    def __init__(self, reps: int = 1):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            from lib2to3 import pygram, pytree
            from lib2to3.pgen2 import driver
        self._driver = driver.Driver(
            pygram.python_grammar_no_print_statement,
            convert=pytree.convert)
        path = os.path.join(sysconfig.get_paths()["stdlib"],
                            self.SOURCE_MODULE)
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines(True)
        # Cut at a top-level definition so the slice is a whole module.
        cut = max(i for i, line in enumerate(lines[:self.SOURCE_LINES + 1])
                  if re.match(r"(def|class) ", line))
        self.text = "".join(lines[:cut])
        self.reps = max(1, reps)
        self.samples: List[float] = []

    def run(self) -> float:
        """Time one probe; returns seconds per repetition."""
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        for _ in range(self.reps):
            tree = self._driver.parse_string(self.text)
        seconds = (time.perf_counter() - start) / self.reps
        del tree
        gc.collect(0)
        if enabled:
            gc.enable()
        self.samples.append(seconds)
        return seconds


def normalize(raw: float, probe_s: float) -> float:
    """Scale a CPU-bound timing to the nominal probe time."""
    return raw * (NOMINAL_PROBE_S / probe_s) ** PROBE_EXPONENT


class Samples:
    """Timings of one latency class, each tied to the probe run right
    before it.  A timing is normalized by the mean of the probes around
    it: the one before that, the one right before it, and the next one
    after it, so the probe brackets the operation in time.

    ``floor`` is a part of every timing that does not scale with CPU
    speed (a transport stall); only the part above it is normalized.
    """

    def __init__(self, probe: Probe, floor: float = 0.0):
        self.probe = probe
        self.floor = floor
        self.index: List[int] = []
        self.op: List[float] = []
        self.ok: List[bool] = []

    def add(self, op_s: float, ok: bool = True) -> None:
        """Record an operation timed right after ``probe.run()``."""
        self.index.append(len(self.probe.samples) - 1)
        self.op.append(op_s)
        self.ok.append(ok)

    def extend(self, other: "Samples") -> None:
        self.index.extend(other.index)
        self.op.extend(other.op)
        self.ok.extend(other.ok)

    def __len__(self) -> int:
        return len(self.op)

    def normalized(self) -> List[float]:
        probes = self.probe.samples
        floor = self.floor
        out = []
        for index, op_s in zip(self.index, self.op):
            window = probes[max(0, index - 1):index + 2]
            cpu = max(0.0, op_s - floor)
            out.append(op_s - cpu
                       + normalize(cpu, sum(window) / len(window)))
        return out

    def latency(self, q: float) -> Dict[str, float]:
        """Quantile ``q`` in ms, raw and probe-normalized; a failed
        operation counts as missing every latency limit."""
        def missed(values: List[float]) -> List[float]:
            return [v if ok else MISSED_S for v, ok in zip(values, self.ok)]
        return {"raw": quantile(missed(self.op), q) * 1e3,
                "norm": quantile(missed(self.normalized()), q) * 1e3}

    def rate(self) -> Dict[str, float]:
        """Successful operations per second of operation time."""
        done = sum(self.ok)
        return {"raw": done / sum(self.op),
                "norm": done / sum(self.normalized())}


# -- statistics ----------------------------------------------------------


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no samples")
    pos = (len(ordered) - 1) * q
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


# -- work directories and the warm grammar blob --------------------------


def run_dir(workload: str) -> str:
    """A fresh per-run directory, holding its own cache directory with
    the grammar-table blob copied in, so nothing from ``~/.cache``
    leaks into a run and no run sees another's result cache."""
    blob_dir = warm_blob()
    path = os.path.join(WORK, f"run-{workload}-{os.getpid()}-"
                        f"{time.time_ns()}")
    cache = os.path.join(path, "cache")
    os.makedirs(cache)
    for name in os.listdir(blob_dir):
        shutil.copy2(os.path.join(blob_dir, name), cache)
    return path


def warm_blob() -> str:
    """Build the grammar-table blob once per checkout."""
    blob_dir = os.path.join(WORK, "blob")
    if os.path.isdir(blob_dir):
        return blob_dir
    staging = f"{blob_dir}.tmp.{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)
    subprocess.run(
        [sys.executable, "-c",
         "from repro.cgrammar import c_tables; c_tables()"],
        env=child_env(staging), check=True, timeout=600)
    os.replace(staging, blob_dir)
    return blob_dir


def child_env(cache_dir: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["REPRO_CACHE_DIR"] = cache_dir
    env.pop("PYTHONSTARTUP", None)
    return env


# -- set-up time ---------------------------------------------------------


def time_setup(start_child: Callable[[], float],
               samples: int) -> Dict[str, float]:
    """Median set-up time over ``samples`` fresh processes.

    ``start_child`` starts one fresh process, waits until it is ready,
    stops it, and returns the seconds from spawn to ready.  A probe of
    ``SETUP_PROBE_REPS`` repetitions runs right before each spawn on
    the same CPU: a set-up takes 0.2-0.5 s, so a longer probe reads
    the machine's speed over it better than a single repetition does.
    """
    probe = Probe(SETUP_PROBE_REPS)
    raw, norm = [], []
    for _ in range(samples):
        probe_s = probe.run()
        seconds = start_child()
        raw.append(seconds)
        norm.append(normalize(seconds, probe_s))
    return {"raw": median(raw), "norm": median(norm)}


def spawn_until_ready(argv: List[str], env: Dict[str, str]) -> float:
    """Start a child that prints ``ready`` when set up; time it."""
    start = time.perf_counter()
    child = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                             text=True)
    try:
        line = child.stdout.readline()
        seconds = time.perf_counter() - start
    finally:
        child.stdout.close()
        child.wait(timeout=60)
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up child failed: {line!r} "
                           f"rc={child.returncode}")
    return seconds


# -- memory --------------------------------------------------------------


def vm_hwm_mb(pid: object = "self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """User + system CPU time a live process has used so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def children_of(pid: int) -> List[int]:
    found: List[int] = []
    task_dir = f"/proc/{pid}/task"
    for tid in os.listdir(task_dir):
        try:
            with open(f"{task_dir}/{tid}/children", encoding="ascii") as f:
                found.extend(int(p) for p in f.read().split())
        except OSError:
            continue
    return found


# -- inputs --------------------------------------------------------------


def digest_texts(items: Iterable[object]) -> str:
    """A stable digest of generated inputs."""
    digest = hashlib.sha256()
    for item in items:
        digest.update(json.dumps(item, sort_keys=True).encode())
    return digest.hexdigest()[:16]


def check_pinned_digest(workload: str, seed: int, digest: str) -> bool:
    """True unless ``input_digests.json`` pins a different digest for
    this workload and seed (the inputs changed under the benchmark)."""
    path = os.path.join(BENCH_DIR, "input_digests.json")
    with open(path, encoding="utf-8") as handle:
        pinned = json.load(handle)
    expected = pinned.get(workload, {}).get(str(seed))
    return expected is None or expected == digest
