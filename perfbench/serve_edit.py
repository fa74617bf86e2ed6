"""The ``serve-edit`` workload.

Starts ``superc-serve --listen http://127.0.0.1:<port> --workers 1``
with its default result cache and journal in the run's fresh cache
directory, serving a seeded kernel written to disk.  One closed-loop
``repro.connect("http://...")`` client on the same pinned CPU follows
a script fixed by the seed.  Each step is one of three latency
classes:

* ``hit``: re-parse an unchanged unit (expected tier: memory);
* ``layout``: a layout-only overlay edit of a unit or a shared
  header, then a parse of each dropped unit (expected tier: token);
* ``miss``: a semantic overlay edit of a unit or a shared header,
  then a parse of each dropped unit (expected: a fresh parse).

The next step is always of the class with the fewest samples so far,
so every class reaches ``MIN_CLASS_SAMPLES``.  This is a sampling
rule, not a model of an editing session: no end-to-end metric pools
the classes, so none depends on how often each occurs.  Served records
are compared with a cold ``repro.Session`` parse of the same content
after the timed loop, on a seeded sample of contents.
"""

from __future__ import annotations

import http.client
import os
import random
import shutil
import socket
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

import common
from common import MIN_CLASS_SAMPLES, Probe, Samples, median, quantile

# A kernel of 24 small units: the include closure (shared headers)
# dominates a unit's parse, as it does for real drivers.
SERVE_SHAPE = dict(subsystems=4, drivers_per_subsystem=6,
                   functions_per_driver=1, figure6_entries=2,
                   error_configs=False)
PROBE_REPS = 1
SETUP_SAMPLES = 11
# Share of edited contents checked against a cold parse.
VERIFY_SHARE = 0.2
# Semantic and layout edits hit a shared header this often (else a
# unit).  Assumed, not measured from an editing session: it sets how
# many units one edit drops, and so the share of miss requests that
# follow a header edit.
HEADER_EDIT_SHARE = 0.5
# A traced run makes a fixed number of steps per class, then this many
# pings, then this many hit requests made twice (traced and not).
TRACE_STEPS = 40
TRACE_PINGS = 100
TRACE_PAIRS = 40
CLASSES = ("hit", "layout", "miss")
# Expected (cache, tier) of a served record, per class.
EXPECTED = {"hit": ("hit", "memory"), "layout": ("hit", "token"),
            "miss": ("miss", None)}


def make_inputs(seed: int) -> Tuple[Any, str]:
    from repro.corpus import KernelSpec, generate_kernel
    corpus = generate_kernel(KernelSpec(seed=seed, **SERVE_SHAPE))
    return corpus, common.digest_texts(sorted(corpus.files.items()))


# -- the daemon ----------------------------------------------------------


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Daemon:
    """One ``superc-serve`` process listening on HTTP."""

    def __init__(self, tree: str, cache_dir: str, log_path: str):
        self.port = free_port()
        self.url = f"http://127.0.0.1:{self.port}"
        self.log = open(log_path, "ab")
        argv = [sys.executable, "-m", "repro.tools.serve_cli",
                "--listen", self.url, "--workers", "1",
                "-I", os.path.join(tree, "include")]
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            argv, cwd=tree, env=common.child_env(cache_dir),
            stdout=self.log, stderr=self.log)

    def wait_healthy(self, timeout: float = 60.0) -> float:
        """Seconds from spawn to the first 200 on ``/healthz``."""
        deadline = self.started + timeout
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError("superc-serve exited during start-up")
            conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                              timeout=5)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return time.perf_counter() - self.started
            except OSError:
                pass
            finally:
                conn.close()
            # The poll runs on the daemon's CPU: a faster poll slows the
            # start-up it times.
            time.sleep(0.005)
        raise RuntimeError("superc-serve never became healthy")

    def pids(self) -> List[int]:
        return [self.process.pid] + common.children_of(self.process.pid)

    def stop(self) -> None:
        """Shut down over HTTP; kill if it does not exit."""
        import repro
        if self.process.poll() is None:
            try:
                with repro.connect(self.url, retries=0) as client:
                    client.shutdown()
                self.process.wait(timeout=20)
            except Exception:
                self.process.kill()
                self.process.wait(timeout=20)
        self.log.close()


def setup_sample(tree: str, run_dir: str, index: int) -> float:
    cache = os.path.join(run_dir, f"setup-{index}")
    shutil.copytree(os.path.join(run_dir, "cache"), cache)
    daemon = Daemon(tree, cache, os.path.join(run_dir, "setup.log"))
    try:
        return daemon.wait_healthy()
    finally:
        daemon.stop()


# -- the edit script -----------------------------------------------------


class Tree:
    """The served files, their overlay edits, and the edit script."""

    def __init__(self, corpus: Any, root: str, rng: random.Random):
        self.root = root
        self.rng = rng
        self.base = {self.path(rel): text
                     for rel, text in corpus.files.items()}
        self.units = [self.path(rel) for rel in corpus.units]
        # Each subsystem's own header, shared by its drivers.
        subsystems = sorted({rel.split("/")[1] for rel in corpus.units})
        self.headers = [self.path(f"include/linux/{name}.h")
                        for name in subsystems
                        if f"include/linux/{name}.h" in corpus.files]
        self.semantic: Dict[str, int] = {}
        self.layout: Dict[str, int] = {}
        self.counter = 0

    def path(self, rel: str) -> str:
        return os.path.join(self.root, *rel.split("/"))

    def text(self, path: str) -> str:
        text = self.base[path].rstrip("\n") + "\n"
        rev = self.semantic.get(path)
        if rev is not None:
            kind = "int" if path.endswith(".c") else "extern int"
            text += f"{kind} perfbench_rev_{rev};\n"
        mark = self.layout.get(path)
        if mark is not None:
            text += f"/* perfbench layout edit {mark} */\n"
        return text

    def edit(self, kind: str) -> str:
        """Apply one seeded edit; returns the edited path."""
        if self.rng.random() < HEADER_EDIT_SHARE:
            path = self.rng.choice(self.headers)
        else:
            path = self.rng.choice(self.units)
        self.counter += 1
        table = self.semantic if kind == "miss" else self.layout
        table[path] = self.counter
        return path

    def snapshot(self, unit: str) -> Tuple[Tuple[str, int, int], ...]:
        """A key naming the current content of a unit and of the
        headers edits can touch: all a unit's parse depends on."""
        return tuple((path, self.semantic.get(path, 0),
                      self.layout.get(path, 0))
                     for path in [unit] + self.headers)

    def files(self, snapshot: Tuple[Tuple[str, int, int], ...]) \
            -> Dict[str, str]:
        """Every file's text with the edits of ``snapshot``."""
        saved = dict(self.semantic), dict(self.layout)
        self.semantic = {p: s for p, s, _l in snapshot if s}
        self.layout = {p: l for p, _s, l in snapshot if l}
        try:
            return {path: self.text(path) for path in self.base}
        finally:
            self.semantic, self.layout = saved


# -- the client loop -----------------------------------------------------


class Client:
    """Runs the script against one daemon and records every answer."""

    def __init__(self, session: Any, tree: Tree, probe: Probe):
        self.session = session
        self.tree = tree
        self.probe = probe
        self.samples = {name: Samples(probe) for name in CLASSES}
        self.invalidate = Samples(probe)
        self.answers: List[Tuple[str, str, Any, dict]] = []
        self.fanout: List[int] = []
        self.failed = 0
        self.attempted = 0
        self.shed = 0

    def request(self, name: str, unit: str) -> None:
        self.probe.run()
        start = time.perf_counter()
        try:
            record = self.session.parse_file(unit).record
        except Exception as error:
            print(f"perfbench: parse {unit}: {error!r}", file=sys.stderr)
            record = {"status": "error"}
        op_s = time.perf_counter() - start
        self.attempted += 1
        if record.get("status") == "shed":
            self.shed += 1
        cache, tier = EXPECTED[name]
        ok = (record.get("status") == "ok" and record.get("cache") == cache
              and record.get("tier") == tier)
        self.samples[name].add(op_s, ok)
        if not ok:
            self.failed += 1
            print(f"perfbench: {name} {unit}: status="
                  f"{record.get('status')} cache={record.get('cache')} "
                  f"tier={record.get('tier')}", file=sys.stderr)
        self.answers.append((name, unit, self.tree.snapshot(unit), record))

    def step(self, name: str) -> None:
        if name == "hit":
            self.request(name, self.tree.rng.choice(self.tree.units))
            return
        path = self.tree.edit(name)
        self.probe.run()
        start = time.perf_counter()
        try:
            reply = self.session.invalidate(path,
                                            text=self.tree.text(path))
        except Exception as error:
            print(f"perfbench: invalidate {path}: {error!r}",
                  file=sys.stderr)
            reply = {"status": "error", "invalidated": []}
        op_s = time.perf_counter() - start
        self.attempted += 1
        dropped = reply.get("invalidated") or []
        self.fanout.append(len(dropped))
        ok = reply.get("status") == "ok" and bool(dropped)
        self.invalidate.add(op_s, ok)
        if not ok:
            self.failed += 1
        for unit in dropped:
            self.request(name, unit)

    def warm(self) -> None:
        """Parse every unit once, untimed, so every unit is served warm."""
        for unit in self.tree.units:
            record = self.session.parse_file(unit).record
            if record.get("status") != "ok":
                raise RuntimeError(f"warm-up parse of {unit} failed")

    def run_for(self, seconds: float) -> None:
        """Take the least-sampled class each step until ``seconds``
        passed and every class has its minimum; never past 3x."""
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            least = min(len(self.samples[n]) for n in CLASSES)
            if elapsed >= 3 * seconds or (
                    elapsed >= seconds and least >= MIN_CLASS_SAMPLES):
                return
            self.step(min(CLASSES, key=lambda n: len(self.samples[n])))

    def run_steps(self, steps: int) -> None:
        while min(len(self.samples[n]) for n in CLASSES) < steps:
            self.step(min(CLASSES, key=lambda n: len(self.samples[n])))

    def paired_hits(self, spans: Any, pairs: int) -> float:
        """Tracing overhead: ``pairs`` hit requests each made twice,
        once with the client-side wrappers installed and once without,
        alternating which goes first.  Returns traced / untraced - 1."""
        plain = traced = 0.0
        for index in range(pairs):
            unit = self.tree.rng.choice(self.tree.units)
            for traced_turn in ((False, True) if index % 2 == 0
                                else (True, False)):
                if traced_turn:
                    spans.install()
                start = time.perf_counter()
                record = self.session.parse_file(unit).record
                seconds = time.perf_counter() - start
                if traced_turn:
                    spans.uninstall()
                    traced += seconds
                else:
                    plain += seconds
                self.attempted += 1
                if record.get("status") != "ok":
                    self.failed += 1
        return traced / plain - 1.0


def verify(tree: Tree, answers: List[Tuple[str, str, Any, dict]],
           rng: random.Random) -> Tuple[int, int]:
    """Compare a seeded sample of served records with a cold parse of
    the same content: status, diagnostics and invalid configurations.
    Returns (records checked, mismatches)."""
    import repro
    from repro.engine import record_from_result
    contents = sorted({(unit, snap) for _n, unit, snap, _r in answers})
    chosen = set(rng.sample(contents,
                            max(1, int(len(contents) * VERIFY_SHARE))))
    include = (os.path.join(tree.root, "include"),)
    references: Dict[Any, dict] = {}
    checked = mismatches = 0
    for _name, unit, snap, record in answers:
        if (unit, snap) not in chosen:
            continue
        reference = references.get((unit, snap))
        if reference is None:
            session = repro.Session(files=tree.files(snap),
                                    include_paths=include)
            reference = record_from_result(unit,
                                           session.parse_file(unit))
            references[(unit, snap)] = reference
        checked += 1
        for field in ("status", "diagnostics", "invalid_configs"):
            if record.get(field) != reference.get(field):
                mismatches += 1
                print(f"perfbench: {unit}: served {field} differs from "
                      "a cold parse", file=sys.stderr)
                break
    return checked, mismatches


# -- the workload --------------------------------------------------------


def serve_edit(seed: int, seconds: float, trace: bool,
               run_dir: str) -> Dict[str, Any]:
    import repro
    common.pin_cpu()
    corpus, digest = make_inputs(seed)
    root = os.path.join(run_dir, "tree")
    corpus.write_to_directory(root)
    probe = Probe(PROBE_REPS)

    setup_index = iter(range(SETUP_SAMPLES))
    setup = common.time_setup(
        lambda: setup_sample(root, run_dir, next(setup_index)),
        SETUP_SAMPLES)

    rng = random.Random(seed)
    tree = Tree(corpus, root, rng)
    daemon = Daemon(root, os.path.join(run_dir, "cache"),
                    os.path.join(run_dir, "serve.log"))
    spans = None
    try:
        daemon.wait_healthy()
        with repro.connect(daemon.url) as session:
            client = Client(session, tree, probe)
            client.warm()
            if trace:
                from tracing import Spans
                spans = Spans()
                spans.install()
                try:
                    client.run_steps(TRACE_STEPS)
                    for _ in range(TRACE_PINGS):
                        session.ping()
                    stats = session.stats()
                finally:
                    spans.uninstall()
                overhead = client.paired_hits(spans, TRACE_PAIRS)
            else:
                client.run_for(seconds)
            pids = daemon.pids()
            rss = sum(common.vm_hwm_mb(pid) for pid in pids)
            cpu = [common.cpu_seconds(pid) for pid in pids]
    finally:
        daemon.stop()
    checked, mismatches = verify(tree, client.answers,
                                 random.Random(seed + 1))
    failed = client.failed + mismatches
    correct = failed == 0 and checked > 0

    if trace:
        spans.write(os.path.join(common.WORK, "last-trace-serve-edit.jsonl"))
        return {"correct": correct, "attempted": client.attempted,
                "failed": failed, "digest": digest,
                "layers": trace_layers(client, spans, stats, cpu, probe,
                                       setup["raw"], overhead)}

    # The transport floor: what a memory hit costs.  Over HTTP that is
    # mostly a fixed network-stack stall, not CPU work, so only the time
    # above it scales with CPU speed.
    floor = median(client.samples["hit"].op)
    for samples in list(client.samples.values()) + [client.invalidate]:
        samples.floor = floor
    miss = client.samples["miss"]
    e2e = {
        # Requests for unchanged units answered per second of their
        # request time: one class, so the rate does not depend on the
        # script's mix of classes.
        "units_per_s": client.samples["hit"].rate(),
        "unit_p50_ms": miss.latency(0.5),
        "unit_p90_ms": miss.latency(0.9),
        "setup_s": setup,
        "peak_rss_mb": {"raw": rss},
        "success_frac": {"raw": (client.attempted - failed)
                         / client.attempted},
    }
    detail = {"samples": {n: len(client.samples[n]) for n in CLASSES},
              "invalidates": len(client.invalidate),
              "verified": checked, "floor_ms": floor * 1e3,
              "probe_ms": median(probe.samples) * 1e3}
    for name in CLASSES:
        for q, label in ((0.5, "p50"), (0.9, "p90")):
            detail[f"{name}_{label}_ms"] = client.samples[name].latency(q)
        detail[f"{name}_per_s"] = client.samples[name].rate()
    # All parse requests per second of request time (parse plus
    # invalidate): a diagnostic only, since it depends on the mix.
    requests = Samples(probe, floor)
    for name in CLASSES:
        requests.extend(client.samples[name])
    detail["mix_units_per_s"] = {
        "raw": sum(requests.ok) / (sum(requests.op)
                                   + sum(client.invalidate.op)),
        "norm": sum(requests.ok) / (sum(requests.normalized())
                                    + sum(client.invalidate.normalized()))}
    return {"correct": correct, "attempted": client.attempted,
            "failed": failed, "digest": digest, "e2e": e2e,
            "detail": detail}


def trace_layers(client: Client, spans: Any, stats: dict,
                 cpu: List[float], probe: Probe, setup_raw: float,
                 overhead: float) -> Dict[str, float]:
    """Per-layer figures of a traced run: client-side span latencies,
    the daemon's own counters from ``/v1/stats``, and ``/proc``."""
    def p(values: List[float], q: float) -> float:
        return quantile(values, q) * 1e3 if values else 0.0

    hit_server = [r["serve"]["seconds"] for n, _u, _s, r in client.answers
                  if n == "hit" and "serve" in r]
    pool = stats.get("pool") or {}
    layers = {
        "serve.ping_p50_ms": p(spans.durations("serve.ping"), 0.5),
        "serve.hit_p50_ms": p(client.samples["hit"].op, 0.5),
        "serve.hit_p90_ms": p(client.samples["hit"].op, 0.9),
        "serve.layout_p50_ms": p(client.samples["layout"].op, 0.5),
        "serve.miss_p50_ms": p(client.samples["miss"].op, 0.5),
        "serve.miss_p90_ms": p(client.samples["miss"].op, 0.9),
        "serve.lookup_p50_ms": p(hit_server, 0.5),
        "serve.invalidate_p50_ms": p(spans.durations("serve.invalidate"),
                                     0.5),
        "serve.invalidate_fanout": (sum(client.fanout)
                                    / len(client.fanout)),
        "serve.parses": stats.get("parses", 0),
        "serve.token_short_circuits": stats.get("token_short_circuits", 0),
        "serve.cache_hits": stats.get("cache_hits", 0),
        "serve.worker_cpu_s": sum(cpu[1:]),
        "serve.supervisor_cpu_s": cpu[0],
        "serve.worker_restarts": pool.get("restarts", 0),
        "serve.shed": client.shed,
        "bench.probe_ms": median(probe.samples) * 1e3,
        "raw.setup_s": setup_raw,
    }
    miss = client.samples["miss"]
    layers["raw.units_per_s"] = client.samples["hit"].rate()["raw"]
    layers["raw.unit_p50_ms"] = miss.latency(0.5)["raw"]
    layers["raw.unit_p90_ms"] = miss.latency(0.9)["raw"]
    layers["bench.trace_overhead_frac"] = overhead
    return layers
