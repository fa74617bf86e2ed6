"""Warm server state: tables, fingerprinted files, parse entries.

Everything a cold ``superc-parse`` run pays per invocation is held
here once, for the life of the daemon:

* **Warm LALR tables** — built (or blob-deserialized) at startup and
  injected into one long-lived :class:`repro.api.Session`, so every
  request skips grammar-table construction entirely.
* **Content-fingerprinted file store** — :class:`FileStore` overlays
  any base :class:`repro.cpp.FileSystem` with a text + SHA-256 cache,
  so include closures of back-to-back requests re-read nothing from
  disk.  ``invalidate``/``put`` are the edit entry points.
* **Parse entries** — per-unit records keyed exactly like the batch
  engine's result cache: ``(source digest, include-closure digest,
  config digest)``.  The in-memory map answers repeat requests in
  microseconds; a :class:`repro.engine.ResultCache` underneath it
  persists every fresh parse, so a daemon warms subsequent
  ``superc-batch`` runs and vice versa — one result cache, two front
  ends.

Lookup resolution order for a ``parse`` request:

1. same key in memory — ``cache=hit, tier=memory``;
2. same key on disk (engine cache) — ``cache=hit, tier=disk``;
3. different key but identical token fingerprint (layout-only edit) —
   ``cache=hit, tier=token``: the old record is re-published under the
   new key without re-parsing;
4. miss — parse with the warm session, publish to memory + disk.
"""

from __future__ import annotations

import hashlib
import os
import threading
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.api import Config, Session
from repro.cpp import FileSystem, RealFileSystem
from repro.engine import DEFAULT_OPTIMIZATION
from repro.engine.cache import (ResultCache, config_fingerprint,
                                include_closure)
from repro.engine.results import record_from_result
from repro.obs.tracer import NULL_TRACER
from repro.parser.fmlr import OPTIMIZATION_LEVELS
from repro.serve.incremental import (InvalidationIndex, TokenDigestMemo,
                                     token_fingerprint)
from repro.serve.journal import ParseJournal
# One status taxonomy for the whole service: which statuses may never
# be published to the warm tiers is part of the protocol, not of any
# one transport or cache layer.
from repro.serve.protocol import UNCACHEABLE_STATUSES

TIER_MEMORY = "memory"
TIER_DISK = "disk"
TIER_TOKEN = "token"

JOURNAL_NAME = "serve-journal.jsonl"


class FileStore(FileSystem):
    """Content-fingerprinted overlay over a base file system.

    Reads are served from the in-memory cache after the first access;
    ``put`` installs an overlay text (an editor buffer, a test edit)
    and ``invalidate`` drops both overlay and cache so the next read
    hits the base again.  ``known_files`` is the server's whole file
    view — the input to the resolver-accurate include graph.
    """

    def __init__(self, base: Optional[FileSystem] = None):
        self.base = base if base is not None else RealFileSystem()
        self._text: Dict[str, Optional[str]] = {}
        self._digest: Dict[str, str] = {}
        self._lock = threading.Lock()

    def read(self, path: str) -> Optional[str]:
        with self._lock:
            if path in self._text:
                return self._text[path]
        text = self.base.read(path)
        with self._lock:
            self._text[path] = text
            if text is not None:
                self._digest[path] = \
                    hashlib.sha256(text.encode()).hexdigest()
        return text

    def exists(self, path: str) -> bool:
        return self.read(path) is not None

    def digest(self, path: str) -> Optional[str]:
        if self.read(path) is None:
            return None
        with self._lock:
            return self._digest.get(path)

    def content_digest(self, path: str, text: str) -> str:
        """SHA-256 of ``text``, the content of ``path``: the digest
        kept for it when ``text`` is the stored content, else computed."""
        with self._lock:
            if self._text.get(path) is text:
                return self._digest[path]
        return hashlib.sha256(text.encode()).hexdigest()

    def put(self, path: str, text: str) -> None:
        """Overlay ``path`` with new content (in-memory edit)."""
        with self._lock:
            self._text[path] = text
            self._digest[path] = \
                hashlib.sha256(text.encode()).hexdigest()

    def invalidate(self, path: str) -> bool:
        """Forget cached content for ``path``; True if it was known."""
        with self._lock:
            known = path in self._text
            self._text.pop(path, None)
            self._digest.pop(path, None)
            return known

    def known_files(self) -> Dict[str, str]:
        """Every path with known (readable) content."""
        with self._lock:
            return {path: text for path, text in self._text.items()
                    if text is not None}


class ParseEntry:
    """One unit's warm result plus the evidence that keys it.

    ``record`` may be ``None`` for an entry resumed from the on-disk
    journal: the metadata (key, closure, token fingerprint) came back,
    and the record itself is fetched lazily from the result cache the
    first time a tier needs it.
    """

    __slots__ = ("key", "record", "closure_files", "token_fp")

    def __init__(self, key: str, record: Optional[dict],
                 closure_files: FrozenSet[str],
                 token_fp: Optional[str]):
        self.key = key
        self.record = record
        self.closure_files = closure_files
        self.token_fp = token_fp


class ServerState:
    """All warm state behind one running parse server."""

    def __init__(self, config: Optional[Config] = None,
                 optimization: str = DEFAULT_OPTIMIZATION,
                 cache_dir: Optional[str] = None,
                 use_result_cache: bool = True,
                 tracer: object = None,
                 use_journal: bool = True,
                 **overrides: Any):
        if config is None:
            config = Config(**overrides)
        elif overrides:
            config = config.replace(**overrides)
        if optimization not in OPTIMIZATION_LEVELS:
            raise ValueError(f"unknown optimization {optimization!r}")
        if config.options is None:
            config = config.replace(
                options=OPTIMIZATION_LEVELS[optimization])
        self.optimization = optimization
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.files = FileStore(config.resolved_fs())
        # One warm Session: tables built once, reused by every request.
        # The session reads through the fingerprinting store so request
        # N+1 re-reads nothing request N already saw.
        self.session = Session(config.replace(fs=self.files, files=None))
        self.config = self.session.config
        self.fingerprint = config_fingerprint(
            list(config.include_paths), config.builtins,
            config.extra_definitions, optimization)
        self.result_cache = (ResultCache(cache_dir, self.fingerprint,
                                         tracer=self.tracer)
                             if use_result_cache else None)
        self.index = InvalidationIndex(list(config.include_paths))
        # Per-file token digests, so a fingerprint re-lexes only the
        # closure members whose content changed.
        self.token_digests = TokenDigestMemo(self.files)
        self.entries: Dict[str, ParseEntry] = {}
        self._lock = threading.Lock()
        self.parses = 0
        self.token_short_circuits = 0
        # Installed by ParseServer when a worker pool is active: a
        # callable (unit, text, closure_files, deadline) -> record that
        # runs the parse out of process.  None -> parse inline.
        self.executor: Optional[Callable[..., dict]] = None
        # Warm-state journal: lives inside the result cache's
        # fingerprint directory (which clear() leaves alone — it only
        # removes *.json), so journal and records travel together.
        self.journal: Optional[ParseJournal] = None
        self.journal_resumed = 0
        if use_journal and self.result_cache is not None:
            self.journal = ParseJournal(
                os.path.join(self.result_cache.directory, JOURNAL_NAME),
                tracer=self.tracer)
            self._resume_from_journal()

    def _resume_from_journal(self) -> None:
        """Rebuild warm-entry metadata from a previous daemon's life.

        Records stay on disk (the result cache); what comes back here
        is the per-unit key, closure membership, and token fingerprint
        — enough for the disk and token tiers to short-circuit the
        first request after a restart instead of re-parsing cold."""
        entries = self.journal.load()
        if not entries:
            return
        with self._lock:
            for unit, meta in entries.items():
                self.entries[unit] = ParseEntry(
                    meta["key"], None, frozenset(meta["closure"]),
                    meta["token_fp"])
                self.journal_resumed += 1
                if self.tracer.enabled:
                    self.tracer.count("serve.journal.resume")
        self.index.mark_dirty()

    def reset_after_fork(self) -> None:
        """Make inherited state safe inside a freshly forked worker.

        Locks can be forked while held by another thread; replace them
        so the child can't deadlock on a lock nobody will release.  The
        child parses only — it must not write the parent's journal or
        result cache, so both are detached."""
        self._lock = threading.Lock()
        self.files._lock = threading.Lock()
        self.journal = None
        self.result_cache = None
        self.executor = None

    # -- lookup / store ------------------------------------------------

    def unit_key(self, unit: str, text: str) \
            -> Tuple[str, str, FrozenSet[str]]:
        """(cache key, closure digest, closure members) for a unit."""
        closure_digest, members = include_closure(
            self.files, unit, self.config.include_paths)
        cache = self.result_cache
        if cache is not None:
            key = cache.key_for(unit, text, closure_digest)
        else:
            digest = hashlib.sha256()
            digest.update(unit.encode())
            digest.update(hashlib.sha256(text.encode()).digest())
            digest.update(closure_digest.encode())
            key = digest.hexdigest()[:32]
        return key, closure_digest, members

    def lookup(self, unit: str, key: str,
               closure_files: FrozenSet[str],
               allow_token_hit: bool = True) \
            -> Tuple[Optional[dict], Optional[str]]:
        """(record, tier) for a warm answer, or (None, None)."""
        with self._lock:
            entry = self.entries.get(unit)
        if entry is not None and entry.key == key \
                and entry.record is not None:
            return entry.record, TIER_MEMORY
        if self.result_cache is not None:
            record = self.result_cache.get(key)
            if record is not None:
                self._remember(unit, key, record, closure_files)
                return record, TIER_DISK
        if allow_token_hit and entry is not None \
                and entry.token_fp is not None:
            # The content digest moved but maybe only layout changed:
            # compare layout-insensitive token fingerprints over the
            # (new) closure before paying for a re-parse.
            fresh_fp = token_fingerprint(self.files.read, unit,
                                         closure_files, self.token_digests)
            if fresh_fp is not None and fresh_fp == entry.token_fp:
                record = entry.record
                if record is None and entry.key \
                        and self.result_cache is not None:
                    # Journal-resumed entry: the metadata matched, the
                    # record itself still lives under the old key on
                    # disk.
                    record = self.result_cache.get(entry.key)
                if record is not None:
                    self.token_short_circuits += 1
                    # Re-publish under the new key so the *next*
                    # request (and any batch run) hits tiers 1-2
                    # directly.
                    self._remember(unit, key, record, closure_files,
                                   token_fp=fresh_fp)
                    if self.result_cache is not None:
                        self.result_cache.put(key, record)
                    return record, TIER_TOKEN
        return None, None

    def parse(self, unit: str, text: str, key: str,
              closure_files: FrozenSet[str],
              deadline: object = None) -> dict:
        """Fresh parse; publishes the record unless it is a failure.

        With an ``executor`` installed (worker pool), the parse runs in
        a supervised child process and the supervisor enforces
        ``deadline``; otherwise it runs inline on the warm session.
        Failure records (error / timeout / crashed) are returned but
        never published to the warm tiers or the journal — they
        describe one attempt, not the unit."""
        if self.executor is not None:
            record = self.executor(unit, text, closure_files, deadline)
        else:
            record = self._parse_inline(unit, text)
        self.parses += 1
        if record.get("status") in UNCACHEABLE_STATUSES:
            return record
        fp = token_fingerprint(self.files.read, unit, closure_files,
                               self.token_digests)
        self._remember(unit, key, record, closure_files, token_fp=fp)
        if self.result_cache is not None:
            self.result_cache.put(key, record)
        return record

    def _parse_inline(self, unit: str, text: str) -> dict:
        """One parse on the warm in-process session."""
        result = self.session.parse(text, unit)
        return record_from_result(unit, result,
                                  seconds=result.timing.total)

    def _remember(self, unit: str, key: str, record: Optional[dict],
                  closure_files: FrozenSet[str],
                  token_fp: Optional[str] = None) -> None:
        with self._lock:
            previous = self.entries.get(unit)
            if token_fp is None and previous is not None \
                    and previous.key == key:
                token_fp = previous.token_fp
            self.entries[unit] = ParseEntry(key, record, closure_files,
                                            token_fp)
        self.index.mark_dirty()
        if self.journal is not None:
            self.journal.append(unit, key, closure_files, token_fp)

    # -- invalidation --------------------------------------------------

    def invalidate(self, path: str,
                   text: Optional[str] = None) -> List[str]:
        """Apply an edit to ``path`` and drop exactly the affected
        units' warm entries; returns the dropped unit list (sorted).

        ``text`` installs new content (in-memory edit); without it the
        store just forgets the path so the next read re-hits the base
        file system (on-disk edit).  Entries keep their token
        fingerprint *indirectly*: dropping the entry would defeat the
        layout-only short-circuit, so affected entries are kept but
        demoted — their key is cleared, forcing the next request
        through digest recomputation (and thus the token-fingerprint
        comparison) instead of the memory tier.
        """
        known = self.files.known_files()
        affected = self.index.affected_units(known, path,
                                             list(self.entries))
        if text is not None:
            self.files.put(path, text)
        else:
            self.files.invalidate(path)
        self.index.mark_dirty()
        dropped = []
        demoted = []
        with self._lock:
            for unit in affected:
                entry = self.entries.get(unit)
                if entry is None:
                    continue
                # Demote: keep record + token fingerprint for the
                # tier-3 check, but no key ever matches again.
                self.entries[unit] = ParseEntry(
                    "", entry.record, entry.closure_files,
                    entry.token_fp)
                demoted.append((unit, entry))
                dropped.append(unit)
        if self.journal is not None:
            # Journal the demotion too: a daemon restarted after an
            # edit must not resume the stale pre-edit key.
            for unit, entry in demoted:
                self.journal.append(unit, "", entry.closure_files,
                                    entry.token_fp)
        return sorted(dropped)

    # -- introspection -------------------------------------------------

    def stats(self) -> dict:
        cache = self.result_cache
        with self._lock:
            units = len(self.entries)
        return {
            "fingerprint": self.fingerprint,
            "optimization": self.optimization,
            "units_warm": units,
            "parses": self.parses,
            "token_short_circuits": self.token_short_circuits,
            "result_cache": (None if cache is None else
                             {"hits": cache.hits,
                              "misses": cache.misses,
                              "corrupt": cache.corrupt,
                              "directory": cache.directory}),
            "journal": (None if self.journal is None else
                        dict(self.journal.stats(),
                             resumed=self.journal_resumed)),
            "files_known": len(self.files.known_files()),
        }
