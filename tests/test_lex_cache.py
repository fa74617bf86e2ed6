"""The session-wide lexed-file cache: a warm session equals a cold one.

``SuperC`` keeps one :class:`repro.cpp.LexedFileCache` for every unit
it preprocesses, so a shared header is lexed once per session.  These
tests pin that the cache changes nothing observable: every unit of a
seeded kernel corpus parses identically through one warm session and
through a fresh session per unit, also through the parse daemon's
state after header edits; and they count the lexer calls the cache
saves.
"""

import hashlib
from collections import Counter

import pytest

import repro.cpp.includes
import repro.cpp.preprocessor
from repro.api import Config, Session
from repro.corpus import KernelSpec, generate_kernel
from repro.cpp import (DictFileSystem, LexedFileCache, PreprocessorError,
                       iter_tokens)
from repro.engine.results import record_from_result
from repro.serve import ParseService, ServerState
from tests.test_fmlr_golden import unit_record

SPEC = KernelSpec(seed=15, subsystems=2, drivers_per_subsystem=2,
                  functions_per_driver=2, figure6_entries=4)
# The record fields a served parse must share with a cold one (timing,
# profile and cache bookkeeping legitimately differ).
RECORD_FIELDS = ("status", "subparsers", "preprocessor", "failures",
                 "diagnostics", "invalid_configs", "error")


@pytest.fixture(scope="module")
def corpus():
    return generate_kernel(SPEC)


def observables(result):
    """Every observable of one parse, including the preprocessed token
    stream with positions, annotations, hide sets and versions."""
    record = unit_record(result)
    record["preprocessor"] = result.unit.stats.as_dict()
    stream = hashlib.sha256()
    for token in iter_tokens(result.unit.tree):
        stream.update(repr((token.kind.value, token.text, token.file,
                            token.line, token.col, token.layout,
                            token.annotations, sorted(token.no_expand),
                            token.version)).encode())
    record["tokens_sha256"] = stream.hexdigest()
    return record


def outcome(session, text, unit):
    """The observables of a parse, or the error a fatal unit raises."""
    try:
        return observables(session.parse(text, unit))
    except PreprocessorError as error:
        return ("fatal", str(error))


class NeverHit(LexedFileCache):
    """A cache that stores nothing: every inclusion is lexed afresh."""

    def put(self, path, entry):
        pass


def cold_session(files, include_paths):
    """A fresh session that lexes every inclusion, even a reinclusion
    within one unit, as if there were no cache."""
    session = Session(Config(files=dict(files),
                             include_paths=tuple(include_paths)))
    session.superc.lex_cache = NeverHit()
    return session


def cold(files, include_paths, unit):
    return outcome(cold_session(files, include_paths), files[unit], unit)


class TestWarmEqualsCold:
    def test_session_corpus(self, corpus):
        warm = Session(Config(files=dict(corpus.files),
                              include_paths=tuple(corpus.include_paths)))
        # Twice through the warm session: the second pass is all hits.
        for _round in range(2):
            for unit in corpus.units:
                assert outcome(warm, corpus.files[unit], unit) == \
                    cold(corpus.files, corpus.include_paths, unit), unit
        assert len(warm.superc.lex_cache) > 0

    def test_includes_get_fresh_token_copies(self):
        files = {"include/h.h": "#pragma pack\nint h;\n",
                 "a.c": "#include <h.h>\nint a;\n"}
        session = Session(Config(files=files, include_paths=("include",)))
        first = session.parse_file("a.c")
        second = session.parse_file("a.c")
        head = [next(iter_tokens(result.unit.tree))
                for result in (first, second)]
        assert head[0] is not head[1]
        # The annotation written onto the first inclusion's copy must
        # not reach the cache and stack up on the second.
        assert head[0].annotations == head[1].annotations == \
            ("#pragma pack",)

    def test_edited_header_replaces_entry(self):
        files = {"include/h.h": "#define V 1\n",
                 "a.c": "#include <h.h>\nint a = V;\n"}
        session = Session(Config(files=files, include_paths=("include",)))
        session.parse_file("a.c")
        session.superc.fs.files["include/h.h"] = "#define V 2\n"
        warm = observables(session.parse_file("a.c"))
        assert warm == cold(session.superc.fs.files, ["include"], "a.c")

    def test_broken_header_confined_then_fatal(self):
        files = {"include/bad.h": "int x = 'oops;\n",
                 "include/ok.h": "int ok;\n",
                 "guarded.c": "#ifdef CONFIG_X\n#include <bad.h>\n#endif\n"
                              "#include <ok.h>\nint g;\n",
                 "fatal.c": "#include <ok.h>\n#include <bad.h>\nint f;\n"}
        session = Session(Config(files=files, include_paths=("include",)))
        guarded = session.parse_file("guarded.c")
        assert guarded.status == "degraded"
        with pytest.raises(PreprocessorError, match="broken include"):
            session.parse_file("fatal.c")
        # A lexer error is never cached; the good header is.
        cache = session.superc.lex_cache
        assert cache.get("include/bad.h", files["include/bad.h"]) is None
        assert cache.get("include/ok.h", files["include/ok.h"]) is not None
        for unit in ("guarded.c", "fatal.c"):
            assert outcome(session, files[unit], unit) == \
                cold(files, ["include"], unit)


def serve(service, unit, fresh=False):
    """(record fields, tier) of one parse request; a fatal unit's
    error reply becomes ("fatal", error)."""
    reply = service.handle({"op": "parse", "path": unit, "fresh": fresh})
    if reply["status"] == "error":
        return ("fatal", reply["error"]), None
    return {field: reply[field] for field in RECORD_FIELDS}, reply["tier"]


def cold_record(files, include_paths, unit):
    session = cold_session(files, include_paths)
    try:
        result = session.parse(files[unit], unit)
    except PreprocessorError as error:
        return ("fatal", repr(error))
    record = record_from_result(unit, result)
    return {field: record[field] for field in RECORD_FIELDS}


class TestServeWarmEqualsCold:
    """The daemon's warm session, driven through its request handler
    after in-memory edits, against a cold parse of the edited files."""

    def _check(self, state, service, files, include_paths, units,
               fresh=True):
        for unit in units:
            served, _tier = serve(service, unit, fresh=fresh)
            assert served == cold_record(files, include_paths, unit), unit
            assert outcome(state.session, files[unit], unit) == \
                cold(files, include_paths, unit), unit

    def test_header_edits(self, corpus, tmp_path):
        files = dict(corpus.files)
        paths = list(corpus.include_paths)
        state = ServerState(Config(files=dict(files),
                                   include_paths=tuple(paths)),
                            cache_dir=str(tmp_path / "cache"))
        service = ParseService(state)
        units = list(corpus.units)
        self._check(state, service, files, paths, units, fresh=False)

        def edit(path, text):
            files[path] = text
            return state.invalidate(path, text=text)

        # A semantic edit of a header every unit includes.
        shared = "include/linux/types.h"
        original = files[shared]
        dropped = edit(shared, original + "typedef int edited_t;\n")
        assert set(dropped) == set(units)
        self._check(state, service, files, paths, units, fresh=False)

        # A layout-only edit that shifts every line of the header: the
        # served record is a token-tier hit, and a real re-parse (and
        # the warm session) must match a cold parse token for token.
        edit(shared, "/* layout */\n" + files[shared])
        for unit in units:
            _record, tier = serve(service, unit)
            assert tier == "token", unit
        self._check(state, service, files, paths, units)

        # A header reached through a computed include, only under
        # CONFIG_64BIT, stops lexing: confined, so degraded.
        arch = sorted(path for path in files
                      if path.endswith("_64.h"))[0]
        edit(arch, files[arch] + "char broken = 'x;\n")
        self._check(state, service, files, paths, units)
        statuses = [serve(service, unit)[0]["status"] for unit in units]
        assert "degraded" in statuses

        # The shared header stops lexing too: under TRUE, so fatal.
        edit(shared, files[shared] + "/* unterminated\n")
        self._check(state, service, files, paths, units)
        assert all(serve(service, unit)[0][0] == "fatal"
                   for unit in units)

        # Both repaired: back to the original results.
        edit(shared, original)
        edit(arch, corpus.files[arch])
        self._check(state, service, files, paths, units)


class TestLexCounts:
    def test_shared_header_lexed_once_per_session(self, corpus,
                                                  monkeypatch):
        calls = Counter()
        lex = repro.cpp.preprocessor.lex_logical_lines

        def counting(text, filename="<input>"):
            calls[filename] += 1
            return lex(text, filename)

        def forbidden(text, filename="<input>"):
            raise AssertionError(f"detect_guard lexed {filename}")

        monkeypatch.setattr(repro.cpp.preprocessor, "lex_logical_lines",
                            counting)
        monkeypatch.setattr(repro.cpp.includes, "lex_logical_lines",
                            forbidden)
        session = Session(Config(files=dict(corpus.files),
                                 include_paths=tuple(corpus.include_paths)))
        inclusions = sum(session.parse_file(unit).unit.stats.includes
                         for unit in corpus.units)
        headers = {name: count for name, count in calls.items()
                   if name not in corpus.units}
        # Every unit includes the shared types header; each header is
        # lexed once however many units include it.
        assert headers["include/linux/types.h"] == 1
        assert set(headers.values()) == {1}
        assert inclusions > len(headers)
        assert len(session.superc.lex_cache) == len(headers)
        assert all(calls[unit] == 1 for unit in corpus.units)

    def test_standalone_preprocessor_lexes_each_header_once(self,
                                                            monkeypatch):
        calls = Counter()
        lex = repro.cpp.preprocessor.lex_logical_lines

        def counting(text, filename="<input>"):
            calls[filename] += 1
            return lex(text, filename)

        monkeypatch.setattr(repro.cpp.preprocessor, "lex_logical_lines",
                            counting)
        files = {"include/twice.h": "int t;\n",
                 "a.c": "#include <twice.h>\n#include <twice.h>\n"}
        cache = LexedFileCache()
        preprocessor = repro.cpp.preprocessor.Preprocessor(
            DictFileSystem(files), include_paths=["include"],
            lex_cache=cache)
        unit = preprocessor.preprocess(files["a.c"], "a.c")
        assert unit.stats.reincluded_headers == 1
        assert calls == {"a.c": 1, "include/twice.h": 1}
        assert len(cache) == 1
