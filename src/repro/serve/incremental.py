"""Incremental re-parse support: invalidation and token fingerprints.

Two mechanisms keep re-parse latency after an edit proportional to
what actually changed:

* **Reverse include invalidation** — :class:`InvalidationIndex` keeps
  the resolver-accurate include graph of every file the server has
  read (``repro.analysis.includes_graph.build_resolved_include_graph``)
  and answers "which units does editing ``path`` affect?" as the
  reverse transitive closure.  ``invalidate(header)`` then drops
  exactly the dependent units' warm entries — the paper's Table 2
  observation that single headers reach thousands of units is exactly
  why the walk must be precise rather than "drop everything".
* **Token-level fingerprints** — :func:`token_fingerprint` hashes the
  lexed token stream (kind + text) of a unit and its include closure,
  ignoring layout: whitespace and comments live in token ``layout``
  and newline tokens are skipped.  After an edit the content digest
  changes, but if the token fingerprint is unchanged (comment or
  formatting edit — the common case while typing documentation), the
  previous parse is provably still valid and the server re-serves it
  without re-parsing.  Line numbers inside cached diagnostics may then
  be stale; that is the usual incremental-parsing trade, and a
  ``fresh=true`` request field forces a real re-parse.
"""

from __future__ import annotations

import hashlib
from typing import (Callable, Dict, Iterable, Optional, Sequence, Set,
                    Tuple)

from repro.analysis.includes_graph import (build_resolved_include_graph,
                                           dependent_files)
from repro.lexer import lex
from repro.lexer.tokens import TokenKind

_SKIPPED_KINDS = (TokenKind.NEWLINE, TokenKind.EOF)


def file_token_digest(text: str, filename: str = "<input>") \
        -> Optional[str]:
    """Layout-insensitive digest of one file's token stream; None when
    the file does not lex (fingerprinting then falls back to content
    digests, which never short-circuit)."""
    digest = hashlib.sha256()
    try:
        for token in lex(text, filename):
            if token.kind in _SKIPPED_KINDS:
                continue
            digest.update(token.kind.value.encode())
            digest.update(b"\x00")
            digest.update(token.text.encode())
            digest.update(b"\x01")
    except Exception:
        return None
    return digest.hexdigest()


class TokenDigestMemo:
    """:func:`file_token_digest` memoized per path.

    Called like ``file_token_digest(text, path)``.  Each path keeps the
    token digest of the content it last saw, keyed by that content's
    SHA-256 from ``store.content_digest(path, text)`` (the digest a
    :class:`repro.serve.state.FileStore` already keeps), so an
    unchanged file is lexed once and an edited one again.  A file
    that fails to lex is remembered as None.
    """

    def __init__(self, store) -> None:
        self.store = store
        self._memo: Dict[str, Tuple[str, Optional[str]]] = {}

    def __call__(self, text: str, filename: str) -> Optional[str]:
        content = self.store.content_digest(filename, text)
        known = self._memo.get(filename)
        if known is not None and known[0] == content:
            return known[1]
        digest = file_token_digest(text, filename)
        self._memo[filename] = (content, digest)
        return digest


def token_fingerprint(read, unit: str, closure_files: Iterable[str],
                      file_digest: Callable[[str, str], Optional[str]]
                      = file_token_digest) -> Optional[str]:
    """Combined token digest of ``unit``'s whole include closure.

    ``read`` is a ``path -> Optional[str]`` callable (a FileSystem
    ``read`` method); ``file_digest`` digests one member (a
    :class:`TokenDigestMemo` avoids re-lexing unchanged files).
    Closure membership itself is part of the fingerprint — an edit that
    adds or removes an ``#include`` changes the member list even if
    every surviving file's tokens are unchanged.  Returns None whenever
    any member fails to lex.
    """
    combined = hashlib.sha256()
    for path in sorted(set(closure_files) | {unit}):
        text = read(path)
        if text is None:
            combined.update(f"<missing:{path}>".encode())
            continue
        member = file_digest(text, path)
        if member is None:
            return None
        combined.update(path.encode())
        combined.update(member.encode())
    return combined.hexdigest()


class InvalidationIndex:
    """Reverse include-dependency index over the server's file view.

    Rebuilt lazily from the file store's known contents: mutating
    operations (a new unit parsed, a file invalidated or overlaid)
    call :meth:`mark_dirty`, and the next :meth:`dependents` query
    rebuilds the resolver-accurate graph once.  With a few thousand
    known files the rebuild is milliseconds — far cheaper than the
    re-parses it saves — and keeps the index trivially consistent.
    """

    def __init__(self, include_paths: Sequence[str] = ()):
        self.include_paths = list(include_paths)
        self._graph = None
        self._dirty = True

    def mark_dirty(self) -> None:
        self._dirty = True

    def refresh(self, files: Dict[str, str]) -> None:
        self._graph = build_resolved_include_graph(files,
                                                   self.include_paths)
        self._dirty = False

    def dependents(self, files: Dict[str, str], path: str) -> Set[str]:
        """All known files whose parse could change when ``path``
        changes (``path`` included when known)."""
        if self._dirty or self._graph is None:
            self.refresh(files)
        return dependent_files(self._graph, path)

    def affected_units(self, files: Dict[str, str], path: str,
                       units: Iterable[str]) -> Set[str]:
        """The subset of ``units`` whose include closure reaches
        ``path``."""
        dependents = self.dependents(files, path)
        return {unit for unit in units if unit in dependents}
