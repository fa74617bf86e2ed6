"""Span tracing from outside the program.

:class:`Spans` installs timing wrappers around public functions and
methods of each layer, records one span per call (name, start, end,
parent) in memory, and computes each layer's self time: a span's
duration minus the part its child spans cover.  Nothing inside the
program changes; :meth:`Spans.uninstall` restores the originals.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Any, Callable, Dict, List, Tuple

# (layer name, module path, attribute path) for every wrapped call.
# ``lex_logical_lines`` and ``hoist`` are wrapped where the
# configuration-preserving preprocessor and its macro expander look
# them up, so the oracle's own lexing stays inside its ``oracle.cpp``
# span.
LAYER_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("lexer", "repro.cpp.preprocessor", "lex_logical_lines"),
    ("cpp.hoist", "repro.cpp.preprocessor", "hoist"),
    ("cpp.hoist", "repro.cpp.expansion", "hoist"),
    ("cpp", "repro.cpp.preprocessor", "Preprocessor.preprocess"),
    ("fmlr", "repro.parser.fmlr", "FMLRParser.parse"),
    ("api", "repro.superc", "SuperC.parse_source"),
    ("oracle.cpp", "repro.cpp.simple", "SimplePreprocessor.preprocess"),
    ("oracle.lr", "repro.parser.lr", "LRParser.parse"),
    ("qa", "repro.qa.differential", "DifferentialChecker.check_source"),
    ("serve.parse", "repro.serve.client", "RemoteSession.parse"),
    ("serve.invalidate", "repro.serve.client",
     "RemoteSession.invalidate"),
    ("serve.ping", "repro.serve.client", "RemoteSession.ping"),
    ("serve.stats", "repro.serve.client", "RemoteSession.stats"),
)

LAYERS = tuple(dict.fromkeys(name for name, _m, _a in LAYER_TARGETS))

# Per-layer self-time metric of each in-process layer.
SELF_METRICS = {"lexer": "lexer.self_s", "cpp": "cpp.self_s",
                "cpp.hoist": "cpp.hoist_s", "fmlr": "fmlr.self_s",
                "api": "api.self_s", "oracle.cpp": "oracle.cpp_s",
                "oracle.lr": "oracle.lr_s", "qa": "qa.self_s"}


class Spans:
    """In-memory span recorder with per-layer self-time totals."""

    def __init__(self) -> None:
        # Each span: [name, start, end, parent index].
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._installed: List[Tuple[Any, str, Any]] = []
        self.returned: List[Tuple[str, Any]] = []
        self.keep_results: Tuple[str, ...] = ()

    # -- wrappers ------------------------------------------------------

    def install(self, keep_results: Tuple[str, ...] = ()) -> None:
        """Wrap every target; results of the layers named in
        ``keep_results`` are kept so counters can be read from them
        after the timed operation."""
        import importlib
        self.keep_results = keep_results
        for name, module_path, attr_path in LAYER_TARGETS:
            owner: Any = importlib.import_module(module_path)
            parts = attr_path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = owner.__dict__[parts[-1]]
            setattr(owner, parts[-1], self._wrap(name, original))
            self._installed.append((owner, parts[-1], original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, name: str, function: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        keep = self

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            parent = stack[-1] if stack else -1
            span = [name, time.perf_counter(), 0.0, parent]
            spans.append(span)
            stack.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if name in keep.keep_results:
                keep.returned.append((name, result))
            return result

        return wrapper

    # -- aggregation ---------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Per-layer self seconds over every span recorded."""
        child_cover: Dict[int, float] = {}
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child_cover[parent] = child_cover.get(parent, 0.0) \
                    + (end - start)
        totals = {layer: 0.0 for layer in LAYERS}
        for index, (name, start, end, _parent) in enumerate(self.spans):
            totals[name] += (end - start) - child_cover.get(index, 0.0)
        return totals

    def durations(self, name: str) -> List[float]:
        return [end - start for span_name, start, end, _p in self.spans
                if span_name == name]

    def take_results(self) -> List[Tuple[str, Any]]:
        taken, self.returned = self.returned, []
        return taken

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps({"name": name, "start": start,
                                         "end": end,
                                         "parent": parent}) + "\n")
