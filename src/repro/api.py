"""Unified public API: one Config, one Session, one Result shape.

Historically every entry point grew its own knobs — ``SuperC(...)``
took nine positional-ish parameters, ``parse_c(...)`` a different
four, the batch engine an ``EngineConfig`` — and every pipeline
produced a differently-shaped result object.  This module collapses
both sides:

* :class:`Config` is the single keyword-only bag of knobs.  Every
  entry point (``SuperC``, ``parse_c``, :func:`parse`,
  :class:`Session`, the engine workers) funnels through it, so
  defaults resolve identically everywhere.
* :func:`parse` / :class:`Session` are the one-call and reusable
  facades, re-exported at the package root as ``repro.parse`` and
  ``repro.Session``.
* The **Result protocol**: every pipeline result — ``SuperCResult``,
  the engine's ``UnitResult``, and both baselines' results — exposes
  ``status``, ``ok``, ``degraded``, ``diagnostics``, ``timing`` (a
  ``Timing`` with ``lex/preprocess/parse/total``), and ``profile``
  (a :class:`repro.obs.Profile` or None).  :func:`is_result` checks
  conformance structurally; there is no required base class.

Example::

    import repro
    result = repro.parse("int x = 1;")
    result.status, result.timing.total, result.profile

    session = repro.Session(files={"a.c": SRC}, tracer=Tracer())
    result = session.parse_file("a.c")
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.errors import ResourceBudget
from repro.parser.fmlr import FMLROptions
from repro.superc import SuperC, SuperCResult, Timing

# Attributes every pipeline result exposes (the Result protocol).
RESULT_FIELDS: Tuple[str, ...] = ("status", "ok", "degraded",
                                  "diagnostics", "timing", "profile")


def is_result(obj: Any) -> bool:
    """Structural check: does ``obj`` satisfy the Result protocol?"""
    return all(hasattr(obj, name) for name in RESULT_FIELDS)


def result_summary(obj: Any) -> Dict[str, Any]:
    """Uniform JSON-friendly digest of any protocol-conforming result."""
    timing = obj.timing
    return {
        "status": obj.status,
        "ok": obj.ok,
        "degraded": obj.degraded,
        "diagnostics": len(obj.diagnostics),
        "timing": timing.as_dict() if timing is not None else None,
        "profile": (obj.profile.summary_dict()
                    if obj.profile is not None else None),
    }


@dataclass(frozen=True, kw_only=True)
class Config:
    """Every pipeline knob, keyword-only, in one place.

    ``fs``/``files`` are alternatives: pass a ``FileSystem`` or a plain
    ``{path: text}`` mapping (wrapped in a ``DictFileSystem``).
    ``kill_switch``/``hard_kill_switch`` are conveniences that override
    the corresponding fields of ``options`` without constructing an
    ``FMLROptions`` by hand.  ``tracer`` enables observability
    (:mod:`repro.obs`); None keeps the allocation-free null path.
    """

    fs: Any = None
    files: Optional[Mapping[str, str]] = None
    include_paths: Tuple[str, ...] = ()
    builtins: Optional[Dict[str, str]] = None
    extra_definitions: Optional[Dict[str, str]] = None
    options: Optional[FMLROptions] = None
    kill_switch: Optional[int] = None
    hard_kill_switch: Optional[bool] = None
    budget: Optional[ResourceBudget] = None
    tracer: Any = None
    tables: Any = None
    context_factory_maker: Optional[Callable] = None

    def resolved_fs(self) -> Any:
        if self.files is not None:
            from repro.cpp import DictFileSystem
            return DictFileSystem(dict(self.files))
        return self.fs

    def resolved_options(self) -> Optional[FMLROptions]:
        options = self.options
        if self.kill_switch is None and self.hard_kill_switch is None:
            return options
        options = (copy.copy(options) if options is not None
                   else FMLROptions())
        if self.kill_switch is not None:
            options.kill_switch = self.kill_switch
        if self.hard_kill_switch is not None:
            options.hard_kill_switch = self.hard_kill_switch
        return options

    def replace(self, **overrides: Any) -> "Config":
        return dataclasses.replace(self, **overrides)

    def build(self) -> SuperC:
        """Construct the configured front-end."""
        return SuperC(config=self)


class Session:
    """A configured, reusable parsing session.

    Wraps one ``SuperC`` instance (tables built once) so repeated
    parses share setup cost.  Accepts a :class:`Config`, keyword
    overrides, or both (overrides win).
    """

    def __init__(self, config: Optional[Config] = None,
                 **overrides: Any):
        if config is None:
            config = Config(**overrides)
        elif overrides:
            config = config.replace(**overrides)
        self.config = config
        self.superc = config.build()

    @property
    def tracer(self) -> Any:
        return self.superc.tracer

    def parse(self, text: str,
              filename: str = "<input>") -> SuperCResult:
        return self.superc.parse_source(text, filename)

    def parse_file(self, path: str) -> SuperCResult:
        return self.superc.parse_file(path)

    def preprocess(self, text: str, filename: str = "<input>") -> Any:
        return self.superc.preprocess_source(text, filename)


def parse(text: str, *, filename: str = "<input>",
          config: Optional[Config] = None,
          **overrides: Any) -> SuperCResult:
    """One-call convenience over :class:`Session`.

    ``repro.parse(src, files={...}, tracer=t)`` parses ``src`` under a
    fresh session configured by ``config`` and/or keyword overrides.
    """
    return Session(config, **overrides).parse(text, filename)


def connect(url: str, **options: Any) -> Any:
    """Open a :class:`repro.serve.RemoteSession` to a parse daemon.

    The remote analogue of :class:`Session`: ``url`` names a running
    ``superc-serve`` endpoint — ``unix:/path`` (or a bare socket
    path), ``tcp:host:port``, or ``http://host:port`` — and the
    returned session's ``parse``/``parse_file`` results satisfy the
    same structural Result protocol as local ones.  ``options``
    (``timeout``, ``retries``, ``backoff_*``) tune the transport.

    Imported lazily so the in-process API never pays for the serve
    subsystem.
    """
    from repro.serve.client import connect as _connect
    return _connect(url, **options)


__all__ = [
    "Config", "RESULT_FIELDS", "Session", "SuperC", "SuperCResult",
    "Timing", "connect", "is_result", "parse", "result_summary",
]
