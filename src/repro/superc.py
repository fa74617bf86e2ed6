"""SuperC: the end-to-end configuration-preserving C front-end.

Ties together the three processing steps (Table 1): lexing,
configuration-preserving preprocessing, and Fork-Merge LR parsing with
the C grammar and the conditional symbol table, producing an AST with
static choice nodes that covers every configuration at once.

Typical use::

    from repro import SuperC
    superc = SuperC(fs=DictFileSystem(files), include_paths=["include"])
    result = superc.parse_source(source, "driver.c")
    result.ast                # Node / StaticChoice tree
    result.unit.stats         # Table 3 preprocessor statistics
    result.parse.stats        # Figure 8 subparser statistics
    result.timing             # Figure 10 latency breakdown
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.bdd import BDDManager
from repro.cgrammar import (SymbolStats, c_tables, classify,
                            make_context_factory)
from repro.cpp import (CompilationUnit, FileSystem, LexedFileCache,
                       Preprocessor)
from repro.cpp.tree import token_count
from repro.errors import (Diagnostic, PHASE_RESOURCE, ResourceBudget,
                          SEVERITY_CONFIG, SEVERITY_WARNING)
from repro.obs.profile import Profile
from repro.obs.tracer import NULL_TRACER
from repro.parser.fmlr import (FMLROptions, FMLRParser, FMLRResult,
                               FMLRStats, ParseFailure)
from repro.parser.lalr import Tables
from repro.parser.lr import LRParser

# SuperCResult.status values.
STATUS_OK = "ok"
STATUS_DEGRADED = "degraded"
STATUS_PARSE_FAILED = "parse-failed"


class Timing:
    """Latency breakdown in seconds (Figure 10)."""

    def __init__(self, lex: float, preprocess: float, parse: float):
        self.lex = lex
        self.preprocess = preprocess
        self.parse = parse

    @property
    def total(self) -> float:
        return self.lex + self.preprocess + self.parse

    def as_dict(self) -> Dict[str, float]:
        return {"lex": self.lex, "preprocess": self.preprocess,
                "parse": self.parse, "total": self.total}

    def __repr__(self) -> str:
        return (f"Timing(lex={self.lex:.4f}, "
                f"preprocess={self.preprocess:.4f}, "
                f"parse={self.parse:.4f})")


class SuperCResult:
    """Everything produced for one compilation unit."""

    def __init__(self, unit: CompilationUnit, parse: FMLRResult,
                 symbol_stats: SymbolStats, timing: Timing,
                 profile: Optional[Profile] = None):
        self.unit = unit
        self.parse = parse
        self.symbol_stats = symbol_stats
        self.timing = timing
        # Per-unit observability snapshot (repro.obs.Profile) when the
        # parse ran under an enabled tracer; None otherwise.
        self.profile = profile

    @property
    def ok(self) -> bool:
        return self.parse.ok

    @property
    def ast(self) -> Any:
        return self.parse.value

    @property
    def failures(self) -> List[ParseFailure]:
        return self.parse.failures

    @property
    def diagnostics(self) -> List[Diagnostic]:
        """All condition-scoped diagnostics, preprocessing then parse."""
        return list(self.unit.diagnostics) + list(self.parse.diagnostics)

    @property
    def invalid_configs(self) -> Any:
        """BDD over configurations with no usable AST: recorded
        preprocessor error conditions plus rejected or degraded-away
        parse configurations."""
        return ~self.unit.feasible_condition | self.parse.invalid_configs

    @property
    def degraded(self) -> bool:
        return self.status == STATUS_DEGRADED

    @property
    def status(self) -> str:
        """``ok`` (every feasible configuration parsed, nothing
        confined), ``degraded`` (a partial result: some configurations
        were pruned, rejected, or degraded away, but an AST exists), or
        ``parse-failed`` (no configuration produced an AST)."""
        has_config_errors = bool(self.unit.error_conditions) or any(
            diag.severity == SEVERITY_CONFIG
            for diag in self.unit.diagnostics)
        if self.parse.accepted:
            if self.parse.failures or self.parse.degraded \
                    or has_config_errors:
                return STATUS_DEGRADED
            return STATUS_OK
        if self.parse.degraded and not self.parse.failures:
            # Everything still live was degraded away before acceptance.
            return STATUS_DEGRADED
        return STATUS_PARSE_FAILED


class SuperC:
    """Configuration-preserving parser for all of C."""

    def __init__(self, fs: Optional[FileSystem] = None,
                 include_paths: Sequence[str] = (),
                 builtins: Optional[Dict[str, str]] = None,
                 extra_definitions: Optional[Dict[str, str]] = None,
                 options: Optional[FMLROptions] = None,
                 tables: Optional[Tables] = None,
                 context_factory_maker: Optional[Callable] = None,
                 budget: Optional[ResourceBudget] = None,
                 tracer: Any = None,
                 config: Any = None):
        # All knobs funnel through one repro.api.Config so every entry
        # point (SuperC, parse_c, repro.parse, the engine) resolves
        # defaults identically.  Imported lazily: repro.api imports this
        # module at its top level.
        if config is None:
            from repro.api import Config
            config = Config(fs=fs, include_paths=tuple(include_paths),
                            builtins=builtins,
                            extra_definitions=extra_definitions,
                            options=options, tables=tables,
                            context_factory_maker=context_factory_maker,
                            budget=budget, tracer=tracer)
        self.config = config
        self.fs = config.resolved_fs()
        self.include_paths = list(config.include_paths)
        self.builtins = config.builtins
        # The four non-boolean macro definitions of §6.3 step 3 (and
        # any other overrides) are supplied here.
        self.extra_definitions = config.extra_definitions
        self.options = config.resolved_options()
        # Per-unit resource limits; trips degrade instead of crashing.
        self.budget = config.budget
        # NULL_TRACER keeps the un-traced hot path free of event
        # allocation; pass a repro.obs.Tracer to observe the pipeline.
        self.tracer = config.tracer if config.tracer is not None \
            else NULL_TRACER
        # Prebuilt tables and a (manager, stats) -> context-factory
        # maker can be injected so repeated construction — the batch
        # engine builds one SuperC per corpus job per worker — shares
        # one table build instead of paying c_tables() per instance.
        self.tables = config.tables if config.tables is not None \
            else c_tables()
        self.context_factory_maker = (config.context_factory_maker
                                      or make_context_factory)
        # Included files lexed once for every unit this front-end
        # preprocesses (a Session, an engine worker, a QA checker):
        # shared headers are not re-lexed per unit.
        self.lex_cache = LexedFileCache()

    # -- pipeline -------------------------------------------------------------

    def preprocess_source(self, text: str,
                          filename: str = "<input>") -> CompilationUnit:
        """Run only the configuration-preserving preprocessor."""
        preprocessor = self._preprocessor()
        return preprocessor.preprocess(text, filename)

    def parse_source(self, text: str,
                     filename: str = "<input>") -> SuperCResult:
        """Preprocess and parse source text."""
        tracer = self.tracer
        mark = tracer.mark() if tracer.enabled else None
        with tracer.span("unit", file=filename):
            preprocessor = self._preprocessor()
            with tracer.span("preprocess", file=filename):
                pp_start = time.perf_counter()
                unit = preprocessor.preprocess(text, filename)
                pp_seconds = time.perf_counter() - pp_start
            result = self._parse_unit(
                unit, preprocessor.lex_seconds,
                pp_seconds - preprocessor.lex_seconds)
        # Attach the profile once the unit span has closed so the
        # window captures the whole span tree.
        result.profile = self._profile(unit, result.parse.stats,
                                       result.timing, mark)
        return result

    def parse_file(self, path: str) -> SuperCResult:
        """Preprocess and parse a file from the file system."""
        if self.fs is None:
            raise ValueError("SuperC needs a file system to parse files")
        text = self.fs.read(path)
        if text is None:
            raise FileNotFoundError(path)
        return self.parse_source(text, path)

    def parse_unit(self, unit: CompilationUnit) -> SuperCResult:
        """Parse an already-preprocessed compilation unit."""
        tracer = self.tracer
        mark = tracer.mark() if tracer.enabled else None
        result = self._parse_unit(unit, 0.0, 0.0)
        result.profile = self._profile(unit, result.parse.stats,
                                       result.timing, mark)
        return result

    # -- internals ---------------------------------------------------------------

    def _preprocessor(self) -> Preprocessor:
        return Preprocessor(self.fs, include_paths=self.include_paths,
                            builtins=self.builtins,
                            extra_definitions=self.extra_definitions,
                            budget=self.budget,
                            tracer=self.tracer,
                            lex_cache=self.lex_cache)

    def _parse_unit(self, unit: CompilationUnit, lex_seconds: float,
                    pp_seconds: float) -> SuperCResult:
        symbol_stats = SymbolStats()
        budget = self.budget
        if budget is not None and budget.max_tokens:
            total = token_count(unit.tree)
            if total > budget.max_tokens:
                # Too large to parse under this budget: return a
                # degraded result covering every feasible configuration
                # instead of attempting (and possibly thrashing on) the
                # parse.
                diagnostic = Diagnostic(
                    unit.feasible_condition, SEVERITY_CONFIG,
                    PHASE_RESOURCE,
                    f"token budget of {budget.max_tokens} exceeded "
                    f"({total} tokens): parse skipped")
                parse = FMLRResult([], [], FMLRStats(), unit.manager,
                                   [diagnostic], degraded=True)
                timing = Timing(lex_seconds, pp_seconds, 0.0)
                return SuperCResult(unit, parse, symbol_stats, timing)
        factory = self.context_factory_maker(unit.manager, symbol_stats)
        parser = FMLRParser(self.tables, classify,
                            context_factory=factory,
                            options=self.options,
                            budget=budget,
                            tracer=self.tracer)
        with self.tracer.span("parse"):
            parse_start = time.perf_counter()
            result = parser.parse(unit.tree, unit.manager,
                                  unit.feasible_condition)
            parse_seconds = time.perf_counter() - parse_start
        timing = Timing(lex_seconds, pp_seconds, parse_seconds)
        return SuperCResult(unit, result, symbol_stats, timing)

    def _profile(self, unit: CompilationUnit, stats: FMLRStats,
                 timing: Timing, mark: Any) -> Optional[Profile]:
        """Assemble the per-unit Profile from the tracer window plus the
        pipeline's own counters (FMLR, BDD manager, preprocessor)."""
        tracer = self.tracer
        if not tracer.enabled:
            return None
        counters: Dict[str, Any] = dict(stats.as_counters())
        manager_stats = getattr(unit.manager, "stats", None)
        if callable(manager_stats):
            for key, value in manager_stats().items():
                counters[f"bdd.{key}"] = value
        unit_stats = getattr(unit, "stats", None)
        as_dict = getattr(unit_stats, "as_dict", None)
        if callable(as_dict):
            for key, value in as_dict().items():
                counters[f"cpp.{key}"] = value
        return Profile.from_window(tracer, mark,
                                   phases=timing.as_dict(),
                                   extra_counters=counters)


def parse_c(text: str, files: Optional[Dict[str, str]] = None,
            include_paths: Sequence[str] = ("include",),
            builtins: Optional[Dict[str, str]] = None,
            options: Optional[FMLROptions] = None) -> SuperCResult:
    """One-call convenience: parse C source with conditionals."""
    from repro.cpp import DictFileSystem
    superc = SuperC(DictFileSystem(files or {}),
                    include_paths=include_paths, builtins=builtins,
                    options=options)
    return superc.parse_source(text)
