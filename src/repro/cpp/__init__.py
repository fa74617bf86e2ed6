"""Configuration-preserving preprocessing (SuperC §3).

Public surface:

* :class:`Preprocessor` — the configuration-preserving preprocessor;
  produces :class:`CompilationUnit` token trees with
  :class:`Conditional` nodes and BDD presence conditions.
* :class:`SimplePreprocessor` — the single-configuration oracle.
* :func:`hoist` — Algorithm 1.
* :class:`LexedFileCache` — included files lexed once, shared by every
  unit a front-end preprocesses.
* :class:`MacroTable`, :class:`MacroDefinition` — the conditional macro
  table.
"""

from repro.cpp.conditions import (ConditionConverter, defined_var,
                                  expr_var, value_var)
from repro.cpp.errors import PreprocessorError
from repro.cpp.expansion import Expander, ExpansionStats
from repro.cpp.expression import (ExprError, evaluate_int,
                                  parse_expression)
from repro.cpp.hoist import hoist, unhoist
from repro.cpp.includes import (DictFileSystem, FileSystem,
                                IncludeResolver, LexedFile,
                                LexedFileCache, RealFileSystem,
                                detect_guard)
from repro.cpp.macro_table import (FREE, UNDEFINED, MacroDefinition,
                                   MacroTable)
from repro.cpp.preprocessor import (DEFAULT_BUILTINS, CompilationUnit,
                                    Preprocessor, PreprocessorStats)
from repro.cpp.simple import SimplePreprocessor
from repro.cpp.tree import (Conditional, count_conditionals, is_flat,
                            iter_tokens, map_conditions, max_depth,
                            project, render, token_count)

__all__ = [
    "CompilationUnit", "ConditionConverter", "Conditional",
    "DEFAULT_BUILTINS", "DictFileSystem", "Expander", "ExpansionStats",
    "ExprError", "FREE", "FileSystem", "IncludeResolver", "LexedFile",
    "LexedFileCache", "MacroDefinition", "MacroTable", "Preprocessor", "PreprocessorError",
    "PreprocessorStats", "RealFileSystem", "SimplePreprocessor",
    "UNDEFINED", "count_conditionals", "defined_var", "detect_guard",
    "evaluate_int", "expr_var", "hoist", "is_flat", "iter_tokens",
    "map_conditions", "max_depth", "parse_expression", "project",
    "render", "token_count", "unhoist", "value_var",
]
