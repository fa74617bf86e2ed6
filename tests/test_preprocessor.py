"""Integration tests for the configuration-preserving preprocessor."""

import gc

import pytest

from repro.cpp import (Conditional, PreprocessorError, count_conditionals,
                       is_flat, iter_tokens, max_depth)
from tests.support import preprocess, project_unit, texts


def tree_texts(unit):
    return [t.text for t in iter_tokens(unit.tree)]


class TestConditionalDirectives:
    def test_ifdef_preserved(self):
        unit = preprocess("#ifdef A\nx\n#endif\ny")
        assert count_conditionals(unit.tree) == 1
        assert texts(project_unit(unit, {"A": "1"})) == ["x", "y"]
        assert texts(project_unit(unit, {})) == ["y"]

    def test_ifndef(self):
        unit = preprocess("#ifndef A\nx\n#endif")
        assert texts(project_unit(unit, {})) == ["x"]
        assert texts(project_unit(unit, {"A": "1"})) == []

    def test_else(self):
        unit = preprocess("#ifdef A\nx\n#else\ny\n#endif")
        assert texts(project_unit(unit, {"A": "1"})) == ["x"]
        assert texts(project_unit(unit, {})) == ["y"]

    def test_elif_chain(self):
        source = ("#if defined(A)\na\n"
                  "#elif defined(B)\nb\n"
                  "#elif defined(C)\nc\n"
                  "#else\nd\n#endif")
        unit = preprocess(source)
        assert texts(project_unit(unit, {"A": "1", "B": "1"})) == ["a"]
        assert texts(project_unit(unit, {"B": "1", "C": "1"})) == ["b"]
        assert texts(project_unit(unit, {"C": "1"})) == ["c"]
        assert texts(project_unit(unit, {})) == ["d"]

    def test_nested_conditionals_conjoin(self):
        source = ("#ifdef A\n#ifdef B\nx\n#endif\n#endif")
        unit = preprocess(source)
        assert texts(project_unit(unit, {"A": "1", "B": "1"})) == ["x"]
        assert texts(project_unit(unit, {"A": "1"})) == []
        assert texts(project_unit(unit, {"B": "1"})) == []
        assert unit.stats.max_conditional_depth == 2

    def test_if_with_arithmetic(self):
        source = "#if 2 + 2 == 4\nyes\n#endif"
        unit = preprocess(source)
        assert tree_texts(unit) == ["yes"]
        assert is_flat(unit.tree)

    def test_if_zero_eliminated(self):
        unit = preprocess("#if 0\ndead\n#endif\nlive")
        assert tree_texts(unit) == ["live"]

    def test_if_value_of_free_macro(self):
        unit = preprocess("#if CONFIG_N\nx\n#endif")
        assert texts(project_unit(unit, {"CONFIG_N": "1"})) == ["x"]
        assert texts(project_unit(unit, {"CONFIG_N": "0"})) == []
        assert texts(project_unit(unit, {})) == []

    def test_non_boolean_expression_preserved(self):
        unit = preprocess("#if NR_CPUS < 256\nsmall\n#else\nbig\n#endif")
        assert unit.stats.non_boolean_expressions >= 1
        assert texts(project_unit(unit, {"NR_CPUS": "8"})) == ["small"]
        assert texts(project_unit(unit, {"NR_CPUS": "1024"})) == ["big"]

    def test_multiply_defined_macro_in_condition(self):
        """§3.2: hoisting BITS_PER_LONG == 32 over Figure 2."""
        source = ("#ifdef CONFIG_64BIT\n#define BITS_PER_LONG 64\n"
                  "#else\n#define BITS_PER_LONG 32\n#endif\n"
                  "#if BITS_PER_LONG == 32\nthirtytwo\n#endif\n")
        unit = preprocess(source)
        assert unit.stats.hoisted_conditionals >= 1
        assert texts(project_unit(unit, {})) == ["thirtytwo"]
        assert texts(project_unit(unit, {"CONFIG_64BIT": "1"})) == []

    def test_unterminated_conditional_raises(self):
        with pytest.raises(PreprocessorError):
            preprocess("#ifdef A\nx")

    def test_stray_endif_raises(self):
        with pytest.raises(PreprocessorError):
            preprocess("#endif")

    def test_else_after_else_raises(self):
        with pytest.raises(PreprocessorError):
            preprocess("#ifdef A\n#else\n#else\n#endif")

    def test_elif_after_else_raises(self):
        with pytest.raises(PreprocessorError):
            preprocess("#ifdef A\n#else\n#elif defined(B)\n#endif")

    def test_conditional_count_stat(self):
        unit = preprocess(
            "#ifdef A\n#endif\n#ifdef B\n#endif\n#if 1\n#endif")
        assert unit.stats.conditionals == 3


class TestFigure1:
    SOURCE = (
        '#include "major.h"\n'
        "\n"
        "#define MOUSEDEV_MIX 31\n"
        "#define MOUSEDEV_MINOR_BASE 32\n"
        "\n"
        "static int mousedev_open(struct inode *inode, struct file *file)\n"
        "{\n"
        "  int i;\n"
        "\n"
        "#ifdef CONFIG_INPUT_MOUSEDEV_PSAUX\n"
        "  if (imajor(inode) == MISC_MAJOR)\n"
        "    i = MOUSEDEV_MIX;\n"
        "  else\n"
        "#endif\n"
        "  i = iminor(inode) - MOUSEDEV_MINOR_BASE;\n"
        "\n"
        "  return 0;\n"
        "}\n")
    FILES = {"major.h": "#define MISC_MAJOR 10\n"}

    def test_macros_expanded_conditional_preserved(self):
        unit = preprocess(self.SOURCE, files=self.FILES,
                          include_paths=("",))
        assert count_conditionals(unit.tree) == 1
        with_psaux = texts(project_unit(
            unit, {"CONFIG_INPUT_MOUSEDEV_PSAUX": "1"}))
        without = texts(project_unit(unit, {}))
        assert "10" in with_psaux and "31" in with_psaux
        assert "MISC_MAJOR" not in with_psaux
        assert "if" in with_psaux and "else" in with_psaux
        assert "if" not in without
        assert "32" in without


class TestIncludes:
    def test_quoted_include_relative_to_includer(self):
        files = {
            "dir/main.c": '#include "util.h"\nx',
            "dir/util.h": "u\n",
        }
        unit = preprocess('#include "util.h"\nx',
                          files=files, filename="dir/main.c")
        assert tree_texts(unit) == ["u", "x"]

    def test_angle_include_uses_include_paths(self):
        files = {"include/linux/init.h": "init_token\n"}
        unit = preprocess("#include <linux/init.h>\n", files=files)
        assert tree_texts(unit) == ["init_token"]

    def test_missing_include_raises(self):
        with pytest.raises(PreprocessorError):
            preprocess('#include "nope.h"')

    def test_include_under_condition(self):
        files = {"include/a.h": "ay\n"}
        unit = preprocess("#ifdef A\n#include <a.h>\n#endif\n",
                          files=files)
        assert texts(project_unit(unit, {"A": "1"})) == ["ay"]
        assert texts(project_unit(unit, {})) == []

    def test_computed_include(self):
        files = {"include/one.h": "one\n", "include/two.h": "two\n"}
        source = ('#define HEADER <one.h>\n'
                  "#include HEADER\n")
        unit = preprocess(source, files=files)
        assert tree_texts(unit) == ["one"]
        assert unit.stats.computed_includes == 1

    def test_computed_include_multiply_defined(self):
        files = {"include/one.h": "one\n", "include/two.h": "two\n"}
        source = ("#ifdef A\n#define HEADER <one.h>\n"
                  "#else\n#define HEADER <two.h>\n#endif\n"
                  "#include HEADER\n")
        unit = preprocess(source, files=files)
        assert unit.stats.hoisted_includes == 1
        assert texts(project_unit(unit, {"A": "1"})) == ["one"]
        assert texts(project_unit(unit, {})) == ["two"]

    def test_guarded_header_included_once(self):
        files = {"include/g.h": ("#ifndef G_H\n#define G_H\n"
                                 "guarded\n#endif\n")}
        unit = preprocess("#include <g.h>\n#include <g.h>\n",
                          files=files)
        assert tree_texts(unit) == ["guarded"]
        # Second include skipped entirely via guard optimization.
        assert unit.stats.reincluded_headers == 0

    def test_guard_macro_not_config_variable(self):
        """Rule 4a: defined(G_H) on first inclusion is false, not a
        variable — the guarded body is unconditionally present."""
        files = {"include/g.h": ("#ifndef G_H\n#define G_H\n"
                                 "guarded\n#endif\n")}
        unit = preprocess("#include <g.h>\n", files=files)
        assert is_flat(unit.tree)

    def test_unguarded_header_reincluded(self):
        files = {"include/u.h": "body\n"}
        unit = preprocess("#include <u.h>\n#include <u.h>\n",
                          files=files)
        assert tree_texts(unit) == ["body", "body"]
        assert unit.stats.reincluded_headers == 1

    def test_reinclude_after_undef(self):
        """Table 1: reinclude when the guard macro is not false."""
        files = {"include/g.h": ("#ifndef G_H\n#define G_H\n"
                                 "guarded\n#endif\n")}
        source = ("#include <g.h>\n#undef G_H\n#include <g.h>\n")
        unit = preprocess(source, files=files)
        assert tree_texts(unit) == ["guarded", "guarded"]
        assert unit.stats.reincluded_headers == 1

    def test_include_cycle_detected(self):
        files = {"include/a.h": "#include <b.h>\n",
                 "include/b.h": "#include <a.h>\n"}
        with pytest.raises(PreprocessorError):
            preprocess("#include <a.h>\n", files=files)

    def test_nested_includes(self):
        files = {"include/outer.h": "#include <inner.h>\nouter\n",
                 "include/inner.h": "inner\n"}
        unit = preprocess("#include <outer.h>\n", files=files)
        assert tree_texts(unit) == ["inner", "outer"]
        assert unit.stats.includes == 2

    def test_conditional_must_close_in_same_file(self):
        files = {"include/bad.h": "#ifdef A\n"}
        with pytest.raises(PreprocessorError):
            preprocess("#include <bad.h>\n#endif\n", files=files)


class TestErrorDirectives:
    def test_top_level_error_raises(self):
        with pytest.raises(PreprocessorError):
            preprocess('#error "unsupported"')

    def test_error_in_branch_records_condition(self):
        source = ("#ifdef BROKEN\n#error nope\nx\n#else\ny\n#endif")
        unit = preprocess(source)
        assert len(unit.error_conditions) == 1
        condition, message = unit.error_conditions[0]
        assert "nope" in message
        # The erroneous branch's tokens are dropped.
        assert "x" not in tree_texts(unit)
        assert "y" in tree_texts(unit)

    def test_feasible_condition_excludes_error_branches(self):
        source = ("#ifdef BROKEN\n#error nope\n#endif\nok")
        unit = preprocess(source)
        feasible = unit.feasible_condition
        assert not feasible.is_true()
        assert feasible.evaluate({}) is True
        assert feasible.evaluate({"defined:BROKEN": True}) is False

    def test_error_in_infeasible_branch_ignored(self):
        unit = preprocess("#if 0\n#error never\n#endif\nok")
        assert unit.error_conditions == []
        assert tree_texts(unit) == ["ok"]

    def test_error_count_stat(self):
        unit = preprocess("#ifdef A\n#error one\n#endif\n"
                          "#ifdef B\n#error two\n#endif\n")
        assert unit.stats.error_directives == 2


class TestOtherDirectives:
    def test_warning_recorded(self):
        unit = preprocess('#warning "careful"\nx')
        assert len(unit.warnings) == 1
        assert "careful" in unit.warnings[0][1]

    def test_pragma_annotates_next_token(self):
        unit = preprocess("#pragma pack(1)\nint x;")
        first = next(iter_tokens(unit.tree))
        assert any("#pragma" in a for a in first.annotations)

    def test_line_annotates_next_token(self):
        unit = preprocess('#line 100 "other.c"\nint x;')
        first = next(iter_tokens(unit.tree))
        assert any("#line" in a for a in first.annotations)

    def test_null_directive_ignored(self):
        unit = preprocess("#\nx")
        assert tree_texts(unit) == ["x"]

    def test_unknown_directive_warns(self):
        unit = preprocess("#frobnicate\nx")
        assert any("unknown directive" in message
                   for _cond, message in unit.warnings)

    def test_define_without_name_raises(self):
        with pytest.raises(PreprocessorError):
            preprocess("#define 42")

    def test_undef(self):
        unit = preprocess("#define A 1\n#undef A\nA")
        assert tree_texts(unit) == ["A"]

    def test_conditional_undef(self):
        source = ("#define M 7\n#ifdef A\n#undef M\n#endif\nM\n")
        unit = preprocess(source)
        assert texts(project_unit(unit, {"A": "1"})) == ["M"]
        assert texts(project_unit(unit, {})) == ["7"]


class TestConditionalMacroDefinitionInteraction:
    def test_define_in_one_branch_used_after(self):
        source = ("#ifdef A\n#define X 1\n#else\n#define X 2\n#endif\n"
                  "X X\n")
        unit = preprocess(source)
        assert texts(project_unit(unit, {"A": "1"})) == ["1", "1"]
        assert texts(project_unit(unit, {})) == ["2", "2"]

    def test_definition_before_and_inside_conditional(self):
        source = ("#define X 0\n"
                  "#ifdef A\n#define X 1\n#endif\nX\n")
        unit = preprocess(source)
        assert texts(project_unit(unit, {"A": "1"})) == ["1"]
        assert texts(project_unit(unit, {})) == ["0"]

    def test_use_before_conditional_redefinition(self):
        source = ("#define X 0\nX\n"
                  "#ifdef A\n#define X 1\n#endif\nX\n")
        unit = preprocess(source)
        assert texts(project_unit(unit, {"A": "1"})) == ["0", "1"]
        assert texts(project_unit(unit, {})) == ["0", "0"]


class TestLifetime:
    def test_preprocessing_leaves_no_cyclic_garbage(self):
        """The expanders' error sink must not tie the preprocessor into
        a reference cycle: its token buffers and macro table are then
        freed as soon as preprocessing returns, not whenever the cyclic
        garbage collector next runs."""
        source = ("#ifdef A\n#define F(x) (x + 1)\n#else\n"
                  "#define F(x) (x)\n#endif\nint a = F(2);\n")
        gc.collect()
        gc.disable()
        try:
            unit = preprocess(source)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert tree_texts(unit)
