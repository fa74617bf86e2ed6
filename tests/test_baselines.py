"""Tests for the baselines: the formula/DPLL condition algebra and the
gcc-like single-configuration pipeline."""

import itertools

import pytest

from repro.baselines import FormulaManager, GccLike, allyesconfig
from repro.cpp import DictFileSystem, Preprocessor
from repro.superc import SuperC
from tests.support import TEST_BUILTINS


VARS = ["A", "B", "C"]


def build(expr, mgr):
    tag = expr[0]
    if tag == "var":
        return mgr.var(expr[1])
    if tag == "const":
        return mgr.constant(expr[1])
    if tag == "not":
        return ~build(expr[1], mgr)
    left, right = build(expr[1], mgr), build(expr[2], mgr)
    return (left & right) if tag == "and" else (left | right)


def eval_expr(expr, env):
    tag = expr[0]
    if tag == "var":
        return env[expr[1]]
    if tag == "const":
        return expr[1]
    if tag == "not":
        return not eval_expr(expr[1], env)
    left, right = eval_expr(expr[1], env), eval_expr(expr[2], env)
    return (left and right) if tag == "and" else (left or right)


class TestFormulaAlgebra:
    def test_constants(self):
        mgr = FormulaManager()
        assert mgr.true.is_true()
        assert mgr.false.is_false()
        assert not mgr.false.is_satisfiable()

    def test_var_satisfiable(self):
        mgr = FormulaManager()
        a = mgr.var("A")
        assert a.is_satisfiable()
        assert not a.is_true()
        assert (a & ~a).is_false()
        assert (a | ~a).is_true()

    def test_de_morgan_semantics(self):
        mgr = FormulaManager()
        a, b = mgr.var("A"), mgr.var("B")
        left = ~(a & b)
        right = ~a | ~b
        assert left.equiv(right).is_true()

    def test_evaluate(self):
        mgr = FormulaManager()
        f = (mgr.var("A") & ~mgr.var("B")) | mgr.var("C")
        assert f.evaluate({"A": True})
        assert not f.evaluate({"A": True, "B": True})
        assert f.evaluate({"C": True})

    def test_conjoin_disjoin(self):
        mgr = FormulaManager()
        parts = [mgr.var(name) for name in VARS]
        assert mgr.conjoin(parts).evaluate(
            {name: True for name in VARS})
        assert not mgr.disjoin(parts).evaluate({})

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_exhaustive_small_formulas(self, depth):
        """Formula satisfiability matches brute-force truth tables."""
        def exprs(d):
            if d == 0:
                return [("var", v) for v in VARS] + \
                    [("const", True), ("const", False)]
            smaller = exprs(d - 1)[:6]
            out = []
            for left in smaller[:4]:
                out.append(("not", left))
                for right in smaller[:3]:
                    out.append(("and", left, right))
                    out.append(("or", left, right))
            return out

        for expr in exprs(depth)[:60]:
            mgr = FormulaManager()
            formula = build(expr, mgr)
            truth = any(
                eval_expr(expr, dict(zip(VARS, bits)))
                for bits in itertools.product([False, True],
                                              repeat=len(VARS)))
            assert formula.is_satisfiable() == truth, expr

    def test_cnf_instrumentation(self):
        mgr = FormulaManager()
        f = (mgr.var("A") | mgr.var("B")) & (mgr.var("C") | ~mgr.var("A"))
        f.is_satisfiable()
        assert mgr.sat_queries >= 1
        assert mgr.cnf_conversions >= 1
        assert mgr.cnf_clauses >= 2

    def test_literal_conjunction_fast_path(self):
        mgr = FormulaManager()
        f = mgr.var("A") & ~mgr.var("B") & mgr.var("C")
        assert f.is_satisfiable()
        assert mgr.cnf_conversions == 0  # fast path, no CNF needed
        g = mgr.var("A") & ~mgr.var("A")
        assert not g.is_satisfiable()
        assert mgr.cnf_conversions == 0

    def test_tseitin_fallback_beyond_budget(self):
        mgr = FormulaManager(clause_budget=50)
        # OR of ANDs: naive distribution needs 2^12 clauses.  The
        # satisfiable cases short-circuit via cached models, so force
        # the solver with an *unsatisfiable* non-literal query.
        f = mgr.false
        for i in range(12):
            f = f | (mgr.var(f"a{i}") & mgr.var("Y"))
        g = f & ~mgr.var("Y")
        assert not g.is_satisfiable()
        assert mgr.tseitin_fallbacks >= 1

    def test_tseitin_preserves_unsatisfiability(self):
        mgr = FormulaManager(clause_budget=4)
        disjunction = mgr.false
        for i in range(4):
            disjunction = disjunction | \
                (mgr.var(f"x{i}") & mgr.var("Y"))
        # (OR of (xi & Y)) & !Y is unsatisfiable.
        f = disjunction & ~mgr.var("Y")
        assert not f.is_satisfiable()

    def test_hash_consing(self):
        mgr = FormulaManager()
        a, b = mgr.var("A"), mgr.var("B")
        assert (a & b) is (a & b)
        assert (a | b) is (a | b)
        assert ~(a & b) is ~(a & b)

    def test_random_formulas_match_brute_force(self):
        """The layered solving strategy (construction-time literals,
        model extension, conjunct decomposition, DPLL) stays exact."""
        import random

        rng = random.Random(7)
        for _ in range(600):
            mgr = FormulaManager()

            def gen(depth):
                r = rng.random()
                if depth <= 0 or r < 0.35:
                    v = mgr.var(rng.choice(VARS))
                    return ~v if rng.random() < 0.5 else v
                if r < 0.65:
                    return gen(depth - 1) & gen(depth - 1)
                if r < 0.9:
                    return gen(depth - 1) | gen(depth - 1)
                return ~gen(depth - 1)

            f = gen(4)
            truth = any(
                f.evaluate(dict(zip(VARS, bits)))
                for bits in itertools.product([False, True],
                                              repeat=len(VARS)))
            assert f.is_satisfiable() == truth, f.to_expr_string()

    def test_decomposition_entangled_residuals(self):
        """Residuals sharing variables must fall back to full DPLL:
        (A|B) & (!A|!B) & (A|!B) & (!A|B) is unsatisfiable."""
        mgr = FormulaManager()
        a, b = mgr.var("A"), mgr.var("B")
        f = (a | b) & (~a | ~b) & (a | ~b) & (~a | b)
        assert not f.is_satisfiable()

    def test_decomposition_disjoint_residuals(self):
        mgr = FormulaManager()
        f = (mgr.var("A") | mgr.var("B")) & \
            (mgr.var("C") | mgr.var("D")) & ~mgr.var("E")
        assert f.is_satisfiable()
        g = f & ~mgr.var("A") & ~mgr.var("B")
        assert not g.is_satisfiable()


class TestFormulaPipeline:
    def test_preprocessor_runs_on_formulas(self):
        """The whole configuration-preserving preprocessor is generic
        over the condition algebra."""
        source = ("#ifdef A\n#define X 1\n#else\n#define X 2\n#endif\n"
                  "int v = X;\n")
        pp = Preprocessor(DictFileSystem({}), builtins=TEST_BUILTINS,
                          manager=FormulaManager())
        unit = pp.preprocess(source, "t.c")
        from repro.cpp import count_conditionals
        assert count_conditionals(unit.tree) == 1

    def test_superc_pipeline_on_formulas(self):
        from repro.cgrammar import classify, make_context_factory, \
            c_tables
        from repro.parser.fmlr import FMLRParser
        source = ("#ifdef CONFIG_A\nint a;\n#endif\nint tail;\n")
        manager = FormulaManager()
        pp = Preprocessor(DictFileSystem({}), builtins=TEST_BUILTINS,
                          manager=manager)
        unit = pp.preprocess(source, "t.c")
        parser = FMLRParser(c_tables(), classify,
                            make_context_factory(manager))
        result = parser.parse(unit.tree, manager,
                              unit.feasible_condition)
        assert result.ok
        assert len(result.accepted) >= 1


class TestGccLike:
    def test_compile_simple(self):
        gcc = GccLike(DictFileSystem({}), builtins=TEST_BUILTINS)
        result = gcc.compile_source("int main(void) { return 0; }\n")
        assert result.ast is not None
        assert result.timing.total > 0

    def test_single_configuration_selected(self):
        source = ("#ifdef CONFIG_A\nint a;\n#else\nint b;\n#endif\n")
        on = GccLike(DictFileSystem({}), config={"CONFIG_A": "1"},
                     builtins=TEST_BUILTINS).compile_source(source)
        off = GccLike(DictFileSystem({}), builtins=TEST_BUILTINS) \
            .compile_source(source)
        on_texts = [t.text for t in on.tokens]
        off_texts = [t.text for t in off.tokens]
        assert "a" in on_texts and "a" not in off_texts
        assert "b" in off_texts and "b" not in on_texts

    def test_allyesconfig(self):
        config = allyesconfig(["CONFIG_A", "CONFIG_B"])
        assert config == {"CONFIG_A": "1", "CONFIG_B": "1"}

    def test_compile_file(self):
        fs = DictFileSystem({"m.c": "int x;\n"})
        gcc = GccLike(fs, builtins=TEST_BUILTINS)
        assert gcc.compile_file("m.c").ast is not None
        with pytest.raises(FileNotFoundError):
            gcc.compile_file("missing.c")

    def test_typedefs_work(self):
        gcc = GccLike(DictFileSystem({}), builtins=TEST_BUILTINS)
        result = gcc.compile_source(
            "typedef int T; T f(T x) { return (T)x; }\n")
        assert result.ast is not None
