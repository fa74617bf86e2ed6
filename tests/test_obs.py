"""Tests for the observability layer (``repro.obs``) and the unified
public API (``repro.api``)."""

import json
import warnings

import pytest

import repro
from repro.api import Config, Session, is_result, result_summary
from repro.corpus import KernelSpec, generate_kernel
from repro.engine import (BatchEngine, CorpusJob, EngineConfig,
                          UnitResult)
from repro.eval.subparsers import measure_level
from repro.obs import (NULL_TRACER, NullTracer, Profile, Span,
                       TraceEvent, Tracer, format_flamegraph,
                       records_to_chrome_trace, to_chrome_trace,
                       validate_chrome_trace, write_chrome_trace)
from repro.obs.profile import merge_profile_summaries
from repro.superc import SuperC, parse_c
from repro.tools import parse_cli

CONDITIONAL_SOURCE = """\
#define BASE 32
#ifdef CONFIG_A
int a = BASE;
#else
int a = 1;
#endif
int b;
"""

FIG8_SPEC = KernelSpec(seed=7, subsystems=1, drivers_per_subsystem=2,
                       functions_per_driver=2, figure6_entries=3,
                       extra_headers_per_subsystem=1)


def fake_clock():
    """Deterministic monotonic clock: 1.0, 2.0, 3.0, ..."""
    state = {"t": 0.0}

    def tick():
        state["t"] += 1.0
        return state["t"]

    return tick


class TestTracer:
    def test_span_tree_is_deterministic(self):
        tracer = Tracer(clock=fake_clock())
        with tracer.span("unit", file="a.c"):
            with tracer.span("preprocess"):
                with tracer.span("lex"):
                    pass
            with tracer.span("parse"):
                pass
        assert tracer.span_trees() == (
            ("unit", (("preprocess", (("lex", ()),)), ("parse", ()))),)
        root = tracer.roots[0]
        assert root.seconds > 0
        assert root.args == {"file": "a.c"}

    def test_spans_tolerate_exceptions(self):
        tracer = Tracer(clock=fake_clock())
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        assert tracer.span_trees() == (("outer", (("inner", ()),)),)
        assert not tracer._stack

    def test_counters_events_histograms(self):
        tracer = Tracer(clock=fake_clock())
        tracer.count("fmlr.forks")
        tracer.count("fmlr.forks", 2)
        tracer.event("fork", n=2)
        tracer.record("fmlr.subparsers", 3)
        tracer.record("fmlr.subparsers", 5)
        assert tracer.counters == {"fmlr.forks": 3}
        assert [e.name for e in tracer.events] == ["fork"]
        assert tracer.histograms == {"fmlr.subparsers": [3, 5]}

    def test_mark_since_windows(self):
        tracer = Tracer(clock=fake_clock())
        tracer.count("fmlr.forks", 5)
        tracer.record("hoist.expansion", 2)
        mark = tracer.mark()
        tracer.count("fmlr.forks", 2)
        tracer.record("hoist.expansion", 7)
        tracer.event("merge")
        window = tracer.since(mark)
        assert window["counters"] == {"fmlr.forks": 2}
        assert window["histograms"] == {"hoist.expansion": [7]}
        assert [e.name for e in window["events"]] == ["merge"]

    def test_reset_clears_everything(self):
        tracer = Tracer(clock=fake_clock())
        with tracer.span("unit"):
            tracer.count("x")
            tracer.record("h", 1)
            tracer.event("e")
        tracer.reset()
        assert not tracer.roots and not tracer.events
        assert not tracer.counters and not tracer.histograms


class TestNullTracer:
    def test_singleton_is_disabled_and_empty(self):
        assert NULL_TRACER.enabled is False
        assert isinstance(NULL_TRACER, NullTracer)
        assert NULL_TRACER.roots == ()
        assert NULL_TRACER.events == ()
        assert NULL_TRACER.counters == {}
        assert NULL_TRACER.histograms == {}

    def test_hooks_are_no_ops(self):
        with NULL_TRACER.span("anything", arg=1):
            NULL_TRACER.count("c", 5)
            NULL_TRACER.record("h", 1.0)
            NULL_TRACER.event("e", x=2)
        NULL_TRACER.reset()
        assert NULL_TRACER.counters == {}
        assert NULL_TRACER.mark() == ()

    def test_untraced_parse_allocates_no_trace_objects(self, monkeypatch):
        """The allocation-free guarantee: an un-traced parse must never
        construct a Span or TraceEvent."""

        def explode(self, *args, **kwargs):
            raise AssertionError(
                "trace object allocated on the un-traced path")

        monkeypatch.setattr(Span, "__init__", explode)
        monkeypatch.setattr(TraceEvent, "__init__", explode)
        result = parse_c(CONDITIONAL_SOURCE)
        assert result.ok
        assert result.profile is None


class TestProfile:
    def test_parse_attaches_profile(self):
        tracer = Tracer()
        result = repro.parse(CONDITIONAL_SOURCE, tracer=tracer)
        assert result.ok
        profile = result.profile
        assert profile is not None
        assert set(profile.phases) == {"lex", "preprocess", "parse",
                                       "total"}
        assert profile.phases["total"] >= profile.phases["parse"]
        # Pipeline counters from all three layers are merged in.
        assert profile.counters["fmlr.iterations"] > 0
        assert profile.counters["fmlr.action_lookups"] > 0
        assert profile.counters["bdd.nodes"] >= 1
        assert profile.counters["cpp.macro_definitions"] > 0
        assert "fmlr.subparsers" in profile.histograms
        text = profile.format_summary()
        assert "parse" in text and "fmlr:" in text

    def test_summary_dict_round_trips_as_json(self):
        result = repro.parse(CONDITIONAL_SOURCE, tracer=Tracer())
        summary = result.profile.summary_dict()
        assert json.loads(json.dumps(summary)) == summary
        assert summary["spans"] >= 3  # unit, preprocess, parse at least

    def test_per_unit_windows_on_shared_tracer(self):
        tracer = Tracer()
        session = Session(tracer=tracer)
        first = session.parse(CONDITIONAL_SOURCE)
        second = session.parse("int only_one;\n")
        # Windows isolate units: the second profile must not include
        # the first unit's iterations.
        assert second.profile.counters["fmlr.iterations"] < \
            first.profile.counters["fmlr.iterations"] + \
            second.profile.counters["fmlr.iterations"]
        assert first.profile.counters["cpp.conditionals"] == 1
        assert second.profile.counters.get("cpp.conditionals", 0) == 0

    def test_merge_profile_summaries(self):
        tracer = Tracer()
        summaries = [repro.parse(CONDITIONAL_SOURCE,
                                 tracer=tracer).profile.summary_dict()
                     for _ in range(3)]
        merged = merge_profile_summaries(summaries)
        assert merged["units"] == 3
        single = summaries[0]["counters"]["fmlr.iterations"]
        assert merged["counters"]["fmlr.iterations"] == 3 * single
        hist = merged["histograms"]["fmlr.subparsers"]
        assert hist["count"] == \
            3 * summaries[0]["histograms"]["fmlr.subparsers"]["count"]


class TestChromeTrace:
    def test_traced_parse_exports_valid_chrome_trace(self, tmp_path):
        tracer = Tracer()
        repro.parse(CONDITIONAL_SOURCE, tracer=tracer)
        trace = to_chrome_trace(tracer)
        assert validate_chrome_trace(trace) == []
        names = {e["name"] for e in trace["traceEvents"]}
        assert {"unit", "preprocess", "parse"} <= names
        phases = {e["ph"] for e in trace["traceEvents"]}
        assert "X" in phases and "C" in phases
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), trace)
        assert validate_chrome_trace(json.loads(path.read_text())) == []

    def test_fork_merge_events_in_trace(self):
        tracer = Tracer()
        repro.parse(CONDITIONAL_SOURCE, tracer=tracer)
        counts = {}
        for event in tracer.events:
            counts[event.name] = counts.get(event.name, 0) + 1
        assert counts.get("fork", 0) >= 1
        assert counts.get("merge", 0) >= 1
        # Instant events survive export.
        trace = to_chrome_trace(tracer)
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == len(tracer.events)

    def test_records_to_chrome_trace(self):
        corpus = generate_kernel(FIG8_SPEC)
        job = CorpusJob.from_corpus(corpus)
        report = BatchEngine(EngineConfig(
            use_result_cache=False)).run(job)
        trace = records_to_chrome_trace(report.records)
        assert validate_chrome_trace(trace) == []
        lanes = {e["tid"] for e in trace["traceEvents"]
                 if e["ph"] == "X"}
        assert len(lanes) == len(report.records)

    def test_validator_rejects_malformed_traces(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({}) != []
        bad = {"traceEvents": [{"name": "x", "ph": "X", "ts": 0,
                                "pid": 1, "tid": 1}]}  # X without dur
        assert any("dur" in p for p in validate_chrome_trace(bad))
        unbalanced = {"traceEvents": [
            {"name": "x", "ph": "B", "ts": 0, "pid": 1, "tid": 1}]}
        assert any("unclosed" in p
                   for p in validate_chrome_trace(unbalanced))

    def test_flamegraph_text(self):
        tracer = Tracer(clock=fake_clock())
        with tracer.span("unit"):
            with tracer.span("parse"):
                pass
        text = format_flamegraph(tracer)
        assert "unit" in text and "parse" in text and "#" in text


class TestSubparserAgreement:
    def test_fmlr_counters_agree_with_eval_subparsers(self):
        """The Figure 8 benchmark is reimplemented over tracer hooks;
        an independently traced run over the same corpus must observe
        the identical fork/merge totals and iteration counts."""
        corpus = generate_kernel(FIG8_SPEC)
        dist = measure_level(corpus, "Shared, Lazy, & Early")
        assert dist.forks > 0 and dist.merges > 0
        assert dist.counts

        tracer = Tracer()
        superc = SuperC(corpus.filesystem(),
                        include_paths=corpus.include_paths,
                        tracer=tracer)
        for unit in corpus.units:
            superc.parse_file(unit)
        assert tracer.counters["fmlr.forks"] == dist.forks
        assert tracer.counters["fmlr.merges"] == dist.merges
        assert len(tracer.histograms["fmlr.subparsers"]) == \
            len(dist.counts)
        assert max(tracer.histograms["fmlr.subparsers"]) == dist.maximum


class TestEngineProfiling:
    def test_profiled_run_attaches_profiles_and_rollup(self, tmp_path):
        corpus = generate_kernel(FIG8_SPEC)
        job = CorpusJob.from_corpus(corpus)
        config = EngineConfig(cache_dir=str(tmp_path / "cache"),
                              use_result_cache=False, profile=True)
        tracer = Tracer()
        report = BatchEngine(config).run(job, tracer=tracer)
        assert report.units == len(corpus.units)
        for record in report.records:
            profile = record["profile"]
            assert profile is not None
            assert profile["counters"]["fmlr.iterations"] > 0
            assert json.loads(json.dumps(profile)) == profile
        rollup = report.profile_rollup()
        assert rollup["units"] == report.units
        assert rollup["counters"]["fmlr.forks"] == \
            sum(r["profile"]["counters"].get("fmlr.forks", 0)
                for r in report.records)
        assert "profile" in report.summary()
        # Parent-side spans: one cache-probe (skipped: cache off) and
        # at least one wave.
        names = [root.name for root in tracer.roots]
        assert "wave" in names

    def test_unprofiled_run_has_no_profiles(self, tmp_path):
        corpus = generate_kernel(FIG8_SPEC)
        job = CorpusJob.from_corpus(corpus)
        report = BatchEngine(EngineConfig(
            cache_dir=str(tmp_path / "cache"),
            use_result_cache=False)).run(job)
        assert all(r["profile"] is None for r in report.records)
        assert report.profile_rollup() is None
        assert "profile" not in report.summary()


class TestUnifiedApi:
    def test_parse_and_session(self):
        result = repro.parse(CONDITIONAL_SOURCE)
        assert result.ok and result.status == "ok"
        session = Session(files={"a.c": "int x;\n"})
        assert session.parse_file("a.c").ok
        assert session.parse("int y;\n").ok

    def test_config_resolves_options(self):
        config = Config(kill_switch=7, hard_kill_switch=True)
        options = config.resolved_options()
        assert options.kill_switch == 7
        assert options.hard_kill_switch is True
        # Overrides copy instead of mutating a shared options object.
        base = repro.FMLROptions()
        config = Config(options=base, kill_switch=9)
        assert config.resolved_options().kill_switch == 9
        assert base.kill_switch != 9

    def test_config_replace_and_build(self):
        config = Config(files={"a.c": "int x;\n"})
        richer = config.replace(include_paths=("include",))
        assert richer.include_paths == ("include",)
        assert config.include_paths == ()
        superc = richer.build()
        assert superc.include_paths == ["include"]
        assert superc.config is richer

    def test_superc_accepts_config_object(self):
        superc = SuperC(config=Config(files={"a.c": "int x;\n"}))
        assert superc.parse_file("a.c").ok

    def test_result_protocol_conformance(self, tmp_path):
        assert is_result(repro.parse("int x;\n"))
        corpus = generate_kernel(FIG8_SPEC)
        report = BatchEngine(EngineConfig(
            cache_dir=str(tmp_path / "cache"),
            use_result_cache=False)).run(
                CorpusJob.from_corpus(corpus))
        unit_result = report.unit_results()[0]
        assert isinstance(unit_result, UnitResult)
        assert is_result(unit_result)
        assert unit_result.timing.total >= unit_result.timing.parse
        from repro.baselines.gcc_like import GccLike
        from repro.cpp import DictFileSystem
        gcc = GccLike(DictFileSystem({}))
        assert is_result(gcc.compile_source("int x;\n"))

    def test_result_summary_uniform(self):
        summary = result_summary(repro.parse("int x;\n"))
        assert summary["status"] == "ok"
        assert set(summary["timing"]) == {"lex", "preprocess", "parse",
                                          "total"}
        assert summary["profile"] is None

    def test_gcc_like_timing_has_no_seconds_aliases(self):
        from repro.baselines.gcc_like import GccLike
        from repro.cpp import DictFileSystem
        result = GccLike(DictFileSystem({})).compile_source("int x;\n")
        for old in ("lex_seconds", "preprocess_seconds", "parse_seconds",
                    "total_seconds"):
            assert not hasattr(result, old)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert result.timing.total == (result.timing.lex
                                           + result.timing.preprocess
                                           + result.timing.parse)


class TestCliIntegration:
    @pytest.fixture()
    def source_tree(self, tmp_path):
        (tmp_path / "include").mkdir()
        (tmp_path / "include" / "major.h").write_text(
            "#define MISC_MAJOR 10\n")
        (tmp_path / "main.c").write_text(
            '#include "major.h"\n'
            "#ifdef CONFIG_A\n"
            "int a = MISC_MAJOR;\n"
            "#endif\n"
            "int b;\n")
        return tmp_path

    def test_trace_flag_writes_valid_trace(self, source_tree, capsys):
        trace_path = source_tree / "trace.json"
        code = parse_cli.main([str(source_tree / "main.c"),
                               "-I", str(source_tree / "include"),
                               "--trace", str(trace_path)])
        assert code == 0
        trace = json.loads(trace_path.read_text())
        assert validate_chrome_trace(trace) == []

    def test_profile_flag_prints_summary(self, source_tree, capsys):
        code = parse_cli.main([str(source_tree / "main.c"),
                               "-I", str(source_tree / "include"),
                               "--profile"])
        out = capsys.readouterr().out
        assert code == 0
        assert "profile:" in out
        assert "fmlr:" in out and "bdd:" in out

    def test_json_includes_profile_when_tracing(self, source_tree,
                                                capsys):
        code = parse_cli.main([str(source_tree / "main.c"),
                               "-I", str(source_tree / "include"),
                               "--profile", "--json"])
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        assert record["timing"]["total"] > 0
        assert record["profile"] is not None
        assert record["profile"]["counters"]["fmlr.iterations"] > 0

    def test_json_profile_null_without_tracing(self, source_tree,
                                               capsys):
        code = parse_cli.main([str(source_tree / "main.c"),
                               "-I", str(source_tree / "include"),
                               "--json"])
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        assert record["profile"] is None
