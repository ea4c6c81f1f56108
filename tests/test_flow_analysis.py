"""Tests for the flow analyzer (repro.analysis.flow)."""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.flow import (
    FlowFinding,
    analyze_paths,
    analyze_sources,
    baseline_document,
    filter_baseline,
    fixpoint,
    load_baseline,
    render_markdown_table,
)
from repro.analysis.lint import lint_paths
from repro.artifacts import write_document
from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parents[1]

ENGINE_PATH = "src/repro/engine/fixture.py"


def _flow(source: str, path: str = ENGINE_PATH) -> list[FlowFinding]:
    return analyze_sources([(path, source)])


# ----------------------------------------------------------------------
# The call-graph fixpoint REP011 runs on
# ----------------------------------------------------------------------


class TestDataflowSolvers:
    def test_fixpoint_propagates_transitively(self):
        graph = {"a": {"b"}, "b": {"c"}, "c": set()}
        seeds = {"a": set(), "b": set(), "c": {"x"}}

        def step(name, states):
            merged = set(seeds[name])
            for callee in graph[name]:
                merged |= states[callee]
            return frozenset(merged)

        result = fixpoint(
            sorted(graph), lambda name: frozenset(seeds[name]), step
        )
        assert result["a"] == frozenset({"x"})


# ----------------------------------------------------------------------
# REP011: escaping exceptions
# ----------------------------------------------------------------------

ESCAPING_KEYERROR = """\
class Engine:
    def lookup(self, key):
        \"\"\"Serve one key.\"\"\"
        return self._fetch(key)

    def _fetch(self, key):
        if key is None:
            raise KeyError(key)
        return key
"""


class TestRep011:
    def test_escaping_keyerror_flagged_at_raise_site(self):
        findings = [f for f in _flow(ESCAPING_KEYERROR) if f.rule == "REP011"]
        assert [(f.line, f.symbol) for f in findings] == [(8, "Engine.lookup")]
        assert "KeyError" in findings[0].message

    def test_hierarchy_aware_handler_catches(self):
        guarded = ESCAPING_KEYERROR.replace(
            "        return self._fetch(key)",
            "        try:\n"
            "            return self._fetch(key)\n"
            "        except LookupError:\n"
            "            return None",
        )
        assert [f for f in _flow(guarded) if f.rule == "REP011"] == []

    def test_docstring_declaration_is_the_escape_hatch(self):
        documented = ESCAPING_KEYERROR.replace(
            "Serve one key.", "Serve one key.\n\n        Raises KeyError."
        )
        assert [f for f in _flow(documented) if f.rule == "REP011"] == []

    def test_repro_rooted_exceptions_are_fine(self):
        source = (
            "class Engine:\n"
            "    def check(self, shape):\n"
            "        raise InvalidShapeError(shape)\n"
        )
        assert [f for f in _flow(source) if f.rule == "REP011"] == []

    def test_private_helpers_carry_no_contract(self):
        source = (
            "class Engine:\n"
            "    def _helper(self):\n"
            "        raise KeyError('x')\n"
        )
        assert [f for f in _flow(source) if f.rule == "REP011"] == []


# ----------------------------------------------------------------------
# REP012: hot-path allocations
# ----------------------------------------------------------------------

HOT_ALLOC = """\
class Cube:
    def prefix_sum(self, cell):
        total = 0
        while cell:
            total += sum(v for v in cell)
            cell = cell[:-1]
        return total
"""


class TestRep012:
    def test_generator_in_descent_loop_flagged(self):
        findings = _flow(HOT_ALLOC, path="src/repro/core/fixture.py")
        assert [(f.rule, f.line, f.symbol) for f in findings] == [
            ("REP012", 5, "Cube.prefix_sum")
        ]

    def test_batch_methods_are_exempt(self):
        batch = HOT_ALLOC.replace("def prefix_sum(", "def prefix_sum_many(")
        assert _flow(batch, path="src/repro/core/fixture.py") == []

    def test_hot_rules_do_not_apply_outside_hot_dirs(self):
        assert _flow(HOT_ALLOC, path="src/repro/obs/fixture.py") == []


# ----------------------------------------------------------------------
# Determinism, baseline, and the committed-tree regression
# ----------------------------------------------------------------------


class TestDeterminismAndBaseline:
    def test_analyze_sources_is_deterministic(self):
        sources = [
            ("src/repro/core/fixture.py", HOT_ALLOC),
            (ENGINE_PATH, ESCAPING_KEYERROR),
        ]
        first = analyze_sources(sources)
        second = analyze_sources(sources)
        assert first == second
        keys = [(f.path, f.line, f.rule, f.message) for f in first]
        assert keys == sorted(keys)

    def test_lint_paths_sorts_globally(self, tmp_path):
        # Two files given in reverse name order must still report sorted.
        b = tmp_path / "b.py"
        a = tmp_path / "zz_later" / "a.py"
        a.parent.mkdir()
        for path in (a, b):
            path.write_text("x = 1\n")  # REP005: no __all__
        findings = lint_paths([str(b), str(a)])
        assert [f.path for f in findings] == sorted(f.path for f in findings)

    def test_baseline_roundtrip_survives_line_drift(self, tmp_path):
        findings = _flow(ESCAPING_KEYERROR)
        baseline_path = tmp_path / "baseline.json"
        write_document(baseline_path, baseline_document(findings))
        # Same finding, shifted two lines down: still baselined because
        # the key is (path, rule, symbol), not the line number.
        shifted = _flow("\n\n" + ESCAPING_KEYERROR)
        fresh, suppressed = filter_baseline(
            shifted, load_baseline(baseline_path)
        )
        assert fresh == []
        assert suppressed == 1

    def test_committed_tree_is_clean_modulo_baseline(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        findings = analyze_paths(["src/repro"])
        baseline = load_baseline("benchmarks/baselines/analyze.json")
        fresh, _ = filter_baseline(findings, baseline)
        assert fresh == [], (
            "un-baselined REP011-REP012 findings on src/ — fix them or "
            "run: repro analyze src/ --baseline "
            "benchmarks/baselines/analyze.json --update-baseline"
        )

    def test_library_tree_lint_clean(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert lint_paths(["src/repro"]) == []


# ----------------------------------------------------------------------
# CLI: repro analyze
# ----------------------------------------------------------------------


class TestAnalyzeCli:
    def _leaky_tree(self, tmp_path) -> Path:
        root = tmp_path / "src" / "repro" / "engine"
        root.mkdir(parents=True)
        (root / "leaky.py").write_text('__all__ = []\n' + ESCAPING_KEYERROR)
        return tmp_path / "src"

    def test_findings_exit_one(self, tmp_path, capsys):
        tree = self._leaky_tree(tmp_path)
        assert cli_main(["analyze", str(tree)]) == 1
        out = capsys.readouterr().out
        assert "REP011" in out

    def test_clean_after_update_baseline(self, tmp_path):
        tree = self._leaky_tree(tmp_path)
        baseline = tmp_path / "analyze.json"
        assert (
            cli_main(
                [
                    "analyze",
                    str(tree),
                    "--baseline",
                    str(baseline),
                    "--update-baseline",
                ]
            )
            == 0
        )
        assert (
            cli_main(["analyze", str(tree), "--baseline", str(baseline)]) == 0
        )

    def test_missing_path_exits_two(self, tmp_path):
        assert cli_main(["analyze", str(tmp_path / "nope")]) == 2

    def test_json_document_written(self, tmp_path):
        tree = self._leaky_tree(tmp_path)
        report = tmp_path / "findings.json"
        assert cli_main(["analyze", str(tree), "--json", str(report)]) == 1
        document = json.loads(report.read_text())
        assert document["schema_version"] == 1
        assert document["experiment"] == "flow_analysis"
        assert [row["rule"] for row in document["rows"]] == ["REP011"]

    def test_step_summary_written_in_ci(self, tmp_path, monkeypatch):
        tree = self._leaky_tree(tmp_path)
        summary = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        cli_main(["analyze", str(tree)])
        text = summary.read_text()
        assert "repro analyze" in text
        assert "REP011" in text

    def test_markdown_table_escapes_pipes(self):
        finding = FlowFinding("a.py", 1, "REP011", "f", "a | b")
        assert "a \\| b" in render_markdown_table([finding])
