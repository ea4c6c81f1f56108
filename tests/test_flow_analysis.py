"""Tests for the CFG/dataflow analyzer (repro.analysis.flow)."""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from repro.analysis.flow import (
    UNREACHED,
    FlowFinding,
    LockAnalyzer,
    WithEnter,
    WithExit,
    analyze_paths,
    analyze_sources,
    baseline_document,
    build_cfg,
    filter_baseline,
    fixpoint,
    load_baseline,
    render_markdown_table,
    solve_forward,
)
from repro.analysis.lint import lint_paths
from repro.artifacts import write_document
from repro.cli import _chaos_exit_code
from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parents[1]

ENGINE_PATH = "src/repro/engine/fixture.py"


def _function(source: str):
    """Parse ``source`` and return its first function def."""
    node = ast.parse(source).body[0]
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    return node


def _flow(source: str, path: str = ENGINE_PATH) -> list[FlowFinding]:
    return analyze_sources([(path, source)])


# ----------------------------------------------------------------------
# CFG construction
# ----------------------------------------------------------------------


class TestCfg:
    def test_linear_function_is_one_block(self):
        cfg = build_cfg(_function("def f():\n    a = 1\n    b = 2\n"))
        reachable = [b for b in cfg.blocks if b.statements or b.successors]
        assert len(reachable) == 1
        assert [type(s).__name__ for s in reachable[0].statements] == [
            "Assign",
            "Assign",
        ]

    def test_if_forks_and_joins(self):
        cfg = build_cfg(
            _function(
                "def f(x):\n"
                "    if x:\n"
                "        a = 1\n"
                "    else:\n"
                "        a = 2\n"
                "    return a\n"
            )
        )
        entry = cfg.blocks[cfg.entry]
        assert len(entry.successors) == 2
        preds = cfg.predecessors()
        joins = [index for index, sources in preds.items() if len(sources) == 2]
        assert joins, "then/else must converge on a join block"

    def test_while_has_back_edge(self):
        cfg = build_cfg(
            _function("def f(n):\n    while n:\n        n -= 1\n    return n\n")
        )
        header = next(
            b
            for b in cfg.blocks
            if b.statements and isinstance(b.statements[0], ast.While)
        )
        body = cfg.blocks[header.successors[0]]
        assert header.index in body.successors, "loop body edges back to header"

    def test_with_emits_enter_and_exit_markers(self):
        cfg = build_cfg(
            _function(
                "def f(self):\n"
                "    with self._lock:\n"
                "        x = 1\n"
                "    y = 2\n"
            )
        )
        kinds = [
            type(s).__name__ for block in cfg.blocks for s in block.statements
        ]
        assert kinds.count("WithEnter") == 1
        assert kinds.count("WithExit") == 1
        enter = kinds.index("WithEnter")
        exit_ = kinds.index("WithExit")
        assert enter < exit_

    def test_return_inside_with_unwinds_context(self):
        cfg = build_cfg(
            _function(
                "def f(self):\n"
                "    with self._lock:\n"
                "        return 1\n"
            )
        )
        statements = [s for block in cfg.blocks for s in block.statements]
        returns = [i for i, s in enumerate(statements) if isinstance(s, ast.Return)]
        exits = [i for i, s in enumerate(statements) if isinstance(s, WithExit)]
        assert returns and exits
        assert exits[0] > returns[0], "WithExit emitted on the early-return path"

    def test_try_body_edges_into_handler(self):
        cfg = build_cfg(
            _function(
                "def f(self):\n"
                "    try:\n"
                "        risky()\n"
                "    except ValueError:\n"
                "        pass\n"
            )
        )
        handler_blocks = {
            b.index
            for b in cfg.blocks
            if any(isinstance(s, ast.ExceptHandler) for s in b.statements)
        }
        assert handler_blocks
        body_edges = {
            succ
            for b in cfg.blocks
            if any(
                isinstance(s, ast.Expr) and isinstance(s.value, ast.Call)
                for s in b.statements
            )
            for succ in b.successors
        }
        assert handler_blocks & body_edges, "risky() block must edge into handler"


class TestDataflowSolvers:
    def test_solve_forward_intersects_at_join(self):
        # Must-analysis: a fact holding on only one branch dies at the join.
        cfg = build_cfg(
            _function(
                "def f(self, x):\n"
                "    if x:\n"
                "        with self._lock:\n"
                "            a = 1\n"
                "    b = 2\n"
            )
        )

        def transfer(block, state):
            for statement in block.statements:
                if isinstance(statement, WithEnter):
                    state = state | {"lock"}
                elif isinstance(statement, WithExit):
                    state = state - {"lock"}
            return state

        states = solve_forward(
            cfg, transfer, frozenset(), lambda a, b: a & b
        )
        final_states = [
            states[b.index]
            for b in cfg.blocks
            if not b.successors and states[b.index] is not UNREACHED
        ]
        assert final_states
        assert all(state == frozenset() for state in final_states)

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
# REP009: unguarded writes (including aliases no lexical scan can follow)
# ----------------------------------------------------------------------

RACY_ALIAS = """\
class Engine:
    def serve(self, key, value):
        c = self._cache
        c[key] = value
"""

CLEAN_LOCKED = """\
class Engine:
    def serve(self, key, value):
        with self._lock:
            c = self._cache
            c[key] = value
        self._locked_touch(key)

    def _locked_touch(self, key):
        self._epochs[0] += 1
"""

BRANCH_RACY = """\
class Engine:
    def bump(self, index, fast):
        if fast:
            self._epochs[index] += 1
        else:
            with self._lock:
                self._epochs[index] += 1
"""

CLOSURE_UNDER_LOCK = """\
class Engine:
    def fanout(self):
        with self._lock:
            def run_shard(index):
                self._epochs[index] += 1
            return run_shard
"""


class TestRep009:
    def test_aliased_unguarded_write_detected(self):
        findings = _flow(RACY_ALIAS)
        assert [(f.rule, f.line, f.symbol) for f in findings] == [
            ("REP009", 4, "Engine.serve")
        ]
        assert "alias 'c'" in findings[0].message

    def test_laundered_alias_detected(self):
        # An alias laundered through a second local binding: only a
        # flow-sensitive must-alias chain can follow it.
        laundered = RACY_ALIAS.replace(
            "        c = self._cache\n",
            "        tmp = self._cache\n        c = tmp\n",
        )
        flow = [f for f in _flow(laundered) if f.rule == "REP009"]
        assert len(flow) == 1
        assert flow[0].line == 5

    def test_clean_locked_excerpt_has_no_findings(self):
        assert _flow(CLEAN_LOCKED) == []

    def test_must_analysis_flags_partially_locked_branch(self):
        findings = [f for f in _flow(BRANCH_RACY) if f.rule == "REP009"]
        assert [f.line for f in findings] == [4]

    def test_closure_captures_lock_state_at_definition(self):
        assert _flow(CLOSURE_UNDER_LOCK) == []

    def test_init_is_exempt(self):
        source = "class Engine:\n    def __init__(self):\n        self._epochs = [0]\n"
        assert _flow(source) == []

    def test_noqa_suppresses(self):
        suppressed = RACY_ALIAS.replace(
            "c[key] = value", "c[key] = value  # noqa: REP009"
        )
        assert _flow(suppressed) == []


# ----------------------------------------------------------------------
# REP010: lock-order cycles
# ----------------------------------------------------------------------

ABBA = """\
class Engine:
    def forward(self):
        with self._cache_lock:
            with self._epoch_lock:
                pass

    def backward(self):
        with self._epoch_lock:
            with self._cache_lock:
                pass
"""

CONSISTENT = """\
class Engine:
    def one(self):
        with self._cache_lock:
            with self._epoch_lock:
                pass

    def two(self):
        with self._cache_lock:
            with self._epoch_lock:
                pass
"""

ABBA_VIA_CALL = """\
class Engine:
    def forward(self):
        with self._cache_lock:
            self._bump()

    def _bump(self):
        with self._epoch_lock:
            pass

    def backward(self):
        with self._epoch_lock:
            with self._cache_lock:
                pass
"""


class TestRep010:
    def test_abba_deadlock_detected(self):
        findings = [f for f in _flow(ABBA) if f.rule == "REP010"]
        assert len(findings) == 1
        finding = findings[0]
        assert finding.symbol == "<lock-order-graph>"
        assert finding.line == 4  # earliest edge site
        assert "self._cache_lock -> self._epoch_lock" in finding.message

    def test_consistent_order_is_clean(self):
        assert [f for f in _flow(CONSISTENT) if f.rule == "REP010"] == []

    def test_cycle_through_self_call_detected(self):
        findings = [f for f in _flow(ABBA_VIA_CALL) if f.rule == "REP010"]
        assert len(findings) == 1

    def test_reentrant_acquisition_is_not_a_cycle(self):
        source = (
            "class Engine:\n"
            "    def nest(self):\n"
            "        with self._lock:\n"
            "            with self._lock:\n"
            "                pass\n"
        )
        assert [f for f in _flow(source) if f.rule == "REP010"] == []


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
            (ENGINE_PATH, RACY_ALIAS + ABBA[len("class Engine:\n") :]),
            ("src/repro/core/fixture.py", HOT_ALLOC),
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
        findings = _flow(RACY_ALIAS)
        baseline_path = tmp_path / "baseline.json"
        write_document(baseline_path, baseline_document(findings))
        # Same finding, shifted two lines down: still baselined because
        # the key is (path, rule, symbol), not the line number.
        shifted = _flow("\n\n" + RACY_ALIAS)
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
            "un-baselined REP009-REP012 findings on src/ — fix them or "
            "run: repro analyze src/ --baseline "
            "benchmarks/baselines/analyze.json --update-baseline"
        )

    def test_library_tree_lint_clean(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert lint_paths(["src/repro"]) == []


# ----------------------------------------------------------------------
# CLI: repro analyze + chaos exit codes
# ----------------------------------------------------------------------


class TestAnalyzeCli:
    def _racy_tree(self, tmp_path) -> Path:
        root = tmp_path / "src" / "repro" / "engine"
        root.mkdir(parents=True)
        (root / "racy.py").write_text('__all__ = []\n' + RACY_ALIAS)
        return tmp_path / "src"

    def test_findings_exit_one(self, tmp_path, capsys):
        tree = self._racy_tree(tmp_path)
        assert cli_main(["analyze", str(tree)]) == 1
        out = capsys.readouterr().out
        assert "REP009" in out

    def test_clean_after_update_baseline(self, tmp_path):
        tree = self._racy_tree(tmp_path)
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
        tree = self._racy_tree(tmp_path)
        report = tmp_path / "findings.json"
        assert cli_main(["analyze", str(tree), "--json", str(report)]) == 1
        document = json.loads(report.read_text())
        assert document["schema_version"] == 1
        assert document["experiment"] == "flow_analysis"
        assert [row["rule"] for row in document["rows"]] == ["REP009"]

    def test_step_summary_written_in_ci(self, tmp_path, monkeypatch):
        tree = self._racy_tree(tmp_path)
        summary = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        cli_main(["analyze", str(tree)])
        text = summary.read_text()
        assert "repro analyze" in text
        assert "REP009" in text

    def test_markdown_table_escapes_pipes(self):
        finding = FlowFinding("a.py", 1, "REP009", "f", "a | b")
        assert "a \\| b" in render_markdown_table([finding])


class TestChaosExitCodes:
    def test_sanitizer_violations_dominate(self):
        assert _chaos_exit_code(0, 0) == 0
        assert _chaos_exit_code(3, 0) == 1
        assert _chaos_exit_code(0, 2) == 2
        assert _chaos_exit_code(3, 2) == 2
