"""Tests for the correctness tooling: auditor, sanitizer, and linter.

The corruption tests are the auditor's own acceptance suite: each one
breaks a specific cached quantity by hand (an STS value, an overlay box
value, a free-list link) and requires :func:`repro.analysis.audit` to
raise a :class:`~repro.exceptions.StructureError` whose message carries
a path to the offending node.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import AuditError, audit, sanitize
from repro.analysis.lint import lint_source
from repro.cli import main as cli_main
from repro.core.bc_tree import BcTree
from repro.core.ddc import DynamicDataCube
from repro.core.growth import GrowableCube
from repro.core.keyed_bc_tree import KeyedBcTree
from repro.core.overlay import ArrayOverlay, TreeOverlay
from repro.counters import OpCounter
from repro.exceptions import StructureError
from repro.storage.buffer import BufferPool
from repro.storage.disk_bc_tree import DiskBcTree
from repro.storage.disk_ddc import DiskDynamicDataCube
from repro.storage.pagefile import PageFile


def _sample_bc_tree(count: int = 64, fanout: int = 4) -> BcTree:
    return BcTree.from_values(range(count), fanout=fanout)


def _sample_ddc(side: int = 8, seed: int = 7) -> DynamicDataCube:
    rng = np.random.default_rng(seed)
    return DynamicDataCube.from_array(rng.integers(-5, 6, size=(side, side)))


class TestAuditClean:
    """A healthy structure of every kind passes its audit."""

    def test_bc_tree(self):
        report = audit(_sample_bc_tree())
        assert report.ok and report.checks > 10

    def test_keyed_bc_tree(self):
        tree = KeyedBcTree.from_items([(k, k * 2) for k in range(0, 90, 3)])
        assert audit(tree).ok

    def test_ddc(self):
        assert audit(_sample_ddc()).ok

    def test_array_overlay(self):
        region = np.arange(16).reshape(4, 4)
        assert audit(ArrayOverlay.from_dense(region, OpCounter())).ok

    def test_tree_overlay(self):
        region = np.arange(16).reshape(4, 4)
        assert audit(TreeOverlay.from_dense(region, OpCounter())).ok

    def test_growable_cube(self):
        cube = GrowableCube(dims=2, initial_side=4)
        for point in [(-9, 14), (3, -2), (40, 40)]:
            cube.add(point, 5)
        assert audit(cube).ok

    def test_pagefile(self, tmp_path):
        with PageFile(tmp_path / "clean.pg", page_size=128) as pages:
            ids = [pages.allocate() for _ in range(5)]
            pages.free(ids[1])
            pages.free(ids[3])
            assert audit(pages).ok

    def test_buffer_pool(self):
        pool = BufferPool(capacity=3, objects_per_page=2)
        for obj in [object() for _ in range(9)]:
            pool.access(obj)
        assert audit(pool).ok

    def test_disk_bc_tree(self, tmp_path):
        with PageFile(tmp_path / "tree.pg", page_size=512) as pages:
            tree = DiskBcTree(pages)
            for key in range(60):
                tree.add(key, key)
            assert audit(tree).ok

    def test_disk_ddc(self, tmp_path):
        with PageFile(tmp_path / "cube.pg", page_size=4096) as pages:
            cube = DiskDynamicDataCube((8, 8), pages=pages)
            rng = np.random.default_rng(3)
            for _ in range(50):
                cell = tuple(int(rng.integers(0, 8)) for _ in range(2))
                cube.add(cell, int(rng.integers(1, 9)))
            assert audit(cube).ok

    def test_fallback_uses_validate(self):
        class SelfChecking:
            def validate(self):
                raise StructureError("deliberately broken")

        with pytest.raises(StructureError, match="deliberately broken"):
            audit(SelfChecking())

    def test_fallback_without_validate_fails(self):
        report = audit(object(), raise_on_failure=False)
        assert not report.ok


class TestAuditCorruption:
    """Hand-planted corruption must be found and located by path."""

    def test_corrupt_bc_tree_sts(self):
        tree = _sample_bc_tree()
        tree._root.sums[1] += 7
        with pytest.raises(StructureError, match=r"sums\[1\]"):
            audit(tree)

    def test_corrupt_bc_tree_count(self):
        tree = _sample_bc_tree()
        tree._root.counts[0] -= 1
        with pytest.raises(StructureError, match=r"counts\[0\]"):
            audit(tree)

    def test_corrupt_keyed_tree_max_key(self):
        tree = KeyedBcTree.from_items([(k, 1) for k in range(40)])
        tree._root.max_keys[0] += 100
        with pytest.raises(StructureError, match=r"max_keys\[0\]"):
            audit(tree)

    def test_corrupt_overlay_subtotal(self):
        cube = _sample_ddc()
        overlay = next(o for o in cube._root.overlays if o is not None)
        overlay._subtotal += 3
        with pytest.raises(StructureError, match=r"root/box\[\d+\]"):
            audit(cube)

    def test_corrupt_overlay_group_corner(self):
        region = np.arange(1, 17).reshape(4, 4)
        overlay = ArrayOverlay.from_dense(region, OpCounter())
        overlay._groups[0][-1] += 1  # cumulative corner must equal subtotal
        report = audit(overlay, raise_on_failure=False)
        assert not report.ok
        assert any("group[0]" in finding.path for finding in report.findings)

    def test_corrupt_overlay_group_row_inside_cube(self):
        cube = _sample_ddc()
        overlay = next(o for o in cube._root.overlays if o is not None)
        # Shift mass between rows: the group total (and so the subtotal
        # check) is unchanged, but intermediate row-sum values now drift
        # from the covered cells — only the cube-level audit, which has
        # the dense mirror, can see it.
        group = overlay._groups[0]
        group.add(0, 1)
        group.add(overlay.side - 1, -1)
        with pytest.raises(StructureError, match=r"group\[0\]/row\[\d+\]"):
            audit(cube)

    def test_corrupt_tree_overlay_secondary(self):
        region = np.arange(1, 17).reshape(4, 4)
        overlay = TreeOverlay.from_dense(region, OpCounter())
        overlay._groups[0].add(0, 5)  # group drifts from the subtotal
        with pytest.raises(StructureError, match=r"group\[0\]"):
            audit(overlay)

    def test_corrupt_growable_bounds(self):
        cube = GrowableCube(dims=2, initial_side=4)
        cube.add((1, 1), 3)
        cube._high_bounds[0] = cube._origin[0] + cube.side + 5
        with pytest.raises(StructureError, match=r"bounds\[0\]"):
            audit(cube)

    def test_corrupt_pagefile_free_list(self, tmp_path):
        with PageFile(tmp_path / "broken.pg", page_size=128) as pages:
            ids = [pages.allocate() for _ in range(4)]
            pages.free(ids[0])
            pages.free(ids[2])
            # Point the head's on-disk link beyond the allocated pages.
            import struct

            pages._write_raw(ids[2], struct.pack("<Q", 999))
            with pytest.raises(StructureError, match=r"free\[1\]"):
                audit(pages)

    def test_corrupt_pagefile_free_cycle(self, tmp_path):
        with PageFile(tmp_path / "cycle.pg", page_size=128) as pages:
            ids = [pages.allocate() for _ in range(3)]
            pages.free(ids[0])
            pages.free(ids[1])
            import struct

            pages._write_raw(ids[0], struct.pack("<Q", ids[1]))
            with pytest.raises(StructureError, match="cycle"):
                audit(pages)

    def test_corrupt_buffer_pool_stats(self):
        pool = BufferPool(capacity=2)
        pool.access(object())
        pool.stats.hits += 1
        with pytest.raises(StructureError, match="accesses"):
            audit(pool)

    def test_corrupt_disk_ddc_subtotal(self, tmp_path):
        with PageFile(tmp_path / "cube.pg", page_size=4096) as pages:
            cube = DiskDynamicDataCube((4, 4), pages=pages)
            for cell in [(0, 0), (1, 3), (3, 2)]:
                cube.add(cell, 4)
            cube.flush()
            node, _ = cube._node_cache[cube._root_page]
            mask = next(
                m for m, page in enumerate(node.children) if page != 2**64 - 1
            )
            node.subtotals[mask] += 9
            cube._node_cache[cube._root_page] = (node, True)
            with pytest.raises(StructureError, match=r"box\[\d+\]"):
                audit(cube)

    def test_report_inspection_without_raise(self):
        tree = _sample_bc_tree()
        tree._root.sums[0] += 1
        report = audit(tree, raise_on_failure=False)
        assert not report.ok
        assert "FAIL" in report.render()


class TestSanitize:
    def test_mutations_trigger_audits(self):
        tree = sanitize(BcTree(fanout=4))
        for value in range(10):
            tree.append(value)
        assert tree.audits == 10
        assert tree.to_list() == list(range(10))

    def test_wrapped_escape_hatch(self):
        tree = sanitize(BcTree(fanout=4))
        assert isinstance(tree.wrapped, BcTree)

    def test_corruption_detected_on_next_mutation(self):
        tree = sanitize(BcTree.from_values(range(32), fanout=4))
        tree.wrapped._root.sums[0] += 2
        with pytest.raises(AuditError):
            tree.append(1)

    def test_pre_corrupted_structure_rejected_up_front(self):
        tree = BcTree.from_values(range(32), fanout=4)
        tree._root.sums[0] += 2
        with pytest.raises(AuditError):
            sanitize(tree)


class TestLintRules:
    """Positive and negative fixtures for every REP rule."""

    def _findings(self, source: str):
        return lint_source(source, "fixture.py")

    def _rules(self, source: str) -> set[str]:
        return {finding.rule for finding in self._findings(source)}

    def test_rep001_raw_exception_flagged(self):
        source = '__all__ = []\ndef f():\n    raise ValueError("bad")\n'
        assert "REP001" in self._rules(source)

    def test_rep001_hierarchy_exception_passes(self):
        source = (
            "__all__ = []\n"
            "from repro.exceptions import ConfigurationError\n"
            "def f():\n"
            '    raise ConfigurationError("bad")\n'
        )
        assert self._findings(source) == []

    def test_rep001_re_raise_name_flagged(self):
        source = "__all__ = []\ndef f():\n    raise KeyError\n"
        assert "REP001" in self._rules(source)

    def test_rep002_uncharged_cell_access_flagged(self):
        source = (
            "__all__ = []\n"
            "class Tree:\n"
            "    def __init__(self):\n"
            "        self.stats = object()\n"
            "    def get(self, index):\n"
            "        return self._cells[index]\n"
        )
        assert "REP002" in self._rules(source)

    def test_rep002_direct_charge_passes(self):
        source = (
            "__all__ = []\n"
            "class Tree:\n"
            "    def get(self, index):\n"
            "        self.stats.cell_reads += 1\n"
            "        return self._cells[index]\n"
        )
        assert self._findings(source) == []

    def test_rep002_delegated_charge_passes(self):
        source = (
            "__all__ = []\n"
            "class Tree:\n"
            "    def _charge(self):\n"
            "        self.stats.cell_reads += 1\n"
            "    def get(self, index):\n"
            "        self._charge()\n"
            "        return self._cells[index]\n"
        )
        assert self._findings(source) == []

    def test_rep003_mutable_default_flagged(self):
        source = "__all__ = []\ndef f(items=[]):\n    return items\n"
        assert "REP003" in self._rules(source)

    def test_rep003_none_default_passes(self):
        source = "__all__ = []\ndef f(items=None):\n    return items or []\n"
        assert self._findings(source) == []

    def test_rep004_bare_assert_flagged(self):
        source = "__all__ = []\ndef f(x):\n    assert x > 0\n"
        assert "REP004" in self._rules(source)

    def test_rep005_missing_all_flagged(self):
        assert "REP005" in self._rules("def f():\n    return 1\n")

    def test_rep005_private_module_exempt(self):
        findings = lint_source("def f():\n    return 1\n", "_private.py")
        assert findings == []

    def test_noqa_suppresses_one_rule(self):
        source = (
            "__all__ = []\n"
            "def f():\n"
            '    raise ValueError("bad")  # noqa: REP001\n'
        )
        assert self._findings(source) == []

    def test_noqa_other_rule_does_not_suppress(self):
        source = (
            "__all__ = []\n"
            "def f():\n"
            '    raise ValueError("bad")  # noqa: REP004\n'
        )
        assert "REP001" in self._rules(source)

    def test_rep008_direct_clock_call_flagged_in_hot_paths(self):
        source = (
            "__all__ = []\n"
            "import time\n"
            "def f():\n"
            "    return time.perf_counter()\n"
        )
        for module_path in (
            "src/repro/core/ddc.py",
            "src/repro/methods/base.py",
            "src/repro/engine/engine.py",
        ):
            findings = lint_source(source, module_path)
            assert "REP008" in {f.rule for f in findings}, module_path

    def test_rep008_covers_from_imports_and_variants(self):
        source = (
            "__all__ = []\n"
            "from time import monotonic, perf_counter_ns\n"
            "def f():\n"
            "    return monotonic() + perf_counter_ns()\n"
        )
        findings = lint_source(source, "src/repro/core/ddc.py")
        assert [f.rule for f in findings] == ["REP008", "REP008"]

    def test_rep008_flags_real_sleep_in_hot_paths(self):
        # Real sleeps in the fan-out would make virtual-time tests
        # wall-clock slow and nondeterministic; sleep on the injected clock.
        source = (
            "__all__ = []\n"
            "import time\n"
            "def backoff():\n"
            "    time.sleep(0.01)\n"
        )
        findings = lint_source(source, "src/repro/engine/engine.py")
        assert "REP008" in {f.rule for f in findings}

    def test_rep008_flags_a_private_clock_in_hot_paths(self):
        # A clock built inside a kernel module is a direct clock read in
        # disguise: it is how a wall-clock decision hid from REP008.
        source = (
            "__all__ = []\n"
            "from ..obs.clock import MonotonicClock\n"
            "from repro.obs import clock\n"
            "_CLOCK = MonotonicClock()\n"
            "def f():\n"
            "    return clock.ManualClock()\n"
        )
        findings = lint_source(source, "src/repro/methods/crossover.py")
        assert [(f.line, f.rule) for f in findings] == [(4, "REP008"), (6, "REP008")]
        assert lint_source(source, "src/repro/serve/server.py") == []

    def test_rep008_allows_clock_calls_outside_hot_paths(self):
        source = (
            "__all__ = []\n"
            "import time\n"
            "def now():\n"
            "    return time.perf_counter()\n"
        )
        for module_path in ("src/repro/obs/clock.py", "src/repro/cli.py"):
            assert lint_source(source, module_path) == []

    def test_rep008_allows_injected_clock_in_hot_paths(self):
        source = (
            "__all__ = []\n"
            "class Engine:\n"
            "    def serve(self):\n"
            "        with self._lock:\n"
            "            return self.obs.clock.now()\n"
        )
        assert lint_source(source, "src/repro/engine/engine.py") == []

    def test_rep008_noqa_suppression(self):
        source = (
            "__all__ = []\n"
            "import time\n"
            "def f():\n"
            "    return time.monotonic()  # noqa: REP008\n"
        )
        assert lint_source(source, "src/repro/core/ddc.py") == []

    def test_syntax_error_reported(self):
        assert self._rules("def f(:\n") == {"REP000"}

    def test_library_tree_is_clean(self):
        from repro.analysis.lint import lint_paths

        assert lint_paths(["src/repro"]) == []


class TestAuditCli:
    def test_cli_audit_healthy_cube(self, tmp_path, capsys):
        from repro.persist import save_cube

        save_cube(_sample_ddc(), tmp_path / "cube.npz")
        assert cli_main(["audit", str(tmp_path / "cube.npz")]) == 0
        assert "all invariants hold" in capsys.readouterr().out
