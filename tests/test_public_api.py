"""API-surface stability: the documented entry points exist and import."""

from __future__ import annotations

import importlib

import pytest


def test_top_level_exports():
    import repro

    for name in repro.__all__:
        assert hasattr(repro, name), name
    assert repro.__version__


@pytest.mark.parametrize(
    "module,names",
    [
        ("repro.core", ["BcTree", "DynamicDataCube", "BasicDynamicDataCube", "GrowableCube"]),
        ("repro.core.keyed_bc_tree", ["KeyedBcTree"]),
        (
            "repro.methods",
            [
                "RangeSumMethod",
                "NaiveArray",
                "PrefixSumCube",
                "RelativePrefixSumCube",
                "FenwickCube",
                "SegmentTreeCube",
                "create_method",
                "build_method",
            ],
        ),
        (
            "repro.olap",
            [
                "CubeSchema",
                "DataCube",
                "IntegerDimension",
                "CategoricalDimension",
                "BinnedDimension",
                "DateDimension",
                "HierarchyDimension",
                "BivariateCube",
            ],
        ),
        (
            "repro.model",
            ["table1", "table2", "figure1_series", "update_cost", "classify_growth"],
        ),
        (
            "repro.storage",
            ["BufferPool", "attach_pool", "PageFile", "DiskBcTree", "DiskDynamicDataCube"],
        ),
        ("repro.persist", ["save_cube", "load_cube", "PersistError"]),
        ("repro.olap_persist", ["save_datacube", "load_datacube"]),
        ("repro.convert", ["convert", "rebuild"]),
        ("repro.advisor", ["WorkloadProfile", "recommend"]),
        ("repro.workloads", ["dense_uniform", "clustered", "growth_stream", "random_ranges", "straddling_ranges"]),
        (
            "repro.engine",
            [
                "ShardedEngine",
                "ShardPlan",
                "SerialExecutor",
                "ResiliencePolicy",
                "CircuitBreaker",
                "FaultInjector",
                "FaultScript",
                "PartialResult",
                "is_partial",
            ],
        ),
        (
            "repro.obs",
            [
                "Observability",
                "NULL_OBS",
                "MetricsRegistry",
                "Tracer",
                "SlowQueryLog",
                "ManualClock",
                "render_span_tree",
                "sorted_by_duration",
            ],
        ),
        (
            "repro.serve",
            [
                "AdmissionPolicy",
                "ConcurrencyGate",
                "CubeServer",
                "QueryRequest",
                "ServeClient",
                "ServeResponse",
                "SingleFlight",
                "TenantBuckets",
                "TokenBucket",
                "UpdateRequest",
                "available_codecs",
                "codec_for",
                "default_codec",
            ],
        ),
        ("repro.artifacts", ["make_document", "load_document", "write_document", "upsert_row"]),
        ("repro.cli", ["main", "build_parser"]),
    ],
)
def test_documented_module_surface(module, names):
    imported = importlib.import_module(module)
    for name in names:
        assert hasattr(imported, name), f"{module}.{name}"


def test_all_lists_are_importable():
    for module in ("repro", "repro.core", "repro.methods", "repro.olap", "repro.storage", "repro.model", "repro.workloads", "repro.obs", "repro.artifacts", "repro.engine", "repro.serve"):
        imported = importlib.import_module(module)
        exported = getattr(imported, "__all__", [])
        for name in exported:
            assert hasattr(imported, name), f"{module}.{name} in __all__ but missing"
