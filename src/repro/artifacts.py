"""One schema for every JSON artifact the CLI writes.

``repro chaos --json`` upserts soak rows into one, ``repro analyze``
writes its findings and its committed baseline
(``benchmarks/baselines/analyze.json``) as others.  This module is the
single definition of the document shape they share::

    {
      "schema_version": 1,
      "experiment": "<name>",
      "rows": [ {...}, ... ]
    }

``schema_version`` lets a downstream consumer (CI assertions, plotting
scripts, the next PR) detect layout changes instead of mis-parsing;
pre-versioned documents load fine and are stamped on the next write.
"""

from __future__ import annotations

import json
from pathlib import Path

from .exceptions import ConfigurationError

__all__ = [
    "SCHEMA_VERSION",
    "make_document",
    "load_document",
    "write_document",
    "upsert_row",
]

#: Current artifact layout version.  Bump when the document shape (not
#: the per-experiment row fields) changes incompatibly.
SCHEMA_VERSION = 1


def make_document(experiment: str, rows: list | None = None, **extra) -> dict:
    """A fresh artifact document for ``experiment``.

    ``extra`` key/values land at the top level next to ``rows`` — use it
    for experiment-wide context (workload shape, assertion outcomes).
    """
    if not experiment:
        raise ConfigurationError("artifact experiment name must be non-empty")
    document = {
        "schema_version": SCHEMA_VERSION,
        "experiment": experiment,
        "rows": list(rows) if rows is not None else [],
    }
    document.update(extra)
    return document


def load_document(path: str | Path, experiment: str) -> dict:
    """Load an artifact, tolerating absent, corrupt, or legacy files.

    Anything unreadable or shapeless degrades to a fresh empty document
    (a CLI upsert must never crash on a hand-edited file); a legacy
    document without ``schema_version`` is accepted as-is and stamped by
    the next :func:`write_document`.
    """
    path = Path(path)
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
        except (ValueError, OSError):
            loaded = None
        if isinstance(loaded, dict) and isinstance(loaded.get("rows"), list):
            loaded.setdefault("experiment", experiment)
            return loaded
    return make_document(experiment)


def write_document(path: str | Path, document: dict) -> Path:
    """Validate, stamp the current schema version, and write ``document``."""
    if not isinstance(document, dict) or not isinstance(
        document.get("rows"), list
    ):
        raise ConfigurationError(
            "artifact document must be a dict with a list under 'rows'"
        )
    if not document.get("experiment"):
        raise ConfigurationError("artifact document must name its experiment")
    document["schema_version"] = SCHEMA_VERSION
    path = Path(path)
    path.write_text(json.dumps(document, indent=2) + "\n")
    return path


def upsert_row(document: dict, row: dict, key_fields: tuple[str, ...]) -> dict:
    """Replace-or-append ``row`` keyed by its ``key_fields`` values.

    Rows agreeing with ``row`` on every key field are dropped before the
    append, so repeated runs refresh a configuration's row instead of
    duplicating it.  Returns ``document`` for chaining.
    """
    key = tuple(row[field] for field in key_fields)
    document["rows"] = [
        existing
        for existing in document["rows"]
        if tuple(existing.get(field) for field in key_fields) != key
    ] + [row]
    return document
