"""The documents only name files and subcommands that exist.

Every back-ticked repository path and every ``python -m repro <sub>``
in the top-level documents and ``docs/*.md`` must resolve — a deleted
bench module, artifact or subcommand that a document still cites fails
here instead of misleading a reader.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.cli import build_parser

REPO_ROOT = Path(__file__).resolve().parents[1]

DOCUMENTS = sorted(
    [REPO_ROOT / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
    + list((REPO_ROOT / "docs").glob("*.md"))
)

_PATH = re.compile(
    r"`((?:src|tests|benchmarks|docs|\.github)/[^`\s]*|BENCH[^`\s/]*\.json)`"
)
_COMMAND = re.compile(r"python -m repro\s+([a-z][a-z0-9-]*)")


@pytest.mark.parametrize(
    "document", DOCUMENTS, ids=lambda path: str(path.relative_to(REPO_ROOT))
)
def test_document_references_resolve(document):
    text = document.read_text()
    (subparsers,) = build_parser()._subparsers._group_actions
    missing = [
        f"python -m repro {name}"
        for name in _COMMAND.findall(text)
        if name not in subparsers.choices
    ]
    for reference in _PATH.findall(text):
        path = reference.split("::")[0]  # a pytest node id names its file
        found = (
            any(REPO_ROOT.glob(path))
            if "*" in path
            else (REPO_ROOT / path).exists()
        )
        if not found:
            missing.append(reference)
    assert missing == []
