#!/usr/bin/env python3
"""Docs check: the code in README.md and docs/ARCHITECTURE.md must run.

Two kinds of fenced code blocks are verified:

* ``python`` blocks are executed for real (they are written against the
  ``smoke`` preset, so the whole check stays fast).  A failure means
  the documented API drifted from the implementation.
* ``console`` blocks: every ``$ python -m repro ...`` line is passed
  through the real CLI argument parser (without executing the command),
  so documented flags that no longer exist fail the check.

It also fails on a ``NAME.md`` reference in ``src/``, ``benchmarks/``,
``examples/``, ``tests/``, README.md, docs/ARCHITECTURE.md or
EXPERIMENTS.md that names no file in the repo, and on a dotted ``repro.…`` name there that resolves to no
module or attribute (a dataclass field counts as an attribute; a format
tag such as ``repro.churn-trace/v1`` is not a name).

Usage::

    PYTHONPATH=src python scripts/check_docs.py
"""

from __future__ import annotations

import importlib
import re
import shlex
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOCS = [REPO / "README.md", REPO / "docs" / "ARCHITECTURE.md"]

FENCE = re.compile(r"^```(\w*)\s*$")

#: Files whose ``NAME.md`` references must resolve.
REFERRERS = ("README.md", "docs/ARCHITECTURE.md", "EXPERIMENTS.md",
             "src/**/*.py", "benchmarks/**/*.py", "examples/**/*.py",
             "tests/**/*.py")
MD_REFERENCE = re.compile(r"(?<![\w./-])((?:[\w.-]+/)*[A-Z][A-Z0-9_-]*\.md)\b")
#: A dotted name in the package; the lookarounds skip paths and tags.
DOTTED_NAME = re.compile(r"(?<![\w./-])repro(?:\.[A-Za-z_]\w*)+(?![\w/-])")


def extract_blocks(path: Path):
    """Yield ``(language, first_line_no, source)`` for fenced blocks."""
    language = None
    start = 0
    lines: list = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        match = FENCE.match(line)
        if match and language is None:
            language = match.group(1) or "text"
            start = lineno + 1
            lines = []
        elif line.strip() == "```" and language is not None:
            yield language, start, "\n".join(lines)
            language = None
        elif language is not None:
            lines.append(line)


def run_python_block(label: str, source: str) -> None:
    print(f"  exec {label}")
    namespace: dict = {"__name__": "__docs__"}
    exec(compile(source, label, "exec"), namespace)  # noqa: S102


def parse_console_block(label: str, source: str) -> None:
    from repro.cli import build_parser

    parser = build_parser()
    for line in source.splitlines():
        line = line.strip()
        if not line.startswith("$ python -m repro "):
            continue
        argv = shlex.split(line[len("$ python -m repro ") :], comments=True)
        print(f"  parse {label}: repro {' '.join(argv)}")
        parser.parse_args(argv)  # SystemExit on unknown flags


def missing_doc_references():
    """Yield ``(location, reference)`` for each ``NAME.md`` reference
    that matches no markdown file's repo path or path suffix."""
    present = [
        path.relative_to(REPO).as_posix()
        for path in REPO.rglob("*.md")
        if ".git" not in path.parts
    ]
    for pattern in REFERRERS:
        for path in sorted(REPO.glob(pattern)):
            lines = path.read_text().splitlines()
            for lineno, line in enumerate(lines, 1):
                for ref in MD_REFERENCE.findall(line):
                    if not any(p == ref or p.endswith("/" + ref) for p in present):
                        yield f"{path.relative_to(REPO)}:{lineno}", ref


def resolves(name: str) -> bool:
    """Whether ``name`` is a module, or a chain of attributes (dataclass
    fields included) off the longest importable module prefix."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            if hasattr(target, attr):
                target = getattr(target, attr)
            elif attr in getattr(target, "__dataclass_fields__", ()):
                target = None
            else:
                return False
        return True
    return False


def unresolved_names():
    """Yield ``(location, name)`` for each dotted ``repro.…`` name in
    the referrers that resolves to nothing."""
    for pattern in REFERRERS:
        for path in sorted(REPO.glob(pattern)):
            lines = path.read_text().splitlines()
            for lineno, line in enumerate(lines, 1):
                for name in DOTTED_NAME.findall(line):
                    if not resolves(name):
                        yield f"{path.relative_to(REPO)}:{lineno}", name


def main() -> int:
    failures = 0
    for location, ref in missing_doc_references():
        print(f"FAIL {location}: {ref} names no file in the repo")
        failures += 1
    for location, name in unresolved_names():
        print(f"FAIL {location}: {name} resolves to no module or attribute")
        failures += 1
    for doc in DOCS:
        print(f"== {doc.relative_to(REPO)} ==")
        for language, lineno, source in extract_blocks(doc):
            label = f"{doc.name}:{lineno}"
            try:
                if language == "python":
                    run_python_block(label, source)
                elif language == "console":
                    parse_console_block(label, source)
            except SystemExit as error:
                print(f"FAIL {label}: CLI rejected documented command "
                      f"({error})")
                failures += 1
            except Exception as error:  # noqa: BLE001
                print(f"FAIL {label}: {type(error).__name__}: {error}")
                failures += 1
    if failures:
        print(f"docs check FAILED ({failures} finding(s))")
        return 1
    print("docs check OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
