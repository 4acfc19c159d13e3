"""Lint engine: file loading, module naming, rule dispatch, suppression.

The engine is deliberately filesystem-light: :func:`lint_sources` accepts
in-memory ``(path, source)`` pairs so tests can lint snippets without
touching disk, and :func:`lint_paths` is a thin walk-and-read wrapper over
it.  Module names are derived from the path (everything from the last
``repro`` path component down), overridable with a ``# wp-lint:
module=...`` directive for fixtures that live outside ``src/``.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Sequence

from repro.lint.diagnostics import Diagnostic
from repro.lint.pragmas import (
    expand_pragmas,
    is_suppressed,
    module_override,
    scan_pragmas,
    statement_spans,
)
from repro.lint.registry import get_rules

#: Engine-level code for files the parser rejects (not a registry rule: a
#: file that does not parse cannot be checked against any invariant).
PARSE_ERROR_CODE = "WP100"

_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules"}


@dataclass
class ModuleInfo:
    """One parsed source file plus the metadata rules need."""

    path: str
    module: str
    tree: ast.Module
    lines: list[str]
    pragmas: dict[int, frozenset[str]]


@dataclass
class Program:
    """The whole analyzed file set (input to program-scoped rules)."""

    modules: list[ModuleInfo] = field(default_factory=list)

    def by_path(self, path: str) -> ModuleInfo | None:
        for info in self.modules:
            if info.path == path:
                return info
        return None


@dataclass
class LintResult:
    """Findings plus the bookkeeping the CLI reports."""

    findings: list[Diagnostic]
    suppressed: int
    checked_files: int


def derive_module_name(path: str) -> str:
    """Dotted module name from a file path (``src/repro/a/b.py`` → ``repro.a.b``)."""
    parts = list(os.path.normpath(path).split(os.sep))
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts.pop()
    if "repro" in parts:
        # Last occurrence: a checkout under /home/x/repro/src/repro/... must
        # resolve to the package, not the checkout directory.
        start = len(parts) - 1 - parts[::-1].index("repro")
        parts = parts[start:]
        return ".".join(parts)
    return parts[-1] if parts else "<unknown>"


def load_source(path: str, source: str, module: str | None = None) -> ModuleInfo:
    """Parse ``source``; raises ``SyntaxError`` for unparseable files."""
    tree = ast.parse(source, filename=path)
    lines = source.splitlines()
    name = module or module_override(lines) or derive_module_name(path)
    return ModuleInfo(
        path=path,
        module=name,
        tree=tree,
        lines=lines,
        pragmas=expand_pragmas(scan_pragmas(lines), statement_spans(tree)),
    )


def collect_files(paths: Sequence[str]) -> list[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in _SKIP_DIRS and not d.startswith(".")
                )
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        found.append(os.path.join(root, filename))
        elif os.path.isfile(path):
            found.append(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {path!r}")
    return found


def lint_program(program: Program, parse_errors: Sequence[Diagnostic] = ()) -> LintResult:
    """Run every registered rule, then apply per-line pragma suppression."""
    raw = list(parse_errors)
    for rule in get_rules():
        if rule.scope == "file":
            for info in program.modules:
                raw.extend(rule.check(info))
        else:
            raw.extend(rule.check(program))
    pragma_index = {info.path: info.pragmas for info in program.modules}
    findings: list[Diagnostic] = []
    suppressed = 0
    for diag in sorted(set(raw)):
        if is_suppressed(diag.code, diag.line, pragma_index.get(diag.path, {})):
            suppressed += 1
        else:
            findings.append(diag)
    return LintResult(
        findings=findings,
        suppressed=suppressed,
        checked_files=len(program.modules) + len(parse_errors),
    )


def _parse_error(path: str, line: int, offset: int, msg: str) -> Diagnostic:
    return Diagnostic(
        path=path,
        line=line,
        col=offset - 1,
        code=PARSE_ERROR_CODE,
        message=f"file does not parse: {msg}",
    )


def lint_sources(
    entries: Sequence[tuple[str, str | bytes] | tuple[str, str | bytes, str]],
) -> LintResult:
    """Lint in-memory sources: ``(path, source)`` or ``(path, source, module)``.

    A ``bytes`` source is decoded as UTF-8; one that does not decode is a
    parse error, like one that does not parse.
    """
    program = Program()
    parse_errors: list[Diagnostic] = []
    for entry in entries:
        path, source = entry[0], entry[1]
        module = entry[2] if len(entry) == 3 else None
        try:
            if isinstance(source, bytes):
                source = source.decode("utf-8")
            program.modules.append(load_source(path, source, module))
        except SyntaxError as exc:
            parse_errors.append(_parse_error(path, exc.lineno or 1, exc.offset or 1, exc.msg))
        except UnicodeDecodeError:
            parse_errors.append(_parse_error(path, 1, 1, "file is not valid UTF-8"))
    return lint_program(program, parse_errors)


def lint_paths(paths: Sequence[str]) -> LintResult:
    """Lint files/directories from disk (the CLI's one run path)."""
    entries = []
    for path in collect_files(paths):
        with open(path, "rb") as fh:
            entries.append((path, fh.read()))
    return lint_sources(entries)
