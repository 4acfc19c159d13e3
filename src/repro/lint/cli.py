"""Command-line entry point: ``python -m repro.lint [paths] --format text|json|sarif``.

Exit codes: 0 — clean (every finding baselined, exempted, or suppressed);
1 — at least one new finding; 2 — usage or I/O error.

Defaults (paths, baseline location, per-path rule exemptions) are set once
in ``pyproject.toml`` so CI, pre-commit hooks, and developers all run the
same invocation::

    [tool.wp-lint]
    paths = ["src", "benchmarks", "examples"]
    baseline = "lint-baseline.json"

    [tool.wp-lint.exempt]
    # path prefix -> rule codes that do not apply under it
    "benchmarks/bench_crypto_ops.py" = ["WP103"]

Every run parses and checks the whole file set through
:func:`repro.lint.engine.lint_paths`; there is no result cache, so a
finding always reflects the rules and the sources as they are now.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Sequence

from repro.lint.baseline import (
    BaselineError,
    load_baseline,
    split_baselined,
    write_baseline,
)
from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import lint_paths
from repro.lint.registry import get_rules
from repro.lint.sarif import to_sarif

try:  # pragma: no cover - tomllib ships with 3.11+
    import tomllib
except ImportError:  # pragma: no cover
    tomllib = None  # type: ignore[assignment]

DEFAULT_BASELINE = "lint-baseline.json"


def _load_config(start_dir: str) -> dict[str, Any]:
    """``[tool.wp-lint]`` from the nearest pyproject.toml at/above start_dir."""
    if tomllib is None:
        return {}
    current = os.path.abspath(start_dir)
    while True:
        candidate = os.path.join(current, "pyproject.toml")
        if os.path.isfile(candidate):
            try:
                with open(candidate, "rb") as fh:
                    data = tomllib.load(fh)
            except (OSError, tomllib.TOMLDecodeError):
                return {}
            section = data.get("tool", {}).get("wp-lint", {})
            return section if isinstance(section, dict) else {}
        parent = os.path.dirname(current)
        if parent == current:
            return {}
        current = parent


def _exemption_map(config: dict[str, Any]) -> dict[str, frozenset[str]]:
    """Normalized ``[tool.wp-lint.exempt]``: path prefix -> exempt codes."""
    raw = config.get("exempt", {})
    if not isinstance(raw, dict):
        return {}
    exempt: dict[str, frozenset[str]] = {}
    for prefix, codes in raw.items():
        if isinstance(prefix, str) and isinstance(codes, (list, tuple)):
            normal = os.path.normpath(prefix).replace(os.sep, "/")
            exempt[normal] = frozenset(str(code) for code in codes)
    return exempt


def split_exempt(
    findings: Sequence[Diagnostic], exempt: dict[str, frozenset[str]]
) -> tuple[list[Diagnostic], list[Diagnostic]]:
    """Partition findings into (kept, exempted) by the per-path map."""
    if not exempt:
        return list(findings), []
    kept: list[Diagnostic] = []
    dropped: list[Diagnostic] = []
    for diag in findings:
        path = os.path.normpath(diag.path).replace(os.sep, "/")
        hit = any(
            diag.code in codes
            and (path == prefix or path.startswith(prefix.rstrip("/") + "/"))
            for prefix, codes in exempt.items()
        )
        (dropped if hit else kept).append(diag)
    return kept, dropped


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="WhoPay invariant checker (rules WP101-WP113).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: [tool.wp-lint] paths, else src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        help=f"baseline file (default: [tool.wp-lint] baseline, else {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file; every finding counts",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write all current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        for rule in get_rules():
            print(f"{rule.code}  {rule.name} [{rule.scope}]")
            print(f"       {rule.rationale}")
        return 0

    config = _load_config(os.getcwd())
    paths = list(args.paths) or list(config.get("paths", [])) or ["src"]
    baseline_path = args.baseline or config.get("baseline") or DEFAULT_BASELINE
    exempt = _exemption_map(config)

    try:
        result = lint_paths(paths)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    findings, exempted = split_exempt(result.findings, exempt)

    if args.write_baseline:
        count = write_baseline(baseline_path, findings)
        print(f"wrote {count} entr{'y' if count == 1 else 'ies'} to {baseline_path}")
        return 0

    baseline: dict[str, Any] = {}
    if not args.no_baseline:
        try:
            baseline = load_baseline(baseline_path)
        except BaselineError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    new, grandfathered, stale = split_baselined(findings, baseline)

    if args.format == "json":
        print(
            json.dumps(
                {
                    "version": 1,
                    "checked_files": result.checked_files,
                    "suppressed": result.suppressed,
                    "exempted": [diag.to_json() for diag in exempted],
                    "baselined": [diag.to_json() for diag in grandfathered],
                    "stale_baseline_entries": stale,
                    "findings": [diag.to_json() for diag in new],
                },
                indent=2,
                sort_keys=True,
            )
        )
    elif args.format == "sarif":
        print(json.dumps(to_sarif(new), indent=2, sort_keys=True))
    else:
        for diag in new:
            print(diag.format_text())
        for entry in stale:
            print(
                f"note: stale baseline entry {entry['fingerprint']} "
                f"({entry.get('code', '?')} in {entry.get('path', '?')}) — "
                "the finding is gone; remove the entry"
            )
        summary = (
            f"{len(new)} finding(s), {len(grandfathered)} baselined, "
            f"{result.suppressed} suppressed, {len(exempted)} exempted "
            f"across {result.checked_files} file(s)"
        )
        print(("FAIL: " if new else "ok: ") + summary)

    return 1 if new else 0
