"""The ``cntcache lint`` / ``python -m repro.lint`` command.

Exit codes: 0 = clean, 1 = findings, 2 = usage error (bad paths,
malformed rule ids).  Output is one ``file:line: R00X message`` line
per finding, or JSON with ``--format``; ``--output`` redirects the
report to a file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.lint.engine import LintConfig, LintError, lint_paths
from repro.lint.rules import iter_rules


def _default_paths() -> list[str]:
    """``src tests`` when run from a checkout root, else the cwd."""
    defaults = [name for name in ("src", "tests") if Path(name).is_dir()]
    return defaults if defaults else ["."]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cntcache lint",
        description=(
            "CNT-Cache source analyzer: energy/architecture rules "
            "R001-R004 and R006-R008, determinism sanitizer D001-D005, "
            "schema consistency S001-S002"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--rules",
        default=None,
        metavar="R001,D002",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and exit",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI main; returns a process exit code."""
    args = _parser().parse_args(argv)

    if args.list_rules:
        for rule in iter_rules():
            print(f"{rule.rule_id} {rule.summary}")
        return 0

    enabled = (
        frozenset(token.strip() for token in args.rules.split(",") if token.strip())
        if args.rules
        else None
    )
    paths = args.paths if args.paths else _default_paths()
    try:
        config = LintConfig(enabled_rules=enabled)
        findings = lint_paths(paths, config)
    except LintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        report = json.dumps(
            {"findings": [finding.as_dict() for finding in findings]}, indent=2
        )
    else:
        lines = [finding.format() for finding in findings]
        lines.append(f"lint: {len(findings)} finding(s)")
        report = "\n".join(lines)

    if args.output is not None:
        Path(args.output).write_text(report + "\n", encoding="utf-8")
    else:
        print(report)
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
