"""The ``cntcache lint`` / ``python -m repro.lint`` command.

Exit codes: 0 = clean, 1 = findings / physics violations, 2 = usage
error (bad paths, ``--changed`` outside a git checkout).  Output is one
``file:line: R00X severity message`` line per finding, or JSON with
``--format``; ``--output`` redirects the report to a file.

``--changed [REF]`` is the incremental mode: the whole tree is still
parsed (project-scope rules need the full import graph) but only
findings in files that differ from ``REF`` (default ``HEAD``) or are
untracked are reported.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from repro.lint.engine import LintConfig, LintError, lint_paths
from repro.lint.findings import Severity
from repro.lint.rules import iter_rules


def _default_paths() -> list[str]:
    """``src tests`` when run from a checkout root, else the cwd."""
    defaults = [name for name in ("src", "tests") if Path(name).is_dir()]
    return defaults if defaults else ["."]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cntcache lint",
        description=(
            "CNT-Cache project analyzer: energy/architecture rules "
            "R001-R008, determinism sanitizer D001-D005, schema "
            "consistency S001-S002, physics invariants P001-P006"
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
        "--no-invariants",
        action="store_true",
        help="skip the physics-invariant checks over the shipped models",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and exit",
    )
    parser.add_argument(
        "--changed",
        nargs="?",
        const="HEAD",
        default=None,
        metavar="REF",
        help=(
            "only report findings in files changed vs REF (default HEAD) "
            "or untracked; the full tree is still indexed"
        ),
    )
    return parser


def _changed_files(ref: str) -> frozenset[Path]:
    """Python files that differ from ``ref`` plus untracked ones."""
    changed: set[Path] = set()
    for args in (
        ["git", "diff", "--name-only", "-z", ref, "--"],
        ["git", "ls-files", "--others", "--exclude-standard", "-z"],
    ):
        try:
            proc = subprocess.run(
                args, capture_output=True, text=True, check=True
            )
        except (OSError, subprocess.CalledProcessError) as exc:
            detail = getattr(exc, "stderr", "") or str(exc)
            raise LintError(
                f"--changed requires a git checkout and a valid ref: "
                f"{detail.strip()}"
            ) from exc
        for token in proc.stdout.split("\0"):
            if token.endswith(".py"):
                path = Path(token)
                if path.is_file():
                    changed.add(path.resolve())
    return frozenset(changed)


def main(argv: list[str] | None = None) -> int:
    """CLI main; returns a process exit code."""
    args = _parser().parse_args(argv)

    if args.list_rules:
        for rule in iter_rules():
            print(f"{rule.rule_id} [{rule.severity.value}] {rule.summary}")
        return 0

    enabled = (
        frozenset(token.strip() for token in args.rules.split(",") if token.strip())
        if args.rules
        else None
    )
    paths = args.paths if args.paths else _default_paths()
    try:
        restrict = (
            _changed_files(args.changed) if args.changed is not None else None
        )
        config = LintConfig(enabled_rules=enabled, restrict_to=restrict)
        findings = lint_paths(paths, config)
    except LintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    violations = []
    if not args.no_invariants:
        from repro.lint.invariants import check_shipped_models

        violations = check_shipped_models()

    if args.format == "json":
        report = json.dumps(
            {
                "findings": [finding.as_dict() for finding in findings],
                "physics": [
                    {
                        "code": violation.code,
                        "context": violation.context,
                        "message": violation.message,
                    }
                    for violation in violations
                ],
            },
            indent=2,
        )
    else:
        lines = [finding.format() for finding in findings]
        lines.extend(violation.format() for violation in violations)
        errors = sum(
            1 for finding in findings if finding.severity is Severity.ERROR
        )
        summary = (
            f"lint: {len(findings)} finding(s) ({errors} error(s)), "
            f"{len(violations)} physics violation(s)"
        )
        lines.append(summary)
        report = "\n".join(lines)

    if args.output is not None:
        Path(args.output).write_text(report + "\n", encoding="utf-8")
    else:
        print(report)

    failed = bool(violations) or any(
        finding.severity is Severity.ERROR for finding in findings
    )
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
