"""Discovery, parsing and rule execution for :mod:`repro.lint`.

``run_lint`` walks the configured roots once, parses every module once, and
hands the shared ASTs to each registered rule, per file inside its scope.
Findings on suppressed lines (see :mod:`repro.lint.suppress`) are dropped
before reporting.
"""

from __future__ import annotations

import argparse
import ast
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence

from repro.lint.config import LintConfig, default_config
from repro.lint.core import (
    Finding,
    ModuleContext,
    all_rules,
    build_alias_map,
)
from repro.lint.reporters import render_json, render_text
from repro.lint.suppress import SuppressionIndex, parse_suppressions


def find_repo_root(start: Path | None = None) -> Path:
    """Nearest ancestor containing ``pyproject.toml`` (fallback: cwd)."""
    here = (start or Path.cwd()).resolve()
    for candidate in (here, *here.parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    return here


@dataclass
class LintResult:
    """Outcome of one engine run."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    rules_run: int = 0
    parse_errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings and not self.parse_errors


def _discover(root: Path, rel_roots: Sequence[str]) -> List[Path]:
    files: List[Path] = []
    for rel in rel_roots:
        base = root / rel
        if base.is_file() and base.suffix == ".py":
            files.append(base)
        elif base.is_dir():
            files.extend(sorted(base.rglob("*.py")))
    # De-duplicate while keeping deterministic order.
    seen = set()
    unique = []
    for path in files:
        if path not in seen:
            seen.add(path)
            unique.append(path)
    return unique


def _load_module(
    root: Path, path: Path, result: LintResult
) -> tuple[ModuleContext, SuppressionIndex] | None:
    rel = path.relative_to(root).as_posix()
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=rel)
    except (OSError, SyntaxError) as exc:
        result.parse_errors.append(f"{rel}: {exc}")
        return None
    ctx = ModuleContext(
        path=rel, tree=tree, source=source, aliases=build_alias_map(tree)
    )
    return ctx, parse_suppressions(source)


def run_lint(
    root: Path | str | None = None,
    config: LintConfig | None = None,
    rule_ids: Sequence[str] | None = None,
) -> LintResult:
    """Lint the tree under ``root`` (default: the enclosing repo).

    ``rule_ids`` restricts the run to a subset of rules (used by the
    per-rule fixture tests).
    """
    root = Path(root) if root is not None else find_repo_root(Path(__file__))
    config = config or default_config()
    result = LintResult()

    rules = [
        rule
        for rule in all_rules()
        if (rule_ids is None or rule.rule_id in rule_ids)
        and rule.rule_id not in config.disabled_rules
    ]
    result.rules_run = len(rules)

    modules: List[ModuleContext] = []
    suppressions: Dict[str, SuppressionIndex] = {}
    for path in _discover(root, config.src_roots):
        loaded = _load_module(root, path, result)
        if loaded is None:
            continue
        ctx, index = loaded
        modules.append(ctx)
        suppressions[ctx.path] = index
    result.files_checked = len(modules)

    raw: List[Finding] = []
    for rule in rules:
        for ctx in modules:
            if config.applies_to(rule.rule_id, ctx.path):
                raw.extend(rule.check_module(ctx))

    for finding in sorted(raw, key=Finding.sort_key):
        index = suppressions.get(finding.path)
        if index is not None and index.is_suppressed(finding.rule_id, finding.line):
            continue
        result.findings.append(finding)
    return result


def _list_rules_text() -> str:
    lines = ["Rule catalog:"]
    for rule in all_rules():
        lines.append(f"  {rule.rule_id}  {rule.name}")
        lines.append(f"      {rule.description}")
    return "\n".join(lines)


def build_arg_parser(prog: str = "repro.lint") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog, description="LoCEC invariant lint engine"
    )
    parser.add_argument(
        "--root",
        default=None,
        help="repository root to lint (default: auto-detected)",
    )
    parser.add_argument(
        "--format",
        dest="output_format",
        default="text",
        choices=["text", "json"],
        help="report format (default: text)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run the engine as a command; returns the process exit code
    (0 = clean, 1 = findings or parse errors, 2 = usage error)."""
    args = build_arg_parser().parse_args(argv)
    if args.list_rules:
        print(_list_rules_text())
        return 0
    rule_ids = (
        [part.strip() for part in args.rules.split(",") if part.strip()]
        if args.rules
        else None
    )
    result = run_lint(root=args.root, rule_ids=rule_ids)
    if args.output_format == "json":
        print(render_json(result))
    else:
        print(render_text(result))
    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
