"""Repo-native static analysis: the invariant lint engine.

The LoCEC reproduction rests on invariants that ordinary linters cannot see:
deterministic seeded execution (no stray wall-clock or global-RNG reads)
and hidden-copy-free NumPy hot paths.
This package turns those conventions into machine-checked, CI-blocking
rules over the stdlib ``ast`` — no third-party dependencies.

Usage::

    python -m repro.lint                # lint the repo with the default config
    locec-repro lint [--format json]    # same, via the CLI
    locec-repro lint --list-rules       # print the rule catalog

Suppressions: append ``# repro-lint: disable=RULE1,RULE2`` to the offending
line, or put ``# repro-lint: disable-file=RULE`` on its own line anywhere in
a file to waive a rule for the whole file.  Every suppression should carry a
justification in the surrounding comment.

See ``docs/lint_rules.md`` for the rule catalog and the rule-authoring guide.
"""

from __future__ import annotations

from repro.lint.core import Finding, Rule, all_rules, get_rule, register
from repro.lint.config import LintConfig, default_config
from repro.lint.engine import LintResult, run_lint
from repro.lint.reporters import render_json, render_text

__all__ = [
    "Finding",
    "Rule",
    "LintConfig",
    "LintResult",
    "all_rules",
    "get_rule",
    "register",
    "default_config",
    "run_lint",
    "render_json",
    "render_text",
    "main",
]


def main(argv: list[str] | None = None) -> int:
    """Console entry point (``python -m repro.lint``); returns exit code."""
    from repro.lint.engine import main as _main

    return _main(argv)
