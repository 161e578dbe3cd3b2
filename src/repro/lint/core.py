"""Rule registry and the shared data model of the lint engine.

A rule is a class decorated with :func:`register`.  Rules implement
``check_module(ctx)`` and run once per in-scope file.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule_id)


@dataclass
class ModuleContext:
    """Everything a module rule may inspect about one source file."""

    path: str
    """Path relative to the lint root, with ``/`` separators."""
    tree: ast.Module
    source: str
    aliases: Dict[str, str] = field(default_factory=dict)
    """Local name → dotted origin for imports, e.g. ``{"np": "numpy",
    "perf_counter": "time.perf_counter"}``."""

    def qualified_name(self, node: ast.expr) -> str | None:
        """Resolve a Name/Attribute chain to a dotted name through the
        import aliases; ``None`` for anything dynamic."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.aliases.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))


class Rule:
    """Base class for lint rules.  Subclass, set the metadata class
    attributes, implement :meth:`check_module`, and decorate with
    :func:`register`."""

    rule_id: str = ""
    name: str = ""
    description: str = ""
    rationale: str = ""

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError  # pragma: no cover - abstract hook


_REGISTRY: Dict[str, Rule] = {}


def register(cls: type) -> type:
    """Class decorator: instantiate the rule and add it to the registry."""
    rule = cls()
    if not rule.rule_id:
        raise ValueError(f"rule {cls.__name__} must set rule_id")
    if rule.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.rule_id!r}")
    _REGISTRY[rule.rule_id] = rule
    return cls


def _ensure_rules_loaded() -> None:
    # Importing the rules package triggers every @register decorator.
    from repro.lint import rules as _rules  # noqa: F401


def all_rules() -> List[Rule]:
    """Every registered rule, ordered by id."""
    _ensure_rules_loaded()
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    _ensure_rules_loaded()
    return _REGISTRY[rule_id]


def build_alias_map(tree: ast.Module) -> Dict[str, str]:
    """Map local names to dotted import origins for one module."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                aliases[item.asname or item.name.split(".")[0]] = (
                    item.name if item.asname else item.name.split(".")[0]
                )
                if item.asname:
                    aliases[item.asname] = item.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for item in node.names:
                if item.name == "*":
                    continue
                aliases[item.asname or item.name] = f"{node.module}.{item.name}"
    return aliases


def iter_calls(tree: ast.Module) -> Iterable[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node
