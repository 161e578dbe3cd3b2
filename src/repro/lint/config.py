"""Per-module scope configuration for the lint engine.

Each rule declares *where it applies* via path prefixes relative to the lint
root (``/`` separators; a prefix may name a file).  The default
configuration encodes this repo's invariant boundaries:

* determinism rules cover the whole library plus ``scripts/`` but not
  ``benchmarks/`` — benchmark harnesses measure wall-clock time by design,
  while library and report-generating code must route through
  :mod:`repro.clock`;
* NumPy-hygiene rules cover library, scripts and benchmarks alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

_LIBRARY_AND_SCRIPTS = ("src/repro", "scripts")
_EVERYTHING = ("src/repro", "scripts", "benchmarks")

DEFAULT_RULE_SCOPES: Dict[str, Tuple[str, ...]] = {
    "DET001": _LIBRARY_AND_SCRIPTS,
    "DET002": _LIBRARY_AND_SCRIPTS,
    "NPY001": _EVERYTHING,
    "NPY002": _EVERYTHING,
    "NPY003": _EVERYTHING,
    "NPY004": _EVERYTHING,
}


@dataclass(frozen=True)
class LintConfig:
    """What to lint and which rules apply where."""

    src_roots: Tuple[str, ...] = _EVERYTHING
    """Directories (relative to the lint root) scanned for source modules."""
    rule_scopes: Dict[str, Tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_RULE_SCOPES)
    )
    """Rule id → path prefixes it applies to.  A rule missing from the map
    applies to every ``src_roots`` file."""
    disabled_rules: Tuple[str, ...] = ()

    def applies_to(self, rule_id: str, rel_path: str) -> bool:
        """True when ``rule_id`` is in scope for ``rel_path``."""
        if rule_id in self.disabled_rules:
            return False
        scopes = self.rule_scopes.get(rule_id)
        if scopes is None:
            return True
        return any(
            rel_path == scope or rel_path.startswith(scope.rstrip("/") + "/")
            for scope in scopes
        )


def default_config() -> LintConfig:
    """The repo's checked-in lint configuration."""
    return LintConfig()
