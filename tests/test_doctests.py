"""Every docstring example under ``src/repro`` runs and passes."""

from __future__ import annotations

import doctest
import importlib
from pathlib import Path

import repro

SOURCE = Path(repro.__file__).parent


def test_docstring_examples_pass():
    modules = sorted(
        "repro." + ".".join(path.relative_to(SOURCE).with_suffix("").parts)
        for path in SOURCE.rglob("*.py")
        if ">>> " in path.read_text(encoding="utf-8")
    )
    assert modules, "no docstring examples found"
    failures = {}
    for name in modules:
        result = doctest.testmod(importlib.import_module(name))
        if result.failed or not result.attempted:
            failures[name] = result
    assert not failures, failures
