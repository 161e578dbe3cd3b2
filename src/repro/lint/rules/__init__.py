"""Rule modules; importing this package registers every rule.

Adding a rule: create a module here, subclass :class:`repro.lint.core.Rule`,
decorate it with :func:`repro.lint.core.register`, import the module below,
and give it a scope in :mod:`repro.lint.config` plus fixtures under
``tests/lint_fixtures/``.  See ``docs/lint_rules.md`` for the full guide.
"""

from repro.lint.rules import determinism, numpy_hygiene

__all__ = ["determinism", "numpy_hygiene"]
