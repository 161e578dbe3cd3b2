"""The repo-wide resource lifecycle protocol.

Two classes own process pools and POSIX shared-memory leases —
:class:`repro.runtime.supervisor.ShardSupervisor` (the only direct owner)
and :class:`repro.runtime.executor.ShardedDivisionExecutor` through it —
and :class:`repro.core.pipeline.LoCEC` / :class:`repro.serve.ServingSession`
keep the same public form although they hold neither today.  One contract:

* usable as a context manager (``with ... as resource:``);
* ``close()`` releases everything and is **idempotent** (safe to call
  twice, safe after ``__exit__``);
* a closed owner may lazily re-acquire resources on next use *or* refuse
  further use — but must never leak the old ones.

:class:`Closeable` states that contract as a runtime-checkable structural
protocol, so tests can assert conformance with ``isinstance`` and new
resource owners need no inheritance — just the three methods.  Lint rule
``MP004`` (:mod:`repro.lint.rules.mp_safety`) enforces it statically for
every class owning an ``ShmLease``, directly or through an owning resource.
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

__all__ = ["Closeable"]


@runtime_checkable
class Closeable(Protocol):
    """Structural protocol for lease/pool owners (see module docstring)."""

    def close(self) -> None:
        """Release owned resources; must be idempotent."""
        ...  # pragma: no cover - protocol stub

    def __enter__(self) -> Any:
        ...  # pragma: no cover - protocol stub

    def __exit__(self, *exc_info: object) -> None:
        ...  # pragma: no cover - protocol stub
