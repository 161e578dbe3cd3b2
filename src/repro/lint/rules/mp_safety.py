"""Multiprocessing-safety rules.

Worker processes receive their tasks and return their failures by pickle.
Two conventions keep that boundary safe in this repo, and each has already
cost a real bug:

* only module-level callables go to executors — lambdas and functions
  defined inside another function do not pickle (``MP001``) — including the
  ones a ``ShardSupervisor(...)`` ships on its caller's behalf;
* exception classes whose ``__init__`` signature differs from ``args``
  must define ``__reduce__`` (the ``_PicklableErrorMixin`` pattern in
  :mod:`repro.exceptions`), otherwise unpickling in the supervisor either
  raises ``TypeError`` or silently rebuilds a garbled message (``MP002``);
* every ``SharedMemory(...)`` acquisition must sit behind a lifecycle
  guard — a ``with`` lease or a ``try``/``finally`` (or handler) that
  closes the mapping, plus ``unlink`` for creators — because a leaked
  POSIX segment outlives the process and eats ``/dev/shm`` until reboot
  (``MP003``).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Set

from repro.lint.core import (
    Finding,
    ModuleContext,
    ProjectContext,
    Rule,
    iter_calls,
    register,
)

#: Executor/pool methods whose first argument is the callable shipped to a
#: worker process.
SUBMIT_METHODS = frozenset(
    {"submit", "map", "starmap", "imap", "imap_unordered", "apply", "apply_async"}
)

#: ``ShardSupervisor(...)`` keyword arguments naming callables the supervisor
#: forwards to (or runs beside) its worker processes: the submit call it makes
#: only ever names its own trampoline, so the rule follows the indirection.
SUPERVISOR_CALLABLE_KEYWORDS = frozenset({"shard_fn", "prepare", "publish"})

#: Builtin exception roots (reachable without any repo-defined ancestor).
BUILTIN_EXCEPTION_NAMES = frozenset(
    {
        "BaseException",
        "Exception",
        "ArithmeticError",
        "AssertionError",
        "AttributeError",
        "ConnectionError",
        "EOFError",
        "ImportError",
        "IndexError",
        "KeyError",
        "LookupError",
        "NotImplementedError",
        "OSError",
        "RuntimeError",
        "StopIteration",
        "TimeoutError",
        "TypeError",
        "ValueError",
    }
)


def _nested_function_names(tree: ast.Module) -> Set[str]:
    """Names of functions defined inside another function (unpicklable)."""
    nested: Set[str] = set()

    def walk(node: ast.AST, inside_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            is_function = isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)
            )
            if is_function and inside_function:
                nested.add(child.name)
            walk(child, inside_function or is_function)

    walk(tree, False)
    return nested


@register
class ExecutorCallableRule(Rule):
    rule_id = "MP001"
    name = "picklable-executor-callables"
    description = (
        "lambdas and locally-defined functions passed to executor "
        "submit/map do not pickle; use a module-level function"
    )
    rationale = (
        "ProcessPoolExecutor pickles the callable; a closure fails at "
        "submit time on some platforms and never on others."
    )

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        nested = _nested_function_names(ctx.tree)
        for call in iter_calls(ctx.tree):
            func = call.func
            if isinstance(func, ast.Attribute) and func.attr in SUBMIT_METHODS:
                shipped = [(f".{func.attr}()", arg) for arg in call.args[:1]]
            elif getattr(func, "attr", getattr(func, "id", None)) == "ShardSupervisor":
                shipped = [
                    (f"ShardSupervisor({keyword.arg}=...)", keyword.value)
                    for keyword in call.keywords
                    if keyword.arg in SUPERVISOR_CALLABLE_KEYWORDS
                ]
            else:
                continue
            for where, candidate in shipped:
                if isinstance(candidate, ast.Lambda):
                    yield self._finding(ctx, call, f"a lambda passed to {where}")
                elif isinstance(candidate, ast.Name) and candidate.id in nested:
                    yield self._finding(
                        ctx,
                        call,
                        f"locally-defined function {candidate.id!r} passed to "
                        f"{where}",
                    )

    def _finding(self, ctx: ModuleContext, call: ast.Call, what: str) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            path=ctx.path,
            line=call.lineno,
            col=call.col_offset,
            message=(
                f"{what} cannot be pickled into a worker process — move the "
                "callable to module scope"
            ),
        )


#: Call-name tokens that count as releasing a mapping (``.close()``,
#: ``lease.close()``, ``_release_segments(...)`` …).
_CLOSE_TOKENS = ("close", "release", "unlink")
#: Tokens that additionally count as destroying the segment itself, which
#: creators (``create=True``) must guarantee.
_UNLINK_TOKENS = ("unlink", "release")


def _called_names(stmts: List[ast.stmt]) -> Iterator[str]:
    """Names of every function/method invoked anywhere under ``stmts``."""
    for stmt in stmts:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute):
                    yield func.attr
                elif isinstance(func, ast.Name):
                    yield func.id


def _try_cleans_up(node: ast.Try, need_unlink: bool) -> bool:
    """True when the try's finally/handlers release (and unlink) segments."""
    tokens = _UNLINK_TOKENS if need_unlink else _CLOSE_TOKENS
    cleanup: List[ast.stmt] = list(node.finalbody)
    for handler in node.handlers:
        cleanup.extend(handler.body)
    return any(
        any(token in name.lower() for token in tokens)
        for name in _called_names(cleanup)
    )


@register
class SharedMemoryLifecycleRule(Rule):
    rule_id = "MP003"
    name = "shared-memory-lifecycle"
    description = (
        "SharedMemory acquisitions must be guarded by a with-lease or a "
        "try/finally that closes the mapping (and unlinks it for creators)"
    )
    rationale = (
        "a leaked POSIX shared-memory segment outlives the process and "
        "holds /dev/shm space until reboot; creators that close without "
        "unlink leak the segment even on the happy path"
    )

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        parents: Dict[ast.AST, ast.AST] = {}
        for node in ast.walk(ctx.tree):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        for call in iter_calls(ctx.tree):
            func = call.func
            name = (
                func.attr
                if isinstance(func, ast.Attribute)
                else func.id
                if isinstance(func, ast.Name)
                else None
            )
            if name != "SharedMemory":
                continue
            creates = any(
                keyword.arg == "create"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
                for keyword in call.keywords
            )
            if self._guarded(call, parents, creates):
                continue
            needed = "close() and unlink()" if creates else "close()"
            yield Finding(
                rule_id=self.rule_id,
                path=ctx.path,
                line=call.lineno,
                col=call.col_offset,
                message=(
                    "SharedMemory acquisition without a lifecycle guard — "
                    "wrap it in a with-lease or pair it with a try/finally "
                    f"calling {needed}"
                ),
            )

    def _guarded(
        self,
        call: ast.Call,
        parents: Dict[ast.AST, ast.AST],
        creates: bool,
    ) -> bool:
        """Walk outward: a with block, a cleaning try, or one in the same
        function body (the acquire-then-try/finally idiom) all count."""
        node: ast.AST = call
        scope: ast.AST | None = None
        while node in parents:
            node = parents[node]
            if isinstance(node, (ast.With, ast.AsyncWith)):
                return True
            if isinstance(node, ast.Try) and _try_cleans_up(node, creates):
                return True
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and scope is None
            ):
                scope = node
        if scope is None:
            return False
        return any(
            isinstance(inner, ast.Try) and _try_cleans_up(inner, creates)
            for inner in ast.walk(scope)
        )


@dataclass
class _ClassInfo:
    name: str
    path: str
    line: int
    bases: List[str] = field(default_factory=list)
    has_init: bool = False
    has_reduce: bool = False


def _collect_classes(project: ProjectContext) -> Dict[str, _ClassInfo]:
    table: Dict[str, _ClassInfo] = {}
    for ctx in project.modules:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases: List[str] = []
            for base in node.bases:
                if isinstance(base, ast.Name):
                    bases.append(base.id)
                elif isinstance(base, ast.Attribute):
                    bases.append(base.attr)
            methods = {
                item.name
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            table[node.name] = _ClassInfo(
                name=node.name,
                path=ctx.path,
                line=node.lineno,
                bases=bases,
                has_init="__init__" in methods,
                has_reduce=bool(methods & {"__reduce__", "__reduce_ex__"}),
            )
    return table


def _is_exception_like(info: _ClassInfo, table: Dict[str, _ClassInfo]) -> bool:
    seen: Set[str] = set()
    stack = list(info.bases)
    while stack:
        base = stack.pop()
        if base in seen:
            continue
        seen.add(base)
        if base in BUILTIN_EXCEPTION_NAMES or base.endswith(
            ("Error", "Exception", "Warning")
        ):
            if base not in table:
                return True
        if base in table:
            if _ancestry_reaches_builtin(table[base], table, seen, stack):
                return True
    return False


def _ancestry_reaches_builtin(
    info: _ClassInfo,
    table: Dict[str, _ClassInfo],
    seen: Set[str],
    stack: List[str],
) -> bool:
    for base in info.bases:
        if base in BUILTIN_EXCEPTION_NAMES and base not in table:
            return True
        if base not in seen:
            stack.append(base)
    return False


def _repo_ancestry(
    info: _ClassInfo, table: Dict[str, _ClassInfo]
) -> Iterator[_ClassInfo]:
    """``info`` plus every repo-defined ancestor/mixin (depth-first)."""
    seen: Set[str] = set()
    stack = [info.name]
    while stack:
        name = stack.pop()
        if name in seen or name not in table:
            continue
        seen.add(name)
        current = table[name]
        yield current
        stack.extend(current.bases)


@register
class ExceptionReduceRule(Rule):
    rule_id = "MP002"
    name = "picklable-exceptions"
    description = (
        "exception classes with a custom __init__ must define __reduce__ "
        "(or inherit _PicklableErrorMixin) to survive worker round-trips"
    )
    rationale = (
        "BaseException.__reduce__ replays __init__(*args) with the "
        "formatted message, so any custom signature unpickles wrong."
    )
    scope = "project"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        table = _collect_classes(project)
        for info in table.values():
            if not _is_exception_like(info, table):
                continue
            ancestry = list(_repo_ancestry(info, table))
            custom_init = any(item.has_init for item in ancestry)
            has_reduce = any(item.has_reduce for item in ancestry)
            if custom_init and not has_reduce:
                yield Finding(
                    rule_id=self.rule_id,
                    path=info.path,
                    line=info.line,
                    col=0,
                    message=(
                        f"exception class {info.name} has a custom __init__ "
                        "but no __reduce__ in its hierarchy — it will not "
                        "survive a pickle round-trip from a worker process "
                        "(add _PicklableErrorMixin or define __reduce__)"
                    ),
                )


#: The three methods the repo-wide lifecycle protocol
#: (:class:`repro.lifecycle.Closeable`) requires of every lease owner.
_LIFECYCLE_METHODS = ("close", "__enter__", "__exit__")
_LEASE_CLASS = "ShmLease"


@dataclass
class _OwnerInfo:
    """One class's lifecycle-relevant surface for the MP004 ownership walk."""

    name: str
    path: str
    line: int
    bases: List[str] = field(default_factory=list)
    methods: Set[str] = field(default_factory=set)
    owned_classes: Set[str] = field(default_factory=set)


def _identifier_names(node: ast.AST) -> Iterator[str]:
    """Every identifier referenced under ``node``, including identifiers
    inside string annotations (``self._lease: "ShmLease | None"``)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield from re.findall(r"[A-Za-z_][A-Za-z0-9_]*", sub.value)


def _is_self_attribute(target: ast.expr) -> bool:
    return (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    )


def _collect_owner_info(project: ProjectContext) -> Dict[str, _OwnerInfo]:
    table: Dict[str, _OwnerInfo] = {}
    for ctx in project.modules:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            info = _OwnerInfo(name=node.name, path=ctx.path, line=node.lineno)
            for base in node.bases:
                if isinstance(base, ast.Name):
                    info.bases.append(base.id)
                elif isinstance(base, ast.Attribute):
                    info.bases.append(base.attr)
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info.methods.add(item.name)
                elif isinstance(item, ast.AnnAssign):
                    # dataclass-style field: the annotation names what is held
                    info.owned_classes.update(_identifier_names(item.annotation))
            for sub in ast.walk(node):
                if isinstance(sub, ast.AnnAssign) and _is_self_attribute(sub.target):
                    info.owned_classes.update(_identifier_names(sub.annotation))
                elif isinstance(sub, ast.Assign):
                    if not any(_is_self_attribute(t) for t in sub.targets):
                        continue
                    value = sub.value
                    if isinstance(value, ast.Call):
                        func = value.func
                        if isinstance(func, ast.Name):
                            info.owned_classes.add(func.id)
                        elif isinstance(func, ast.Attribute):
                            info.owned_classes.add(func.attr)
            table[node.name] = info
    return table


@register
class LeaseOwnerLifecycleRule(Rule):
    rule_id = "MP004"
    name = "lease-owner-closeable"
    description = (
        "classes owning an ShmLease — directly, or through an attribute "
        "holding a lease-owning resource — must implement the Closeable "
        "lifecycle protocol (close/__enter__/__exit__)"
    )
    rationale = (
        "a lease owner without a close()/context-manager surface has no "
        "deterministic release path, so its /dev/shm segments and worker "
        "pools live until interpreter teardown; one shared protocol "
        "(repro.lifecycle.Closeable) keeps every owner releasable"
    )
    scope = "project"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        table = _collect_owner_info(project)
        owners: Set[str] = {
            info.name
            for info in table.values()
            if _LEASE_CLASS in info.owned_classes and info.name != _LEASE_CLASS
        }
        # Transitive closure: holding an owner makes you an owner.
        changed = True
        while changed:
            changed = False
            for info in table.values():
                if info.name in owners or info.name == _LEASE_CLASS:
                    continue
                if info.owned_classes & owners:
                    owners.add(info.name)
                    changed = True
        for name in sorted(owners):
            info = table[name]
            missing = [
                method
                for method in _LIFECYCLE_METHODS
                if not self._defines(info, method, table)
            ]
            if missing:
                yield Finding(
                    rule_id=self.rule_id,
                    path=info.path,
                    line=info.line,
                    col=0,
                    message=(
                        f"class {name} owns an ShmLease-bearing resource but "
                        f"does not implement {', '.join(missing)} — implement "
                        "the repro.lifecycle.Closeable protocol (idempotent "
                        "close() + context manager)"
                    ),
                )

    def _defines(
        self, info: _OwnerInfo, method: str, table: Dict[str, _OwnerInfo]
    ) -> bool:
        seen: Set[str] = set()
        stack = [info.name]
        while stack:
            name = stack.pop()
            if name in seen or name not in table:
                continue
            seen.add(name)
            current = table[name]
            if method in current.methods:
                return True
            stack.extend(current.bases)
        return False
