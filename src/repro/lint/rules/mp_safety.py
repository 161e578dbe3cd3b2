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
  raises ``TypeError`` or silently rebuilds a garbled message (``MP002``).
"""

from __future__ import annotations

import ast
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
#: forwards to its worker processes: the submit call it makes only ever
#: names its own trampoline, so the rule follows the indirection.
SUPERVISOR_CALLABLE_KEYWORDS = frozenset({"shard_fn"})

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
