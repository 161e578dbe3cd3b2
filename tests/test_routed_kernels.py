"""Route or delete, and write it once: structural guards by AST (tier-1, fast).

``graph/csr.py`` once carried a fast twin for every kernel somebody guessed
would be hot; five of them were exported, benchmarked and parity-tested while
``core.division.divide`` never called them.  ``repro.ml`` exported scalers,
k-fold splits, an estimator protocol and an SGD optimiser; ``repro.runtime``
a sharding strategy, a degree balancer and checkpoint helpers;
``repro.graph`` edge-list readers and writers, structural metrics and a
second copy of the ``Graph`` read API on ``CSRGraph`` — all called only by
tests.  A guard over ``__all__`` caught those, but not the public methods
nothing called (store mutators, a shard ``merge``) nor the modules with no
``__all__`` (a generator module of test fixtures).  The rule since, one
guard over definitions: every public top-level def, class and module
constant under ``src/repro`` (bar the ``lint/`` tool), and every public
method and property of a public class, needs a reference from product code
— ``src/repro`` outside the definition's own body, ``scripts/``,
``examples/`` or ``benchmarks/`` — bar one commented allowlist.  Dunder and
``visit_*`` methods and dataclass fields are exempt.  A reference from
``tests/`` never counts, and neither does an import, a package
``__init__``'s re-export or an ``__all__`` string.  A receiver is resolved
where that is cheap — ``self.m`` inside a class (and its subclass
overrides), ``Class.m``, ``Class(...).m`` and imported or module-qualified
names — and where it is not, the reference credits every method of that
name.  The check runs to a fixpoint: a reference from inside a rejected
definition does not count, so deleting a name cannot orphan its callee
unseen.  One test per layer (a package under ``repro/``, the top-level
modules, and ``graph/csr.py`` on its own) names where a failure is.
The same rule holds for the ``measure_*`` / ``run_*`` drivers of
``repro.runtime.scalability``, whose callers must be ``cli.py``, an
experiment that ``EXPERIMENTS`` names, ``examples/`` or ``scripts/`` — one
driver lived on for nine PRs with a README recipe as its only caller, and
another behind an experiment function no registry entry ran.
``core/pipeline.py`` is held to
"every stage of Algorithm 2 has one call site, no function over 60 code
lines", and nothing under ``core/`` and ``graph/`` may import the runtime
(a process pool once grew inside Phase II aggregation).
Oracles are not options: which kernel computes a phase is chosen below the
product surface, from the input alone (a GBDT fit picks the exact or the
histogram split search by its row count), so nothing under ``src/repro``
may be *named* after a backend selector (nor after a Phase I ``detector``:
Girvan–Newman is the one detector).  A reference executor is a test oracle
in ``tests/`` (``division_reference.py``, ``exact_reference.py``,
``hist_reference.py``, ``nn_reference.py``), and
those modules import only the standard library, NumPy and ``repro``: the CI
kernel gate times them with nothing else installed.
The checks are by AST, so a mention in a docstring or comment does not
count.
CI runs this file in the ``static-analysis`` job as well.
"""

from __future__ import annotations

import ast
import functools
import inspect
import sys
import textwrap
from contextlib import contextmanager
from pathlib import Path

import repro
from repro.experiments.registry import EXPERIMENTS

PACKAGE = Path(repro.__file__).resolve().parent  # src/repro
REPO = PACKAGE.parent.parent

# Product code beside src/ that routes a definition: the command-line
# scripts, the examples and the benchmarks (the frozen end-to-end judge reads
# product names; the ablation benches drive LoCEC directly).
CALLER_DIRS = ("scripts", "examples", "benchmarks")
UNGUARDED = "lint"  # repro.lint is a tool run over the package, not a layer

# Public definitions no product code references, by dotted name.
ALLOWLIST = frozenset({
    # A write's commit marker: it moves once per landed apply_updates and
    # not at all on a rejected or failed one, which the atomic-write tests
    # assert beside the graph, stores and predictions.
    "repro.core.pipeline.LoCEC.update_epoch",
    # The reader half of the dataset JSON that `repro.cli generate` writes;
    # the round-trip tests hold the writer to it.
    "repro.graph.io.load_dataset_json",
    # Raised by the Phase I oracle's modularity (tests/division_reference.py)
    # on a non-partition.  Deleting it renumbers every case id of the
    # exception pickle audit, whose ids carry each class's list position.
    "repro.exceptions.CommunityError",
})

DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
LOCAL = ("local",)
EXTERNAL = ("external",)


def is_public(name: str) -> bool:
    return not name.startswith(("_", "visit_"))


def assigned_names(node: ast.stmt) -> list[str]:
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [target.id for target in targets if isinstance(target, ast.Name)]


def assigned_in(statements) -> dict:
    """Every name ``statements`` assign or define, at any depth, as local."""
    return {
        part.id if isinstance(part, ast.Name) else part.name: LOCAL
        for statement in statements
        for part in ast.walk(statement)
        if isinstance(part, DEFINITION)
        or (isinstance(part, ast.Name) and isinstance(part.ctx, ast.Store))
    }


def bind(statements, module: str, package: str, scope: dict) -> None:
    """Record in ``scope`` what each name that ``statements`` import or
    define refers to, through compound statements but not into definitions;
    a relative import resolves against ``package``."""
    for node in statements:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                scope[bound] = ("module", alias.name if alias.asname else bound)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.rsplit(".", node.level - 1)[0]
                base = f"{parent}.{base}" if base else parent
            for alias in node.names:
                scope[alias.asname or alias.name] = ("import", base, alias.name)
        elif isinstance(node, DEFINITION):
            scope[node.name] = ("def", f"{module}.{node.name}")
            continue
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for name in assigned_names(node):
                scope[name] = ("def", f"{module}.{name}")
        for block in ("body", "orelse", "finalbody", "handlers"):
            bind(getattr(node, block, ()), module, package, scope)


class Index:
    """Every module parsed: its bindings, its top-level classes with their
    methods and bases, and the public definitions the guard holds."""

    def __init__(self, src: Path, files: list[Path]):
        self.trees: dict[str, ast.Module] = {}
        self.packages: dict[str, str] = {}
        self.bindings: dict[str, dict] = {}
        self.guarded: set[str] = set()
        self.methods: dict[str, set[str]] = {}  # class -> its method names
        self.owners: dict[str, set[str]] = {}  # method name -> Class.method
        bases = {}
        for path in files:
            in_src = path.is_relative_to(src)
            parts = path.relative_to(src).with_suffix("").parts if in_src else (f"<{path}>",)
            module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
            package = module if parts[-1] == "__init__" else module.rpartition(".")[0]
            tree = self.trees[module] = ast.parse(path.read_text())
            self.packages[module] = package
            self.bindings[module] = {}
            bind(tree.body, module, package, self.bindings[module])
            guard = in_src and UNGUARDED not in parts[1:2]
            for node in tree.body:
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    names = assigned_names(node)
                else:
                    names = [node.name] if isinstance(node, DEFINITION) else []
                if guard:
                    self.guarded.update(f"{module}.{n}" for n in names if is_public(n))
                if not isinstance(node, ast.ClassDef):
                    continue
                key = f"{module}.{node.name}"
                self.methods[key] = {
                    item.name for item in node.body if isinstance(item, DEFINITION[:2])
                }
                for name in self.methods[key]:
                    self.owners.setdefault(name, set()).add(f"{key}.{name}")
                    if guard and is_public(node.name) and is_public(name):
                        self.guarded.add(f"{key}.{name}")
                bases[key] = [(module, base) for base in node.bases]
        self.bases = {key: [] for key in bases}  # class -> its in-tree bases
        for key, found in bases.items():
            for base in (self.static(*pair) for pair in found):
                if base and base[0] == "def" and base[1] in self.methods:
                    self.bases[key].append(base[1])

    def lookup(self, module: str, name: str, depth: int = 0):
        """What ``module.name`` is, through re-exports."""
        if module not in self.trees:
            return EXTERNAL
        binding = self.bindings[module].get(name)
        if f"{module}.{name}" in self.trees and (binding is None or binding[0] == "import"):
            return ("module", f"{module}.{name}")
        if binding and binding[0] == "import" and depth < 20:
            return self.lookup(binding[1], binding[2], depth + 1)
        if binding and binding[0] == "module" and binding[1] not in self.trees:
            return EXTERNAL
        return binding

    def static(self, module: str, node: ast.expr):
        """A class base: a name or module-qualified name, else unknown."""
        if isinstance(node, ast.Name):
            return self.lookup(module, node.id)
        if isinstance(node, ast.Attribute):
            owner = self.static(module, node.value)
            if owner and owner[0] == "module":
                return self.lookup(owner[1], node.attr)
        return None

    def mro(self, key: str) -> list[str]:
        """``key`` and the in-tree classes it inherits from, nearest first."""
        order = [key]
        for base in self.bases[key]:
            order += [k for k in self.mro(base) if k not in order]
        return order

    def members(self, key: str, name: str, dispatch: bool) -> set[str]:
        """The methods ``name`` on class ``key`` may mean: the one it
        inherits, plus, for a ``self.`` receiver, every subclass override."""
        order = self.mro(key)
        found = next(({f"{k}.{name}"} for k in order if name in self.methods[k]), set())
        if dispatch:
            found |= {
                f"{sub}.{name}"
                for sub, names in self.methods.items()
                if name in names and key in self.mro(sub)
            }
        return found


class References(ast.NodeVisitor):
    """Every reference one module makes, as ``(targets, containers)``: the
    definitions it may mean, and the guarded definitions it sits inside.
    Visiting an expression returns what it resolves to, or ``None``."""

    def __init__(self, index: Index, module: str):
        self.index, self.module = index, module
        self.scopes: list[dict] = []  # innermost last; a class body's is marked
        self.classes: list[str | None] = []  # the enclosing class, if top-level
        self.containers: list[str] = []
        self.refs: list[tuple[frozenset, frozenset]] = []

    def credit(self, targets) -> None:
        self.refs.append((frozenset(targets), frozenset(self.containers)))

    @contextmanager
    def inside(self, keys: list[str]):
        self.containers += keys
        yield
        del self.containers[len(self.containers) - len(keys) :]

    def resolve(self, name: str):
        for depth, scope in enumerate(reversed(self.scopes)):
            if name in scope and (depth == 0 or "<class>" not in scope):
                binding = scope[name]
                break
        else:
            return self.index.lookup(self.module, name)
        if binding[0] == "import":
            return self.index.lookup(binding[1], binding[2])
        if binding[0] == "module":
            return binding if binding[1] in self.index.trees else EXTERNAL
        return None if binding == LOCAL else binding

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Store):
            return None
        found = self.resolve(node.id)
        if found and found[0] == "def":
            self.credit({found[1]})
        return found

    def visit_Attribute(self, node):
        owner = self.visit(node.value)
        if owner == EXTERNAL:
            return EXTERNAL
        if owner and owner[0] == "module":
            found = self.index.lookup(owner[1], node.attr)
            if found and found[0] == "def":
                self.credit({found[1]})
            if found:
                return found
        elif owner and owner[1] in self.index.methods:
            members = self.index.members(owner[1], node.attr, owner[0] == "self")
            if members:
                self.credit(members)
                return None
        # The receiver is unknown: credit every method of that name.
        self.credit(self.index.owners.get(node.attr, ()))
        return None

    def visit_Call(self, node):
        callee = self.visit(node.func)
        for argument in (*node.args, *node.keywords):
            self.visit(argument)
        if callee and callee[0] == "def" and callee[1] in self.index.methods:
            return ("instance", callee[1])
        return None

    def annotation(self, node) -> None:
        """Visit an annotation, reading a quoted forward reference as code."""
        for part in ast.walk(node) if node else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                try:
                    self.visit(ast.parse(part.value, mode="eval").body)
                except SyntaxError:
                    pass
        if node:
            self.visit(node)

    def visit_arg(self, node):
        self.annotation(node.annotation)

    def visit_Assign(self, node):
        with self.inside(self.own_keys(assigned_names(node))):
            self.generic_visit(node)

    def visit_AnnAssign(self, node):
        with self.inside(self.own_keys(assigned_names(node))):
            self.annotation(node.annotation)
            if node.value:
                self.visit(node.value)

    def visit_Import(self, node):
        pass  # an import is not a use, nor is a package's re-export

    visit_ImportFrom = visit_Import

    def own_keys(self, names: list[str]) -> list[str]:
        """The guarded keys of definitions of ``names`` at this point."""
        if not self.scopes:
            keys = [f"{self.module}.{name}" for name in names]
        elif len(self.scopes) == 1 and "<class>" in self.scopes[0] and self.classes[-1]:
            keys = [f"{self.classes[-1]}.{name}" for name in names]
        else:
            return []
        return [key for key in keys if key in self.index.guarded]

    def local_scope(self, node) -> dict:
        """The names a function binds: its parameters, every assignment
        target and nested definition, and its imports."""
        scope = {arg.arg: LOCAL for arg in ast.walk(node.args) if isinstance(arg, ast.arg)}
        if isinstance(node, ast.Lambda):
            return scope
        scope.update(assigned_in(node.body))
        imports = [
            part
            for statement in node.body
            for part in ast.walk(statement)
            if isinstance(part, (ast.Import, ast.ImportFrom))
        ]
        bind(imports, self.module, self.index.packages[self.module], scope)
        in_class = self.scopes and "<class>" in self.scopes[-1] and self.classes[-1]
        positional = [*node.args.posonlyargs, *node.args.args]
        static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        if in_class and positional and not static:
            scope[positional[0].arg] = ("self", self.classes[-1])
        return scope

    def visit_FunctionDef(self, node):
        with self.inside(self.own_keys([node.name])):
            for decorator in node.decorator_list:
                self.visit(decorator)
            self.visit(node.args)
            self.annotation(node.returns)
            self.scopes.append(self.local_scope(node))
            for statement in node.body:
                self.visit(statement)
            self.scopes.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node):
        self.visit(node.args)
        self.scopes.append(self.local_scope(node))
        self.visit(node.body)
        self.scopes.pop()

    def visit_ClassDef(self, node):
        with self.inside(self.own_keys([node.name])):
            for part in (*node.decorator_list, *node.bases, *node.keywords):
                self.visit(part)
            self.classes.append(None if self.scopes else f"{self.module}.{node.name}")
            self.scopes.append({"<class>": LOCAL, **assigned_in(node.body)})
            for statement in node.body:
                self.visit(statement)
            self.scopes.pop()
            self.classes.pop()


@functools.lru_cache(maxsize=None)
def unreferenced_definitions(
    repo: Path, package: str, allowlist: frozenset = frozenset()
) -> frozenset:
    """Public definitions of ``repo/src/package`` (bar ``lint/``) that nothing
    in ``src/`` outside their own body, nor ``scripts/``, ``examples/`` or
    ``benchmarks/``, references.  A reference from inside a rejected
    definition does not count, to a fixpoint; allowlisted ones stay live."""
    src = repo / "src"
    files = sorted((src / package).rglob("*.py"))
    files += [path for folder in CALLER_DIRS for path in sorted((repo / folder).rglob("*.py"))]
    index = Index(src, files)
    refs = []
    for module, tree in index.trees.items():
        visitor = References(index, module)
        visitor.visit(tree)
        refs += visitor.refs
    dead: set[str] = set()
    while True:
        referenced = set()
        for targets, containers in refs:
            if not containers & dead:
                referenced |= targets - containers
        unreferenced = index.guarded - referenced
        if unreferenced - allowlist == dead:
            return frozenset(unreferenced)
        dead = unreferenced - allowlist


def layer_of(name: str) -> str:
    """The test a definition answers to: its package under ``repro/``, the
    top-level modules together, and ``graph/csr.py`` — whose unrouted kernel
    twins started this guard — on its own."""
    if f"{name}.".startswith("repro.graph.csr."):
        return "graph.csr"
    package = name.split(".")[1]
    return package if (PACKAGE / package).is_dir() else "top-level"


def assert_layer_routed(layer: str) -> None:
    """Every public definition of ``layer`` is referenced from product code,
    or is on the allowlist; no allowlisted name is referenced or gone."""
    unreferenced = {
        name
        for name in unreferenced_definitions(REPO, "repro", ALLOWLIST)
        if layer_of(name) == layer
    }
    allowed = {name for name in ALLOWLIST if layer_of(name) == layer}
    assert unreferenced == allowed, (
        f"public definitions of the {layer} layer that nothing in src/repro "
        f"(outside their own body), scripts/, examples/ or benchmarks/ "
        f"references — route them or delete them: {sorted(unreferenced - allowed)}; "
        f"allowlisted names that are referenced now, or gone, and should leave "
        f"the allowlist: {sorted(allowed - unreferenced)}"
    )


LAYERS = (
    "top-level", "ads", "analysis", "baselines", "core",
    "experiments", "graph", "graph.csr", "ml", "runtime", "synthetic",
)


def test_every_guarded_module_is_checked():
    modules = {
        ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        for path in PACKAGE.rglob("*.py")
    }
    layers = {layer_of(module) for module in modules} - {UNGUARDED}
    assert layers == set(LAYERS)
    assert {layer_of(name) for name in ALLOWLIST} <= set(LAYERS)


def test_every_top_level_definition_is_referenced():
    assert_layer_routed("top-level")


def test_every_ads_definition_is_referenced():
    assert_layer_routed("ads")


def test_every_analysis_definition_is_referenced():
    assert_layer_routed("analysis")


def test_every_baselines_definition_is_referenced():
    assert_layer_routed("baselines")


def test_every_core_definition_is_referenced():
    assert_layer_routed("core")


def test_every_experiments_definition_is_referenced():
    assert_layer_routed("experiments")


def test_every_graph_layer_export_is_referenced():
    assert_layer_routed("graph")


def test_every_public_csr_kernel_is_routed():
    assert_layer_routed("graph.csr")


def test_every_model_layer_export_is_referenced():
    assert_layer_routed("ml")


def test_every_runtime_export_is_referenced():
    assert_layer_routed("runtime")


def test_every_synthetic_definition_is_referenced():
    assert_layer_routed("synthetic")


GUARD_FIXTURE = {
    "src/pkg/__init__.py": "",
    "src/pkg/mod.py": """
        class Store:
            def unreferenced(self):
                return self.orphaned()

            def orphaned(self):
                return 0

            def helper(self):
                return 1

            def run(self):
                return self.helper()

            def tested(self):
                return 2


        class Left:
            def merge(self, other):
                return other


        class Right:
            def merge(self, other):
                return other


        def combine():
            return Left().merge(Right())
        """,
    "tests/test_mod.py": """
        from pkg.mod import Store

        def test_tested():
            assert Store().tested() == 2
        """,
    "benchmarks/e2e/bench.py": """
        from pkg.mod import Store, combine

        Store().run()
        combine()
        """,
}


def test_the_guard_on_a_fixture_tree(tmp_path):
    # ``helper`` is reached only through ``self.``, ``run`` only from
    # benchmarks/e2e/; ``tested`` only from tests/, which never counts;
    # ``orphaned``'s one caller is rejected; ``Right.merge`` is the unrouted
    # twin of the ``Left.merge`` that ``combine`` calls.
    for name, text in GUARD_FIXTURE.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    assert unreferenced_definitions(tmp_path, "pkg") == {
        "pkg.mod.Store.unreferenced",
        "pkg.mod.Store.orphaned",
        "pkg.mod.Store.tested",
        "pkg.mod.Right.merge",
    }


def calls_in_code(source: str) -> list[str]:
    """Name of every called function or method, once per call site."""
    return [
        getattr(node.func, "id", None) or getattr(node.func, "attr", "")
        for node in ast.walk(ast.parse(textwrap.dedent(source)))
        if isinstance(node, ast.Call)
    ]


def test_every_scalability_driver_has_a_product_caller():
    """A driver's caller is ``cli.py``, the body of a function ``EXPERIMENTS``
    names, ``examples/`` or ``scripts/``: an experiment function no registry
    entry runs is not a route."""
    module = ast.parse((PACKAGE / "runtime" / "scalability.py").read_text())
    drivers = {
        node.name
        for node in module.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith(("measure_", "run_"))
    }
    callers = [PACKAGE / "cli.py", *(REPO / "examples").glob("*.py")]
    callers += [*(REPO / "scripts").glob("*.py")]
    sources = [path.read_text() for path in callers]
    sources += [inspect.getsource(run) for run in EXPERIMENTS.values()]
    called = {name for source in sources for name in calls_in_code(source)}
    unrouted = drivers - called
    assert unrouted == set(), (
        "repro.runtime.scalability drivers that cli.py, the EXPERIMENTS "
        "functions, examples/ and scripts/ never call — route them or delete "
        f"them: {sorted(unrouted)}"
    )


def imported_modules(path: Path) -> set[str]:
    """Dotted name of every module imported anywhere in the file."""
    modules: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module)
            modules.update(f"{node.module}.{alias.name}" for alias in node.names)
    return modules


def test_no_core_or_graph_module_imports_the_runtime():
    # A write's re-division calls divide directly; the runtime is the cost
    # model and the scalability drivers, which import core, not the reverse.
    importers = {
        str(path.relative_to(PACKAGE))
        for layer in ("core", "graph")
        for path in (PACKAGE / layer).rglob("*.py")
        if any(
            module == "repro.runtime" or module.startswith("repro.runtime.")
            for module in imported_modules(path)
        )
    }
    assert importers == set(), (
        "modules under core/ and graph/ importing repro.runtime — the layers "
        f"below the runtime must not depend on it: {sorted(importers)}"
    )


PIPELINE = PACKAGE / "core" / "pipeline.py"
MAX_FUNCTION_CODE_LINES = 60


def test_each_pipeline_stage_has_one_call_site():
    calls = calls_in_code(PIPELINE.read_text())
    for stage in ("EdgeLabeler", "labeled_communities", "_build_community_classifier"):
        assert calls.count(stage) == 1, (
            f"core/pipeline.py calls {stage}( {calls.count(stage)} times: fit and "
            "apply_updates must share one implementation of each stage"
        )


def test_no_pipeline_function_outgrows_its_stage():
    source = PIPELINE.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    docstrings: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Module)):
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    too_long = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            code = [
                number
                for number in range(node.lineno, node.end_lineno + 1)
                if number not in docstrings
                and lines[number - 1].strip()
                and not lines[number - 1].lstrip().startswith("#")
            ]
            if len(code) > MAX_FUNCTION_CODE_LINES:
                too_long[node.name] = len(code)
    assert not too_long, (
        f"functions in core/pipeline.py over {MAX_FUNCTION_CODE_LINES} code lines "
        f"(non-blank, non-comment, non-docstring) — split them into named stages: {too_long}"
    )


SELECTOR_NAMES = {"backend", "ml_backend", "nn_backend", "detector", "community_detector"}


def selector_sites(path: Path) -> list[str]:
    """Parameters, annotated fields, keyword arguments and attributes named
    after a backend selector, as ``file:line kind name``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.arg, ast.keyword)):
            name = node.arg
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.AnnAssign):
            name = getattr(node.target, "id", None)
        else:
            continue
        if name in SELECTOR_NAMES:
            found.append(
                f"{path.relative_to(PACKAGE)}:{node.lineno} {type(node).__name__} {name}"
            )
    return found


def test_no_backend_selector_anywhere_in_the_product():
    sites = [
        site for path in sorted(PACKAGE.rglob("*.py")) for site in selector_sites(path)
    ]
    assert sites == [], (
        "a backend selector is growing back in src/repro — pick the kernel "
        "from the input, and reach an oracle through its handle "
        "(reference_feature_matrix / reference_statistic_vector, the tests/ "
        "oracles division_reference.py, exact_reference.py, hist_reference.py "
        f"and nn_reference.py): {sites}"
    )


def test_reference_oracles_import_only_the_stdlib_numpy_and_repro():
    """``scripts/perf_report.py`` times the ``tests/*_reference.py`` oracles
    in a CI job that installs only NumPy."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "repro"}
    oracles = sorted((REPO / "tests").glob("*_reference.py"))
    assert oracles, "no tests/*_reference.py oracle found"
    foreign = []
    for path in oracles:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            foreign += [
                f"{path.name}:{node.lineno} {module}"
                for module in modules
                if module.partition(".")[0] not in allowed
            ]
    assert foreign == [], f"oracle imports outside stdlib/numpy/repro: {foreign}"
