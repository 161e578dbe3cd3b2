"""Route or delete, and write it once: structural guards by AST (tier-1, fast).

``graph/csr.py`` once carried a fast twin for every kernel somebody guessed
would be hot; five of them were exported, benchmarked and parity-tested while
``core.division.divide`` never called them.  ``repro.ml`` exported scalers,
k-fold splits, an estimator protocol and an SGD optimiser; ``repro.runtime``
a sharding strategy, a degree balancer and checkpoint helpers;
``repro.graph`` edge-list readers and writers, structural metrics and a
second copy of the ``Graph`` read API on ``CSRGraph`` — all called only by
tests.  (``repro.runtime``'s sharded executor and fault injector went
later: the product retried only the faults it injected itself.)  The rule since, one helper for every layer: a name in the
``__all__`` of a guarded module needs a reference from product code —
``src/repro`` outside the name's home, ``scripts/`` or ``examples/`` —
bar one commented allowlist.  Each layer's test calls that helper on its
own modules, so a failure names the layer.  A reference from ``tests/`` never counts,
and neither does a package ``__init__``'s re-export.
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
product surface, so outside ``ml/`` (whose GBDT classes keep ``backend=``
for the routed exact / histogram choice) nothing may be *named* after a
backend selector, and every literal those classes accept must be exercised
by some test.  A reference executor is a test oracle in ``tests/``
(``exact_reference.py``, ``hist_reference.py``, ``nn_reference.py``), and
those modules import only the standard library, NumPy and ``repro``: the CI
kernel gate times them with nothing else installed.
The checks are by AST, so a mention in a docstring or comment does not
count.
CI runs this file in the ``static-analysis`` job as well.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import sys
import textwrap
from pathlib import Path

import repro
from repro.experiments.registry import EXPERIMENTS
from repro.ml.forest import ML_BACKENDS

PACKAGE = Path(repro.__file__).resolve().parent  # src/repro
REPO = PACKAGE.parent.parent

# Guarded module -> the home a reference must come from outside of.  Where a
# package's modules are parts of one whole — the CommCNN stack, the cost
# model and its drivers — a part using a part is not a route, so
# the home is the package; elsewhere it is the module that defines the name.
GUARDED = {
    "repro.graph": "module",
    "repro.graph.csr": "module",
    "repro.community": "module",
    "repro.ml": "module",
    "repro.ml.nn": "package",
    "repro.runtime": "package",
}

# Exported names that need no reference from product code, by guarded module.
ALLOWLIST = {
    "repro.graph": {
        # The dataset JSON reader is the round-trip oracle of the writer
        # ``repro.cli generate`` routes.
        "load_dataset_json",
    },
    "repro.graph.csr": set(),
    "repro.community": {
        # The Girvan-Newman oracle's result type, and the dendrogram it
        # sweeps, which tests walk level by level.
        "GirvanNewmanResult",
        "girvan_newman_levels",
    },
    "repro.ml": {
        # Report metrics that classification_report composes inside
        # ml/metrics.py, exported for callers who want one number.
        "accuracy",
        "confusion_matrix",
        "macro_f1",
        "precision_recall_f1",
        "weighted_prf",
        # The accepted backend literals and the auto crossover, read in their
        # own modules (the constructors validate against them,
        # resolve_ml_backend routes on the crossover) and by the tests.
        "ML_BACKENDS",
        "HIST_AUTO_MIN_ROWS",
    },
    "repro.ml.nn": {
        # A public exception type (callers catch it, only the engine raises
        # it), and the parts of the CommCNN stack that NeuralNetworkClassifier
        # composes (the base layer type, the loss and the compiled engine),
        # which the parity suites drive directly.
        "EngineCompileError",
        "Layer",
        "SoftmaxCrossEntropy",
        "CompiledNetwork",
    },
    "repro.runtime": {
        # What a routed driver returns (callers read them, only runtime/
        # builds them).
        "MeasuredPhaseTimes",
        "RuntimeEstimate",
    },
}


def names_in_code(path: Path) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def module_file(dotted: str) -> Path:
    return Path(importlib.import_module(dotted).__file__).resolve()


def home_of(exporter: str, name: str) -> set[Path]:
    """The files a reference to ``exporter.name`` does not count from."""
    path = module_file(exporter)
    if GUARDED[exporter] == "package":
        return set(path.parent.rglob("*.py"))
    if path.name != "__init__.py":
        return {path}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ImportFrom) and name in {a.name for a in node.names}:
            return {module_file(node.module)}
    raise AssertionError(f"{exporter}.__init__ does not import {name}")


def assert_exports_referenced(*exporters: str) -> None:
    """Every name in the ``__all__`` of ``exporters`` is referenced from
    product code outside its home, or is on the allowlist; no allowlisted
    name is referenced or gone."""
    callers = [path for path in PACKAGE.rglob("*.py") if path.name != "__init__.py"]
    callers += [*(REPO / "scripts").rglob("*.py"), *(REPO / "examples").rglob("*.py")]
    names_by_file = {path.resolve(): names_in_code(path) for path in callers}
    unreferenced = set()
    for exporter in exporters:
        for name in importlib.import_module(exporter).__all__:
            home = home_of(exporter, name)
            if not any(
                name in names for path, names in names_by_file.items() if path not in home
            ):
                unreferenced.add(name)
    allowed = set().union(*(ALLOWLIST[exporter] for exporter in exporters))
    assert unreferenced == allowed, (
        f"{', '.join(exporters)} export names nothing in src/repro (outside "
        f"their home), scripts/ or examples/ references — route them or "
        f"delete them: {sorted(unreferenced - allowed)}; allowlisted names "
        f"that are referenced now, or no longer exported, and should leave "
        f"the allowlist: {sorted(allowed - unreferenced)}"
    )


GRAPH_LAYER = ("repro.graph", "repro.community")
CSR_LAYER = ("repro.graph.csr",)
MODEL_LAYER = ("repro.ml", "repro.ml.nn")
RUNTIME_LAYER = ("repro.runtime",)


def test_every_guarded_module_is_checked():
    checked = {*GRAPH_LAYER, *CSR_LAYER, *MODEL_LAYER, *RUNTIME_LAYER}
    assert checked == set(GUARDED) == set(ALLOWLIST)


def test_every_graph_layer_export_is_referenced():
    assert_exports_referenced(*GRAPH_LAYER)


def test_every_public_csr_kernel_is_routed():
    assert_exports_referenced(*CSR_LAYER)


def test_every_model_layer_export_is_referenced():
    assert_exports_referenced(*MODEL_LAYER)


def test_every_runtime_export_is_referenced():
    assert_exports_referenced(*RUNTIME_LAYER)


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


SELECTOR_NAMES = {"backend", "ml_backend", "nn_backend"}


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


def test_no_backend_selector_above_the_kernel_layer():
    sites = [
        site
        for path in sorted(PACKAGE.rglob("*.py"))
        if (PACKAGE / "ml") not in path.parents
        for site in selector_sites(path)
    ]
    assert sites == [], (
        "a backend selector is growing back above repro.ml — reach an oracle "
        "through its handle (a callable detector, reference_feature_matrix / "
        "reference_statistic_vector, the tests/ oracles exact_reference.py, "
        f"hist_reference.py and nn_reference.py): {sites}"
    )


def test_every_kernel_backend_literal_is_exercised_by_a_test():
    tests = "".join(path.read_text() for path in (REPO / "tests").rglob("*.py"))
    missing = [
        literal for literal in ML_BACKENDS if f'backend="{literal}"' not in tests
    ]
    assert missing == [], f"backend literals no test passes: {missing}"


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
