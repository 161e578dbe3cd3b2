"""Route or delete, and write it once: structural guards by AST (tier-1, fast).

``graph/csr.py`` once carried a fast twin for every kernel somebody guessed
would be hot; five of them were exported, benchmarked and parity-tested while
``core.division.divide`` never called them.  The rule since: a kernel is in
``repro.graph.csr.__all__`` only while product code outside the module (and
outside ``graph/__init__.py``'s re-export list) imports or references it.
The same rule holds for the ``measure_*`` / ``run_*`` drivers of
``repro.runtime.scalability`` — one of them lived on for nine PRs with a
README recipe as its only caller — ``core/pipeline.py`` is held to
"every stage of Algorithm 2 has one call site, no function over 60 code
lines", and under ``core/`` and ``graph/`` only the pipeline may import the
sharded runtime (a process pool once grew inside Phase II aggregation).
Oracles are not options: which kernel computes a phase is chosen below the
product surface, so outside ``ml/`` (whose GBDT classes keep ``backend=``
for the routed exact / histogram choice) nothing may be *named* after a
backend selector, and every literal those classes accept must be exercised
by some test.  A reference executor is a test oracle in ``tests/``
(``exact_reference.py``, ``hist_reference.py``, ``nn_reference.py``), and
those modules import only the standard library, NumPy and ``repro``: the CI
kernel gate times them with nothing else installed.  The
model layer is held to the csr rule too: ``repro.ml`` once exported scalers,
k-fold splits, an estimator protocol and an SGD optimiser that only tests
called.  ``repro.runtime`` is held to it as well: it exported a sharding
strategy, a degree balancer and checkpoint helpers that only tests called.
The checks are by AST, so a mention in a docstring or comment does not
count.
CI runs this file in the ``static-analysis`` job as well.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import repro.ml
import repro.ml.nn
import repro.runtime
from repro.graph import csr
from repro.ml.forest import ML_BACKENDS

PACKAGE = Path(csr.__file__).resolve().parent.parent  # src/repro
REPO = PACKAGE.parent.parent
NOT_A_ROUTE = {PACKAGE / "graph" / "csr.py", PACKAGE / "graph" / "__init__.py"}

# The batched all-sources Brandes kernel is routed — the GN engine runs it on
# every component without a closed form — but only through the private
# ``_brandes_through``.  ``edge_betweenness_csr`` is the same kernel on a
# stack of one whole graph, public so the parity tests and the perf gate can
# drive it directly against ``community.betweenness.edge_betweenness``.
TEST_HANDLES = {"edge_betweenness_csr"}


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


def test_every_public_csr_kernel_is_routed():
    used: set[str] = set()
    for path in PACKAGE.rglob("*.py"):
        if path not in NOT_A_ROUTE:
            used |= names_in_code(path)
    unrouted = set(csr.__all__) - used
    assert unrouted == TEST_HANDLES, (
        "repro.graph.csr.__all__ names no product module uses — route them or "
        f"delete them: {sorted(unrouted - TEST_HANDLES)}; allowlisted names "
        f"that are routed now and should leave TEST_HANDLES: "
        f"{sorted(TEST_HANDLES - unrouted)}"
    )


ML = PACKAGE / "ml"
CALLER_ROOTS = ("src", "scripts", "examples", "benchmarks")

# Exported names that need no reference outside the scope below.
MODEL_LAYER_ALLOWLIST = {
    # A public exception type: callers catch it, only the engine raises it.
    "EngineCompileError",
    # Report metrics that classification_report composes inside
    # ml/metrics.py; exported for callers who want one number.
    "confusion_matrix",
    "precision_recall_f1",
    "weighted_prf",
    # The accepted backend literals and the auto crossover, read in their
    # own modules (the constructors validate against them, resolve_ml_backend
    # routes on the crossover) and by the tests.
    "ML_BACKENDS",
    "HIST_AUTO_MIN_ROWS",
    # Parts of the CommCNN stack that NeuralNetworkClassifier composes inside
    # ml/nn (the base layer type, the loss and the compiled engine); the
    # parity suites drive each directly.
    "Layer",
    "SoftmaxCrossEntropy",
    "CompiledNetwork",
}


def exporting_modules(package: Path) -> dict[str, Path]:
    """Re-exported name -> the file its ``__init__`` imports it from."""
    found = {}
    for node in ast.parse((package / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom):
            source = PACKAGE.parent.joinpath(*node.module.split(".")).with_suffix(".py")
            found.update({alias.name: source for alias in node.names})
    return found


def test_every_model_layer_export_is_referenced():
    """A name in ``repro.ml.__all__`` needs a reference outside the module
    that defines it; a name in ``repro.ml.nn.__all__`` — the CommCNN stack,
    whose parts the classifier composes — needs one outside ``ml/nn``."""
    inits = {ML / "__init__.py", ML / "nn" / "__init__.py"}
    names_by_file = {
        path: names_in_code(path)
        for root in CALLER_ROOTS
        for path in (REPO / root).rglob("*.py")
        if path not in inits
    }
    sources = exporting_modules(ML)
    homes = {name: {sources[name]} for name in repro.ml.__all__}
    nn_files = set((ML / "nn").rglob("*.py"))
    homes.update({name: nn_files for name in repro.ml.nn.__all__})
    unreferenced = {
        name
        for name, home in homes.items()
        if not any(
            name in names for path, names in names_by_file.items() if path not in home
        )
    }
    assert unreferenced == MODEL_LAYER_ALLOWLIST, (
        "model-layer exports nothing in src/, scripts/, examples/ or benchmarks/ "
        f"references — route them or delete them: "
        f"{sorted(unreferenced - MODEL_LAYER_ALLOWLIST)}; allowlisted names that "
        f"are referenced now and should leave the allowlist: "
        f"{sorted(MODEL_LAYER_ALLOWLIST - unreferenced)}"
    )


RUNTIME = PACKAGE / "runtime"

# Exported names that need no reference outside runtime/.
RUNTIME_ALLOWLIST = {
    # What a routed driver or the executor returns: callers read them and
    # only runtime/ builds them.
    "ExecutionReport",
    "ChaosReport",
    "MeasuredPhaseTimes",
    "RuntimeEstimate",
    # A FaultPlan's element: what a test scripts a chaos schedule from.
    "Fault",
}


def test_every_runtime_export_is_referenced():
    """A name in ``repro.runtime.__all__`` needs a reference outside
    ``runtime/``: in the rest of ``src/repro`` (the pipeline, ``cli.py``,
    ``experiments/``), ``examples/`` or ``scripts/``."""
    files = [path for path in PACKAGE.rglob("*.py") if RUNTIME not in path.parents]
    files += [*(REPO / "examples").rglob("*.py"), *(REPO / "scripts").rglob("*.py")]
    used = set().union(*(names_in_code(path) for path in files))
    unreferenced = set(repro.runtime.__all__) - used
    assert unreferenced == RUNTIME_ALLOWLIST, (
        "repro.runtime exports nothing outside runtime/ references — route "
        f"them or delete them: {sorted(unreferenced - RUNTIME_ALLOWLIST)}; "
        "allowlisted names that are referenced now and should leave the "
        f"allowlist: {sorted(RUNTIME_ALLOWLIST - unreferenced)}"
    )


def calls_in_code(path: Path) -> list[str]:
    """Name of every called function or method, once per call site."""
    return [
        getattr(node.func, "id", None) or getattr(node.func, "attr", "")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
    ]


def test_every_scalability_driver_has_a_product_caller():
    module = ast.parse((PACKAGE / "runtime" / "scalability.py").read_text())
    drivers = {
        node.name
        for node in module.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith(("measure_", "run_"))
    }
    callers = [PACKAGE / "cli.py", *(PACKAGE / "experiments").glob("*.py")]
    callers += [*(REPO / "examples").glob("*.py"), *(REPO / "scripts").glob("*.py")]
    called = {name for path in callers for name in calls_in_code(path)}
    unrouted = drivers - called
    assert unrouted == set(), (
        "repro.runtime.scalability drivers that cli.py, experiments/, examples/ "
        f"and scripts/ never call — route them or delete them: {sorted(unrouted)}"
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


def test_only_the_pipeline_reaches_into_the_sharded_runtime():
    # pipeline.py: ShardedDivisionExecutor for re-division, FaultPlan for typing.
    importers = {
        str(path.relative_to(PACKAGE))
        for layer in ("core", "graph")
        for path in (PACKAGE / layer).rglob("*.py")
        if any(
            module == "repro.runtime" or module.startswith("repro.runtime.")
            for module in imported_modules(path)
        )
    }
    assert importers == {"core/pipeline.py"}, (
        "modules under core/ and graph/ importing repro.runtime — the layers "
        f"below the runtime must not own a pool: {sorted(importers)}"
    )


PIPELINE = PACKAGE / "core" / "pipeline.py"
MAX_FUNCTION_CODE_LINES = 60


def test_each_pipeline_stage_has_one_call_site():
    calls = calls_in_code(PIPELINE)
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
