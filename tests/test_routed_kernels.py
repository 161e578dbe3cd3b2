"""Route or delete: every public CSR kernel is selected by a product route (tier-1, fast).

``graph/csr.py`` once carried a fast twin for every kernel somebody guessed
would be hot; five of them were exported, benchmarked and parity-tested while
``core.division.divide`` never called them.  The rule since: a kernel is in
``repro.graph.csr.__all__`` only while product code outside the module (and
outside ``graph/__init__.py``'s re-export list) imports or references it.
The check is by AST, so a mention in a docstring or comment does not count.
CI runs this file in the ``static-analysis`` job as well.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.graph import csr

PACKAGE = Path(csr.__file__).resolve().parent.parent  # src/repro
NOT_A_ROUTE = {PACKAGE / "graph" / "csr.py", PACKAGE / "graph" / "__init__.py"}

# The all-pairs Brandes kernel is routed — the GN engine runs it on components
# too large for the flat-list loop — but only through the private
# ``_GNEngine._brandes_numpy``.  ``edge_betweenness_csr`` is the same kernel
# on a whole graph, public so the parity tests and the perf gate can drive it
# directly against ``community.betweenness.edge_betweenness``.
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
