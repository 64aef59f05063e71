"""The package's own import graph: every relative import sits at module
level, and the modules form a DAG, so no import is deferred to hide a
cycle."""

import ast
from graphlib import TopologicalSorter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "simpcrit"


def relative_imports(path):
    """(target module, line, at module level) for each relative import."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.level == 1, f"{path.name}:{node.lineno} leaves the package"
            targets = [node.module] if node.module else [a.name for a in node.names]
            out += [(t, node.lineno, node in tree.body) for t in targets]
    return out


def import_graph():
    return {p.stem: relative_imports(p) for p in sorted(PACKAGE.glob("*.py"))}


def test_relative_imports_sit_at_module_level():
    nested = [f"{m}.py:{line} imports .{t}"
              for m, imports in import_graph().items()
              for t, line, at_top in imports if not at_top]
    assert nested == []


def test_module_graph_is_acyclic():
    graph = {m: {t for t, _, _ in imports} for m, imports in import_graph().items()}
    # static_order raises graphlib.CycleError on a cycle
    list(TopologicalSorter(graph).static_order())
    assert graph["trees"] == {"complexes", "intlinalg"}
