"""The module layering of hornkit, read from the source with `ast`: every
import of one hornkit module by another sits at module level, and the
imports between modules form no cycle, so each module's dependencies can be
read off its header."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hornkit"


def _imported(node: ast.AST) -> list[str]:
    """The hornkit modules an import statement names, relative or absolute."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 0:
            if node.module is None or node.module.split(".")[0] != "hornkit":
                return []
            parts = node.module.split(".")[1:]
        else:
            parts = node.module.split(".") if node.module else []
        if parts:
            return [parts[0]]
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("hornkit.")]
    return []


def _below_module_level(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, module) of each hornkit import not in the module's own body."""
    top = {id(node) for node in tree.body}
    return [(node.lineno, name) for node in ast.walk(tree)
            if id(node) not in top for name in _imported(node)]


def _module_imports() -> dict[str, set[str]]:
    """Module name -> the hornkit modules it imports at module level; fails on
    an import of a hornkit module anywhere below module level."""
    graph = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        below = _below_module_level(tree)
        assert not below, f"{path.name}: imports below module level (line, module): {below}"
        graph[path.stem] = {name for node in tree.body for name in _imported(node)}
    return graph


def _cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One import cycle of the graph as a closed path, or None."""
    state: dict[str, int] = {}  # 1 on the current path, 2 finished
    path: list[str] = []

    def visit(u: str) -> list[str] | None:
        state[u] = 1
        path.append(u)
        for v in sorted(graph.get(u, ())):
            if state.get(v) == 1:
                return path[path.index(v):] + [v]
            if v not in state and (found := visit(v)):
                return found
        path.pop()
        state[u] = 2
        return None

    for u in sorted(graph):
        if u not in state and (found := visit(u)):
            return found
    return None


def test_imports_at_module_level_and_acyclic():
    graph = _module_imports()
    assert {"lattice", "puiseux", "operators", "series", "solver", "cli"} <= set(graph)
    assert graph["series"] >= {"counting", "operators", "puiseux"}  # edges are read: an empty graph cannot pass
    assert _cycle(graph) is None, f"import cycle: {' -> '.join(_cycle(graph))}"


def test_cycle_finder_and_level_check_catch_faults():
    """The checks above fail where they should: on a three-module cycle, a
    self-import, and imports inside a function."""
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert _cycle({"a": {"a"}}) == ["a", "a"]
    assert _cycle({"a": {"b"}, "b": set(), "c": {"a", "b"}}) is None
    tree = ast.parse("from .a import x\n\n"
                     "def f():\n    from .b import y\n    import hornkit.c\n")
    assert _below_module_level(tree) == [(4, "b"), (5, "c")]
    assert _imported(ast.parse("from . import series, solver").body[0]) == ["series", "solver"]
    assert _imported(ast.parse("from hornkit.puiseux import Offset").body[0]) == ["puiseux"]
    assert _imported(ast.parse("from fractions import Fraction").body[0]) == []
