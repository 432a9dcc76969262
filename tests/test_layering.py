"""The module layering of hornkit, read from the source with `ast`: every
import of one hornkit module by another sits at module level, and the
imports between modules form no cycle, so each module's dependencies can be
read off its header.  Every public function or class is used in the package
or exported by it."""

import ast
import dataclasses
import importlib
from fractions import Fraction
from pathlib import Path
from types import FunctionType

SRC = Path(__file__).resolve().parent.parent / "src" / "hornkit"
TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


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


# The names cli may import from the layers below `solver`: everything else
# it prints comes from `solver.Report`.
CLI_EXCEPTIONS = {
    # `series --submatrix` writes one table, and bare `series` lists branches
    ("series", "series_from_submatrix"): "the series table writer",
    ("series", "ResonantCollisionError"): "the series table writer's exit 3",
    ("series", "branch_base_points"): "the branch listing",
    ("series", "branch_initial_exponent"): "the branch listing",
    ("operators", "apply_horn"): "verify applies both operators to a candidate solution",
}


def _below_solver(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) of each name a module imports from `counting`,
    `operators`, `series` or `polygon`; a whole-module import names "*"."""
    out = set()
    for node in tree.body:
        for module in _imported(node):
            if module not in ("counting", "operators", "series", "polygon"):
                continue
            named = isinstance(node, ast.ImportFrom) and node.module
            out |= {(module, alias.name if named else "*") for alias in node.names}
    return out


def test_cli_reads_the_report():
    """cli takes what it prints from `solver.Report`, apart from the names
    in CLI_EXCEPTIONS, each listed with the reason it is imported."""
    tree = ast.parse((SRC / "cli.py").read_text())
    assert _below_solver(tree) == set(CLI_EXCEPTIONS)
    assert _below_solver(ast.parse("from .polygon import classify\nfrom . import counting\n"
                                   "from .solver import Report\n")) == {
        ("polygon", "classify"), ("counting", "*")}


def _public_definitions(tree: ast.Module) -> list[ast.AST]:
    """The public top-level functions and classes of a module."""
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]


def _unreached(trees: dict[str, ast.Module], exported: set[str]) -> list[str]:
    """module.name of each public top-level function or class, outside `cli`
    and `__init__`, that `__init__` does not export and no code in the
    package refers to outside its own definition."""
    out = []
    for module, tree in trees.items():
        if module in ("cli", "__init__"):
            continue
        for node in _public_definitions(tree):
            if node.name in exported:
                continue
            inside = {id(n) for n in ast.walk(node)}
            used = any((isinstance(n, ast.Name) and n.id == node.name
                        or isinstance(n, ast.Attribute) and n.attr == node.name)
                       and id(n) not in inside
                       for other in trees.values() for n in ast.walk(other))
            if not used:
                out.append(f"{module}.{node.name}")
    return out


def test_no_dead_public_code():
    """Every public function or class is used inside the package or is part
    of its exported API: code only the tests call lives in the tests."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    exported = {alias.asname or alias.name for node in trees["__init__"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert {"classify", "harvest_polynomials"} <= exported  # the exports are read
    assert _unreached(trees, exported) == []


def test_dead_code_finder_catches_faults():
    """The check above fails on an unused public function or class, and
    counts neither a self-reference nor a private name."""
    trees = {"__init__": ast.parse("from .m import exported\n"),
             "m": ast.parse("def exported():\n    return used()\n\n"
                            "def used():\n    return 1\n\n"
                            "def recursive(n):\n    return recursive(n - 1)\n\n"
                            "class Unused:\n    pass\n\n"
                            "def _private():\n    pass\n"),
             "cli": ast.parse("def command():\n    pass\n")}
    assert _unreached(trees, {"exported"}) == ["m.recursive", "m.Unused"]


def _tracer_keys(tree: ast.Module, name: str) -> list[str]:
    """The string keys of the dict literal assigned to `name` at the top
    level of the benchmark's tracer."""
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name) and node.targets[0].id == name):
            return [key.value for key in node.value.keys]
    raise AssertionError(f"{name} is not assigned in {TRACER.name}")


def test_tracer_names_public_functions():
    """Every function the benchmark's tracer names (`NAMED`) or counts
    (`COUNTERS`) is a public function of its hornkit module, defined there
    and called from the package: the tracer wraps only those, and leaves a
    metric whose function it does not find out of its result line.
    `GrowResult` keeps the `values` and `exceeded` that its grow counter
    reads.  The tracer is read with `ast`, not imported or edited."""
    from hornkit.series import GrowResult

    tree = ast.parse(TRACER.read_text())
    quals = _tracer_keys(tree, "NAMED") + _tracer_keys(tree, "COUNTERS")
    assert len(quals) >= 12 and "series.grow_component" in quals, quals
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    for qual in quals:
        layer, name = qual.split(".")
        mod = importlib.import_module(f"hornkit.{layer}")
        fn = getattr(mod, name, None)
        assert isinstance(fn, FunctionType) and not name.startswith("_"), qual
        assert fn.__module__ == mod.__name__, qual
        assert any(isinstance(n, ast.Call) and (getattr(n.func, "id", None) == name
                                                or getattr(n.func, "attr", None) == name)
                   for t in trees.values() for n in ast.walk(t)), f"{qual} is never called"
    assert {"pairs", "exceeded"} <= {f.name for f in dataclasses.fields(GrowResult)}
    grown = GrowResult({(0, 0): (1, 1), (1, 0): (-3, 7)}, False)
    assert grown.exceeded is False
    assert grown.values == {(0, 0): Fraction(1), (1, 0): Fraction(-3, 7)}
