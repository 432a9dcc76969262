"""The README's library quick tour runs as written and gives the results its
comments state."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def tour_block() -> str:
    """The fenced Python block under the README's "Library quick tour"."""
    text = README.read_text()
    section = text[text.index("## Library quick tour"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_tour_results():
    """Each expression statement of the tour evaluates to the result its
    comment gives, in order: 31, 6, 'Zonotope', 6 and True."""
    code = tour_block()
    want = [31, 6, "Zonotope", 6, True]
    comments = [line.split("#", 1)[1].strip() for line in code.splitlines() if "#" in line]
    for value in want:
        assert any(c.startswith(repr(value)) for c in comments), value
    scope: dict = {}
    got = []
    for node in ast.parse(code).body:
        if isinstance(node, ast.Expr):
            got.append(eval(compile(ast.Expression(node.value), "README.md", "eval"), scope))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), scope)
    assert got == want and [type(v) for v in got] == [type(v) for v in want]
