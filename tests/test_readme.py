"""The library quick start of README.md runs and gives the results its
comments state, so the example cannot drift away from the package."""

import ast
import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def quick_start():
    """The Python block under the "Library quick start" heading."""
    section = README.read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_readme_quick_start_gives_its_commented_results():
    # every bare expression of the block is evaluated and kept, in order;
    # the facet loop prints one line per facet
    namespace, values, out = {}, [], io.StringIO()
    with contextlib.redirect_stdout(out):
        for node in ast.parse(quick_start()).body:
            if isinstance(node, ast.Expr):
                code = compile(ast.Expression(node.value), "README.md", "eval")
                values.append(eval(code, namespace))
            else:
                exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert values == [
        10,                              # len(lat.elements)
        [[2], [3], [4], [1, 2, 3]],      # the join-irreducibles
        8,                               # len(lat.maximal_chains())
        True,                            # sm.is_supermodular(v)
        [(0, 0, 0, 1), (0, 1, 0, 0)],    # sm.core_vertices(v)
        True,                            # sm.is_extreme(v)
        5,                               # sm.cone_dimension(lat)
    ]
    assert len(namespace["rays"]) == 6
    lines = out.getvalue().splitlines()
    assert len(lines) == 7 and "v(234) + v(2) >= v(23) + v(24)" in lines
