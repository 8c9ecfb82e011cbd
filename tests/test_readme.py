"""The README's Library block runs, and gives the values its comments state."""

import ast
import re
from pathlib import Path

from cslindex import compose, index_by_hnf, reflection

README = Path(__file__).resolve().parent.parent / "README.md"


def library_values() -> dict[str, object]:
    """Run the python block under '## Library'; the value of each expression line, keyed by its source."""
    block = re.search(r"^## Library\n\n```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)[1]
    namespace, values = {}, {}
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            values[ast.get_source_segment(block, node)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
    return values


def test_library_block():
    values = library_values()
    for route in ("index_fortes", "index_closed_form", "index_by_counting", "index_by_hnf"):
        assert values[f"{route}(y).sigma"] == 5
    assert values["index_reflection((1, 1, 1)).sigma"] == 3
    assert values["index_coprime_product([(1, 1, 1), (1, 2, 0)]).sigma"] == 15
    spectrum = values["reflection_spectrum(3, 99)"]
    assert list(spectrum) == list(range(1, 100, 2))
    witness = values["coprime_witness((3, 4), 5)"]
    assert witness.sigma == 12
    assert index_by_hnf(compose(*(reflection(axis) for axis in witness.axes))).sigma == 12
    assert values["compose(*r).q"] == 15
