import ast
from pathlib import Path

import wblowup


def test_library_has_no_assert_statements():
    # python -O strips assert; library invariants must raise explicitly
    for path in sorted(Path(wblowup.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert on lines {lines}"
