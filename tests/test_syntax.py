"""Every Python file of the project parses as Python 3.10, the oldest
version pyproject.toml allows, so syntax added in a later version fails
here on any interpreter that runs the tests."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path for folder in ("src", "tests", "scripts")
               for path in (ROOT / folder).rglob("*.py"))


@pytest.mark.parametrize("path", FILES, ids=lambda path: str(path.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_later_syntax_is_rejected():
    # except* came with Python 3.11
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
