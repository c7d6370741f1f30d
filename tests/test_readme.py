"""The README's Library example runs as written against the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_block_runs():
    section = README.read_text().split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope: dict = {}
    exec(compile(code, "README.md", "exec"), scope)
    assert scope["c"].degree == 10
    assert len(scope["rows"]) == 20
