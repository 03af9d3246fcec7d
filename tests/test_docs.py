"""The README's code runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_sketch_runs():
    text = README.read_text()
    section = text[text.index("## Library sketch"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(compile(code, "README.md (Library sketch)", "exec"), scope)
    assert scope["box"] is not None
