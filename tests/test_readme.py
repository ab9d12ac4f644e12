"""The README's library quickstart runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quickstart():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quickstart_runs():
    namespace = {}
    exec(compile(_quickstart(), "README.md quickstart", "exec"), namespace)
    assert namespace["dist"].method == "grid-lower-bound"
    assert isinstance(namespace["model"], namespace["mz"].DependencySet)
