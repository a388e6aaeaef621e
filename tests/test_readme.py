"""README's "Library use" example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_use_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    (block,) = re.findall(r"^```python\n(.*?)^```$", section.split("\n## ", 1)[0],
                          flags=re.M | re.S)
    return block


def test_library_use_example_runs(capsys):
    namespace: dict = {}
    exec(compile(_library_use_block(), f"{README}:Library use", "exec"), namespace)
    printed = capsys.readouterr().out
    assert printed.startswith("MetricsReport(head='binary'") and printed.count("\n") == 1
    assert isinstance(namespace["prices"], namespace["PriceIndex"])
