"""README's "Library example" block runs as the README holds it."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(capsys):
    exec(compile(_library_example(), str(README), "exec"), {})
    stack, error = capsys.readouterr().out.splitlines()
    assert stack == "essential (66, 2) (66, 3, 3)"
    assert float(error) < 1e-12  # "~1e-15 for noiseless input"
