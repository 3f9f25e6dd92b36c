"""README's "Library example" block runs as the README holds it, and its
lists of stage-subcommand flags are the parser's."""

import argparse
import re
from pathlib import Path

import pytest

from colsfm.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(capsys):
    exec(compile(_library_example(), str(README), "exec"), {})
    stack, error = capsys.readouterr().out.splitlines()
    assert stack == "essential (66, 2) (66, 3, 3)"
    assert float(error) < 1e-12  # "~1e-15 for noiseless input"


STAGES = ("average", "recover", "pipeline")


def _readme_flags() -> dict:
    """{subcommand: flags} from the "* `name`: `--flag`, ..." lines of CLI."""
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("\n## ", 1)[0]
    lines = re.findall(r"^\* `(\w+)`: (.*)$", section, re.M)
    return {name: re.findall(r"`(--[a-z-]+)`", rest) for name, rest in lines}


def _parser_flags(command: str) -> list:
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [flag for action in sub.choices[command]._actions for flag in action.option_strings
            if flag.startswith("--") and flag != "--help"]


@pytest.mark.parametrize("command", STAGES)
def test_stage_flags_match_parser(command):
    listed = _readme_flags()
    assert set(STAGES) <= set(listed)
    assert sorted(listed[command]) == sorted(_parser_flags(command))
