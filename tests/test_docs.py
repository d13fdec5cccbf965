"""README's examples, run against the output they show.

Every `key = value` line shown under a `$ blockade ...` example must match
what cli.main prints: `dim` exactly, numbers to 1e-12 relative (as complex
numbers where they end in `j`).  A list ending in `,...` (the populations
line) is compared on the values it lists.  The Python library example must
print numbers that begin with the digits in its `# ...` comment, and every
`blockade.<module>` in the module list must import.
"""

import contextlib
import importlib
import io
import re
import shlex
from pathlib import Path

import pytest

from blockade.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples() -> list[tuple[str, dict]]:
    examples = []
    current = None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            current = None
        elif line.startswith("$ blockade "):
            current = {}
            examples.append((line[2:], current))
        elif current is not None and " = " in line:
            key, value = line.split(" = ", 1)
            current[key] = value
    return examples


EXAMPLES = readme_examples()


def number(text: str) -> float | complex:
    return complex(text) if text.endswith("j") else float(text)


def test_readme_has_examples_with_output():
    assert len(EXAMPLES) >= 2
    assert all(expected for _, expected in EXAMPLES)


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[cmd for cmd, _ in EXAMPLES])
def test_readme_example_output(command, expected, capsys):
    assert main(shlex.split(command)[1:]) == 0
    printed = dict(
        line.split(" = ", 1) for line in capsys.readouterr().out.splitlines() if " = " in line
    )
    for key, value in expected.items():
        if key == "dim":
            assert printed[key] == value
            continue
        shown = value.removesuffix(",...").split(",")
        actual = printed[key].split(",")[: len(shown)]
        assert len(actual) == len(shown), key
        assert [number(x) for x in actual] == pytest.approx(
            [number(x) for x in shown], rel=1e-12, abs=0.0
        ), key


def test_readme_library_example_output():
    text = README.read_text(encoding="utf-8")
    code = text.split("```python\n", 1)[1].split("```", 1)[0]
    shown = re.search(r"# (.+)$", code, re.MULTILINE).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(code, {})
    values = printed.getvalue().split()
    prefixes = [v.removesuffix("...") for v in shown.split(", ")]
    assert len(values) == len(prefixes) == 2
    for value, prefix in zip(values, prefixes):
        assert value.startswith(prefix), (value, prefix)


def test_readme_modules_import():
    modules = re.findall(r"^- `(blockade\.\w+)`", README.read_text(encoding="utf-8"), re.MULTILINE)
    assert "blockade.model" in modules
    for name in modules:
        importlib.import_module(name)
