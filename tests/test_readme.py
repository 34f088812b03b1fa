"""Every `$ freeunitary ...` example in README.md prints what the README shows."""

import shlex
from pathlib import Path

import pytest

from freeunitary.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples():
    """(command, expected stdout) for each `$ ` line inside a README code block."""
    examples, current, inside = [], None, False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            inside, current = not inside, None
        elif inside and line.startswith("$ "):
            current = (line[2:], [])
            examples.append(current)
        elif inside and current is not None:
            current[1].append(line)
    return [(cmd, "\n".join(out).strip("\n") + "\n") for cmd, out in examples]


EXAMPLES = _examples()
# `$ cat FILE` blocks show input files that later examples read.
FILES = {cmd.split()[1]: text for cmd, text in EXAMPLES if cmd.startswith("cat ")}
RUNS = [(cmd, text) for cmd, text in EXAMPLES if cmd.startswith("freeunitary ")]


def test_readme_examples_are_found():
    assert len(RUNS) >= 13
    assert "q.json" in FILES


@pytest.mark.parametrize("cmd,want", RUNS, ids=[cmd for cmd, _ in RUNS])
def test_readme_example(cmd, want, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    assert run(shlex.split(cmd)[1:]) == 0
    assert capsys.readouterr().out == want


def test_suite_table_is_the_registry():
    # name, default size and --max-n bound of every suite, in execution order
    from importlib import import_module

    from freeunitary.verify import SIZES

    text = README.read_text()
    table = text[text.index("| suite | default size |"):].split("\n\n")[0].splitlines()[2:]
    rows = []
    for line in table:
        name, size, bound = (cell.strip() for cell in line.split("|")[1:4])
        rows.append((name.strip("`"), None if size == "none" else int(size), bound))
    want = []
    for name, (size, bound) in SIZES.items():
        if bound:
            module, const = bound.split(".")
            bound = f"`{bound}` = {getattr(import_module('freeunitary.' + module), const)}"
        want.append((name, size, bound or "none"))
    assert rows == want
