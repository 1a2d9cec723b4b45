"""The exported API: every listed name resolves, the README quick start
prints what its comments say, and the README's command lines run."""

import contextlib
import csv
import importlib
import io
import json
import pathlib
import pkgutil
import shlex

import pytest

import bfstab
from bfstab import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

MODULES = sorted(m.name for m in pkgutil.iter_modules(bfstab.__path__))


@pytest.mark.parametrize("module", ["bfstab"] + [f"bfstab.{m}" for m in MODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", [])
    assert len(names) == len(set(names)), module
    missing = [name for name in names if not hasattr(mod, name)]
    assert not missing, (module, missing)


def _quick_start():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _expected_lines(block):
    """The comment on, or on the line after, each print call."""
    expected, after_print = [], False
    for line in block.splitlines():
        code, _, comment = (part.strip() for part in line.partition("#"))
        if code.startswith("print("):
            after_print = not comment
            if comment:
                expected.append(comment)
        elif not code and comment and after_print:
            expected.append(comment)
            after_print = False
        else:
            after_print = False
    return expected


def _matches(printed, expected):
    """Token by token; an expected token with "..." matches any printed
    token that starts with the text before it and ends with the text
    after it."""
    got, want = printed.split(), expected.split()
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        head, dots, tail = w.partition("...")
        if not dots and g != w:
            return False
        if dots and not (len(g) >= len(head) + len(tail)
                         and g.startswith(head) and g.endswith(tail)):
            return False
    return True


def test_readme_quick_start_prints_its_comments():
    block = _quick_start()
    expected = _expected_lines(block)
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected), printed
    for got, want in zip(printed, expected):
        assert _matches(got, want), (got, want)


def _command_lines():
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    return section.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()


@pytest.mark.parametrize("line", _command_lines(),
                         ids=lambda line: line.split()[1])
def test_readme_command_line_runs(line, tmp_path, monkeypatch, capsys):
    # every command there passes all it checks, so exits 0
    (tmp_path / "payload.json").write_text(json.dumps(
        {"weights": [0.4, 0.6], "means": [-0.5, 1.0], "stds": [0.8, 1.2]}))
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(line)
    assert argv[0] == "bfstab"
    assert cli.main(argv[1:]) == 0
    out = capsys.readouterr().out
    if "csv" in argv:
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) >= 2 and len({len(r) for r in rows}) == 1
    else:
        assert isinstance(json.loads(out), dict)
