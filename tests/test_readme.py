"""The README's examples run as written and print what its comments say."""

import re
import shlex
from pathlib import Path

from privmapf.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def code_blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), re.M | re.S)


def cli_examples():
    """(argv, expected stdout lines) of the README's solve, audit and ppfpp runs."""
    examples = []
    for block in code_blocks("sh"):
        command, *comments = block.replace("\\\n", " ").splitlines()
        argv = shlex.split(command)
        if argv[:1] == ["privmapf"] and argv[1] in ("solve", "audit", "ppfpp"):
            examples.append((argv[1:], [line.removeprefix("# ") for line in comments]))
    return examples


def test_library_example_runs(tmp_path, monkeypatch):
    (code,) = code_blocks("python")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})


def test_cli_examples_print_their_comments(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    examples = cli_examples()
    assert [argv[0] for argv, _ in examples] == ["solve", "audit", "ppfpp"]
    for argv, expected in examples:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out.splitlines() == expected, argv
