"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

from polarfactor.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, re.M | re.S)


def transcripts():
    """(argv, expected output) of each unpiped `$ polarfactor ...` line in
    a text block, its output the lines up to the next `$ ` line."""
    found = []
    for block in blocks("text"):
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M):
            command, _, output = chunk.partition("\n")
            if command.startswith("$ polarfactor ") and not re.search(r"[|<>]", command):
                found.append((shlex.split(command)[2:], output))
    return found


def test_the_library_usage_block_runs(capsys):
    (code,) = blocks("python")
    exec(compile(code, "README.md", "exec"), {})
    assert "53/4" in capsys.readouterr().out


def test_each_cli_transcript_is_what_the_cli_prints(capsys):
    seen = []
    for argv, expected in transcripts():
        assert main(argv) == 0
        assert capsys.readouterr().out == expected
        seen.append(argv)
    assert seen == [["decompose", "8:12,14,15", "--text"], ["enriques", "2:3"]]
