"""Run every `aliasfree` example of the README's CLI section."""

import re
import shlex
from pathlib import Path

import pytest

from aliasfree.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def cli_examples():
    text = README.read_text()
    section = text[text.index("\n## CLI\n"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.startswith("aliasfree ")]


def test_readme_has_cli_examples():
    commands = {argv[1] for argv in cli_examples()}
    assert commands == {"kernel", "freq", "sample", "resample", "activate",
                        "rotate", "analyze"}


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    # examples refer to each other's outputs by relative path, so they run
    # in order in one directory
    monkeypatch.chdir(tmp_path)
    for argv in cli_examples():
        assert main(argv[1:]) == 0, argv
        out = argv[argv.index("--out") + 1]
        if argv[1] == "sample":
            assert list(tmp_path.glob(f"{out}-000.*")), argv
        else:
            assert (tmp_path / out).exists(), argv
